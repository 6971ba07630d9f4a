import itertools
import math
import os
import warnings

import numpy as np
import pytest

from rocqe import (
    LENIENT,
    STRICT_ANY_ERROR,
    CanonicalRecords,
    IngestError,
    IngestReport,
    Label,
    Orientation,
    parse_canonical_tsv,
    parse_wmt_layout,
    to_dataset,
)
import rocqe.ingest as ingest_module
from rocqe.ingest import MAX_WARNINGS, _read_system
from rocqe.model import ID_DTYPE
import helpers
from helpers import records_of, segments_of, traced_peak


def _write(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return str(path)


def _row_lines(skipped, keys) -> list[int]:
    """The line number of each of ``_scan``'s rows, mapped from the lines it
    skipped, and checked against counting the lines it did not skip."""
    lines = ingest_module._row_line(skipped, np.arange(keys.size)).tolist()
    skipped = set(skipped.tolist())
    not_skipped = (n for n in itertools.count(1) if n not in skipped)
    assert lines == list(itertools.islice(not_skipped, keys.size))
    return lines


class TestParseCanonicalTsv:
    def test_sample10_files(self, sample10_paths):
        gold, scores = sample10_paths
        records, report = parse_canonical_tsv(gold, scores, "metric")
        assert records.ids.size == 10
        assert report.total_lines == 10
        assert report.accepted == 10
        assert report.skipped_missing_gold == 0
        at = records.ids.tolist().index("5")
        assert records.metric == "metric"
        assert records.mqm_scores[at] == -5.0
        assert records.scores[at] == 25.0

    def test_headers_are_optional(self, tmp_path):
        gold = _write(tmp_path / "g.tsv", ["a\t-1.0", "b\t0.0"])
        scores = _write(tmp_path / "s.tsv", ["a\t0.9", "b\t0.1"])
        records, report = parse_canonical_tsv(gold, scores, "m")
        assert records.ids.tolist() == ["a", "b"]
        assert report.accepted == 2

    def test_header_detected_by_non_numeric_value(self, tmp_path):
        gold = _write(tmp_path / "g.tsv", ["segment_id\tmqm", "a\t-1.0"])
        scores = _write(tmp_path / "s.tsv", ["segment_id\tscore", "a\t0.9"])
        records, report = parse_canonical_tsv(gold, scores, "m")
        assert records.ids.tolist() == ["a"]
        assert report.total_lines == 1

    def test_missing_markers_keep_the_row(self, tmp_path):
        gold = _write(
            tmp_path / "g.tsv", ["a\tNone", "b\tNA", "c\t", "d\t-1.0", "e\tnan"]
        )
        scores = _write(
            tmp_path / "s.tsv", ["a\t1.0", "b\t2.0", "c\t3.0", "d\t4.0", "e\t5.0"]
        )
        records, report = parse_canonical_tsv(gold, scores, "m")
        assert report.total_lines == 5
        assert report.accepted == 1
        assert report.skipped_missing_gold == 4
        assert records.ids.tolist() == ["d"]

    def test_missing_score_counted_separately(self, tmp_path):
        gold = _write(tmp_path / "g.tsv", ["a\t-1.0", "b\t-2.0"])
        scores = _write(tmp_path / "s.tsv", ["a\tNone", "b\t0.5"])
        records, report = parse_canonical_tsv(gold, scores, "m")
        assert report.skipped_missing_score == 1
        assert report.accepted == 1

    def test_missing_gold_takes_precedence_over_missing_score(self, tmp_path):
        gold = _write(tmp_path / "g.tsv", ["a\tNone"])
        scores = _write(tmp_path / "s.tsv", ["a\tNA"])
        _, report = parse_canonical_tsv(gold, scores, "m")
        assert report.skipped_missing_gold == 1
        assert report.skipped_missing_score == 0

    def test_one_sided_ids_count_as_missing(self, tmp_path):
        gold = _write(tmp_path / "g.tsv", ["a\t-1.0", "b\t-2.0"])
        scores = _write(tmp_path / "s.tsv", ["b\t0.5", "c\t0.7"])
        records, report = parse_canonical_tsv(gold, scores, "m")
        assert records.ids.tolist() == ["b"]
        assert report.total_lines == 3
        assert report.skipped_missing_gold == 1
        assert report.skipped_missing_score == 1

    def test_malformed_line_skipped_with_warning(self, tmp_path):
        gold = _write(tmp_path / "g.tsv", ["a\t-1.0", "only-one-field", "b\t0.0"])
        scores = _write(tmp_path / "s.tsv", ["a\t0.9", "b\t0.1"])
        records, report = parse_canonical_tsv(gold, scores, "m")
        assert report.accepted == 2
        assert report.skipped_malformed == 1
        assert report.total_lines == 3
        assert any("line 2" in w for w in report.warnings)

    def test_strict_mode_raises_on_malformed(self, tmp_path):
        gold = _write(tmp_path / "g.tsv", ["a\t-1.0", "broken line without tab"])
        scores = _write(tmp_path / "s.tsv", ["a\t0.9"])
        with pytest.raises(IngestError, match="line 2"):
            parse_canonical_tsv(gold, scores, "m", strict=True)

    def test_duplicate_id_always_rejected(self, tmp_path):
        gold = _write(tmp_path / "g.tsv", ["a\t-1.0", "a\t-2.0"])
        scores = _write(tmp_path / "s.tsv", ["a\t0.9"])
        with pytest.raises(IngestError, match="duplicate"):
            parse_canonical_tsv(gold, scores, "m")

    def test_non_numeric_value_is_malformed(self, tmp_path):
        gold = _write(tmp_path / "g.tsv", ["a\t-1.0", "b\tbogus"])
        scores = _write(tmp_path / "s.tsv", ["a\t0.9", "b\t0.1"])
        _, report = parse_canonical_tsv(gold, scores, "m")
        assert report.skipped_malformed == 1

    def test_accounting_always_partitions(self, tmp_path):
        rng = np.random.default_rng(71)
        markers = ["None", "NA", ""]
        for trial in range(30):
            n = int(rng.integers(1, 15))
            gold_lines, score_lines = [], []
            for i in range(n):
                gid = f"s{i}"
                if rng.random() < 0.2:
                    gold_lines.append(f"{gid}\t{markers[int(rng.integers(0, 3))]}")
                else:
                    gold_lines.append(f"{gid}\t{-rng.random():.3f}")
                if rng.random() < 0.2:
                    score_lines.append(f"{gid}\tNone")
                elif rng.random() < 0.9:
                    score_lines.append(f"{gid}\t{rng.random():.3f}")
            if rng.random() < 0.3:
                gold_lines.append("malformed")
            gold = _write(tmp_path / f"g{trial}.tsv", gold_lines)
            scores = _write(tmp_path / f"s{trial}.tsv", score_lines)
            _, report = parse_canonical_tsv(gold, scores, "m")
            assert report.total_lines == (
                report.accepted
                + report.skipped_missing_gold
                + report.skipped_missing_score
                + report.skipped_malformed
            )

    def test_row_order_does_not_matter(self, tmp_path):
        gold = _write(tmp_path / "g.tsv", ["b\t-1.0", "a\t0.0", "c\t-2.0"])
        scores = _write(tmp_path / "s.tsv", ["c\t0.3", "a\t0.1", "b\t0.2"])
        records, _ = parse_canonical_tsv(gold, scores, "m")
        assert records.ids.tolist() == ["a", "b", "c"]

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            parse_canonical_tsv(str(tmp_path / "nope.tsv"), str(tmp_path / "x.tsv"), "m")

    def test_byte_order_mark_on_headerless_file_is_ignored(self, tmp_path):
        gold = _write(tmp_path / "g.tsv", ["\ufeff1\t-5.0", "2\t0.0"])
        scores = _write(tmp_path / "s.tsv", ["1\t0.3", "2\t0.1"])
        records, report = parse_canonical_tsv(gold, scores, "m")
        assert records.ids.tolist() == ["1", "2"]
        assert records.mqm_scores[0] == -5.0
        assert report.accepted == 2
        assert report.total_lines == 2
        assert report.skipped_missing_gold == 0
        assert report.skipped_missing_score == 0

    def test_warnings_are_capped_and_counted(self, tmp_path):
        gold_lines = ["a\t-1.0"] + [f"bad line {i}" for i in range(600)]
        score_lines = ["a\t0.9"] + [f"b{i}\tbogus" for i in range(400)]
        gold = _write(tmp_path / "g.tsv", gold_lines)
        scores = _write(tmp_path / "s.tsv", score_lines)
        records, report = parse_canonical_tsv(gold, scores, "m")
        assert records.ids.size == 1
        assert report.skipped_malformed == 1000
        assert report.total_lines == 1001
        assert len(report.warnings) == MAX_WARNINGS + 1
        assert report.warnings[0].endswith("line 2: expected 2 tab-separated fields, got 1")
        assert all("g.tsv line" in w for w in report.warnings[:MAX_WARNINGS])
        assert report.warnings[-1] == f"... and {1000 - MAX_WARNINGS} more malformed lines"

    def test_warnings_under_the_cap_are_all_listed(self, tmp_path):
        gold = _write(tmp_path / "g.tsv", ["a\t-1.0"] + ["x"] * MAX_WARNINGS)
        scores = _write(tmp_path / "s.tsv", ["a\t0.9"])
        _, report = parse_canonical_tsv(gold, scores, "m")
        assert report.skipped_malformed == MAX_WARNINGS
        assert len(report.warnings) == MAX_WARNINGS
        assert not any("more malformed" in w for w in report.warnings)


class TestWmtLayout:
    def test_mini_tree(self, wmt_root):
        records, report = parse_wmt_layout(wmt_root, "zh-en", "wmt23", "sysX", "metricA")
        assert report.total_lines == 4
        assert report.accepted == 3
        assert report.skipped_missing_gold == 1
        assert records.ids.tolist() == ["wmt23:sysX:0", "wmt23:sysX:1", "wmt23:sysX:3"]
        assert records.metric == "metricA"
        assert records.mqm_scores[0] == -1.0
        assert records.scores[0] == 0.9

    def test_other_system_slices_its_own_rows(self, wmt_root):
        records, report = parse_wmt_layout(wmt_root, "zh-en", "wmt23", "sysY", "metricA")
        assert report.accepted == 4
        assert records.scores.tolist() == [0.2, 0.7, 0.4, 0.1]

    def test_unknown_metric_lists_available(self, wmt_root):
        with pytest.raises(IngestError, match="metricA"):
            parse_wmt_layout(wmt_root, "zh-en", "wmt23", "sysX", "missingmetric")

    def test_unknown_system_lists_available(self, wmt_root):
        with pytest.raises(IngestError, match="sysX"):
            parse_wmt_layout(wmt_root, "zh-en", "wmt23", "nosuch", "metricA")

    def test_unknown_language_pair_raises(self, wmt_root):
        with pytest.raises((IngestError, FileNotFoundError)):
            parse_wmt_layout(wmt_root, "xx-yy", "wmt23", "sysX", "metricA")

    def test_byte_order_mark_is_ignored(self, tmp_path):
        root = tmp_path / "tree"
        hs = root / "wmt23" / "human-scores"
        ms = root / "wmt23" / "metric-scores" / "zh-en"
        os.makedirs(hs)
        os.makedirs(ms)
        _write(hs / "zh-en.mqm.seg.score", ["\ufeffsysA\t-1.0", "sysA\t0.0"])
        _write(ms / "m.seg.score", ["\ufeffsysA\t0.5", "sysA\t0.2"])
        records, report = parse_wmt_layout(str(root), "zh-en", "wmt23", "sysA", "m")
        assert report.accepted == 2
        assert records.ids.tolist() == ["wmt23:sysA:0", "wmt23:sysA:1"]

    def test_length_mismatch_is_a_hard_error(self, tmp_path):
        root = tmp_path / "tree"
        hs = root / "wmt23" / "human-scores"
        ms = root / "wmt23" / "metric-scores" / "zh-en"
        os.makedirs(hs)
        os.makedirs(ms)
        _write(hs / "zh-en.mqm.seg.score", ["sysA\t-1.0", "sysA\t0.0"])
        _write(ms / "m.seg.score", ["sysA\t0.5"])
        with pytest.raises(IngestError, match="2.*1|1.*2"):
            parse_wmt_layout(str(root), "zh-en", "wmt23", "sysA", "m")

    def test_malformed_metric_line_is_a_hard_error(self, tmp_path):
        root = tmp_path / "tree"
        hs = root / "wmt23" / "human-scores"
        ms = root / "wmt23" / "metric-scores" / "zh-en"
        os.makedirs(hs)
        os.makedirs(ms)
        _write(hs / "zh-en.mqm.seg.score", ["sysA\t-1.0"])
        _write(ms / "m.seg.score", ["garbage"])
        with pytest.raises(IngestError):
            parse_wmt_layout(str(root), "zh-en", "wmt23", "sysA", "m")

    def test_header_line_is_a_hard_error(self, tmp_path):
        root = tmp_path / "tree"
        hs = root / "wmt23" / "human-scores"
        ms = root / "wmt23" / "metric-scores" / "zh-en"
        os.makedirs(hs)
        os.makedirs(ms)
        _write(hs / "zh-en.mqm.seg.score", ["sysA\t-1.0"])
        _write(ms / "m.seg.score", ["system\tscore", "sysA\t0.5"])
        want = r"m.seg.score line 1: unparsable row 'system\\tscore'$"
        with pytest.raises(IngestError, match=want):
            parse_wmt_layout(str(root), "zh-en", "wmt23", "sysA", "m")

    def test_gold_filename_fallback(self, tmp_path):
        # Accept the plain mqm filename when the merged variant is absent.
        root = tmp_path / "tree"
        hs = root / "wmt23" / "human-scores"
        ms = root / "wmt23" / "metric-scores" / "zh-en"
        os.makedirs(hs)
        os.makedirs(ms)
        _write(hs / "zh-en.mqm.seg.score", ["sysA\t-1.0", "sysA\t0.0"])
        _write(ms / "m.seg.score", ["sysA\t0.5", "sysA\t0.4"])
        records, _ = parse_wmt_layout(str(root), "zh-en", "wmt23", "sysA", "m")
        assert records.ids.size == 2

    def test_missing_gold_file_raises(self, tmp_path):
        root = tmp_path / "tree"
        ms = root / "wmt23" / "metric-scores" / "zh-en"
        os.makedirs(ms)
        _write(ms / "m.seg.score", ["sysA\t0.5"])
        with pytest.raises((IngestError, FileNotFoundError)):
            parse_wmt_layout(str(root), "zh-en", "wmt23", "sysA", "m")


class TestOneReadPerFile:
    """Every input file is opened once per parse, whatever it holds."""

    @pytest.fixture
    def opened(self, monkeypatch):
        counts = {}

        def counting_open(path, *args, **kwargs):
            counts[os.path.basename(path)] = counts.get(os.path.basename(path), 0) + 1
            return open(path, *args, **kwargs)

        monkeypatch.setattr(ingest_module, "open", counting_open, raising=False)
        return counts

    @pytest.mark.parametrize(
        "gold_lines, raises",
        [
            (["id\tmqm", "a\t-1.0", "b\t0.0"], False),
            (["a\t-1.0", "malformed", "b\t0.0"], False),
            (["a\t-1.0", "a\t0.0", "b\t0.0"], True),
        ],
        ids=["clean", "malformed", "duplicate"],
    )
    def test_canonical_files(self, tmp_path, opened, gold_lines, raises):
        gold = _write(tmp_path / "g.tsv", gold_lines)
        scores = _write(tmp_path / "s.tsv", ["a\t0.9", "b\t0.1"])
        outcome = _outcome(parse_canonical_tsv, gold, scores, "m")
        assert outcome[0] == ("raised" if raises else "ok")
        assert opened == ({"g.tsv": 1} if raises else {"g.tsv": 1, "s.tsv": 1})

    @pytest.mark.parametrize("malformed", [False, True], ids=["clean", "malformed"])
    def test_wmt_files(self, wmt_root, tmp_path, opened, malformed):
        if malformed:
            root = tmp_path / "tree"
            hs = root / "wmt23" / "human-scores"
            ms = root / "wmt23" / "metric-scores" / "zh-en"
            os.makedirs(hs)
            os.makedirs(ms)
            _write(hs / "zh-en.mqm.seg.score", ["sysX\t-1.0", "sysX\t0.0"])
            _write(ms / "metricA.seg.score", ["sysX\t0.5", "garbage", "sysX\t0.4"])
            wmt_root = str(root)
        outcome = _outcome(parse_wmt_layout, wmt_root, "zh-en", "wmt23", "sysX", "metricA")
        assert outcome[0] == ("raised" if malformed else "ok")
        assert list(opened.values()) == [1, 1]


def _parsed(fn, *args, **kwargs):
    """A parse's records as rows and its report, or what it raised."""
    outcome, value = _outcome(fn, *args, **kwargs)
    if outcome != "ok":
        return outcome, value
    return outcome, (_record_rows(records_of(value[0])), value[1])


class TestSharedGoldReads:
    """Parses sharing a ``gold_reads`` dict give what separate parses give."""

    def test_canonical(self, tmp_path, monkeypatch):
        gold = _write(tmp_path / "g.tsv", ["id\tmqm", "a\t-1.0", "junk", "b\t0.0", "c\tNA"])
        first = _write(tmp_path / "s1.tsv", ["a\t0.9", "b\t0.1", "c\t0.5"])
        second = _write(tmp_path / "s2.tsv", ["c\t0.3", "b\t0.2", "d\t0.4"])
        alone = [_parsed(parse_canonical_tsv, gold, s, "m") for s in (first, second)]
        strict_alone = _parsed(parse_canonical_tsv, gold, first, "m", strict=True)
        reads = []
        original = ingest_module._read_two_column
        monkeypatch.setattr(
            ingest_module, "_read_two_column",
            lambda path, *args, **kwargs: reads.append(path) or original(path, *args, **kwargs),
        )
        gold_reads = {}
        shared = [_parsed(parse_canonical_tsv, gold, s, "m", gold_reads=gold_reads)
                  for s in (first, second)]
        assert shared == alone and alone[0][0] == "ok"
        assert reads == [gold, first, second]
        # A strict parse does not take a lenient read of the gold file.
        assert _parsed(parse_canonical_tsv, gold, first, "m", strict=True,
                       gold_reads=gold_reads) == strict_alone
        assert strict_alone[0] == "raised"

    def test_wmt(self, wmt_root):
        gold_reads = {}
        for system in ("sysX", "sysY"):
            for metric in ("metricA", "metricB"):
                args = (wmt_root, "zh-en", "wmt23", system, metric)
                assert _parsed(parse_wmt_layout, *args, gold_reads=gold_reads) == _parsed(
                    parse_wmt_layout, *args
                )
                # One gold read per system: its second metric adds none.
                reads = [key[-1] for key in gold_reads if key[0] is ingest_module._read_system]
                assert reads == ["sysX", "sysY"][: 1 + (system == "sysY")]


class TestIdColumn:
    """Segment ids are one read-only string column from the reader to the dataset."""

    def test_records_and_dataset_hold_the_string_column(self, sample10_paths):
        records, _ = parse_canonical_tsv(*sample10_paths, "metric")
        ds = to_dataset(records, STRICT_ANY_ERROR, Orientation.HIGHER_IS_BETTER, "metric")
        for ids in (records.ids, ds.ids):
            assert ids.dtype == ID_DTYPE and not ids.flags.writeable
        assert ds.ids.tolist() == sorted(str(i) for i in range(1, 11))

    def test_metrics_keyed_like_the_gold_file_share_its_id_column(self, tmp_path):
        gold = _write(tmp_path / "g.tsv", ["id\tmqm", "a\t-1.0", "b\t0.0", "c\t0.0"])
        first = _write(tmp_path / "s1.tsv", ["a\t0.9", "b\t0.1", "c\t0.5"])
        second = _write(tmp_path / "s2.tsv", ["id\tscore", "a\t0.3", "b\t0.2", "c\t0.4"])
        gold_reads = {}
        parsed = [parse_canonical_tsv(gold, path, m, gold_reads=gold_reads)[0]
                  for m, path in (("m1", first), ("m2", second))]
        datasets = [to_dataset(r, STRICT_ANY_ERROR, Orientation.HIGHER_IS_WORSE, r.metric)
                    for r in parsed]
        assert parsed[0].ids is parsed[1].ids is datasets[0].ids is datasets[1].ids
        assert parsed[0].ids.tolist() == ["a", "b", "c"]

    def test_metrics_keyed_like_an_unsorted_gold_file_share_one_id_column(self, tmp_path):
        gold = _write(tmp_path / "g.tsv", ["c\t0.0", "a\t-1.0", "d\tNA", "b\t0.0"])
        keyed = {m: _write(tmp_path / f"{m}.tsv", [f"{k}\t0.{i}" for i, k in enumerate("cadb")])
                 for m in ("m1", "m2")}
        # Same ids in another order, and one the gold file lacks.
        keyed["m3"] = _write(tmp_path / "m3.tsv", ["e\t0.9", "b\t0.1", "a\t0.2", "c\t0.3"])
        gold_reads = {}
        parsed = [parse_canonical_tsv(gold, path, m, gold_reads=gold_reads)[0]
                  for m, path in keyed.items()]
        datasets = [to_dataset(r, STRICT_ANY_ERROR, Orientation.HIGHER_IS_WORSE, r.metric)
                    for r in parsed]
        ids = parsed[0].ids
        assert all(r.ids is ids for r in parsed) and all(ds.ids is ids for ds in datasets)
        assert ids.tolist() == ["a", "b", "c"]

    def test_wmt_metrics_share_one_id_column(self, tmp_path):
        # 25 segments: "wmt23:sysA:10" sorts before "wmt23:sysA:2", so the
        # ids are not in line order; the missing gold value drops one.
        root = tmp_path / "tree"
        human, scores = root / "wmt23" / "human-scores", root / "wmt23" / "metric-scores" / "zh-en"
        os.makedirs(human)
        os.makedirs(scores)
        _write(human / "zh-en.mqm.seg.score",
               [f"sysA\t{'None' if i == 7 else -float(i % 3)}" for i in range(25)])
        for metric in ("m1", "m2", "m3"):
            _write(scores / f"{metric}.seg.score", [f"sysA\t{i * 7 % 25}" for i in range(25)])
        gold_reads = {}
        parsed = [parse_wmt_layout(str(root), "zh-en", "wmt23", "sysA", m, gold_reads=gold_reads)[0]
                  for m in ("m1", "m2", "m3")]
        datasets = [to_dataset(r, STRICT_ANY_ERROR, Orientation.HIGHER_IS_WORSE, r.metric)
                    for r in parsed]
        ids = parsed[0].ids
        assert all(r.ids is ids for r in parsed) and all(ds.ids is ids for ds in datasets)
        assert ids.tolist() == sorted(f"wmt23:sysA:{i}" for i in range(25) if i != 7)
        alone = parse_wmt_layout(str(root), "zh-en", "wmt23", "sysA", "m2")[0]
        assert _record_rows(records_of(alone)) == _record_rows(records_of(parsed[1]))

    def test_wmt_ids_are_built_once_per_run(self, wmt_root):
        gold_reads = {}
        parsed = [parse_wmt_layout(wmt_root, "zh-en", "wmt23", "sysY", m, gold_reads=gold_reads)[0]
                  for m in ("metricA", "metricB")]
        assert parsed[0].ids is parsed[1].ids
        assert parsed[0].ids.dtype == ID_DTYPE
        assert parsed[0].ids.tolist() == [f"wmt23:sysY:{i}" for i in range(4)]

    def test_ids_holding_a_nul_compare_as_python_strings(self, tmp_path):
        # numpy's StringDType compares only up to a NUL both items hold at
        # one place, so "x\x001" and "x\x002" would look equal.
        keys = ["x\x002", "x\x001", "x", "x\x00", "x\x0012"]
        gold = _write(tmp_path / "g.tsv", [f"{k}\t{-1.0 * (i % 2)}" for i, k in enumerate(keys)])
        scores = _write(tmp_path / "s.tsv", [f"{k}\t{0.1 * i}" for i, k in enumerate(keys)])
        records, report = parse_canonical_tsv(gold, scores, "m")
        ds = to_dataset(records, STRICT_ANY_ERROR, Orientation.HIGHER_IS_WORSE, "m")
        assert report.accepted == len(keys)
        assert ds.ids.tolist() == sorted(keys)
        shuffled = _write(tmp_path / "t.tsv", [f"{k}\t{0.1 * i}" for i, k in enumerate(keys[::-1])])
        records, _ = parse_canonical_tsv(gold, shuffled, "m")
        assert records.ids.tolist() == sorted(keys)
        repeated = _write(tmp_path / "r.tsv", [f"{k}\t0.5" for k in ["x\x001", "x\x002", "x\x001"]])
        with pytest.raises(IngestError) as raised:
            parse_canonical_tsv(gold, repeated, "m")
        assert str(raised.value).endswith("line 3: duplicate segment id 'x\\x001'")


class TestToDataset:
    def test_sample10_counts(self, sample10_paths):
        records, _ = parse_canonical_tsv(*sample10_paths, "metric")
        ds = to_dataset(records, STRICT_ANY_ERROR, Orientation.HIGHER_IS_BETTER, "metric")
        assert (ds.p_count, ds.n_count) == (6, 4)
        by_id = {s.segment_id: s for s in segments_of(ds)}
        assert by_id["5"].label is Label.POSITIVE
        assert by_id["5"].raw_score == 25.0
        assert by_id["5"].risk_score == -25.0

    def test_cutoff_changes_labels(self, sample10_paths):
        records, _ = parse_canonical_tsv(*sample10_paths, "metric")
        ds = to_dataset(records, LENIENT, Orientation.HIGHER_IS_BETTER, "metric")
        # All errors in the fixture carry -5.0, inside the lenient boundary.
        assert ds.p_count == 6

    def test_single_class_passes_through(self):
        records = CanonicalRecords("m", ["a"], [-1.0], [0.5])
        ds = to_dataset(records, STRICT_ANY_ERROR, Orientation.HIGHER_IS_WORSE, "m")
        assert (ds.p_count, ds.n_count) == (1, 0)

    def test_empty_after_filtering_rejected(self):
        records = CanonicalRecords("m", [], [], [])
        with pytest.raises(IngestError, match="no usable records for metric 'm'"):
            to_dataset(records, STRICT_ANY_ERROR, Orientation.HIGHER_IS_WORSE, "m")


class TestRecordAndReportValidation:
    def test_report_partition_enforced(self):
        with pytest.raises(ValueError):
            IngestReport(
                total_lines=5,
                accepted=1,
                skipped_missing_gold=1,
                skipped_missing_score=1,
                skipped_malformed=1,
                warnings=(),
            )


def _outcome(fn, *args, **kwargs):
    """What a call did: its result, or the type and text of what it raised."""
    try:
        return "ok", fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - any difference must show
        return "raised", (type(exc), str(exc))


def _record_rows(records):
    return [(r.segment_id, repr(r.mqm_score), repr(r.qe_scores)) for r in records]


def _dataset_columns(ds):
    return (
        ds.ids.tolist(),
        ds.raw_scores.tolist(),
        [repr(x) for x in ds.risk_scores.tolist()],
        ds.is_positive.tolist(),
        (ds.p_count, ds.n_count, ds.orientation),
    )


def _labelled(fn, *args):
    """_outcome of fn(*args) plus the text of every warning it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        outcome = _outcome(fn, *args)
    texts = [(w.category, str(w.message)) for w in caught]
    if outcome[0] == "ok":
        ds = outcome[1]
        outcome = ("ok", (_dataset_columns(ds), ds.fingerprint))
    return outcome, texts


# Values every reader accepts (missing and non-finite ones included), then
# values that make a line malformed.
_CLEAN_VALUES = (
    "0.5", "-1.0", "0", "-0.0", "1e-3", " 2.25 ", "-5", "3_0.5",
    "None", "NA", "", "nan", "inf", "-Infinity",
)
_VALUES = _CLEAN_VALUES + ("abc", "1,5", "0.125\t")


def _random_tsv(rng, path, ids, clean):
    """A small key<TAB>value file with the quirks the reader must handle."""
    lines = []
    if rng.random() < 0.4:
        lines.append(["segment_id\tscore", "id\tvalue", "segment_id\tmqm"][int(rng.integers(3))])
    for sid in ids:
        kind = rng.random()
        values = _CLEAN_VALUES if clean else _VALUES
        value = values[int(rng.integers(len(values)))]
        if clean or kind < 0.7:
            lines.append(f"{sid}\t{value}")
        elif kind < 0.76:
            lines.append(["", "   ", "\t", " \t "][int(rng.integers(4))])  # blank
        elif kind < 0.82:
            lines.append(["only-one-field", f"{sid}\t1\t2", "\t\t"][int(rng.integers(3))])
        elif kind < 0.88:
            lines.append(f"  \t{value}")  # empty id
        elif kind < 0.92:
            lines.append(f"{ids[int(rng.integers(len(ids)))]}\t{value}")  # maybe a duplicate
        else:
            lines.append(f" {sid} \t {value}")
    if not clean and rng.random() < 0.3:
        lines.insert(int(rng.integers(len(lines) + 1)), "")
    ends = ["\n", "\r\n", "\r"]
    text = "".join(line + ends[int(rng.integers(3))] for line in lines)
    if rng.random() < 0.3:
        text = text.rstrip("\r\n")
    if rng.random() < 0.3:
        text = "\ufeff" + text
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return str(path)


class TestColumnarIngestDifferential:
    """The columnar reader and join against the line-by-line oracle."""

    @pytest.mark.parametrize("block_chars", [None, 7, 60])
    @pytest.mark.parametrize("strict", [False, True])
    def test_random_files_match_the_oracle(self, tmp_path, monkeypatch, block_chars, strict):
        if block_chars is not None:
            monkeypatch.setattr(ingest_module, "_BLOCK_CHARS", block_chars)
        rng = np.random.default_rng(401 + 2 * strict + (block_chars or 0))
        outcomes = set()
        for trial in range(120):
            pool = [f"s{i}" for i in range(int(rng.integers(1, 12)))] + ["é9"]
            clean = rng.random() < 0.5
            gold_ids = list(rng.permutation(pool))[: int(rng.integers(1, len(pool) + 1))]
            score_ids = gold_ids if rng.random() < 0.5 else list(rng.permutation(pool))
            gold = _random_tsv(rng, tmp_path / f"g{trial}.tsv", gold_ids, clean)
            scores = _random_tsv(rng, tmp_path / f"s{trial}.tsv", score_ids, clean)
            got = _outcome(parse_canonical_tsv, gold, scores, "m", strict=strict)
            want = _outcome(helpers.parse_canonical_tsv, gold, scores, "m", strict=strict)
            assert got[0] == want[0], (trial, got, want)
            outcomes.add(got[0] if got[0] == "raised" else ("ok", got[1][1].skipped_malformed > 0))
            if got[0] == "raised":
                assert got[1] == want[1], trial
                continue
            (records, report), (ref_records, ref_report) = got[1], want[1]
            assert _record_rows(records_of(records)) == _record_rows(ref_records), trial
            assert report == ref_report, trial
            for cutoff in (STRICT_ANY_ERROR, LENIENT):
                for orientation in Orientation:
                    assert _labelled(to_dataset, records, cutoff, orientation, "m") == _labelled(
                        helpers.to_dataset, ref_records, cutoff, orientation, "m"
                    ), trial
        # Both readers, a raise and a report with skipped lines all occurred.
        assert {"raised", ("ok", False)} <= outcomes
        assert strict or ("ok", True) in outcomes

    @pytest.mark.parametrize("block_chars", [None, 7, 60])
    @pytest.mark.parametrize("strict", [False, True])
    def test_score_ids_leaving_the_gold_ids_match_the_oracle(
        self, tmp_path, monkeypatch, block_chars, strict
    ):
        # The score file follows the gold ids, then leaves them at row 9 of
        # 16: within the one block, or in a later block of several.
        if block_chars is not None:
            monkeypatch.setattr(ingest_module, "_BLOCK_CHARS", block_chars)
        ids = [f"s{i:02d}" for i in range(16)]
        at = 9
        variants = {
            "same ids": ids,
            "reordered": ids[:at] + [ids[at + 1], ids[at]] + ids[at + 2 :],
            "shuffled tail": ids[:at] + ids[at:][::-1],
            "score-only id": ids[:at] + ["s08x"] + ids[at:],
            "gold-only id": ids[:at] + ids[at + 1 :],
            "shorter": ids[:at],
            "longer": ids + ["s99"],
            "repeats an earlier id": ids[:at] + [ids[2]] + ids[at:],
            "repeats the next id": ids[: at + 1] + [ids[at]] + ids[at + 1 :],
        }
        gold_rows = [f"{sid}\t{-float(i % 3)}" for i, sid in enumerate(ids)]

        def replaced(rows, line):
            return rows[:at] + [line] + rows[at + 1 :]

        outcomes = set()
        for name, score_ids in variants.items():
            score_rows = [f"{sid}\t{0.25 * i}" for i, sid in enumerate(score_ids)]
            files = {
                "clean": (gold_rows, score_rows),
                "malformed score line": (gold_rows, score_rows[:at] + ["bad"] + score_rows[at:]),
                "malformed gold line": (replaced(gold_rows, f"{ids[at]}\tx"), score_rows),
                "score header only": (gold_rows, ["segment_id\tscore"] + score_rows),
                "gold header only": (["segment_id\tmqm"] + gold_rows, score_rows),
                "missing score": (gold_rows, replaced(score_rows, f"{(score_ids + ids)[at]}\tNA")),
            }
            for kind, (gold_lines, score_lines) in files.items():
                gold = _write(tmp_path / "g.tsv", gold_lines)
                scores = _write(tmp_path / "s.tsv", score_lines)
                got = _outcome(parse_canonical_tsv, gold, scores, "m", strict=strict)
                want = _outcome(helpers.parse_canonical_tsv, gold, scores, "m", strict=strict)
                assert got[0] == want[0], (name, kind, got, want)
                outcomes.add(got[0])
                if got[0] == "raised":
                    assert got[1] == want[1], (name, kind)
                    continue
                (records, report), (ref_records, ref_report) = got[1], want[1]
                assert _record_rows(records_of(records)) == _record_rows(ref_records), (name, kind)
                assert report == ref_report, (name, kind)
        assert outcomes == {"ok", "raised"}

    def test_shared_ids_are_held_once(self, tmp_path, monkeypatch):
        size = 100_000
        rng = np.random.default_rng(100_002)
        ids = [f"s{i:06d}" for i in range(size)]
        positive = rng.random(size) < 0.4
        gold = _write(tmp_path / "g.tsv", ["segment_id\tmqm_score"] + [
            f"{sid}\t{-1.0 if flag else 0.0}" for sid, flag in zip(ids, positive.tolist())
        ])
        scores = _write(tmp_path / "s.tsv", ["segment_id\tscore"] + [
            f"{sid}\t{value!r}" for sid, value in zip(ids, rng.normal(size=size).tolist())
        ])
        key_lists = []
        read = ingest_module._read_two_column

        def spy(*args, **kwargs):
            result = read(*args, **kwargs)
            key_lists.append(result[0])
            return result

        monkeypatch.setattr(ingest_module, "_read_two_column", spy)
        (records, report), rise = traced_peak(parse_canonical_tsv, gold, scores, "m")
        assert report.accepted == size and records.ids.tolist() == ids
        # The score file's ids are the gold's list, not a second one.
        assert key_lists[1] is key_lists[0]
        # A second id list and the join's column copies peaked near 19.5 MB here.
        assert rise <= 12.5 * 2**20, rise

    def test_parse_and_label_hold_no_string_per_id(self, tmp_path):
        size = 100_000
        rng = np.random.default_rng(100_003)
        ids = [f"s{i:06d}" for i in range(size)]
        positive = rng.random(size) < 0.4
        gold = _write(tmp_path / "g.tsv", ["segment_id\tmqm_score"] + [
            f"{sid}\t{-1.0 if flag else 0.0}" for sid, flag in zip(ids, positive.tolist())
        ])
        scores = _write(tmp_path / "s.tsv", ["segment_id\tscore"] + [
            f"{sid}\t{value!r}" for sid, value in zip(ids, rng.normal(size=size).tolist())
        ])

        def load():
            records, _ = parse_canonical_tsv(gold, scores, "m")
            return to_dataset(records, STRICT_ANY_ERROR, Orientation.HIGHER_IS_WORSE, "m")

        ds, rise = traced_peak(load)
        assert ds.ids.dtype == ID_DTYPE and ds.ids.tolist() == ids
        # With a str and an object-array slot per id, the rise was 10.1 MB here;
        # with the 16-byte id column it was 6.2 MB.
        assert rise <= 8 * 2**20, rise

    @pytest.mark.parametrize("block_chars", [None, 7, 60])
    def test_clean_files_are_read_in_whole_columns(self, tmp_path, monkeypatch, block_chars):
        if block_chars is not None:
            monkeypatch.setattr(ingest_module, "_BLOCK_CHARS", block_chars)
        # Every block of a clean ASCII file is split whole, never counted
        # line by line.
        split = []
        block_fields = ingest_module._block_fields
        monkeypatch.setattr(
            ingest_module, "_block_fields",
            lambda text: split.append(block_fields(text)) or split[-1],
        )
        path = tmp_path / "f.tsv"
        for text in ("id\tscore\na\t1.5\nb\tNone\n", "\ufeffa\t1.5\r\nb\tnan", "a\t 1.5 \rb\t\n"):
            path.write_text(text, encoding="utf-8", newline="")
            split.clear()
            keys, values, skipped, problems, malformed = ingest_module._scan(str(path))
            assert split and None not in split, text
            assert keys.tolist() == ["a", "b"]
            assert values[0] == 1.5 and math.isnan(values[1])
            assert _row_lines(skipped, keys) == ([2, 3] if text.startswith("id") else [1, 2])
            assert problems == [] and malformed == 0
        irregular = {
            "a\t1\n\nb\t2\n": [],  # a blank line is ignored, not a problem
            "a\t1\nb\t2\t3\n": [(2, "b\t2\t3", "expected 2 tab-separated fields, got 3")],
            "a\t1\n \t2\n": [(2, " \t2", "empty segment id")],
            "a\t1\nb\tx\n": [(2, "b\tx", "unparsable value 'x'")],
        }
        for text, want in irregular.items():
            path.write_text(text, encoding="utf-8")
            keys, values, skipped, problems, malformed = ingest_module._scan(str(path))
            assert problems == want and malformed == len(want), text
            assert keys.tolist() == (["a", "b"] if not want else ["a"])
            assert _row_lines(skipped, keys) == ([1, 3] if not want else [1])

    @pytest.mark.parametrize("block_chars", [None, 7, 60])
    def test_scanner_line_grammar(self, tmp_path, monkeypatch, block_chars):
        if block_chars is not None:
            monkeypatch.setattr(ingest_module, "_BLOCK_CHARS", block_chars)
        path = tmp_path / "f.tsv"
        path.write_text(
            "  \nid\tscore\n\t\n \t \na\t1\nb\tx\nc\n\n d\t-2 \ne\tinf\nf\t3",
            encoding="utf-8", newline="",
        )
        keys, values, skipped, problems, malformed = ingest_module._scan(str(path))
        # A header is possible on line 1 only; lone tabs are blank lines; the
        # unterminated last line is a row; problems come in line order.
        assert keys.tolist() == ["a", "d", "e", "f"]
        assert values[[0, 1, 3]].tolist() == [1.0, -2.0, 3.0] and math.isnan(values[2])
        assert _row_lines(skipped, keys) == [5, 9, 10, 11]
        assert problems == [
            (2, "id\tscore", "unparsable value 'score'"),
            (6, "b\tx", "unparsable value 'x'"),
            (7, "c", "expected 2 tab-separated fields, got 1"),
        ]
        assert malformed == 3
        # Every value spelling reads as Python's float() reads it. A block of
        # good values, with no missing marker, is read by the one numpy
        # parse, so ``_number`` reads only line 1's value, to tell a header
        # from a row; one bad spelling among good values must make that
        # parse fail, and only its line is reported.
        good = ["1_000", "٣", "１.５", "infinity", "-Infinity", "1e500", "-0", ".5", "5.",
                "+0.0", "NaN", "-nan", "1e-400", "0001", "\u20031.5\xa0", "9" * 400]
        bad = ["1__0", "_1", "1_", "0x1p3", "nan(123)", "1e", "1.2.3", "0b1", "1,5", "½",
               "in f", "1 2"]
        expected = np.array([float(text) for text in good])
        expected[~np.isfinite(expected)] = math.nan
        spelled = []
        number = ingest_module._number
        monkeypatch.setattr(
            ingest_module, "_number", lambda text: spelled.append(text) or number(text)
        )
        middle = len(good) // 2
        for wrong in [None] + bad:
            lines = [f"k{i:02d}\t{text}" for i, text in enumerate(good)]
            if wrong is not None:
                lines.insert(middle, f"bad\t{wrong}")
            path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
            spelled.clear()
            keys, values, _, problems, malformed = ingest_module._scan(str(path))
            assert keys.tolist() == [f"k{i:02d}" for i in range(len(good))]
            np.testing.assert_array_equal(values, expected)
            assert np.signbit(values).tolist() == np.signbit(expected).tolist()
            if wrong is None:
                assert spelled == [good[0]] and problems == [] and malformed == 0
            else:
                assert wrong in spelled
                assert problems == [
                    (middle + 1, f"bad\t{wrong}", f"unparsable value {wrong!r}")
                ]
                assert malformed == 1

    @pytest.mark.parametrize("block_chars", [None, 7, 60])
    def test_scanner_keeps_the_first_problems_and_counts_all(
        self, tmp_path, monkeypatch, block_chars
    ):
        if block_chars is not None:
            monkeypatch.setattr(ingest_module, "_BLOCK_CHARS", block_chars)
        lines = [["a\tx", "b", "\t1"][i % 3] for i in range(3 * MAX_WARNINGS)]
        path = _write(tmp_path / "f.tsv", ["k\t1"] + lines)
        keys, _, _, problems, malformed = ingest_module._scan(path)
        assert keys.tolist() == ["k"] and malformed == 3 * MAX_WARNINGS
        assert [number for number, _, _ in problems] == list(range(2, MAX_WARNINGS + 2))
        assert problems[:3] == [
            (2, "a\tx", "unparsable value 'x'"),
            (3, "b", "expected 2 tab-separated fields, got 1"),
            (4, "\t1", "empty segment id"),
        ]

    def test_sorted_keys_skip_the_sort(self, tmp_path, monkeypatch):
        def refuse(columns):
            raise AssertionError("strictly increasing keys were sorted")

        monkeypatch.setattr(ingest_module, "_merge", refuse)
        path = _write(tmp_path / "s.tsv", ["id\tscore", "a\t1", "b\t2", "c\tNA"])
        keys, values, order, malformed, _ = ingest_module._read_two_column(path, strict=True)
        assert keys.tolist() == ["a", "b", "c"] and order is None and malformed == 0
        # A score file keyed like the gold file is not sorted either.
        records, _ = parse_canonical_tsv(path, path, "m")
        assert records.ids.tolist() == ["a", "b"]
        sorted_repeat = _write(tmp_path / "r.tsv", ["a\t1", "b\t2", "b\t3"])
        with pytest.raises(AssertionError, match="sorted"):
            ingest_module._read_two_column(sorted_repeat, strict=False)

    @pytest.mark.parametrize("strict", [False, True])
    def test_duplicate_and_malformed_line_raise_in_line_order(self, tmp_path, strict):
        scores = _write(tmp_path / "s.tsv", ["a\t0.9"])
        duplicate_first = _write(tmp_path / "g1.tsv", ["a\t-1.0", "a\t-2.0", "bad"])
        with pytest.raises(IngestError, match=r"g1.tsv line 2: duplicate segment id 'a'$"):
            parse_canonical_tsv(duplicate_first, scores, "m", strict=strict)
        malformed_first = _write(tmp_path / "g2.tsv", ["a\t-1.0", "bad", "a\t-2.0"])
        want = (
            r"g2.tsv line 2: expected 2 tab-separated fields, got 1$"
            if strict
            else r"g2.tsv line 3: duplicate segment id 'a'$"
        )
        with pytest.raises(IngestError, match=want):
            parse_canonical_tsv(malformed_first, scores, "m", strict=strict)

    @pytest.mark.parametrize("block_chars", [None, 7, 60])
    def test_wmt_reader_matches_the_oracle(self, tmp_path, monkeypatch, block_chars):
        if block_chars is not None:
            monkeypatch.setattr(ingest_module, "_BLOCK_CHARS", block_chars)
        rng = np.random.default_rng(409 + (block_chars or 0))
        # Values and lines that a block's checks on its distinct keys and
        # texts must hand to the line-by-line classification; "\u0661" is
        # a digit float() reads, but not ASCII.
        clean_values = _CLEAN_VALUES + (" NA ", "1_0", "Infinity", "1e999", "\u0661")
        blank = ["", " \t "]
        malformed = ["x", "\tx", "a\tb\tc", "sysA\n0.5\tsysA\t0.3"]  # the last: 0 tabs, then 2
        # Files whose last line has no line end.
        texts = ["sysA\t1\nx", "sysA\t1\nsysB", "sysA\t1\nsysB\t2", "x", "sysA\t1\n \t "]
        for _ in range(150):
            systems = ["sysA", "sysB", " sysC "][: int(rng.integers(1, 4))]
            clean = rng.random() < 0.5
            values = clean_values if clean else _VALUES + clean_values[len(_CLEAN_VALUES):]
            extras = blank if clean else blank + malformed
            lines = []
            for _ in range(int(rng.integers(1, 15))):
                system = systems[int(rng.integers(len(systems)))]
                lines.append(f"{system}\t{values[int(rng.integers(len(values)))]}")
                if rng.random() < 0.1:
                    lines.append(extras[int(rng.integers(len(extras)))])
            text = "\r\n".join(lines) + "\n" * (rng.random() < 0.7)
            texts.append("\ufeff" * (rng.random() < 0.3) + text)
        for trial, text in enumerate(texts):
            path = tmp_path / f"w{trial}.score"
            path.write_text(text, encoding="utf-8")
            want = _outcome(helpers.read_system_column, str(path))
            if want[0] == "ok":
                want = ("ok", {k: [repr(v) for v in seq] for k, seq in want[1].items()})
            for system in ("sysA", "sysB", "sysC", "sysZ"):
                got = _outcome(_read_system, str(path), system)
                if got[0] == "ok":
                    column, names = got[1]
                    assert names == set(want[1]), trial
                    got = [repr(None if math.isnan(v) else v) for v in column.tolist()]
                    assert got == want[1].get(system, []), (trial, system)
                else:
                    assert got == want, (trial, system)

    def test_to_dataset_over_shuffled_records_matches_the_oracle(self):
        rng = np.random.default_rng(410)
        mqm_values = (-5.0, -1.0, 0.0, -0.0, 0.5, 2.0)
        score_values = (0.5, -0.0, 0.0, 1.0, 0.25)
        seen = set()
        for trial in range(300):
            size = int(rng.integers(0, 12))
            pool = [f"r{i}" for i in range(int(rng.integers(1, 2 * size + 2)))]
            ids = [pool[int(rng.integers(len(pool)))] for _ in range(size)]
            mqm = [mqm_values[int(rng.integers(4 if rng.random() < 0.8 else 6))] for _ in ids]
            scores = [score_values[int(rng.integers(len(score_values)))] for _ in ids]
            metric = "m" if rng.random() < 0.9 else "other"
            records = CanonicalRecords(metric, ids, mqm, scores)
            orientation = list(Orientation)[int(rng.integers(2))]
            got = _labelled(to_dataset, records, LENIENT, orientation, "m")
            want = _labelled(helpers.to_dataset, records_of(records), LENIENT, orientation, "m")
            assert got == want, (trial, records_of(records))
            seen.add(got[0][0] if got[0][0] == "ok" else got[0][1][1].split(" ")[0])
        # Datasets, duplicate ids, and records for no usable metric all occurred.
        assert seen == {"ok", "duplicate", "no"}


class TestCanonicalRecords:
    def test_columns_are_read_only(self, sample10_paths):
        records, _ = parse_canonical_tsv(*sample10_paths, "metric")
        assert records.ids.tolist() == sorted(records.ids.tolist())
        for column in (records.ids, records.mqm_scores, records.scores):
            with pytest.raises(ValueError):
                column[0] = column[1]

    def test_immutable_and_validated(self):
        records = CanonicalRecords("m", ["a", "b"], [-1.0, 0.0], [0.5, 0.25])
        with pytest.raises(AttributeError):
            records.metric = "other"
        with pytest.raises(ValueError, match="one length"):
            CanonicalRecords("m", ["a", "b"], [-1.0], [0.5, 0.25])
        with pytest.raises(ValueError, match="finite"):
            CanonicalRecords("m", ["a"], [-1.0], [math.nan])

    def test_other_metric_has_no_usable_records(self, sample10_paths):
        records, _ = parse_canonical_tsv(*sample10_paths, "metric")
        with pytest.raises(IngestError, match="no usable records for metric 'other' after skips"):
            to_dataset(records, STRICT_ANY_ERROR, Orientation.HIGHER_IS_BETTER, "other")

    def test_wmt_records_come_in_id_order(self, wmt_root):
        records, _ = parse_wmt_layout(wmt_root, "zh-en", "wmt23", "sysX", "metricA")
        assert isinstance(records, CanonicalRecords)
        ds = to_dataset(records, STRICT_ANY_ERROR, Orientation.HIGHER_IS_BETTER, "metricA")
        assert ds.ids is records.ids
        assert ds.ids.tolist() == sorted(records.ids.tolist())

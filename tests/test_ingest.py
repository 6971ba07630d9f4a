import math
import os

import numpy as np
import pytest

from rocqe import (
    LENIENT,
    STRICT_ANY_ERROR,
    CanonicalRecord,
    IngestError,
    IngestReport,
    Label,
    Orientation,
    SeverityCutoff,
    parse_canonical_tsv,
    parse_wmt_layout,
    to_dataset,
    write_dataset_tsv,
)
from rocqe.ingest import MAX_WARNINGS
from helpers import random_dataset


def _write(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return str(path)


class TestParseCanonicalTsv:
    def test_sample10_files(self, sample10_paths):
        gold, scores = sample10_paths
        records, report = parse_canonical_tsv(gold, scores, "metric")
        assert len(records) == 10
        assert report.total_lines == 10
        assert report.accepted == 10
        assert report.skipped_missing_gold == 0
        by_id = {r.segment_id: r for r in records}
        assert by_id["5"].mqm_score == -5.0
        assert by_id["5"].qe_scores["metric"] == 25.0

    def test_headers_are_optional(self, tmp_path):
        gold = _write(tmp_path / "g.tsv", ["a\t-1.0", "b\t0.0"])
        scores = _write(tmp_path / "s.tsv", ["a\t0.9", "b\t0.1"])
        records, report = parse_canonical_tsv(gold, scores, "m")
        assert [r.segment_id for r in records] == ["a", "b"]
        assert report.accepted == 2

    def test_header_detected_by_non_numeric_value(self, tmp_path):
        gold = _write(tmp_path / "g.tsv", ["segment_id\tmqm", "a\t-1.0"])
        scores = _write(tmp_path / "s.tsv", ["segment_id\tscore", "a\t0.9"])
        records, report = parse_canonical_tsv(gold, scores, "m")
        assert [r.segment_id for r in records] == ["a"]
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
        assert {r.segment_id for r in records} == {"d"}

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
        assert {r.segment_id for r in records} == {"b"}
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
        assert [r.segment_id for r in records] == ["a", "b", "c"]

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            parse_canonical_tsv(str(tmp_path / "nope.tsv"), str(tmp_path / "x.tsv"), "m")

    def test_byte_order_mark_on_headerless_file_is_ignored(self, tmp_path):
        gold = _write(tmp_path / "g.tsv", ["\ufeff1\t-5.0", "2\t0.0"])
        scores = _write(tmp_path / "s.tsv", ["1\t0.3", "2\t0.1"])
        records, report = parse_canonical_tsv(gold, scores, "m")
        assert [r.segment_id for r in records] == ["1", "2"]
        assert records[0].mqm_score == -5.0
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
        assert len(records) == 1
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
        ids = [r.segment_id for r in records]
        assert ids == ["wmt23:sysX:0", "wmt23:sysX:1", "wmt23:sysX:3"]
        by_id = {r.segment_id: r for r in records}
        assert by_id["wmt23:sysX:0"].mqm_score == -1.0
        assert by_id["wmt23:sysX:0"].qe_scores["metricA"] == 0.9

    def test_other_system_slices_its_own_rows(self, wmt_root):
        records, report = parse_wmt_layout(wmt_root, "zh-en", "wmt23", "sysY", "metricA")
        assert report.accepted == 4
        assert [r.qe_scores["metricA"] for r in records] == [0.2, 0.7, 0.4, 0.1]

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
        assert [r.segment_id for r in records] == ["wmt23:sysA:0", "wmt23:sysA:1"]

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
        assert len(records) == 2

    def test_missing_gold_file_raises(self, tmp_path):
        root = tmp_path / "tree"
        ms = root / "wmt23" / "metric-scores" / "zh-en"
        os.makedirs(ms)
        _write(ms / "m.seg.score", ["sysA\t0.5"])
        with pytest.raises((IngestError, FileNotFoundError)):
            parse_wmt_layout(str(root), "zh-en", "wmt23", "sysA", "m")


class TestToDataset:
    def test_sample10_counts(self, sample10_paths):
        records, _ = parse_canonical_tsv(*sample10_paths, "metric")
        ds = to_dataset(records, STRICT_ANY_ERROR, Orientation.HIGHER_IS_BETTER, "metric")
        assert (ds.p_count, ds.n_count) == (6, 4)
        by_id = {s.segment_id: s for s in ds.segments}
        assert by_id["5"].label is Label.POSITIVE
        assert by_id["5"].raw_score == 25.0
        assert by_id["5"].risk_score == -25.0

    def test_cutoff_changes_labels(self, sample10_paths):
        records, _ = parse_canonical_tsv(*sample10_paths, "metric")
        ds = to_dataset(records, LENIENT, Orientation.HIGHER_IS_BETTER, "metric")
        # All errors in the fixture carry -5.0, inside the lenient boundary.
        assert ds.p_count == 6

    def test_records_without_usable_values_are_dropped(self):
        records = [
            CanonicalRecord("a", -1.0, {"m": 0.5}),
            CanonicalRecord("b", None, {"m": 0.5}),
            CanonicalRecord("c", -1.0, {}),
        ]
        ds = to_dataset(records, STRICT_ANY_ERROR, Orientation.HIGHER_IS_WORSE, "m")
        assert ds.total == 1

    def test_single_class_passes_through(self):
        records = [CanonicalRecord("a", -1.0, {"m": 0.5})]
        ds = to_dataset(records, STRICT_ANY_ERROR, Orientation.HIGHER_IS_WORSE, "m")
        assert (ds.p_count, ds.n_count) == (1, 0)

    def test_empty_after_filtering_rejected(self):
        records = [CanonicalRecord("a", None, {"m": 0.5})]
        with pytest.raises(IngestError, match="no usable records"):
            to_dataset(records, STRICT_ANY_ERROR, Orientation.HIGHER_IS_WORSE, "m")


class TestWriteDatasetTsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(72)
        for trial in range(20):
            ds = random_dataset(rng)
            gold = str(tmp_path / f"g{trial}.tsv")
            scores = str(tmp_path / f"s{trial}.tsv")
            write_dataset_tsv(ds, gold, scores, STRICT_ANY_ERROR)
            records, report = parse_canonical_tsv(gold, scores, "m")
            assert report.accepted == ds.total
            back = to_dataset(records, STRICT_ANY_ERROR, ds.orientation, "m")
            assert back.fingerprint == ds.fingerprint
            got = {s.segment_id: s.risk_score for s in back.segments}
            want = {s.segment_id: s.risk_score for s in ds.segments}
            assert got == want

    def test_inclusive_zero_cutoff_rejected(self, tmp_path, sample10):
        # A cutoff that labels score 0 positive cannot be encoded with the
        # clean-segment sentinel 0.0.
        bad = SeverityCutoff.custom(0.0, inclusive=True)
        with pytest.raises(ValueError, match="cutoff"):
            write_dataset_tsv(sample10, str(tmp_path / "g"), str(tmp_path / "s"), bad)


class TestRecordAndReportValidation:
    def test_empty_segment_id_rejected(self):
        with pytest.raises(ValueError, match="segment_id"):
            CanonicalRecord("", -1.0, {})

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

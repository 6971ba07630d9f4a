"""File ingestion: canonical two-column TSVs and the WMT score layout.

The canonical format is deliberately minimal so any upstream system can emit
it: a gold file (`segment_id<TAB>mqm_score`) and one score file per metric
(`segment_id<TAB>score`), joined on segment id. A separate adapter walks the
directory layout used by the public WMT metrics releases, where scores are
keyed by (system, line position) instead of explicit segment ids.
"""

from __future__ import annotations

import math
import os
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import partial
from itertools import compress, repeat
from typing import Callable, Iterable, Iterator, Optional, TextIO

import numpy as np

from .groundtruth import SeverityCutoff, label, label_positive
from .model import (
    Dataset, Orientation, _frozen, _read_only, _strictly_increasing, canonicalize,
)

# Values that mean "no score here" in either column, besides non-finite
# numerics. Conventions vary across metric dumps; these are the observed ones.
MISSING_MARKERS = frozenset({"", "None", "NA"})

# Characters read per block by the whole-column reader.
_BLOCK_CHARS = 1 << 16

# Malformed lines named one by one in an ingest report; the rest are only
# counted, in one closing warning. The skip counters stay exact.
MAX_WARNINGS = 20


class IngestError(ValueError):
    """Raised for unrecoverable input problems (structure, duplicates)."""


@dataclass(frozen=True)
class CanonicalRecord:
    """One segment after the join: gold score plus per-metric QE scores.

    Either side may be None when the source row was missing; such records
    are skipped before they reach a Dataset.
    """

    segment_id: str
    mqm_score: Optional[float]
    qe_scores: dict[str, Optional[float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.segment_id:
            raise ValueError("segment_id must be non-empty")


class CanonicalRecords(Sequence):
    """Joined records for one metric, held as columns.

    ``ids``, ``mqm_scores`` and ``scores`` are read-only arrays, one entry
    per record, every value present and finite. As a sequence it is
    read-only: ``len``, iteration and indexing build ``CanonicalRecord``
    objects on demand.
    """

    def __init__(self, metric: str, ids, mqm_scores, scores) -> None:
        ids = _read_only(ids, object)
        mqm_scores = _read_only(mqm_scores, np.float64)
        scores = _read_only(scores, np.float64)
        if not (ids.ndim == 1 and ids.shape == mqm_scores.shape == scores.shape):
            raise ValueError("ids, mqm_scores and scores must be 1-d arrays of one length")
        if not (np.isfinite(mqm_scores).all() and np.isfinite(scores).all()):
            raise ValueError("canonical records hold finite values only")
        self.__dict__.update(metric=metric, ids=ids, mqm_scores=mqm_scores, scores=scores)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"CanonicalRecords is immutable; cannot set {name!r}")

    def __len__(self) -> int:
        return self.ids.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        return CanonicalRecord(
            self.ids[index],
            self.mqm_scores[index].item(),
            {self.metric: self.scores[index].item()},
        )

    def __iter__(self):
        for sid, mqm, score in zip(
            self.ids.tolist(), self.mqm_scores.tolist(), self.scores.tolist()
        ):
            yield CanonicalRecord(sid, mqm, {self.metric: score})


@dataclass(frozen=True)
class IngestReport:
    """Accounting for one ingestion run.

    ``total_lines`` counts logical rows: every distinct segment id seen on
    either side of the join, plus every malformed physical line. The
    counters partition it exactly, so no row is ever dropped silently.
    """

    total_lines: int
    accepted: int
    skipped_missing_gold: int
    skipped_missing_score: int
    skipped_malformed: int
    warnings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        parts = (
            self.accepted
            + self.skipped_missing_gold
            + self.skipped_missing_score
            + self.skipped_malformed
        )
        if parts != self.total_lines:
            raise ValueError(
                f"accounting broken: {parts} classified rows vs "
                f"{self.total_lines} total"
            )


def _number(text: str) -> Optional[float]:
    """The value a stripped field spells: NaN for a missing marker, None for none."""
    try:
        return float("nan" if text in MISSING_MARKERS else text)
    except ValueError:
        return None


def _line_blocks(handle: TextIO) -> Iterator[list[str]]:
    """The lines of an open text file, about ``_BLOCK_CHARS`` characters at a time."""
    try:
        yield from iter(partial(handle.readlines, _BLOCK_CHARS), [])
    except UnicodeDecodeError as exc:
        raise IngestError(
            f"{handle.name} is not UTF-8 text: cannot decode byte "
            f"0x{exc.object[exc.start]:02x} ({exc.reason})"
        ) from None


def _scan(
    path: str, header: bool, known: Optional[list[str]] = None
) -> tuple[list[str], np.ndarray, np.ndarray, list[tuple[int, str, str]], int]:
    """Read a `key<TAB>value` file once, a block of lines at a time.

    Returns (keys, values, numbers, problems, malformed): the key, value and
    line number of every row in line order; (line number, line text,
    message) for the first ``MAX_WARNINGS`` malformed lines in line order;
    and the count of all malformed lines. ``\\n``, ``\\r\\n`` and ``\\r`` all
    end a line, a leading UTF-8 byte order mark is dropped and
    whitespace-only lines are ignored. A row is one tab between a non-empty
    key and a number or missing marker; its value is NaN when missing or not
    finite. Any other line is malformed, except that with ``header`` line 1
    is skipped when its value is neither.

    While the file's keys equal the leading keys of ``known``, they are
    only counted, not kept, and ``keys`` is ``known`` itself (or the
    prefix of it they equal): a file keyed like ``known`` costs no second
    key list.
    """
    keys: list[str] = []
    # Keys read so far that equal known's; only counted while ``shared``.
    shared, matched = known is not None, 0
    values: list[np.ndarray] = [np.zeros(0)]  # an empty file has empty columns
    numbers: list[np.ndarray] = [np.zeros(0, dtype=np.int64)]
    problems: list[tuple[int, str, str]] = []
    malformed = 0
    start = 1
    with open(path, encoding="utf-8-sig") as handle:
        for block in _line_blocks(handle):
            at = np.arange(start, start + len(block))
            start += len(block)
            tabs = list(map(str.count, block, repeat("\t")))
            found = []
            if set(tabs) != {1}:
                found += [
                    (number, line.rstrip("\n"), f"expected 2 tab-separated fields, got {tab + 1}")
                    for number, line, tab in zip(at.tolist(), block, tabs)
                    if tab != 1 and not line.isspace()
                ]
                rows = np.array(tabs) == 1
                block, at = list(compress(block, rows)), at[rows]
            fields = "".join(block).replace("\n", "\t").split("\t")
            block_keys = list(map(str.strip, fields[0 : 2 * len(block) : 2]))
            texts = list(map(str.strip, fields[1 : 2 * len(block) : 2]))
            if header and at.size and at[0] == 1 and _number(texts[0]) is None:
                del block[0], block_keys[0], texts[0]  # header row
                at = at[1:]
            spelled = (
                texts if MISSING_MARKERS.isdisjoint(texts)
                else ["nan" if t in MISSING_MARKERS else t for t in texts]
            )
            try:
                # numpy reads a str element with Python's float parser.
                parsed = np.array(spelled, dtype=np.float64)
            except ValueError:
                parsed = None
            if parsed is None or "" in block_keys:
                parsed = list(map(_number, texts))
                notes = [
                    None if key and value is not None
                    else "" if not (key or text)  # a whitespace-only line
                    else "empty segment id" if not key
                    else f"unparsable value {text!r}"
                    for key, text, value in zip(block_keys, texts, parsed)
                ]
                found += [
                    (number, line.rstrip("\n"), note)
                    for number, line, note in zip(at.tolist(), block, notes)
                    if note
                ]
                rows = np.array([note is None for note in notes], dtype=bool)
                block_keys, parsed = list(compress(block_keys, rows)), list(compress(parsed, rows))
                at = at[rows]
            if shared and block_keys == known[matched : matched + len(block_keys)]:
                matched += len(block_keys)
            else:
                if shared:
                    keys, shared = known[:matched], False
                keys += block_keys
            values.append(np.array(parsed, dtype=np.float64))
            numbers.append(at)
            malformed += len(found)
            # The field-count problems were found before the others.
            problems += sorted(found)[: MAX_WARNINGS - len(problems)]
    if shared:
        keys = known if matched == len(known) else known[:matched]
    column = np.concatenate(values)
    column[~np.isfinite(column)] = math.nan
    return keys, column, np.concatenate(numbers), problems, malformed


def _first_repeat(keys: list[str]) -> Optional[int]:
    """Index of the first key equal to an earlier one, or None."""
    if len(set(keys)) == len(keys):
        return None
    seen: set[str] = set()
    return next(i for i, key in enumerate(keys) if key in seen or seen.add(key))  # add is None


def _read_two_column(
    path: str, strict: bool, known: Optional[list[str]] = None
) -> tuple[list[str], np.ndarray, int, list[str]]:
    """Read a `key<TAB>value` file: (keys, values, malformed_count, warnings).

    Line 1 is a header when its value is neither numeric nor a missing
    marker. Duplicate keys are always a hard error; malformed lines are
    skipped, or raised in strict mode, where the first of the two in line
    order raises. Only the first ``MAX_WARNINGS`` malformed lines get a
    warning; ``malformed_count`` counts them all. Keys come in line order;
    a missing value is NaN. ``known`` is the key list of a file read
    before, free of repeats; when this file has the same keys, ``keys`` is
    that list.
    """
    keys, values, numbers, problems, malformed = _scan(path, header=True, known=known)
    notes = [f"{path} line {n}: {message}" for n, _, message in problems]
    # Strictly increasing keys cannot repeat, nor can known's. The order
    # check stops at the first descent, so a shuffled file pays almost
    # nothing for it.
    repeat_at = (
        None if keys is known or _strictly_increasing(keys) else _first_repeat(keys)
    )
    if repeat_at is not None and not (strict and problems and problems[0][0] < numbers[repeat_at]):
        raise IngestError(
            f"{path} line {numbers[repeat_at]}: duplicate segment id {keys[repeat_at]!r}"
        )
    if strict and problems:
        raise IngestError(notes[0])
    return keys, values, malformed, notes


def _read_once(gold_reads: Optional[dict], read: Callable, *args):
    """``read(*args)``, kept in ``gold_reads`` by its arguments and taken from there again."""
    if gold_reads is None:
        return read(*args)
    key = (read, *args)
    if key not in gold_reads:
        gold_reads[key] = read(*args)
    return gold_reads[key]


def parse_canonical_tsv(
    gold_path: str,
    scores_path: str,
    metric: str,
    *,
    strict: bool = False,
    gold_reads: Optional[dict] = None,
) -> tuple[CanonicalRecords, IngestReport]:
    """Join a gold TSV with a score TSV into complete records.

    The join is inner: a record is accepted only when both sides carry a
    usable value. Missing gold takes precedence over missing score in the
    accounting when both are absent. Output is sorted by segment id, so the
    result does not depend on input line order.

    ``gold_reads``, a dict (empty at first) passed to every parse of one
    run, lets them share one read of the gold file: the first parse keeps
    the gold columns it read there, and the others take them from there.
    Results, reports and errors are those of separate parses.
    """
    gold_ids, gold, gold_bad, gold_notes = _read_once(
        gold_reads, _read_two_column, gold_path, strict
    )
    # A score file keyed like the gold file shares its key list.
    score_ids, score, score_bad, score_notes = _read_two_column(
        scores_path, strict, known=gold_ids
    )
    if score_ids is gold_ids:
        ids = gold_ids
        if not _strictly_increasing(ids):
            order = sorted(range(len(ids)), key=ids.__getitem__)
            ids, gold, score = [ids[i] for i in order], gold[order], score[order]
    else:
        ids = sorted(set(gold_ids).union(score_ids))
        gold = _values_at(ids, gold_ids, gold)
        score = _values_at(ids, score_ids, score)
    del gold_ids, score_ids
    records, missing_gold, missing_score = _join(metric, ids, gold, score)

    warnings = (gold_notes + score_notes)[:MAX_WARNINGS]
    if gold_bad + score_bad > len(warnings):
        warnings.append(f"... and {gold_bad + score_bad - len(warnings)} more malformed lines")
    report = IngestReport(
        total_lines=len(ids) + gold_bad + score_bad,
        accepted=len(records),
        skipped_missing_gold=missing_gold,
        skipped_missing_score=missing_score,
        skipped_malformed=gold_bad + score_bad,
        warnings=tuple(warnings),
    )
    return records, report


def _values_at(ids: list[str], keys: list[str], values: np.ndarray) -> np.ndarray:
    """``values`` (one per key) read at ``ids``; NaN where a key is absent."""
    lookup = dict(zip(keys, values.tolist()))
    return np.fromiter(map(lookup.get, ids, repeat(math.nan)), np.float64, len(ids))


def _join(
    metric: str, ids: list[str], gold: np.ndarray, score: np.ndarray
) -> tuple[CanonicalRecords, int, int]:
    """(records, missing gold, missing score) of aligned columns; NaN is missing."""
    missing_gold = np.isnan(gold)
    missing_score = np.isnan(score) & ~missing_gold
    columns = (np.array(ids, dtype=object), gold, score)
    if missing_gold.any() or missing_score.any():
        kept = np.flatnonzero(~(missing_gold | missing_score))
        columns = tuple(column[kept] for column in columns)
    # The columns are the records' own from here: frozen, not copied again.
    records = CanonicalRecords(metric, *map(_frozen, columns))
    return records, int(missing_gold.sum()), int(missing_score.sum())


def _read_system_column(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Read a `system<TAB>score` file: (systems, values) columns in line order.

    Line order within a system is the segment order; the first malformed line
    is a hard error because positional alignment cannot survive dropped
    lines. There is no header line. A missing value is NaN.
    """
    systems, values, _, problems, _ = _scan(path, header=False)
    if problems:
        number, line, message = problems[0]
        if line.count("\t") == 1:
            message = f"unparsable row {line!r}"
        raise IngestError(f"{path} line {number}: {message}")
    # Interned, the column holds one string per system instead of one per line.
    return np.array(list(map(sys.intern, systems)), dtype=object), values


def _wmt_gold_path(root_dir: str, testset: str, language_pair: str) -> str:
    base = os.path.join(root_dir, testset, "human-scores")
    candidates = [
        os.path.join(base, f"{language_pair}.mqm.merged.seg.score"),
        os.path.join(base, f"{language_pair}.mqm.seg.score"),
    ]
    for path in candidates:
        if os.path.exists(path):
            return path
    raise IngestError(
        f"no MQM gold file for {language_pair} under {base}; looked for "
        + " and ".join(os.path.basename(c) for c in candidates)
    )


def parse_wmt_layout(
    root_dir: str,
    language_pair: str,
    testset: str,
    system: str,
    metric: str,
    *,
    gold_reads: Optional[dict] = None,
) -> tuple[CanonicalRecords, IngestReport]:
    """Extract one (system, metric) slice from a WMT-style score tree.

    Expected layout relative to ``root_dir``:
      {testset}/human-scores/{language_pair}.mqm[.merged].seg.score
      {testset}/metric-scores/{language_pair}/{metric}.seg.score
    Both files hold `system<TAB>score` lines, segment order within a system.
    Segments get synthetic ids `{testset}:{system}:{i}` with i counting from
    0 in file order; gold and metric sequences must have equal length.
    ``gold_reads`` shares one read of the gold file between the parses of
    one run, as in ``parse_canonical_tsv``.
    """
    gold_path = _wmt_gold_path(root_dir, testset, language_pair)
    metric_dir = os.path.join(root_dir, testset, "metric-scores", language_pair)
    metric_path = os.path.join(metric_dir, f"{metric}.seg.score")
    if not os.path.exists(metric_path):
        available = sorted(
            name[: -len(".seg.score")]
            for name in (os.listdir(metric_dir) if os.path.isdir(metric_dir) else [])
            if name.endswith(".seg.score")
        )
        raise IngestError(
            f"no score file for metric {metric!r} at {metric_path}; "
            f"available metrics: {available}"
        )

    gold_systems, gold = _read_once(gold_reads, _read_system_column, gold_path)
    metric_systems, score = _read_system_column(metric_path)
    in_metric = metric_systems == system
    if not in_metric.any():
        raise IngestError(
            f"system {system!r} not in {metric_path}; available systems: "
            f"{sorted(set(metric_systems.tolist()))}"
        )
    in_gold = gold_systems == system
    if not in_gold.any():
        raise IngestError(
            f"system {system!r} has no gold scores in {gold_path}; systems "
            f"with gold: {sorted(set(gold_systems.tolist()))}"
        )
    gold, score = gold[in_gold], score[in_metric]
    if gold.size != score.size:
        raise IngestError(
            f"length mismatch for system {system!r}: {gold.size} gold "
            f"scores vs {score.size} {metric} scores"
        )

    ids = [f"{testset}:{system}:{i}" for i in range(gold.size)]
    records, missing_gold, missing_score = _join(metric, ids, gold, score)
    report = IngestReport(
        total_lines=gold.size,
        accepted=len(records),
        skipped_missing_gold=missing_gold,
        skipped_missing_score=missing_score,
        skipped_malformed=0,
    )
    return records, report


def to_dataset(
    records: Iterable[CanonicalRecord],
    cutoff: SeverityCutoff,
    orientation: Orientation,
    metric: str,
) -> Dataset:
    """Label records and assemble the Dataset for one metric.

    Records are sorted by segment id first, so datasets are identical no
    matter how the input files were ordered. A single-class outcome is not
    an error here; downstream analyses decide whether they can proceed.
    Records are checked in id order: the first repeated id or non-finite
    score raises, and every positive MQM score before it warns.
    """
    if isinstance(records, CanonicalRecords) and records.metric == metric:
        ids, mqm, scores = records.ids, records.mqm_scores, records.scores
    else:
        usable = [
            r
            for r in records
            if r.mqm_score is not None and r.qe_scores.get(metric) is not None
        ]
        # Object columns keep each value as given, for the messages below.
        ids = np.array([r.segment_id for r in usable], dtype=object)
        mqm = np.array([r.mqm_score for r in usable], dtype=object)
        scores = np.array([r.qe_scores[metric] for r in usable], dtype=object)
        del usable
    if not ids.size:
        raise IngestError(
            f"no usable records for metric {metric!r} after skips"
        )
    if not _strictly_increasing(ids):
        order = np.argsort(ids, kind="stable")
        ids, mqm, scores = ids[order], mqm[order], scores[order]
    mqm_column = np.asarray(mqm, dtype=np.float64)
    score_column = np.asarray(scores, dtype=np.float64)

    size = ids.size
    repeated = _first(ids[1:] == ids[:-1], size - 1) + 1
    non_finite = _first(~np.isfinite(score_column), size)
    # The record at a repeated id is rejected before it is labelled; a
    # record with a non-finite score is labelled first. Messages get values
    # through ``item``: Python floats from a float column, each value as
    # given from an object column.
    labelled = repeated if repeated <= non_finite else non_finite + 1
    for i in np.flatnonzero(mqm_column[:labelled] > 0).tolist():
        label(mqm.item(i), cutoff)  # warns about the positive MQM score
    if repeated < size and repeated <= non_finite:
        raise IngestError(f"duplicate segment id {ids[repeated]!r}")
    if non_finite < size:
        canonicalize(scores.item(non_finite), orientation, ids[non_finite])  # raises
    return Dataset.from_columns(
        ids, score_column, label_positive(mqm_column, cutoff), orientation
    )


def _first(mask: np.ndarray, default: int) -> int:
    """Index of the first True in ``mask``, or ``default`` when there is none."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else default


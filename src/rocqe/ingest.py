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
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import partial
from itertools import repeat
from typing import Iterable, Optional

import numpy as np

from .groundtruth import SeverityCutoff, label, label_positive
from .model import Dataset, Orientation, _frozen, canonicalize

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
        ids = _frozen(np.array(ids, dtype=object))
        mqm_scores = _frozen(np.array(mqm_scores, dtype=np.float64))
        scores = _frozen(np.array(scores, dtype=np.float64))
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


def _parse_value(text: str) -> tuple[float, bool]:
    """(value, ok): value NaN for missing markers and non-finite numbers."""
    if text in MISSING_MARKERS:
        return math.nan, True
    try:
        value = float(text)
    except ValueError:
        return math.nan, False
    if not math.isfinite(value):
        return math.nan, True
    return value, True


def _clean_columns(path: str, header: bool) -> Optional[tuple[list[str], np.ndarray]]:
    """(keys, values) of a file with nothing to report, read a block of lines at a time.

    Applies when every line is ``key<TAB>value`` with a non-empty key and a
    value ``_parse_value`` accepts (NaN when missing); with ``header``,
    line 1 may instead be a header. Returns None for any other file, which
    the caller then reads line by line. Keys come in line order.
    """
    keys: list[str] = []
    values = []
    with open(path, encoding="utf-8-sig") as handle:
        blocks = iter(partial(handle.readlines, _BLOCK_CHARS), [])
        for index, block in enumerate(blocks):
            if set(map(str.count, block, repeat("\t"))) != {1}:
                return None  # a blank line, or one with other than two fields
            fields = "".join(block).replace("\n", "\t").split("\t")
            if len(fields) % 2:
                fields.pop()  # after the last line end
            block_keys = list(map(str.strip, fields[0::2]))
            texts = list(map(str.strip, fields[1::2]))
            if header and index == 0 and not _parse_value(texts[0])[1]:
                del block_keys[0], texts[0]  # header row
            try:
                parsed = np.array(
                    [float("nan" if t in MISSING_MARKERS else t) for t in texts],
                    dtype=np.float64,
                )
            except ValueError:
                return None
            if "" in block_keys:
                return None
            parsed[~np.isfinite(parsed)] = math.nan
            keys += block_keys
            values.append(parsed)
    return keys, np.concatenate(values) if values else np.empty(0)


def _read_two_column(
    path: str, strict: bool
) -> tuple[list[str], np.ndarray, int, list[str]]:
    """Read a `key<TAB>value` file: (keys, values, malformed_count, warnings).

    Line 1 is treated as a header when its second field is neither numeric
    nor a missing marker. Blank lines are ignored, and so is a leading UTF-8
    byte order mark. Duplicate keys are always a hard error; malformed lines
    are skipped, or raised in strict mode. Only the first ``MAX_WARNINGS``
    of them get a warning; ``malformed_count`` counts them all. Keys come
    in line order; a missing value is NaN.
    """
    clean = _clean_columns(path, header=True)
    if clean is not None and len(set(clean[0])) == len(clean[0]):
        return *clean, 0, []
    rows: dict[str, float] = {}
    malformed = 0
    notes: list[str] = []
    with open(path, encoding="utf-8-sig") as handle:
        for lineno, raw_line in enumerate(handle, 1):
            line = raw_line.rstrip("\r\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            problem = None
            if len(parts) != 2:
                problem = f"expected 2 tab-separated fields, got {len(parts)}"
            else:
                sid, text = parts[0].strip(), parts[1].strip()
                value, ok = _parse_value(text)
                if lineno == 1 and not ok:
                    continue  # header row
                if not sid:
                    problem = "empty segment id"
                elif not ok:
                    problem = f"unparsable value {text!r}"
                elif sid in rows:
                    raise IngestError(
                        f"{path} line {lineno}: duplicate segment id {sid!r}"
                    )
                else:
                    rows[sid] = value
            if problem is not None:
                message = f"{path} line {lineno}: {problem}"
                if strict:
                    raise IngestError(message)
                malformed += 1
                if len(notes) < MAX_WARNINGS:
                    notes.append(message)
    return list(rows), np.fromiter(rows.values(), np.float64, len(rows)), malformed, notes


def parse_canonical_tsv(
    gold_path: str,
    scores_path: str,
    metric: str,
    *,
    strict: bool = False,
) -> tuple[CanonicalRecords, IngestReport]:
    """Join a gold TSV with a score TSV into complete records.

    The join is inner: a record is accepted only when both sides carry a
    usable value. Missing gold takes precedence over missing score in the
    accounting when both are absent. Output is sorted by segment id, so the
    result does not depend on input line order.
    """
    gold_ids, gold, gold_bad, gold_notes = _read_two_column(gold_path, strict)
    score_ids, score, score_bad, score_notes = _read_two_column(scores_path, strict)
    if gold_ids == score_ids:
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


def _strictly_increasing(keys: list[str]) -> bool:
    """Whether ``keys`` are sorted and free of repeats."""
    column = np.array(keys, dtype=object)
    return bool((column[1:] > column[:-1]).all())


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
    kept = np.flatnonzero(~(missing_gold | missing_score))
    records = CanonicalRecords(
        metric, np.array(ids, dtype=object)[kept], gold[kept], score[kept]
    )
    return records, int(missing_gold.sum()), int(missing_score.sum())


def _read_system_column(path: str) -> dict[str, list[float]]:
    """Read a `system<TAB>score` file into per-system score sequences.

    Line order within a system is the segment order; any structural problem
    is a hard error because positional alignment cannot survive dropped
    lines. A leading UTF-8 byte order mark is ignored. A missing value is
    stored as NaN.
    """
    sequences: dict[str, list[float]] = {}
    clean = _clean_columns(path, header=False)
    if clean is not None:
        for system, value in zip(clean[0], clean[1].tolist()):
            sequences.setdefault(system, []).append(value)
        return sequences
    with open(path, encoding="utf-8-sig") as handle:
        for lineno, raw_line in enumerate(handle, 1):
            line = raw_line.rstrip("\r\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise IngestError(
                    f"{path} line {lineno}: expected 2 tab-separated fields, "
                    f"got {len(parts)}"
                )
            system, text = parts[0].strip(), parts[1].strip()
            value, ok = _parse_value(text)
            if not system or not ok:
                raise IngestError(
                    f"{path} line {lineno}: unparsable row {line!r}"
                )
            sequences.setdefault(system, []).append(value)
    return sequences


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
) -> tuple[CanonicalRecords, IngestReport]:
    """Extract one (system, metric) slice from a WMT-style score tree.

    Expected layout relative to ``root_dir``:
      {testset}/human-scores/{language_pair}.mqm[.merged].seg.score
      {testset}/metric-scores/{language_pair}/{metric}.seg.score
    Both files hold `system<TAB>score` lines, segment order within a system.
    Segments get synthetic ids `{testset}:{system}:{i}` with i counting from
    0 in file order; gold and metric sequences must have equal length.
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

    gold_by_system = _read_system_column(gold_path)
    metric_by_system = _read_system_column(metric_path)
    if system not in metric_by_system:
        raise IngestError(
            f"system {system!r} not in {metric_path}; available systems: "
            f"{sorted(metric_by_system)}"
        )
    if system not in gold_by_system:
        raise IngestError(
            f"system {system!r} has no gold scores in {gold_path}; systems "
            f"with gold: {sorted(gold_by_system)}"
        )
    gold_seq = gold_by_system[system]
    score_seq = metric_by_system[system]
    if len(gold_seq) != len(score_seq):
        raise IngestError(
            f"length mismatch for system {system!r}: {len(gold_seq)} gold "
            f"scores vs {len(score_seq)} {metric} scores"
        )

    ids = [f"{testset}:{system}:{i}" for i in range(len(gold_seq))]
    records, missing_gold, missing_score = _join(
        metric, ids, np.array(gold_seq), np.array(score_seq)
    )
    report = IngestReport(
        total_lines=len(gold_seq),
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
        ids = records.ids.tolist()
        mqm = records.mqm_scores.tolist()
        scores = records.scores.tolist()
    else:
        usable = [
            r
            for r in records
            if r.mqm_score is not None and r.qe_scores.get(metric) is not None
        ]
        ids = [r.segment_id for r in usable]
        mqm = [r.mqm_score for r in usable]
        scores = [r.qe_scores[metric] for r in usable]
        del usable
    if not ids:
        raise IngestError(
            f"no usable records for metric {metric!r} after skips"
        )
    if not _strictly_increasing(ids):
        order = sorted(range(len(ids)), key=ids.__getitem__)
        ids = [ids[i] for i in order]
        mqm = [mqm[i] for i in order]
        scores = [scores[i] for i in order]
    id_column = np.array(ids, dtype=object)
    mqm_column = np.array(mqm, dtype=np.float64)
    score_column = np.array(scores, dtype=np.float64)

    size = len(ids)
    repeated = _first(id_column[1:] == id_column[:-1], size - 1) + 1
    non_finite = _first(~np.isfinite(score_column), size)
    # The record at a repeated id is rejected before it is labelled; a
    # record with a non-finite score is labelled first.
    labelled = repeated if repeated <= non_finite else non_finite + 1
    for i in np.flatnonzero(mqm_column[:labelled] > 0).tolist():
        label(mqm[i], cutoff)  # warns about the positive MQM score
    if repeated < size and repeated <= non_finite:
        raise IngestError(f"duplicate segment id {ids[repeated]!r}")
    if non_finite < size:
        canonicalize(scores[non_finite], orientation, ids[non_finite])  # raises
    return Dataset.from_columns(
        id_column, score_column, label_positive(mqm_column, cutoff), orientation
    )


def _first(mask: np.ndarray, default: int) -> int:
    """Index of the first True in ``mask``, or ``default`` when there is none."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else default


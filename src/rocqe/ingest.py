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
from dataclasses import dataclass, field
from typing import Optional

from .groundtruth import SeverityCutoff, label
from .model import Dataset, Label, Orientation, ScoredSegment

# Values that mean "no score here" in either column, besides non-finite
# numerics. Conventions vary across metric dumps; these are the observed ones.
MISSING_MARKERS = frozenset({"", "None", "NA"})

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


def _parse_value(text: str) -> tuple[Optional[float], bool]:
    """(value, ok): value None for missing markers and non-finite numbers."""
    if text in MISSING_MARKERS:
        return None, True
    try:
        value = float(text)
    except ValueError:
        return None, False
    if not math.isfinite(value):
        return None, True
    return value, True


def _read_two_column(
    path: str, strict: bool
) -> tuple[dict[str, Optional[float]], int, list[str]]:
    """Read a `key<TAB>value` file: (rows, malformed_count, warnings).

    Line 1 is treated as a header when its second field is neither numeric
    nor a missing marker. Blank lines are ignored, and so is a leading UTF-8
    byte order mark. Duplicate keys are always a hard error; malformed lines
    are skipped, or raised in strict mode. Only the first ``MAX_WARNINGS``
    of them get a warning; ``malformed_count`` counts them all.
    """
    rows: dict[str, Optional[float]] = {}
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
    return rows, malformed, notes


def parse_canonical_tsv(
    gold_path: str,
    scores_path: str,
    metric: str,
    *,
    strict: bool = False,
) -> tuple[list[CanonicalRecord], IngestReport]:
    """Join a gold TSV with a score TSV into complete records.

    The join is inner: a record is accepted only when both sides carry a
    usable value. Missing gold takes precedence over missing score in the
    accounting when both are absent. Output is sorted by segment id, so the
    result does not depend on input line order.
    """
    gold_rows, gold_bad, gold_notes = _read_two_column(gold_path, strict)
    score_rows, score_bad, score_notes = _read_two_column(scores_path, strict)

    records: list[CanonicalRecord] = []
    missing_gold = 0
    missing_score = 0
    ids = sorted(set(gold_rows) | set(score_rows))
    for sid in ids:
        gold = gold_rows.get(sid)
        score = score_rows.get(sid)
        if gold is None:
            missing_gold += 1
            continue
        if score is None:
            missing_score += 1
            continue
        records.append(CanonicalRecord(sid, gold, {metric: score}))

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


def _read_system_column(path: str) -> dict[str, list[Optional[float]]]:
    """Read a `system<TAB>score` file into per-system score sequences.

    Line order within a system is the segment order; any structural problem
    is a hard error because positional alignment cannot survive dropped
    lines. A leading UTF-8 byte order mark is ignored.
    """
    sequences: dict[str, list[Optional[float]]] = {}
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
) -> tuple[list[CanonicalRecord], IngestReport]:
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

    records: list[CanonicalRecord] = []
    missing_gold = 0
    missing_score = 0
    for i, (gold, score) in enumerate(zip(gold_seq, score_seq)):
        if gold is None:
            missing_gold += 1
            continue
        if score is None:
            missing_score += 1
            continue
        records.append(
            CanonicalRecord(f"{testset}:{system}:{i}", gold, {metric: score})
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
    records: list[CanonicalRecord],
    cutoff: SeverityCutoff,
    orientation: Orientation,
    metric: str,
) -> Dataset:
    """Label records and assemble the Dataset for one metric.

    Records are sorted by segment id first, so datasets are identical no
    matter how the input files were ordered. A single-class outcome is not
    an error here; downstream analyses decide whether they can proceed.
    """
    usable = [
        r
        for r in records
        if r.mqm_score is not None and r.qe_scores.get(metric) is not None
    ]
    if not usable:
        raise IngestError(
            f"no usable records for metric {metric!r} after skips"
        )
    seen: set[str] = set()
    segments = []
    for record in sorted(usable, key=lambda r: r.segment_id):
        if record.segment_id in seen:
            raise IngestError(f"duplicate segment id {record.segment_id!r}")
        seen.add(record.segment_id)
        segments.append(
            ScoredSegment.from_raw(
                record.segment_id,
                label(record.mqm_score, cutoff),
                record.qe_scores[metric],
                orientation,
            )
        )
    return Dataset.from_segments(segments, orientation)


def write_dataset_tsv(
    dataset: Dataset,
    gold_path: str,
    scores_path: str,
    cutoff: SeverityCutoff,
) -> None:
    """Write a dataset back to canonical TSVs (labels encoded as MQM scores).

    Positives are written as ``cutoff.threshold - 1`` and negatives as 0, so
    re-labeling under the same cutoff reproduces the labels exactly. The one
    cutoff that classifies 0 as positive (custom threshold 0, inclusive)
    cannot encode a negative and is rejected.
    """
    if label(0.0, cutoff) is not Label.NEGATIVE:
        raise ValueError(
            f"cutoff {cutoff.describe()} labels a zero MQM score positive; "
            "negatives cannot be encoded"
        )
    positive_code = cutoff.threshold - 1.0
    with open(gold_path, "w", encoding="utf-8") as gold:
        gold.write("segment_id\tmqm_score\n")
        for seg in dataset.segments:
            code = positive_code if seg.label is Label.POSITIVE else 0.0
            gold.write(f"{seg.segment_id}\t{code!r}\n")
    with open(scores_path, "w", encoding="utf-8") as scores:
        scores.write("segment_id\tscore\n")
        for seg in dataset.segments:
            scores.write(f"{seg.segment_id}\t{seg.raw_score!r}\n")

"""Shared builders and independent oracles used across the test suite."""

from __future__ import annotations

import hashlib
import json
import math
import tracemalloc
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from rocqe import (
    BootstrapConfig,
    ConfidenceBand,
    Dataset,
    IngestError,
    IngestReport,
    Label,
    Orientation,
    ScoredSegment,
    build_roc,
    label,
    map_replicates,
)
from rocqe.bootstrap import fpr_grid, nearest_rank
from rocqe.ingest import MAX_WARNINGS
from rocqe.roc import HullVertex, RocHull, raw_threshold

# The worked 10-segment example: (segment_id, raw QE score, has_error).
# Scores are higher-is-better; six segments carry errors.
SAMPLE10 = (
    ("1", 95.0, True),
    ("2", 95.0, False),
    ("3", 100.0, False),
    ("4", 95.0, False),
    ("5", 25.0, True),
    ("6", 93.0, True),
    ("7", 100.0, True),
    ("8", 99.0, True),
    ("9", 75.0, False),
    ("10", 99.0, True),
)


def sample10_dataset() -> Dataset:
    segments = [
        ScoredSegment.from_raw(
            sid,
            Label.POSITIVE if has_error else Label.NEGATIVE,
            raw,
            Orientation.HIGHER_IS_BETTER,
        )
        for sid, raw, has_error in SAMPLE10
    ]
    return Dataset.from_segments(segments, Orientation.HIGHER_IS_BETTER)


class Segment(NamedTuple):
    """One segment of a dataset, read back from its columns."""

    segment_id: str
    label: Label
    raw_score: float
    risk_score: float


def segments_of(dataset: Dataset) -> list[Segment]:
    """The dataset's columns as one ``Segment`` per entry, in dataset order."""
    labels = (Label.NEGATIVE, Label.POSITIVE)
    return [
        Segment(sid, labels[positive], raw, risk)
        for sid, positive, raw, risk in zip(
            dataset.ids.tolist(),
            dataset.is_positive.tolist(),
            dataset.raw_scores.tolist(),
            dataset.risk_scores.tolist(),
        )
    ]


def scored_segments(dataset: Dataset) -> list[ScoredSegment]:
    """The dataset's segments as ``ScoredSegment`` objects, for ``Dataset.from_segments``."""
    return [ScoredSegment(*segment) for segment in segments_of(dataset)]


def make_dataset(
    risks, labels, orientation: Orientation = Orientation.HIGHER_IS_WORSE
) -> Dataset:
    """Dataset from parallel risk/label sequences; ids are positional."""
    segments = [
        ScoredSegment.from_raw(
            f"s{i:04d}",
            Label.POSITIVE if positive else Label.NEGATIVE,
            float(risk) if orientation is Orientation.HIGHER_IS_WORSE else -float(risk),
            orientation,
        )
        for i, (risk, positive) in enumerate(zip(risks, labels))
    ]
    return Dataset.from_segments(segments, orientation)


def random_dataset(
    rng: np.random.Generator,
    max_size: int = 30,
    tie_fraction: float = 0.5,
) -> Dataset:
    """Small random dataset with both classes and frequent score ties."""
    n = int(rng.integers(2, max_size + 1))
    labels = np.zeros(n, dtype=bool)
    labels[: int(rng.integers(1, n))] = True
    rng.shuffle(labels)
    if rng.random() < tie_fraction:
        risks = rng.integers(0, max(2, n // 2), size=n).astype(float)
    else:
        risks = rng.normal(size=n)
    risks = risks + labels * rng.normal(scale=rng.random() * 2, size=n)
    return make_dataset(risks, labels)


def pairwise_auc(dataset: Dataset) -> float:
    """Rank-based AUC oracle: P(positive riskier than negative), ties 1/2.

    Counts twice the wins in integers (a win 2, a tie 1) and divides once.
    """
    pos = dataset.positive_risks.tolist()
    neg = dataset.negative_risks.tolist()
    twice_wins = 0
    for p in pos:
        for q in neg:
            if p > q:
                twice_wins += 2
            elif p == q:
                twice_wins += 1
    return twice_wins / (2 * len(pos) * len(neg))


def exact_auc(tp, fp) -> Fraction:
    """Trapezoidal area in exact rationals over cumulative vertex counts.

    ``tp`` and ``fp`` start at the (0, 0) origin and end at (P, N); each
    segment adds its fpr step times its mean tpr, with no rounding anywhere.
    """
    tp, fp = [int(v) for v in tp], [int(v) for v in fp]
    p, n = tp[-1], fp[-1]
    return sum(
        (
            Fraction(fp_b - fp_a, n) * (Fraction(tp_a, p) + Fraction(tp_b, p)) / 2
            for tp_a, tp_b, fp_a, fp_b in zip(tp, tp[1:], fp, fp[1:])
        ),
        Fraction(0),
    )


def exact_hull(curves) -> list[tuple[int, int, str, float]]:
    """Brute-force upper hull of named curves over one ground truth, in Fractions.

    Returns (fp, tp, source_system, threshold) per hull vertex, origin first.
    A point is a vertex when it lies strictly above every other point at its
    fpr and strictly above every chord between two other points whose fprs
    straddle its own; the origin always opens the hull. At a point several
    curves share, the curve with fewer vertices, then the smaller name, is
    the source.
    """
    p, n = curves[0][1].p_count, curves[0][1].n_count
    owner: dict[tuple[int, int], tuple[tuple[int, str], str, float]] = {}
    for name, curve in curves:
        rank = (len(curve.vertices), name)
        for v in curve.vertices:
            key = (v.counts.fp, v.counts.tp)
            if key not in owner or rank < owner[key][0]:
                owner[key] = (rank, name, v.threshold)
    points = {(Fraction(f, n), Fraction(t, p)): (f, t) for f, t in owner}

    def on_top(q) -> bool:
        for a in points:
            if a == q:
                continue
            if a[0] == q[0] and a[1] >= q[1]:
                return False
            for b in points:
                if b != q and a[0] < q[0] < b[0]:
                    chord = a[1] + (b[1] - a[1]) * (q[0] - a[0]) / (b[0] - a[0])
                    if q[1] <= chord:
                        return False
        return True

    keys = [(0, 0)] + sorted(points[q] for q in points if q != (0, 0) and on_top(q))
    return [(f, t, owner[f, t][1], owner[f, t][2]) for f, t in keys]


def monotone_chain(fp: list[int], tp: list[int]) -> list[int]:
    """Indices of the upper hull of distinct count points sorted by (fp, tp).

    Andrew's monotone chain over every point, on Python ints: it starts at
    the first point and drops collinear middle points. ``roc._upper_hull``
    runs the same chain over the staircase corners only.
    """
    hull: list[int] = []
    for i, (x, y) in enumerate(zip(fp, tp)):
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            if (fp[a] - fp[o]) * (y - tp[o]) < (tp[a] - tp[o]) * (x - fp[o]):
                break
            hull.pop()
        hull.append(i)
    return hull


def reference_convex_hull(curves) -> RocHull:
    """Hull of named curves over one ground truth, merging every vertex of every curve.

    How ``roc.convex_hull`` worked before it merged only each curve's
    staircase corners: it concatenates all vertices with their thresholds
    on both scales, keeps each point's best-ranked entry and runs the full
    monotone chain over them.
    """
    ranked = sorted(curves, key=lambda item: (item[1].thresholds.size, item[0]))
    fp, tp, thresholds, raw, source = map(np.concatenate, zip(*(
        (c.fp, c.tp, c.thresholds, c.thresholds_raw, np.full(c.fp.size, k))
        for k, (_, c) in enumerate(ranked)
    )))
    first = curves[0][1]
    p, n = first.p_count, first.n_count
    points = np.unique(fp * (p + 1) + tp, return_index=True)[1]
    chosen = points[monotone_chain(fp[points].tolist(), tp[points].tolist())]
    vertices = tuple(
        HullVertex(f / n, t / p, ranked[k][0], th, r)
        for f, t, k, th, r in zip(
            *(column[chosen].tolist() for column in (fp, tp, source, thresholds, raw))
        )
    )
    return RocHull(vertices, p, n, first.fingerprint)


def exact_pick(curve, trade_off, ratio=None) -> int:
    """Index of the lowest-fpr vertex maximizing tpr - m * fpr, in Fractions.

    m = (fp_unit_cost * n) / (fn_unit_cost * p) is taken exactly from the
    given floats; ``ratio`` defaults to the curve's class counts.
    """
    p, n = curve.p_count, curve.n_count
    ratio_p, ratio_n = (p, n) if ratio is None else (ratio.p, ratio.n)
    m = Fraction(trade_off.fp_unit_cost) * Fraction(ratio_n) / (
        Fraction(trade_off.fn_unit_cost) * Fraction(ratio_p)
    )
    objectives = [
        Fraction(v.counts.tp, p) - m * Fraction(v.counts.fp, n) for v in curve.vertices
    ]
    return objectives.index(max(objectives))


def tie_group_counts(
    risk: np.ndarray, is_positive: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted-sweep oracle: cumulative counts at every tie-group boundary.

    Returns (thresholds, tp, fp): canonical scores in descending order, one
    entry per distinct score, with the cumulative true/false positive counts
    after flagging everything scoring at or above that threshold. A group is
    named by its last member in input order, which the stable sort keeps.
    """
    order = np.argsort(-risk, kind="stable")
    sorted_risk = risk[order]
    sorted_pos = is_positive[order]
    cum_tp = np.cumsum(sorted_pos)
    cum_fp = np.cumsum(~sorted_pos)
    ends = np.flatnonzero(np.diff(sorted_risk) != 0)
    ends = np.append(ends, sorted_risk.size - 1)
    return sorted_risk[ends], cum_tp[ends], cum_fp[ends]


def interp_tpr(
    fpr: np.ndarray, tpr: np.ndarray, at: np.ndarray | float
) -> np.ndarray | float:
    """TPR at the given FPR values, read off the curve polyline by searching.

    At an fpr where the curve is vertical (repeated values) the attained
    maximum tpr is used; strictly between distinct fprs the value lies on
    the segment connecting the surrounding vertices, i.e. from the top of
    the left vertical to the bottom of the right one.
    """
    fpr = np.asarray(fpr, dtype=np.float64)
    tpr = np.asarray(tpr, dtype=np.float64)
    change = np.flatnonzero(np.diff(fpr) != 0)
    first = np.concatenate(([0], change + 1))
    last = np.append(change, fpr.size - 1)
    x = fpr[first]
    bottom = tpr[first]
    top = tpr[last]
    q = np.asarray(at, dtype=np.float64)
    scalar = q.ndim == 0
    q1 = np.clip(np.atleast_1d(q), x[0], x[-1])
    k = np.clip(np.searchsorted(x, q1, side="right") - 1, 0, x.size - 1)
    out = top[k].copy()
    inside = q1 > x[k]
    if np.any(inside):
        ki = k[inside]
        frac = (q1[inside] - x[ki]) / (x[ki + 1] - x[ki])
        out[inside] = top[ki] + frac * (bottom[ki + 1] - top[ki])
    return float(out[0]) if scalar else out


def compact(tp: np.ndarray, fp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-group cumulative counts cut to the curve's vertices.

    ``map_replicates`` hands a statistic the counts at every tie group of
    the dataset, an undrawn group repeating the vertex before it; the curve
    keeps the origin and every group where tp + fp steps up.
    """
    tp, fp = np.asarray(tp), np.asarray(fp)
    keep = np.concatenate(([True], np.diff(tp + fp) > 0))
    return tp[keep], fp[keep]


def resample_arrays(
    pos_risk: np.ndarray, neg_risk: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """One stratified resample of the canonical risk arrays.

    Positives are drawn first, then negatives, each with replacement and at
    the original stratum size, as every bootstrap replicate draws them.
    """
    pos_idx = rng.integers(0, pos_risk.size, size=pos_risk.size)
    neg_idx = rng.integers(0, neg_risk.size, size=neg_risk.size)
    return pos_risk[pos_idx], neg_risk[neg_idx]


def brute_force_counts(dataset: Dataset, threshold: float) -> tuple[int, int]:
    """(tp, fp) by literally re-testing risk >= threshold per segment."""
    tp = fp = 0
    for seg in segments_of(dataset):
        if seg.risk_score >= threshold:
            if seg.label is Label.POSITIVE:
                tp += 1
            else:
                fp += 1
    return tp, fp


def traced_peak(fn, *args, **kwargs):
    """``(fn(*args, **kwargs), rise)``: the call's result, and how far traced
    memory rose during it above what was traced when it began, in bytes."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak - before


def assert_close(a: float, b: float, tol: float = 1e-9) -> None:
    assert math.isfinite(a) and math.isfinite(b) and abs(a - b) <= tol, (a, b)


def sanitize(obj):
    """Make an object JSON-safe and deterministic (no NaN/inf, no numpy)."""
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        value = float(obj)
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def reference_json(document) -> str:
    """Report text oracle: the stdlib encoder over a sanitized copy.

    This is how CLI reports were written before the one-pass encoder, and
    the report bytes are a contract, so the encoder must match it exactly.
    """
    return json.dumps(sanitize(document), sort_keys=True, indent=2, allow_nan=False) + "\n"


# Object-based oracles: how ingest, labelling, the fingerprint and the
# table text were computed before the data path became columnar. The
# columnar code must agree with them exactly.


class Record(NamedTuple):
    """One joined record: gold score plus per-metric QE scores, None when missing."""

    segment_id: str
    mqm_score: Optional[float]
    qe_scores: dict[str, Optional[float]]


def records_of(records) -> list[Record]:
    """A parser's ``CanonicalRecords`` columns as one ``Record`` per entry, in order."""
    return [
        Record(sid, mqm, {records.metric: score})
        for sid, mqm, score in zip(
            records.ids.tolist(), records.mqm_scores.tolist(), records.scores.tolist()
        )
    ]


def parse_value(text: str) -> tuple[Optional[float], bool]:
    """(value, ok): value None for missing markers and non-finite numbers."""
    if text in ("", "None", "NA"):
        return None, True
    try:
        value = float(text)
    except ValueError:
        return None, False
    if not math.isfinite(value):
        return None, True
    return value, True


def read_two_column(
    path: str, strict: bool
) -> tuple[dict[str, Optional[float]], int, list[str]]:
    """The line-by-line reader: (rows, malformed_count, warnings), None for missing."""
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
                value, ok = parse_value(text)
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
    gold_path: str, scores_path: str, metric: str, *, strict: bool = False
) -> tuple[list[Record], IngestReport]:
    """The record-by-record join of two canonical TSVs."""
    gold_rows, gold_bad, gold_notes = read_two_column(gold_path, strict)
    score_rows, score_bad, score_notes = read_two_column(scores_path, strict)

    records: list[Record] = []
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
        records.append(Record(sid, gold, {metric: score}))

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


def read_system_column(path: str) -> dict[str, list[Optional[float]]]:
    """The line-by-line WMT reader: per-system sequences, None for missing."""
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
            value, ok = parse_value(text)
            if not system or not ok:
                raise IngestError(
                    f"{path} line {lineno}: unparsable row {line!r}"
                )
            sequences.setdefault(system, []).append(value)
    return sequences


def to_dataset(records, cutoff, orientation: Orientation, metric: str) -> Dataset:
    """Label records one by one into ScoredSegment objects."""
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


def fingerprint(dataset: Dataset) -> str:
    """SHA-256 over the sorted (segment_id, label) pairs, fed pair by pair."""
    h = hashlib.sha256()
    for sid, value in sorted((s.segment_id, s.label.value) for s in segments_of(dataset)):
        h.update(sid.encode("utf-8"))
        h.update(b"\x1f")
        h.update(value.encode("utf-8"))
        h.update(b"\x1e")
    return h.hexdigest()


def table_tsv(dataset: Dataset) -> str:
    """The QE-ROC table text, sorted with a Python key and formatted row by row."""
    p, n = dataset.p_count, dataset.n_count
    segments = sorted(segments_of(dataset), key=lambda s: (-s.risk_score, s.segment_id))
    thresholds, tp, fp = tie_group_counts(dataset.risk_scores, dataset.is_positive)
    lines = ["segment_id\tground_truth\tscore\ttp\tfn\tfp\ttn\ttpr\tfpr"]

    def row_line(sid, truth, raw, tp_g, fp_g) -> str:
        return (
            f"{sid}\t{truth}\t{raw!r}\t{tp_g}\t{p - tp_g}\t{fp_g}"
            f"\t{n - fp_g}\t{tp_g / p:.2f}\t{fp_g / n:.2f}"
        )

    lines.append(row_line("-", "-", raw_threshold(math.inf, dataset.orientation), 0, 0))
    group = 0
    for seg in segments:
        if seg.risk_score != thresholds[group]:
            group += 1
        lines.append(
            row_line(seg.segment_id, seg.label.value, seg.raw_score,
                     int(tp[group]), int(fp[group]))
        )
    lines.append(row_line("-", "-", raw_threshold(-math.inf, dataset.orientation), p, n))
    return "\n".join(lines) + "\n"


def reference_band(dataset: Dataset, config: BootstrapConfig) -> ConfidenceBand:
    """The band with every curve read off the grid by ``interp_tpr``.

    This is how the band was computed before the count-indexed grid read:
    each replicate's vertex arrays searched for every grid point, rows
    stacked, then cut at the same nearest ranks. Every AUC is the exact
    rational area rounded once.
    """
    p, n = dataset.p_count, dataset.n_count
    grid = fpr_grid(n)

    def replicate(tp: np.ndarray, fp: np.ndarray):
        tp, fp = compact(tp, fp)
        area = float(exact_auc(tp, fp))
        return interp_tpr(fp / n, tp / p, grid), area, fp.size == 2

    rows, aucs, degenerate = zip(*map_replicates(dataset, config, replicate))
    matrix = np.sort(np.vstack(rows), axis=0)
    aucs = np.sort(np.array(aucs))
    alpha = 1.0 - config.confidence
    curve = build_roc(dataset)
    return ConfidenceBand(
        fpr_grid=grid,
        lower_tpr=nearest_rank(matrix, alpha / 2.0).copy(),
        upper_tpr=nearest_rank(matrix, 1.0 - alpha / 2.0).copy(),
        point_tpr=interp_tpr(curve.fpr, curve.tpr, grid),
        auc_point=float(exact_auc(curve.tp, curve.fp)),
        auc_interval=(
            float(nearest_rank(aucs, alpha / 2.0)),
            float(nearest_rank(aucs, 1.0 - alpha / 2.0)),
        ),
        confidence=config.confidence,
        iterations=config.iterations,
        seed=config.seed,
        degenerate_replicates=sum(degenerate),
    )

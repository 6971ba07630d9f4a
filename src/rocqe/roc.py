"""Tie-aware ROC curves, AUC, partial AUC, convex hulls and PR points.

Curves are built by sweeping the canonical risk score from worst to best.
Segments sharing a value-equal canonical score (0.0 and -0.0 tie) form one
tie group and collapse into a single operating point carrying the group-end
cumulative counts, so tied thresholds contribute one vertex and the curve
between vertices is read as expected performance (linear interpolation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import (
    ConfusionCounts,
    Dataset,
    DegenerateClassError,
    Orientation,
    rates,
)


class GroundTruthMismatchError(ValueError):
    """Raised when curves built over different ground truths are combined."""


def tie_group_counts(
    risk: np.ndarray, is_positive: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cumulative confusion counts at every tie-group boundary.

    Returns (thresholds, tp, fp): canonical scores in descending order, one
    entry per distinct score, with the cumulative true/false positive counts
    after flagging everything scoring at or above that threshold.
    """
    order = np.argsort(-risk, kind="stable")
    sorted_risk = risk[order]
    sorted_pos = is_positive[order]
    cum_tp = np.cumsum(sorted_pos)
    cum_fp = np.cumsum(~sorted_pos)
    ends = np.flatnonzero(np.diff(sorted_risk) != 0)
    ends = np.append(ends, sorted_risk.size - 1)
    return sorted_risk[ends], cum_tp[ends], cum_fp[ends]


def raw_threshold(canonical: float, orientation: Orientation) -> float:
    """Map a canonical threshold back to the raw score scale."""
    if orientation is Orientation.HIGHER_IS_BETTER:
        return -canonical
    return canonical


@dataclass(frozen=True)
class RocVertex:
    """One operating point: flag every segment with risk >= ``threshold``."""

    fpr: float
    tpr: float
    threshold: float
    threshold_raw: float
    counts: ConfusionCounts

    def __post_init__(self) -> None:
        if not (0.0 <= self.fpr <= 1.0 and 0.0 <= self.tpr <= 1.0):
            raise ValueError(f"vertex ({self.fpr}, {self.tpr}) outside the unit square")
        r = rates(self.counts)
        if r.tpr != self.tpr or r.fpr != self.fpr:
            raise ValueError(
                f"vertex ({self.fpr}, {self.tpr}) disagrees with its counts "
                f"({r.fpr}, {r.tpr})"
            )


@dataclass(frozen=True)
class RocCurve:
    """Ordered ROC vertices for one score column over one ground truth.

    The first vertex is (0, 0) with a +inf threshold (nothing flagged); the
    last is (1, 1), reached at the best score present since flagging is
    inclusive. Thresholds strictly decrease, fpr and tpr never decrease, and
    consecutive vertices never coincide.
    """

    vertices: tuple[RocVertex, ...]
    p_count: int
    n_count: int
    fingerprint: str
    orientation: Orientation = Orientation.HIGHER_IS_WORSE

    def __post_init__(self) -> None:
        v = self.vertices
        if len(v) < 2:
            raise ValueError("a curve needs at least the two endpoint vertices")
        if (v[0].fpr, v[0].tpr) != (0.0, 0.0) or v[0].threshold != math.inf:
            raise ValueError("curve must start at (0, 0) with a +inf threshold")
        if (v[-1].fpr, v[-1].tpr) != (1.0, 1.0):
            raise ValueError("curve must end at (1, 1)")
        for a, b in zip(v, v[1:]):
            if b.fpr < a.fpr or b.tpr < a.tpr:
                raise ValueError("fpr and tpr must be non-decreasing along the curve")
            if b.fpr == a.fpr and b.tpr == a.tpr:
                raise ValueError("coincident consecutive vertices")
            if not b.threshold < a.threshold:
                raise ValueError("thresholds must strictly decrease along the curve")

    @property
    def fpr(self) -> np.ndarray:
        return np.array([v.fpr for v in self.vertices])

    @property
    def tpr(self) -> np.ndarray:
        return np.array([v.tpr for v in self.vertices])


def build_roc(dataset: Dataset) -> RocCurve:
    """Build the tie-aware ROC curve of a dataset.

    Segments are ranked worst first (descending canonical risk); each tie
    group contributes one vertex whose counts cover the whole group, so the
    vertex count equals the number of distinct scores plus the (0, 0) origin.
    """
    p, n = dataset.p_count, dataset.n_count
    if p == 0 or n == 0:
        empty = "positive" if p == 0 else "negative"
        raise DegenerateClassError(
            f"no {empty} segments: the ROC curve is undefined for a single-class "
            "dataset"
        )
    thresholds, tp, fp = tie_group_counts(dataset.risk_scores, dataset.is_positive)
    vertices = [
        RocVertex(
            0.0,
            0.0,
            math.inf,
            raw_threshold(math.inf, dataset.orientation),
            ConfusionCounts(0, p, 0, n),
        )
    ]
    for t, tp_i, fp_i in zip(thresholds, tp, fp):
        counts = ConfusionCounts(int(tp_i), p - int(tp_i), int(fp_i), n - int(fp_i))
        vertices.append(
            RocVertex(
                counts.fp / n,
                counts.tp / p,
                float(t),
                raw_threshold(float(t), dataset.orientation),
                counts,
            )
        )
    return RocCurve(
        tuple(vertices), p, n, dataset.fingerprint, dataset.orientation
    )


def auc(curve: RocCurve) -> float:
    """Trapezoidal area under the curve, in [0, 1]."""
    total = 0.0
    for a, b in zip(curve.vertices, curve.vertices[1:]):
        total += (b.fpr - a.fpr) * (a.tpr + b.tpr) / 2.0
    return total


def partial_auc(
    curve: RocCurve, fpr_lo: float, fpr_hi: float
) -> tuple[float, float]:
    """Trapezoidal area restricted to an FPR window.

    Returns (raw, normalized) where normalized divides by the window width,
    so a curve pinned at tpr = 1 over the window scores 1.0. Cut points that
    fall inside a curve segment are linearly interpolated.
    """
    if not (0.0 <= fpr_lo < fpr_hi <= 1.0):
        raise ValueError(
            f"need 0 <= fpr_lo < fpr_hi <= 1, got ({fpr_lo}, {fpr_hi})"
        )
    raw = 0.0
    for a, b in zip(curve.vertices, curve.vertices[1:]):
        if b.fpr <= fpr_lo or a.fpr >= fpr_hi:
            continue
        x0 = max(a.fpr, fpr_lo)
        x1 = min(b.fpr, fpr_hi)
        if x1 <= x0:
            continue
        span = b.fpr - a.fpr
        t0 = a.tpr + (b.tpr - a.tpr) * (x0 - a.fpr) / span
        t1 = a.tpr + (b.tpr - a.tpr) * (x1 - a.fpr) / span
        raw += (x1 - x0) * (t0 + t1) / 2.0
    return raw, raw / (fpr_hi - fpr_lo)


def interp_tpr(
    fpr: np.ndarray, tpr: np.ndarray, at: np.ndarray | float
) -> np.ndarray | float:
    """TPR at the given FPR values, read off the curve polyline.

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


def curve_tpr_at(curve: RocCurve, at: np.ndarray | float) -> np.ndarray | float:
    return interp_tpr(curve.fpr, curve.tpr, at)


@dataclass(frozen=True)
class HullVertex:
    fpr: float
    tpr: float
    source_system: str
    threshold: float
    threshold_raw: float


@dataclass(frozen=True)
class RocHull:
    """Upper convex envelope of one or more curves over one ground truth.

    Piecewise-linear and concave; every vertex names the system (and its
    threshold) that attains the point, so the hull doubles as a dispatch
    rule for combining systems across score regions.
    """

    vertices: tuple[HullVertex, ...]
    p_count: int
    n_count: int
    fingerprint: str

    @property
    def fpr(self) -> np.ndarray:
        return np.array([v.fpr for v in self.vertices])

    @property
    def tpr(self) -> np.ndarray:
        return np.array([v.tpr for v in self.vertices])


def hull_tpr_at(hull: RocHull, at: np.ndarray | float) -> np.ndarray | float:
    return interp_tpr(hull.fpr, hull.tpr, at)


def _cross(o: HullVertex, a: HullVertex, b: HullVertex) -> float:
    return (a.fpr - o.fpr) * (b.tpr - o.tpr) - (a.tpr - o.tpr) * (b.fpr - o.fpr)


def convex_hull(curves: Sequence[tuple[str, RocCurve]]) -> RocHull:
    """Upper convex hull of the named curves' vertices.

    All curves must share the same ground truth (class counts and dataset
    fingerprint). When several systems attain the same point, the one with
    fewer curve vertices wins, then the lexicographically smaller name; the
    rule is arbitrary but deterministic.
    """
    if not curves:
        raise ValueError("need at least one curve")
    names = [name for name, _ in curves]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate curve names: {names}")
    first = curves[0][1]
    for name, curve in curves:
        if (
            curve.p_count != first.p_count
            or curve.n_count != first.n_count
            or curve.fingerprint != first.fingerprint
        ):
            raise GroundTruthMismatchError(
                f"curve {name!r} was built over a different ground truth than "
                f"{curves[0][0]!r}"
            )

    rank = {
        name: (len(curve.vertices), name) for name, curve in curves
    }
    best_at_point: dict[tuple[float, float], HullVertex] = {}
    for name, curve in curves:
        for v in curve.vertices:
            key = (v.fpr, v.tpr)
            candidate = HullVertex(v.fpr, v.tpr, name, v.threshold, v.threshold_raw)
            held = best_at_point.get(key)
            if held is None or rank[name] < rank[held.source_system]:
                best_at_point[key] = candidate

    origin = best_at_point[(0.0, 0.0)]
    # Only the highest point at each fpr can lie on the upper envelope.
    top_at_fpr: dict[float, HullVertex] = {}
    for (f, t), point in sorted(best_at_point.items()):
        top_at_fpr[f] = point  # sorted by (fpr, tpr): last tpr wins
    points = [top_at_fpr[f] for f in sorted(top_at_fpr)]

    hull: list[HullVertex] = []
    for point in points:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], point) >= 0:
            hull.pop()
        hull.append(point)
    if (hull[0].fpr, hull[0].tpr) != (0.0, 0.0):
        hull.insert(0, origin)
    return RocHull(tuple(hull), first.p_count, first.n_count, first.fingerprint)


@dataclass(frozen=True)
class PrPoint:
    recall: float
    precision: float
    threshold: float


def pr_points(curve: RocCurve) -> list[PrPoint]:
    """Precision/recall at every vertex where precision is defined.

    The (0, 0) origin flags nothing, leaving precision undefined; that point
    is skipped rather than given a made-up value.
    """
    points = []
    for v in curve.vertices:
        flagged = v.counts.tp + v.counts.fp
        if flagged == 0:
            continue
        points.append(PrPoint(v.tpr, v.counts.tp / flagged, v.threshold))
    return points


def f1_at(curve: RocCurve, threshold: float) -> float:
    """F1 score at the vertex whose canonical threshold matches exactly."""
    for v in curve.vertices:
        if v.threshold == threshold:
            flagged = v.counts.tp + v.counts.fp
            if flagged == 0:
                raise ValueError(
                    f"F1 undefined at threshold {threshold!r}: nothing is flagged"
                )
            precision = v.counts.tp / flagged
            recall = v.tpr
            if precision + recall == 0:
                raise ValueError(
                    f"F1 undefined at threshold {threshold!r}: precision and "
                    "recall are both zero"
                )
            return 2.0 * precision * recall / (precision + recall)
    available = [v.threshold for v in curve.vertices]
    raise ValueError(
        f"no vertex at canonical threshold {threshold!r}; thresholds: {available}"
    )

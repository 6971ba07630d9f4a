"""Tie-aware ROC curves, AUC, convex hulls and PR points.

Curves are built by sweeping the canonical risk score from worst to best.
Segments sharing a value-equal canonical score (0.0 and -0.0 tie) form one
tie group and collapse into a single operating point carrying the group-end
cumulative counts, so tied thresholds contribute one vertex and the curve
between vertices is read as expected performance (linear interpolation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .model import (
    ConfusionCounts,
    Dataset,
    DegenerateClassError,
    Orientation,
    _frozen,
    rates,
    require_both_classes,
)


class GroundTruthMismatchError(ValueError):
    """Raised when curves built over different ground truths are combined."""


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


@dataclass(frozen=True, eq=False)
class RocCurve:
    """Ordered ROC vertices for one score column over one ground truth.

    Held as parallel arrays, one entry per vertex: canonical ``thresholds``
    and cumulative ``tp``/``fp`` counts. The first vertex is (0, 0) with a
    +inf threshold (nothing flagged); the last is (1, 1), reached at the best
    score present since flagging is inclusive. Thresholds strictly decrease,
    fpr and tpr never decrease, and consecutive vertices never coincide.
    ``dataset`` is the Dataset the curve was built over. ``vertices`` builds
    the per-vertex objects, and ``fingerprint`` hashes the dataset, on first
    access.
    """

    thresholds: np.ndarray
    tp: np.ndarray
    fp: np.ndarray
    p_count: int
    n_count: int
    dataset: Dataset
    orientation: Orientation = Orientation.HIGHER_IS_WORSE

    def __post_init__(self) -> None:
        thresholds = _frozen(np.array(self.thresholds, dtype=np.float64))
        tp, fp = np.array(self.tp), np.array(self.fp)
        for name, counts in (("tp", tp), ("fp", fp)):
            if counts.dtype.kind not in "iu":
                raise ValueError(f"{name} must hold integer counts, got {counts.dtype}")
        # Signed, so that a decreasing step cannot wrap round in np.diff.
        tp = _frozen(tp.astype(np.int64, copy=False))
        fp = _frozen(fp.astype(np.int64, copy=False))
        if not (thresholds.ndim == 1 and thresholds.shape == tp.shape == fp.shape):
            raise ValueError("thresholds, tp and fp must be 1-d arrays of one length")
        object.__setattr__(self, "thresholds", thresholds)
        object.__setattr__(self, "tp", tp)
        object.__setattr__(self, "fp", fp)
        if self.p_count <= 0 or self.n_count <= 0:
            raise DegenerateClassError(
                f"a curve needs both classes, got P={self.p_count}, N={self.n_count}"
            )
        if thresholds.size < 2:
            raise ValueError("a curve needs at least the two endpoint vertices")
        if (tp[0], fp[0]) != (0, 0) or thresholds[0] != math.inf:
            raise ValueError("curve must start at (0, 0) with a +inf threshold")
        if (tp[-1], fp[-1]) != (self.p_count, self.n_count):
            raise ValueError("curve must end at (1, 1)")
        d_tp, d_fp = np.diff(tp), np.diff(fp)
        bad = np.stack(
            [
                (d_tp < 0) | (d_fp < 0),
                (d_tp == 0) & (d_fp == 0),
                ~(thresholds[1:] < thresholds[:-1]),
            ]
        )
        if bad.any():
            # Report the first offending pair, and its first broken rule.
            pair = int(np.argmax(bad.any(axis=0)))
            raise ValueError(_CURVE_RULES[int(np.argmax(bad[:, pair]))])

    @property
    def fingerprint(self) -> str:
        """``Dataset.fingerprint`` of the curve's dataset."""
        return self.dataset.fingerprint

    @cached_property
    def fpr(self) -> np.ndarray:
        return _frozen(self.fp / self.n_count)

    @cached_property
    def tpr(self) -> np.ndarray:
        return _frozen(self.tp / self.p_count)

    @cached_property
    def thresholds_raw(self) -> np.ndarray:
        """Thresholds on the raw score scale, vertex for vertex."""
        if self.orientation is Orientation.HIGHER_IS_BETTER:
            return _frozen(-self.thresholds)
        return self.thresholds

    @cached_property
    def vertices(self) -> tuple[RocVertex, ...]:
        p, n = self.p_count, self.n_count
        return tuple(
            RocVertex(fpr, tpr, t, raw, ConfusionCounts(tp, p - tp, fp, n - fp))
            for fpr, tpr, t, raw, tp, fp in zip(
                self.fpr.tolist(),
                self.tpr.tolist(),
                self.thresholds.tolist(),
                self.thresholds_raw.tolist(),
                self.tp.tolist(),
                self.fp.tolist(),
            )
        )


_CURVE_RULES = (
    "fpr and tpr must be non-decreasing along the curve",
    "coincident consecutive vertices",
    "thresholds must strictly decrease along the curve",
)


def build_roc(dataset: Dataset) -> RocCurve:
    """Build the tie-aware ROC curve of a dataset.

    Read off the dataset's ranking (worst score first): each tie group
    contributes one vertex whose counts cover the whole group, so the vertex
    count equals the number of distinct scores plus the (0, 0) origin.
    """
    p, n = dataset.p_count, dataset.n_count
    require_both_classes(
        p, n, "the ROC curve is undefined for a single-class dataset"
    )
    ranking = dataset.ranking
    return RocCurve(
        ranking.thresholds,
        *ranking.counts(ranking.pos_group, ranking.neg_group),
        p,
        n,
        dataset,
        dataset.orientation,
    )


def count_auc(tp: np.ndarray, fp: np.ndarray) -> float:
    """Area under the curve through cumulative counts, origin first, rounded once.

    ``tp`` and ``fp`` are the integer counts at every vertex, starting at
    (0, 0) and ending at (P, N). Twice the trapezoidal area in count units,
    sum of dfp * (tp_a + tp_b), is the Mann-Whitney count 2U with tied pairs
    counted half: an integer, summed exactly in int64 (2PN must stay below
    2**63). True division of Python ints is correctly rounded, so the result
    is the exact U / (PN) rounded once.
    """
    tp = np.asarray(tp, dtype=np.int64)
    fp = np.asarray(fp, dtype=np.int64)
    twice = np.dot(np.diff(fp), tp[1:] + tp[:-1])
    return int(twice) / (2 * int(tp[-1]) * int(fp[-1]))


def auc(curve: RocCurve) -> float:
    """Area under the curve, in [0, 1]: the exact Mann-Whitney AUC rounded once."""
    return count_auc(curve.tp, curve.fp)


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

    Piecewise-linear and concave, from the (0, 0) origin to (1, 1), with no
    vertex on the segment between its neighbours. Every vertex names the
    system (and its threshold) that attains the point, so the hull doubles
    as a dispatch rule for combining systems across score regions.
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


def _corners(fp: np.ndarray, tp: np.ndarray) -> np.ndarray:
    """Indices of the staircase corners of distinct count points sorted by (fp, tp).

    The last point must be the largest in both coordinates, as (N, P) is on
    every ROC curve. A corner is the first point, the last, or a point that
    is the highest at its fp and lies above every point left of it. Only a
    corner can be a vertex of the upper hull that rises from the first point
    to the last.
    """
    corner = np.ones(fp.size, dtype=bool)
    corner[1:-1] = (fp[1:-1] != fp[2:]) & (tp[1:-1] > np.maximum.accumulate(tp)[:-2])
    return np.flatnonzero(corner)


def _upper_hull(fp: np.ndarray, tp: np.ndarray) -> np.ndarray:
    """Indices of the upper convex hull of distinct count points sorted by (fp, tp).

    The points must be as ``_corners`` requires. Andrew's monotone chain
    runs over their corners on Python ints, so every orientation test is
    exact; it starts at the first point and drops collinear middle points.
    """
    keep = _corners(fp, tp)
    xs, ys = fp[keep].tolist(), tp[keep].tolist()
    hull: list[int] = []
    for i, (x, y) in enumerate(zip(xs, ys)):
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            # Keep a only where o -> a -> (x, y) turns clockwise.
            if (xs[a] - xs[o]) * (y - ys[o]) < (ys[a] - ys[o]) * (x - xs[o]):
                break
            hull.pop()
        hull.append(i)
    return keep[hull]


def _merged_corners(curves: Sequence[RocCurve]) -> tuple[np.ndarray, ...]:
    """Columns (fp, tp, k, index) of the corners of curve k, for k = 0, 1, ... in turn.

    A vertex of the hull of all curves is a vertex of its own curve's hull,
    so a corner of that curve: the other vertices need not be merged.
    """
    merged = []
    for k, curve in enumerate(curves):
        keep = _corners(curve.fp, curve.tp)
        merged.append((curve.fp[keep], curve.tp[keep], np.full(keep.size, k), keep))
    return tuple(map(np.concatenate, zip(*merged)))


def convex_hull(curves: Sequence[tuple[str, RocCurve]]) -> RocHull:
    """Upper convex hull of the named curves' vertices, exact on integer counts.

    All curves must share one ground truth (class counts and dataset
    fingerprint). The hull starts at the origin and keeps no collinear
    middle vertex. When several systems attain the same point, the one with
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

    ranked = sorted(curves, key=lambda item: (item[1].thresholds.size, item[0]))
    fp, tp, source, index = _merged_corners([c for _, c in ranked])
    p, n = first.p_count, first.n_count
    # One entry per point, sorted by (fp, tp): np.unique keeps each point's
    # first entry, which is the best-ranked curve's.
    points = np.unique(fp * (p + 1) + tp, return_index=True)[1]
    chosen = points[_upper_hull(fp[points], tp[points])]
    vertices = []
    for f, t, k, i in zip(*(column[chosen].tolist() for column in (fp, tp, source, index))):
        name, curve = ranked[k]
        threshold = float(curve.thresholds[i])
        vertices.append(
            HullVertex(f / n, t / p, name, threshold, raw_threshold(threshold, curve.orientation))
        )
    return RocHull(tuple(vertices), p, n, first.fingerprint)


class PrPoints(NamedTuple):
    """Precision/recall at the curve's vertices, as parallel arrays."""

    recall: np.ndarray
    precision: np.ndarray
    threshold: np.ndarray


def pr_points(curve: RocCurve) -> PrPoints:
    """Precision/recall at every vertex where precision is defined.

    The (0, 0) origin flags nothing, leaving precision undefined; that point
    is skipped rather than given a made-up value.
    """
    flagged = curve.tp + curve.fp
    keep = flagged > 0
    return PrPoints(
        curve.tpr[keep], curve.tp[keep] / flagged[keep], curve.thresholds[keep]
    )

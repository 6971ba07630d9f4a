"""Stratified bootstrap confidence bands and AUC intervals for ROC curves.

Resampling is stratified: each replicate redraws the positives and the
negatives separately, with replacement, so every replicate keeps the
original class sizes and class imbalance. Every replicate owns an
independent RNG substream derived from (seed, replicate index), and results
are aggregated in index order, so output is byte-identical for a fixed seed.

A replicate is never re-sorted. The dataset's distinct scores are ranked
once into tie groups; a replicate is a multiplicity vector over the original
sample, so its tie-group sweep is a bincount of the drawn members' groups
followed by a cumulative sum. Nor is its curve searched: every fpr is an
integer count over N, so the segment holding each FPR grid point is found
by counting the replicate's distinct counts up to a per-band index. Its AUC
is read off the same integer counts by ``roc.count_auc``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, TypeVar

import numpy as np

from .model import Dataset, require_both_classes
from .roc import count_auc, tie_group_counts

T = TypeVar("T")

DEFAULT_ITERATIONS = 1000
DEFAULT_CONFIDENCE = 0.95
MIN_GRID_INTERVALS = 100
# Largest replicate matrix (iterations x grid points, float64) a band may allocate.
MAX_BAND_MATRIX_BYTES = 2 * 2**30


@dataclass(frozen=True)
class BootstrapConfig:
    """Resampling parameters.

    ``grid_points`` is the number of FPR grid intervals (granularity
    1/grid_points); when None it defaults to max(N, 100) so the grid tracks
    the empirical fpr resolution of the dataset without getting coarse on
    small samples.
    """

    iterations: int = DEFAULT_ITERATIONS
    confidence: float = DEFAULT_CONFIDENCE
    seed: int = 0
    grid_points: Optional[int] = None

    def __post_init__(self) -> None:
        if self.iterations < 2:
            raise ValueError(f"iterations must be >= 2, got {self.iterations}")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(
                f"confidence must lie strictly between 0 and 1, got {self.confidence}"
            )
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.grid_points is not None and self.grid_points < 1:
            raise ValueError(f"grid_points must be >= 1, got {self.grid_points}")

    def fpr_grid(self, n_count: int) -> np.ndarray:
        intervals = self.grid_points or max(n_count, MIN_GRID_INTERVALS)
        return np.linspace(0.0, 1.0, intervals + 1)


def replicate_rng(seed: int, index: int) -> np.random.Generator:
    """The RNG substream owned by one replicate."""
    return np.random.default_rng([seed, index])


def _draw(p: int, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Member indices of one stratified resample.

    Positives are drawn first, then negatives, each with replacement and at
    the original stratum size. Draw order is part of the determinism
    contract: changing it changes every downstream number.
    """
    pos_idx = rng.integers(0, p, size=p)
    neg_idx = rng.integers(0, n, size=n)
    return pos_idx, neg_idx


@dataclass(frozen=True, eq=False)
class TieGroups:
    """The tie group of every positive and negative, ranked once per dataset.

    Group 0 holds the largest canonical risk. Scores tie when they are
    value-equal, so 0.0 and -0.0 share a group, as in ``tie_group_counts``.
    """

    pos_group: np.ndarray
    neg_group: np.ndarray
    count: int

    @classmethod
    def of(cls, pos_risk: np.ndarray, neg_risk: np.ndarray) -> "TieGroups":
        distinct, inverse = np.unique(
            np.concatenate([pos_risk, neg_risk]), return_inverse=True
        )
        group = distinct.size - 1 - inverse
        return cls(group[: pos_risk.size], group[pos_risk.size :], distinct.size)

    def resample_counts(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Cumulative (tp, fp) at every tie group present in one resample.

        Returns exactly the tp and fp arrays ``tie_group_counts`` gives on
        the resampled scores, without sorting them.
        """
        pos_idx, neg_idx = _draw(self.pos_group.size, self.neg_group.size, rng)
        tp = np.bincount(self.pos_group[pos_idx], minlength=self.count)
        fp = np.bincount(self.neg_group[neg_idx], minlength=self.count)
        present = np.flatnonzero(tp + fp)
        return np.cumsum(tp)[present], np.cumsum(fp)[present]


def map_replicates(
    dataset: Dataset,
    config: BootstrapConfig,
    stat_fn: Callable[[np.ndarray, np.ndarray], T],
) -> list[T]:
    """Evaluate a statistic on every bootstrap replicate, in index order.

    ``stat_fn(tp, fp)`` receives one replicate's cumulative tie-group
    counts: for each distinct canonical score present in the resample,
    worst first, the number of resampled positives (``tp``) and negatives
    (``fp``) scoring at or above it. Both are integer arrays of equal length,
    non-decreasing, ending at (P, N); they equal the tp and fp arrays of
    ``tie_group_counts`` on the resampled scores. The returned list is
    ordered by replicate index, so any statistic layered on the same seed
    sees the same resamples as the confidence band does.
    """
    return _map_indexed(dataset, config, lambda _, tp, fp: stat_fn(tp, fp))


def _map_indexed(
    dataset: Dataset,
    config: BootstrapConfig,
    fn: Callable[[int, np.ndarray, np.ndarray], T],
) -> list[T]:
    """``fn(index, tp, fp)`` for every replicate, in index order.

    The one place a replicate is drawn and counted.
    """
    require_both_classes(
        dataset.p_count, dataset.n_count, "stratified resampling is undefined"
    )
    groups = TieGroups.of(dataset.positive_risks, dataset.negative_risks)
    return [
        fn(index, *groups.resample_counts(replicate_rng(config.seed, index)))
        for index in range(config.iterations)
    ]


def _curve_from_counts(tp: np.ndarray, fp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(tp, fp) vertex counts, origin included, of cumulative group counts."""
    return np.concatenate(([0], tp)), np.concatenate(([0], fp))


def _fp_at(grid: np.ndarray, n: int) -> np.ndarray:
    """For every grid point, the largest count c with c / n at or below it."""
    return np.searchsorted(np.arange(n + 1) / n, grid, side="right") - 1


def _grid_tpr(
    tp: np.ndarray,
    fp: np.ndarray,
    p: int,
    n: int,
    grid: np.ndarray,
    fp_at: np.ndarray,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``interp_tpr(fp / n, tp / p, grid)``, bit for bit, found by counting.

    ``tp`` and ``fp`` hold the curve's integer counts (origin first, ending
    at (P, N)); ``grid`` lies in [0, 1] and ``fp_at = _fp_at(grid, N)``.
    Correctly rounded c / N grows with c, so a vertex lies at or left of a
    grid point exactly when its count is at most that point's ``fp_at``: the
    segment holding each point is the number of distinct counts up to it,
    less one. The last segment gets an infinite width and zero rise, and a
    point on a vertex adds +0.0 to its top (rises are never negative), so no
    point needs a mask.
    """
    change = np.flatnonzero(np.diff(fp))
    first = np.concatenate(([0], change + 1))
    last = np.append(change, fp.size - 1)
    x = fp[first] / n
    top = tp[last] / p
    dx = np.append(np.diff(x), np.inf)
    dy = np.append(tp[first[1:]] / p - top[:-1], 0.0)
    present = np.zeros(fp[-1] + 1, dtype=np.intp)
    present[fp] = 1
    k = np.cumsum(present)[fp_at] - 1
    row = np.subtract(grid, x[k], out=out)
    row /= dx[k]
    row *= dy[k]
    row += top[k]
    return row


def nearest_rank(sorted_values: np.ndarray, q: float) -> np.ndarray:
    """Nearest-rank percentile: the ceil(q * B)-th smallest value (1-based).

    Works on a sorted vector or row-sorted matrix (selects a row).
    """
    b = sorted_values.shape[0]
    k = min(max(math.ceil(q * b), 1), b)
    return sorted_values[k - 1]


@dataclass(frozen=True, eq=False)
class ConfidenceBand:
    """Pointwise percentile band plus the AUC interval from one resample run.

    ``point_tpr`` is the empirical (un-resampled) curve evaluated on the same
    grid. ``degenerate_replicates`` counts resamples whose scores were all
    tied (their curve is the diagonal); they still contribute to the band.
    """

    fpr_grid: np.ndarray
    lower_tpr: np.ndarray
    upper_tpr: np.ndarray
    point_tpr: np.ndarray
    auc_point: float
    auc_interval: tuple[float, float]
    confidence: float
    iterations: int
    seed: int
    degenerate_replicates: int

    def __post_init__(self) -> None:
        for arr in (self.fpr_grid, self.lower_tpr, self.upper_tpr, self.point_tpr):
            arr.flags.writeable = False
        if not np.all(self.lower_tpr <= self.upper_tpr):
            raise ValueError("band is inverted: lower_tpr exceeds upper_tpr somewhere")
        if not self.auc_interval[0] <= self.auc_interval[1]:
            raise ValueError(f"inverted auc_interval {self.auc_interval}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConfidenceBand):
            return NotImplemented
        return (
            np.array_equal(self.fpr_grid, other.fpr_grid)
            and np.array_equal(self.lower_tpr, other.lower_tpr)
            and np.array_equal(self.upper_tpr, other.upper_tpr)
            and np.array_equal(self.point_tpr, other.point_tpr)
            and self.auc_point == other.auc_point
            and self.auc_interval == other.auc_interval
            and self.confidence == other.confidence
            and self.iterations == other.iterations
            and self.seed == other.seed
            and self.degenerate_replicates == other.degenerate_replicates
        )

    __hash__ = None  # type: ignore[assignment]


def confidence_band(
    dataset: Dataset, config: Optional[BootstrapConfig] = None
) -> ConfidenceBand:
    """Bootstrap percentile band around the empirical ROC curve.

    Each replicate's curve is evaluated on the shared FPR grid (vertical
    segments read at their top) and its AUC recorded; grid columns and AUC
    values are sorted across replicates and cut at nearest-rank percentiles
    (1 - confidence) / 2 and 1 - (1 - confidence) / 2. Rows are written in
    place into one B x (grid + 1) matrix, the only copy held; a matrix over
    ``MAX_BAND_MATRIX_BYTES`` is refused with a ValueError before allocation.
    """
    config = config or BootstrapConfig()
    require_both_classes(
        dataset.p_count, dataset.n_count, "stratified resampling is undefined"
    )
    if dataset.p_count < 2 or dataset.n_count < 2:
        warnings.warn(
            f"resampling a stratum of size 1 (P={dataset.p_count}, "
            f"N={dataset.n_count}) cannot express sampling variation",
            stacklevel=2,
        )
    grid = config.fpr_grid(dataset.n_count)
    matrix_bytes = config.iterations * grid.size * 8
    if matrix_bytes > MAX_BAND_MATRIX_BYTES:
        raise ValueError(
            f"the confidence band needs an estimated {matrix_bytes / 2**20:.0f} MB "
            f"({config.iterations} replicates x {grid.size} grid points), above "
            f"the {MAX_BAND_MATRIX_BYTES / 2**20:.0f} MB limit; lower --bootstrap"
        )
    matrix = np.empty((config.iterations, grid.size))
    p, n = dataset.p_count, dataset.n_count
    fp_at = _fp_at(grid, n)

    def one_replicate(
        index: int, tp: np.ndarray, fp: np.ndarray
    ) -> tuple[float, bool]:
        tp, fp = _curve_from_counts(tp, fp)
        _grid_tpr(tp, fp, p, n, grid, fp_at, out=matrix[index])
        degenerate = fp.size == 2  # origin plus a single tie group: all scores tied
        return count_auc(tp, fp), degenerate

    results = _map_indexed(dataset, config, one_replicate)
    aucs = np.sort(np.array([r[0] for r in results]))
    degenerate_count = sum(1 for r in results if r[1])

    matrix.sort(axis=0)
    alpha = 1.0 - config.confidence
    lower = nearest_rank(matrix, alpha / 2.0).copy()
    upper = nearest_rank(matrix, 1.0 - alpha / 2.0).copy()

    _, tp, fp = tie_group_counts(dataset.risk_scores, dataset.is_positive)
    tp, fp = _curve_from_counts(tp, fp)
    return ConfidenceBand(
        fpr_grid=grid.copy(),
        lower_tpr=lower,
        upper_tpr=upper,
        point_tpr=_grid_tpr(tp, fp, p, n, grid, fp_at),
        auc_point=count_auc(tp, fp),
        auc_interval=(
            float(nearest_rank(aucs, alpha / 2.0)),
            float(nearest_rank(aucs, 1.0 - alpha / 2.0)),
        ),
        confidence=config.confidence,
        iterations=config.iterations,
        seed=config.seed,
        degenerate_replicates=degenerate_count,
    )


@dataclass(frozen=True)
class BandWidthSummary:
    max_width: float
    mean_width: float


def band_width_summary(band: ConfidenceBand) -> BandWidthSummary:
    """Extreme and mean vertical width of a band across its grid."""
    width = band.upper_tpr - band.lower_tpr
    return BandWidthSummary(max_width=float(np.max(width)), mean_width=float(np.mean(width)))

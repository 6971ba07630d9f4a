"""Stratified bootstrap confidence bands and AUC intervals for ROC curves.

Resampling is stratified: each replicate redraws the positives and the
negatives separately, with replacement, so every replicate keeps the
original class sizes and class imbalance. Every replicate owns an
independent RNG substream derived from (seed, replicate index), and results
are aggregated in index order, so output is byte-identical for a fixed seed.

A replicate is never re-sorted. It draws members of the original sample,
so ``Dataset.ranking`` already knows their tie groups, and
``Ranking.counts`` turns the drawn members' groups into the replicate's
curve counts, exactly as it does the whole sample's for the point curve.
Nor is a curve searched: every fpr is an integer count over N, so the
segment holding each FPR grid point is found by counting the curve's
distinct counts up to a per-band index. Its AUC is read off the same
integer counts by ``roc.count_auc``.

The band reads two order statistics per grid column, so it keeps only the
rows they read plus one chunk of fresh replicate rows: its memory is
bounded by that buffer, not by the number of replicates.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, TypeVar

import numpy as np

from .model import Dataset, require_both_classes
from .roc import count_auc

T = TypeVar("T")

DEFAULT_ITERATIONS = 1000
DEFAULT_CONFIDENCE = 0.95
MIN_GRID_INTERVALS = 100
# Largest buffer of replicate rows (rows x grid points, float64) a band may allocate.
MAX_BAND_MATRIX_BYTES = 2 * 2**30
# Fresh replicate rows a band buffers beside its kept rows between two sorts.
_CHUNK_ROWS = 256


@dataclass(frozen=True)
class BootstrapConfig:
    """Resampling parameters."""

    iterations: int = DEFAULT_ITERATIONS
    confidence: float = DEFAULT_CONFIDENCE
    seed: int = 0

    def __post_init__(self) -> None:
        if self.iterations < 2:
            raise ValueError(f"iterations must be >= 2, got {self.iterations}")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(
                f"confidence must lie strictly between 0 and 1, got {self.confidence}"
            )
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


def fpr_grid(n_count: int) -> np.ndarray:
    """The band's FPR grid: max(N, 100) equal intervals over [0, 1].

    It tracks the dataset's fpr resolution 1/N without getting coarse on
    small samples.
    """
    return np.linspace(0.0, 1.0, max(n_count, MIN_GRID_INTERVALS) + 1)


def replicate_rng(seed: int, index: int) -> np.random.Generator:
    """The RNG substream owned by one replicate."""
    return np.random.default_rng([seed, index])


def _draw(
    pos: np.ndarray, neg: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """One stratified resample of the per-member arrays ``pos`` and ``neg``.

    Positives are drawn first, then negatives, each with replacement and at
    the original stratum size. Draw order is part of the determinism
    contract: changing it changes every downstream number.
    """
    pos_idx = rng.integers(0, pos.size, size=pos.size)
    neg_idx = rng.integers(0, neg.size, size=neg.size)
    return pos[pos_idx], neg[neg_idx]


def map_replicates(
    dataset: Dataset,
    config: BootstrapConfig,
    stat_fn: Callable[[np.ndarray, np.ndarray], T],
) -> list[T]:
    """Evaluate a statistic on every bootstrap replicate, in index order.

    ``stat_fn(tp, fp)`` receives one replicate's ROC curve counts from
    ``Ranking.counts``: the origin (0, 0), then for each distinct canonical
    score present in the resample, worst first, the number of resampled
    positives (``tp``) and negatives (``fp``) scoring at or above it. Both
    are int64 arrays of equal length, non-decreasing, ending at (P, N). The
    returned list is ordered by replicate index, so any statistic layered on
    the same seed sees the same resamples as the confidence band does. This
    is the one place a replicate is drawn and counted.
    """
    require_both_classes(
        dataset.p_count, dataset.n_count, "stratified resampling is undefined"
    )
    ranking = dataset.ranking
    pos, neg = ranking.pos_group, ranking.neg_group
    return [
        stat_fn(*ranking.counts(*_draw(pos, neg, replicate_rng(config.seed, index))))
        for index in range(config.iterations)
    ]


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
    """TPR on ``grid`` read off the curve polyline through ``(fp / n, tp / p)``.

    A vertical run is read at its top; strictly between distinct fprs the
    value lies on the segment from the top of the left run to the bottom of
    the right one. Found by counting, not searching.

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


def _rank(q: float, b: int) -> int:
    """The 1-based nearest rank ceil(q * B), clamped to [1, B]."""
    return min(max(math.ceil(q * b), 1), b)


def nearest_rank(sorted_values: np.ndarray, q: float) -> np.ndarray:
    """Nearest-rank percentile: the ceil(q * B)-th smallest value (1-based).

    Works on a sorted vector or row-sorted matrix (selects a row).
    """
    return sorted_values[_rank(q, sorted_values.shape[0]) - 1]


def nearest_rank_interval(sorted_values: np.ndarray, confidence: float) -> tuple[float, float]:
    """The two-sided percentile interval: nearest ranks at (1 -+ confidence) / 2."""
    alpha = 1.0 - confidence
    return (
        float(nearest_rank(sorted_values, alpha / 2.0)),
        float(nearest_rank(sorted_values, 1.0 - alpha / 2.0)),
    )


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
    values are cut at nearest-rank percentiles (1 - confidence) / 2 and
    1 - (1 - confidence) / 2 across replicates, the k_lo-th and k_hi-th
    smallest. Only the rows those two ranks read are kept: per column the
    k_lo smallest and the B - k_hi + 1 largest values, plus a chunk of
    ``_CHUNK_ROWS`` fresh rows, in one buffer of min(B, kept + chunk) x
    (grid + 1) floats. Each replicate's row
    is written in place into the buffer; when it is full, and once more
    after the last replicate, the filled rows are sorted column by column
    and the largest kept rows moved down next to the smallest. A buffer
    over ``MAX_BAND_MATRIX_BYTES`` is refused with a ValueError before
    allocation.
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
    grid = fpr_grid(dataset.n_count)
    b = config.iterations
    alpha = 1.0 - config.confidence
    k_lo = _rank(alpha / 2.0, b)
    n_hi = b - _rank(1.0 - alpha / 2.0, b) + 1
    kept = k_lo + n_hi
    rows = min(b, kept + _CHUNK_ROWS)
    buffer_bytes = rows * grid.size * 8
    if buffer_bytes > MAX_BAND_MATRIX_BYTES:
        raise ValueError(
            f"the confidence band needs an estimated {buffer_bytes / 2**20:.0f} MB "
            f"({rows} rows of {b} replicates x {grid.size} grid points), above "
            f"the {MAX_BAND_MATRIX_BYTES / 2**20:.0f} MB limit; lower --bootstrap"
        )
    buffer = np.empty((rows, grid.size))
    filled = 0
    p, n = dataset.p_count, dataset.n_count
    fp_at = _fp_at(grid, n)

    def fold() -> None:
        # The k_lo smallest of all rows seen lie among the k_lo smallest
        # kept ones and the fresh ones, and likewise the n_hi largest.
        nonlocal filled
        buffer[:filled].sort(axis=0)
        if filled > kept:
            buffer[k_lo:kept] = buffer[filled - n_hi : filled]
            filled = kept

    def one_replicate(tp: np.ndarray, fp: np.ndarray) -> tuple[float, bool]:
        nonlocal filled
        _grid_tpr(tp, fp, p, n, grid, fp_at, out=buffer[filled])
        filled += 1
        if filled == rows:
            fold()
        degenerate = fp.size == 2  # origin plus a single tie group: all scores tied
        return count_auc(tp, fp), degenerate

    results = map_replicates(dataset, config, one_replicate)
    if filled > kept:
        fold()
    aucs = np.sort(np.array([r[0] for r in results]))
    degenerate_count = sum(1 for r in results if r[1])
    # The filled rows are sorted, the n_hi largest last.
    lower = buffer[k_lo - 1].copy()
    upper = buffer[filled - n_hi].copy()

    ranking = dataset.ranking
    tp, fp = ranking.counts(ranking.pos_group, ranking.neg_group)
    return ConfidenceBand(
        fpr_grid=grid.copy(),
        lower_tpr=lower,
        upper_tpr=upper,
        point_tpr=_grid_tpr(tp, fp, p, n, grid, fp_at),
        auc_point=count_auc(tp, fp),
        auc_interval=nearest_rank_interval(aucs, config.confidence),
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

"""Review-policy analysis on top of tie-aware ROC curves.

Three procedures turn a scored dataset into an operating decision: pick the
threshold a review budget affords and report the residual error risk; pick
the cheapest threshold that meets an error-risk target; or pick the vertex
where an iso-performance line (unit costs plus class ratio) touches the
curve. All three treat tie groups as atomic: a review set either contains a
whole tie group or none of it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .bootstrap import BootstrapConfig, confidence_band, map_replicates, nearest_rank_interval
from .model import Dataset, _frozen, _strictly_increasing, require_both_classes
from .roc import RocCurve, _upper_hull


def _row_column(index: int) -> property:
    """A whole ``QeRocTable`` column: item ``index`` of ``gather()``, gathered once."""
    return property(lambda table: table._columns[index])


@dataclass(frozen=True, eq=False)
class QeRocTable:
    """Per-segment ROC bookkeeping, sorted from the worst score to the best.

    Holds its ``dataset`` and ``order``, the dataset's row indices in table
    order. ``gather(rows)`` reads the row columns of a block of table rows
    off them: ``segment_ids``, ``is_positive`` and ``raw_scores`` per
    segment, and each row's tie-group counts ``tp`` and ``fp``. The whole
    columns, attributes of those names, are gathered on first access and
    kept, as read-only arrays (``segment_ids`` is an ``_id_column``).
    ``endpoints`` holds the raw scores of the two theoretical rows that
    flag nothing and everything; their counts are (0, 0) and (P, N).
    """

    dataset: Dataset
    order: np.ndarray

    segment_ids = _row_column(0)
    is_positive = _row_column(1)
    raw_scores = _row_column(2)
    tp = _row_column(3)
    fp = _row_column(4)
    p_count = property(lambda self: self.dataset.p_count)
    n_count = property(lambda self: self.dataset.n_count)

    def gather(self, rows: slice = slice(None)) -> tuple[np.ndarray, ...]:
        """``segment_ids, is_positive, raw_scores, tp, fp`` of the table rows ``rows``."""
        ds, ranking, order = self.dataset, self.dataset.ranking, self.order[rows]
        group = ranking.group[order]
        return (
            ds.ids[order], ds.is_positive[order], ds.raw_scores[order],
            ranking.tp[group], ranking.fp[group],
        )

    @functools.cached_property
    def _columns(self) -> tuple[np.ndarray, ...]:
        return tuple(map(_frozen, self.gather()))

    @property
    def endpoints(self) -> tuple[float, float]:
        return self.dataset.orientation.flip(math.inf), self.dataset.orientation.flip(-math.inf)


def qe_roc_table(dataset: Dataset) -> QeRocTable:
    """The QE-ROC table of a dataset.

    Rows are sorted by canonical risk descending (worst translation first),
    ties ordered by segment id. Each row's counts answer: flag every segment
    scoring worse than or equal to this row's score; how does that split the
    ground truth?
    """
    require_both_classes(dataset.p_count, dataset.n_count, "the QE-ROC table is undefined")
    ranking = dataset.ranking
    # Rows in id order skip the lexsort, about a fifth of a 100k table's time.
    if _strictly_increasing(dataset.ids):
        order = np.argsort(ranking.group, kind="stable")
    else:
        order = np.lexsort((dataset.ids, ranking.group))
    return QeRocTable(dataset, _frozen(order))


@dataclass(frozen=True)
class TradeOff:
    """Unit costs of the two error kinds, in any common monetary unit."""

    fn_unit_cost: float
    fp_unit_cost: float

    def __post_init__(self) -> None:
        if not (self.fn_unit_cost > 0 and self.fp_unit_cost > 0):
            raise ValueError(
                f"unit costs must be strictly positive, got "
                f"fn={self.fn_unit_cost}, fp={self.fp_unit_cost}"
            )

    @classmethod
    def parse(cls, text: str) -> "TradeOff":
        """Parse "a:b", read as: a missed errors cost as much as b false alarms."""
        a, b = _parse_ratio(text, "trade-off")
        return cls(fn_unit_cost=b, fp_unit_cost=a)


@dataclass(frozen=True)
class ClassRatio:
    """Assumed ratio of error-containing to clean segments (p : n)."""

    p: float
    n: float

    def __post_init__(self) -> None:
        if not (self.p > 0 and self.n > 0):
            raise ValueError(f"class ratio must be positive, got {self.p}:{self.n}")

    @classmethod
    def parse(cls, text: str) -> "ClassRatio":
        p, n = _parse_ratio(text, "class ratio")
        return cls(p=p, n=n)


def _parse_ratio(text: str, what: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"{what} must look like 'a:b', got {text!r}")
    try:
        a, b = float(parts[0]), float(parts[1])
    except ValueError:
        raise ValueError(f"{what} must be numeric 'a:b', got {text!r}") from None
    if not (math.isfinite(a) and math.isfinite(b) and a > 0 and b > 0):
        raise ValueError(f"{what} parts must be finite and positive, got {text!r}")
    return a, b


class Scenario(Enum):
    REVIEW_BUDGET = "review-budget"
    RISK_TARGET = "risk-target"
    OPTIMAL_THRESHOLD = "optimal-threshold"


@dataclass(frozen=True)
class DecisionReport:
    """Outcome of one decision procedure.

    ``threshold_*`` define the flag rule (canonical risk >= threshold);
    ``review_fraction`` is the flagged share of the sample and
    ``residual_fn_per_100`` the errors left unreviewed per 100 segments.
    ``ci`` bounds the scenario's headline quantity (named in ``notes``).
    """

    scenario: Scenario
    threshold_raw: float
    threshold_canonical: float
    review_fraction: float
    residual_fn_per_100: float
    ci: Optional[tuple[float, float]] = None
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.review_fraction <= 1.0:
            raise ValueError(f"review_fraction {self.review_fraction} outside [0, 1]")
        if not 0.0 <= self.residual_fn_per_100 <= 100.0:
            raise ValueError(
                f"residual_fn_per_100 {self.residual_fn_per_100} outside [0, 100]"
            )
        if self.ci is not None and not self.ci[0] <= self.ci[1]:
            raise ValueError(f"inverted ci {self.ci}")


def _review_capacity(review_fraction_x: float, total: int) -> int:
    """The largest k <= total whose review fraction, the float k / total, is <= x.

    Correctly rounded division is monotone in k, so ``floor(x * total)`` is
    at most a step or two from k.
    """
    k = min(math.floor(review_fraction_x * total), total)
    while k < total and (k + 1) / total <= review_fraction_x:
        k += 1
    while k / total > review_fraction_x:
        k -= 1
    return k


def _pick_largest_within_capacity(tp: np.ndarray, fp: np.ndarray, capacity: int) -> int:
    """Index of the last vertex whose review set fits; 0, the origin, always does."""
    return int(np.searchsorted(tp + fp, capacity, side="right")) - 1


def _needed_tp(p: int, total: int, y: float, efficacy: float) -> int:
    """The fewest reviewed positives whose residual per 100, as the report
    prints it, is <= y; p + 1 when even all p miss the target.

    That residual never rises with tp, so the tps that meet y are the top
    ones of 0..p.
    """
    meets = _residual_per_100(np.arange(p + 1), p, total, efficacy) <= y
    return p + 1 - int(np.count_nonzero(meets))


def _pick_smallest_meeting_budget(tp: np.ndarray, needed_tp: int) -> tuple[int, bool]:
    """First vertex that reviews at least ``needed_tp`` positives.

    Returns (index, attained); index 0, the origin, means the empty review
    set already qualifies. When even reviewing everything misses the target
    (possible only with efficacy < 1), returns the last vertex and
    attained=False.
    """
    idx = int(np.searchsorted(tp, needed_tp))
    return (idx, True) if idx < tp.size else (tp.size - 1, False)


def scenario1_residual_risk(
    dataset: Dataset,
    review_fraction_x: float,
    *,
    review_efficacy: float = 1.0,
    bootstrap: Optional[BootstrapConfig] = None,
    ci_method: str = "replicate",
) -> DecisionReport:
    """Residual error risk when at most a fraction x of segments is reviewed.

    The review set takes whole tie groups from the worst score downward; the
    capacity is the largest count k whose review fraction, the float
    k / total, is at most x. It is never exceeded, so a tie group that would
    overflow it is left out entirely. Residual risk counts the positives the
    review misses (plus uncorrected reviewed positives when review_efficacy
    is below 1), per 100 segments.

    With ``bootstrap`` set, a confidence interval for residual_fn_per_100 is
    attached: either by re-running the procedure per replicate (``ci_method=
    "replicate"``, the default) or by reading TPR limits off the ROC band at
    the chosen operating point (``ci_method="band"``).
    """
    check_review_fraction(review_fraction_x)
    check_review_efficacy(review_efficacy)
    if ci_method not in ("replicate", "band"):
        raise ValueError(f"unknown ci_method {ci_method!r}; use replicate or band")
    require_both_classes(
        dataset.p_count, dataset.n_count, "review-budget analysis is undefined"
    )

    total = dataset.total
    p = dataset.p_count
    capacity = _review_capacity(review_fraction_x, total)

    def run(tp: np.ndarray, fp: np.ndarray) -> float:
        idx = _pick_largest_within_capacity(tp, fp, capacity)
        return _residual_per_100(int(tp[idx]), p, total, review_efficacy)

    curve = RocCurve(dataset)
    idx = _pick_largest_within_capacity(curve.tp, curve.fp, capacity)
    notes = [f"review capacity: {capacity} of {total} segments"]
    if idx == 0:
        notes.append(
            "even the smallest tie group exceeds the review capacity; "
            "the review set is empty"
        )

    ci = None
    if bootstrap is not None:
        if ci_method == "replicate":
            values = np.sort(np.array(map_replicates(dataset, bootstrap, run)))
            ci = nearest_rank_interval(values, bootstrap.confidence)
            notes.append("ci covers residual_fn_per_100 (replicate percentile method)")
        else:
            band = confidence_band(dataset, bootstrap)
            fpr_here = int(curve.fp[idx]) / curve.n_count
            tpr_lo = float(np.interp(fpr_here, band.fpr_grid, band.lower_tpr))
            tpr_hi = float(np.interp(fpr_here, band.fpr_grid, band.upper_tpr))
            # residual errors = P - efficacy * TP = P * (1 - efficacy * tpr)
            lo = 100.0 * p * (1.0 - review_efficacy * tpr_hi) / total
            hi = 100.0 * p * (1.0 - review_efficacy * tpr_lo) / total
            ci = (max(lo, 0.0), min(hi, 100.0))
            notes.append("ci covers residual_fn_per_100 (band limits method)")
    return _report(Scenario.REVIEW_BUDGET, curve, idx, review_efficacy, ci, notes)


def scenario2_required_effort(
    dataset: Dataset,
    tolerable_fn_per_100_y: float,
    *,
    review_efficacy: float = 1.0,
    bootstrap: Optional[BootstrapConfig] = None,
) -> DecisionReport:
    """Review effort needed to keep residual errors within a target.

    The budget is y/100 * total missed errors; the procedure walks tie-group
    boundaries from the worst score and stops at the smallest review set
    whose residual_fn_per_100, as the report prints it, is at most y. An
    empty review set qualifies when the error count is already tolerable.
    With ``bootstrap`` set, a replicate percentile interval for
    review_fraction is attached.
    """
    check_tolerable_errors(tolerable_fn_per_100_y)
    check_review_efficacy(review_efficacy)
    require_both_classes(
        dataset.p_count, dataset.n_count, "risk-target analysis is undefined"
    )

    total = dataset.total
    needed = _needed_tp(dataset.p_count, total, tolerable_fn_per_100_y, review_efficacy)

    def run(tp: np.ndarray, fp: np.ndarray) -> float:
        idx, _ = _pick_smallest_meeting_budget(tp, needed)
        return float(tp[idx] + fp[idx]) / total

    curve = RocCurve(dataset)
    idx, attained = _pick_smallest_meeting_budget(curve.tp, needed)
    budget = tolerable_fn_per_100_y / 100.0 * total
    notes = [f"error budget: {budget!r} missed errors in {total} segments"]
    if not attained:
        notes.append(
            "the target is unattainable at this review efficacy even when "
            "everything is reviewed"
        )

    ci = None
    if bootstrap is not None:
        values = np.sort(np.array(map_replicates(dataset, bootstrap, run)))
        ci = nearest_rank_interval(values, bootstrap.confidence)
        notes.append("ci covers review_fraction (replicate percentile method)")
    return _report(Scenario.RISK_TARGET, curve, idx, review_efficacy, ci, notes)


def optimal_threshold(
    curve: RocCurve,
    trade_off: TradeOff,
    ratio: Optional[ClassRatio] = None,
) -> DecisionReport:
    """Vertex where an iso-performance line first touches the curve.

    The line's slope is m = (fp_unit_cost * n) / (fn_unit_cost * p); the
    selected vertex maximizes tpr - m * fpr, which is where a line of that
    slope sweeping in from the northwest first meets the curve. The pick is
    exact, with m the exact fraction of the four given floats, and exact
    ties resolve to the lowest-fpr vertex. ``ratio`` defaults to the curve's
    own class counts; pass an explicit ratio to plan for a different
    deployment mix.
    """
    if ratio is None:
        ratio = ClassRatio(float(curve.p_count), float(curve.n_count))
    rise, run = trade_off.fp_unit_cost * ratio.n, trade_off.fn_unit_cost * ratio.p
    m = rise / run if run else math.inf
    # m = a / b exactly, and tp*N*b - fp*P*a ranks vertices as tpr - m*fpr does.
    (fp_num, fp_den), (n_num, n_den), (fn_num, fn_den), (p_num, p_den) = (
        x.as_integer_ratio()
        for x in (trade_off.fp_unit_cost, ratio.n, trade_off.fn_unit_cost, ratio.p)
    )
    n_b = curve.n_count * fp_den * n_den * fn_num * p_num
    p_a = curve.p_count * fp_num * n_num * fn_den * p_den
    hull = _upper_hull(curve.fp, curve.tp)
    tp, fp = curve.tp[hull].tolist(), curve.fp[hull].tolist()
    # The lowest-fpr maximiser is a hull vertex, and max keeps the first one.
    k = max(range(hull.size), key=lambda i: tp[i] * n_b - fp[i] * p_a)
    fpr, tpr = fp[k] / curve.n_count, tp[k] / curve.p_count
    objective = tpr - m * fpr if fpr else tpr  # m may be inf, and inf * 0 is nan
    return _report(
        Scenario.OPTIMAL_THRESHOLD,
        curve,
        int(hull[k]),
        notes=(
            f"iso-performance slope m = {m!r}",
            f"objective tpr - m*fpr = {objective!r} at (fpr={fpr!r}, tpr={tpr!r})",
        ),
    )


def _report(
    scenario: Scenario,
    curve: RocCurve,
    idx: int,
    efficacy: float = 1.0,
    ci: Optional[tuple[float, float]] = None,
    notes: Sequence[str] = (),
) -> DecisionReport:
    """The report of flagging down to the curve's vertex ``idx``."""
    canonical = float(curve.thresholds[idx])
    tp, fp = int(curve.tp[idx]), int(curve.fp[idx])
    total = curve.p_count + curve.n_count
    if efficacy < 1.0:
        notes = (*notes, f"review efficacy: {efficacy!r}")
    return DecisionReport(
        scenario=scenario,
        threshold_raw=curve.orientation.flip(canonical),
        threshold_canonical=canonical,
        review_fraction=(tp + fp) / total,
        residual_fn_per_100=_residual_per_100(tp, curve.p_count, total, efficacy),
        ci=ci,
        notes=tuple(notes),
    )


def _residual_per_100(tp, p: int, total: int, efficacy: float):
    """Residual errors per 100 segments after reviewing ``tp`` positives (an int or an array)."""
    return 100.0 * (p - efficacy * tp) / total


def check_review_fraction(review_fraction_x: float) -> None:
    """Raise ValueError unless the reviewable fraction lies in (0, 1]."""
    if not 0.0 < review_fraction_x <= 1.0:
        raise ValueError(f"review fraction must be in (0, 1], got {review_fraction_x}")


def check_tolerable_errors(tolerable_fn_per_100_y: float) -> None:
    """Raise ValueError unless the tolerable errors per 100 lie in [0, 100]."""
    if not 0.0 <= tolerable_fn_per_100_y <= 100.0:
        raise ValueError(
            f"tolerable fn per 100 must be in [0, 100], got {tolerable_fn_per_100_y}"
        )


def check_review_efficacy(review_efficacy: float) -> None:
    """Raise ValueError unless the review efficacy lies in (0, 1]."""
    if not 0.0 < review_efficacy <= 1.0:
        raise ValueError(f"review efficacy must be in (0, 1], got {review_efficacy}")

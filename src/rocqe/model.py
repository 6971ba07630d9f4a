"""Core domain types: labels, score orientation, datasets, confusion counts.

Everything in this module is immutable after construction and safe to share
across threads. Score comparisons are exact (no epsilon): two segments tie
if and only if their canonical scores are value-equal, so 0.0 and -0.0 tie.
``Ranking`` is the one place that tie rule is applied.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import islice
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional, Sequence

import numpy as np

if TYPE_CHECKING:
    from .roc import RocCurve


class DegenerateClassError(ValueError):
    """Raised when an operation needs both classes but one is empty."""


class NonFiniteScoreError(ValueError):
    """Raised when a NaN or infinite score would enter the analysis."""


class Label(Enum):
    """Binary ground truth: a segment either contains errors or it does not."""

    POSITIVE = "error"
    NEGATIVE = "no error"


class Orientation(Enum):
    """Direction of a QE score column.

    HIGHER_IS_WORSE: larger score means worse translation (more likely positive).
    HIGHER_IS_BETTER: larger score means better translation; such scores are
    negated to obtain the canonical risk score.
    """

    HIGHER_IS_WORSE = "higher-worse"
    HIGHER_IS_BETTER = "higher-better"

    @classmethod
    def parse(cls, text: str) -> "Orientation":
        for member in cls:
            if member.value == text:
                return member
        raise ValueError(
            f"unknown orientation {text!r}; expected "
            f"{' or '.join(m.value for m in cls)}"
        )


def canonicalize(
    raw_score: float, orientation: Orientation, segment_id: Optional[str] = None
) -> float:
    """Map a raw QE score to the canonical risk scale (higher = riskier).

    Scores from systems where higher means better are negated, which is an
    order-reversing bijection; scores where higher already means worse pass
    through unchanged.
    """
    if not math.isfinite(raw_score):
        where = f" for segment {segment_id!r}" if segment_id is not None else ""
        raise NonFiniteScoreError(f"non-finite score {raw_score!r}{where}")
    if orientation is Orientation.HIGHER_IS_BETTER:
        return -raw_score
    return raw_score


@dataclass(frozen=True)
class ScoredSegment:
    """One translation segment: gold label plus raw and canonical QE scores."""

    segment_id: str
    label: Label
    raw_score: float
    risk_score: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.raw_score) or not math.isfinite(self.risk_score):
            raise NonFiniteScoreError(
                f"non-finite score for segment {self.segment_id!r}"
            )

    @classmethod
    def from_raw(
        cls,
        segment_id: str,
        label: Label,
        raw_score: float,
        orientation: Orientation,
    ) -> "ScoredSegment":
        risk = canonicalize(raw_score, orientation, segment_id)
        return cls(segment_id, label, float(raw_score), risk)


def require_both_classes(p_count: int, n_count: int, what: str) -> None:
    """Raise ``DegenerateClassError`` unless both classes are present.

    The message reads "no positive segments: <what>" (or negative), so
    every caller keeps its own wording.
    """
    if p_count == 0 or n_count == 0:
        empty = "positive" if p_count == 0 else "negative"
        raise DegenerateClassError(f"no {empty} segments: {what}")


# (id, label) pairs per block fed to ``Dataset.fingerprint``'s hash.
_PAIRS_PER_HASH_BLOCK = 4096


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _read_only(values, dtype=None) -> np.ndarray:
    """``values`` as a read-only array (of ``dtype`` when given).

    A read-only array that owns its data is taken as it is; anything else
    is copied into a fresh array, which is then frozen.
    """
    if (
        isinstance(values, np.ndarray) and values.base is None and not values.flags.writeable
        and (dtype is None or values.dtype == dtype)
    ):
        return values
    return _frozen(np.array(values, dtype=dtype))


def _strictly_increasing(keys: list[str]) -> bool:
    """Whether ``keys`` are sorted and free of repeats; stops at the first descent."""
    return all(map(operator.lt, keys, islice(keys, 1, None)))


class Dataset:
    """Scored segments for one QE score column, held as columns.

    ``ids``, ``raw_scores``, ``risk_scores`` and ``is_positive`` are
    read-only arrays with one entry per segment, in dataset order;
    ``p_count``/``n_count`` match the label tallies. Segment ids are
    opaque; uniqueness is an ingestion concern, and resampled datasets may
    legitimately repeat ids.

    ``Dataset(ids, raw_scores, risk_scores, is_positive, p_count, n_count,
    orientation)`` checks every column against the others; ``from_columns``
    derives the risk scores and class counts, and ``from_segments`` takes
    them from ``ScoredSegment`` objects.
    """

    def __init__(self, ids, raw_scores, risk_scores, is_positive, p_count: int, n_count: int,
                 orientation: Orientation = Orientation.HIGHER_IS_WORSE) -> None:
        """Store the columns read-only after checking them, as one vectorised pass."""
        ids = _read_only(ids, object)
        raw = _read_only(raw_scores, np.float64)
        risk = _read_only(risk_scores, np.float64)
        positive = _read_only(is_positive, bool)
        if not (ids.ndim == 1 and ids.shape == raw.shape == risk.shape == positive.shape):
            raise ValueError(
                "ids, raw_scores, risk_scores and is_positive must be 1-d arrays of one length"
            )
        finite = np.isfinite(raw) & np.isfinite(risk)
        if not finite.all():
            first = int(np.argmin(finite))
            raise NonFiniteScoreError(f"non-finite score for segment {ids[first]!r}")
        p = int(np.count_nonzero(positive))
        n = positive.size - p
        if (p, n) != (p_count, n_count):
            raise ValueError(
                f"class counts (P={p_count}, N={n_count}) do not match "
                f"labels (P={p}, N={n})"
            )
        expected = -raw if orientation is Orientation.HIGHER_IS_BETTER else raw
        canonical = expected == risk
        if not canonical.all():
            first = int(np.argmin(canonical))
            raise ValueError(
                f"segment {ids[first]!r}: risk score {risk[first].item()!r} is not "
                f"the canonical form of raw score {raw[first].item()!r} under "
                f"{orientation.value}"
            )
        self.__dict__.update(
            ids=ids,
            raw_scores=raw,
            risk_scores=risk,
            is_positive=positive,
            p_count=p,
            n_count=n,
            orientation=orientation,
        )

    @classmethod
    def from_segments(
        cls,
        segments: Iterable[ScoredSegment],
        orientation: Orientation = Orientation.HIGHER_IS_WORSE,
    ) -> "Dataset":
        segs = tuple(segments)
        positive = [s.label is Label.POSITIVE for s in segs]
        p = sum(positive)
        return cls(
            [s.segment_id for s in segs],
            [s.raw_score for s in segs],
            [s.risk_score for s in segs],
            positive,
            p,
            len(segs) - p,
            orientation,
        )

    @classmethod
    def from_columns(
        cls,
        ids: Sequence[str],
        raw_scores: Sequence[float],
        is_positive: Sequence[bool],
        orientation: Orientation = Orientation.HIGHER_IS_WORSE,
    ) -> "Dataset":
        """A dataset from parallel columns; risk scores and class counts are derived."""
        raw = _read_only(raw_scores, np.float64)
        risk = _frozen(-raw) if orientation is Orientation.HIGHER_IS_BETTER else raw
        positive = _read_only(is_positive, bool)
        p = int(np.count_nonzero(positive))
        return cls(ids, raw, risk, positive, p, positive.size - p, orientation)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"Dataset is immutable; cannot set {name!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            (self.p_count, self.n_count, self.orientation)
            == (other.p_count, other.n_count, other.orientation)
            and np.array_equal(self.ids, other.ids)
            and np.array_equal(self.raw_scores, other.raw_scores)
            and np.array_equal(self.risk_scores, other.risk_scores)
            and np.array_equal(self.is_positive, other.is_positive)
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"Dataset(total={self.total}, p_count={self.p_count}, "
            f"n_count={self.n_count}, orientation={self.orientation})"
        )

    @property
    def total(self) -> int:
        return self.p_count + self.n_count

    @cached_property
    def positive_risks(self) -> np.ndarray:
        return _frozen(self.risk_scores[self.is_positive])

    @cached_property
    def negative_risks(self) -> np.ndarray:
        return _frozen(self.risk_scores[~self.is_positive])

    @cached_property
    def ranking(self) -> "Ranking":
        """The dataset's tie groups, ranked once and shared by every consumer."""
        return Ranking(self.risk_scores, self.is_positive)

    @cached_property
    def roc_curve(self) -> "RocCurve":
        """The dataset's ``roc.build_roc`` curve, built once for the scenario reports."""
        from .roc import build_roc  # roc imports this module

        return build_roc(self)

    @cached_property
    def fingerprint(self) -> str:
        """Digest of the sorted (segment_id, label) pairs.

        Two datasets with equal fingerprints share the same ground-truth
        labeling, which is what multi-system comparisons require. Each pair
        is hashed as id, 0x1F, label value, 0x1E, in UTF-8.
        """
        import hashlib  # loads OpenSSL, which most CLI runs never use

        # The text after each id, by its label.
        tails = (f"\x1f{Label.NEGATIVE.value}\x1e", f"\x1f{Label.POSITIVE.value}\x1e")
        ids, positive = self.ids, self.is_positive
        if not _strictly_increasing(ids):
            pairs = list(zip(ids.tolist(), map(tails.__getitem__, positive.tolist())))
            order = sorted(range(ids.size), key=pairs.__getitem__)
            del pairs
            ids, positive = ids[order], positive[order]
        digest = hashlib.sha256()
        # Hashed a block of pairs at a time, so no whole-dataset text is built.
        for start in range(0, ids.size, _PAIRS_PER_HASH_BLOCK):
            block = slice(start, start + _PAIRS_PER_HASH_BLOCK)
            labels = map(tails.__getitem__, positive[block].tolist())
            digest.update("".join(map(str.__add__, ids[block].tolist(), labels)).encode("utf-8"))
        return digest.hexdigest()


class Ranking:
    """Tie groups of one dataset, from one sort of its canonical risks.

    Group 0 is the origin, which flags nothing; groups 1, 2, ... hold the
    distinct risks from the worst down. Value-equal risks share a group, so
    0.0 and -0.0 do, and a group is named by the risk of its last member in
    dataset order. ``thresholds[g]`` is that name (+inf for the origin);
    ``group``, ``pos_group`` and ``neg_group`` give the group of every
    segment, positive and negative, in dataset order.
    """

    def __init__(self, risk_scores: np.ndarray, is_positive: np.ndarray) -> None:
        # Nothing below depends on the order the sort leaves ties in, so it
        # need not be stable (a stable sort is about five times slower).
        order = np.argsort(-risk_scores)
        ranked = risk_scores[order]
        first = np.ones(ranked.size, dtype=bool)
        first[1:] = ranked[1:] != ranked[:-1]
        group = np.empty_like(order)
        group[order] = np.cumsum(first)
        last = np.maximum.reduceat(order, np.flatnonzero(first))
        self.thresholds = _frozen(np.concatenate(([math.inf], risk_scores[last])))
        self.group = _frozen(group)
        self.pos_group = _frozen(group[is_positive])
        self.neg_group = _frozen(group[~is_positive])

    def counts(
        self, pos_groups: np.ndarray, neg_groups: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Cumulative (tp, fp) at the origin and at every group.

        ``pos_groups`` and ``neg_groups`` are the groups of any multiset of
        positives and negatives: the dataset's own (``pos_group``,
        ``neg_group``) give its ROC curve counts, since every group holds
        one of its members; a bootstrap resample's give the replicate's.
        Counts are int64, one per group, origin first, worst group next; a
        group holding no member of the multiset repeats the counts before it.
        """
        size = self.thresholds.size
        tp = np.bincount(pos_groups, minlength=size)
        fp = np.bincount(neg_groups, minlength=size)
        return tp.cumsum(out=tp), fp.cumsum(out=fp)


@dataclass(frozen=True)
class ConfusionCounts:
    """Two-by-two confusion counts at one operating point."""

    tp: int
    fn: int
    fp: int
    tn: int

    def __post_init__(self) -> None:
        for name in ("tp", "fn", "fp", "tn"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {value!r}")

    @property
    def p(self) -> int:
        return self.tp + self.fn

    @property
    def n(self) -> int:
        return self.fp + self.tn


class Rates(NamedTuple):
    """Rates derived from a confusion matrix.

    ``precision`` is None when no segment was flagged (tp + fp = 0); callers
    must skip such points rather than substitute a number.
    """

    tpr: float
    fpr: float
    fnr: float
    precision: Optional[float]
    recall: float


def rates(c: ConfusionCounts) -> Rates:
    """TPR, FPR, FNR, precision and recall from confusion counts.

    Requires at least one positive and one negative in the ground truth;
    rates against an empty class are undefined.
    """
    if c.p == 0:
        raise DegenerateClassError("no positive segments: TPR/FNR undefined")
    if c.n == 0:
        raise DegenerateClassError("no negative segments: FPR undefined")
    tpr = c.tp / c.p
    fpr = c.fp / c.n
    fnr = 1.0 - tpr
    precision = c.tp / (c.tp + c.fp) if (c.tp + c.fp) > 0 else None
    return Rates(tpr, fpr, fnr, precision, tpr)


"""Core domain types: labels, score orientation, datasets, confusion counts.

Everything in this module is immutable after construction and safe to share
across threads. Score comparisons are exact (no epsilon): two segments tie
if and only if their canonical scores are value-equal, so 0.0 and -0.0 tie.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, NamedTuple, Optional

import numpy as np


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


@dataclass(frozen=True)
class Dataset:
    """An ordered collection of scored segments for one QE score column.

    ``p_count``/``n_count`` must match the label tallies. Segment ids are
    opaque; uniqueness is an ingestion concern, and resampled datasets may
    legitimately repeat ids.
    """

    segments: tuple[ScoredSegment, ...]
    p_count: int
    n_count: int
    orientation: Orientation = Orientation.HIGHER_IS_WORSE

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments", tuple(self.segments))
        p = sum(1 for s in self.segments if s.label is Label.POSITIVE)
        n = len(self.segments) - p
        if (p, n) != (self.p_count, self.n_count):
            raise ValueError(
                f"class counts (P={self.p_count}, N={self.n_count}) do not match "
                f"labels (P={p}, N={n})"
            )
        for s in self.segments:
            expected = canonicalize(s.raw_score, self.orientation, s.segment_id)
            if expected != s.risk_score:
                raise ValueError(
                    f"segment {s.segment_id!r}: risk score {s.risk_score!r} is not "
                    f"the canonical form of raw score {s.raw_score!r} under "
                    f"{self.orientation.value}"
                )

    @classmethod
    def from_segments(
        cls,
        segments: Iterable[ScoredSegment],
        orientation: Orientation = Orientation.HIGHER_IS_WORSE,
    ) -> "Dataset":
        segs = tuple(segments)
        p = sum(1 for s in segs if s.label is Label.POSITIVE)
        return cls(segs, p, len(segs) - p, orientation)

    @property
    def total(self) -> int:
        return self.p_count + self.n_count

    @cached_property
    def risk_scores(self) -> np.ndarray:
        arr = np.array([s.risk_score for s in self.segments], dtype=np.float64)
        arr.flags.writeable = False
        return arr

    @cached_property
    def raw_scores(self) -> np.ndarray:
        arr = np.array([s.raw_score for s in self.segments], dtype=np.float64)
        arr.flags.writeable = False
        return arr

    @cached_property
    def is_positive(self) -> np.ndarray:
        arr = np.array(
            [s.label is Label.POSITIVE for s in self.segments], dtype=bool
        )
        arr.flags.writeable = False
        return arr

    @cached_property
    def positive_risks(self) -> np.ndarray:
        arr = self.risk_scores[self.is_positive]
        arr.flags.writeable = False
        return arr

    @cached_property
    def negative_risks(self) -> np.ndarray:
        arr = self.risk_scores[~self.is_positive]
        arr.flags.writeable = False
        return arr

    @cached_property
    def fingerprint(self) -> str:
        """Digest of the sorted (segment_id, label) pairs.

        Two datasets with equal fingerprints share the same ground-truth
        labeling, which is what multi-system comparisons require.
        """
        h = hashlib.sha256()
        for sid, label in sorted((s.segment_id, s.label.value) for s in self.segments):
            h.update(sid.encode("utf-8"))
            h.update(b"\x1f")
            h.update(label.encode("utf-8"))
            h.update(b"\x1e")
        return h.hexdigest()


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


def counts_from_rates(
    fnr: float, fpr: float, p: float, n: float
) -> tuple[float, float]:
    """Convert error rates back into expected absolute counts (fn, fp).

    Results are real-valued expectations; rounding, if any, is a display
    concern for the caller.
    """
    if p < 0 or n < 0:
        raise ValueError(f"class sizes must be non-negative, got p={p}, n={n}")
    if not 0.0 <= fnr <= 1.0:
        raise ValueError(f"fnr must be within [0, 1], got {fnr}")
    if not 0.0 <= fpr <= 1.0:
        raise ValueError(f"fpr must be within [0, 1], got {fpr}")
    return fnr * p, fpr * n

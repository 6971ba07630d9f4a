"""Ground-truth labels from MQM-style annotations.

MQM scores are negative-valued penalty sums per segment (0 = clean). A
severity cutoff turns the score into a binary label: error-containing
(positive) or error-free (negative).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import Label


@dataclass(frozen=True)
class SeverityCutoff:
    """Decision boundary on the MQM score.

    A segment is positive when its score is below ``threshold``, or equal to
    it when ``inclusive`` is set. The two named cutoffs differ exactly at
    their boundaries: ``strict`` flags any nonzero penalty (score < 0) while
    ``lenient`` tolerates minor errors and flags score <= -5, so a single
    major error is already positive.
    """

    threshold: float
    inclusive: bool
    name: str = "custom"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.threshold) and self.threshold <= 0):
            raise ValueError(
                f"cutoff threshold must be finite and <= 0, got {self.threshold}"
            )

    @classmethod
    def custom(cls, threshold: float, inclusive: bool = False) -> "SeverityCutoff":
        return cls(float(threshold), inclusive=inclusive)

    def describe(self) -> str:
        op = "<=" if self.inclusive else "<"
        return f"{self.name} (positive iff score {op} {self.threshold:g})"


STRICT_ANY_ERROR = SeverityCutoff(0.0, inclusive=False, name="strict")
LENIENT = SeverityCutoff(-5.0, inclusive=True, name="lenient")


def label(mqm_score: float, cutoff: SeverityCutoff) -> Label:
    """Binary label for one MQM score under a severity cutoff.

    Positive scores are unexpected (annotation tooling emits penalties as
    negative values); they raise a warning but still label as negative under
    any valid cutoff.
    """
    if mqm_score > 0:
        warnings.warn(
            f"MQM score {mqm_score!r} is positive; penalty scores are expected "
            "to be <= 0",
            stacklevel=2,
        )
    return Label.POSITIVE if label_positive(mqm_score, cutoff) else Label.NEGATIVE


def label_positive(mqm_scores: np.ndarray | float, cutoff: SeverityCutoff) -> np.ndarray | bool:
    """Where a score is positive under ``cutoff``: elementwise over an array,
    or a bool for one score. ``label`` takes its verdict from here.

    Never warns; callers that must flag positive MQM scores call ``label``
    on those scores.
    """
    positive = mqm_scores < cutoff.threshold
    if cutoff.inclusive:
        positive |= mqm_scores == cutoff.threshold
    return positive


"""Shared builders and independent oracles used across the test suite."""

from __future__ import annotations

import json
import math
from enum import Enum

import numpy as np

from rocqe import Dataset, Label, Orientation, ScoredSegment

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
    """Rank-based AUC oracle: P(positive riskier than negative), ties 1/2."""
    pos = dataset.positive_risks
    neg = dataset.negative_risks
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (pos.size * neg.size)


def brute_force_counts(dataset: Dataset, threshold: float) -> tuple[int, int]:
    """(tp, fp) by literally re-testing risk >= threshold per segment."""
    tp = fp = 0
    for seg in dataset.segments:
        if seg.risk_score >= threshold:
            if seg.label is Label.POSITIVE:
                tp += 1
            else:
                fp += 1
    return tp, fp


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

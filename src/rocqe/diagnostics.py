"""Validity checks: when an ROC analysis should not be trusted.

Checks return findings, never raise: the caller decides whether a warning
blocks anything. The sample-size and band-width limits (``MIN_CLASS_SIZE``,
``MAX_BAND_WIDTH``) encode rough guidance, not sharp statistical guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bootstrap import ConfidenceBand
from .model import Dataset

MIN_CLASS_SIZE = 50
MAX_BAND_WIDTH = 0.5

# Whether the sample mirrors the deployment distribution cannot be checked
# mechanically; every report carries this reminder instead of pretending to.
REPRESENTATIVENESS_NOTE = (
    "Results hold for the population this sample represents; if production "
    "traffic differs (domains, systems, language pairs), collect a matching "
    "sample instead of extrapolating."
)


@dataclass(frozen=True)
class Finding:
    code: str
    message: str
    severity: str = "warning"


def check_sample(dataset: Dataset) -> list[Finding]:
    """Sample-level findings: degenerate classes, tiny classes, tied scores."""
    findings: list[Finding] = []
    for name, count in (("positive", dataset.p_count), ("negative", dataset.n_count)):
        if count == 0:
            findings.append(
                Finding(
                    "DEGENERATE_CLASS",
                    f"no {name} segments: ROC analysis is undefined on this sample",
                )
            )
        elif count < MIN_CLASS_SIZE:
            findings.append(
                Finding(
                    "MIN_CLASS_BELOW_50",
                    f"only {count} {name} segment(s) (fewer than {MIN_CLASS_SIZE}); "
                    "curve and band estimates will be unstable",
                )
            )
    risks = dataset.risk_scores
    if risks.size > 1 and bool(np.all(risks == risks[0])):
        findings.append(
            Finding(
                "ALL_TIED",
                "all canonical scores are identical; the curve collapses to "
                "the chance diagonal",
            )
        )
    return findings


def check_band(band: ConfidenceBand) -> list[Finding]:
    """Band-level findings: excessive pointwise uncertainty.

    Narrow bands are not endorsements (a near-random classifier can have a
    tight band); only excessive width is flagged, as evidence the sample
    cannot support curve-level conclusions.
    """
    findings: list[Finding] = []
    width = band.upper_tpr - band.lower_tpr
    worst = float(np.max(width))
    if worst > MAX_BAND_WIDTH:
        at = float(band.fpr_grid[int(np.argmax(width))])
        findings.append(
            Finding(
                "BAND_TOO_WIDE",
                f"confidence band reaches width {worst:.3f} at fpr {at:.3f} "
                f"(limit {MAX_BAND_WIDTH}); enlarge the sample with "
                "additional comparable segments before acting on this curve",
            )
        )
    return findings

"""Tie-aware ROC analysis and decision support for translation QE scores.

The public names load on first use (PEP 562): ``import rocqe`` imports no
submodule and so does not import numpy, and ``rocqe.build_roc`` imports
``rocqe.roc`` the first time it is read.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each submodule and the public names it holds.
_EXPORTS = {
    "bootstrap": (
        "BandWidthSummary", "BootstrapConfig", "ConfidenceBand", "band_width_summary",
        "confidence_band", "map_replicates", "replicate_rng",
    ),
    "decision": (
        "ClassRatio", "DecisionReport", "QeRocTable", "Scenario", "TableRow", "TradeOff",
        "optimal_threshold", "qe_roc_table", "scenario1_residual_risk",
        "scenario2_required_effort",
    ),
    "diagnostics": ("REPRESENTATIVENESS_NOTE", "Finding", "check_band", "check_sample"),
    "groundtruth": ("LENIENT", "STRICT_ANY_ERROR", "SeverityCutoff", "label"),
    "ingest": (
        "CanonicalRecord", "CanonicalRecords", "IngestError", "IngestReport",
        "parse_canonical_tsv", "parse_wmt_layout", "to_dataset",
    ),
    "model": (
        "ConfusionCounts", "Dataset", "DegenerateClassError", "Label", "NonFiniteScoreError",
        "Orientation", "Rates", "ScoredSegment", "canonicalize", "rates",
    ),
    "roc": (
        "GroundTruthMismatchError", "HullVertex", "PrPoints", "RocCurve", "RocHull",
        "RocVertex", "auc", "build_roc", "convex_hull", "pr_points",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    """Import the submodule that owns ``name`` and keep the name here."""
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

import numpy as np
import pytest

from rocqe import (
    BootstrapConfig,
    REPRESENTATIVENESS_NOTE,
    check_band,
    check_sample,
    confidence_band,
)
from rocqe.bootstrap import ConfidenceBand
from helpers import make_dataset


def _codes(findings):
    return [f.code for f in findings]


def _synthetic_band(lower, upper):
    grid = np.linspace(0.0, 1.0, len(lower))
    return ConfidenceBand(
        fpr_grid=grid,
        lower_tpr=np.asarray(lower, dtype=float),
        upper_tpr=np.asarray(upper, dtype=float),
        point_tpr=grid.copy(),
        auc_point=0.5,
        auc_interval=(0.4, 0.6),
        confidence=0.95,
        iterations=10,
        seed=0,
        degenerate_replicates=0,
    )


class TestCheckSample:
    def test_class_at_minimum_is_silent(self):
        ds = make_dataset(
            [float(i) for i in range(100)], [True] * 50 + [False] * 50
        )
        assert check_sample(ds) == []

    def test_class_one_below_minimum_flags(self):
        ds = make_dataset(
            [float(i) for i in range(99)], [True] * 49 + [False] * 50
        )
        findings = check_sample(ds)
        assert _codes(findings) == ["MIN_CLASS_BELOW_50"]
        assert "49" in findings[0].message
        assert "positive" in findings[0].message

    def test_both_classes_small_flag_twice(self):
        ds = make_dataset([1.0, 2.0, 3.0], [True, False, False])
        assert _codes(check_sample(ds)) == [
            "MIN_CLASS_BELOW_50",
            "MIN_CLASS_BELOW_50",
        ]

    def test_degenerate_class_reported_not_raised(self):
        ds = make_dataset([1.0, 2.0], [True, True])
        codes = _codes(check_sample(ds))
        assert "DEGENERATE_CLASS" in codes

    def test_all_tied_reported(self):
        ds = make_dataset([2.0] * 120, [True] * 60 + [False] * 60)
        assert _codes(check_sample(ds)) == ["ALL_TIED"]

    def test_findings_are_warnings(self):
        ds = make_dataset([1.0, 2.0], [True, False])
        assert all(f.severity == "warning" for f in check_sample(ds))


class TestCheckBand:
    def test_width_above_threshold_flags(self):
        band = _synthetic_band([0.0, 0.1, 1.0], [0.0, 0.7001, 1.0])
        findings = check_band(band)
        assert _codes(findings) == ["BAND_TOO_WIDE"]
        assert "0.600" in findings[0].message

    def test_width_exactly_at_threshold_is_silent(self):
        band = _synthetic_band([0.0, 0.2, 1.0], [0.0, 0.7, 1.0])
        assert check_band(band) == []

    def test_perfect_band_is_silent(self):
        ds = make_dataset([3.0, 2.0, 1.0, 0.0], [True, True, False, False])
        band = confidence_band(ds, BootstrapConfig(iterations=20, seed=0))
        assert check_band(band) == []

    def test_message_points_at_worst_grid_point(self):
        band = _synthetic_band([0.0, 0.0, 1.0], [0.0, 0.9, 1.0])
        findings = check_band(band)
        assert "fpr 0.500" in findings[0].message


class TestRepresentativenessNote:
    def test_note_is_fixed_and_actionable(self):
        assert "sample" in REPRESENTATIVENESS_NOTE
        assert len(REPRESENTATIVENESS_NOTE) > 50

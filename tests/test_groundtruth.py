import numpy as np
import pytest

from rocqe import (
    LENIENT,
    SEVERITY_WEIGHTS,
    STRICT_ANY_ERROR,
    Label,
    MqmErrorMark,
    Severity,
    SeverityCutoff,
    label,
    label_dataset,
    mqm_segment_score,
)


class TestSeverityWeights:
    def test_exact_weights(self):
        assert SEVERITY_WEIGHTS[Severity.MAJOR_NON_TRANSLATION] == 25.0
        assert SEVERITY_WEIGHTS[Severity.MAJOR] == 5.0
        assert SEVERITY_WEIGHTS[Severity.MINOR_FLUENCY_OR_PUNCTUATION] == 0.1
        assert SEVERITY_WEIGHTS[Severity.MINOR_OTHER] == 1.0
        assert SEVERITY_WEIGHTS[Severity.NEUTRAL] == 0.0

    def test_every_severity_has_a_weight(self):
        assert set(SEVERITY_WEIGHTS) == set(Severity)


class TestMqmSegmentScore:
    def test_no_errors_scores_zero(self):
        assert mqm_segment_score([]) == 0.0

    def test_single_major(self):
        assert mqm_segment_score([MqmErrorMark(Severity.MAJOR)]) == -5.0

    def test_weighted_mixture(self):
        marks = [
            MqmErrorMark(Severity.MAJOR_NON_TRANSLATION),
            MqmErrorMark(Severity.MINOR_FLUENCY_OR_PUNCTUATION, count=2),
        ]
        assert mqm_segment_score(marks) == pytest.approx(-25.2)

    def test_minor_and_neutral(self):
        marks = [
            MqmErrorMark(Severity.MINOR_OTHER, count=3),
            MqmErrorMark(Severity.NEUTRAL, count=5),
        ]
        assert mqm_segment_score(marks) == -3.0

    def test_additive_over_concatenation(self):
        a = [MqmErrorMark(Severity.MAJOR, count=2)]
        b = [MqmErrorMark(Severity.MINOR_OTHER)]
        assert mqm_segment_score(a + b) == mqm_segment_score(a) + mqm_segment_score(b)

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError, match="count"):
            MqmErrorMark(Severity.MINOR_OTHER, count=0)


class TestCutoffs:
    def test_strict_boundary(self):
        # Exclusive at 0: any negative score is an error, exactly 0 is clean.
        assert label(-0.1, STRICT_ANY_ERROR) is Label.POSITIVE
        assert label(0.0, STRICT_ANY_ERROR) is Label.NEGATIVE

    def test_lenient_boundary(self):
        # Inclusive at -5: a single major error already counts.
        assert label(-5.0, LENIENT) is Label.POSITIVE
        assert label(-4.9, LENIENT) is Label.NEGATIVE
        assert label(-5.1, LENIENT) is Label.POSITIVE

    def test_custom_exclusive(self):
        cut = SeverityCutoff.custom(-1.0)
        assert label(-1.0, cut) is Label.NEGATIVE
        assert label(-1.0000001, cut) is Label.POSITIVE

    def test_custom_inclusive(self):
        cut = SeverityCutoff.custom(-1.0, inclusive=True)
        assert label(-1.0, cut) is Label.POSITIVE

    def test_positive_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            SeverityCutoff.custom(0.5)

    @pytest.mark.parametrize("threshold", [float("nan"), -float("inf"), float("inf")])
    def test_non_finite_threshold_rejected(self, threshold):
        with pytest.raises(ValueError, match="finite"):
            SeverityCutoff.custom(threshold)

    def test_positive_score_warns_but_labels_negative(self):
        with pytest.warns(UserWarning, match="positive"):
            assert label(2.0, STRICT_ANY_ERROR) is Label.NEGATIVE

    def test_describe_mentions_threshold_and_name(self):
        text = STRICT_ANY_ERROR.describe()
        assert "0" in text and "strict" in text


class TestLabelDataset:
    def test_tallies(self):
        scores = {"a": -5.0, "b": 0.0, "c": -0.2, "d": 0.0}
        labels, p, n = label_dataset(scores, STRICT_ANY_ERROR)
        assert labels == {
            "a": Label.POSITIVE,
            "b": Label.NEGATIVE,
            "c": Label.POSITIVE,
            "d": Label.NEGATIVE,
        }
        assert (p, n) == (2, 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            label_dataset({}, STRICT_ANY_ERROR)

    def test_cutoff_monotone_in_threshold(self):
        # A looser cutoff can only move labels from positive to negative.
        rng = np.random.default_rng(23)
        scores = {f"s{i}": float(-rng.exponential(4)) for i in range(100)}
        strict_labels, _, _ = label_dataset(scores, STRICT_ANY_ERROR)
        loose_labels, _, _ = label_dataset(scores, SeverityCutoff.custom(-6.0))
        for key, lab in loose_labels.items():
            if lab is Label.POSITIVE:
                assert strict_labels[key] is Label.POSITIVE

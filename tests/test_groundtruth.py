import pytest

from rocqe import (
    LENIENT,
    STRICT_ANY_ERROR,
    Label,
    SeverityCutoff,
    label,
)


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

import math

import numpy as np
import pytest

from rocqe import (
    ConfusionCounts,
    Dataset,
    DegenerateClassError,
    Label,
    NonFiniteScoreError,
    Orientation,
    ScoredSegment,
    canonicalize,
    rates,
)
import rocqe.model as model_module
from rocqe.model import require_both_classes
import helpers


class TestOrientation:
    def test_parse_both_directions(self):
        assert Orientation.parse("higher-worse") is Orientation.HIGHER_IS_WORSE
        assert Orientation.parse("higher-better") is Orientation.HIGHER_IS_BETTER

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown orientation"):
            Orientation.parse("sideways")


class TestCanonicalize:
    def test_higher_worse_passes_through(self):
        assert canonicalize(3.25, Orientation.HIGHER_IS_WORSE) == 3.25

    def test_higher_better_negates(self):
        assert canonicalize(3.25, Orientation.HIGHER_IS_BETTER) == -3.25

    def test_negation_is_exact_involution(self):
        rng = np.random.default_rng(11)
        for raw in rng.normal(scale=100, size=200):
            once = canonicalize(raw, Orientation.HIGHER_IS_BETTER)
            assert canonicalize(once, Orientation.HIGHER_IS_BETTER) == raw

    def test_order_reversal(self):
        a = canonicalize(1.0, Orientation.HIGHER_IS_BETTER)
        b = canonicalize(2.0, Orientation.HIGHER_IS_BETTER)
        assert a > b

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected_with_segment_id(self, bad):
        with pytest.raises(NonFiniteScoreError, match="seg7"):
            canonicalize(bad, Orientation.HIGHER_IS_WORSE, "seg7")


class TestScoredSegment:
    def test_from_raw_builds_canonical(self):
        seg = ScoredSegment.from_raw("a", Label.POSITIVE, 4.0, Orientation.HIGHER_IS_BETTER)
        assert seg.raw_score == 4.0
        assert seg.risk_score == -4.0

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteScoreError):
            ScoredSegment("a", Label.NEGATIVE, math.nan, 0.0)


class TestDataset:
    def test_tally_mismatch_rejected(self):
        with pytest.raises(ValueError, match="class counts"):
            Dataset(["a"], [1.0], [1.0], [True], 0, 1)

    def test_risk_must_be_canonical(self):
        with pytest.raises(ValueError, match="canonical form"):
            Dataset(["a"], [1.0], [1.0], [True], 1, 0, Orientation.HIGHER_IS_BETTER)

    def test_from_segments_counts(self):
        segs = [
            ScoredSegment("a", Label.POSITIVE, 1.0, 1.0),
            ScoredSegment("b", Label.NEGATIVE, 2.0, 2.0),
            ScoredSegment("c", Label.POSITIVE, 3.0, 3.0),
        ]
        ds = Dataset.from_segments(segs)
        assert (ds.p_count, ds.n_count, ds.total) == (2, 1, 3)

    def test_arrays_split_by_class(self, sample10):
        assert sample10.positive_risks.size == 6
        assert sample10.negative_risks.size == 4
        assert np.all(np.sort(np.concatenate(
            [sample10.positive_risks, sample10.negative_risks]
        )) == np.sort(sample10.risk_scores))

    def test_arrays_read_only(self, sample10):
        with pytest.raises(ValueError):
            sample10.risk_scores[0] = 0.0

    def test_fingerprint_ignores_ordering(self, sample10):
        reordered = Dataset.from_segments(
            reversed(helpers.scored_segments(sample10)), sample10.orientation
        )
        assert reordered.fingerprint == sample10.fingerprint

    def test_fingerprint_tracks_labels(self):
        a = Dataset.from_segments([ScoredSegment("x", Label.POSITIVE, 1.0, 1.0)])
        b = Dataset.from_segments([ScoredSegment("x", Label.NEGATIVE, 1.0, 1.0)])
        assert a.fingerprint != b.fingerprint

    def test_fingerprint_ignores_scores(self):
        a = Dataset.from_segments([ScoredSegment("x", Label.POSITIVE, 1.0, 1.0)])
        b = Dataset.from_segments([ScoredSegment("x", Label.POSITIVE, 9.0, 9.0)])
        assert a.fingerprint == b.fingerprint


class TestColumnarDataset:
    def test_from_columns_derives_risk_and_counts(self):
        ds = Dataset.from_columns(
            ["a", "b", "c"], [1.0, -0.0, 2.5], [True, False, True],
            Orientation.HIGHER_IS_BETTER,
        )
        assert ds.ids.tolist() == ["a", "b", "c"]
        assert ds.risk_scores.tolist() == [-1.0, 0.0, -2.5]
        assert (ds.p_count, ds.n_count, ds.total) == (2, 1, 3)
        for column in (ds.ids, ds.raw_scores, ds.risk_scores, ds.is_positive):
            with pytest.raises(ValueError):
                column[0] = column[1]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_from_columns_rejects_non_finite(self, bad):
        with pytest.raises(NonFiniteScoreError, match="segment 'b'"):
            Dataset.from_columns(["a", "b"], [1.0, bad], [True, False])

    def test_from_columns_rejects_ragged_columns(self):
        with pytest.raises(ValueError, match="one length"):
            Dataset.from_columns(["a", "b"], [1.0], [True, False])

    def test_equal_columns_make_equal_datasets(self, sample10):
        again = Dataset.from_columns(
            sample10.ids, sample10.raw_scores, sample10.is_positive, sample10.orientation
        )
        assert again == sample10
        assert again != Dataset.from_segments(
            helpers.scored_segments(sample10)[1:], sample10.orientation
        )

    def test_immutable(self, sample10):
        with pytest.raises(AttributeError):
            sample10.p_count = 3

    def test_risk_must_be_canonical_names_the_first_bad_segment(self):
        segs = [
            ScoredSegment("a", Label.POSITIVE, 1.0, 1.0),
            ScoredSegment("b", Label.NEGATIVE, 2.0, 3.0),
            ScoredSegment("c", Label.NEGATIVE, 2.0, 4.0),
        ]
        with pytest.raises(ValueError, match="segment 'b': risk score 3.0 is not"):
            Dataset.from_segments(segs)

    @pytest.mark.parametrize("block", [None, 1, 3])
    def test_fingerprint_matches_pairwise_hash(self, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(model_module, "_PAIRS_PER_HASH_BLOCK", block)
        rng = np.random.default_rng(412)
        for _ in range(100):
            size = int(rng.integers(0, 20))
            ids = [f"id{int(i)}" for i in rng.integers(0, max(size, 1), size=size)]
            ids = [sid + "é" if rng.random() < 0.1 else sid for sid in ids]
            for column in (ids, sorted(set(ids))):  # sorted ids skip the sort
                ds = Dataset.from_columns(
                    column, rng.normal(size=len(column)), rng.random(len(column)) < 0.5
                )
                assert ds.fingerprint == helpers.fingerprint(ds)

    def test_fingerprint_of_nothing(self):
        empty = Dataset.from_columns([], [], [])
        assert empty.fingerprint == helpers.fingerprint(empty)


class TestRequireBothClasses:
    def test_passes_with_both(self):
        require_both_classes(1, 1, "anything is undefined")

    @pytest.mark.parametrize(
        "p,n,empty", [(0, 3, "positive"), (3, 0, "negative"), (0, 0, "positive")]
    )
    def test_message_names_the_empty_class(self, p, n, empty):
        with pytest.raises(DegenerateClassError) as info:
            require_both_classes(p, n, "the thing is undefined")
        assert str(info.value) == f"no {empty} segments: the thing is undefined"


class TestConfusionCounts:
    def test_class_totals(self):
        c = ConfusionCounts(tp=2, fn=4, fp=1, tn=3)
        assert (c.p, c.n) == (6, 4)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="tp"):
            ConfusionCounts(tp=-1, fn=0, fp=0, tn=0)

    def test_float_count_rejected(self):
        with pytest.raises(ValueError):
            ConfusionCounts(tp=1.5, fn=0, fp=0, tn=0)


class TestRates:
    def test_known_point(self):
        r = rates(ConfusionCounts(tp=2, fn=4, fp=1, tn=3))
        assert r.tpr == 2 / 6
        assert r.fpr == 1 / 4
        assert r.fnr == 1 - 2 / 6
        assert r.precision == 2 / 3
        assert r.recall == r.tpr

    def test_fnr_complements_tpr(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            p = int(rng.integers(1, 50))
            n = int(rng.integers(1, 50))
            tp = int(rng.integers(0, p + 1))
            fp = int(rng.integers(0, n + 1))
            r = rates(ConfusionCounts(tp, p - tp, fp, n - fp))
            assert r.fnr + r.tpr == 1.0

    def test_precision_none_when_nothing_flagged(self):
        r = rates(ConfusionCounts(tp=0, fn=6, fp=0, tn=4))
        assert r.precision is None

    def test_degenerate_positive_class(self):
        with pytest.raises(DegenerateClassError, match="positive"):
            rates(ConfusionCounts(tp=0, fn=0, fp=1, tn=1))

    def test_degenerate_negative_class(self):
        with pytest.raises(DegenerateClassError, match="negative"):
            rates(ConfusionCounts(tp=1, fn=1, fp=0, tn=0))


class TestTieSemantics:
    def test_bit_equality_is_the_tie_rule(self):
        # 0.1 + 0.2 is not the double 0.3; these segments must not tie.
        a = canonicalize(0.1 + 0.2, Orientation.HIGHER_IS_WORSE)
        b = canonicalize(0.3, Orientation.HIGHER_IS_WORSE)
        assert a != b

import math

import numpy as np
import pytest

from rocqe import (
    ConfusionCounts,
    Dataset,
    DegenerateClassError,
    GroundTruthMismatchError,
    Label,
    Orientation,
    RocCurve,
    RocVertex,
    ScoredSegment,
    auc,
    build_roc,
    convex_hull,
    pr_points,
)
import rocqe.decision as decision_module
import rocqe.roc as roc_module
from rocqe.decision import TradeOff, optimal_threshold
from rocqe.roc import raw_threshold
from helpers import (
    assert_close,
    brute_force_counts,
    exact_auc,
    exact_hull,
    interp_tpr,
    make_dataset,
    monotone_chain,
    pairwise_auc,
    random_dataset,
    reference_convex_hull,
    sample10_dataset,
    scored_segments,
    segments_of,
    traced_peak,
)

# Golden curve for the 10-segment example: (fpr, tpr, canonical thr, raw thr).
SAMPLE10_VERTICES = [
    (0.0, 0.0, math.inf, -math.inf),
    (0.0, 1 / 6, -25.0, 25.0),
    (1 / 4, 1 / 6, -75.0, 75.0),
    (1 / 4, 1 / 3, -93.0, 93.0),
    (3 / 4, 1 / 2, -95.0, 95.0),
    (3 / 4, 5 / 6, -99.0, 99.0),
    (1.0, 1.0, -100.0, 100.0),
]


class TestRawThreshold:
    def test_higher_worse_is_identity(self):
        assert raw_threshold(1.5, Orientation.HIGHER_IS_WORSE) == 1.5
        assert raw_threshold(math.inf, Orientation.HIGHER_IS_WORSE) == math.inf

    def test_higher_better_negates(self):
        assert raw_threshold(-93.0, Orientation.HIGHER_IS_BETTER) == 93.0
        assert raw_threshold(math.inf, Orientation.HIGHER_IS_BETTER) == -math.inf


class TestBuildRoc:
    def test_sample10_vertices(self, sample10):
        curve = build_roc(sample10)
        assert len(curve.vertices) == len(SAMPLE10_VERTICES)
        for v, (fpr, tpr, thr, raw) in zip(curve.vertices, SAMPLE10_VERTICES):
            assert_close(v.fpr, fpr)
            assert_close(v.tpr, tpr)
            assert v.threshold == thr
            assert v.threshold_raw == raw

    def test_fingerprint_is_hashed_on_first_use(self, sample10):
        curve = build_roc(sample10)
        assert "fingerprint" not in vars(sample10)
        assert curve.fingerprint == sample10.fingerprint

    def test_sample10_counts_at_93(self, sample10):
        curve = build_roc(sample10)
        v = next(v for v in curve.vertices if v.threshold_raw == 93.0)
        assert (v.counts.tp, v.counts.fn, v.counts.fp, v.counts.tn) == (2, 4, 1, 3)

    def test_perfect_separation_minimal(self):
        ds = make_dataset([1.0, 0.0], [True, False])
        curve = build_roc(ds)
        pts = [(v.fpr, v.tpr) for v in curve.vertices]
        assert pts == [(0.0, 0.0), (0.0, 1.0), (1.0, 1.0)]

    def test_all_tied_two_vertices(self):
        ds = make_dataset([1.0, 1.0, 1.0], [True, False, True])
        curve = build_roc(ds)
        assert [(v.fpr, v.tpr) for v in curve.vertices] == [(0.0, 0.0), (1.0, 1.0)]
        assert curve.vertices[-1].threshold == 1.0

    def test_signed_zeros_tie(self):
        # Ties are value-equal, not bit-equal: 0.0 and -0.0 form one group.
        ds = make_dataset([0.0, -0.0, 1.0, -0.0], [True, False, True, False])
        curve = build_roc(ds)
        assert [(v.fpr, v.tpr) for v in curve.vertices] == [
            (0.0, 0.0),
            (0.0, 0.5),
            (1.0, 1.0),
        ]

    def test_degenerate_raises(self):
        ds = make_dataset([1.0, 2.0], [True, True])
        with pytest.raises(DegenerateClassError):
            build_roc(ds)

    def test_vertex_count_is_distinct_scores_plus_one(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            ds = random_dataset(rng)
            curve = build_roc(ds)
            distinct = np.unique(ds.risk_scores).size
            assert len(curve.vertices) == distinct + 1

    def test_counts_match_brute_force_recount(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            ds = random_dataset(rng)
            curve = build_roc(ds)
            for v in curve.vertices[1:]:
                tp, fp = brute_force_counts(ds, v.threshold)
                assert v.counts.tp == tp
                assert v.counts.fp == fp
                assert v.counts.fn == ds.p_count - tp
                assert v.counts.tn == ds.n_count - fp

    def test_staircase_monotone(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            curve = build_roc(random_dataset(rng))
            assert np.all(np.diff(curve.fpr) >= 0)
            assert np.all(np.diff(curve.tpr) >= 0)

    def test_thresholds_strictly_decrease(self):
        rng = np.random.default_rng(44)
        for _ in range(100):
            curve = build_roc(random_dataset(rng))
            thr = [v.threshold for v in curve.vertices]
            assert all(a > b for a, b in zip(thr, thr[1:]))

    def test_fnr_complements_tpr_along_curve(self, sample10):
        from rocqe import rates

        curve = build_roc(sample10)
        for v in curve.vertices[1:]:
            r = rates(v.counts)
            assert r.fnr + r.tpr == 1.0

    def test_orientation_recorded(self, sample10):
        assert build_roc(sample10).orientation is Orientation.HIGHER_IS_BETTER


def _adversarial_dataset(rng, kind: str) -> Dataset:
    """Small datasets built to stress the tie-group sweep."""
    n = int(rng.integers(2, 40))
    labels = rng.random(n) < rng.uniform(0.1, 0.9)
    if kind == "single-positive" or kind == "single-negative":
        labels[:] = kind == "single-negative"
        labels[int(rng.integers(0, n))] = kind == "single-positive"
    else:
        labels[0], labels[-1] = True, False  # both classes present
    if kind == "heavy-ties":
        risks = rng.integers(0, 3, size=n).astype(float)
    elif kind == "signed-zeros":
        risks = rng.choice(np.array([0.0, -0.0, 1.0, -1.0]), size=n)
    elif kind == "all-tied":
        risks = np.full(n, rng.normal())
    else:
        risks = np.round(rng.normal(size=n), 1)
    orientation = (
        Orientation.HIGHER_IS_BETTER if rng.random() < 0.5 else Orientation.HIGHER_IS_WORSE
    )
    return make_dataset(risks, labels, orientation)


class TestArrayCurveDifferential:
    KINDS = ("heavy-ties", "signed-zeros", "single-positive", "single-negative",
             "all-tied", "rounded")

    @pytest.mark.parametrize("kind", KINDS)
    def test_against_brute_force_and_pairwise_oracles(self, kind):
        rng = np.random.default_rng(81 + self.KINDS.index(kind))
        for _ in range(60):
            ds = _adversarial_dataset(rng, kind)
            curve = build_roc(ds)
            assert curve.thresholds.size == np.unique(ds.risk_scores).size + 1
            assert (curve.tp[0], curve.fp[0]) == (0, 0)
            for thr, tp, fp in zip(
                curve.thresholds[1:].tolist(), curve.tp[1:].tolist(), curve.fp[1:].tolist()
            ):
                assert (tp, fp) == brute_force_counts(ds, thr)
            assert curve.thresholds_raw.tolist() == [
                raw_threshold(t, ds.orientation) for t in curve.thresholds.tolist()
            ]
            assert auc(curve) == pairwise_auc(ds)
            counts = [(v.counts.tp, v.counts.fp) for v in curve.vertices]
            assert auc(curve) == float(exact_auc(*zip(*counts)))

    def test_all_tied_is_the_diagonal(self):
        ds = make_dataset([-0.0, 0.0, 0.0, -0.0], [True, False, False, True])
        curve = build_roc(ds)
        assert curve.tp.tolist() == [0, 2] and curve.fp.tolist() == [0, 2]
        assert auc(curve) == 0.5 == pairwise_auc(ds)


class TestInvariances:
    def test_duplicating_negatives_leaves_curve_unchanged(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            ds = random_dataset(rng)
            segs = scored_segments(ds)
            clones = [
                ScoredSegment(f"dup-{s.segment_id}", s.label, s.raw_score, s.risk_score)
                for s in segs
                if s.label is Label.NEGATIVE
            ]
            doubled = Dataset.from_segments(segs + clones, ds.orientation)
            a, b = build_roc(ds), build_roc(doubled)
            assert [(v.fpr, v.tpr, v.threshold) for v in a.vertices] == [
                (v.fpr, v.tpr, v.threshold) for v in b.vertices
            ]
            assert auc(a) == auc(b)

    def test_monotone_transform_leaves_geometry_unchanged(self):
        rng = np.random.default_rng(52)
        for transform in (lambda x: 2.0 * x + 1.0, lambda x: x**3):
            for _ in range(50):
                ds = random_dataset(rng)
                mapped = Dataset.from_segments(
                    [
                        ScoredSegment(
                            s.segment_id,
                            s.label,
                            transform(s.risk_score),
                            transform(s.risk_score),
                        )
                        for s in segments_of(ds)
                    ]
                )
                a, b = build_roc(ds), build_roc(mapped)
                assert [(v.fpr, v.tpr) for v in a.vertices] == [
                    (v.fpr, v.tpr) for v in b.vertices
                ]
                assert auc(a) == auc(b)


class TestAuc:
    def test_sample10_value(self, sample10):
        assert auc(build_roc(sample10)) == 11.5 / 24

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(61)
        for _ in range(300):
            ds = random_dataset(rng)
            assert auc(build_roc(ds)) == pairwise_auc(ds)

    def test_perfect_and_inverted(self):
        assert auc(build_roc(make_dataset([3.0, 2.0, 1.0, 0.0], [True, True, False, False]))) == 1.0
        assert auc(build_roc(make_dataset([0.0, 1.0, 2.0, 3.0], [True, True, False, False]))) == 0.0

    def test_exact_third_is_rounded_once(self):
        # A trapezoid sum over the rounded rates gives 0.33333333333333337 here.
        ds = make_dataset([0.0, 1.0, 2.0, 3.0], [False, True, False, False])
        assert auc(build_roc(ds)) == 1 / 3

    def test_narrow_count_dtypes_are_widened(self):
        # Doubled tp sums and their products with fp steps overflow int8/uint8.
        rng = np.random.default_rng(63)
        ds = make_dataset(rng.normal(size=200), rng.random(200) < 0.5)
        curve = build_roc(ds)
        assert max(curve.p_count, curve.n_count) <= np.iinfo(np.int8).max
        for dtype in (np.int8, np.uint8, np.int16, np.uint32):
            narrow = RocCurve(
                curve.thresholds, curve.tp.astype(dtype), curve.fp.astype(dtype),
                curve.p_count, curve.n_count, curve.dataset,
            )
            assert auc(narrow) == auc(curve) == pairwise_auc(ds)


class TestInterpTpr:
    def test_vertical_segment_takes_max(self):
        fpr = np.array([0.0, 0.0, 0.5, 1.0])
        tpr = np.array([0.0, 0.6, 0.8, 1.0])
        assert interp_tpr(fpr, tpr, 0.0) == 0.6
        assert_close(float(interp_tpr(fpr, tpr, 0.25)), 0.7)

    def test_dense_grid_matches_pointwise_reading(self):
        # On a grid denser than the curve, ascending or shuffled, every value
        # must equal, bit for bit, a plain per-point reading of the polyline.
        rng = np.random.default_rng(77)
        for _ in range(60):
            curve = build_roc(random_dataset(rng, max_size=60))
            fpr, tpr = curve.fpr, curve.tpr
            grid = np.linspace(0.0, 1.0, int(rng.integers(2, 200)))
            expected = [_read_polyline(fpr.tolist(), tpr.tolist(), q) for q in grid.tolist()]
            assert np.asarray(interp_tpr(fpr, tpr, grid)).tolist() == expected
            shuffled = rng.permutation(grid)
            got = np.asarray(interp_tpr(fpr, tpr, shuffled)).tolist()
            assert got == [_read_polyline(fpr.tolist(), tpr.tolist(), q) for q in shuffled]

    def test_on_curve_vertices(self, sample10):
        curve = build_roc(sample10)
        assert interp_tpr(curve.fpr, curve.tpr, 0.25) == 1 / 3
        assert interp_tpr(curve.fpr, curve.tpr, 1.0) == 1.0
        assert_close(float(interp_tpr(curve.fpr, curve.tpr, 0.5)), (1 / 3 + 1 / 2) / 2)

    def test_vector_input(self, sample10):
        curve = build_roc(sample10)
        out = interp_tpr(curve.fpr, curve.tpr, np.array([0.0, 0.25, 1.0]))
        assert np.allclose(out, [1 / 6, 1 / 3, 1.0])


class TestConvexHull:
    def test_concave_curve_is_its_own_hull(self):
        ds = make_dataset([4.0, 3.0, 2.0, 1.0], [True, True, False, False])
        curve = build_roc(ds)
        hull = convex_hull([("only", curve)])
        assert [(v.fpr, v.tpr) for v in hull.vertices] == [(0.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
        assert all(v.source_system == "only" for v in hull.vertices[1:])

    def test_identical_curves_pick_first_by_name(self, sample10):
        curve = build_roc(sample10)
        hull = convex_hull([("beta", curve), ("alpha", curve)])
        assert all(v.source_system == "alpha" for v in hull.vertices if v.source_system)

    def test_hull_dominates_every_curve(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            base = random_dataset(rng)
            other_scores = rng.normal(size=base.total)
            other = Dataset.from_segments(
                [
                    ScoredSegment(s.segment_id, s.label, float(r), float(r))
                    for s, r in zip(segments_of(base), other_scores)
                ]
            )
            # Same ids and labels, different scorer: hull must cover both.
            a, b = build_roc(base_to_hw(base)), build_roc(other)
            hull = convex_hull([("a", a), ("b", b)])
            grid = np.linspace(0, 1, 41)
            hull_t = interp_tpr(hull.fpr, hull.tpr, grid)
            for curve in (a, b):
                assert np.all(hull_t >= np.asarray(interp_tpr(curve.fpr, curve.tpr, grid)) - 1e-12)

    def test_hull_is_concave(self):
        rng = np.random.default_rng(72)
        for _ in range(100):
            base = random_dataset(rng)
            hull = convex_hull([("a", build_roc(base_to_hw(base)))])
            f, t = hull.fpr, hull.tpr
            slopes = np.diff(t) / np.where(np.diff(f) == 0, np.nan, np.diff(f))
            finite = slopes[np.isfinite(slopes)]
            assert np.all(np.diff(finite) <= 1e-12)

    def test_crossing_curves_attribute_sources(self, sample10, riskb_dataset):
        curve_a = build_roc(sample10)
        curve_b = build_roc(riskb_dataset)
        hull = convex_hull([("metricA", curve_a), ("metricB", curve_b)])
        at_zero = [v for v in hull.vertices if v.fpr == 0.0 and v.tpr > 0]
        assert at_zero and at_zero[0].source_system == "metricB"
        assert hull.vertices[-1].source_system == "metricA"
        assert interp_tpr(hull.fpr, hull.tpr, 0.0) == 1 / 3

    def test_matches_exact_oracle_on_heavy_ties(self):
        rng = np.random.default_rng(2001)
        for _ in range(150):
            curves = heavy_tie_curves(rng, int(rng.integers(10, 50)))
            hull = convex_hull(curves)
            p, n = hull.p_count, hull.n_count
            counts = [(round(v.fpr * n), round(v.tpr * p)) for v in hull.vertices]
            # Every vertex sits exactly on its counts, the origin first.
            assert [(f / n, t / p) for f, t in counts] == [
                (v.fpr, v.tpr) for v in hull.vertices
            ]
            assert counts[0] == (0, 0) and counts[-1] == (n, p)
            # No middle vertex lies on the segment between its neighbours.
            for (f0, t0), (f1, t1), (f2, t2) in zip(counts, counts[1:], counts[2:]):
                assert (f1 - f0) * (t2 - t0) != (t1 - t0) * (f2 - f0)
            # Points, sources and thresholds all match the brute-force oracle.
            assert [
                (f, t, v.source_system, v.threshold)
                for (f, t), v in zip(counts, hull.vertices)
            ] == exact_hull(curves)

    def test_mismatched_ground_truth_rejected(self, sample10):
        other = make_dataset([1.0, 0.0], [True, False])
        with pytest.raises(GroundTruthMismatchError):
            convex_hull([("a", build_roc(sample10)), ("b", build_roc(other))])

    def test_duplicate_names_rejected(self, sample10):
        curve = build_roc(sample10)
        with pytest.raises(ValueError, match="duplicate"):
            convex_hull([("a", curve), ("a", curve)])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            convex_hull([])


def _spelled(hull):
    """Hull vertices with thresholds by repr, so 0.0 and -0.0 differ."""
    return [
        (v.fpr, v.tpr, v.source_system, repr(v.threshold), repr(v.threshold_raw))
        for v in hull.vertices
    ]


class TestHullAgainstReference:
    """``convex_hull`` merges only corners; the reference merges every vertex."""

    @staticmethod
    def _assert_same(curves):
        hull, reference = convex_hull(curves), reference_convex_hull(curves)
        assert _spelled(hull) == _spelled(reference)
        assert (hull.p_count, hull.n_count, hull.fingerprint) == (
            reference.p_count, reference.n_count, reference.fingerprint
        )

    def test_heavy_ties(self):
        rng = np.random.default_rng(2004)
        for _ in range(80):
            self._assert_same(heavy_tie_curves(rng, int(rng.integers(2, 400))))

    def test_signed_zeros_and_both_orientations(self):
        rng = np.random.default_rng(2005)
        levels = np.array([-0.0, 0.0, -1.0, 1.0, -2.5, 2.5, math.inf, -math.inf])
        for _ in range(80):
            size = int(rng.integers(2, 60))
            ids = [f"s{i:03d}" for i in range(size)]
            positive = rng.random(size) < 0.5
            positive[:2] = True, False
            curves = [
                (f"m{k}", build_roc(Dataset.from_columns(
                    ids, rng.choice(levels[: int(rng.integers(2, 7))], size=size), positive,
                    (Orientation.HIGHER_IS_BETTER, Orientation.HIGHER_IS_WORSE)[k % 2],
                )))
                for k in range(int(rng.integers(1, 5)))
            ]
            self._assert_same(curves)

    def test_curves_that_share_points(self):
        rng = np.random.default_rng(2006)
        for _ in range(60):
            (name, curve), *others = heavy_tie_curves(rng, int(rng.integers(4, 200)))
            ds = curve.dataset
            # The same scores under other names and orientations, and with
            # a few segments moved: most vertices are shared.
            moved = ds.raw_scores.copy()
            hit = rng.random(moved.size) < 0.1
            moved[hit] = rng.integers(0, 4, size=int(hit.sum()))
            flipped = Dataset.from_columns(
                ds.ids, -ds.raw_scores, ds.is_positive, Orientation.HIGHER_IS_BETTER
            )
            curves = [
                (name, curve),
                ("copy", build_roc(Dataset.from_columns(ds.ids, ds.raw_scores, ds.is_positive))),
                ("flipped", build_roc(flipped)),
                ("moved", build_roc(Dataset.from_columns(ds.ids, moved, ds.is_positive))),
                *others,
            ]
            self._assert_same(curves)
            self._assert_same(curves[::-1])

    def test_three_hundred_thousand_vertices_in_bounded_memory(self):
        rng = np.random.default_rng(2007)
        size = 100_000
        ids = [f"s{i:06d}" for i in range(size)]
        positive = rng.random(size) < 0.4
        curves = []
        for k in range(3):
            scores = rng.normal(size=size) + positive * (0.5 + 0.3 * k)
            curve = build_roc(Dataset.from_columns(ids, scores, positive))
            assert curve.fp.size == size + 1
            curve.fingerprint  # hashed before the measurement
            curves.append((f"m{k}", curve))
        hull, peak = traced_peak(convex_hull, curves)
        # Merging all five columns of every vertex peaked near 25 MB here.
        assert peak <= 8 * 2**20, peak
        assert _spelled(hull) == _spelled(reference_convex_hull(curves))


class TestStaircasePrefilter:
    """Hulls and picks with the staircase prefilter and with the full chain."""

    TRADE_OFFS = [TradeOff(float(a), float(b)) for a, b in
                  ((1, 1), (1, 10), (10, 1), (3, 7), (1, 1000), (1000, 1))]

    @staticmethod
    def _use_the_full_chain(monkeypatch):
        def chain(fp, tp):
            return np.array(monotone_chain(fp.tolist(), tp.tolist()), dtype=np.intp)

        monkeypatch.setattr(roc_module, "_upper_hull", chain)
        monkeypatch.setattr(decision_module, "_upper_hull", chain)

    def _hulls_and_picks(self, cases):
        return [
            (
                convex_hull(curves).vertices,
                [optimal_threshold(c, t) for _, c in curves for t in self.TRADE_OFFS],
            )
            for curves in cases
        ]

    def test_heavy_tie_multi_curve_inputs(self, monkeypatch):
        rng = np.random.default_rng(2002)
        cases = [heavy_tie_curves(rng, int(rng.integers(2, 400))) for _ in range(60)]
        filtered = self._hulls_and_picks(cases)
        self._use_the_full_chain(monkeypatch)
        assert filtered == self._hulls_and_picks(cases)

    def test_hundred_thousand_distinct_scores(self, monkeypatch):
        rng = np.random.default_rng(2003)
        positive = rng.random(100_000) < 0.45
        scores = rng.normal(size=100_000) + positive
        ids = [f"s{i:06d}" for i in range(100_000)]
        curve = build_roc(Dataset.from_columns(ids, scores, positive))
        assert curve.fp.size == 100_001
        hull = roc_module._upper_hull(curve.fp, curve.tp)
        assert hull.tolist() == monotone_chain(curve.fp.tolist(), curve.tp.tolist())
        filtered = self._hulls_and_picks([[("m", curve)]])
        self._use_the_full_chain(monkeypatch)
        assert filtered == self._hulls_and_picks([[("m", curve)]])


class TestPrPoints:
    def test_sample10_point_at_93(self, sample10):
        pts = pr_points(build_roc(sample10))
        (i,) = np.flatnonzero(pts.threshold == -93.0)
        assert_close(pts.recall[i], 1 / 3)
        assert_close(pts.precision[i], 2 / 3)

    def test_origin_vertex_skipped(self, sample10):
        pts = pr_points(build_roc(sample10))
        assert np.isfinite(pts.precision).all()
        assert np.isfinite(pts.threshold).all()
        assert len(pts.recall) == len(pts.precision) == len(pts.threshold) == 6

class TestRocVertexValidation:
    def test_rates_must_match_counts(self):
        with pytest.raises(ValueError, match="disagrees"):
            RocVertex(0.5, 0.5, 1.0, 1.0, ConfusionCounts(tp=2, fn=0, fp=1, tn=1))

    def test_unit_square_enforced(self):
        with pytest.raises(ValueError, match="unit square"):
            RocVertex(1.5, 0.5, 1.0, 1.0, ConfusionCounts(tp=1, fn=1, fp=1, tn=1))


# The dataset a hand-built curve names; these curves are rejected before it is read.
_DATASET = make_dataset([0.0, 1.0], [True, False])


def _curve(points, p=10, n=10):
    """Curve from (fpr, tpr, threshold) triples, counts rounded from the rates."""
    fpr, tpr, thr = (np.array(col, dtype=np.float64) for col in zip(*points))
    tp, fp = np.round(tpr * p).astype(np.int64), np.round(fpr * n).astype(np.int64)
    return RocCurve(thr, tp, fp, p, n, _DATASET, Orientation.HIGHER_IS_WORSE)


class TestRocCurveValidation:
    def test_must_start_at_origin(self):
        with pytest.raises(ValueError, match="start"):
            _curve([(0.1, 0.0, math.inf), (1.0, 1.0, 0.0)])

    def test_must_end_at_one_one(self):
        with pytest.raises(ValueError, match="end"):
            _curve([(0.0, 0.0, math.inf), (1.0, 0.9, 0.0)])

    def test_rejects_decreasing_tpr(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            _curve([(0.0, 0.0, math.inf), (0.5, 0.5, 1.0), (0.5, 0.4, 0.5), (1.0, 1.0, 0.0)])

    def test_rejects_decreasing_unsigned_counts(self):
        # np.diff wraps on unsigned arrays, so the step 2 -> 1 must be seen signed.
        with pytest.raises(ValueError, match="non-decreasing"):
            RocCurve(
                np.array([math.inf, 3.0, 2.0, 1.0]),
                np.array([0, 2, 1, 2], dtype=np.uint8),
                np.array([0, 0, 1, 2], dtype=np.uint8),
                2, 2, _DATASET,
            )

    def test_rejects_non_decreasing_thresholds(self):
        with pytest.raises(ValueError, match="strictly decrease"):
            _curve([(0.0, 0.0, math.inf), (0.5, 0.5, 1.0), (1.0, 1.0, 1.0)])

    def test_rejects_coincident_vertices(self):
        with pytest.raises(ValueError, match="coincident"):
            _curve([(0.0, 0.0, math.inf), (0.5, 0.5, 1.0), (0.5, 0.5, 0.5), (1.0, 1.0, 0.0)])

    def test_first_offending_pair_is_reported(self):
        # Pair 1 repeats a threshold, pair 2 steps tpr down: pair 1 is named.
        points = [(0.0, 0.0, math.inf), (0.5, 0.5, 1.0), (0.6, 0.6, 1.0),
                  (0.7, 0.5, 0.5), (1.0, 1.0, 0.0)]
        with pytest.raises(ValueError, match="strictly decrease"):
            _curve(points)

    def test_needs_two_vertices(self):
        with pytest.raises(ValueError, match="two endpoint"):
            RocCurve(np.array([math.inf]), np.array([0]), np.array([0]), 1, 1, _DATASET)

    def test_needs_both_classes(self):
        with pytest.raises(DegenerateClassError):
            RocCurve(np.array([math.inf, 0.0]), np.array([0, 0]), np.array([0, 3]), 0, 3, _DATASET)

    def test_counts_must_be_integers(self):
        with pytest.raises(ValueError, match="integer"):
            RocCurve(np.array([math.inf, 0.0]), np.array([0.0, 1.0]), np.array([0, 1]), 1, 1, _DATASET)

    def test_arrays_are_read_only(self, sample10):
        curve = build_roc(sample10)
        for column in (curve.thresholds, curve.tp, curve.fp, curve.fpr, curve.tpr):
            with pytest.raises(ValueError):
                column[0] = 1


class TestLazyVertices:
    def test_vertices_match_arrays(self, sample10):
        curve = build_roc(sample10)
        assert [
            (v.fpr, v.tpr, v.threshold, v.threshold_raw, v.counts.tp, v.counts.fp)
            for v in curve.vertices
        ] == list(zip(
            curve.fpr.tolist(), curve.tpr.tolist(), curve.thresholds.tolist(),
            curve.thresholds_raw.tolist(), curve.tp.tolist(), curve.fp.tolist(),
        ))
        assert all(type(v.counts.tp) is int for v in curve.vertices)
        assert curve.vertices is curve.vertices

    def test_rates_equal_python_int_division(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            ds = random_dataset(rng, max_size=60)
            curve = build_roc(ds)
            assert curve.fpr.tolist() == [fp / ds.n_count for fp in curve.fp.tolist()]
            assert curve.tpr.tolist() == [tp / ds.p_count for tp in curve.tp.tolist()]


def heavy_tie_curves(rng: np.random.Generator, size: int) -> list[tuple[str, RocCurve]]:
    """Three heavily tied integer scorers over one ground truth."""
    ids = [f"s{i:04d}" for i in range(size)]
    positive = np.zeros(size, dtype=bool)
    positive[: int(rng.integers(1, size))] = True
    rng.shuffle(positive)
    curves = []
    for k in range(3):
        levels = int(rng.integers(2, max(3, size // 3)))
        scores = rng.integers(0, levels, size=size) + positive * rng.integers(0, 2, size=size)
        curves.append((f"m{k}", build_roc(Dataset.from_columns(ids, scores.astype(float), positive))))
    return curves


def base_to_hw(dataset: Dataset) -> Dataset:
    """Rebuild a dataset as higher-worse so hulls can mix synthetic scorers."""
    return Dataset.from_segments(
        [
            ScoredSegment(s.segment_id, s.label, s.risk_score, s.risk_score)
            for s in segments_of(dataset)
        ]
    )


@pytest.fixture
def riskb_dataset(sample10_paths, riskb_path):
    from rocqe import STRICT_ANY_ERROR, parse_canonical_tsv, to_dataset

    records, _ = parse_canonical_tsv(sample10_paths[0], riskb_path, "riskb")
    return to_dataset(records, STRICT_ANY_ERROR, Orientation.HIGHER_IS_WORSE, "riskb")


def _read_polyline(fpr, tpr, q):
    """TPR at one fpr: top of a vertical there, else on the segment across it."""
    q = min(max(q, fpr[0]), fpr[-1])
    i = max(j for j, f in enumerate(fpr) if f <= q)  # top of the vertical at fpr[i]
    if fpr[i] == q:
        return tpr[i]
    j = i + 1  # bottom of the next vertical
    return tpr[i] + (q - fpr[i]) / (fpr[j] - fpr[i]) * (tpr[j] - tpr[i])

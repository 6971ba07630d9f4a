import math

import numpy as np
import pytest

from rocqe import (
    BootstrapConfig,
    ConfidenceBand,
    Dataset,
    DegenerateClassError,
    band_width_summary,
    build_roc,
    confidence_band,
    map_replicates,
    replicate_rng,
)
import rocqe.bootstrap as bootstrap_module
from rocqe.bootstrap import _first_at, _grid_tpr, _one_group, fpr_grid, nearest_rank
from rocqe.decision import (
    _needed_tp, _pick_largest_within_capacity, _pick_smallest_meeting_budget,
)
from rocqe.roc import auc, count_auc
from helpers import (
    compact,
    exact_auc,
    interp_tpr,
    make_dataset,
    reference_band,
    resample_arrays,
    tie_group_counts,
    traced_peak,
)


class TestBootstrapConfig:
    def test_defaults(self):
        cfg = BootstrapConfig()
        assert cfg.iterations == 1000
        assert cfg.confidence == 0.95
        assert cfg.seed == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"iterations": 1},
            {"confidence": 0.0},
            {"confidence": 1.0},
            {"seed": -1},
            {"seed": 2**64},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BootstrapConfig(**kwargs)

    def test_grid_tracks_negative_count(self):
        grid = fpr_grid(250)
        assert grid.size == 251
        assert grid[0] == 0.0 and grid[-1] == 1.0

    def test_grid_floors_at_hundred_intervals(self):
        assert fpr_grid(4).size == 101


class TestReplicateRng:
    def test_same_index_same_stream(self):
        a = replicate_rng(7, 3).integers(0, 1000, size=20)
        b = replicate_rng(7, 3).integers(0, 1000, size=20)
        assert np.array_equal(a, b)

    def test_different_index_different_stream(self):
        a = replicate_rng(7, 3).integers(0, 1000, size=20)
        b = replicate_rng(7, 4).integers(0, 1000, size=20)
        assert not np.array_equal(a, b)

    def test_different_seed_different_stream(self):
        a = replicate_rng(7, 3).integers(0, 1000, size=20)
        b = replicate_rng(8, 3).integers(0, 1000, size=20)
        assert not np.array_equal(a, b)


    @pytest.mark.parametrize(
        "seed, index, draws",
        [
            (0, 0, ([5, 3, 3, 1, 1, 0], [0, 0, 0, 3], [779, 1095, 604, 727, 1164])),
            (7, 199, ([2, 1, 4, 3, 2, 1], [0, 1, 0, 0], [740, 1102, 582, 440, 458])),
            (20260517, 3, ([1, 1, 3, 0, 0, 4], [2, 0, 3, 0], [850, 472, 148, 1180, 310])),
        ],
    )
    def test_draw_stream_is_pinned(self, seed, index, draws):
        """The first draws of three replicate substreams, frozen with numpy 2.4.6.

        Every bootstrap number in a report comes from this stream, and numpy
        does not promise ``Generator.integers`` across versions. When this
        test fails, the frozen report digests that draw replicates fail too,
        and the numpy version is the cause.
        """
        rng = replicate_rng(seed, index)
        got = [rng.integers(0, high, size=len(want)).tolist() for high, want in zip((6, 4, 1200), draws)]
        assert got == list(draws), f"numpy {np.__version__} draws another stream"

class TestResampling:
    def test_arrays_keep_stratum_sizes_and_values(self):
        rng = np.random.default_rng(1)
        pos = np.array([1.0, 2.0, 3.0])
        neg = np.array([-1.0, -2.0])
        rpos, rneg = resample_arrays(pos, neg, rng)
        assert rpos.size == 3 and rneg.size == 2
        assert set(rpos) <= set(pos) and set(rneg) <= set(neg)

    def test_positives_drawn_before_negatives(self):
        # Draw order is observable: the first stream draws pick the positives.
        pos = np.arange(5, dtype=float)
        neg = np.arange(3, dtype=float)
        rpos, _ = resample_arrays(pos, neg, replicate_rng(0, 0))
        expected = pos[replicate_rng(0, 0).integers(0, 5, size=5)]
        assert np.array_equal(rpos, expected)


def _with_origin(counts):
    return np.concatenate(([0], counts))


def _resampled_counts(pos, neg, seed, index):
    """Reference replicate: resample the scores, then sort and sweep them."""
    pos_sample, neg_sample = resample_arrays(pos, neg, replicate_rng(seed, index))
    is_positive = np.zeros(pos.size + neg.size, dtype=bool)
    is_positive[: pos.size] = True
    _, tp, fp = tie_group_counts(np.concatenate([pos_sample, neg_sample]), is_positive)
    return _with_origin(tp), _with_origin(fp)


def _counts_as_lists(tp, fp):
    return tp.tolist(), fp.tolist()


def _compacted_as_lists(tp, fp):
    return _counts_as_lists(*compact(tp, fp))


def _counts(tp, fp):
    return tp, fp


def _positives_first(pos, neg) -> Dataset:
    return make_dataset(np.concatenate([pos, neg]), np.arange(pos.size + neg.size) < pos.size)


class TestMapReplicates:
    def test_results_in_index_order(self, sample10):
        cfg = BootstrapConfig(iterations=16, seed=5)
        got = map_replicates(sample10, cfg, _compacted_as_lists)
        assert got == map_replicates(sample10, cfg, _compacted_as_lists)
        pos, neg = sample10.positive_risks, sample10.negative_risks
        expected = [
            _counts_as_lists(*_resampled_counts(pos, neg, 5, i)) for i in range(16)
        ]
        assert got == expected


KERNEL_KINDS = [
    "heavy_ties",
    "signed_zeros",
    "single_positive",
    "single_negative",
    "all_tied",
    "continuous",
]


def _kernel_case(kind, rng):
    """(positives, negatives) canonical risk arrays of one stress shape."""
    p = int(rng.integers(1, 25))
    n = int(rng.integers(1, 25))
    if kind == "heavy_ties":
        return rng.integers(0, 4, size=p) * 1.0, rng.integers(0, 4, size=n) * 1.0
    if kind == "signed_zeros":
        values = np.array([0.0, -0.0, 0.0, -0.0, 1.5, -1.5])
        return rng.choice(values, size=p), rng.choice(values, size=n)
    if kind == "single_positive":
        return rng.normal(size=1), rng.integers(0, 3, size=n).astype(float)
    if kind == "single_negative":
        return rng.integers(0, 3, size=p).astype(float), rng.normal(size=1)
    if kind == "all_tied":
        return np.full(p, 2.5), np.full(n, 2.5)
    return rng.normal(size=p), rng.normal(size=n)


class TestTieGroups:
    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    def test_counts_equal_a_sorted_sweep_of_the_resample(self, kind):
        # Replicates counted off the dataset's one ranking, never re-sorted.
        rng = np.random.default_rng(41)
        for seed in range(40):
            pos, neg = _kernel_case(kind, rng)
            config = BootstrapConfig(iterations=6, seed=seed)
            replicates = map_replicates(_positives_first(pos, neg), config, _counts)
            for index, counts in enumerate(replicates):
                tp, fp = compact(*counts)
                ref_tp, ref_fp = _resampled_counts(pos, neg, seed, index)
                assert tp.dtype == fp.dtype == ref_tp.dtype == np.int64
                assert np.array_equal(tp, ref_tp), (kind, seed, index)
                assert np.array_equal(fp, ref_fp), (kind, seed, index)
                assert (tp[-1], fp[-1]) == (pos.size, neg.size)


class TestPerGroupCounts:
    """A replicate's statistics read the same off its per-group and its compacted counts."""

    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    def test_statistics_match_the_compacted_counts(self, kind):
        rng = np.random.default_rng(97)
        degenerate = 0
        for seed in range(30):
            pos, neg = _kernel_case(kind, rng)
            ds = _positives_first(pos, neg)
            p, n = ds.p_count, ds.n_count
            grid = fpr_grid(n)
            first_at = _first_at(grid, n)
            config = BootstrapConfig(iterations=5, seed=seed)
            for tp, fp in map_replicates(ds, config, _counts):
                assert tp.size == fp.size == ds.ranking.thresholds.size
                small_tp, small_fp = compact(tp, fp)
                assert count_auc(tp, fp) == count_auc(small_tp, small_fp)
                assert _same_bits(
                    _grid_tpr(tp, fp, p, n, grid, first_at),
                    _grid_tpr(small_tp, small_fp, p, n, grid, first_at),
                )
                assert _one_group(tp, fp) == (small_fp.size == 2)
                degenerate += small_fp.size == 2
                # A pick may land on another index, but on the same vertex.
                flagged = (small_tp + small_fp).tolist()
                for capacity in sorted({*flagged, *(f - 1 for f in flagged[1:])}):
                    i = _pick_largest_within_capacity(tp, fp, capacity)
                    j = _pick_largest_within_capacity(small_tp, small_fp, capacity)
                    assert (tp[i], fp[i]) == (small_tp[j], small_fp[j]), (kind, seed, capacity)
                for efficacy in (1.0, 0.7):
                    residual = 100.0 * (p - efficacy * small_tp) / ds.total
                    targets = [*residual.tolist(), *np.nextafter(residual, -1.0).tolist()]
                    for y in targets:
                        needed = _needed_tp(p, ds.total, y, efficacy)
                        i, met = _pick_smallest_meeting_budget(tp, needed)
                        j, small_met = _pick_smallest_meeting_budget(small_tp, needed)
                        assert met == small_met
                        assert (tp[i], fp[i]) == (small_tp[j], small_fp[j]), (kind, y)
        if kind == "all_tied":
            assert degenerate == 30 * 5  # every resample is one tie group


class TestCurveArrays:
    def test_matches_build_roc_coordinates(self):
        # The ranking's own counts and group names are the sorted sweep's,
        # over shuffled members, and build_roc's, bit for bit.
        rng = np.random.default_rng(21)
        for kind in KERNEL_KINDS * 20:
            pos, neg = _kernel_case(kind, rng)
            risks = np.concatenate([pos, neg])
            labels = np.arange(risks.size) < pos.size
            shuffle = rng.permutation(risks.size)
            ds = make_dataset(risks[shuffle], labels[shuffle])
            ranking = ds.ranking
            tp, fp = ranking.counts(ranking.pos_group, ranking.neg_group)
            thresholds, ref_tp, ref_fp = tie_group_counts(ds.risk_scores, ds.is_positive)
            assert tp.dtype == fp.dtype == np.int64
            assert np.array_equal(tp, _with_origin(ref_tp))
            assert np.array_equal(fp, _with_origin(ref_fp))
            assert _same_bits(ranking.thresholds, np.concatenate(([math.inf], thresholds)))
            assert np.array_equal(ranking.thresholds[ranking.group], ds.risk_scores)
            assert np.array_equal(ranking.pos_group, ranking.group[ds.is_positive])
            assert np.array_equal(ranking.neg_group, ranking.group[~ds.is_positive])
            curve = build_roc(ds)
            assert _same_bits(curve.thresholds, ranking.thresholds)
            assert np.array_equal(tp, curve.tp) and tp.dtype == curve.tp.dtype
            assert np.array_equal(fp, curve.fp) and fp.dtype == curve.fp.dtype


def _scores(rng: np.random.Generator, kind: str, size: int) -> np.ndarray:
    if kind == "continuous":
        return rng.normal(size=size)
    if kind == "heavy ties":
        return rng.integers(0, 4, size=size).astype(float)
    if kind == "signed zeros":
        return rng.choice([0.0, -0.0, 1.0, -1.0], size=size)
    return np.full(size, 2.0)  # all tied: every replicate is degenerate


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestGridRead:
    """The count-indexed grid read against ``interp_tpr``, bit for bit."""

    KINDS = ("continuous", "heavy ties", "signed zeros", "all tied")

    def test_matches_interp_tpr_on_replicates_and_point_curve(self):
        rng = np.random.default_rng(91)
        reads = degenerate = 0
        for trial in range(48):
            kind = self.KINDS[trial % 4]
            p = 1 if trial % 3 == 0 else int(rng.integers(2, 40))
            n = (1, int(rng.integers(2, 100)), int(rng.integers(100, 400)))[trial % 3]
            ds = _positives_first(_scores(rng, kind, p), _scores(rng, kind, n))
            ranking = ds.ranking
            point = ranking.counts(ranking.pos_group, ranking.neg_group)
            config = BootstrapConfig(iterations=4, seed=trial)
            counts = [point] + map_replicates(ds, config, _counts)
            for intervals in (max(n, 100), 1, 7, n, 3 * n + 1):
                grid = np.linspace(0.0, 1.0, intervals + 1)
                first_at = _first_at(grid, n)
                for tp, fp in counts:
                    got = _grid_tpr(tp, fp, p, n, grid, first_at)
                    tp, fp = compact(tp, fp)
                    assert _same_bits(got, interp_tpr(fp / n, tp / p, grid)), (
                        kind, p, n, intervals,
                    )
                    # The band sorts columns of these rows: with no -0.0 in
                    # any row, every order statistic has one bit pattern.
                    assert not np.signbit(got).any()
                    reads += 1
                    degenerate += fp.size == 2
        assert reads == 48 * 5 * 5 and degenerate > 0

    def test_count_index_is_the_last_vertex_at_or_left(self):
        for n in (1, 3, 7, 100, 11079):
            grid = np.linspace(0.0, 1.0, 3 * n + 2)
            first_at = _first_at(grid, n)
            assert np.all(grid[first_at] >= np.arange(n + 1) / n)
            inner = first_at > 0
            assert np.all(grid[first_at[inner] - 1] < np.arange(n + 1)[inner] / n)
            # Per grid point, the largest count whose first point is at or left of it.
            fp_at = np.searchsorted(first_at, np.arange(grid.size), side="right") - 1
            assert np.all(fp_at / n <= grid)
            below = fp_at < n
            assert np.all((fp_at[below] + 1) / n > grid[below])
            assert fp_at[0] == 0 and fp_at[-1] == n


class TestBandMatchesInterpOracle:
    def test_non_aligned_custom_grid(self):
        # 100 intervals over N = 83 negatives: no inner grid point is a k/N.
        rng = np.random.default_rng(93)
        labels = np.arange(200) < 117
        risks = rng.integers(0, 40, size=200) / 8.0 + labels * rng.normal(size=200)
        ds = make_dataset(risks.tolist(), labels.tolist())
        assert ds.n_count == 83
        config = BootstrapConfig(iterations=60, seed=4)
        band, oracle = confidence_band(ds, config), reference_band(ds, config)
        assert band == oracle
        for got, want in ((band.lower_tpr, oracle.lower_tpr),
                          (band.upper_tpr, oracle.upper_tpr),
                          (band.point_tpr, oracle.point_tpr)):
            assert _same_bits(got, want)

    def test_heavy_ties_with_mixed_top_group(self):
        # The worst-scored tie group holds both classes, so the curve leaves
        # the origin on a slope and its first trapezoid is not empty.
        rng = np.random.default_rng(94)
        labels = rng.random(300) < 0.4
        risks = np.minimum(rng.integers(0, 4, size=300) + labels * rng.integers(0, 2, size=300), 3)
        ds = make_dataset(risks.astype(float).tolist(), labels.tolist())
        top = ds.risk_scores == ds.risk_scores.max()
        assert ds.is_positive[top].any() and not ds.is_positive[top].all()
        config = BootstrapConfig(iterations=40, seed=6)
        assert confidence_band(ds, config) == reference_band(ds, config)


def _kept_rows(iterations: int, confidence: float) -> int:
    """Rows the band's two nearest ranks read: the k_lo smallest, B - k_hi + 1 largest."""
    alpha = 1.0 - confidence
    k_lo = min(max(math.ceil(alpha / 2.0 * iterations), 1), iterations)
    k_hi = min(max(math.ceil((1.0 - alpha / 2.0) * iterations), 1), iterations)
    return k_lo + iterations - k_hi + 1


def _assert_same_band(band: ConfidenceBand, oracle: ConfidenceBand) -> None:
    assert band == oracle
    for got, want in ((band.fpr_grid, oracle.fpr_grid),
                      (band.lower_tpr, oracle.lower_tpr),
                      (band.upper_tpr, oracle.upper_tpr),
                      (band.point_tpr, oracle.point_tpr),
                      (np.array(band.auc_interval), np.array(oracle.auc_interval))):
        assert _same_bits(got, want)


class TestBoundedBuffer:
    """The folded buffer against the oracle that sorts every replicate row."""

    CHUNK = bootstrap_module._CHUNK_ROWS

    @pytest.fixture(scope="class")
    def tied(self) -> Dataset:
        rng = np.random.default_rng(95)
        labels = rng.random(70) < 0.45
        risks = rng.integers(0, 12, size=70) / 4.0 + labels * rng.integers(0, 3, size=70)
        return make_dataset(risks.tolist(), labels.tolist())

    @pytest.mark.parametrize("confidence", [0.5, 0.8, 0.95, 0.99])
    @pytest.mark.parametrize("iterations", [2, 3, 37, 200, 1000])
    def test_matches_the_full_sort(self, tied, iterations, confidence):
        config = BootstrapConfig(iterations=iterations, confidence=confidence, seed=11)
        _assert_same_band(confidence_band(tied, config), reference_band(tied, config))

    def _iterations_where(self, fresh_rows) -> int:
        """The smallest B >= 2 at 95% whose B - kept rows satisfy ``fresh_rows``."""
        return next(
            b for b in range(2, 10 * self.CHUNK) if fresh_rows(b - _kept_rows(b, 0.95))
        )

    @pytest.mark.parametrize(
        "case",
        ["chunk - 1", "chunk", "chunk + 1", "last fold of several has one fresh row"],
    )
    def test_buffer_boundaries_match_the_full_sort(self, tied, case):
        chunk = self.CHUNK
        fresh_rows = {
            "chunk - 1": lambda extra: extra == chunk - 1,
            "chunk": lambda extra: extra == chunk,
            "chunk + 1": lambda extra: extra == chunk + 1,
            "last fold of several has one fresh row": (
                lambda extra: extra > 2 * chunk and extra % chunk == 1
            ),
        }[case]
        iterations = self._iterations_where(fresh_rows)
        config = BootstrapConfig(iterations=iterations, seed=12)
        _assert_same_band(confidence_band(tied, config), reference_band(tied, config))

    def test_memory_stays_within_the_buffer(self):
        # N = 1000 negatives: 1001 grid points. B = 1000 at 95% keeps 26 + 26
        # rows plus the chunk; the full matrix would be 1000 rows.
        ds = _binormal(np.random.default_rng(97), 1000)
        ds.ranking  # built and cached before tracing
        config = BootstrapConfig(iterations=1000, seed=3)
        buffer_bytes = (_kept_rows(1000, 0.95) + self.CHUNK) * 1001 * 8
        _, peak = traced_peak(confidence_band, ds, config)
        assert peak < buffer_bytes + 2**19, (peak, buffer_bytes)
        assert peak < 1000 * 1001 * 8 / 2


class TestNearestRank:
    def test_small_vector(self):
        values = np.array([10.0, 20.0, 30.0, 40.0])
        assert nearest_rank(values, 0.025) == 10.0
        assert nearest_rank(values, 0.5) == 20.0
        assert nearest_rank(values, 0.975) == 40.0
        assert nearest_rank(values, 1.0) == 40.0

    def test_thousand_values_cut_at_25_and_975(self):
        values = np.arange(1.0, 1001.0)
        assert nearest_rank(values, 0.025) == 25.0
        assert nearest_rank(values, 0.975) == 975.0

    def test_matrix_selects_rows(self):
        matrix = np.sort(np.arange(12.0).reshape(4, 3), axis=0)
        assert np.array_equal(nearest_rank(matrix, 0.5), matrix[1])


class TestConfidenceBand:
    def test_identical_runs(self, sample10):
        cfg = BootstrapConfig(iterations=100, seed=13)
        assert confidence_band(sample10, cfg) == confidence_band(sample10, cfg)

    def test_seed_changes_band(self, sample10):
        a = confidence_band(sample10, BootstrapConfig(iterations=100, seed=13))
        b = confidence_band(sample10, BootstrapConfig(iterations=100, seed=14))
        assert a != b

    def test_perfect_separation_pins_band(self):
        ds = make_dataset([4.0, 3.0, 2.0, 1.0], [True, True, False, False])
        band = confidence_band(ds, BootstrapConfig(iterations=50, seed=1))
        assert band.auc_point == 1.0
        assert band.auc_interval == (1.0, 1.0)
        assert np.array_equal(band.lower_tpr, band.upper_tpr)
        assert np.array_equal(band.lower_tpr, band.point_tpr)
        summary = band_width_summary(band)
        assert summary.max_width == 0.0 and summary.mean_width == 0.0

    def test_band_contains_no_inversions_and_is_monotone(self, sample10):
        band = confidence_band(sample10, BootstrapConfig(iterations=200, seed=2))
        assert np.all(band.lower_tpr <= band.upper_tpr)
        assert np.all(np.diff(band.lower_tpr) >= 0)
        assert np.all(np.diff(band.upper_tpr) >= 0)
        assert np.all(np.diff(band.point_tpr) >= 0)

    def test_grid_spans_unit_interval(self, sample10):
        band = confidence_band(sample10, BootstrapConfig(iterations=10, seed=0))
        assert band.fpr_grid[0] == 0.0 and band.fpr_grid[-1] == 1.0
        assert band.fpr_grid.size == 101

    def test_wider_confidence_nests(self, sample10):
        narrow = confidence_band(sample10, BootstrapConfig(iterations=300, seed=3, confidence=0.9))
        wide = confidence_band(sample10, BootstrapConfig(iterations=300, seed=3, confidence=0.99))
        assert np.all(wide.lower_tpr <= narrow.lower_tpr)
        assert np.all(narrow.upper_tpr <= wide.upper_tpr)
        assert wide.auc_interval[0] <= narrow.auc_interval[0]
        assert narrow.auc_interval[1] <= wide.auc_interval[1]

    def test_point_curve_is_empirical_curve_on_grid(self, sample10):
        band = confidence_band(sample10, BootstrapConfig(iterations=10, seed=0))
        curve = build_roc(sample10)
        assert np.array_equal(band.point_tpr, interp_tpr(curve.fpr, curve.tpr, band.fpr_grid))
        assert band.auc_point == auc(curve) == float(exact_auc(curve.tp, curve.fp))

    def test_all_tied_scores_degenerate_every_replicate(self):
        ds = make_dataset([2.0] * 6, [True, False, True, False, True, False])
        band = confidence_band(ds, BootstrapConfig(iterations=40, seed=7))
        assert band.degenerate_replicates == 40
        assert np.allclose(band.lower_tpr, band.fpr_grid)
        assert np.allclose(band.upper_tpr, band.fpr_grid)
        assert band.auc_interval == (0.5, 0.5)

    def test_tiny_stratum_warns(self):
        ds = make_dataset([3.0, 1.0, 0.5], [True, False, False])
        with pytest.warns(UserWarning, match="stratum"):
            confidence_band(ds, BootstrapConfig(iterations=10, seed=0))

    def test_arrays_are_read_only(self, sample10):
        band = confidence_band(sample10, BootstrapConfig(iterations=10, seed=0))
        with pytest.raises(ValueError):
            band.lower_tpr[0] = 0.5

    def test_buffer_over_the_memory_limit_is_refused_before_allocating(
        self, sample10, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("the band buffer was allocated")

        monkeypatch.setattr(np, "empty", refuse)
        # 101 grid points: 60M replicates keep 1,500,001 + 1,500,001 rows plus
        # a chunk of fresh rows, about 2,312 MiB, above the 2 GiB limit.
        config = BootstrapConfig(iterations=60_000_000)
        with pytest.raises(ValueError) as info:
            confidence_band(sample10, config)
        rows = 3_000_002 + bootstrap_module._CHUNK_ROWS
        assert str(info.value) == (
            f"the confidence band needs an estimated {rows * 101 * 8 / 2**20:.0f} MB "
            f"({rows} rows of 60000000 replicates x 101 grid points), above the "
            "2048 MB limit; lower --bootstrap"
        )
        assert f"{rows * 101 * 8 / 2**20:.0f}" == "2312"

    @pytest.mark.parametrize(
        "iterations, rows", [(20, 20), (1000, 26 + 26 + bootstrap_module._CHUNK_ROWS)]
    )
    def test_buffer_at_the_memory_limit_is_allowed(
        self, sample10, monkeypatch, iterations, rows
    ):
        # Exactly at the limit passes the guard and reaches the allocation.
        # B = 1000 keeps 26 + 26 rows plus the chunk; 20 replicates fit in it.
        config = BootstrapConfig(iterations=iterations)
        monkeypatch.setattr(bootstrap_module, "MAX_BAND_MATRIX_BYTES", rows * 101 * 8)
        confidence_band(sample10, config)
        monkeypatch.setattr(bootstrap_module, "MAX_BAND_MATRIX_BYTES", rows * 101 * 8 - 1)
        with pytest.raises(ValueError, match="lower --bootstrap"):
            confidence_band(sample10, config)

    def test_degenerate_dataset_rejected(self):
        ds = make_dataset([1.0, 2.0], [True, True])
        with pytest.raises(DegenerateClassError):
            confidence_band(ds, BootstrapConfig(iterations=10, seed=0))


class TestBandValidation:
    def test_inverted_band_rejected(self):
        grid = np.linspace(0, 1, 3)
        with pytest.raises(ValueError, match="inverted"):
            ConfidenceBand(
                fpr_grid=grid,
                lower_tpr=np.array([0.0, 0.9, 1.0]),
                upper_tpr=np.array([0.0, 0.5, 1.0]),
                point_tpr=grid.copy(),
                auc_point=0.5,
                auc_interval=(0.4, 0.6),
                confidence=0.95,
                iterations=10,
                seed=0,
                degenerate_replicates=0,
            )

    def test_inverted_auc_interval_rejected(self):
        grid = np.linspace(0, 1, 3)
        with pytest.raises(ValueError, match="auc_interval"):
            ConfidenceBand(
                fpr_grid=grid,
                lower_tpr=grid.copy(),
                upper_tpr=grid.copy(),
                point_tpr=grid.copy(),
                auc_point=0.5,
                auc_interval=(0.6, 0.4),
                confidence=0.95,
                iterations=10,
                seed=0,
                degenerate_replicates=0,
            )


class TestWidthShrinksWithSampleSize:
    def test_quadrupling_roughly_halves_mean_width(self):
        # Binormal scores; quadrupling both strata should shrink the band
        # by about sqrt(4) = 2. Averaged over seeds to damp resample noise.
        ratios = []
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            small = _binormal(rng, 30)
            large = _binormal(rng, 120)
            cfg = lambda: BootstrapConfig(iterations=150, seed=seed)
            w_small = band_width_summary(confidence_band(small, cfg())).mean_width
            w_large = band_width_summary(confidence_band(large, cfg())).mean_width
            ratios.append(w_small / w_large)
        mean_ratio = float(np.mean(ratios))
        assert 1.5 <= mean_ratio <= 3.0, mean_ratio


def _binormal(rng: np.random.Generator, per_class: int) -> Dataset:
    pos = rng.normal(1.0, 1.0, size=per_class)
    neg = rng.normal(0.0, 1.0, size=per_class)
    risks = np.concatenate([pos, neg])
    labels = [True] * per_class + [False] * per_class
    return make_dataset([float(r) for r in risks], labels)

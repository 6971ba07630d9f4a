import math

import numpy as np
import pytest

from rocqe import (
    BootstrapConfig,
    ClassRatio,
    Dataset,
    DecisionReport,
    DegenerateClassError,
    Label,
    Orientation,
    QeRocTable,
    Scenario,
    ScoredSegment,
    TradeOff,
    build_roc,
    optimal_threshold,
    qe_roc_table,
    scenario1_residual_risk,
    scenario2_required_effort,
)
import rocqe.decision as decision_module
import rocqe.report as report_module
from rocqe.bootstrap import nearest_rank_interval
import helpers
from helpers import assert_close, make_dataset, random_dataset, traced_peak

# Golden table for the 10-segment example, worst score first. Ties share
# counts and order by segment id (string order, so "10" sorts before "8").
SAMPLE10_ROWS = [
    ("5", 25.0, 1, 5, 0, 4),
    ("9", 75.0, 1, 5, 1, 3),
    ("6", 93.0, 2, 4, 1, 3),
    ("1", 95.0, 3, 3, 3, 1),
    ("2", 95.0, 3, 3, 3, 1),
    ("4", 95.0, 3, 3, 3, 1),
    ("10", 99.0, 5, 1, 3, 1),
    ("8", 99.0, 5, 1, 3, 1),
    ("3", 100.0, 6, 0, 4, 0),
    ("7", 100.0, 6, 0, 4, 0),
]


def _table_rows(table):
    """(segment_id, raw_score, tp, fn, fp, tn) per data row, read off the columns."""
    tp, fp = table.tp, table.fp
    return list(zip(
        table.segment_ids.tolist(),
        table.raw_scores.tolist(),
        tp.tolist(),
        (table.p_count - tp).tolist(),
        fp.tolist(),
        (table.n_count - fp).tolist(),
    ))


class TestQeRocTable:
    def test_sample10_rows(self, sample10):
        table = qe_roc_table(sample10)
        assert _table_rows(table) == SAMPLE10_ROWS

    def test_sample10_rates(self, sample10):
        table = qe_roc_table(sample10)
        at = {sid: i for i, sid in enumerate(table.segment_ids.tolist())}
        tpr, fpr = table.tp / table.p_count, table.fp / table.n_count
        assert_close(tpr[at["5"]], 1 / 6)
        assert fpr[at["5"]] == 0.0
        assert_close(tpr[at["6"]], 1 / 3)
        assert fpr[at["6"]] == 0.25
        assert tpr[at["1"]] == 0.5
        assert fpr[at["1"]] == 0.75

    def test_tie_group_shares_counts(self, sample10):
        table = qe_roc_table(sample10)
        tied = [row for row in _table_rows(table) if row[1] == 95.0]
        assert len(tied) == 3
        assert len({row[2:] for row in tied}) == 1

    def test_ground_truth_column(self, sample10):
        table = qe_roc_table(sample10)
        truth = dict(zip(table.segment_ids.tolist(), table.is_positive.tolist()))
        assert truth["5"] is True
        assert truth["9"] is False

    def test_endpoints_for_higher_better(self, sample10):
        table = qe_roc_table(sample10)
        assert table.endpoints == (-math.inf, math.inf)
        lines = "".join(report_module.table_chunks(table)).splitlines()
        assert lines[1] == "-\t-\t-inf\t0\t6\t0\t4\t0.00\t0.00"
        assert lines[-1] == "-\t-\tinf\t6\t0\t4\t0\t1.00\t1.00"

    def test_endpoints_for_higher_worse(self):
        table = qe_roc_table(make_dataset([1.0, 0.0], [True, False]))
        assert table.endpoints == (math.inf, -math.inf)

    def test_minimal_dataset_two_rows(self):
        table = qe_roc_table(make_dataset([1.0, 0.0], [True, False]))
        assert list(zip(table.tp.tolist(), table.fp.tolist())) == [(1, 0), (1, 1)]

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateClassError):
            qe_roc_table(make_dataset([1.0, 2.0], [False, False]))

    def test_last_row_reaches_the_corner(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            ds = random_dataset(rng)
            table = qe_roc_table(ds)
            assert table.segment_ids.size == table.tp.size == ds.total
            assert (table.tp[-1] / ds.p_count, table.fp[-1] / ds.n_count) == (1.0, 1.0)

    def test_table_needs_rows_ending_in_the_corner(self, sample10):
        table = qe_roc_table(sample10)
        with pytest.raises(ValueError, match="at least one data row"):
            QeRocTable([], [], [], [], [], table.endpoints, 6, 4)
        with pytest.raises(ValueError, match="tpr = fpr = 1"):
            QeRocTable(["a"], [True], [1.0], [6], [3], table.endpoints, 6, 4)

    def test_degenerate_message(self):
        with pytest.raises(DegenerateClassError) as info:
            qe_roc_table(make_dataset([1.0, 2.0], [True, True]))
        assert str(info.value) == "no negative segments: the QE-ROC table is undefined"

    def test_id_sorted_rows_need_no_python_sort(self, monkeypatch):
        rng = np.random.default_rng(100_001)
        size = 100_000
        positive = rng.random(size) < 0.4
        # Two decimals: long tie groups, whose rows go out in id order.
        raw = (rng.normal(size=size) + positive).round(2)
        ids = np.array([f"s{i:06d}" for i in range(size)], dtype=object)
        ds = Dataset.from_columns(ids, raw, positive, Orientation.HIGHER_IS_BETTER)
        ds.ranking  # built before the measurement

        def refuse(*args, **kwargs):
            raise AssertionError("id-sorted rows were ordered by a Python sort")

        monkeypatch.setattr(decision_module, "sorted", refuse, raising=False)
        table, rise = traced_peak(qe_roc_table, ds)
        # A Python sort of the ids and a second copy of every column peaked
        # near 12.4 MB here.
        assert rise <= 6 * 2**20, rise
        monkeypatch.undo()
        # The same rows as the id sort gives the dataset in shuffled order.
        order = rng.permutation(size)
        shuffled = Dataset.from_columns(
            ids[order], raw[order], positive[order], Orientation.HIGHER_IS_BETTER
        )
        want = qe_roc_table(shuffled)
        for name in ("segment_ids", "is_positive", "raw_scores", "tp", "fp"):
            np.testing.assert_array_equal(getattr(table, name), getattr(want, name))
            assert not getattr(table, name).flags.writeable


def _shuffled_dataset(rng: np.random.Generator) -> Dataset:
    """Both classes, in shuffled order, with heavy ties, +-0.0, long runs or repeated ids."""
    size = int(rng.integers(2, 40))
    labels = rng.permutation(np.arange(size) < int(rng.integers(1, size)))
    kind = int(rng.integers(4))
    if kind == 0:
        raw = rng.integers(0, 4, size=size).astype(float)
    elif kind == 1:
        raw = rng.choice([0.0, -0.0, 1.5, -2.0], size=size)
    elif kind == 2:
        raw = rng.normal(size=size).round(2)
    else:
        # Long runs of one tie group and of repeated counts.
        runs = [size // 2, size // 4, size - size // 2 - size // 4]
        raw = np.repeat(rng.normal(size=3).round(1), runs)
    pool = size if rng.random() < 0.5 else max(size // 3, 1)
    ids = [f"id{int(i)}" for i in rng.integers(0, pool, size=size)]
    orientation = list(Orientation)[int(rng.integers(2))]
    segments = [
        ScoredSegment.from_raw(
            sid, Label.POSITIVE if pos else Label.NEGATIVE, float(x), orientation
        )
        for sid, pos, x in zip(ids, labels, raw)
    ]
    return Dataset.from_segments(segments, orientation)


class TestTableTextDifferential:
    @pytest.mark.parametrize("block", [None, 1, 2, 3, 7])
    def test_matches_row_by_row_formatting(self, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(report_module, "_ROWS_PER_BLOCK", block)
        rng = np.random.default_rng(413)
        for trial in range(200):
            ds = _shuffled_dataset(rng)
            got = "".join(report_module.table_chunks(qe_roc_table(ds)))
            assert got == helpers.table_tsv(ds), trial
            # Renamed to strictly increasing ids, as ``to_dataset`` leaves them.
            renamed = Dataset.from_columns(
                [f"r{i:02d}" for i in range(ds.total)], ds.raw_scores, ds.is_positive,
                ds.orientation,
            )
            got = "".join(report_module.table_chunks(qe_roc_table(renamed)))
            assert got == helpers.table_tsv(renamed), trial


class TestTradeOffParsing:
    def test_parse_reads_fn_for_fp_exchange_rate(self):
        t = TradeOff.parse("1:10")
        assert t.fn_unit_cost == 10.0
        assert t.fp_unit_cost == 1.0

    @pytest.mark.parametrize("bad", ["1", "1:2:3", "a:b", "0:5", "-1:5", "inf:2"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            TradeOff.parse(bad)

    def test_zero_cost_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            TradeOff(fn_unit_cost=0.0, fp_unit_cost=1.0)


class TestClassRatioParsing:
    def test_parse(self):
        r = ClassRatio.parse("1:5")
        assert (r.p, r.n) == (1.0, 5.0)

    @pytest.mark.parametrize("bad", ["1", "0:5", "nan:2"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            ClassRatio.parse(bad)


class TestScenario1:
    def test_thirty_percent_budget(self, sample10):
        report = scenario1_residual_risk(sample10, 0.3)
        assert report.scenario is Scenario.REVIEW_BUDGET
        assert report.threshold_raw == 93.0
        assert report.threshold_canonical == -93.0
        assert report.review_fraction == 0.3
        assert report.residual_fn_per_100 == 40.0

    def test_atomic_ties_leave_capacity_unused(self, sample10):
        # Half the sample fits 5 reviews, but the next tie group has 3
        # segments and would overflow, so the set stays at 3.
        report = scenario1_residual_risk(sample10, 0.5)
        assert report.threshold_raw == 93.0
        assert report.review_fraction == 0.3
        assert report.residual_fn_per_100 == 40.0

    def test_full_budget_reviews_everything(self, sample10):
        report = scenario1_residual_risk(sample10, 1.0)
        assert report.review_fraction == 1.0
        assert report.residual_fn_per_100 == 0.0
        assert report.threshold_raw == 100.0

    def test_budget_below_smallest_group_leaves_set_empty(self, sample10):
        report = scenario1_residual_risk(sample10, 0.05)
        assert report.review_fraction == 0.0
        assert report.residual_fn_per_100 == 60.0
        assert report.threshold_canonical == math.inf
        assert report.threshold_raw == -math.inf
        assert any("empty" in note for note in report.notes)

    def test_partial_review_efficacy(self, sample10):
        report = scenario1_residual_risk(sample10, 0.3, review_efficacy=0.5)
        assert report.residual_fn_per_100 == 50.0
        assert any("efficacy" in note for note in report.notes)

    @pytest.mark.parametrize("x", [0.0, -0.5, 1.2])
    def test_fraction_out_of_range_rejected(self, sample10, x):
        with pytest.raises(ValueError, match="fraction"):
            scenario1_residual_risk(sample10, x)

    @pytest.mark.parametrize("e", [0.0, -1.0, 1.5])
    def test_efficacy_out_of_range_rejected(self, sample10, e):
        with pytest.raises(ValueError, match="efficacy"):
            scenario1_residual_risk(sample10, 0.3, review_efficacy=e)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateClassError):
            scenario1_residual_risk(make_dataset([1.0, 2.0], [True, True]), 0.5)

    def test_budget_never_exceeded(self):
        rng = np.random.default_rng(32)
        for _ in range(300):
            ds = random_dataset(rng)
            x = float(rng.uniform(0.05, 1.0))
            report = scenario1_residual_risk(ds, x)
            flagged = round(report.review_fraction * ds.total)
            assert flagged <= math.floor(x * ds.total + 1e-9)
            assert report.review_fraction <= x

    def test_residual_never_increases_with_budget(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            ds = random_dataset(rng)
            xs = sorted(rng.uniform(0.05, 1.0, size=3))
            residuals = [
                scenario1_residual_risk(ds, float(x)).residual_fn_per_100 for x in xs
            ]
            assert all(a >= b - 1e-12 for a, b in zip(residuals, residuals[1:]))

    def test_replicate_ci(self, sample10):
        report = scenario1_residual_risk(
            sample10, 0.3, bootstrap=BootstrapConfig(iterations=200, seed=4)
        )
        lo, hi = report.ci
        assert 0.0 <= lo <= report.residual_fn_per_100 <= hi <= 100.0 or lo <= hi
        assert any("replicate" in note for note in report.notes)

    def test_band_ci(self, sample10):
        report = scenario1_residual_risk(
            sample10,
            0.3,
            bootstrap=BootstrapConfig(iterations=200, seed=4),
            ci_method="band",
        )
        lo, hi = report.ci
        assert 0.0 <= lo <= hi <= 100.0
        assert any("band" in note for note in report.notes)

    def test_unknown_ci_method_rejected(self, sample10):
        with pytest.raises(ValueError, match="ci_method"):
            scenario1_residual_risk(
                sample10,
                0.3,
                bootstrap=BootstrapConfig(iterations=10, seed=0),
                ci_method="exact",
            )

    def test_ci_is_deterministic(self, sample10):
        cfg = BootstrapConfig(iterations=100, seed=9)
        a = scenario1_residual_risk(sample10, 0.3, bootstrap=cfg)
        b = scenario1_residual_risk(sample10, 0.3, bootstrap=cfg)
        assert a.ci == b.ci


class TestScenario2:
    def test_ten_percent_tolerance(self, sample10):
        report = scenario2_required_effort(sample10, 10.0)
        assert report.scenario is Scenario.RISK_TARGET
        assert report.threshold_raw == 99.0
        assert report.review_fraction == 0.8
        assert report.residual_fn_per_100 == 10.0

    def test_zero_tolerance_reviews_everything(self, sample10):
        report = scenario2_required_effort(sample10, 0.0)
        assert report.review_fraction == 1.0
        assert report.residual_fn_per_100 == 0.0
        assert report.threshold_raw == 100.0

    def test_tolerance_already_met_by_empty_set(self, sample10):
        report = scenario2_required_effort(sample10, 100.0)
        assert report.review_fraction == 0.0
        assert report.residual_fn_per_100 == 60.0
        assert report.threshold_canonical == math.inf

    def test_intermediate_tolerance(self, sample10):
        report = scenario2_required_effort(sample10, 50.0)
        assert report.threshold_raw == 25.0
        assert report.review_fraction == 0.1
        assert report.residual_fn_per_100 == 50.0

    def test_unattainable_under_partial_efficacy(self, sample10):
        report = scenario2_required_effort(sample10, 10.0, review_efficacy=0.5)
        assert report.review_fraction == 1.0
        assert report.residual_fn_per_100 == 30.0
        assert any("unattainable" in note for note in report.notes)

    @pytest.mark.parametrize("y", [-1.0, 100.5])
    def test_tolerance_out_of_range_rejected(self, sample10, y):
        with pytest.raises(ValueError):
            scenario2_required_effort(sample10, y)

    def test_effort_never_increases_with_tolerance(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            ds = random_dataset(rng)
            ys = sorted(rng.uniform(0.0, 100.0, size=3))
            fractions = [
                scenario2_required_effort(ds, float(y)).review_fraction for y in ys
            ]
            assert all(a >= b - 1e-12 for a, b in zip(fractions, fractions[1:]))

    def test_agrees_with_scenario1(self):
        # The cheapest set meeting scenario 1's achieved residual never needs
        # more than scenario 1's budget, and it prints that same residual.
        rng = np.random.default_rng(35)
        for _ in range(100):
            ds = random_dataset(rng)
            x = float(rng.uniform(0.1, 1.0))
            first = scenario1_residual_risk(ds, x)
            second = scenario2_required_effort(ds, first.residual_fn_per_100)
            assert second.review_fraction <= first.review_fraction + 1e-12
            assert second.residual_fn_per_100 == first.residual_fn_per_100

    def test_replicate_ci_on_review_fraction(self, sample10):
        report = scenario2_required_effort(
            sample10, 10.0, bootstrap=BootstrapConfig(iterations=200, seed=4)
        )
        lo, hi = report.ci
        assert 0.0 <= lo <= hi <= 1.0
        assert any("review_fraction" in note for note in report.notes)


def _fraction_pick(tp, fp, total, x) -> int:
    """Brute force: the last vertex whose printed review fraction is <= x."""
    return max(i for i in range(len(tp)) if (tp[i] + fp[i]) / total <= x)


def _residual_pick(tp, p, total, y, efficacy) -> tuple[int, bool]:
    """Brute force: the first vertex whose printed residual per 100 is <= y."""
    for i, t in enumerate(tp):
        if 100.0 * (p - efficacy * t) / total <= y:
            return i, True
    return len(tp) - 1, False


def _around(values, low, high) -> list[float]:
    """Each value and its two float neighbours, kept within [low, high]."""
    near = {
        v for value in values
        for v in (value, math.nextafter(value, -math.inf), math.nextafter(value, math.inf))
    }
    return sorted(v for v in near if low <= v <= high)


class TestDecisionRule:
    """The scenarios decide on the numbers the report prints, with no slack."""

    def test_review_fraction_never_exceeds_a_typed_x(self):
        ds = make_dataset([3.0, 2.0, 1.0], [True, False, True])
        report = scenario1_residual_risk(ds, 0.3333333333)
        assert report.review_fraction == 0.0
        assert report.notes[0] == "review capacity: 0 of 3 segments"
        assert scenario1_residual_risk(ds, 1 / 3).review_fraction == 1 / 3

    def test_printed_residual_never_exceeds_a_typed_y(self):
        positive = np.arange(10_000) < 1_000
        ds = Dataset.from_columns(
            [f"s{i:05d}" for i in range(10_000)], np.arange(10_000, 0, -1.0), positive
        )
        report = scenario2_required_effort(ds, 9.99999999999)
        assert report.residual_fn_per_100 == 9.99
        assert report.review_fraction == 0.0001
        assert report.notes[0] == "error budget: 999.999999999 missed errors in 10000 segments"

    @pytest.mark.parametrize("efficacy", [1.0, 0.7, 1 / 3])
    def test_picks_match_a_brute_force_oracle(self, efficacy):
        rng = np.random.default_rng(36)
        config = BootstrapConfig(iterations=16, seed=3)
        for _ in range(20):
            ds = random_dataset(rng)
            total, p = ds.total, ds.p_count
            curve = ds.roc_curve
            tp, fp = curve.tp.tolist(), curve.fp.tolist()
            replicates = [
                (a.tolist(), b.tolist())
                for a, b in decision_module.map_replicates(ds, config, lambda a, b: (a, b))
            ]
            for x in _around([k / total for k in range(1, total + 1)], 5e-324, 1.0):
                report = scenario1_residual_risk(
                    ds, x, review_efficacy=efficacy, bootstrap=config
                )
                i = _fraction_pick(tp, fp, total, x)
                capacity = max(k for k in range(total + 1) if k / total <= x)
                assert report.notes[0] == f"review capacity: {capacity} of {total} segments"
                assert report.review_fraction == (tp[i] + fp[i]) / total <= x
                assert report.residual_fn_per_100 == 100.0 * (p - efficacy * tp[i]) / total
                values = []
                for r_tp, r_fp in replicates:
                    j = _fraction_pick(r_tp, r_fp, total, x)
                    assert decision_module._pick_largest_within_capacity(
                        np.array(r_tp), np.array(r_fp), capacity
                    ) == j
                    values.append(100.0 * (p - efficacy * r_tp[j]) / total)
                assert report.ci == nearest_rank_interval(np.sort(values), config.confidence)
            printed = [100.0 * (p - efficacy * t) / total for t in tp]
            for y in _around(printed, 0.0, 100.0):
                report = scenario2_required_effort(
                    ds, y, review_efficacy=efficacy, bootstrap=config
                )
                i, attained = _residual_pick(tp, p, total, y, efficacy)
                assert report.review_fraction == (tp[i] + fp[i]) / total
                assert report.residual_fn_per_100 == printed[i]
                assert attained == (printed[i] <= y)
                assert any("unattainable" in note for note in report.notes) == (not attained)
                values = []
                for r_tp, r_fp in replicates:
                    j, _ = _residual_pick(r_tp, p, total, y, efficacy)
                    needed = decision_module._needed_tp(p, total, y, efficacy)
                    assert decision_module._pick_smallest_meeting_budget(
                        np.array(r_tp), needed
                    )[0] == j
                    values.append((r_tp[j] + r_fp[j]) / total)
                assert report.ci == nearest_rank_interval(np.sort(values), config.confidence)


class TestThresholdNaming:
    def test_scenario_thresholds_are_curve_thresholds_bit_for_bit(self):
        # Groups mixing 0.0 and -0.0 in random order: a scenario names its
        # operating point exactly as the curve vertex with the same counts.
        rng = np.random.default_rng(58)
        orientations = (Orientation.HIGHER_IS_WORSE, Orientation.HIGHER_IS_BETTER)
        for trial in range(200):
            n = int(rng.integers(2, 30))
            labels = rng.permutation(np.arange(n) < rng.integers(1, n))
            risks = rng.choice([0.0, -0.0, 1.0, -1.0, 2.5], size=n)
            ds = make_dataset(risks, labels, orientations[trial % 2])
            curve = build_roc(ds)
            flagged = (curve.tp + curve.fp).tolist()
            reports = [scenario1_residual_risk(ds, x) for x in (0.1, 0.3, 0.5, 0.7, 1.0)]
            reports += [scenario2_required_effort(ds, y) for y in (0.0, 10.0, 30.0, 60.0)]
            for report in reports:
                k = flagged.index(round(report.review_fraction * ds.total))
                for got, want in (
                    (report.threshold_canonical, curve.thresholds[k]),
                    (report.threshold_raw, curve.thresholds_raw[k]),
                ):
                    assert got == want and np.signbit(got) == np.signbit(want), trial


class TestOptimalThreshold:
    def test_slope_half_picks_the_corner(self, sample10):
        report = optimal_threshold(
            build_roc(sample10), TradeOff.parse("1:10"), ClassRatio.parse("1:5")
        )
        assert report.scenario is Scenario.OPTIMAL_THRESHOLD
        assert report.threshold_raw == 100.0
        assert report.review_fraction == 1.0
        assert report.residual_fn_per_100 == 0.0
        assert any("m = 0.5" in note for note in report.notes)

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(36)
        for _ in range(200):
            ds = random_dataset(rng)
            curve = build_roc(ds)
            fn_cost = float(rng.uniform(0.5, 20.0))
            fp_cost = float(rng.uniform(0.5, 20.0))
            trade = TradeOff(fn_unit_cost=fn_cost, fp_unit_cost=fp_cost)
            report = optimal_threshold(curve, trade)
            # The exact maximiser; of tied maxima, the lowest-fpr vertex.
            best = helpers.exact_pick(curve, trade)
            assert curve.vertices[best].threshold == report.threshold_canonical

    @pytest.mark.parametrize(
        "trade_off, ratio",
        [
            ("1:10", "1:5"),
            ("1:1", None),
            ("3:7", None),
            ("0.3:0.7", "0.1:0.2"),
            ("1:3", "1:1"),
            ("2:1", "3:1"),
            ("1:1000", None),
            ("1000:1", "1:9"),
        ],
    )
    def test_matches_exact_oracle(self, trade_off, ratio):
        rng = np.random.default_rng(41)
        trade = TradeOff.parse(trade_off)
        class_ratio = ClassRatio.parse(ratio) if ratio else None
        for _ in range(300):
            curve = build_roc(random_dataset(rng, max_size=40, tie_fraction=0.8))
            report = optimal_threshold(curve, trade, class_ratio)
            best = helpers.exact_pick(curve, trade, class_ratio)
            assert report.threshold_canonical == curve.thresholds[best]
            flagged = int(curve.tp[best] + curve.fp[best])
            assert report.review_fraction == flagged / (curve.p_count + curve.n_count)

    def test_exact_tie_at_slope_half_goes_to_lower_fpr(self):
        # (10/12, 11/12) ties (1, 1) exactly at m = 0.5, though its float
        # objective rounds to 0.49999999999999994.
        ds = make_dataset([1.0] * 21 + [0.0] * 3, [True] * 11 + [False] * 10 + [True, False, False])
        curve = build_roc(ds)
        assert (curve.tpr[1], curve.fpr[1]) == (11 / 12, 10 / 12)
        assert curve.tpr[1] - 0.5 * curve.fpr[1] < 0.5
        report = optimal_threshold(curve, TradeOff.parse("1:10"), ClassRatio.parse("1:5"))
        assert report.threshold_canonical == 1.0
        assert report.review_fraction == 21 / 24

    @pytest.mark.parametrize(
        "trade_off, ratio",
        [
            # m overflows to inf: 0 * inf is nan in floats.
            (TradeOff(1.0, 1e200), ClassRatio(1.0, 1e200)),
            # m's denominator underflows to 0.
            (TradeOff(1e-200, 1.0), ClassRatio(1e-200, 1.0)),
        ],
    )
    def test_slope_beyond_float_range_is_picked_exactly(self, trade_off, ratio):
        ds = make_dataset([4.0, 3.0, 2.0, 1.0], [True, True, False, False])
        report = optimal_threshold(build_roc(ds), trade_off, ratio)
        assert report.threshold_canonical == 3.0
        assert report.review_fraction == 0.5
        assert report.notes == (
            "iso-performance slope m = inf",
            "objective tpr - m*fpr = 1.0 at (fpr=0.0, tpr=1.0)",
        )

    def test_scaling_costs_changes_nothing(self, sample10):
        curve = build_roc(sample10)
        a = optimal_threshold(curve, TradeOff(3.0, 1.5))
        b = optimal_threshold(curve, TradeOff(6.0, 3.0))
        assert a.threshold_canonical == b.threshold_canonical

    def test_scaling_ratio_changes_nothing(self, sample10):
        curve = build_roc(sample10)
        t = TradeOff(2.0, 1.0)
        a = optimal_threshold(curve, t, ClassRatio(2.0, 3.0))
        b = optimal_threshold(curve, t, ClassRatio(4.0, 6.0))
        assert a.threshold_canonical == b.threshold_canonical

    def test_ratio_defaults_to_curve_counts(self, sample10):
        curve = build_roc(sample10)
        t = TradeOff(1.0, 1.0)
        implicit = optimal_threshold(curve, t)
        explicit = optimal_threshold(curve, t, ClassRatio(6.0, 4.0))
        assert implicit.threshold_canonical == explicit.threshold_canonical

    def test_all_tied_curve_resolves_to_flag_nothing(self):
        ds = make_dataset([1.0] * 4, [True, False, True, False])
        report = optimal_threshold(build_roc(ds), TradeOff(1.0, 1.0))
        # Objectives tie at 0; the lower-fpr vertex wins, so nothing is flagged.
        assert report.threshold_canonical == math.inf
        assert report.review_fraction == 0.0

    def test_extreme_fn_cost_flags_everything(self, sample10):
        report = optimal_threshold(build_roc(sample10), TradeOff(1000.0, 1.0))
        assert report.review_fraction == 1.0

    def test_extreme_fp_cost_flags_only_sure_errors(self, sample10):
        report = optimal_threshold(build_roc(sample10), TradeOff(1.0, 1000.0))
        assert report.threshold_raw == 25.0
        assert report.review_fraction == 0.1


class TestDecisionReportValidation:
    def test_fraction_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="review_fraction"):
            DecisionReport(Scenario.REVIEW_BUDGET, 1.0, 1.0, 1.5, 10.0)

    def test_residual_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="residual"):
            DecisionReport(Scenario.REVIEW_BUDGET, 1.0, 1.0, 0.5, 150.0)

    def test_inverted_ci_rejected(self):
        with pytest.raises(ValueError, match="ci"):
            DecisionReport(Scenario.REVIEW_BUDGET, 1.0, 1.0, 0.5, 10.0, ci=(5.0, 1.0))

"""End-to-end acceptance checks, one test per shipped guarantee.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per guarantee. The WMT23 benchmark check needs the public mt-metrics-eval
score data on disk; point ROCQE_WMT_DATA at its root (the directory holding
``wmt23/``) or it is skipped.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from rocqe import (
    STRICT_ANY_ERROR,
    BootstrapConfig,
    ClassRatio,
    Dataset,
    Label,
    Orientation,
    ScoredSegment,
    TradeOff,
    band_width_summary,
    build_roc,
    check_band,
    check_sample,
    confidence_band,
    optimal_threshold,
    parse_wmt_layout,
    qe_roc_table,
    scenario1_residual_risk,
    scenario2_required_effort,
    to_dataset,
)
from rocqe.bootstrap import ConfidenceBand
from rocqe.cli import main
from rocqe.roc import auc, convex_hull, rates
from helpers import (
    exact_pick, interp_tpr, make_dataset, pairwise_auc, random_dataset, scored_segments,
    segments_of,
)

TABLE_ARGS = [
    "table",
    "--gold", "tests/fixtures/sample10.gold.tsv",
    "--scores", "metric=tests/fixtures/sample10.scores.tsv",
    "--orientation", "metric=higher-better",
]

# Per-segment expectations for the 10-segment fixture:
# id -> (tp, fn, fp, tn, tpr, fpr), rates rendered at 2 decimals.
SEGMENT_TABLE = {
    "5": (1, 5, 0, 4, "0.17", "0.00"),
    "9": (1, 5, 1, 3, "0.17", "0.25"),
    "6": (2, 4, 1, 3, "0.33", "0.25"),
    "1": (3, 3, 3, 1, "0.50", "0.75"),
    "2": (3, 3, 3, 1, "0.50", "0.75"),
    "4": (3, 3, 3, 1, "0.50", "0.75"),
    "10": (5, 1, 3, 1, "0.83", "0.75"),
    "8": (5, 1, 3, 1, "0.83", "0.75"),
    "3": (6, 0, 4, 0, "1.00", "1.00"),
    "7": (6, 0, 4, 0, "1.00", "1.00"),
}

# Published AUC point estimates and 95% CI half-widths for the public WMT23
# evaluation, strict any-error cutoff, merged MQM gold. Keyed by language
# pair -> translation system -> QE metric -> (auc, half_width).
WMT23_EXPECTED = {
    "zh-en": {
        "Lan-BridgeMT": {
            "MetricX-23-QE": (0.721, 0.032),
            "CometKiwi": (0.657, 0.033),
            "prismSrc": (0.618, 0.035),
            "Random-sysname": (0.494, 0.036),
        },
        "ONLINE-A": {
            "MetricX-23-QE": (0.812, 0.030),
            "CometKiwi": (0.775, 0.034),
            "prismSrc": (0.703, 0.042),
            "Random-sysname": (0.528, 0.041),
        },
        "ANVITA": {
            "MetricX-23-QE": (0.813, 0.034),
            "CometKiwi": (0.794, 0.034),
            "prismSrc": (0.744, 0.044),
            "Random-sysname": (0.536, 0.044),
        },
    },
    "en-de": {
        "GPT4-5shot": {
            "GEMBA-MQM": (0.690, 0.041),
            "CometKiwi": (0.715, 0.050),
            "prismSrc": (0.641, 0.055),
            "Random-sysname": (0.495, 0.054),
        },
        "Lan-BridgeMT": {
            "GEMBA-MQM": (0.801, 0.046),
            "CometKiwi": (0.750, 0.057),
            "prismSrc": (0.660, 0.062),
            "Random-sysname": (0.526, 0.064),
        },
        "AIRC": {
            "GEMBA-MQM": (0.833, 0.061),
            "CometKiwi": (0.808, 0.064),
            "prismSrc": (0.719, 0.064),
            "Random-sysname": (0.515, 0.076),
        },
    },
}

# Score direction of each public metric: error predictors rise with worse
# translations, quality predictors fall.
WMT23_ORIENTATION = {
    "MetricX-23-QE": Orientation.HIGHER_IS_WORSE,
    "GEMBA-MQM": Orientation.HIGHER_IS_BETTER,
    "CometKiwi": Orientation.HIGHER_IS_BETTER,
    "prismSrc": Orientation.HIGHER_IS_BETTER,
    "Random-sysname": Orientation.HIGHER_IS_BETTER,
}


def test_segment_table_golden_values(capsys):
    started = time.perf_counter()
    code = main(TABLE_ARGS)
    out, _ = capsys.readouterr()
    assert code == 0
    rows = {}
    for line in out.strip().split("\n")[1:]:
        sid, _, _, tp, fn, fp, tn, tpr, fpr = line.split("\t")
        if sid != "-":
            rows[sid] = (int(tp), int(fn), int(fp), int(tn), tpr, fpr)
    assert rows == SEGMENT_TABLE
    assert time.perf_counter() - started < 1.0


def test_auc_equals_pairwise_oracle(sample10):
    started = time.perf_counter()
    fixture_auc = auc(build_roc(sample10))
    assert abs(fixture_auc - 11.5 / 24) <= 1e-9
    assert abs(fixture_auc - 0.479167) <= 5e-7
    assert fixture_auc == pairwise_auc(sample10)
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        ds = random_dataset(rng, max_size=30)
        assert auc(build_roc(ds)) == pairwise_auc(ds)
    assert time.perf_counter() - started < 10.0


def _wmt_data_root():
    candidates = []
    env = os.environ.get("ROCQE_WMT_DATA")
    if env:
        candidates.append(env)
    home = os.path.expanduser("~")
    candidates.append(os.path.join(home, ".mt-metrics-eval", "mt-metrics-eval-v2"))
    candidates.append(os.path.join(home, ".mt-metrics-eval"))
    for root in candidates:
        if os.path.isdir(os.path.join(root, "wmt23", "human-scores")):
            return root
    return None


def _resolve_metric_stem(root, language_pair, metric):
    scores_dir = os.path.join(root, "wmt23", "metric-scores", language_pair)
    for stem in (metric, f"{metric}-src"):
        if os.path.exists(os.path.join(scores_dir, f"{stem}.seg.score")):
            return stem
    return None


def test_wmt23_public_benchmark_reproduction():
    root = _wmt_data_root()
    if root is None:
        pytest.skip(
            "public WMT23 score data not found; set ROCQE_WMT_DATA to its root"
        )
    started = time.perf_counter()
    for language_pair, by_system in WMT23_EXPECTED.items():
        for system, by_metric in by_system.items():
            computed = {}
            for metric, (expected_auc, expected_half) in by_metric.items():
                stem = _resolve_metric_stem(root, language_pair, metric)
                if stem is None:
                    pytest.skip(
                        f"score file for {metric} ({language_pair}) missing "
                        "from the local WMT23 data"
                    )
                records, _ = parse_wmt_layout(
                    root, language_pair, "wmt23", system, stem
                )
                ds = to_dataset(
                    records, STRICT_ANY_ERROR, WMT23_ORIENTATION[metric], stem
                )
                point = auc(build_roc(ds))
                computed[metric] = point
                assert abs(point - expected_auc) <= 0.01, (
                    f"{language_pair}/{system}/{metric}: "
                    f"auc {point:.4f} vs published {expected_auc}"
                )
                band = confidence_band(
                    ds, BootstrapConfig(iterations=1000, seed=0)
                )
                half = (band.auc_interval[1] - band.auc_interval[0]) / 2.0
                assert abs(half - expected_half) <= 0.01, (
                    f"{language_pair}/{system}/{metric}: "
                    f"half-width {half:.4f} vs published {expected_half}"
                )
            published_order = sorted(
                by_metric, key=lambda m: by_metric[m][0], reverse=True
            )
            computed_order = sorted(computed, key=computed.get, reverse=True)
            assert computed_order == published_order, (
                f"{language_pair}/{system}: ordering {computed_order} "
                f"vs published {published_order}"
            )
    assert time.perf_counter() - started < 300.0


def test_review_scenario_answers(sample10):
    budget = scenario1_residual_risk(sample10, 0.30)
    assert budget.threshold_raw == 93.0
    assert budget.residual_fn_per_100 == 40.0
    target = scenario2_required_effort(sample10, 10.0)
    assert target.review_fraction == 0.80
    assert target.threshold_raw == 99.0


def test_iso_performance_slope_selection(sample10):
    trade = TradeOff.parse("1:10")
    ratio = ClassRatio.parse("1:5")
    slope = (trade.fp_unit_cost * ratio.n) / (trade.fn_unit_cost * ratio.p)
    assert slope == 0.5

    rng = np.random.default_rng(77)
    datasets = [sample10] + [random_dataset(rng) for _ in range(100)]
    for ds in datasets:
        curve = build_roc(ds)
        report = optimal_threshold(curve, trade, ratio)
        # The exact maximiser; of tied maxima, the lowest-fpr vertex.
        chosen = curve.vertices[exact_pick(curve, trade, ratio)]
        assert chosen.threshold == report.threshold_canonical


def test_bootstrap_determinism_and_perfect_separation(sample10):
    config = BootstrapConfig(iterations=300, seed=42)
    first = confidence_band(sample10, config)
    second = confidence_band(sample10, config)
    assert first == second

    separated = make_dataset(
        [5.0, 4.0, 3.0, 2.0, 1.0, 0.0], [True, True, True, False, False, False]
    )
    band = confidence_band(separated, BootstrapConfig(iterations=100, seed=0))
    assert band.auc_interval == (1.0, 1.0)
    summary = band_width_summary(band)
    assert summary.max_width == 0.0 and summary.mean_width == 0.0


def test_auc_interval_coverage_on_random_scores():
    started = time.perf_counter()
    covered = 0
    for trial in range(100):
        rng = np.random.default_rng(5000 + trial)
        scores = rng.normal(size=1000)
        segments = [
            ScoredSegment(
                f"s{i:04d}",
                Label.POSITIVE if i < 500 else Label.NEGATIVE,
                float(scores[i]),
                float(scores[i]),
            )
            for i in range(1000)
        ]
        ds = Dataset.from_segments(segments)
        band = confidence_band(ds, BootstrapConfig(iterations=1000, seed=trial))
        if band.auc_interval[0] <= 0.5 <= band.auc_interval[1]:
            covered += 1
    assert covered >= 90, f"95% interval covered the true AUC in {covered}/100 trials"
    assert time.perf_counter() - started < 120.0


def test_geometry_and_decision_properties():
    started = time.perf_counter()
    rng = np.random.default_rng(31337)

    for _ in range(500):
        ds = random_dataset(rng)
        curve = build_roc(ds)

        # Staircase monotonicity and exact rate complement at every vertex.
        assert np.all(np.diff(curve.fpr) >= 0)
        assert np.all(np.diff(curve.tpr) >= 0)
        for v in curve.vertices:
            r = rates(v.counts)
            assert r.fnr + r.tpr == 1.0

        # Replicating the negatives never moves the curve.
        k = int(rng.integers(2, 4))
        clones = [
            ScoredSegment(f"c{j}-{s.segment_id}", s.label, s.raw_score, s.risk_score)
            for j in range(k - 1)
            for s in segments_of(ds)
            if s.label is Label.NEGATIVE
        ]
        duplicated = build_roc(
            Dataset.from_segments(scored_segments(ds) + clones, ds.orientation)
        )
        assert [(v.fpr, v.tpr, v.threshold) for v in curve.vertices] == [
            (v.fpr, v.tpr, v.threshold) for v in duplicated.vertices
        ]
        assert auc(curve) == auc(duplicated)

        # Strictly increasing transforms never move the operating points.
        transformed = build_roc(
            Dataset.from_segments(
                [
                    ScoredSegment(
                        s.segment_id,
                        s.label,
                        2.0 * s.risk_score + 1.0,
                        2.0 * s.risk_score + 1.0,
                    )
                    for s in segments_of(ds)
                ]
            )
        )
        assert [(v.fpr, v.tpr) for v in curve.vertices] == [
            (v.fpr, v.tpr) for v in transformed.vertices
        ]
        assert auc(curve) == auc(transformed)

        # The combined envelope dominates each member curve.
        rival = Dataset.from_segments(
            [
                ScoredSegment(s.segment_id, s.label, float(x), float(x))
                for s, x in zip(segments_of(ds), rng.normal(size=ds.total))
            ]
        )
        base_dataset = Dataset.from_segments(
            [
                ScoredSegment(s.segment_id, s.label, s.risk_score, s.risk_score)
                for s in segments_of(ds)
            ]
        )
        base, rival_curve = build_roc(base_dataset), build_roc(rival)
        hull = convex_hull([("a", base_dataset), ("b", rival)])
        grid = np.linspace(0.0, 1.0, 21)
        hull_t = np.asarray(interp_tpr(hull.fpr, hull.tpr, grid))
        for member in (base, rival_curve):
            assert np.all(hull_t >= np.asarray(interp_tpr(member.fpr, member.tpr, grid)) - 1e-12)

        # More budget never hurts; looser risk targets never cost more.
        x_lo, x_hi = sorted(rng.uniform(0.05, 1.0, size=2))
        assert (
            scenario1_residual_risk(ds, float(x_hi)).residual_fn_per_100
            <= scenario1_residual_risk(ds, float(x_lo)).residual_fn_per_100 + 1e-12
        )
        y_lo, y_hi = sorted(rng.uniform(0.0, 100.0, size=2))
        assert (
            scenario2_required_effort(ds, float(y_hi)).review_fraction
            <= scenario2_required_effort(ds, float(y_lo)).review_fraction + 1e-12
        )

    assert time.perf_counter() - started < 30.0


def test_diagnostic_trigger_boundaries():
    just_below = make_dataset(
        [float(i) for i in range(109)], [True] * 49 + [False] * 60
    )
    assert "MIN_CLASS_BELOW_50" in [f.code for f in check_sample(just_below)]

    at_minimum = make_dataset(
        [float(i) for i in range(110)], [True] * 50 + [False] * 60
    )
    assert "MIN_CLASS_BELOW_50" not in [f.code for f in check_sample(at_minimum)]

    grid = np.linspace(0.0, 1.0, 5)
    wide = ConfidenceBand(
        fpr_grid=grid,
        lower_tpr=np.array([0.0, 0.2, 0.3, 0.4, 1.0]),
        upper_tpr=np.array([0.0, 0.8, 0.7, 0.9, 1.0]),
        point_tpr=grid.copy(),
        auc_point=0.5,
        auc_interval=(0.4, 0.6),
        confidence=0.95,
        iterations=10,
        seed=0,
        degenerate_replicates=0,
    )
    assert [f.code for f in check_band(wide)] == ["BAND_TOO_WIDE"]

"""Command-line interface: ingest, label, analyze, report, plot.

Subcommands: roc (curves, AUC, bands), table (per-segment TSV), scenario
(review-policy decisions), hull (multi-metric envelope), diagnose (validity
checks). All machine output is deterministic: identical inputs and flags
produce byte-identical reports and SVGs.

Exit codes: 0 success, 2 input or output error, 3 degenerate data, 4 config error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

# No rocqe command calls a BLAS routine, but the OpenBLAS that numpy bundles
# starts a worker thread per extra CPU when numpy loads, and those workers
# spin on the CPU while they wait for work that never comes. One thread keeps
# a short CLI run from paying for them; no result depends on it. A value the
# user set wins, and a program that imported numpy first keeps its pool.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__
from .bootstrap import (
    BootstrapConfig, ConfidenceBand, band_width_summary, check_confidence, confidence_band,
)
from .decision import (
    ClassRatio,
    TradeOff,
    check_review_efficacy,
    check_review_fraction,
    check_tolerable_errors,
    optimal_threshold,
    qe_roc_table,
    scenario1_residual_risk,
    scenario2_required_effort,
)
from .diagnostics import REPRESENTATIVENESS_NOTE, check_band, check_sample
from .groundtruth import LENIENT, STRICT_ANY_ERROR, SeverityCutoff
from .ingest import (
    IngestError,
    IngestReport,
    parse_canonical_tsv,
    parse_wmt_layout,
    to_dataset,
)
from .model import (
    Dataset,
    DegenerateClassError,
    NonFiniteScoreError,
    Orientation,
)
from .report import (
    Deferred, JsonTexts, OutputError, Rows, check_outputs, emit, fields_of, json_chunks,
    table_chunks,
)
from .roc import GroundTruthMismatchError, RocCurve, auc, build_roc, convex_hull, pr_points
from .svgplot import SvgSeries, render_roc_svg

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports flag problems with the config exit code."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(4)


def _parse_cutoff(text: str) -> SeverityCutoff:
    if text == "strict":
        return STRICT_ANY_ERROR
    if text == "lenient":
        return LENIENT
    if text.startswith("custom:"):
        parts = text.split(":")
        if len(parts) == 2:
            return SeverityCutoff.custom(float(parts[1]))
        if len(parts) == 3 and parts[2] == "inclusive":
            return SeverityCutoff.custom(float(parts[1]), inclusive=True)
    raise ValueError(
        f"unknown cutoff {text!r}; use strict, lenient, or custom:<t>[:inclusive]"
    )


def _parse_assignments(entries: Sequence[str], flag: str) -> dict[str, str]:
    """Parse repeated `name=value` flags into an ordered dict."""
    out: dict[str, str] = {}
    for entry in entries:
        name, sep, value = entry.partition("=")
        if not sep or not name or not value:
            raise ValueError(f"{flag} entries must look like name=value, got {entry!r}")
        if name in out:
            raise ValueError(f"duplicate {flag} entry for {name!r}")
        out[name] = value
    return out


def _resolve_seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("ROCQE_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"ROCQE_SEED must be an integer, got {env!r}") from None
    return 0


def _bootstrap_config(args: argparse.Namespace, seed: int) -> Optional[BootstrapConfig]:
    """The resampling config, or None without --bootstrap; every flag is checked either way."""
    config = None
    if args.bootstrap is None:
        check_confidence(args.confidence)
    else:
        config = BootstrapConfig(iterations=args.bootstrap, confidence=args.confidence, seed=seed)
    if args.workers < 1:
        raise ValueError(f"workers must be >= 1, got {args.workers}")
    return config


@dataclass
class LoadedInputs:
    metrics: list[str]
    datasets: dict[str, Dataset]
    ingest_reports: dict[str, IngestReport]
    orientations: dict[str, Orientation]
    cutoff: SeverityCutoff
    notes: list[str]


def _load(args: argparse.Namespace) -> LoadedInputs:
    """Resolve config, parse inputs, and label everything."""
    cutoff = _parse_cutoff(args.cutoff)
    wmt_mode = args.wmt_root is not None
    if wmt_mode:
        needed = {"lang_pair": args.lang_pair, "testset": args.testset, "system": args.system}
        missing = [k for k, v in needed.items() if v is None]
        if missing:
            raise ValueError(
                "--wmt-root needs --lang-pair, --testset and --system"
            )
        if args.gold is not None:
            raise ValueError("--gold does not apply in --wmt-root mode")
        if any("=" in s for s in args.scores):
            raise ValueError(
                "in --wmt-root mode, --scores entries are bare metric names"
            )
        score_map = {}
        for name in args.scores:
            if name in score_map:
                raise ValueError(f"duplicate --scores entry for {name!r}")
            score_map[name] = name
    else:
        if args.gold is None:
            raise ValueError("--gold is required (or use --wmt-root)")
        score_map = _parse_assignments(args.scores, "--scores")
    if not score_map:
        raise ValueError("at least one --scores entry is required")

    orientation_text = _parse_assignments(args.orientation, "--orientation")
    unknown = sorted(set(orientation_text) - set(score_map))
    if unknown:
        raise ValueError(f"--orientation names unknown metrics: {unknown}")
    orientations = {
        metric: Orientation.parse(orientation_text.get(metric, "higher-worse"))
        for metric in score_map
    }

    datasets: dict[str, Dataset] = {}
    reports: dict[str, IngestReport] = {}
    # The first parse reads the gold file and keeps its columns here; the
    # others take them from here.
    gold_reads: dict = {}
    for metric, source in score_map.items():
        if wmt_mode:
            records, report = parse_wmt_layout(
                args.wmt_root, args.lang_pair, args.testset, args.system, metric,
                gold_reads=gold_reads,
            )
        else:
            records, report = parse_canonical_tsv(
                args.gold, source, metric, strict=args.strict, gold_reads=gold_reads
            )
        reports[metric] = report
        datasets[metric] = to_dataset(records, cutoff, orientations[metric], metric)
    return LoadedInputs(
        metrics=list(score_map),
        datasets=datasets,
        ingest_reports=reports,
        orientations=orientations,
        cutoff=cutoff,
        notes=[],
    )


def _restrict_to_common_ids(loaded: LoadedInputs) -> None:
    """Re-join datasets onto the ids every metric scored (hull needs one ground truth)."""
    first, *others = (loaded.datasets[metric].ids for metric in loaded.metrics)
    if all(np.array_equal(ids, first) for ids in others):
        return  # every id is shared, and nothing is dropped
    common = set.intersection(*(set(ds.ids.tolist()) for ds in loaded.datasets.values()))
    if not common:
        raise IngestError("no segment ids are shared by every metric")
    for metric in loaded.metrics:
        ds = loaded.datasets[metric]
        kept = np.fromiter(map(common.__contains__, ds.ids.tolist()), bool, ds.total)
        dropped = ds.total - int(kept.sum())
        if dropped:
            loaded.notes.append(
                f"{metric}: {dropped} segments without "
                "scores from every metric were dropped for comparability"
            )
            loaded.datasets[metric] = Dataset.from_columns(
                ds.ids[kept], ds.raw_scores[kept], ds.is_positive[kept], ds.orientation
            )


def _report_json(command: str, args: argparse.Namespace, loaded: LoadedInputs,
                 seed: Optional[int], results: dict, findings: dict) -> Iterator[str]:
    config = {
        "command": command,
        "cutoff": loaded.cutoff.describe(),
        "orientation": {m: o.value for m, o in loaded.orientations.items()},
        "seed": seed,
        "bootstrap": args.bootstrap,
        "confidence": args.confidence,
        "gold": args.gold,
        "scores": list(args.scores),
        "wmt": (
            {
                "root": args.wmt_root,
                "lang_pair": args.lang_pair,
                "testset": args.testset,
                "system": args.system,
            }
            if args.wmt_root
            else None
        ),
    }
    document = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "rocqe", "version": __version__},
        "config": config,
        "ingest": loaded.ingest_reports,
        "diagnostics": {
            "note": REPRESENTATIVENESS_NOTE,
            "findings": findings,
        },
        "notes": list(loaded.notes),
        "results": results,
    }
    return json_chunks(document)


def _vertex_rows(curve: RocCurve, thresholds: JsonTexts, tpr) -> Rows:
    """One row per vertex; ``thresholds`` are the curve's threshold texts.

    ``tpr`` is ``curve.tpr`` or its ``JsonTexts``.
    """
    return Rows(
        fpr=curve.fpr,
        tpr=tpr,
        threshold=thresholds,
        threshold_raw=thresholds.view(
            negated=curve.orientation is Orientation.HIGHER_IS_BETTER
        ),
        tp=curve.tp,
        fn=curve.p_count - curve.tp,
        fp=curve.fp,
        tn=curve.n_count - curve.fp,
    )


def _pr_rows(curve: RocCurve, thresholds: JsonTexts, tpr: JsonTexts) -> Rows:
    """One row per PR point, from the curve's vertex texts.

    Every vertex but the origin flags a segment, so the PR points are
    vertices 1..V: their thresholds are the vertex thresholds and their
    recall is the vertex ``tpr``, both read from vertex 1 on.
    """
    return Rows(
        recall=tpr.view(offset=1),
        precision=pr_points(curve).precision,
        threshold=thresholds.view(offset=1),
    )


def _roc_entry(curve: RocCurve, band: Optional[ConfidenceBand]) -> dict:
    """One metric's ``roc`` report entry."""
    thresholds, tpr = JsonTexts.spell(curve.thresholds), JsonTexts.spell(curve.tpr)
    return {
        "auc": auc(curve),
        "vertices": _vertex_rows(curve, thresholds, tpr),
        "pr_points": _pr_rows(curve, thresholds, tpr),
        "band": (
            {**fields_of(band), **fields_of(band_width_summary(band))} if band is not None else None
        ),
    }


def _hull_entry(curve: RocCurve) -> dict:
    """One metric's ``hull`` report entry."""
    vertices = _vertex_rows(curve, JsonTexts.spell(curve.thresholds), curve.tpr)
    return {"auc": auc(curve), "vertices": vertices}


# roc and hull compute every curve, band and hull first, and check both
# output paths, so all that can fail has run before the first byte goes
# out (a write can still fail midway). Then they write the SVG, and
# then the report, whose metric entries are built one at a time as the
# encoder reaches them: no two metrics' texts, nor the SVG's and the
# report's, are alive at once.


def cmd_roc(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    config = _bootstrap_config(args, seed)
    loaded = _load(args)

    findings: dict = {}
    series = []
    for metric in loaded.metrics:
        dataset = loaded.datasets[metric]
        curve = build_roc(dataset)
        metric_findings = check_sample(dataset)
        band = None
        if config is not None:
            band = confidence_band(dataset, config)
            metric_findings.extend(check_band(band))
        findings[metric] = metric_findings
        series.append(SvgSeries(metric, curve, band))

    check_outputs(args.svg, args.out)
    if args.svg:
        emit([render_roc_svg(series)], args.svg)
    results = {"metrics": {s.name: Deferred(_roc_entry, s.curve, s.band) for s in series}}
    emit(_report_json("roc", args, loaded, seed, results, findings), args.out)
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    if len(args.scores) != 1:
        raise ValueError("the table command takes exactly one --scores metric")
    loaded = _load(args)
    metric = loaded.metrics[0]
    table = qe_roc_table(loaded.datasets[metric])
    emit(table_chunks(table), args.out)
    return 0


def cmd_scenario(args: argparse.Namespace) -> int:
    if len(args.scores) != 1:
        raise ValueError("the scenario command takes exactly one --scores metric")
    if args.scenario == 1:
        if args.x is None:
            raise ValueError("scenario 1 needs --x (review fraction in (0, 1])")
        check_review_fraction(args.x)
    else:
        if args.y is None:
            raise ValueError("scenario 2 needs --y (tolerable errors per 100)")
        check_tolerable_errors(args.y)
    check_review_efficacy(args.review_efficacy)
    if args.class_ratio is not None and args.trade_off is None:
        raise ValueError("--class-ratio requires --trade-off")
    trade_off = TradeOff.parse(args.trade_off) if args.trade_off is not None else None
    ratio = ClassRatio.parse(args.class_ratio) if args.class_ratio else None
    seed = _resolve_seed(args)
    config = _bootstrap_config(args, seed)
    loaded = _load(args)
    metric = loaded.metrics[0]
    dataset = loaded.datasets[metric]

    if args.scenario == 1:
        report = scenario1_residual_risk(
            dataset,
            args.x,
            review_efficacy=args.review_efficacy,
            bootstrap=config,
            ci_method=args.ci_method,
        )
    else:
        report = scenario2_required_effort(
            dataset,
            args.y,
            review_efficacy=args.review_efficacy,
            bootstrap=config,
        )

    results: dict = {"metric": metric, "decision": report}
    if trade_off is not None:
        results["optimal"] = optimal_threshold(dataset.roc_curve, trade_off, ratio)

    findings = {metric: check_sample(dataset)}
    emit(_report_json("scenario", args, loaded, seed, results, findings), args.out)
    return 0


def cmd_hull(args: argparse.Namespace) -> int:
    if len(args.scores) < 2:
        raise ValueError("the hull command needs at least two --scores metrics")
    seed = _resolve_seed(args)
    _bootstrap_config(args, seed)  # the report's config records these flags
    loaded = _load(args)
    _restrict_to_common_ids(loaded)

    curves = [(m, build_roc(loaded.datasets[m])) for m in loaded.metrics]
    hull = convex_hull(curves)
    findings = {m: check_sample(loaded.datasets[m]) for m in loaded.metrics}
    check_outputs(args.svg, args.out)
    if args.svg:
        series = [SvgSeries(m, c) for m, c in curves]
        emit([render_roc_svg(series, hull=hull)], args.svg)

    results = {
        "hull": {"vertices": hull.vertices},
        "metrics": {m: Deferred(_hull_entry, c) for m, c in curves},
    }
    emit(_report_json("hull", args, loaded, seed, results, findings), args.out)
    return 0


def cmd_diagnose(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    config = _bootstrap_config(args, seed)
    loaded = _load(args)

    results: dict = {"metrics": {}}
    findings: dict = {}
    for metric in loaded.metrics:
        dataset = loaded.datasets[metric]
        metric_findings = check_sample(dataset)
        entry: dict = {
            "p_count": dataset.p_count,
            "n_count": dataset.n_count,
            "total": dataset.total,
        }
        degenerate = dataset.p_count == 0 or dataset.n_count == 0
        if config is not None and not degenerate:
            band = confidence_band(dataset, config)
            metric_findings.extend(check_band(band))
            width = band_width_summary(band)
            entry["band"] = {
                "max_width": width.max_width,
                "mean_width": width.mean_width,
                "degenerate_replicates": band.degenerate_replicates,
                "auc_point": band.auc_point,
                "auc_interval": band.auc_interval,
            }
        results["metrics"][metric] = entry
        findings[metric] = metric_findings

    emit(_report_json("diagnose", args, loaded, seed, results, findings), args.out)
    return 0


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--gold", help="gold TSV: segment_id<TAB>mqm_score")
    parser.add_argument(
        "--scores",
        action="append",
        default=[],
        metavar="METRIC=PATH",
        help="score TSV per metric (bare metric name in --wmt-root mode); repeatable",
    )
    parser.add_argument(
        "--orientation",
        action="append",
        default=[],
        metavar="METRIC=DIR",
        help="higher-better or higher-worse per metric (default: higher-worse)",
    )
    parser.add_argument(
        "--cutoff",
        default="strict",
        help="strict, lenient, or custom:<t>[:inclusive] (default: strict)",
    )
    parser.add_argument("--strict", action="store_true", help="malformed input lines are fatal")
    parser.add_argument("--bootstrap", type=int, default=None, metavar="B",
                        help="bootstrap iterations (band/CI computed when set)")
    parser.add_argument("--confidence", type=float, default=0.95)
    parser.add_argument("--seed", type=int, default=None,
                        help="RNG seed (fallback: ROCQE_SEED env var, then 0)")
    parser.add_argument("--workers", type=int, default=1,
                        help="has no effect; kept for compatibility (must be >= 1)")
    parser.add_argument("--out", default=None, help="report path (default: stdout)")
    parser.add_argument("--svg", default=None, help="SVG plot path")
    parser.add_argument("--wmt-root", default=None, help="root of a WMT-style score tree")
    parser.add_argument("--lang-pair", default=None)
    parser.add_argument("--testset", default=None)
    parser.add_argument("--system", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rocqe",
        description="Tie-aware ROC analysis and review-policy decisions for "
        "translation quality-estimation scores.",
    )
    parser.add_argument("--version", action="version", version=f"rocqe {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    roc = sub.add_parser("roc", help="curves, AUC, optional confidence bands")
    _add_common_flags(roc)
    roc.set_defaults(func=cmd_roc)

    table = sub.add_parser("table", help="per-segment QE-ROC table as TSV")
    _add_common_flags(table)
    table.set_defaults(func=cmd_table)

    scenario = sub.add_parser("scenario", help="review-policy decision analyses")
    _add_common_flags(scenario)
    scenario.add_argument("--scenario", type=int, choices=(1, 2), required=True)
    scenario.add_argument("--x", type=float, default=None,
                          help="scenario 1: reviewable fraction of segments, in (0, 1]")
    scenario.add_argument("--y", type=float, default=None,
                          help="scenario 2: tolerable missed errors per 100 segments")
    scenario.add_argument("--trade-off", default=None, metavar="A:B",
                          help="a missed errors cost as much as b false alarms")
    scenario.add_argument("--class-ratio", default=None, metavar="P:N",
                          help="assumed error:clean ratio (default: observed)")
    scenario.add_argument("--review-efficacy", type=float, default=1.0,
                          help="fraction of reviewed errors actually fixed, in (0, 1]")
    scenario.add_argument("--ci-method", choices=("replicate", "band"),
                          default="replicate")
    scenario.set_defaults(func=cmd_scenario)

    hull = sub.add_parser("hull", help="combined envelope over several metrics")
    _add_common_flags(hull)
    hull.set_defaults(func=cmd_hull)

    diagnose = sub.add_parser("diagnose", help="sample and band validity checks")
    _add_common_flags(diagnose)
    diagnose.set_defaults(func=cmd_diagnose)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (IngestError, OSError, NonFiniteScoreError, GroundTruthMismatchError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    except DegenerateClassError as exc:
        print(f"degenerate data: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

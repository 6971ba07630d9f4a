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
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from . import __version__


def _library() -> dict:
    """Import numpy and the rocqe modules the commands use, and return the imported names.

    Nothing at module top imports them, so ``--version``, ``--help`` and a
    flag that argparse refuses are answered from the standard library alone.
    ``main`` binds these names as module globals once the flags are parsed,
    and ``__getattr__`` binds them the first time outside code reads one.
    """
    # No rocqe command calls a BLAS routine, but the OpenBLAS that numpy bundles
    # starts a worker thread per extra CPU when numpy loads, and those workers
    # spin on the CPU while they wait for work that never comes. One thread keeps
    # a short CLI run from paying for them; no result depends on it. A value the
    # user set wins, and a program that imported numpy first keeps its pool.
    if "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

    import numpy as np

    from .bootstrap import (
        BootstrapConfig, ConfidenceBand, band_width_summary, check_confidence, check_seed,
        confidence_band,
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
        _merge,
        parse_canonical_tsv,
        parse_wmt_layout,
        to_dataset,
        wmt_files,
    )
    from .model import (
        Dataset,
        DegenerateClassError,
        NonFiniteScoreError,
        Orientation,
    )
    from .report import (
        Deferred, DerivedColumn, JsonTexts, OutputError, Rows, check_outputs, emit, fields_of,
        json_chunks, rate, table_chunks,
    )
    from .roc import GroundTruthMismatchError, RocCurve, auc, build_roc, convex_hull, pr_points
    from .svgplot import SvgSeries, render_roc_svg
    return locals()


def _bind_library() -> None:
    """Make the library names module globals; a name already set (a wrapper) wins."""
    for name, value in _library().items():
        globals().setdefault(name, value)


def __getattr__(name: str):
    """Bind the library names the first time outside code reads one (PEP 562).

    Any other name loads nothing. That includes every dunder: the import
    system probes for ``__path__`` on ``from rocqe.cli import main``.
    """
    if name in _library.__code__.co_varnames:
        _bind_library()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports flag problems with the config exit code."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(4)


class _CommandParser(_Parser):
    """A subcommand's parser: it refuses an argument it does not take with its own usage.

    Left to argparse, such an argument reaches the top-level parser, which
    shows the usage of ``rocqe`` instead of the command's flags.
    """

    def parse_known_args(self, args=None, namespace=None):
        parsed, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return parsed, extras


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


def _resampling(args: argparse.Namespace) -> tuple[int, Optional[BootstrapConfig]]:
    """The seed, and the resampling config or None without --bootstrap.

    The seed is --seed, then the ``ROCQE_SEED`` environment variable, then
    0. Every resampling flag is checked, with --bootstrap or without.
    """
    seed = args.seed
    if seed is None:
        env = os.environ.get("ROCQE_SEED", "0")
        try:
            seed = int(env)
        except ValueError:
            raise ValueError(f"ROCQE_SEED must be an integer, got {env!r}") from None
    check_confidence(args.confidence)
    check_seed(seed)
    if args.workers < 1:
        raise ValueError(f"workers must be >= 1, got {args.workers}")
    if args.bootstrap is None:
        return seed, None
    return seed, BootstrapConfig(iterations=args.bootstrap, confidence=args.confidence, seed=seed)


class LoadedInputs(NamedTuple):
    metrics: list[str]
    datasets: dict[str, Dataset]
    ingest_reports: dict[str, IngestReport]
    orientations: dict[str, Orientation]
    cutoff: SeverityCutoff
    notes: list[str]
    inputs: tuple[str, ...]  # every file the run read; no output may name one


def _load(args: argparse.Namespace) -> LoadedInputs:
    """Resolve config, parse inputs, and label everything."""
    cutoff = _parse_cutoff(args.cutoff)
    wmt_mode = args.wmt_root is not None
    if wmt_mode:
        if any("=" in s for s in args.scores):
            raise ValueError("in --wmt-root mode, --scores entries are bare metric names")
        score_map = {}
        for name in args.scores:
            if name in score_map:
                raise ValueError(f"duplicate --scores entry for {name!r}")
            score_map[name] = name
    else:
        score_map = _parse_assignments(args.scores, "--scores")

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
    inputs: list[str] = []
    for metric, source in score_map.items():
        if wmt_mode:
            records, report = parse_wmt_layout(
                args.wmt_root, args.lang_pair, args.testset, args.system, metric,
                gold_reads=gold_reads,
            )
            inputs.extend(wmt_files(args.wmt_root, args.lang_pair, args.testset, metric))
        else:
            records, report = parse_canonical_tsv(
                args.gold, source, metric, strict=args.strict, gold_reads=gold_reads
            )
            inputs.extend((args.gold, source))
        reports[metric] = report
        datasets[metric] = to_dataset(records, cutoff, orientations[metric], metric)
    return LoadedInputs(metrics=list(score_map), datasets=datasets, ingest_reports=reports,
                        orientations=orientations, cutoff=cutoff, notes=[], inputs=tuple(inputs))


def _restrict_to_common_ids(loaded: LoadedInputs) -> None:
    """Re-join datasets onto the ids every metric scored (hull needs one ground truth)."""
    columns = [loaded.datasets[metric].ids for metric in loaded.metrics]
    if all(ids is columns[0] or np.array_equal(ids, columns[0]) for ids in columns[1:]):
        return  # every id is shared, and nothing is dropped
    ids, slots = _merge(columns)
    common = np.logical_and.reduce([np.bincount(s, minlength=ids.size) > 0 for s in slots])
    if not common.any():
        raise IngestError("no segment ids are shared by every metric")
    for metric, s in zip(loaded.metrics, slots):
        ds = loaded.datasets[metric]
        kept = common[s]
        dropped = ds.total - int(kept.sum())
        if dropped:
            loaded.notes.append(
                f"{metric}: {dropped} segments without "
                "scores from every metric were dropped for comparability"
            )
            loaded.datasets[metric] = Dataset(
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
        "wmt": {"root": args.wmt_root, "lang_pair": args.lang_pair, "testset": args.testset,
                "system": args.system} if args.wmt_root else None,
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

    ``tpr`` is ``rate(curve.tp, P)`` or its texts; the rest is derived a block at a time.
    """
    p, n = curve.p_count, curve.n_count
    return Rows(
        fpr=rate(curve.fp, n),
        tpr=tpr,
        threshold=thresholds,
        threshold_raw=thresholds.view(negated=curve.orientation.negates),
        tp=curve.tp,
        fn=DerivedColumn(lambda tp: p - tp, curve.tp),
        fp=curve.fp,
        tn=DerivedColumn(lambda fp: n - fp, curve.fp),
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
    """One metric's ``roc`` report entry; its PR rows are built when written."""
    tpr = rate(curve.tp, curve.p_count)
    thresholds, tpr = JsonTexts.spell(curve.thresholds), JsonTexts.spell(tpr)
    return {
        "auc": auc(curve),
        "vertices": _vertex_rows(curve, thresholds, tpr),
        "pr_points": Deferred(_pr_rows, curve, thresholds, tpr),
        "band": (
            {**fields_of(band), **fields_of(band_width_summary(band))} if band is not None else None
        ),
    }


def _hull_entry(curve: RocCurve) -> dict:
    """One metric's ``hull`` report entry."""
    vertices = _vertex_rows(curve, JsonTexts.spell(curve.thresholds), rate(curve.tp, curve.p_count))
    return {"auc": auc(curve), "vertices": vertices}


def _roc_series(metric: str, dataset: Dataset,
                config: Optional[BootstrapConfig]) -> tuple[SvgSeries, list]:
    """One metric's curve and band, and its findings: all ``roc`` keeps of its dataset."""
    curve = build_roc(dataset)
    findings = check_sample(dataset)
    band = None
    if config is not None:
        band = confidence_band(dataset, config)
        findings.extend(check_band(band))
    return SvgSeries(metric, curve, band), findings


def _svg(series: list[SvgSeries], hull=None) -> Iterator[str]:
    """The plot, rendered only when ``_write`` reaches it."""
    yield render_roc_svg(series, hull=hull)


# A command handler checks its values, reads its inputs and computes all
# its results. It returns (the files it read, the report's chunks, and the
# SVG's, for a command that takes --svg) for ``_write``. So all that can fail
# has run before the first byte goes out (a write can still fail midway).
# The report's metric entries are built one at a time as the encoder reaches
# them: no two metrics' texts, nor the SVG's and the report's, are alive at once.


def cmd_roc(args: argparse.Namespace):
    seed, config = _resampling(args)
    loaded = _load(args)

    findings: dict = {}
    series = []
    for metric in loaded.metrics:
        # Taken out of ``loaded``, each dataset is freed once its metric is computed,
        # so the outputs are written while no per-segment column is alive.
        item, findings[metric] = _roc_series(metric, loaded.datasets.pop(metric), config)
        series.append(item)

    results = {"metrics": {s.name: Deferred(_roc_entry, s.curve, s.band) for s in series}}
    return loaded.inputs, _report_json("roc", args, loaded, seed, results, findings), _svg(series)


def cmd_table(args: argparse.Namespace):
    loaded = _load(args)
    return loaded.inputs, table_chunks(qe_roc_table(loaded.datasets[loaded.metrics[0]]))


def cmd_scenario(args: argparse.Namespace):
    if args.scenario == 1:
        check_review_fraction(args.x)
    else:
        check_tolerable_errors(args.y)
    check_review_efficacy(args.review_efficacy)
    trade_off = TradeOff.parse(args.trade_off) if args.trade_off is not None else None
    ratio = ClassRatio.parse(args.class_ratio) if args.class_ratio else None
    seed, config = _resampling(args)
    loaded = _load(args)
    metric = loaded.metrics[0]
    dataset = loaded.datasets[metric]

    if args.scenario == 1:
        report = scenario1_residual_risk(dataset, args.x, review_efficacy=args.review_efficacy,
                                         bootstrap=config, ci_method=args.ci_method or "replicate")
    else:
        report = scenario2_required_effort(dataset, args.y, review_efficacy=args.review_efficacy,
                                           bootstrap=config)

    results: dict = {"metric": metric, "decision": report}
    if trade_off is not None:
        results["optimal"] = optimal_threshold(RocCurve(dataset), trade_off, ratio)

    findings = {metric: check_sample(dataset)}
    return loaded.inputs, _report_json("scenario", args, loaded, seed, results, findings)


def cmd_hull(args: argparse.Namespace):
    seed, _ = _resampling(args)  # the report records the seed; --workers is checked
    loaded = _load(args)
    _restrict_to_common_ids(loaded)

    curves = [(m, build_roc(loaded.datasets[m])) for m in loaded.metrics]
    hull = convex_hull([(m, loaded.datasets[m]) for m in loaded.metrics])
    findings = {m: check_sample(loaded.datasets[m]) for m in loaded.metrics}
    results = {
        "hull": {"vertices": hull.vertices},
        "metrics": {m: Deferred(_hull_entry, c) for m, c in curves},
    }
    report = _report_json("hull", args, loaded, seed, results, findings)
    return loaded.inputs, report, _svg([SvgSeries(m, c) for m, c in curves], hull)


def cmd_diagnose(args: argparse.Namespace):
    seed, config = _resampling(args)
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

    return loaded.inputs, _report_json("diagnose", args, loaded, seed, results, findings)


def _write(args: argparse.Namespace, inputs: Sequence[str], report: Iterator[str],
           svg: Optional[Iterator[str]] = None) -> None:
    """Write a run's outputs: the SVG to --svg when it is given, then the report to
    --out or stdout. Every command writes through here. Both paths are checked
    before the first is opened, and each output's text is made as it is written."""
    outputs = [(args.svg, svg)] if args.svg else []
    outputs.append((args.out, report))
    check_outputs([path for path, _ in outputs], inputs)
    for path, chunks in outputs:
        emit(chunks, path)


# The flag groups, each flag with its ``add_argument`` keywords. A command
# that does not take a group reads each of its flags as the flag's default.
_GROUPS = {
    "input": (
        ("--gold", dict(help="gold TSV: segment_id<TAB>mqm_score")),
        ("--scores", dict(action="append", default=[], metavar="METRIC=PATH",
                          help="score TSV per metric (bare metric name in --wmt-root mode); "
                          "repeatable")),
        ("--orientation", dict(action="append", default=[], metavar="METRIC=DIR",
                               help="higher-better or higher-worse per metric "
                               "(default: higher-worse)")),
        ("--cutoff", dict(default="strict",
                          help="strict, lenient, or custom:<t>[:inclusive] (default: strict)")),
        ("--strict", dict(action="store_true", help="malformed input lines are fatal")),
        ("--out", dict(help="report path (default: stdout)")),
        ("--wmt-root", dict(help="root of a WMT-style score tree")),
        ("--lang-pair", {}),
        ("--testset", {}),
        ("--system", {}),
    ),
    "resampling": (
        ("--bootstrap", dict(type=int, metavar="B",
                             help="bootstrap iterations (band/CI computed when set)")),
        ("--confidence", dict(type=float, default=0.95)),
        ("--seed", dict(type=int, help="RNG seed (fallback: ROCQE_SEED env var, then 0)")),
    ),
    "workers": (
        ("--workers", dict(type=int, default=1,
                           help="has no effect; kept for compatibility (must be >= 1)")),
    ),
    "svg": (("--svg", dict(help="SVG plot path")),),
    "scenario": (
        ("--scenario", dict(type=int, choices=(1, 2), required=True)),
        ("--x", dict(type=float, help="scenario 1: reviewable fraction of segments, in (0, 1]")),
        ("--y", dict(type=float, help="scenario 2: tolerable missed errors per 100 segments")),
        ("--trade-off", dict(metavar="A:B", help="a missed errors cost as much as b false alarms")),
        ("--class-ratio", dict(metavar="P:N",
                               help="assumed error:clean ratio (default: observed)")),
        ("--review-efficacy", dict(type=float, default=1.0,
                                   help="fraction of reviewed errors actually fixed, in (0, 1]")),
        ("--ci-method", dict(choices=("replicate", "band"),
                             help="scenario 1: CI by re-running per replicate or from the band "
                             "(default: replicate)")),
    ),
}

# The refusals that depend on other flags, per group: (when, kind, flags,
# message). Where ``when`` holds, a run that gives one of ``flags``
# ("refuses") or lacks one ("needs") is a config error; ``{}`` in the
# message names that flag.
_RULES = {
    "input": (
        (lambda a: a.wmt_root is None, "needs", ("gold",),
         "--gold is required (or use --wmt-root)"),
        (lambda a: a.wmt_root is None, "refuses", ("lang_pair", "testset", "system"),
         "--lang-pair, --testset and --system apply only in --wmt-root mode"),
        (lambda a: a.wmt_root is not None, "needs", ("lang_pair", "testset", "system"),
         "--wmt-root needs --lang-pair, --testset and --system"),
        (lambda a: a.wmt_root is not None, "refuses", ("gold",),
         "--gold does not apply in --wmt-root mode"),
    ),
    "scenario": (
        (lambda a: a.scenario == 1, "needs", ("x",),
         "scenario 1 needs --x (review fraction in (0, 1])"),
        (lambda a: a.scenario == 1, "refuses", ("y",), "--y does not apply to scenario 1"),
        (lambda a: a.scenario == 2, "needs", ("y",),
         "scenario 2 needs --y (tolerable errors per 100)"),
        (lambda a: a.scenario == 2, "refuses", ("x", "ci_method"),
         "{} does not apply to scenario 2"),
        (lambda a: a.trade_off is None, "refuses", ("class_ratio",),
         "--class-ratio requires --trade-off"),
    ),
}


class _Command(NamedTuple):
    handler: Callable[[argparse.Namespace], tuple]
    help: str
    groups: tuple[str, ...]  # the flag groups it takes
    least: int  # --scores entries it needs
    most: Optional[int] = None  # --scores entries it takes; None: no limit


_COMMANDS = {
    "roc": _Command(cmd_roc, "curves, AUC, optional confidence bands",
                   ("input", "resampling", "workers", "svg"), 1),
    "table": _Command(cmd_table, "per-segment QE-ROC table as TSV", ("input",), 1, 1),
    "scenario": _Command(cmd_scenario, "review-policy decision analyses",
                        ("input", "resampling", "workers", "scenario"), 1, 1),
    "hull": _Command(cmd_hull, "combined envelope over several metrics",
                    ("input", "workers", "svg"), 2),
    "diagnose": _Command(cmd_diagnose, "sample and band validity checks",
                        ("input", "resampling", "workers"), 1),
}


def _check_flags(name: str, args: argparse.Namespace) -> None:
    """Refuse a --scores count the command does not take, then each rule of its groups."""
    command = _COMMANDS[name]
    if not command.least <= len(args.scores) <= (command.most or len(args.scores)):
        raise ValueError(
            f"the {name} command takes {'exactly' if command.most else 'at least'} "
            f"{('one', 'two')[command.least - 1]} --scores metric{'s' * (command.least > 1)}"
        )
    for group in command.groups:
        for when, kind, dests, message in _RULES.get(group, ()):
            for dest in dests if when(args) else ():
                if (getattr(args, dest) is None) == (kind == "needs"):
                    raise ValueError(message.format("--" + dest.replace("_", "-")))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rocqe",
        description="Tie-aware ROC analysis and review-policy decisions for "
        "translation quality-estimation scores.",
    )
    parser.add_argument("--version", action="version", version=f"rocqe {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for name, command in _COMMANDS.items():
        command_parser = sub.add_parser(name, help=command.help)
        for group, flags in _GROUPS.items():
            for flag, options in flags:
                if group in command.groups:
                    command_parser.add_argument(flag, **options)
                else:
                    dest = flag[2:].replace("-", "_")
                    command_parser.set_defaults(**{dest: options.get("default")})
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _bind_library()
    try:
        _check_flags(args.command, args)
        _write(args, *_COMMANDS[args.command].handler(args))
        return 0
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

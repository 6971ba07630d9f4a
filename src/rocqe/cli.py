"""Command-line interface: ingest, label, analyze, report, plot.

Subcommands: roc (curves, AUC, bands), table (per-segment TSV), scenario
(review-policy decisions), hull (multi-metric envelope), diagnose (validity
checks). All machine output is deterministic: identical inputs and flags
produce byte-identical reports and SVGs.

Exit codes: 0 success, 2 input or output error, 3 degenerate data, 4 config error.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, Optional, Sequence

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
    QeRocTable,
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
    Label,
    NonFiniteScoreError,
    Orientation,
)
from .roc import GroundTruthMismatchError, RocCurve, auc, build_roc, convex_hull, pr_points
from .svgplot import SvgSeries, render_roc_svg
from .texts import fixed2_texts, join_rows, repr_texts, run_texts

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


_INDENT = "  "
_ROWS_PER_BLOCK = 1024


class _Rows:
    """A list of same-keyed dicts handed to the encoder as columns.

    Encodes exactly like ``[{key: column[i] for key in columns} for i ...]``
    but spells each run of equal neighbours in a column once instead of
    visiting every cell. A column is numeric or ``_JsonTexts``.
    """

    def __init__(self, **columns: np.ndarray) -> None:
        self.columns = {
            key: col if isinstance(col, _JsonTexts) else np.asarray(col)
            for key, col in columns.items()
        }
        shapes = {col.shape for col in self.columns.values()}
        if len(shapes) > 1 or any(len(shape) != 1 for shape in shapes):
            raise ValueError("row columns must be 1-d arrays of one length")


class _Deferred(functools.partial):
    """A report value the encoder builds when it reaches it: ``_Deferred(f, *args)``.

    Encodes as ``f(*args)`` would, but the built value is dropped once it
    is written, so a report holds only one such value's texts at a time.
    """


def _float_text(value: float) -> str:
    if math.isfinite(value):
        return float.__repr__(value)
    return f'"{value!r}"'  # "nan", "inf" or "-inf"


def _array_texts(values: np.ndarray) -> list[str]:
    """JSON text of every element of a 1-d numeric array."""
    texts = repr_texts(values)
    if values.dtype.kind == "f":
        for i in np.flatnonzero(~np.isfinite(values)).tolist():
            texts[i] = _float_text(float(values[i]))
    return texts


def _json_column(column, block: slice) -> np.ndarray:
    """JSON texts of one block of a ``_Rows`` column, as an object array."""
    if isinstance(column, _JsonTexts):
        return column[block]
    return run_texts(column[block], _array_texts)


def _encode(obj, level: int) -> Iterator[str]:
    """JSON text of ``obj`` in pieces, nested ``level`` deep in the report.

    The text matches ``json.dumps(..., sort_keys=True, indent=2)`` with
    enums given by value, dataclass instances as the dict of their fields,
    numpy scalars and arrays as Python numbers and lists, tuples as lists,
    dict keys through ``str``, and NaN/+-inf written as the strings "nan",
    "inf" and "-inf".
    """
    if isinstance(obj, Enum):
        obj = obj.value
    elif is_dataclass(obj) and not isinstance(obj, type):
        obj = _fields(obj)
    if isinstance(obj, dict):
        items = {str(key): value for key, value in obj.items()}
        separator = "{"
        for key in sorted(items):
            yield separator + _newline(level + 1) + encode_basestring_ascii(key) + ": "
            yield from _encode(items[key], level + 1)
            separator = ","
        yield "{}" if not items else _newline(level) + "}"
    elif isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype.kind in "iuf":
        yield _bracket("[", run_texts(obj, _array_texts).tolist(), "]", level)
    elif isinstance(obj, np.ndarray):
        yield from _encode(obj.tolist(), level)
    elif isinstance(obj, (list, tuple)):
        separator = "["
        for value in obj:
            yield separator + _newline(level + 1)
            yield from _encode(value, level + 1)
            separator = ","
        yield "[]" if not obj else _newline(level) + "]"
    elif isinstance(obj, _Deferred):
        yield from _encode(obj(), level)
    elif isinstance(obj, _Rows):
        # A row is the dict text with every value left open; the texts
        # before each value are shared by all rows.
        keys = sorted(obj.columns)
        heads = ["{" + _newline(level + 2)] + ["," + _newline(level + 2)] * (len(keys) - 1)
        heads = [head + encode_basestring_ascii(key) + ": " for head, key in zip(heads, keys)]
        size = next((col.shape[0] for col in obj.columns.values()), 0)
        separator = "["
        # Rows go out in blocks, so only one block's cell texts are alive.
        for start in range(0, size, _ROWS_PER_BLOCK):
            block = slice(start, start + _ROWS_PER_BLOCK)
            pieces: list = []
            for head, key in zip(heads, keys):
                pieces += [head, _json_column(obj.columns[key], block)]
            pieces.append(_newline(level + 1) + "}")
            yield separator + _newline(level + 1)
            yield join_rows(pieces, between="," + _newline(level + 1))
            separator = ","
        yield "[]" if not size else _newline(level) + "]"
    else:
        yield _leaf_text(obj)


def _fields(obj) -> dict:
    """A dataclass instance's fields by name, values as they are (not copied)."""
    return {field.name: getattr(obj, field.name) for field in fields(obj)}


def _leaf_text(obj) -> str:
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return int.__repr__(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _float_text(float(obj))
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _newline(level: int) -> str:
    return "\n" + _INDENT * level


def _bracket(opening: str, items: list[str], closing: str, level: int) -> str:
    """A JSON list or object around already-encoded items."""
    if not items:
        return opening + closing
    inner = "," + _newline(level + 1)
    return opening + _newline(level + 1) + inner.join(items) + _newline(level) + closing


def _json_chunks(document) -> Iterator[str]:
    """The report text of ``document`` in pieces, newline-terminated."""
    yield from _encode(document, 0)
    yield "\n"


class _OutputError(Exception):
    """An output file, or stdout, could not be opened or written."""


def _emit(chunks: Iterable[str], out_path: Optional[str]) -> None:
    """Write ``chunks`` to ``out_path``, or to stdout when there is none."""
    try:
        if out_path:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.writelines(chunks)
        else:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
    except OSError as exc:
        if not out_path and sys.stdout is sys.__stdout__:
            # The interpreter flushes stdout again at exit; with stdout on the
            # null device, the text still buffered there cannot fail a second time.
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
        raise _OutputError(f"{out_path or 'stdout'}: {exc.strerror or exc}") from None


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
    return _json_chunks(document)


# The JSON strings for non-finite floats, and those of their negations.
_NEGATED_WORDS = {'"inf"': '"-inf"', '"-inf"': '"inf"', '"nan"': '"nan"'}


class _JsonTexts:
    """A ``_Rows`` column of JSON texts spelled beforehand, handed out by block.

    ``_JsonTexts.spell(x)`` spells the texts of a 1-d numeric array x once,
    ``_ROWS_PER_BLOCK`` at a time, and keeps each such chunk as one
    ``"\\n"``-joined str; a block of rows is split out of the one or two
    chunks it covers. ``view`` gives the same texts from a row ``offset``
    on, and with ``negated`` the column -x: ``repr(-x)`` is ``repr(x)``
    with the leading minus toggled, so negated texts need no spelling.
    """

    def __init__(self, chunks: list[str], chunk_rows: int, size: int,
                 offset: int = 0, negated: bool = False) -> None:
        self.chunks = chunks
        self.chunk_rows = chunk_rows
        self.size = size  # texts in the chunks
        self.offset = offset
        self.negated = negated
        self.shape = (size - offset,)

    @classmethod
    def spell(cls, values: np.ndarray) -> "_JsonTexts":
        rows = _ROWS_PER_BLOCK
        chunks = [
            "\n".join(run_texts(values[start:start + rows], _array_texts).tolist())
            for start in range(0, values.size, rows)
        ]
        return cls(chunks, rows, values.size)

    def view(self, offset: int = 0, negated: bool = False) -> "_JsonTexts":
        return _JsonTexts(self.chunks, self.chunk_rows, self.size, self.offset + offset,
                          self.negated != negated)

    def __getitem__(self, block: slice) -> np.ndarray:
        start, stop, _ = block.indices(self.shape[0])
        start, stop = start + self.offset, max(start, stop) + self.offset
        rows, texts = self.chunk_rows, []
        for index in range(start // rows, -(-stop // rows)):
            # Texts lo..hi - 1 of the chunk, split off no further than needed.
            lo, hi = max(start - index * rows, 0), min(stop - index * rows, rows)
            texts += self.chunks[index].split("\n", hi)[lo:hi]
        if self.negated:
            texts = [
                t[1:] if t[0] == "-" else _NEGATED_WORDS[t] if t[0] == '"' else "-" + t
                for t in texts
            ]
        return np.array(texts, dtype=object)


def _threshold_texts(curve: RocCurve) -> _JsonTexts:
    """JSON texts of the curve's canonical thresholds, spelled once."""
    return _JsonTexts.spell(curve.thresholds)


def _vertex_rows(curve: RocCurve, thresholds: _JsonTexts, tpr) -> _Rows:
    """One row per vertex; ``thresholds`` is the curve's ``_threshold_texts``.

    ``tpr`` is ``curve.tpr`` or its ``_JsonTexts``.
    """
    return _Rows(
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


def _pr_rows(curve: RocCurve, thresholds: _JsonTexts, tpr: _JsonTexts) -> _Rows:
    """One row per PR point, from the curve's vertex texts.

    Every vertex but the origin flags a segment, so the PR points are
    vertices 1..V: their thresholds are the vertex thresholds and their
    recall is the vertex ``tpr``, both read from vertex 1 on.
    """
    return _Rows(
        recall=tpr.view(offset=1),
        precision=pr_points(curve).precision,
        threshold=thresholds.view(offset=1),
    )


def _roc_entry(curve: RocCurve, band: Optional[ConfidenceBand]) -> dict:
    """One metric's ``roc`` report entry."""
    thresholds, tpr = _threshold_texts(curve), _JsonTexts.spell(curve.tpr)
    return {
        "auc": auc(curve),
        "vertices": _vertex_rows(curve, thresholds, tpr),
        "pr_points": _pr_rows(curve, thresholds, tpr),
        "band": (
            {**_fields(band), **_fields(band_width_summary(band))} if band is not None else None
        ),
    }


def _hull_entry(curve: RocCurve) -> dict:
    """One metric's ``hull`` report entry."""
    vertices = _vertex_rows(curve, _threshold_texts(curve), curve.tpr)
    return {"auc": auc(curve), "vertices": vertices}


# roc and hull compute every curve, band and hull first, so all that can
# fail has run before the first byte goes out. Then they write the SVG, and
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

    if args.svg:
        _emit([render_roc_svg(series)], args.svg)
    results = {"metrics": {s.name: _Deferred(_roc_entry, s.curve, s.band) for s in series}}
    _emit(_report_json("roc", args, loaded, seed, results, findings), args.out)
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    if len(args.scores) != 1:
        raise ValueError("the table command takes exactly one --scores metric")
    loaded = _load(args)
    metric = loaded.metrics[0]
    table = qe_roc_table(loaded.datasets[metric])
    _emit(_table_chunks(table), args.out)
    return 0


def _table_chunks(table: QeRocTable) -> Iterator[str]:
    """The TSV text of a QE-ROC table in pieces, endpoint rows included.

    Lines go out in blocks of table rows, so only one block's columns and
    text are alive at a time.
    """
    p, n = table.p_count, table.n_count
    top, bottom = table.endpoints
    truths = np.array([Label.NEGATIVE.value, Label.POSITIVE.value], dtype=object)
    yield "segment_id\tground_truth\tscore\ttp\tfn\tfp\ttn\ttpr\tfpr\n"
    yield _table_lines(p, n, "-", "-", [top], [0], [0])
    for start in range(0, table.tp.size, _ROWS_PER_BLOCK):
        block = slice(start, start + _ROWS_PER_BLOCK)
        yield _table_lines(
            p, n,
            table.segment_ids[block],
            truths[table.is_positive[block].astype(np.intp)],
            table.raw_scores[block],
            table.tp[block],
            table.fp[block],
        )
    yield _table_lines(p, n, "-", "-", [bottom], [p], [n])


def _table_lines(p: int, n: int, ids, labels, scores, tp, fp) -> str:
    """Table lines of row columns; ``ids`` and ``labels`` may be one shared text.

    Rows of one tie group share their counts and rates, so each run of
    equal neighbours in a column is spelled once.
    """
    scores, tp, fp = np.asarray(scores), np.asarray(tp), np.asarray(fp)
    return join_rows([
        ids, "\t",
        labels, "\t",
        run_texts(scores, repr_texts), "\t",
        run_texts(tp, repr_texts), "\t",
        run_texts(p - tp, repr_texts), "\t",
        run_texts(fp, repr_texts), "\t",
        run_texts(n - fp, repr_texts), "\t",
        run_texts(tp / p, fixed2_texts), "\t",
        run_texts(fp / n, fixed2_texts), "\n",
    ])


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
    _emit(_report_json("scenario", args, loaded, seed, results, findings), args.out)
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
    if args.svg:
        series = [SvgSeries(m, c) for m, c in curves]
        _emit([render_roc_svg(series, hull=hull)], args.svg)

    results = {
        "hull": {"vertices": hull.vertices},
        "metrics": {m: _Deferred(_hull_entry, c) for m, c in curves},
    }
    _emit(_report_json("hull", args, loaded, seed, results, findings), args.out)
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

    _emit(_report_json("diagnose", args, loaded, seed, results, findings), args.out)
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
    except _OutputError as exc:
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

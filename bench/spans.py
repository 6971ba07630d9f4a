"""Outside-in tracing of ``rocqe.cli.main``: spans around the calls into each layer.

The program is not changed. For the length of a traced call, the public
names that ``rocqe.cli`` imports from the library modules are replaced by
wrappers that record a span (name, start, end, parent, trace id) and a few
counters read off the result after the clock has stopped. ``map_replicates``
is also wrapped where ``rocqe.decision`` imports it, so the per-replicate
cost of the decision procedures is visible. Recursive helpers such as
``cli._sanitize`` and the stdlib ``json`` module are never wrapped: their
cost belongs to the ``cli`` layer's self time.

Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

LAYERS = ("ingest", "model", "roc", "bootstrap", "decision", "diagnostics", "svgplot", "cli")


@dataclass
class Span:
    trace: str
    id: int
    parent: int | None
    name: str
    start_ns: int
    end_ns: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


def _wmt_files(root, lang_pair, testset, system, metric):
    return [
        os.path.join(root, testset, "human-scores", f"{lang_pair}.mqm.merged.seg.score"),
        os.path.join(root, testset, "metric-scores", lang_pair, f"{metric}.seg.score"),
    ]


def _ingest_attrs(files, result):
    report = result[1]
    return {"files": files, "accepted": report.accepted, "total": report.total_lines}


# (module attribute, span name, counters from (args, result)); all are
# looked up on rocqe.cli except map_replicates, which lives on rocqe.decision.
CLI_TARGETS = (
    ("parse_canonical_tsv", "ingest.parse",
     lambda a, r: _ingest_attrs([a[0], a[1]], r)),
    ("parse_wmt_layout", "ingest.parse",
     lambda a, r: _ingest_attrs(_wmt_files(*a), r)),
    ("to_dataset", "ingest.to_dataset", lambda a, r: {"segments": r.total}),
    ("build_roc", "roc.build_roc", lambda a, r: {"vertices": len(r.vertices)}),
    ("auc", "roc.auc", None),
    ("pr_points", "roc.pr_points", None),
    ("convex_hull", "roc.convex_hull", lambda a, r: {"hull_vertices": len(r.vertices)}),
    ("confidence_band", "bootstrap.confidence_band",
     lambda a, r: {"replicates": r.iterations, "degenerate": r.degenerate_replicates,
                   "grid_points": int(r.fpr_grid.size)}),
    ("band_width_summary", "bootstrap.band_width_summary", None),
    ("qe_roc_table", "decision.table", None),
    ("scenario1_residual_risk", "decision.scenario1", None),
    ("scenario2_required_effort", "decision.scenario2", None),
    ("optimal_threshold", "decision.optimal", None),
    ("check_sample", "diagnostics.check_sample", None),
    ("check_band", "diagnostics.check_band", None),
    ("render_roc_svg", "svgplot.render", lambda a, r: {"bytes": len(r.encode("utf-8"))}),
)
DECISION_TARGETS = (
    ("map_replicates", "decision.map_replicates", lambda a, r: {"replicates": len(r)}),
)
# Dataset columns forced right after to_dataset, so their (lazy) cost is
# timed in one place instead of inside whichever layer touches them first.
MODEL_COLUMNS = ("risk_scores", "is_positive", "positive_risks", "negative_risks", "fingerprint")


class Tracer:
    """Collects spans for the ``rocqe.cli.main`` calls made through ``call_main``."""

    def __init__(self, cli, decision) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._trace = ""
        self._targets = [(cli, CLI_TARGETS), (decision, DECISION_TARGETS)]
        self._cli = cli
        self._calls = 0

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        span = Span(self._trace, len(self.spans), parent, name, time.perf_counter_ns())
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end_ns = time.perf_counter_ns()
            self._stack.pop()

    def _wrap(self, fn, name, counters):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if counters is not None:
                span.attrs.update(counters(args, result))
            if name == "ingest.to_dataset":
                with self.span("model.columns"):
                    for column in MODEL_COLUMNS:
                        getattr(result, column)
            return result

        return wrapper

    def call_main(self, argv: list[str]) -> int:
        """``cli.main(argv)`` under a root span, with every target wrapped; one trace id per call."""
        saved = []
        for module, targets in self._targets:
            for attr, name, counters in targets:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self._wrap(getattr(module, attr), name, counters))
        self._trace = f"t{self._calls}"
        self._calls += 1
        try:
            with self.span("cli.main") as root:
                root.attrs["command"] = argv[0]
                return self._cli.main(argv)
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part its direct children cover.

    Children of one span run one after another on the calling thread, so
    their intervals do not overlap and covering time is their sum.
    """
    own = {s.id: s.seconds for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.seconds
    return own

"""The benchmark's workloads: generated inputs plus the CLI commands run on them.

Each workload is chosen so that one planned optimisation dominates it and
another barely touches it:

- ``report-100k``: continuous scores, every segment its own tie group, no
  bootstrap. Ingest, the Dataset columns, the ROC vertex objects, the
  decision table and the report encoder carry the time; the bootstrap
  layer does nothing.
- ``band-20k``: scores rounded to 3 decimals (heavy ties), one 1000-replicate
  confidence band on a thread pool. The band dominates.
- ``decide-wmt``: a WMT tree of 8 systems, one analysed; two review-policy
  scenarios with replicate CIs and a 3-metric hull. The decision
  procedures dominate, ingest discards most of what it reads, and three
  short processes make interpreter start-up a large share.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import checks
import gen


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``python -m rocqe.cli <argv>``, plus its check."""

    name: str
    argv: list[str]
    outputs: list[str]  # files the command writes; their bytes must repeat exactly
    check: Callable[[], list[str]]


@dataclass(frozen=True)
class Size:
    segments: int
    iterations: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    full: Size
    tiny: Size  # same code path in seconds, for the benchmark's own tests
    build: Callable[[int, str, Size, int], tuple[gen.Inputs, list[Command]]]


def _out(directory: str, name: str) -> str:
    out = os.path.join(directory, "out")
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, name)


def build_report(seed: int, directory: str, size: Size, workers: int):
    inputs = gen.canonical_inputs(seed, directory, size.segments, decimals=None)
    ref = checks.Reference(inputs)
    flags = ["--gold", inputs.files["gold"], "--scores", f"qe={inputs.files['qe']}",
             "--orientation", "qe=higher-better"]
    roc_out, svg, table_out = (_out(directory, n) for n in ("roc.json", "roc.svg", "table.tsv"))
    commands = [
        Command("roc", ["roc", *flags, "--svg", svg, "--out", roc_out], [roc_out, svg],
                lambda: checks.check_roc(roc_out, ref, ["qe"], None) + checks.check_svg(svg)),
        Command("table", ["table", *flags, "--out", table_out], [table_out],
                lambda: checks.check_table(table_out, ref)),
    ]
    return inputs, commands


def build_band(seed: int, directory: str, size: Size, workers: int):
    inputs = gen.canonical_inputs(seed, directory, size.segments, decimals=3)
    ref = checks.Reference(inputs)
    roc_out, svg = _out(directory, "band.json"), _out(directory, "band.svg")
    argv = ["roc", "--gold", inputs.files["gold"], "--scores", f"qe={inputs.files['qe']}",
            "--orientation", "qe=higher-better", "--bootstrap", str(size.iterations),
            "--workers", str(workers), "--seed", str(seed), "--svg", svg, "--out", roc_out]
    return inputs, [
        Command("roc-band", argv, [roc_out, svg],
                lambda: checks.check_roc(roc_out, ref, ["qe"], size.iterations) + checks.check_svg(svg)),
    ]


SCENARIO1_X = 0.3
SCENARIO2_Y = 10.0
WMT_SYSTEMS = 8


def build_decide(seed: int, directory: str, size: Size, workers: int):
    inputs = gen.wmt_inputs(seed, directory, WMT_SYSTEMS, size.segments, target=3)
    ref = checks.Reference(inputs)
    common = ["--wmt-root", inputs.files["wmt_root"], "--lang-pair", gen.WMT_LANG_PAIR,
              "--testset", gen.WMT_TESTSET, "--system", inputs.system, "--workers", "1"]
    orient = {m.name: ["--orientation", f"{m.name}={m.orientation}"] for m in inputs.metrics.values()}
    boot = ["--bootstrap", str(size.iterations), "--seed", str(seed)]
    s1, s2 = _out(directory, "scenario1.json"), _out(directory, "scenario2.json")
    hull, svg = _out(directory, "hull.json"), _out(directory, "hull.svg")
    metrics = list(inputs.metrics)
    commands = [
        Command("scenario1",
                ["scenario", *common, "--scores", "cont", *orient["cont"], "--scenario", "1",
                 "--x", str(SCENARIO1_X), *boot, "--trade-off", "1:10", "--class-ratio", "1:5",
                 "--out", s1],
                [s1], lambda: checks.check_scenario1(s1, SCENARIO1_X)),
        Command("scenario2",
                ["scenario", *common, "--scores", "int100", *orient["int100"], "--scenario", "2",
                 "--y", str(SCENARIO2_Y), *boot, "--out", s2],
                [s2], lambda: checks.check_scenario2(s2, SCENARIO2_Y)),
        Command("hull",
                ["hull", *common, *(a for m in metrics for a in ("--scores", m)),
                 *(a for m in metrics for a in orient[m]), "--svg", svg, "--out", hull],
                [hull, svg], lambda: checks.check_hull(hull, ref, metrics) + checks.check_svg(svg)),
    ]
    return inputs, commands


WORKLOADS = {
    w.name: w
    for w in (
        Workload("report-100k",
                 "100k distinct scores, no bootstrap: ingest, curve objects, table and report encoding dominate",
                 Size(100_000, 0), Size(2_000, 0), build_report),
        Workload("band-20k",
                 "20k tied scores, one 1000-replicate band on a thread pool: the bootstrap band dominates",
                 Size(20_000, 1000), Size(1_000, 40), build_band),
        Workload("decide-wmt",
                 "WMT tree, 1 of 8 systems kept: scenario replicate CIs and a 3-metric hull over 3 short runs",
                 Size(5_000, 1000), Size(300, 40), build_decide),
    )
}

"""rocqe benchmark: run a workload's CLI commands as a user would, and check them.

Usage (from the repository root)::

    python3 bench/run.py --workload report-100k --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all            # every workload, one after another

A run generates the workload's inputs from ``--seed`` under
``.bench_out/work``, then starts passes until ``--seconds`` have gone by,
so it measures at least that long and at least one pass. It is a closed
loop with one client: each command starts only after the previous one has
finished.

With ``--trace 0`` a pass is: ``SETUP_RUNS`` timings of
``python -m rocqe.cli --version``; every command in a fresh
``python -m rocqe.cli`` subprocess, started from a small helper process
(``spawn.py``) so each child's peak RSS is its own; every command again
through ``rocqe.cli.main(argv)`` in this (warm) process. ``wall_s``,
``cpu_s`` and ``api_s`` are the run's total over its passes divided by the
number of passes: on a shared host the speed drifts in stretches of tens
of seconds, and the whole run's average follows that drift less than the
median of a few passes does. ``setup_s`` and ``peak_rss_mb`` are medians.

With ``--trace 1``, after one untimed in-process warm-up pass, a pass runs
the commands in-process twice, untraced and traced (see ``spans.py``), in
alternating order, and the per-layer metrics are medians over passes.
``trace.overhead_s`` is the traced minus the untraced time.

Every command's outputs are checked against references computed from the
inputs (``checks.py``) and must be byte-identical across repeats. A
non-zero exit or a failed check is a failed operation. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. A record of the run (versions, load, input properties,
every sample) goes to ``.bench_out/runs``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import spans
from workloads import WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_RUNS = 2
MAX_WORKERS = 8
MAX_PROBLEMS_KEPT = 20

# MB is 2**20 bytes.
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "api_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
RUN_AVERAGED = {"wall_s", "cpu_s", "api_s"}  # total over passes / passes; the rest are medians
PER_LAYER = {
    "ingest.parse_s": "s",
    "ingest.to_dataset_s": "s",
    "ingest.lines_read": "count",
    "ingest.rows_accepted": "count",
    "ingest.rows_skipped": "count",
    "ingest.useful_ratio": "1",
    "model.columns_s": "s",
    "model.segments": "count",
    "roc.build_roc_s": "s",
    "roc.pr_points_s": "s",
    "roc.auc_s": "s",
    "roc.convex_hull_s": "s",
    "roc.vertices": "count",
    "bootstrap.band_s": "s",
    "bootstrap.replicate_ms": "ms",
    "bootstrap.replicates": "count",
    "bootstrap.degenerate_replicates": "count",
    "bootstrap.grid_points": "count",
    "bootstrap.matrix_mb": "MB",
    "decision.table_s": "s",
    "decision.scenario1_s": "s",
    "decision.scenario2_s": "s",
    "decision.optimal_s": "s",
    "decision.replicate_ms": "ms",
    "diagnostics.check_s": "s",
    "svgplot.render_s": "s",
    "svgplot.bytes": "bytes",
    "cli.self_s": "s",
    "cli.main_s": "s",
    "cli.report_bytes": "bytes",
    **{f"{layer}.self_s": "s" for layer in spans.LAYERS if layer != "cli"},
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


class Operations:
    """Attempted and failed operations, with the first few problems kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._first: dict[str, tuple[str, bool]] = {}  # command -> (digest, checks passed)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < MAX_PROBLEMS_KEPT:
            self.problems.append(what)

    def verify(self, command, status) -> None:
        """Count one run of ``command``: exit status, output checks, repeat bytes.

        The full check runs the first time a command's outputs are seen;
        afterwards their bytes must equal that first time exactly.
        """
        self.attempted += 1
        if status != 0:
            self.fail(f"{command.name}: exit status {status!r}")
            return
        try:
            digest = hashlib.sha256()
            for path in command.outputs:
                digest.update(Path(path).read_bytes())
        except OSError as exc:
            self.fail(f"{command.name}: missing output ({exc})")
            return
        first = self._first.get(command.name)
        if first is None:
            problems = command.check()
            self._first[command.name] = (digest.hexdigest(), not problems)
            if problems:
                self.fail(f"{command.name}: " + "; ".join(problems[:3]))
        elif first[0] != digest.hexdigest():
            self.fail(f"{command.name}: output bytes differ from the first run")
        elif not first[1]:
            self.fail(f"{command.name}: repeats an output that failed its checks")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("ROCQE_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Spawner:
    """The small process that starts every timed ``python -m rocqe.cli`` child (see spawn.py)."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(BENCH / "spawn.py")],
            cwd=ROOT, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str], capture_stdout: bool = False):
        """Run ``python -m rocqe.cli argv``: (status, text, wall s, cpu s, maxrss KiB)."""
        request = {"argv": [sys.executable, "-m", "rocqe.cli", *argv], "capture": capture_stdout}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"spawner exited with status {self._proc.wait()}")
        reply = json.loads(line)
        if reply["status"] != 0 and not capture_stdout:
            sys.stderr.write(reply["text"])
        return reply["status"], reply["text"], reply["wall"], reply["cpu"], reply["maxrss_kib"]

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait()


def run_api(main, argv: list[str]):
    """``main(argv)`` (``rocqe.cli.main`` or its traced call) in this process: (status, seconds)."""
    gc.collect()
    start = time.perf_counter()
    try:
        status = main(argv)
    except SystemExit as exc:
        status = exc.code
    except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
        status = f"{type(exc).__name__}: {exc}"
    return status, time.perf_counter() - start


def api_pass(commands, ops, main) -> float:
    """Every command once through ``main`` in this process; the summed seconds."""
    total = 0.0
    for command in commands:
        clear_outputs(command)
        status, secs = run_api(main, command.argv)
        total += secs
        ops.verify(command, status)
    return total


def clear_outputs(command) -> None:
    for path in command.outputs:
        Path(path).unlink(missing_ok=True)


def measure_end_to_end(commands, seconds, ops, cli, expected_version):
    with contextlib.closing(Spawner()) as spawner:
        samples = defaultdict(list)
        begin = time.perf_counter()
        while True:
            for _ in range(SETUP_RUNS):
                status, text, wall, _, _ = spawner.run(["--version"], capture_stdout=True)
                ops.attempted += 1
                if status != 0 or text != expected_version:
                    ops.fail(f"--version: status {status}, output {text!r}")
                samples["setup_s"].append(wall)
            wall = cpu = 0.0
            rss = 0
            for command in commands:
                clear_outputs(command)
                status, _, secs, cpu_s, maxrss = spawner.run(command.argv)
                wall, cpu, rss = wall + secs, cpu + cpu_s, max(rss, maxrss)
                ops.verify(command, status)
            samples["wall_s"].append(wall)
            samples["cpu_s"].append(cpu)
            samples["peak_rss_mb"].append(rss / 1024.0)
            samples["api_s"].append(api_pass(commands, ops, cli.main))
            if time.perf_counter() - begin >= seconds:
                return samples


def layer_metrics(pass_spans: list[spans.Span], lines_in) -> dict[str, float]:
    """Per-layer metrics of one traced pass over a workload's commands."""
    took = defaultdict(float)
    for s in pass_spans:
        took[s.name] += s.seconds
    own = spans.self_seconds(pass_spans)
    layer_self = defaultdict(float)
    for s in pass_spans:
        layer_self[s.layer] += own[s.id]

    def attr_sum(name: str, key: str) -> int:
        return sum(s.attrs[key] for s in pass_spans if s.name == name)

    parses = [s for s in pass_spans if s.name == "ingest.parse"]
    lines_read = sum(lines_in(f) for s in parses for f in s.attrs["files"])
    accepted = attr_sum("ingest.parse", "accepted")
    bands = [s for s in pass_spans if s.name == "bootstrap.confidence_band"]
    replicates = attr_sum("bootstrap.confidence_band", "replicates")
    decision_replicates = attr_sum("decision.map_replicates", "replicates")
    metrics = {
        "ingest.parse_s": took["ingest.parse"],
        "ingest.to_dataset_s": took["ingest.to_dataset"],
        "ingest.lines_read": lines_read,
        "ingest.rows_accepted": accepted,
        "ingest.rows_skipped": attr_sum("ingest.parse", "total") - accepted,
        "ingest.useful_ratio": accepted / lines_read if lines_read else 0.0,
        "model.columns_s": took["model.columns"],
        "model.segments": attr_sum("ingest.to_dataset", "segments"),
        "roc.build_roc_s": took["roc.build_roc"],
        "roc.pr_points_s": took["roc.pr_points"],
        "roc.auc_s": took["roc.auc"],
        "roc.convex_hull_s": took["roc.convex_hull"],
        "roc.vertices": attr_sum("roc.build_roc", "vertices"),
        "bootstrap.band_s": took["bootstrap.confidence_band"],
        "bootstrap.replicate_ms": (
            1000.0 * took["bootstrap.confidence_band"] / replicates if replicates else 0.0
        ),
        "bootstrap.replicates": replicates,
        "bootstrap.degenerate_replicates": attr_sum("bootstrap.confidence_band", "degenerate"),
        "bootstrap.grid_points": max((s.attrs["grid_points"] for s in bands), default=0),
        # Computed, not measured: one float64 per replicate and grid point.
        "bootstrap.matrix_mb": sum(s.attrs["replicates"] * s.attrs["grid_points"] * 8 for s in bands) / 2**20,
        "decision.table_s": took["decision.table"],
        "decision.scenario1_s": took["decision.scenario1"],
        "decision.scenario2_s": took["decision.scenario2"],
        "decision.optimal_s": took["decision.optimal"],
        "decision.replicate_ms": (
            1000.0 * took["decision.map_replicates"] / decision_replicates if decision_replicates else 0.0
        ),
        "diagnostics.check_s": took["diagnostics.check_sample"] + took["diagnostics.check_band"],
        "svgplot.render_s": took["svgplot.render"],
        "svgplot.bytes": attr_sum("svgplot.render", "bytes"),
        "cli.self_s": layer_self["cli"],
        "cli.main_s": took["cli.main"],
        "trace.spans": len(pass_spans),
    }
    for layer in spans.LAYERS:
        if layer != "cli":
            metrics[f"{layer}.self_s"] = layer_self[layer]
    return metrics


def measure_traced(commands, seconds, ops, cli, decision):
    line_counts: dict[str, int] = {}

    def lines_in(path: str) -> int:
        if path not in line_counts:
            with open(path, "rb") as handle:
                line_counts[path] = sum(1 for _ in handle)
        return line_counts[path]

    tracer = spans.Tracer(cli, decision)
    passes: list[dict[str, float]] = []
    untraced: list[float] = []
    api_pass(commands, ops, cli.main)  # warm-up; the first-time output checks run here, untimed
    begin = time.perf_counter()
    while True:
        first_span = len(tracer.spans)
        if len(passes) % 2:  # alternate the order, so neither side always runs second
            api_pass(commands, ops, tracer.call_main)
            untraced.append(api_pass(commands, ops, cli.main))
        else:
            untraced.append(api_pass(commands, ops, cli.main))
            api_pass(commands, ops, tracer.call_main)
        metrics = layer_metrics(tracer.spans[first_span:], lines_in)
        metrics["cli.report_bytes"] = sum(
            os.path.getsize(p) for c in commands for p in c.outputs if not p.endswith(".svg")
        )
        passes.append(metrics)
        if time.perf_counter() - begin >= seconds:
            break
    samples = {name: [p[name] for p in passes] for name in passes[0]}
    samples["trace.overhead_s"] = [statistics.median(samples["cli.main_s"]) - statistics.median(untraced)]
    samples["untraced_api_s"] = untraced
    return samples, tracer.records()


def worker_count() -> int:
    """Threads for the band: the CPUs this process may use, capped."""
    return max(1, min(len(os.sched_getaffinity(0)), MAX_WORKERS))


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Generate, measure and check one workload; returns the run record."""
    import rocqe
    import rocqe.cli as cli
    import rocqe.decision as decision

    load_start = os.getloadavg()
    size = workload.tiny if tiny else workload.full
    work = OUT / "work"
    work.mkdir(parents=True, exist_ok=True)
    directory = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work)
    ops = Operations()
    trace_records = None
    try:
        start = time.perf_counter()
        inputs, commands = workload.build(seed, directory, size, worker_count())
        generate_s = time.perf_counter() - start
        if trace:
            samples, trace_records = measure_traced(commands, seconds, ops, cli, decision)
            names = PER_LAYER
        else:
            samples = measure_end_to_end(commands, seconds, ops, cli, f"rocqe {rocqe.__version__}\n")
            names = END_TO_END
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    metrics = {
        name: {"value": float((statistics.fmean if name in RUN_AVERAGED else statistics.median)(samples[name])),
               "unit": unit}
        for name, unit in names.items()
    }
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "size": {"segments": size.segments, "iterations": size.iterations, "workers": worker_count()},
        "commands": [c.argv[0] for c in commands],
        "inputs": inputs.properties,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "rocqe": rocqe.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "loadavg_start": load_start,
            "loadavg_end": os.getloadavg(),
        },
        "generate_s": generate_s,
        "samples": samples,
        "metrics": metrics,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "problems": ops.problems,
        "spans": trace_records,
    }


def write_record(record: dict) -> Path:
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    path = runs / f"{record['workload']}-seed{record['seed']}-trace{int(record['trace'])}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def summary_lines(record: dict) -> list[str]:
    name = record["workload"]
    lines = [f"{name} {m} = {v['value']:.6g} {v['unit']}" for m, v in record["metrics"].items()]
    ratio = record["failed"] / record["attempted"] if record["attempted"] else 1.0
    lines.append(f"{name} fail_ratio = {ratio:.6g} 1 ({record['failed']} of {record['attempted']} operations)")
    lines.extend(f"{name} problem: {p}" for p in record["problems"])
    return lines


def preflight() -> str | None:
    """Why the program cannot be benchmarked from this checkout, if it cannot."""
    if not (SRC / "rocqe" / "cli.py").is_file():
        return f"no rocqe sources under {SRC}"
    sys.path.insert(0, str(SRC))
    import rocqe

    if Path(rocqe.__file__).resolve().parent != (SRC / "rocqe").resolve():
        return f"rocqe imports from {rocqe.__file__}, not from {SRC}"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    problem = preflight()
    if problem is not None:
        print(f"bench: {problem}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        record = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        path = write_record(record)
        print("\n".join(summary_lines(record)))
        print(f"{name} record: {path.relative_to(ROOT)}", flush=True)
        records.append(record)

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{m}": v for r in records for m, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's own tests: tiny runs of every workload through the real code path.

Run from the repository root with ``python -m pytest bench/tests -q``.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import run
from workloads import WORKLOADS

ROOT = Path(run.ROOT)


def digests(directory: Path) -> dict[str, str]:
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


@pytest.mark.parametrize("seed", [3, 1234])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_passes_every_check(name, seed):
    record = run.run_workload(WORKLOADS[name], seed, seconds=0.0, trace=False, tiny=True)
    assert record["failed"] == 0, record["problems"]
    # one pass: SETUP_RUNS version checks plus each command in a subprocess and in-process
    assert record["attempted"] == run.SETUP_RUNS + 2 * len(record["commands"])
    assert set(record["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in record["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_traced_run_reports_every_layer_metric(name):
    record = run.run_workload(WORKLOADS[name], 5, seconds=0.0, trace=True, tiny=True)
    assert record["failed"] == 0, record["problems"]
    metrics = {k: v["value"] for k, v in record["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["cli.main_s"] > metrics["cli.self_s"] > 0
    assert metrics["ingest.rows_accepted"] == metrics["model.segments"] > 0
    assert 0 < metrics["ingest.useful_ratio"] < 1
    spans = record["spans"]
    assert len(spans) == metrics["trace.spans"]
    roots = [s for s in spans if s["parent"] is None]
    assert {s["name"] for s in roots} == {"cli.main"}
    assert len({s["trace"] for s in roots}) == len(roots) == len(record["commands"])
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if s["parent"] is not None:
            parent = by_id[s["parent"]]
            assert parent["start_ns"] <= s["start_ns"] <= s["end_ns"] <= parent["end_ns"]
            assert parent["trace"] == s["trace"]


def test_tracing_restores_the_cli_module():
    import rocqe.cli as cli
    import rocqe.decision as decision

    before = {name: getattr(cli, name) for name, _, _ in run.spans.CLI_TARGETS}
    run.run_workload(WORKLOADS["decide-wmt"], 5, seconds=0.0, trace=True, tiny=True)
    assert {name: getattr(cli, name) for name in before} == before
    assert decision.map_replicates.__module__ == "rocqe.bootstrap"


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_generation_is_deterministic_per_seed(name, tmp_path):
    workload = WORKLOADS[name]
    for sub, seed in (("a", 11), ("b", 11), ("c", 12)):
        (tmp_path / sub).mkdir()
        workload.build(seed, str(tmp_path / sub), workload.tiny, 1)
    a, b, c = (digests(tmp_path / sub) for sub in "abc")
    assert a == b
    assert a.keys() == c.keys() and a != c


def test_generated_values_parse_as_plain_floats(tmp_path):
    inputs = gen.wmt_inputs(2, str(tmp_path), 2, 50, target=1)
    for key in ("gold", "cont", "dec3", "int100"):
        for line in Path(inputs.files[key]).read_text().splitlines():
            value = line.split("\t")[1]
            assert value == "None" or float(value) == float(value)


def _first_ok_run(tmp_path, name):
    workload = WORKLOADS[name]
    _, commands = workload.build(9, str(tmp_path), workload.tiny, 1)
    import rocqe.cli as cli

    ops = run.Operations()
    for command in commands:
        status, _ = run.run_api(cli.main, command.argv)
        ops.verify(command, status)
    assert ops.failed == 0, ops.problems
    return commands, ops


def test_tampered_report_counts_as_failed(tmp_path):
    commands, _ = _first_ok_run(tmp_path, "report-100k")
    roc = next(c for c in commands if c.name == "roc")
    report = json.loads(Path(roc.outputs[0]).read_text())
    report["results"]["metrics"]["qe"]["auc"] += 1e-6
    Path(roc.outputs[0]).write_text(json.dumps(report))
    fresh = run.Operations()
    fresh.verify(roc, 0)
    assert (fresh.attempted, fresh.failed) == (1, 1)
    assert "pairwise" in fresh.problems[0]


def test_dropped_table_row_counts_as_failed(tmp_path):
    commands, _ = _first_ok_run(tmp_path, "report-100k")
    table = next(c for c in commands if c.name == "table")
    lines = Path(table.outputs[0]).read_text().splitlines(keepends=True)
    Path(table.outputs[0]).write_text("".join(lines[:5] + lines[6:]))
    fresh = run.Operations()
    fresh.verify(table, 0)
    assert fresh.failed == 1


def test_hull_above_curve_check_catches_a_low_hull(tmp_path):
    commands, _ = _first_ok_run(tmp_path, "decide-wmt")
    hull = next(c for c in commands if c.name == "hull")
    report = json.loads(Path(hull.outputs[0]).read_text())
    vertices = report["results"]["hull"]["vertices"]
    vertices[len(vertices) // 2]["tpr"] -= 0.05
    Path(hull.outputs[0]).write_text(json.dumps(report))
    fresh = run.Operations()
    fresh.verify(hull, 0)
    assert fresh.failed == 1


def test_changed_bytes_on_a_repeat_count_as_failed(tmp_path):
    commands, ops = _first_ok_run(tmp_path, "band-20k")
    band = commands[0]
    with open(band.outputs[1], "a", encoding="utf-8") as handle:
        handle.write("\n")  # still a valid svg, but not the bytes of the first run
    ops.verify(band, 0)
    assert ops.failed == 1 and "differ" in ops.problems[0]
    ops.verify(band, 4)
    assert ops.failed == 2


def test_benchmark_json_matches_what_the_runner_emits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "band-20k", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_child_peak_rss_is_the_childs_own():
    ballast = bytearray(300 * 2**20)
    ballast[:: 4096] = b"\1" * len(range(0, len(ballast), 4096))  # make it resident
    spawner = run.Spawner()
    try:
        status, text, _, _, maxrss_kib = spawner.run(["--version"], capture_stdout=True)
    finally:
        spawner.close()
    assert status == 0 and text.startswith("rocqe ")
    assert maxrss_kib < 200 * 1024 < len(ballast) // 1024

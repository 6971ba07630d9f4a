import dataclasses
import gc
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import weakref
from fractions import Fraction

import numpy as np
import pytest

import rocqe.bootstrap as bootstrap_module
import rocqe.cli as cli_module
import rocqe.decision as decision_module
import rocqe.ingest as ingest_module
import rocqe.report as report_module
import rocqe.svgplot as svgplot_module
from rocqe import (
    STRICT_ANY_ERROR, BootstrapConfig, CanonicalRecords, Dataset, IngestError, Label, Orientation,
    ScoredSegment, build_roc, confidence_band, to_dataset,
)
from rocqe.cli import LoadedInputs, _restrict_to_common_ids, main
from rocqe.ingest import parse_canonical_tsv, parse_wmt_layout
from rocqe.model import Ranking
from rocqe.roc import RocVertex
from rocqe.svgplot import SvgSeries, render_roc_svg
from helpers import exact_auc, fingerprint, load_common, traced_peak

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The cli helpers these tests call directly (``_load``,
# ``_restrict_to_common_ids``) read the library names as module globals,
# which ``main`` binds; bind them here, whichever test runs first.
cli_module._bind_library()

GOLD = ["--gold", "tests/fixtures/sample10.gold.tsv"]
SCORES = ["--scores", "metric=tests/fixtures/sample10.scores.tsv"]
ORIENT = ["--orientation", "metric=higher-better"]
BASE = GOLD + SCORES + ORIENT
RISKB = ["--scores", "riskb=tests/fixtures/sample10.riskb.tsv"]

TABLE_GOLDEN = """segment_id\tground_truth\tscore\ttp\tfn\tfp\ttn\ttpr\tfpr
-\t-\t-inf\t0\t6\t0\t4\t0.00\t0.00
5\terror\t25.0\t1\t5\t0\t4\t0.17\t0.00
9\tno error\t75.0\t1\t5\t1\t3\t0.17\t0.25
6\terror\t93.0\t2\t4\t1\t3\t0.33\t0.25
1\terror\t95.0\t3\t3\t3\t1\t0.50\t0.75
2\tno error\t95.0\t3\t3\t3\t1\t0.50\t0.75
4\tno error\t95.0\t3\t3\t3\t1\t0.50\t0.75
10\terror\t99.0\t5\t1\t3\t1\t0.83\t0.75
8\terror\t99.0\t5\t1\t3\t1\t0.83\t0.75
3\tno error\t100.0\t6\t0\t4\t0\t1.00\t1.00
7\terror\t100.0\t6\t0\t4\t0\t1.00\t1.00
-\t-\tinf\t6\t0\t4\t0\t1.00\t1.00
"""


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = int(exc.code or 0)
    out, err = capsys.readouterr()
    return code, out, err


def run_json(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 0, err
    return json.loads(out)


class TestExitCodes:
    def test_success_returns_zero(self, capsys):
        code, out, _ = run_cli(["roc", *BASE], capsys)
        assert code == 0
        assert json.loads(out)["schema_version"] == 1

    def test_missing_file_returns_two(self, capsys):
        code, _, err = run_cli(
            ["roc", "--gold", "nope.tsv", *SCORES, *ORIENT], capsys
        )
        assert code == 2
        assert "input error" in err

    def test_degenerate_sample_returns_three(self, tmp_path, capsys):
        gold = tmp_path / "allclean.tsv"
        gold.write_text("a\t0.0\nb\t0.0\n")
        scores = tmp_path / "scores.tsv"
        scores.write_text("a\t0.4\nb\t0.6\n")
        code, _, err = run_cli(
            ["roc", "--gold", str(gold), "--scores", f"m={scores}"], capsys
        )
        assert code == 3
        assert "degenerate" in err

    def test_bad_cutoff_returns_four(self, capsys):
        code, _, err = run_cli(["roc", *BASE, "--cutoff", "fuzzy"], capsys)
        assert code == 4
        assert "config error" in err

    @pytest.mark.parametrize("cutoff", ["custom:nan", "custom:-inf"])
    def test_non_finite_custom_cutoff_returns_four(self, cutoff, capsys):
        code, out, err = run_cli(["diagnose", *BASE, "--cutoff", cutoff], capsys)
        assert code == 4
        assert out == ""
        assert "finite" in err

    def test_workers_below_one_returns_four_with_bootstrap(self, capsys):
        code, out, err = run_cli(["roc", *BASE, "--bootstrap", "10", "--workers", "0"], capsys)
        assert code == 4
        assert out == ""
        assert "workers must be >= 1" in err

    def test_workers_ignored_without_bootstrap(self, capsys):
        _, plain, _ = run_cli(["roc", *BASE], capsys)
        code, out, _ = run_cli(["roc", *BASE, "--workers", "3"], capsys)
        assert code == 0 and out == plain

    @pytest.mark.parametrize("command", [
        ["roc"], ["diagnose"], ["scenario", "--scenario", "1", "--x", "0.3"],
    ])
    @pytest.mark.parametrize("flag, value, message", [
        ("--workers", "0", "workers must be >= 1"),
        ("--confidence", "nan", "confidence must lie strictly between 0 and 1"),
        ("--confidence", "0", "confidence must lie strictly between 0 and 1"),
        ("--confidence", "1", "confidence must lie strictly between 0 and 1"),
    ])
    def test_bad_bootstrap_flags_return_four_without_bootstrap(
        self, command, flag, value, message, capsys
    ):
        code, out, err = run_cli([*command, *BASE, flag, value], capsys)
        assert (code, out) == (4, "")
        assert f"config error: {message}" in err

    @pytest.mark.parametrize("flag, value, message", [
        ("--workers", "0", "config error: workers must be >= 1"),
        # hull resamples nothing, so it refuses the resampling flags.
        ("--confidence", "nan", "usage: rocqe hull [-h]"),
    ])
    def test_bad_bootstrap_flags_return_four_in_hull(self, flag, value, message, capsys):
        code, out, err = run_cli(["hull", *GOLD, *SCORES, *RISKB, flag, value], capsys)
        assert (code, out) == (4, "") and err.startswith(message)

    def test_unknown_flag_returns_four(self, capsys):
        code, _, _ = run_cli(["roc", *BASE, "--frobnicate"], capsys)
        assert code == 4

    def test_bad_scores_assignment_returns_four(self, capsys):
        code, _, _ = run_cli(
            ["roc", *GOLD, "--scores", "missing-the-equals-sign"], capsys
        )
        assert code == 4

    def test_scenario_one_requires_x(self, capsys):
        code, _, err = run_cli(["scenario", *BASE, "--scenario", "1"], capsys)
        assert code == 4
        assert "--x" in err

    def test_scenario_two_requires_y(self, capsys):
        code, _, err = run_cli(["scenario", *BASE, "--scenario", "2"], capsys)
        assert code == 4
        assert "--y" in err

    def test_class_ratio_requires_trade_off(self, capsys):
        code, _, err = run_cli(
            ["scenario", *BASE, "--scenario", "1", "--x", "0.3", "--class-ratio", "1:5"],
            capsys,
        )
        assert code == 4
        assert "trade-off" in err

    def test_hull_requires_two_metrics(self, capsys):
        code, _, err = run_cli(["hull", *BASE], capsys)
        assert code == 4
        assert "two" in err or "2" in err

    def test_table_requires_single_metric(self, capsys):
        code, _, _ = run_cli(
            [
                "table",
                *BASE,
                "--scores",
                "riskb=tests/fixtures/sample10.riskb.tsv",
            ],
            capsys,
        )
        assert code == 4

    @pytest.mark.parametrize(
        "argv, seed_env",
        [
            pytest.param(["hull", *SCORES, *ORIENT, *RISKB], "abc", id="hull-seed-env"),
            pytest.param(["hull", *SCORES, *ORIENT], None, id="hull-one-metric"),
            pytest.param(["table", *SCORES, *ORIENT, *RISKB], None, id="table-two-metrics"),
            pytest.param(["scenario", *SCORES, "--scenario", "1"], None, id="no-x"),
            pytest.param(["scenario", *SCORES, "--scenario", "2"], None, id="no-y"),
            pytest.param(
                ["scenario", *SCORES, "--scenario", "1", "--x", "0.3", "--bootstrap", "20000",
                 "--class-ratio", "1:5"],
                None,
                id="ratio-without-trade-off",
            ),
            pytest.param(
                ["scenario", *SCORES, "--scenario", "1", "--x", "0.3", "--trade-off", "1-10"],
                None,
                id="bad-trade-off",
            ),
            pytest.param(
                ["scenario", *SCORES, "--scenario", "2", "--y", "10", "--trade-off", "1:10",
                 "--class-ratio", "0:5"],
                None,
                id="bad-class-ratio",
            ),
            pytest.param(
                ["scenario", *SCORES, "--scenario", "2", "--y", "10", "--bootstrap", "20"],
                "abc",
                id="scenario-seed-env",
            ),
            pytest.param(
                ["roc", *SCORES, "--bootstrap", "10", "--confidence", "1.5"],
                None,
                id="roc-confidence",
            ),
            pytest.param(["diagnose", *SCORES], "-3", id="diagnose-seed-env-without-bootstrap"),
            pytest.param(
                ["diagnose", *SCORES, "--bootstrap", "1"], None, id="diagnose-iterations"
            ),
            pytest.param(
                ["hull", *SCORES, *RISKB, "--workers", "0"],
                None,
                id="hull-workers",
            ),
            pytest.param(
                ["scenario", *SCORES, "--scenario", "2", "--y", "10", "--bootstrap", "10",
                 "--confidence", "1.5"],
                None,
                id="scenario-confidence",
            ),
        ],
    )
    @pytest.mark.parametrize("gold", [GOLD[1], "nope.tsv"])
    def test_flag_errors_come_before_any_input(
        self, argv, seed_env, gold, tmp_path, capsys, monkeypatch
    ):
        if seed_env is not None:
            monkeypatch.setenv("ROCQE_SEED", seed_env)
        outputs = ["--out", str(tmp_path / "report")]
        if argv[0] in SVG_COMMANDS:
            outputs += ["--svg", str(tmp_path / "plot.svg")]
        code, out, err = run_cli([*argv, "--gold", gold, *outputs], capsys)
        assert code == 4, err
        assert "config error" in err
        assert out == "" and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--scenario", "1", "--x", "1.5"], "review fraction"),
            (["--scenario", "1", "--x", "0"], "review fraction"),
            (["--scenario", "1", "--x", "nan"], "review fraction"),
            (["--scenario", "2", "--y", "100.5"], "tolerable fn per 100"),
            (["--scenario", "2", "--y", "-1"], "tolerable fn per 100"),
            (["--scenario", "1", "--x", "0.3", "--review-efficacy", "0"], "review efficacy"),
            (["--scenario", "2", "--y", "10", "--review-efficacy", "1.5"], "review efficacy"),
        ],
    )
    def test_scenario_ranges_are_checked_before_any_input(
        self, flags, message, capsys, monkeypatch
    ):
        def refuse(args):
            raise AssertionError("an input was read")

        monkeypatch.setattr(cli_module, "_load", refuse)
        code, out, err = run_cli(["scenario", "--gold", "nope.tsv", *SCORES, *flags], capsys)
        assert code == 4, err
        assert err.startswith("config error: " + message) and out == ""

    def test_wmt_mode_requires_all_coordinates(self, capsys):
        code, _, err = run_cli(
            ["roc", "--wmt-root", "tests/fixtures/wmt_mini", "--scores", "metricA"],
            capsys,
        )
        assert code == 4

    def test_wmt_mode_rejects_gold_flag(self, capsys):
        code, _, _ = run_cli(
            [
                "roc",
                "--wmt-root", "tests/fixtures/wmt_mini",
                "--lang-pair", "zh-en",
                "--testset", "wmt23",
                "--system", "sysX",
                "--scores", "metricA",
                *GOLD,
            ],
            capsys,
        )
        assert code == 4

    def test_wmt_unknown_metric_returns_two(self, capsys):
        code, _, err = run_cli(
            [
                "roc",
                "--wmt-root", "tests/fixtures/wmt_mini",
                "--lang-pair", "zh-en",
                "--testset", "wmt23",
                "--system", "sysX",
                "--scores", "nosuchmetric",
            ],
            capsys,
        )
        assert code == 2
        assert "metricA" in err

    def test_hull_without_common_ids_returns_two(self, tmp_path, capsys):
        # Each metric covers a different half of the gold ids, so the
        # cross-metric intersection is empty.
        gold = tmp_path / "g.tsv"
        gold.write_text("a\t-1.0\nb\t0.0\nc\t-2.0\nd\t0.0\n")
        first = tmp_path / "m1.tsv"
        first.write_text("a\t0.5\nb\t0.1\n")
        second = tmp_path / "m2.tsv"
        second.write_text("c\t0.7\nd\t0.2\n")
        code, _, err = run_cli(
            [
                "hull",
                "--gold", str(gold),
                "--scores", f"m1={first}",
                "--scores", f"m2={second}",
            ],
            capsys,
        )
        assert code == 2
        assert "shared" in err

    def test_strict_mode_promotes_malformed_to_error(self, tmp_path, capsys):
        gold = tmp_path / "g.tsv"
        gold.write_text("a\t-1.0\nbroken-line\nb\t0.0\n")
        scores = tmp_path / "s.tsv"
        scores.write_text("a\t0.9\nb\t0.1\n")
        args = ["roc", "--gold", str(gold), "--scores", f"m={scores}"]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        report = json.loads(out)["ingest"]["m"]
        assert report["skipped_malformed"] == 1
        code, _, err = run_cli(args + ["--strict"], capsys)
        assert code == 2

    def test_version_prints_and_exits_zero(self, capsys):
        code, out, _ = run_cli(["--version"], capsys)
        assert code == 0
        assert "0.1.0" in out


def _not_utf8(path) -> str:
    path.write_bytes(b"1\t-1.0\n2\t0.\xff\n")
    return str(path)


def _wmt_tree(tmp_path):
    """A copy of the wmt_mini tree, at ``tmp_path / "wmt"``."""
    root = tmp_path / "wmt"
    shutil.copytree(os.path.join(ROOT, "tests", "fixtures", "wmt_mini"), root)
    return root


def _wmt_with_bad_metric(tmp_path) -> str:
    return _not_utf8(_wmt_tree(tmp_path) / "wmt23" / "metric-scores" / "zh-en" / "metricA.seg.score")


# Each case: a tmp_path -> (argv, the path the error must name).
UNREADABLE = {
    "gold missing": lambda tmp: (
        ["roc", "--gold", str(tmp / "no.tsv"), *SCORES, "--out", str(tmp / "r.json")],
        str(tmp / "no.tsv"),
    ),
    "scores missing": lambda tmp: (
        ["table", *GOLD, "--scores", f"m={tmp / 'no.tsv'}", "--out", str(tmp / "t.tsv")],
        str(tmp / "no.tsv"),
    ),
    "WMT metric missing": lambda tmp: (
        ["roc", "--wmt-root", "tests/fixtures/wmt_mini", "--lang-pair", "zh-en",
         "--testset", "wmt23", "--system", "sysX", "--scores", "nosuch",
         "--out", str(tmp / "r.json")],
        "nosuch.seg.score",
    ),
    "scores is a directory": lambda tmp: (["roc", *GOLD, "--scores", f"m={tmp}"], str(tmp)),
    "gold is a directory": lambda tmp: (["roc", "--gold", str(tmp), *SCORES], str(tmp)),
    "out is a directory": lambda tmp: (["roc", *BASE, "--out", str(tmp)], str(tmp)),
    "svg is a directory": lambda tmp: (["roc", *BASE, "--svg", str(tmp)], str(tmp)),
    "out is a directory after a good svg": lambda tmp: (
        ["roc", *BASE, "--svg", str(tmp / "ok.svg"), "--out", str(tmp)], str(tmp)
    ),
    "out directory missing after a good svg": lambda tmp: (
        ["hull", *BASE, *RISKB, "--svg", str(tmp / "ok.svg"), "--out", str(tmp / "no" / "r.json")],
        str(tmp / "no" / "r.json"),
    ),
    "svg directory missing before a good out": lambda tmp: (
        ["roc", *BASE, "--svg", str(tmp / "no" / "p.svg"), "--out", str(tmp / "r.json")],
        str(tmp / "no" / "p.svg"),
    ),
    "table out directory missing": lambda tmp: (
        ["table", *BASE, "--out", str(tmp / "no" / "t.tsv")], str(tmp / "no" / "t.tsv")
    ),
    "scores not UTF-8": lambda tmp: (
        ["roc", *GOLD, "--scores", f"m={_not_utf8(tmp / 's.tsv')}"], str(tmp / "s.tsv")
    ),
    "gold not UTF-8": lambda tmp: (
        ["table", "--gold", _not_utf8(tmp / "g.tsv"), *SCORES], str(tmp / "g.tsv")
    ),
    "WMT metric not UTF-8": lambda tmp: (
        ["roc", "--wmt-root", str(tmp / "wmt"), "--lang-pair", "zh-en", "--testset", "wmt23",
         "--system", "sysX", "--scores", "metricA"],
        _wmt_with_bad_metric(tmp),
    ),
}


def _copy_case(command, *flags, wmt=False):
    """A case that reads copies of fixtures in its directory: sample10 as
    ``g.tsv`` and ``s.tsv``, or with ``wmt`` the wmt_mini tree as ``wmt``.
    ``{tmp}`` in ``flags`` stands for the directory; the last flag is the
    path the error must name."""
    def case(tmp):
        if wmt:
            inputs = ["--wmt-root", str(_wmt_tree(tmp)), "--lang-pair", "zh-en",
                      "--testset", "wmt23", "--system", "sysX",
                      "--scores", "metricA", "--scores", "metricB"]
        else:
            shutil.copy(os.path.join(ROOT, GOLD[1]), tmp / "g.tsv")
            shutil.copy(os.path.join(ROOT, SCORES[1].split("=", 1)[1]), tmp / "s.tsv")
            inputs = ["--gold", str(tmp / "g.tsv"), "--scores", f"m={tmp / 's.tsv'}"]
        argv = [command, *inputs, *(flag.format(tmp=tmp) for flag in flags)]
        return argv, argv[-1]
    return case


def _out_links_to_scores(tmp):
    os.symlink(tmp / "s.tsv", tmp / "link.tsv")
    return _copy_case("roc", "--out", "{tmp}/link.tsv")(tmp)


UNREADABLE.update({
    "table out is the gold file": _copy_case("table", "--out", "{tmp}/g.tsv"),
    "scenario out is the gold file": _copy_case(
        "scenario", "--scenario", "1", "--x", "0.5", "--out", "{tmp}/g.tsv"),
    "roc svg is the gold file": _copy_case("roc", "--svg", "{tmp}/g.tsv"),
    "roc out is a link to the scores file": _out_links_to_scores,
    "svg and out name one file": lambda tmp: (
        ["roc", *BASE, "--svg", str(tmp / "x"), "--out", str(tmp / "x")], str(tmp / "x")
    ),
    "hull svg is a WMT score file": _copy_case(
        "hull", "--out", "{tmp}/r.json",
        "--svg", "{tmp}/wmt/wmt23/metric-scores/zh-en/metricB.seg.score", wmt=True),
    "diagnose out is the WMT gold file": _copy_case(
        "diagnose", "--out", "{tmp}/wmt/wmt23/human-scores/zh-en.mqm.merged.seg.score", wmt=True),
})


# The UNREADABLE cases whose file is an output, and the reason printed
# (``{tmp}`` stands for the case's directory).
UNWRITABLE = {
    "out is a directory": "Is a directory",
    "svg is a directory": "Is a directory",
    "out is a directory after a good svg": "Is a directory",
    "out directory missing after a good svg": "No such file or directory",
    "svg directory missing before a good out": "No such file or directory",
    "table out directory missing": "No such file or directory",
    "table out is the gold file": "same file as input {tmp}/g.tsv",
    "scenario out is the gold file": "same file as input {tmp}/g.tsv",
    "roc svg is the gold file": "same file as input {tmp}/g.tsv",
    "roc out is a link to the scores file": "same file as input {tmp}/s.tsv",
    "svg and out name one file": "same file as output {tmp}/x",
    "hull svg is a WMT score file":
        "same file as input {tmp}/wmt/wmt23/metric-scores/zh-en/metricB.seg.score",
    "diagnose out is the WMT gold file":
        "same file as input {tmp}/wmt/wmt23/human-scores/zh-en.mqm.merged.seg.score",
}


# Flags the parser or a command refuses: each case is argv (``{tmp}``
# stands for the case's directory) and the start of what stderr must say.
# Every case also names an --out, and an --svg when its command takes one.
CONFIG_ERRORS = {
    "bootstrap not an integer": (["roc", *BASE, "--bootstrap", "x"], "usage: rocqe roc"),
    "unknown flag": (["roc", *BASE, "--bogus"], "usage: rocqe roc [-h]"),
    "unknown flag before the command": (["--bogus", "roc", *BASE], "usage: rocqe [-h] [--version]"),
    "stray argument": (["hull", *BASE, *RISKB, "extra"], "usage: rocqe hull [-h]"),
    "unknown command": (["nosuch"], "usage: rocqe"),
    "scenario out of range": (["scenario", *BASE, "--scenario", "3"], "usage: rocqe scenario"),
    "unknown cutoff": (["roc", *BASE, "--cutoff", "bogus"], "config error: unknown cutoff"),
    "confidence above one": (["roc", *BASE, "--confidence", "1.5"], "config error: "),
    "scores without a metric name": (["roc", *GOLD, "--scores", "x.tsv"], "config error: --scores"),
    "no workers": (["roc", *BASE, "--workers", "0"], "config error: workers"),
    "negative seed": (["roc", *BASE, "--seed", "-1"], "config error: seed"),
    "seed past 64 bits": (["diagnose", *BASE, "--seed", "18446744073709551616"],
                          "config error: seed"),
    "scenario 1 without x": (["scenario", *BASE, "--scenario", "1"], "config error: scenario 1"),
    "wmt flags without --wmt-root": (["roc", *BASE, "--system", "sysX", "--lang-pair", "zh-en"],
                                     "config error: --lang-pair, --testset and --system"),
    "scenario 1 with y": (["scenario", *BASE, "--scenario", "1", "--x", "0.3", "--y", "5"],
                          "config error: --y does not apply to scenario 1"),
    "scenario 2 with x": (["scenario", *BASE, "--scenario", "2", "--y", "10", "--x", "0.3"],
                          "config error: --x does not apply to scenario 2"),
    "scenario 2 with --ci-method": (["scenario", *BASE, "--scenario", "2", "--y", "10",
                                     "--ci-method", "band", "--bootstrap", "20"],
                                    "config error: --ci-method does not apply to scenario 2"),
    "table with two metrics": (["table", *BASE, *RISKB], "config error: the table command"),
    "hull with one metric": (["hull", *BASE], "config error: the hull command"),
    "table with --bootstrap": (["table", *BASE, "--bootstrap", "1"], "usage: rocqe table [-h]"),
    "table with --confidence": (["table", *BASE, "--confidence", "5"], "usage: rocqe table [-h]"),
    "table with --workers": (["table", *BASE, "--workers", "0"], "usage: rocqe table [-h]"),
    "table with --seed": (["table", *BASE, "--seed", "-3"], "usage: rocqe table [-h]"),
    "table with --svg": (["table", *BASE, "--svg", "{tmp}/t.svg"], "usage: rocqe table [-h]"),
    "scenario with --svg": (["scenario", *BASE, "--scenario", "1", "--x", "0.5", "--svg", "{tmp}/s.svg"],
                            "usage: rocqe scenario [-h]"),
    "diagnose with --svg": (["diagnose", *BASE, "--svg", "{tmp}/d.svg"],
                            "usage: rocqe diagnose [-h]"),
    "roc with --scenario": (["roc", *BASE, "--scenario", "1"], "usage: rocqe roc [-h]"),
}

SVG_COMMANDS = {"roc", "hull"}


def _files_under(directory) -> dict[str, bytes]:
    """Every file under ``directory`` by relative path, with its bytes."""
    files = {}
    for parent, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(parent, name)
            with open(path, "rb") as handle:
                files[os.path.relpath(path, directory)] = handle.read()
    return files


@pytest.mark.parametrize("case", list(UNREADABLE))
def test_unreadable_file_exits_two(case, tmp_path):
    """A file that cannot be opened, read or decoded is an input or output error,
    named, not a traceback, and the run writes no file."""
    argv, path = UNREADABLE[case](tmp_path)
    inputs = _files_under(tmp_path)
    run = _run_child(argv)
    assert run.returncode == 2, run.stderr
    if case in UNWRITABLE:
        reason = UNWRITABLE[case].format(tmp=tmp_path)
        assert run.stderr == f"output error: {path}: {reason}\n"
    else:
        assert run.stderr.startswith("input error: ") and path in run.stderr
    assert "Traceback" not in run.stderr
    assert _files_under(tmp_path) == inputs


@pytest.mark.parametrize("case", list(CONFIG_ERRORS))
def test_refused_flags_exit_four(case, tmp_path):
    """A flag the run refuses is a config error, not a traceback, and the run writes no file."""
    argv, prefix = CONFIG_ERRORS[case]
    outputs = ["--out", str(tmp_path / "r.json")]
    if argv[0] in SVG_COMMANDS:
        outputs += ["--svg", str(tmp_path / "p.svg")]
    run = _run_child([*(arg.format(tmp=tmp_path) for arg in argv), *outputs])
    assert run.returncode == 4, run.stderr
    assert run.stderr.startswith(prefix), run.stderr
    assert "Traceback" not in run.stderr
    assert run.stdout == ""
    assert _files_under(tmp_path) == {}


# The flag groups each command takes besides the input flags, which all
# take, as README states them; written out here, not read from rocqe.cli.
COMMAND_GROUPS = {
    "roc": {"resampling", "workers", "svg"},
    "table": set(),
    "scenario": {"resampling", "workers", "scenario"},
    "hull": {"workers", "svg"},
    "diagnose": {"resampling", "workers"},
}
# Every flag of each group, with a value a command that takes it accepts.
GROUP_FLAGS = {
    "resampling": [["--bootstrap", "5"], ["--confidence", "0.9"], ["--seed", "3"]],
    "workers": [["--workers", "2"]],
    "svg": [["--svg", "{tmp}/flag.svg"]],
    "scenario": [["--scenario", "1"], ["--x", "0.3"], ["--y", "5"], ["--trade-off", "1:10"],
                 ["--class-ratio", "1:5"], ["--review-efficacy", "0.5"], ["--ci-method", "band"]],
}
WMT_ONE = ["--wmt-root", "tests/fixtures/wmt_mini", "--lang-pair", "zh-en", "--testset", "wmt23",
           "--system", "sysY", "--scores", "metricA"]


def _command_argv(command, wmt=False):
    """A run of ``command`` that succeeds, on sample10 or on the WMT tree."""
    argv = [command, *(WMT_ONE if wmt else BASE)]
    if command == "hull":
        argv += ["--scores", "metricB"] if wmt else RISKB
    if command == "scenario":
        argv += ["--scenario", "1", "--x", "0.3"]
    return argv


def _without(argv, flag):
    """``argv`` without ``flag`` and its value."""
    at = argv.index(flag)
    return argv[:at] + argv[at + 2:]


def _conditional_refusals():
    """(argv, the config error) for every refusal that hangs on another flag."""
    scenario1 = _command_argv("scenario")
    scenario2 = ["scenario", *BASE, "--scenario", "2", "--y", "10"]
    cases = {
        "scenario1-needs-x": (_without(scenario1, "--x"), "scenario 1 needs --x"),
        "scenario1-refuses-y": ([*scenario1, "--y", "5"], "--y does not apply to scenario 1"),
        "scenario2-needs-y": (_without(scenario2, "--y"), "scenario 2 needs --y"),
        "scenario2-refuses-x": ([*scenario2, "--x", "0.3"], "--x does not apply to scenario 2"),
        "scenario2-refuses-ci-method": ([*scenario2, "--ci-method", "band"],
                                        "--ci-method does not apply to scenario 2"),
        "scenario1-class-ratio-needs-trade-off": ([*scenario1, "--class-ratio", "1:5"],
                                                  "--class-ratio requires --trade-off"),
        "scenario2-class-ratio-needs-trade-off": ([*scenario2, "--class-ratio", "1:5"],
                                                  "--class-ratio requires --trade-off"),
    }
    for command in COMMAND_GROUPS:
        cases[f"{command}-needs-gold"] = (
            _without(_command_argv(command), "--gold"), "--gold is required (or use --wmt-root)")
        cases[f"{command}-wmt-refuses-gold"] = (
            [*_command_argv(command, wmt=True), *GOLD], "--gold does not apply in --wmt-root mode")
        for flag, value in (("--lang-pair", "zh-en"), ("--testset", "wmt23"), ("--system", "sysY")):
            cases[f"{command}-{flag[2:]}-needs-wmt-root"] = (
                [*_command_argv(command), flag, value],
                "--lang-pair, --testset and --system apply only in --wmt-root mode")
            cases[f"{command}-wmt-root-needs-{flag[2:]}"] = (
                _without(_command_argv(command, wmt=True), flag),
                "--wmt-root needs --lang-pair, --testset and --system")
    return [pytest.param(argv, message, id=name) for name, (argv, message) in cases.items()]


class TestCommandTable:
    """Each command takes the flag groups README names and refuses the others,
    and every refusal that hangs on another flag is a config error."""

    @staticmethod
    def _run(argv, tmp_path, capsys):
        """``argv`` with an --out, and an --svg for roc and hull, in ``tmp_path``."""
        outputs = ["--out", str(tmp_path / "r.json")]
        if argv[0] in SVG_COMMANDS:
            outputs += ["--svg", str(tmp_path / "p.svg")]
        return run_cli([*(arg.format(tmp=tmp_path) for arg in argv), *outputs], capsys)

    @pytest.mark.parametrize("command", list(COMMAND_GROUPS))
    def test_each_command_takes_its_groups(self, command, tmp_path, capsys):
        argv = _command_argv(command)
        for group in sorted(COMMAND_GROUPS[command]):
            argv += GROUP_FLAGS[group][0]
        assert self._run(argv, tmp_path, capsys) == (0, "", "")

    @pytest.mark.parametrize("command, flag", [
        pytest.param(command, flag, id=f"{command}-{group}-{flag[0]}")
        for command, taken in COMMAND_GROUPS.items()
        for group, flags in GROUP_FLAGS.items() if group not in taken
        for flag in flags
    ])
    def test_a_flag_of_a_group_it_does_not_take_is_refused(self, command, flag, tmp_path, capsys):
        code, out, err = self._run([*_command_argv(command), *flag], tmp_path, capsys)
        assert (code, out) == (4, "")
        assert err.startswith(f"usage: rocqe {command} [-h]")
        assert f"error: unrecognized arguments: {flag[0]}" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, message", _conditional_refusals())
    def test_each_conditional_refusal(self, argv, message, tmp_path, capsys):
        code, out, err = self._run(argv, tmp_path, capsys)
        assert (code, out) == (4, "")
        assert err.startswith(f"config error: {message}"), err
        assert list(tmp_path.iterdir()) == []


def test_outputs_may_share_a_device():
    """Only a regular file can be replaced, so both outputs may go to the null device."""
    run = _run_child(["roc", *BASE, "--svg", os.devnull, "--out", os.devnull])
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""


def _run_child(argv) -> subprocess.CompletedProcess:
    """``python -m rocqe.cli argv`` from the repository root, output captured."""
    return subprocess.run(
        [sys.executable, "-m", "rocqe.cli", *argv],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )


def test_closed_stdout_is_an_output_error():
    """A report piped into a reader that is gone exits 2 with one line, and
    nothing more is printed when the interpreter flushes stdout at exit."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = subprocess.run(
            [sys.executable, "-m", "rocqe.cli", "table", *BASE],
            cwd=ROOT, stdout=write_end, stderr=subprocess.PIPE, text=True, check=False,
        )
    finally:
        os.close(write_end)
    assert run.returncode == 2
    assert run.stderr == "output error: stdout: Broken pipe\n"


def test_svg_directory_is_an_output_error(tmp_path, capsys):
    argv = ["hull", *BASE, "--scores", "riskb=tests/fixtures/sample10.riskb.tsv"]
    out = tmp_path / "report.json"
    code, _, err = run_cli([*argv, "--svg", str(tmp_path), "--out", str(out)], capsys)
    assert code == 2
    assert err == f"output error: {tmp_path}: Is a directory\n"
    assert not out.exists()


class TestDeterminism:
    def test_roc_reports_are_byte_identical(self, capsys):
        args = ["roc", *BASE, "--bootstrap", "100", "--seed", "7"]
        _, first, _ = run_cli(args, capsys)
        _, second, _ = run_cli(args, capsys)
        assert first == second

    def test_worker_count_does_not_change_bytes(self, capsys):
        args = ["roc", *BASE, "--bootstrap", "100", "--seed", "7"]
        _, serial, _ = run_cli(args + ["--workers", "1"], capsys)
        _, parallel, _ = run_cli(args + ["--workers", "4"], capsys)
        assert serial == parallel

    def test_seed_env_is_honored(self, capsys, monkeypatch):
        args = ["roc", *BASE, "--bootstrap", "50"]
        monkeypatch.setenv("ROCQE_SEED", "21")
        doc_env = run_json(args, capsys)
        monkeypatch.delenv("ROCQE_SEED")
        doc_flag = run_json(args + ["--seed", "21"], capsys)
        assert doc_env["results"] == doc_flag["results"]
        assert doc_env["config"]["seed"] == 21

    def test_seed_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("ROCQE_SEED", "21")
        doc = run_json(["roc", *BASE, "--seed", "5"], capsys)
        assert doc["config"]["seed"] == 5

    def test_default_seed_is_zero(self, capsys):
        doc = run_json(["roc", *BASE], capsys)
        assert doc["config"]["seed"] == 0


class TestRocCommand:
    def test_report_schema_keys(self, capsys):
        doc = run_json(["roc", *BASE], capsys)
        assert set(doc) == {
            "schema_version",
            "tool",
            "config",
            "ingest",
            "diagnostics",
            "notes",
            "results",
        }
        assert doc["tool"]["name"] == "rocqe"

    def test_curve_values(self, capsys):
        doc = run_json(["roc", *BASE], capsys)
        metric = doc["results"]["metrics"]["metric"]
        assert metric["auc"] == pytest.approx(11.5 / 24)
        assert len(metric["vertices"]) == 7
        assert metric["vertices"][0]["threshold"] == "inf"
        assert metric["vertices"][0]["threshold_raw"] == "-inf"
        assert metric["vertices"][-1]["threshold_raw"] == 100.0

    def test_band_attached_only_with_bootstrap(self, capsys):
        plain = run_json(["roc", *BASE], capsys)
        assert plain["results"]["metrics"]["metric"]["band"] is None
        banded = run_json(["roc", *BASE, "--bootstrap", "20"], capsys)
        band = banded["results"]["metrics"]["metric"]["band"]
        assert band["iterations"] == 20
        assert len(band["lower_tpr"]) == len(band["fpr_grid"])

    def test_diagnostics_included(self, capsys):
        doc = run_json(["roc", *BASE], capsys)
        codes = [f["code"] for f in doc["diagnostics"]["findings"]["metric"]]
        assert "MIN_CLASS_BELOW_50" in codes
        assert doc["diagnostics"]["note"]

    def test_out_writes_file(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, stdout, _ = run_cli(["roc", *BASE, "--out", str(out_path)], capsys)
        assert code == 0
        assert json.loads(out_path.read_text())["schema_version"] == 1

    def test_svg_written(self, tmp_path, capsys):
        svg_path = tmp_path / "curve.svg"
        code, _, _ = run_cli(
            ["roc", *BASE, "--bootstrap", "20", "--svg", str(svg_path)], capsys
        )
        assert code == 0
        svg = svg_path.read_text()
        assert svg.startswith("<?xml")
        assert "<svg" in svg
        assert svg.count("<polyline") == 1  # one curve
        assert "<polygon" in svg  # the band
        assert "metric" in svg  # legend entry

    def test_json_has_no_bare_infinities(self, capsys):
        code, out, _ = run_cli(["roc", *BASE], capsys)
        assert "Infinity" not in out
        json.loads(out)  # must stay strictly valid

    @pytest.mark.parametrize("block", [None, 1, 7])
    def test_svg_polyline_matches_per_point_formatting(self, block, monkeypatch):
        from rocqe.svgplot import _fmt, _polyline, _x, _y

        if block is not None:
            monkeypatch.setattr(svgplot_module, "_POINTS_PER_BLOCK", block)

        rng = np.random.default_rng(11)
        # Tied and repeated rates, as on a curve whose steps move one class.
        tied = np.repeat(rng.random(60), rng.integers(1, 6, size=60))[:200]
        fpr = np.concatenate(([0.0, 1.0, 0.5, 1 / 3], rng.random(500), tied, np.sort(tied)))
        tpr = np.concatenate(([0.0, 1.0, 2 / 3, 0.005], rng.random(500), np.sort(tied), tied))
        expected = " ".join(
            f"{_fmt(_x(f))},{_fmt(_y(t))}" for f, t in zip(fpr.tolist(), tpr.tolist())
        )
        assert _polyline(fpr, tpr) == expected
        assert _polyline(np.empty(0), np.empty(0)) == ""


class TestTableCommand:
    def test_golden_tsv(self, capsys):
        code, out, _ = run_cli(["table", *BASE], capsys)
        assert code == 0
        assert out == TABLE_GOLDEN

    def test_table_agrees_with_curve(self, capsys):
        code, out, _ = run_cli(["table", *BASE], capsys)
        lines = out.strip().split("\n")[1:]
        table_points = []
        for line in lines:
            cells = line.split("\t")
            pair = (cells[7], cells[8])
            if not table_points or table_points[-1] != pair:
                table_points.append(pair)
        doc = run_json(["roc", *BASE], capsys)
        curve_points = [
            (f"{v['tpr']:.2f}", f"{v['fpr']:.2f}")
            for v in doc["results"]["metrics"]["metric"]["vertices"]
        ]
        assert table_points == curve_points

    def test_out_writes_tsv(self, tmp_path, capsys):
        path = tmp_path / "table.tsv"
        run_cli(["table", *BASE, "--out", str(path)], capsys)
        assert path.read_text() == TABLE_GOLDEN


class TestScenarioCommand:
    def test_scenario_one_values(self, capsys):
        doc = run_json(["scenario", *BASE, "--scenario", "1", "--x", "0.3"], capsys)
        decision = doc["results"]["decision"]
        assert decision["scenario"] == "review-budget"
        assert decision["threshold_raw"] == 93.0
        assert decision["review_fraction"] == 0.3
        assert decision["residual_fn_per_100"] == 40.0

    def test_scenario_two_values(self, capsys):
        doc = run_json(["scenario", *BASE, "--scenario", "2", "--y", "10"], capsys)
        decision = doc["results"]["decision"]
        assert decision["scenario"] == "risk-target"
        assert decision["threshold_raw"] == 99.0
        assert decision["review_fraction"] == 0.8
        assert decision["residual_fn_per_100"] == 10.0

    def test_trade_off_adds_optimal_block(self, capsys):
        doc = run_json(
            [
                "scenario", *BASE,
                "--scenario", "1",
                "--x", "0.3",
                "--trade-off", "1:10",
                "--class-ratio", "1:5",
            ],
            capsys,
        )
        optimal = doc["results"]["optimal"]
        assert optimal["scenario"] == "optimal-threshold"
        assert optimal["threshold_raw"] == 100.0
        assert any("m = 0.5" in note for note in optimal["notes"])

    @pytest.mark.parametrize("scenario", [["1", "--x", "0.3"], ["2", "--y", "10"]])
    def test_trade_off_ranks_once(self, scenario, capsys, monkeypatch):
        ranked = []
        original = Ranking.__init__

        def counting(ranking, *args):
            ranked.append(ranking)
            original(ranking, *args)

        monkeypatch.setattr(Ranking, "__init__", counting)
        run_json(["scenario", *BASE, "--scenario", *scenario, "--trade-off", "1:10"], capsys)
        assert len(ranked) == 1

    def test_ci_attached_with_bootstrap(self, capsys):
        doc = run_json(
            ["scenario", *BASE, "--scenario", "1", "--x", "0.3", "--bootstrap", "50"],
            capsys,
        )
        ci = doc["results"]["decision"]["ci"]
        assert ci is not None and ci[0] <= ci[1]

    def test_band_ci_method(self, capsys):
        doc = run_json(
            [
                "scenario", *BASE,
                "--scenario", "1",
                "--x", "0.3",
                "--bootstrap", "50",
                "--ci-method", "band",
            ],
            capsys,
        )
        assert any("band" in n for n in doc["results"]["decision"]["notes"])

    def test_review_efficacy_flag(self, capsys):
        doc = run_json(
            [
                "scenario", *BASE,
                "--scenario", "1",
                "--x", "0.3",
                "--review-efficacy", "0.5",
            ],
            capsys,
        )
        assert doc["results"]["decision"]["residual_fn_per_100"] == 50.0

    def test_threshold_names_the_group_as_the_roc_vertex_does(self, tmp_path, capsys):
        # s3 (-0.0, clean) and s5 (0.0, error) form one tie group. Both
        # reports must name it by its last member in dataset order, s5.
        gold = tmp_path / "gold.tsv"
        gold.write_text("s0\t0\ns1\t-1\ns2\t-1\ns3\t0\ns4\t0\ns5\t-1\n")
        scores = tmp_path / "scores.tsv"
        scores.write_text("s0\t1.0\ns1\t1.0\ns2\t-1.0\ns3\t-0.0\ns4\t-1.0\ns5\t0.0\n")
        base = ["--gold", str(gold), "--scores", f"m={scores}"]
        roc = run_json(["roc", *base], capsys)
        decision = run_json(["scenario", *base, "--scenario", "1", "--x", "0.67"], capsys)
        decision = decision["results"]["decision"]
        flagged = round(decision["review_fraction"] * 6)
        [vertex] = [
            v for v in roc["results"]["metrics"]["m"]["vertices"] if v["tp"] + v["fp"] == flagged
        ]
        assert flagged == 4 and vertex["threshold"] == 0.0
        assert not np.signbit(vertex["threshold"])
        pairs = (
            (decision["threshold_canonical"], vertex["threshold"]),
            (decision["threshold_raw"], vertex["threshold_raw"]),
        )
        for got, want in pairs:
            assert got == want and np.signbit(got) == np.signbit(want)


class TestHullCommand:
    HULL_ARGS = [
        "hull",
        *BASE,
        "--scores",
        "riskb=tests/fixtures/sample10.riskb.tsv",
    ]

    def test_hull_vertices_and_sources(self, capsys):
        doc = run_json(self.HULL_ARGS, capsys)
        vertices = doc["results"]["hull"]["vertices"]
        assert [(v["fpr"], v["tpr"]) for v in vertices] == [
            (0.0, 0.0),
            (0.0, pytest.approx(1 / 3)),
            (1.0, 1.0),
        ]
        assert vertices[1]["source_system"] == "riskb"
        assert vertices[2]["source_system"] == "metric"

    def test_per_metric_blocks_present(self, capsys):
        doc = run_json(self.HULL_ARGS, capsys)
        metrics = doc["results"]["metrics"]
        assert set(metrics) == {"metric", "riskb"}
        assert metrics["metric"]["auc"] == pytest.approx(11.5 / 24)

    def test_hull_svg(self, tmp_path, capsys):
        path = tmp_path / "hull.svg"
        code, _, _ = run_cli(self.HULL_ARGS + ["--svg", str(path)], capsys)
        assert code == 0
        svg = path.read_text()
        assert "stroke-dasharray" in svg  # hull drawn dashed


class TestExactAuc:
    """Every AUC a report prints is the exact Mann-Whitney fraction, rounded once."""

    @pytest.fixture
    def paths(self, tmp_path):
        # Seeded rounded scores on which a float trapezoid sum over the rates
        # misses the exact AUC 84/125, in different last bits depending on
        # the summation order.
        rng = np.random.default_rng(173)
        positive = rng.random(40) < 0.4
        columns = {
            "a": np.round(rng.normal(size=40) + positive, 1),
            "b": np.round(rng.normal(size=40) + 0.5 * positive, 1),
        }
        ids = [f"s{i:02d}" for i in range(40)]
        gold = tmp_path / "gold.tsv"
        gold.write_text("".join(
            f"{sid}\t{-1.0 if pos else 0.0}\n" for sid, pos in zip(ids, positive)
        ))
        args = ["--gold", str(gold)]
        for name, risk in columns.items():
            path = tmp_path / f"{name}.tsv"
            path.write_text("".join(f"{sid}\t{r!r}\n" for sid, r in zip(ids, risk.tolist())))
            args += ["--scores", f"{name}={path}"]
        return args

    @staticmethod
    def _exact(entry) -> float:
        rows = entry["vertices"]
        return float(exact_auc([r["tp"] for r in rows], [r["fp"] for r in rows]))

    def test_roc_auc_equals_band_auc_point(self, paths, capsys):
        doc = run_json(["roc", *paths, "--bootstrap", "50", "--seed", "3"], capsys)
        metrics = doc["results"]["metrics"]
        assert metrics["a"]["auc"] == 0.672 == float(Fraction(84, 125))
        for entry in metrics.values():
            assert entry["auc"] == entry["band"]["auc_point"] == self._exact(entry)

    def test_hull_auc_is_the_exact_fraction(self, paths, capsys):
        doc = run_json(["hull", *paths], capsys)
        metrics = doc["results"]["metrics"]
        assert metrics["a"]["auc"] == 0.672
        for entry in metrics.values():
            assert entry["auc"] == self._exact(entry)

    def test_diagnose_auc_point_matches_roc(self, paths, capsys):
        roc = run_json(["roc", *paths], capsys)["results"]["metrics"]
        doc = run_json(["diagnose", *paths, "--bootstrap", "50"], capsys)
        for name, entry in doc["results"]["metrics"].items():
            assert entry["band"]["auc_point"] == roc[name]["auc"]


class TestDiagnoseCommand:
    def test_counts_and_findings(self, capsys):
        doc = run_json(["diagnose", *BASE], capsys)
        block = doc["results"]["metrics"]["metric"]
        assert block["p_count"] == 6
        assert block["n_count"] == 4
        codes = [f["code"] for f in doc["diagnostics"]["findings"]["metric"]]
        assert codes.count("MIN_CLASS_BELOW_50") == 2

    def test_band_summary_with_bootstrap(self, capsys):
        doc = run_json(["diagnose", *BASE, "--bootstrap", "30"], capsys)
        band = doc["results"]["metrics"]["metric"]["band"]
        assert band["max_width"] >= band["mean_width"] >= 0.0

    def test_degenerate_sample_still_reports(self, tmp_path, capsys):
        gold = tmp_path / "g.tsv"
        gold.write_text("a\t0.0\nb\t0.0\n")
        scores = tmp_path / "s.tsv"
        scores.write_text("a\t0.4\nb\t0.6\n")
        code, out, _ = run_cli(
            ["diagnose", "--gold", str(gold), "--scores", f"m={scores}"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        codes = [f["code"] for f in doc["diagnostics"]["findings"]["m"]]
        assert "DEGENERATE_CLASS" in codes


class TestWmtMode:
    WMT_ARGS = [
        "roc",
        "--wmt-root", "tests/fixtures/wmt_mini",
        "--lang-pair", "zh-en",
        "--testset", "wmt23",
        "--system", "sysX",
        "--scores", "metricA",
    ]

    def test_roc_over_wmt_tree(self, capsys):
        doc = run_json(self.WMT_ARGS, capsys)
        assert doc["results"]["metrics"]["metricA"]["auc"] == 1.0
        report = doc["ingest"]["metricA"]
        assert report["total_lines"] == 4
        assert report["accepted"] == 3
        assert report["skipped_missing_gold"] == 1

    def test_wmt_hull_over_two_metrics(self, capsys):
        args = [
            "hull",
            "--wmt-root", "tests/fixtures/wmt_mini",
            "--lang-pair", "zh-en",
            "--testset", "wmt23",
            "--system", "sysY",
            "--scores", "metricA",
            "--scores", "metricB",
        ]
        doc = run_json(args, capsys)
        assert set(doc["results"]["metrics"]) == {"metricA", "metricB"}


def _bench_spans(monkeypatch):
    """``bench/spans.py``, the benchmark's tracer, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        "bench_spans", os.path.join(ROOT, "bench", "spans.py")
    )
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


class TestTracerContract:
    """The benchmark times each layer by wrapping the names it lists on
    ``rocqe.cli`` (and ``map_replicates`` on ``rocqe.decision``). A call
    that moved to another module would time as zero, so each command must
    still reach its layers through the names the tracer wraps."""

    WMT = [
        "--wmt-root", "tests/fixtures/wmt_mini", "--lang-pair", "zh-en", "--testset", "wmt23",
        "--system", "sysY", "--scores", "metricA", "--scores", "metricB",
    ]
    READ = {"parse_canonical_tsv", "to_dataset"}
    # Each command form and the wrapped names it must call.
    COMMANDS = {
        "roc": (["roc", *BASE, "--bootstrap", "20", "--svg", "{tmp}/roc.svg"], READ | {
            "build_roc", "auc", "pr_points", "confidence_band", "band_width_summary",
            "check_sample", "check_band", "render_roc_svg"}),
        "hull": (["hull", *WMT, "--svg", "{tmp}/hull.svg"], {
            "parse_wmt_layout", "to_dataset", "build_roc", "auc", "convex_hull",
            "check_sample", "render_roc_svg"}),
        "table": (["table", *BASE], READ | {"qe_roc_table"}),
        "scenario1": (["scenario", *BASE, "--scenario", "1", "--x", "0.3", "--bootstrap", "20",
                       "--trade-off", "1:10"], READ | {
            "scenario1_residual_risk", "optimal_threshold", "check_sample", "map_replicates"}),
        "scenario2": (["scenario", *BASE, "--scenario", "2", "--y", "10", "--bootstrap", "20",
                       "--trade-off", "1:10"], READ | {
            "scenario2_required_effort", "optimal_threshold", "check_sample", "map_replicates"}),
        "diagnose": (["diagnose", *BASE, "--bootstrap", "20"], READ | {
            "confidence_band", "band_width_summary", "check_sample", "check_band"}),
    }

    def test_the_commands_cover_every_wrapped_name(self, monkeypatch):
        spans = _bench_spans(monkeypatch)
        wrapped = [attr for attr, _, _ in (*spans.CLI_TARGETS, *spans.DECISION_TARGETS)]
        assert set().union(*(names for _, names in self.COMMANDS.values())) == set(wrapped)

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_each_command_calls_its_wrapped_names(self, command, tmp_path, capsys, monkeypatch):
        spans = _bench_spans(monkeypatch)
        called = set()

        def counting(module, attr):
            original = getattr(module, attr)

            def wrapper(*args, **kwargs):
                called.add(attr)
                return original(*args, **kwargs)

            return wrapper

        for module, targets in ((cli_module, spans.CLI_TARGETS),
                                (decision_module, spans.DECISION_TARGETS)):
            for attr, _, _ in targets:
                monkeypatch.setattr(module, attr, counting(module, attr))
        argv, expected = self.COMMANDS[command]
        code, _, err = run_cli([arg.format(tmp=tmp_path) for arg in argv], capsys)
        assert code == 0, err
        assert called == expected


def _loaded(datasets):
    return LoadedInputs(
        metrics=list(datasets), datasets=dict(datasets), ingest_reports={},
        orientations={m: ds.orientation for m, ds in datasets.items()},
        cutoff=STRICT_ANY_ERROR, notes=[], inputs=(),
    )


class TestRestrictToCommonIds:
    def test_one_id_column_is_kept_without_comparing_ids(self, sample10, monkeypatch):
        def refuse(*args):
            raise AssertionError("ids were compared")

        monkeypatch.setattr(np, "array_equal", refuse)
        loaded = _loaded({"m1": sample10, "m2": sample10})
        _restrict_to_common_ids(loaded)
        assert loaded.datasets == {"m1": sample10, "m2": sample10} and loaded.notes == []

    def test_partial_overlap_drops_and_notes(self):
        first = Dataset(["d", "a", "b", "c"], [4.0, 1.0, 2.0, 3.0], [True, False, True, False])
        second = Dataset(["c", "b", "e"], [0.3, 0.2, 0.5], [False, True, True],
                         Orientation.HIGHER_IS_BETTER)
        loaded = _loaded({"m1": first, "m2": second})
        _restrict_to_common_ids(loaded)
        kept1, kept2 = loaded.datasets["m1"], loaded.datasets["m2"]
        assert kept1.ids.tolist() == ["b", "c"] and kept1.raw_scores.tolist() == [2.0, 3.0]
        assert kept2.ids.tolist() == ["c", "b"] and kept2.risk_scores.tolist() == [-0.3, -0.2]
        assert kept2.orientation is Orientation.HIGHER_IS_BETTER
        assert kept1.fingerprint == kept2.fingerprint
        assert loaded.notes == [
            "m1: 2 segments without scores from every metric were dropped for comparability",
            "m2: 1 segments without scores from every metric were dropped for comparability",
        ]

    def test_full_overlap_keeps_datasets(self, sample10):
        loaded = _loaded({"m1": sample10, "m2": sample10})
        _restrict_to_common_ids(loaded)
        assert loaded.datasets["m1"] is sample10 and loaded.notes == []

    def test_equal_id_columns_skip_the_merge(self, monkeypatch):
        ids = [f"s{i}" for i in range(5)]
        datasets = {
            f"m{k}": Dataset(ids, np.arange(5.0) * k, np.arange(5) % 2 == 0)
            for k in range(3)
        }

        def refuse(*args):
            raise AssertionError("equal id columns were sorted and merged")

        monkeypatch.setattr(cli_module, "_merge", refuse)
        loaded = _loaded(datasets)
        _restrict_to_common_ids(loaded)
        assert loaded.datasets == datasets and loaded.notes == []

    def test_reordered_ids_drop_nothing(self):
        first = Dataset(["a", "b", "c"], [1.0, 2.0, 3.0], [True, False, True])
        second = Dataset(["c", "a", "b"], [0.3, 0.1, 0.2], [True, True, False])
        loaded = _loaded({"m1": first, "m2": second})
        _restrict_to_common_ids(loaded)
        assert loaded.datasets["m2"] is second and loaded.notes == []

    def test_disjoint_ids_raise_input_error(self):
        first = Dataset(["a"], [1.0], [True])
        second = Dataset(["b"], [1.0], [True])
        with pytest.raises(IngestError, match="no segment ids are shared"):
            _restrict_to_common_ids(_loaded({"m1": first, "m2": second}))

    def test_hull_report_notes_dropped_segments(self, tmp_path, capsys):
        gold = tmp_path / "g.tsv"
        gold.write_text("a\t-1.0\nb\t0.0\nc\t-2.0\nd\t0.0\n")
        first = tmp_path / "m1.tsv"
        first.write_text("a\t0.5\nb\t0.1\nc\t0.7\nd\t0.2\n")
        second = tmp_path / "m2.tsv"
        second.write_text("a\t0.7\nb\t0.2\nc\t0.1\n")
        doc = run_json(
            ["hull", "--gold", str(gold), "--scores", f"m1={first}", "--scores", f"m2={second}"],
            capsys,
        )
        assert doc["notes"] == [
            "m1: 1 segments without scores from every metric were dropped for comparability"
        ]


class TestMultiMetricOracle:
    """``_load`` and ``_restrict_to_common_ids`` against the set and dict join."""

    def test_random_runs_match_the_oracle(self, tmp_path):
        rng = np.random.default_rng(2501)
        pool = [f"s{i}" for i in range(24)] + ["x", "x\x00", "x\x001", "x\x002", "é"]
        mqm_texts = ("-5.0", "-1.0", "0.0", "-0.0", "NA")
        outcomes = set()
        for trial in range(60):
            gold_ids = list(rng.permutation(pool)[: int(rng.integers(2, len(pool) + 1))])
            gold = tmp_path / f"g{trial}.tsv"
            gold.write_text("".join(
                f"{sid}\t{mqm_texts[int(rng.integers(len(mqm_texts)))]}\n" for sid in gold_ids
            ))
            score_paths, flags = {}, []
            for k in range(int(rng.integers(2, 5))):
                kind = rng.random()
                if kind < 0.3:
                    ids = gold_ids  # keyed line for line like the unsorted gold file
                elif kind < 0.6:
                    ids = list(rng.permutation(gold_ids))
                else:  # missing and extra ids
                    ids = list(rng.permutation(pool)[: int(rng.integers(1, len(pool) + 1))])
                path = tmp_path / f"m{k}_{trial}.tsv"
                path.write_text("".join(
                    f"{sid}\t{'NA' if rng.random() < 0.1 else round(rng.normal(), 2)}\n"
                    for sid in ids
                ))
                score_paths[f"m{k}"] = str(path)
                flags += ["--scores", f"m{k}={path}"]
                if rng.random() < 0.5:
                    flags += ["--orientation", f"m{k}=higher-better"]
            args = cli_module.build_parser().parse_args(["hull", "--gold", str(gold), *flags])
            orientations = {
                m: Orientation.HIGHER_IS_BETTER if f"{m}=higher-better" in flags
                else Orientation.HIGHER_IS_WORSE
                for m in score_paths
            }

            def loaded():
                inputs = cli_module._load(args)
                _restrict_to_common_ids(inputs)
                return inputs.datasets, inputs.ingest_reports, inputs.notes

            got = _columns(loaded)
            want = _columns(load_common, str(gold), score_paths, STRICT_ANY_ERROR, orientations)
            assert got == want, trial
            outcomes.add(got[0] if got[0] == "raised" else bool(got[1][2]))
        # Runs that dropped ids, runs that dropped none, and failed runs all occurred.
        assert outcomes == {True, False, "raised"}


def _columns(load, *args):
    """What a multi-metric load gave, as plain values, or what it raised."""
    try:
        datasets, reports, notes = load(*args)
    except Exception as exc:  # noqa: BLE001 - any difference must show
        return "raised", (type(exc), str(exc))
    columns = {
        m: (ds.ids.tolist(), [repr(x) for x in ds.raw_scores.tolist()],
            ds.is_positive.tolist(), ds.orientation)
        for m, ds in datasets.items()
    }
    return "ok", (list(columns.items()), list(reports.items()), notes)


class TestRepeatedIdColumns:
    """Each id sort on 5,000 ids that each repeat.

    numpy 2.4.6's default-kind sort of a ``StringDType`` column crashes the
    process from a few hundred repeated ids, so these fail loudly if an id
    path drops ``kind="stable"`` or ``np.lexsort``.
    """

    IDS = [f"seg{i:07d}" for i in range(5000)]

    def test_table_and_fingerprint(self):
        ids = self.IDS * 2
        ds = Dataset(ids, np.arange(len(ids)) % 7, np.arange(len(ids)) % 3 == 0)
        table = decision_module.qe_roc_table(ds)
        rows = sorted(range(len(ids)), key=lambda i: (-ds.risk_scores[i], ids[i]))
        assert table.segment_ids.tolist() == [ids[i] for i in rows]
        assert table.is_positive.tolist() == [bool(ds.is_positive[i]) for i in rows]
        assert ds.fingerprint == fingerprint(ds)

    def test_to_dataset_names_the_first_repeat(self):
        ids = self.IDS[::-1] + self.IDS
        records = CanonicalRecords("m", ids, [-1.0] * len(ids), [0.5] * len(ids))
        with pytest.raises(IngestError, match="^duplicate segment id 'seg0000000'$"):
            to_dataset(records, STRICT_ANY_ERROR, Orientation.HIGHER_IS_WORSE, "m")

    def test_reader_names_the_first_repeated_line(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("".join(f"{sid}\t0.5\n" for sid in self.IDS[::-1] + self.IDS))
        with pytest.raises(IngestError, match="line 5001: duplicate segment id 'seg0000000'$"):
            ingest_module._read_two_column(str(path), strict=False)

    def test_restrict_to_common_ids(self):
        first = Dataset(self.IDS * 2, np.arange(10000.0), np.arange(10000) % 2 == 0)
        kept = self.IDS[::-2]
        second = Dataset(kept, np.arange(2500.0), np.arange(2500) % 3 == 0)
        loaded = _loaded({"m1": first, "m2": second})
        _restrict_to_common_ids(loaded)
        assert loaded.datasets["m1"].ids.tolist() == [i for i in self.IDS * 2 if i in set(kept)]
        assert loaded.datasets["m2"] is second
        assert loaded.notes == [
            "m1: 5000 segments without scores from every metric were dropped for comparability"
        ]


class TestColumnarPath:
    @pytest.mark.parametrize(
        "argv",
        [
            ["roc", *BASE, "--bootstrap", "20"],
            ["table", *BASE],
            ["scenario", *BASE, "--scenario", "1", "--x", "0.3", "--bootstrap", "20",
             "--trade-off", "1:10"],
            ["scenario", *BASE, "--scenario", "2", "--y", "10", "--bootstrap", "20"],
            ["hull", *BASE, "--scores", "riskb=tests/fixtures/sample10.riskb.tsv"],
            ["diagnose", *BASE, "--bootstrap", "20"],
        ],
    )
    def test_commands_never_build_segment_objects(self, argv, capsys, monkeypatch):
        """No command builds a ``ScoredSegment`` or a ``RocVertex``; they read columns."""
        for cls in (ScoredSegment, RocVertex):
            def refuse(self, name=cls.__name__):
                raise AssertionError(f"a {name} was built")

            monkeypatch.setattr(cls, "__post_init__", refuse)
        with pytest.raises(AssertionError, match="ScoredSegment"):
            ScoredSegment("a", Label.POSITIVE, 1.0, 1.0)
        with pytest.raises(AssertionError, match="RocVertex"):
            build_roc(Dataset(["a", "b"], [1.0, 0.0], [True, False])).vertices
        code, _, err = run_cli(argv, capsys)
        assert code == 0, err

    def test_oversized_band_is_a_config_error(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the band buffer was allocated")

        monkeypatch.setattr(np, "empty", refuse)
        # 60M replicates keep about 3M rows of 101 grid points: over 2 GiB.
        code, out, err = run_cli(["roc", *BASE, "--bootstrap", "60000000"], capsys)
        assert code == 4
        assert out == ""
        assert "MB" in err and "lower --bootstrap" in err


def _write_column(path, header: str, ids, values) -> str:
    lines = [f"segment_id\t{header}"] + [f"{i}\t{float(v)!r}" for i, v in zip(ids, values)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestReportMemory:
    """roc and hull write the SVG first, then one metric's entry at a time."""

    @staticmethod
    def _three_metrics(tmp_path) -> list[str]:
        rng = np.random.default_rng(31)
        ids = [f"s{i:04d}" for i in range(300)]
        positive = rng.random(300) < 0.3
        argv = ["--gold", _write_column(tmp_path / "gold.tsv", "mqm_score", ids, -5.0 * positive)]
        for name in ("a", "b", "c"):
            scores = np.round(rng.normal(size=300) + positive, 2)
            path = _write_column(tmp_path / f"{name}.tsv", "score", ids, scores)
            argv += ["--scores", f"{name}={path}"]
        return argv

    @pytest.mark.parametrize("command, spelled_per_entry", [("roc", 2), ("hull", 1)])
    def test_one_metric_texts_alive_at_a_time(self, command, spelled_per_entry, tmp_path,
                                              capsys, monkeypatch):
        svg = tmp_path / "plot.svg"
        spelled = []
        original = report_module.JsonTexts.spell

        def spy(values):
            # A roc entry spells its thresholds and tpr, a hull entry its thresholds.
            entry = len(spelled) // spelled_per_entry
            assert svg.stat().st_size > 0, "report texts were spelled before the SVG went out"
            earlier = spelled[:entry * spelled_per_entry]
            assert all(ref() is None for ref in earlier), "an earlier metric's texts are alive"
            texts = original(values)
            spelled.append(weakref.ref(texts))
            return texts

        monkeypatch.setattr(report_module.JsonTexts, "spell", spy)
        argv = [command, *self._three_metrics(tmp_path), "--svg", str(svg)]
        if command == "roc":
            argv += ["--bootstrap", "20"]
        doc = run_json(argv, capsys)
        assert len(spelled) == 3 * spelled_per_entry
        assert sorted(doc["results"]["metrics"]) == ["a", "b", "c"]

    def test_roc_writes_with_no_dataset_alive(self, tmp_path, capsys, monkeypatch):
        datasets = []
        to_dataset, check_outputs = cli_module.to_dataset, cli_module.check_outputs

        def recording(*args, **kwargs):
            dataset = to_dataset(*args, **kwargs)
            datasets.append(weakref.ref(dataset))
            return dataset

        def checking(*args, **kwargs):
            # The first step before any byte goes out.
            assert len(datasets) == 3
            assert all(ref() is None for ref in datasets), "a dataset is alive at write time"
            return check_outputs(*args, **kwargs)

        monkeypatch.setattr(cli_module, "to_dataset", recording)
        monkeypatch.setattr(cli_module, "check_outputs", checking)
        argv = ["roc", *self._three_metrics(tmp_path), "--bootstrap", "20",
                "--svg", str(tmp_path / "plot.svg")]
        enabled = gc.isenabled()
        gc.disable()
        try:
            doc = run_json(argv, capsys)
        finally:
            if enabled:
                gc.enable()
        assert sorted(doc["results"]["metrics"]) == ["a", "b", "c"]
        assert all(doc["results"]["metrics"][m]["band"] for m in "abc")

    def test_emit_copies_no_whole_chunk(self, tmp_path):
        # A 4 MB chunk; a two-byte character ends the first slice and another
        # begins the second.
        size = report_module._CHARS_PER_WRITE
        chunk = "x" * (size - 1) + "\u00e9\u00e9" + "y" * (4 * 2**20 - size - 1)
        path = tmp_path / "out.txt"
        _, rise = traced_peak(report_module.emit, [chunk], str(path))
        # Encoding the chunk whole rose by about 4 MB here.
        assert rise < 2**20, rise
        assert path.read_bytes() == chunk.encode("utf-8")

    def test_roc_entry_holds_no_whole_curve_list_of_texts(self):
        rng = np.random.default_rng(100_000)
        positive = rng.random(100_000) < 0.4
        scores = rng.normal(size=100_000) + positive
        ids = np.arange(100_000).astype(str)
        curve = build_roc(Dataset(ids, scores, positive, Orientation.HIGHER_IS_BETTER))
        assert curve.thresholds.size == 100_001
        entry = report_module.Deferred(cli_module._roc_entry, curve, None)
        size, rise = traced_peak(lambda: sum(map(len, report_module._encode(entry, 0))))
        # The texts of one column, as a list, are about 7.6 MB here; spelling
        # the thresholds that way and PR recall apart peaked near 12.8 MB,
        # and whole fpr, tpr, fn, tn and precision columns near 8.5 MB.
        assert rise <= 7 * 2**20, rise
        assert size > 100_000 * 200
        assert "fpr" not in vars(curve) and "tpr" not in vars(curve)

    def test_band_lists_are_written_in_blocks(self):
        rng = np.random.default_rng(70_000)
        positive = rng.random(100_000) < 0.25
        scores = rng.normal(size=100_000) + positive
        dataset = Dataset(np.arange(100_000).astype(str), scores, positive)
        band = confidence_band(dataset, BootstrapConfig(iterations=10, seed=1))
        assert band.fpr_grid.size >= 70_000
        entry = cli_module._roc_entry(build_roc(dataset), band)["band"]
        size, rise = traced_peak(lambda: sum(map(len, report_module._encode(entry, 0))))
        # The grid's four lists are about 7 MB of text; spelling each list
        # whole peaked near 9 MB.
        assert size > 4 * 70_000 * 10
        assert rise < 2**20, rise

    def test_pr_rows_read_the_vertex_texts(self, sample10, monkeypatch):
        spelled = []
        original = report_module.JsonTexts.spell

        def spy(values):
            spelled.append(values)
            return original(values)

        monkeypatch.setattr(report_module.JsonTexts, "spell", spy)
        curve = build_roc(sample10)
        entry = cli_module._roc_entry(curve, None)
        # Thresholds and tpr are spelled once each; the PR rows read them
        # from vertex 1 on.
        assert len(spelled) == 2
        thresholds, tpr = (values[:] for values in spelled)
        assert np.array_equal(thresholds, curve.thresholds)
        assert tpr.tolist() == [tp / curve.p_count for tp in curve.tp.tolist()]
        vertices, points = entry["vertices"].columns, entry["pr_points"]().columns
        for pr_key, vertex_key in (("recall", "tpr"), ("threshold", "threshold")):
            assert points[pr_key].chunks is vertices[vertex_key].chunks
            assert points[pr_key].offset == 1

    def test_second_band_over_the_limit_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # Every fifth of 150 segments is an error. Metric a scores the first
        # 60 (48 negatives: a 101-point grid), b all of them (120: 121 points).
        ids = [f"s{i:03d}" for i in range(150)]
        positive = np.arange(150) % 5 == 0
        scores = np.round(np.linspace(0.0, 1.0, 150) + positive, 3)
        gold = _write_column(tmp_path / "gold.tsv", "mqm_score", ids, -5.0 * positive)
        a = _write_column(tmp_path / "a.tsv", "score", ids[:60], scores[:60])
        b = _write_column(tmp_path / "b.tsv", "score", ids, scores)
        svg, out = tmp_path / "plot.svg", tmp_path / "report.json"
        sizes = []
        original = cli_module.confidence_band

        def spy(dataset, config):
            sizes.append(dataset.total)
            return original(dataset, config)

        monkeypatch.setattr(cli_module, "confidence_band", spy)
        # 20 buffered rows fit 111 grid points: a's band passes, b's does not.
        monkeypatch.setattr(bootstrap_module, "MAX_BAND_MATRIX_BYTES", 20 * 111 * 8)
        code, stdout, err = run_cli(
            ["roc", "--gold", gold, "--scores", f"a={a}", "--scores", f"b={b}",
             "--bootstrap", "20", "--svg", str(svg), "--out", str(out)],
            capsys,
        )
        assert code == 4
        assert "lower --bootstrap" in err
        assert sizes == [60, 150]
        assert stdout == ""
        assert not svg.exists() and not out.exists()

    def test_svg_render_allocates_about_twice_its_size(self):
        rng = np.random.default_rng(50_000)
        positive = rng.random(50_000) < 0.3
        scores = rng.normal(size=50_000) + positive
        curve = build_roc(Dataset(np.arange(50_000).astype(str), scores, positive))
        assert curve.thresholds.size == 50_001
        series = [SvgSeries("m", curve)]
        svg, rise = traced_peak(render_roc_svg, series)
        assert isinstance(svg, str)
        assert rise <= 2 * len(svg) + 1.5 * 2**20, (rise, len(svg))

    def test_svg_derives_the_rates_a_block_at_a_time(self):
        rng = np.random.default_rng(100_003)
        positive = rng.random(100_000) < 0.4
        scores = rng.normal(size=100_000) + positive
        curve = build_roc(Dataset(np.arange(100_000).astype(str), scores, positive))
        assert curve.thresholds.size == 100_001
        svg, rise = traced_peak(render_roc_svg, [SvgSeries("m", curve)])
        # Whole fpr and tpr columns, cached on the curve, rose by about 4.2 MB here.
        assert rise <= 3 * 2**20, rise
        assert "fpr" not in vars(curve) and "tpr" not in vars(curve)
        assert len(svg) > 100_000 * 12


def _as_json(reports: dict) -> dict:
    return json.loads(json.dumps({m: dataclasses.asdict(r) for m, r in reports.items()}))


class TestGoldReadOnce:
    """A run reads the gold file once, and reports what separate parses report."""

    @pytest.fixture
    def opened(self, monkeypatch):
        counts = {}

        def counting_open(path, *args, **kwargs):
            counts[os.path.basename(path)] = counts.get(os.path.basename(path), 0) + 1
            return open(path, *args, **kwargs)

        monkeypatch.setattr(ingest_module, "open", counting_open, raising=False)
        return counts

    @staticmethod
    def _canonical(tmp_path) -> tuple[str, dict[str, str]]:
        """A gold file with a malformed line and a missing value, and three score files."""
        rng = np.random.default_rng(57)
        ids = [f"s{i:03d}" for i in range(120)]
        positive = rng.random(120) < 0.3
        lines = [f"{i}\t{-5.0 * p}" for i, p in zip(ids, positive.tolist())]
        lines[7], lines[30] = "s007 -5.0", "s030\tNA"
        gold = tmp_path / "gold.tsv"
        gold.write_text("segment_id\tmqm\n" + "\n".join(lines) + "\n")
        scores = {}
        for name, kept in (("a", ids), ("b", ids[::-1]), ("c", ids[10:])):
            values = np.round(rng.normal(size=len(kept)), 2)
            scores[name] = _write_column(tmp_path / f"{name}.tsv", "score", kept, values)
        return str(gold), scores

    def test_three_metric_roc(self, tmp_path, capsys, opened):
        gold, scores = self._canonical(tmp_path)
        argv = ["roc", "--gold", gold, *(f"--scores={m}={p}" for m, p in scores.items())]
        doc = run_json(argv, capsys)
        assert opened == {"gold.tsv": 1, "a.tsv": 1, "b.tsv": 1, "c.tsv": 1}
        separate = {m: parse_canonical_tsv(gold, p, m)[1] for m, p in scores.items()}
        assert doc["ingest"] == _as_json(separate)
        assert doc["ingest"]["a"]["skipped_malformed"] == 1
        # c lacks s000..s009, and s007's gold line is the malformed one.
        assert doc["ingest"]["c"]["skipped_missing_score"] == 9

    def test_strict_error_comes_from_the_first_parse(self, tmp_path, capsys, opened):
        gold, scores = self._canonical(tmp_path)
        argv = ["roc", "--gold", gold, "--strict",
                *(f"--scores={m}={p}" for m, p in scores.items())]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert f"input error: {gold} line 9: expected 2 tab-separated fields, got 1" in err
        assert opened == {"gold.tsv": 1}

    @staticmethod
    def _wmt_tree(tmp_path, metrics=("m1", "m2", "m3"), gold_lines=None) -> str:
        rng = np.random.default_rng(58)
        human = tmp_path / "wmt23" / "human-scores"
        scores = tmp_path / "wmt23" / "metric-scores" / "zh-en"
        human.mkdir(parents=True)
        scores.mkdir(parents=True)
        systems = ["sysX"] * 40 + ["sysY"] * 40
        if gold_lines is None:
            gold_lines = [f"{s}\t{-5.0 * (rng.random() < 0.4)}" for s in systems]
        (human / "zh-en.mqm.merged.seg.score").write_text("\n".join(gold_lines) + "\n")
        for metric in metrics:
            lines = [f"{s}\t{rng.normal():.3f}" for s in systems]
            (scores / f"{metric}.seg.score").write_text("\n".join(lines) + "\n")
        return str(tmp_path)

    WMT = ["--lang-pair", "zh-en", "--testset", "wmt23", "--system", "sysY"]

    def test_three_metric_wmt_hull(self, tmp_path, capsys, opened):
        root = self._wmt_tree(tmp_path)
        argv = ["hull", "--wmt-root", root, *self.WMT, "--scores", "m1", "--scores", "m2",
                "--scores", "m3"]
        doc = run_json(argv, capsys)
        assert opened == {
            "zh-en.mqm.merged.seg.score": 1, "m1.seg.score": 1, "m2.seg.score": 1,
            "m3.seg.score": 1,
        }
        separate = {
            m: parse_wmt_layout(root, "zh-en", "wmt23", "sysY", m)[1] for m in ("m1", "m2", "m3")
        }
        assert doc["ingest"] == _as_json(separate)

    def test_missing_metric_is_named_before_a_bad_gold_file(self, tmp_path, capsys):
        root = self._wmt_tree(tmp_path, metrics=("m2",), gold_lines=["sysY\t0.0", "garbage"])
        argv = ["hull", "--wmt-root", root, *self.WMT, "--scores", "m1", "--scores", "m2"]
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert "no score file for metric 'm1'" in err

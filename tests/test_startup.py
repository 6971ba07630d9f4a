"""What a fresh interpreter holds after importing rocqe: the start-up contract.

Each check runs a new Python process with ``OPENBLAS_NUM_THREADS`` removed
from its environment, because what matters is what happens before and
while numpy loads.
"""

import os
import subprocess
import sys

import pytest

import rocqe

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _python(*args: str, **env: str) -> str:
    """Stdout of ``python *args`` run from the repository root."""
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    environ.update(env)
    run = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=environ, capture_output=True, text=True,
        check=False,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout


def _run(code: str, **env: str) -> str:
    return _python("-c", code, **env)


def _imports(*args: str) -> tuple[int, set[str]]:
    """The exit status of ``python -X importtime *args`` and the modules it imported."""
    run = subprocess.run(
        [sys.executable, "-X", "importtime", *args], cwd=ROOT, capture_output=True, text=True,
        check=False,
    )
    lines = [line for line in run.stderr.splitlines() if line.startswith("import time:")]
    return run.returncode, {line.rsplit("|", 1)[1].strip() for line in lines[1:]}


# What the CLI must not import before it needs the library: numpy, the
# rocqe modules the commands use, and the stdlib modules dataclasses brings.
HEAVY = ("numpy", "dataclasses", "inspect")


def _heavy(modules: set[str]) -> list[str]:
    return sorted(
        name for name in modules
        if name.split(".")[0] in HEAVY or (name.startswith("rocqe.") and name != "rocqe.cli")
    )


@pytest.mark.parametrize("args, status", [
    (["-c", "import rocqe.cli"], 0),
    (["-m", "rocqe.cli", "--version"], 0),
    (["-m", "rocqe.cli", "roc", "--help"], 0),
    (["-m", "rocqe.cli", "roc", "--bootstrap", "x"], 4),
    (["-m", "rocqe.cli", "table", "--svg", "t.svg"], 4),
    (["-m", "rocqe.cli", "table", "--gold", "g.tsv", "--scores", "m=s.tsv", "--svg", "x.svg"], 4),
    (["-m", "rocqe.cli", "--bogus", "roc"], 4),
    (["-c", "from rocqe.cli import main; main(['--version'])"], 0),
], ids=["import", "version", "help", "bad flag", "flag the command lacks",
        "flag the command lacks, after inputs", "flag before the command", "main version"])
def test_cli_answers_without_the_library(args, status):
    code, modules = _imports(*args)
    assert code == status
    assert "argparse" in modules
    assert _heavy(modules) == []


def test_reading_a_library_name_loads_the_library():
    code = """
import sys, rocqe.cli as cli
build_roc = cli.build_roc
import rocqe.roc
print(build_roc is rocqe.roc.build_roc, cli.np is sys.modules["numpy"])
"""
    assert _run(code) == "True True\n"


def test_unknown_cli_attribute_raises_and_loads_nothing():
    code = """
import sys, rocqe.cli as cli
for name in ("no_such_name", "__no_such_dunder__"):
    try:
        getattr(cli, name)
    except AttributeError as exc:
        print(exc)
print("numpy" in sys.modules)
"""
    assert _run(code) == (
        "module 'rocqe.cli' has no attribute 'no_such_name'\n"
        "module 'rocqe.cli' has no attribute '__no_such_dunder__'\n"
        "False\n"
    )


def test_import_rocqe_does_not_load_numpy():
    assert _run("import sys, rocqe; print('numpy' in sys.modules)") == "False\n"


def test_cli_import_does_not_load_hashlib():
    code = "import sys, rocqe.cli; print('hashlib' in sys.modules, '_hashlib' in sys.modules)"
    assert _run(code) == "False False\n"


@pytest.mark.parametrize("command", ["hull", "roc", "table"])
def test_commands_that_draw_no_resample_load_no_openssl(command, tmp_path):
    # The hull compares ground truths without hashing them, and roc and
    # table without --bootstrap never load numpy.random.
    scores = ["--scores", "a=tests/fixtures/sample10.scores.tsv"]
    if command == "hull":
        scores += ["--scores", "b=tests/fixtures/sample10.riskb.tsv"]
    code, modules = _imports(
        "-m", "rocqe.cli", command, "--gold", "tests/fixtures/sample10.gold.tsv", *scores,
        "--out", str(tmp_path / "out"),
    )
    assert code == 0
    assert "_hashlib" not in modules and "hashlib" not in modules


def test_star_import_binds_each_name_to_its_submodule_object():
    code = """
from importlib import import_module
from rocqe import *
import rocqe
names = [name for names in rocqe._EXPORTS.values() for name in names]
assert sorted(names) == rocqe.__all__ and len(set(names)) == len(names), names
for module, names in rocqe._EXPORTS.items():
    owner = import_module(f"rocqe.{module}")
    for name in names:
        assert globals()[name] is getattr(owner, name) is getattr(rocqe, name), name
assert set(rocqe.__all__) <= set(dir(rocqe))
print(len(rocqe.__all__))
"""
    assert _run(code) == f"{len(rocqe.__all__)}\n"


def test_unknown_attribute_raises_attribute_error():
    code = """
import rocqe
try:
    rocqe.no_such_name
except AttributeError as exc:
    print(exc)
print(hasattr(rocqe, "no_such_name"))
"""
    assert _run(code) == "module 'rocqe' has no attribute 'no_such_name'\nFalse\n"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
def test_cli_runs_numpy_with_one_openblas_thread():
    code = """
import os
from rocqe.cli import main, np
print(os.environ["OPENBLAS_NUM_THREADS"], len(os.listdir("/proc/self/task")))
"""
    assert _run(code) == "1 1\n"


def test_cli_keeps_a_preset_thread_count():
    code = "import os, rocqe.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _run(code, OPENBLAS_NUM_THREADS="3") == "3\n"


def test_cli_leaves_the_environment_alone_after_numpy():
    code = "import os, numpy, rocqe.cli; print('OPENBLAS_NUM_THREADS' in os.environ)"
    assert _run(code) == "False\n"


def test_module_cli_prints_version():
    assert _python("-m", "rocqe.cli", "--version") == f"rocqe {rocqe.__version__}\n"

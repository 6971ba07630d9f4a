"""README's "Python API" section: its code block runs as written, its
error table matches the code, and it names every public name."""

import builtins
import os
import re
import shutil

import pytest

import rocqe
from rocqe import cli

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _api_section() -> str:
    """README's "Python API" section."""
    with open(README, encoding="utf-8") as fh:
        return fh.read().split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]


def _api_block() -> str:
    """The first ``python`` code block under README's "Python API" heading."""
    return re.search(r"```python\n(.*?)```", _api_section(), re.S).group(1)


def test_python_api_block_runs(tmp_path, monkeypatch, capsys, sample10_paths):
    gold, scores = sample10_paths
    shutil.copy(gold, tmp_path / "gold.tsv")
    shutil.copy(scores, tmp_path / "scores.tsv")
    monkeypatch.chdir(tmp_path)
    exec(compile(_api_block(), README, "exec"), {"__name__": "readme"})
    out, err = capsys.readouterr()
    assert err == ""
    printed = out.splitlines()
    assert len(printed) == 6, out
    assert printed[0] == repr(23 / 48)  # the AUC of the worked example
    assert printed[2].startswith("DecisionReport(scenario=<Scenario.REVIEW_BUDGET")
    assert printed[5] == "0.5"  # the column-built dataset


def test_every_public_name_is_documented():
    section = _api_section()
    block = _api_block()
    # A name counts where the code block uses it, or where prose starts a
    # code span with it (`name`, `name(...)`, `name.attr`).
    named = set(re.findall(r"\b[A-Za-z_]\w*", block))
    named |= set(re.findall(r"`([A-Za-z_]\w*)", section.replace(block, "")))
    assert sorted(set(rocqe.__all__) - named) == []


def _documented_errors() -> list[tuple[str, str, int]]:
    """(exception, base class, CLI exit code) per row of the section's error table."""
    rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \| [^|]+ \| (\d) \|$", _api_section(), re.M)
    return [(name, base, int(code)) for name, base, code in rows]


def test_error_table_lists_the_exported_exceptions():
    documented = {name for name, _, _ in _documented_errors()}
    assert documented == {name for name in rocqe.__all__ if name.endswith("Error")}


@pytest.mark.parametrize("name, base, code", _documented_errors())
def test_documented_errors_have_their_base_and_exit_code(monkeypatch, capsys, name, base, code):
    error = getattr(rocqe, name)
    assert error.__bases__ == (getattr(builtins, base),)

    def fail(args):
        raise error("x")

    monkeypatch.setattr(cli, "_load", fail)  # where `table` reads its inputs
    assert cli.main(["table", "--gold", "g.tsv", "--scores", "m=s.tsv"]) == code
    assert capsys.readouterr().err.endswith(": x\n")

"""README's "Python API" code block runs as written."""

import os
import re
import shutil

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _api_block() -> str:
    """The first ``python`` code block under README's "Python API" heading."""
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


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

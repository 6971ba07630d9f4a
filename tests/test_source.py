"""Checks read off the package source, without importing it."""

import ast
import pathlib
from graphlib import CycleError, TopologicalSorter

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "rocqe"


def unused_imports(source: str) -> list[str]:
    """Names bound by a module-level import that the module never names."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in named]


def test_unused_imports_are_found():
    source = "import math\nimport numpy as np\nfrom typing import Any, Sequence\nnp.e(Any)"
    assert unused_imports(source) == ["math", "Sequence"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def relative_imports(source: str) -> set[str]:
    """The package modules a module imports with ``from .x import``: at
    module level, inside functions and under ``TYPE_CHECKING`` alike.
    ``from . import name`` counts as an import of the package's ``__init__``."""
    return {
        node.module.split(".")[0] if node.module else "__init__"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level == 1
    }


def test_relative_imports_are_found_at_every_level():
    source = (
        "from typing import TYPE_CHECKING\nfrom . import __version__\n"
        "if TYPE_CHECKING:\n    from .roc import RocCurve\n"
        "def f():\n    from .model import Dataset\n"
    )
    assert relative_imports(source) == {"__init__", "roc", "model"}


def test_no_module_imports_itself_through_others():
    imports = {path.stem: relative_imports(path.read_text(encoding="utf-8"))
               for path in SRC.glob("*.py")}
    try:
        TopologicalSorter(imports).prepare()
    except CycleError as error:
        # The sorter lists each module before one that imports it.
        pytest.fail(f"import cycle: {' -> '.join(reversed(error.args[1]))}")

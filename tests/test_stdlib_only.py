"""The library imports nothing outside the standard library.

Every ``src/leavitt/*.py`` is parsed with ``ast`` (nothing is imported), and
the top-level name of each absolute import must be a standard-library module
or ``leavitt`` itself.  Relative imports stay inside the package.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "leavitt"
MODULES = sorted(SRC.glob("*.py"))


def absolute_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_package_sources_found():
    assert len(MODULES) >= 9


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_leavitt(path):
    foreign = [
        f"{path.name}:{line}: {name}"
        for line, name in absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names and name.split(".")[0] != "leavitt"
    ]
    assert not foreign, foreign

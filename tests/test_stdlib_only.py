"""The library imports nothing outside the standard library, and nothing unused.

Every ``src/leavitt/*.py`` is parsed with ``ast`` (nothing is imported), and
the top-level name of each absolute import must be a standard-library module
or ``leavitt`` itself.  Relative imports stay inside the package.  Every name
a module imports must be read somewhere in it; ``__init__.py`` is left out,
because its imports are the package's re-exports.  Every private top-level
function or class (a name starting with ``_``) must be referenced somewhere
in its own module, so a helper a refactor orphans does not stay behind.
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


def unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted(
        f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used
    )


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_every_import_is_used(path):
    unused = unused_imports(path)
    assert not unused, unused


def unreferenced_private_helpers(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    helpers = {
        node.name: node.lineno
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.name}:{line}: {name}" for name, line in helpers.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_helper_is_referenced(path):
    unreferenced = unreferenced_private_helpers(path)
    assert not unreferenced, unreferenced

"""Every module's ``__all__`` names real objects, and the package root
re-exports only names that its modules export.

``leavitt/__init__.py`` is read with ``ast``, so a name it imports from a
module that no longer lists it in ``__all__`` is reported by name rather than
only as an import error.
"""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "leavitt"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def root_imports():
    """Map module name -> names ``leavitt/__init__.py`` imports from it."""
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    out = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out.setdefault(node.module, []).extend(alias.name for alias in node.names)
    return out


def test_root_imports_only_known_modules():
    assert set(root_imports()) <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_are_defined(name):
    module = importlib.import_module(f"leavitt.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, missing


@pytest.mark.parametrize("name", MODULES)
def test_root_reexports_are_in_all(name):
    module = importlib.import_module(f"leavitt.{name}")
    unlisted = [n for n in root_imports().get(name, []) if n not in module.__all__]
    assert not unlisted, unlisted

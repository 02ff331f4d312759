"""The functions the benchmark tracer wraps must exist in the library.

``perfbench/tracing.py`` wraps ``leavitt.<module>.<function>`` by name and
fails at install time when one is gone, so a deletion in ``src/`` can break
``perfbench/run.py --trace 1``.  The tables are read with ``ast``, without
importing the tracer.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _table(name):
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACING.name}")


def test_tables_are_not_empty():
    assert _table("SPANNED") and _table("COUNTED")


def test_every_wrapped_function_exists():
    missing = []
    for table in ("SPANNED", "COUNTED"):
        for module, function, _ in _table(table):
            mod = importlib.import_module(f"leavitt.{module}")
            if not callable(getattr(mod, function, None)):
                missing.append(f"{table}: leavitt.{module}.{function}")
    assert not missing, missing

"""No cache in ``src/`` outlives an op unless it is on the list below.

Every ``src/leavitt/*.py`` is parsed with ``ast``.  Each use of
``functools.lru_cache`` or ``functools.cache`` must decorate a function
listed in ``ALLOWED``, with the bound listed there; any other use, a new
process-wide cache, fails.  Each entry says why its cache may stay:
``tests/test_cli.py::TestOpLifetime`` asserts the bounds after every op and
that ``snf`` is empty once the op scope closes.  Per-instance caches
(``cached_property``) live and die with their object and are not listed.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "leavitt"
CACHES = {"lru_cache", "cache"}

# "module.function" -> (maxsize, why it may stay)
ALLOWED = {
    "cli._parser": (1, "holds the argument parser, no math"),
    "ktheory.k_matrix": (1, "the last graph's transfer matrix; at most 1 entry after an op"),
    "lattice._mask_closure": (1, "the last graph's mask closure; at most 1 entry after an op"),
    "shifts._identity_minus": (2, "I - A of the last two matrices; at most 2 entries after an op"),
    "intlinalg.snf": (65536, "the op's Smith records; empty once the outermost op scope exits"),
}


def _maxsize(decorator):
    """The ``maxsize`` of a cache decorator: None when unbounded (``cache``),
    128 for a bare ``lru_cache``, as ``functools`` sets them."""
    if not isinstance(decorator, ast.Call):
        return None if _name(decorator) == "cache" else 128
    for kw in decorator.keywords:
        if kw.arg == "maxsize":
            return ast.literal_eval(kw.value)
    return ast.literal_eval(decorator.args[0]) if decorator.args else 128


def _name(node):
    """The cache name a decorator or expression refers to, else None."""
    if isinstance(node, ast.Call):
        node = node.func
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return name if name in CACHES else None


def scan(tree, module):
    """("module.function", maxsize) of every cache decorator in ``tree``,
    and the "module:line" of every other use of a cache name."""
    found, decorators = [], set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                if _name(dec):
                    found.append((f"{module}.{node.name}", _maxsize(dec)))
                    decorators.update(map(id, ast.walk(dec)))
    stray = [
        f"{module}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
        and isinstance(node.ctx, ast.Load)
        and _name(node)
        and id(node) not in decorators
    ]
    return found, stray


def test_every_cache_is_allowed_with_its_bound():
    found, stray = [], []
    for path in sorted(SRC.glob("*.py")):
        f, s = scan(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), path.stem)
        found += f
        stray += s
    assert not stray, f"a cache used other than as a decorator: {stray}"
    unlisted = [(name, size) for name, size in found if ALLOWED.get(name, (None,))[0] != size]
    assert not unlisted, f"a process-wide cache outside the allow-list, or a new bound: {unlisted}"
    stale = set(ALLOWED) - {name for name, _ in found}
    assert not stale, f"no longer cached; drop from ALLOWED: {sorted(stale)}"


def test_the_guard_sees_every_form():
    # the forms a new cache could take, each reported by name and bound
    source = (
        "import functools\nfrom functools import cache, lru_cache\n"
        "@lru_cache(maxsize=4)\ndef a(): pass\n"
        "@functools.lru_cache(None)\ndef b(): pass\n"
        "@cache\ndef c(): pass\n"
        "@lru_cache\ndef d(): pass\n"
        "e = lru_cache(maxsize=8)(len)\n"
        "f = functools.cache(len)\n"
    )
    found, stray = scan(ast.parse(source), "m")
    assert found == [("m.a", 4), ("m.b", None), ("m.c", None), ("m.d", 128)]
    assert sorted(stray) == ["m:11", "m:12"]

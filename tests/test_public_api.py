"""Every module's ``__all__`` names real objects, and the package root
re-exports only names that its modules export.

``leavitt/__init__.py`` is read with ``ast``, so a name it imports from a
module that no longer lists it in ``__all__`` is reported by name rather than
only as an import error.
"""

import ast
import importlib
from collections import Counter
from functools import lru_cache
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


# Public names that nothing else in src/ uses, and why each stays public.
UNREFERENCED_OK = {
    # wrapped by the benchmark tracer, so it must stay importable by name
    "subgroup_equal",
    "lattice_isomorphisms",
    "graded_expand_to_level",
    "successors_one_step",
    "subquotient",
    "connecting_delta",
    # graph text formats and constructors, for writing inputs
    "graph_to_text",
    "matrix_to_text",
    "relabel",
    "graph_from_matrix",
}


def _loaded_names(tree):
    """How often ``tree`` loads each name, as a name or as an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
        or isinstance(node, ast.Attribute)
    )


def _loaded_attributes(tree):
    """How often ``tree`` loads each name as an attribute."""
    return Counter(
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    )


@lru_cache(maxsize=None)
def _src():
    """Each src/ module's syntax tree."""
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}


@lru_cache(maxsize=None)
def _loads(count):
    """``count`` of each src/ module's syntax tree, one walk each."""
    return {module: count(tree) for module, tree in _src().items()}


def _references(name, own_module=None, own_definition=None, count=_loaded_names):
    """Modules whose code loads ``name`` (by default as a name or an
    attribute, as ``count`` counts), outside the subtree of its own
    definition in ``own_module``."""
    own = count(own_definition)[name] if own_definition else 0
    return [
        module
        for module, loads in _loads(count).items()
        if loads[name] > (own if module == own_module else 0)
    ]


def test_every_public_name_is_used_in_src():
    """A name in some ``__all__`` that no code in ``src/`` reaches (imports
    and ``__all__`` strings do not count) is a test-only helper; it belongs
    in ``tests/helpers.py`` unless ``UNREFERENCED_OK`` says why not."""
    trees = _src()
    unused = []
    for name in MODULES:
        tree = trees[name]
        for public in importlib.import_module(f"leavitt.{name}").__all__:
            own = next(
                (
                    node
                    for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == public
                ),
                None,
            )
            if not _references(public, name, own) and public not in UNREFERENCED_OK:
                unused.append(f"{name}.{public}")
    assert not unused, unused
    assert all(
        _references(public) == [] for public in UNREFERENCED_OK
    ), "an exception is now used in src/; drop it from UNREFERENCED_OK"


# Public methods (and properties) that nothing in src/ calls, as
# "Class.method", and why each stays public.  A name no other class has is
# checked to stay uncalled; a shared one cannot be told apart by name.
UNCALLED_METHODS_OK: dict[str, str] = {
    "FilteredKTable.row": "one row of a table with its vertex names, for API callers; "
    "the table reads its rows' skeleton records by vertex mask",
    "FilteredKTable.rows": "every row of a table with its vertex names, for API callers, "
    "tests and the benchmark tracer, which counts them; the fk writer reads skeleton records",
}


def _public_methods(tree):
    """(class name, definition) of every public method of every class."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    yield cls.name, node


def test_every_public_method_is_used_in_src():
    """A public method whose name no code in ``src/`` loads as an attribute,
    outside its own body, is a test-only helper; it belongs in
    ``tests/helpers.py`` as a function unless ``UNCALLED_METHODS_OK`` says
    why not.  Names are matched as attribute loads, not resolved to
    classes, so a method passes when any attribute of its name is loaded
    (a bare name or an assigned attribute does not count); a name that
    something else also has is checked by
    ``test_shared_name_methods_have_listed_call_sites``.  A listed method
    whose name is loaded is stale, unless that name is shared."""
    trees = _src()
    unused = [
        f"{module}.{cls}.{method.name}"
        for module, tree in sorted(trees.items())
        for cls, method in _public_methods(tree)
        if f"{cls}.{method.name}" not in UNCALLED_METHODS_OK
        and not _references(method.name, module, method, count=_loaded_attributes)
    ]
    assert not unused, unused
    stale = [
        key
        for key in UNCALLED_METHODS_OK
        if key not in _shared_methods()
        and _references(key.split(".")[1], count=_loaded_attributes)
    ]
    assert not stale, f"now used in src/; drop from UNCALLED_METHODS_OK: {stale}"


# Public methods (and properties) whose name another class in src/ or a
# builtin type also has, as "Class.method", each with one src/ function that
# calls it, as "module.function" or "module.Class.method".  A name match
# cannot tell such methods apart, so the call site is listed by hand and
# checked to load the name.
SHARED_NAME_CALLS = {
    "FilteredKTable.body": "filtered._match_rows",
    "Graph.index": "ktheory.connecting_delta",
    "NodeVerdict.exact": "ktheory._skeleton_nodes",
    "CoeffCokernel.symbol": "ktheory.KOneBar.symbol",
    "CoeffCokernel.class_key": "ktheory.KOneBar.class_key",
    "KOneBar.class_key": "filtered.TableEntry.class_key",
    "TableEntry.class_key": "filtered.TableEntry.same_class",
    "KOneBar.kernel": "ktheory._row_body",
    "KOneBar.symbol": "cli._cmd_k1",
    "VdbReport.consistent": "cli._cmd_vdb",
    "SubquotientStore.get": "ktheory._row_body",
    "NodeReport.exact": "ktheory._Skeleton.exact",
    "_Skeleton.exact": "filtered._match_rows",
    "MonoidElement.of": "monoid.parse_monoid_element",
    "MonoidElement.get": "monoid.ungraded_equal",
    "GradedElement.of": "monoid.parse_graded_element",
}

_BUILTIN_TYPES = (object, str, bytes, int, float, tuple, list, dict, set, frozenset)


def _class_attributes(cls):
    """Names a class defines: methods, class-level fields, ``__slots__``
    entries and attributes assigned on ``self``."""
    names = set()
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    names.update(ast.literal_eval(node.value))
                elif isinstance(target, ast.Name):
                    names.add(target.id)
    for node in ast.walk(cls):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            names.add(node.attr)
    return names


def _function(trees, path):
    """The definition named ``module.function`` or ``module.Class.method``."""
    module, *names = path.split(".")
    body = trees[module].body
    node = None
    for name in names:
        node = next(
            (n for n in body if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == name),
            None,
        )
        if node is None:
            return None
        body = node.body
    return node


@lru_cache(maxsize=None)
def _shared_methods():
    """Every public method, as "Class.method", whose name another class in
    ``src/`` or a builtin type also has."""
    trees = _src()
    classes = [c for tree in trees.values() for c in ast.walk(tree) if isinstance(c, ast.ClassDef)]
    defined = {c.name: _class_attributes(c) for c in classes}
    return frozenset(
        f"{cls}.{method.name}"
        for tree in trees.values()
        for cls, method in _public_methods(tree)
        if any(hasattr(t, method.name) for t in _BUILTIN_TYPES)
        or any(method.name in names for other, names in defined.items() if other != cls)
    )


def test_shared_name_methods_have_listed_call_sites():
    """Every public method whose name another class in ``src/`` or a
    builtin type also has is in ``SHARED_NAME_CALLS`` (or in
    ``UNCALLED_METHODS_OK``), and the function listed for it loads the
    name; a listed method whose name is no longer shared is stale."""
    trees = _src()
    shared = _shared_methods()
    unlisted = sorted(shared - set(SHARED_NAME_CALLS) - set(UNCALLED_METHODS_OK))
    assert not unlisted, f"list a src/ call site in SHARED_NAME_CALLS: {unlisted}"
    stale = sorted(set(SHARED_NAME_CALLS) - shared)
    assert not stale, f"no longer a shared public name; drop from SHARED_NAME_CALLS: {stale}"
    wrong = []
    for key, site in SHARED_NAME_CALLS.items():
        function = _function(trees, site)
        name = key.split(".")[1]
        if function is None or not any(
            isinstance(node, ast.Attribute) and node.attr == name and isinstance(node.ctx, ast.Load)
            for node in ast.walk(function)
        ):
            wrong.append(f"{key}: {site}")
    assert not wrong, f"listed call sites that do not load the name: {wrong}"

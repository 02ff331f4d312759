"""Spans around the library's public functions, installed from outside.

The library binds names with ``from .x import y``, so a function is wrapped
by replacing every module attribute that holds it, and unwrapped by putting
the originals back.  Spans (op id, span id, parent id, name, start, end) are
kept in memory; the runner writes them out when the run ends.  The code
under test is single threaded and has no queues, so there is no waiting
time to record: a span's self time is its duration minus its children's.
"""

from __future__ import annotations

import statistics
import sys
from collections import Counter
from time import perf_counter_ns

# (module, function, span name).  Functions in one metric group share a
# group prefix below; their time is counted once when they nest.
SPANNED = [
    ("cli", "main", "cli"),
    ("graphs", "parse_graph", "graphs.parse"),
    ("graphs", "parse_matrix", "graphs.parse"),
    ("graphs", "restriction", "graphs.surgery"),
    ("graphs", "quotient", "graphs.surgery"),
    ("graphs", "subquotient", "graphs.surgery"),
    ("intlinalg", "snf", "intlinalg.snf"),
    ("intlinalg", "subgroup_equal", "intlinalg.subgroup_equal"),
    ("intlinalg", "preimage_lattice", "intlinalg.preimage_lattice"),
    ("intlinalg", "kernel_basis", "intlinalg.kernel_basis"),
    ("intlinalg", "coker_with_coefficients", "intlinalg.coker_with_coefficients"),
    ("lattice", "enumerate_hsat", "lattice.enumerate_hsat"),
    ("lattice", "spectrum", "lattice.spectrum"),
    ("lattice", "locally_closed_all", "lattice.locally_closed_all"),
    ("lattice", "lattice_isomorphisms", "lattice.isomorphisms"),
    ("ktheory", "six_term_row", "ktheory.six_term_row"),
    ("ktheory", "connecting_delta", "ktheory.connecting_delta"),
    ("ktheory", "k0", "ktheory.k0"),
    ("ktheory", "k1", "ktheory.k1"),
    ("ktheory", "vdb_sequence", "ktheory.vdb_sequence"),
    ("filtered", "fkbar", "filtered.fkbar"),
    ("filtered", "compare_fkbar", "filtered.compare_fkbar"),
    ("monoid", "ungraded_equal", "monoid.ungraded_equal"),
    ("monoid", "graded_equal", "monoid.graded_equal"),
    ("shifts", "bowen_franks", "shifts.invariants"),
    ("shifts", "det_invariant", "shifts.invariants"),
    ("shifts", "shift_equivalent_bounded", "shifts.search"),
]

# Hot helpers are only counted (into the innermost open span), not spanned.
COUNTED = [
    ("lattice", "hsat_closure", "lattice.hsat_closure.calls"),
    ("monoid", "successors_one_step", "monoid.bfs.expansions"),
    ("monoid", "graded_expand_to_level", "monoid.graded_expand.calls"),
    ("shifts", "verify_certificate", "shifts.verify_certificate.calls"),
]

EXACTNESS = {"intlinalg.subgroup_equal", "intlinalg.preimage_lattice", "intlinalg.kernel_basis"}


def _group(name):
    return "intlinalg.exactness" if name in EXACTNESS else name


def _result_attrs(name, result, attrs):
    if name == "lattice.enumerate_hsat":
        attrs["elements"] = len(result.elements)
    elif name == "lattice.isomorphisms":
        attrs["count"] = len(result)
    elif name == "filtered.fkbar":
        attrs["rows"] = len(result.rows)
    elif name == "monoid.ungraded_equal":
        attrs["unknown"] = result.kind == "unknown"
    elif name == "shifts.search":
        attrs["unknown"] = result.kind == "unknown"


class Tracer:
    """Records spans while installed; ``op`` tags every span with the current op."""

    def __init__(self):
        self.spans = []  # (op, id, parent, name, start_ns, end_ns, attrs, nested)
        self.op = None
        self._stack = []  # (id, attrs) of open spans
        self._open = Counter()  # group -> open spans of that group
        self._next = 0
        self._undo = []

    # -- installing -------------------------------------------------------

    def install(self):
        mods = [m for n, m in list(sys.modules.items()) if n == "leavitt" or n.startswith("leavitt.")]
        for modname, fname, span in SPANNED:
            orig = getattr(sys.modules[f"leavitt.{modname}"], fname)
            self._rebind(mods, orig, self._spanned(orig, span))
        for modname, fname, counter in COUNTED:
            orig = getattr(sys.modules[f"leavitt.{modname}"], fname)
            self._rebind(mods, orig, self._counted(orig, counter))

    def uninstall(self):
        for mod, name, orig in reversed(self._undo):
            setattr(mod, name, orig)
        self._undo.clear()

    def _rebind(self, mods, orig, wrapper):
        for mod in mods:
            for name, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, name, wrapper)
                    self._undo.append((mod, name, orig))

    def _spanned(self, orig, name):
        spans, stack, open_groups = self.spans, self._stack, self._open
        is_snf = name == "intlinalg.snf"
        group = _group(name)

        def wrapper(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = stack[-1][0] if stack else None
            attrs = {}
            stack.append((sid, attrs))
            nested = open_groups[group] > 0
            open_groups[group] += 1
            if is_snf:
                misses = orig.cache_info().misses
            start = perf_counter_ns()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                open_groups[group] -= 1
                spans.append((self.op, sid, parent, name, start, end, attrs, nested))
            if is_snf:
                if orig.cache_info().misses != misses:
                    attrs["miss"] = (args[0], result)
            else:
                _result_attrs(name, result, attrs)
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    def _counted(self, orig, name):
        stack = self._stack

        def wrapper(*args, **kwargs):
            if stack:
                attrs = stack[-1][1]
                attrs[name] = attrs.get(name, 0) + 1
            return orig(*args, **kwargs)

        wrapper.__wrapped__ = orig
        return wrapper

    # -- output -----------------------------------------------------------

    def take(self):
        """Spans recorded since the last call, removed from the tracer."""
        out = self.spans[:]
        self.spans.clear()
        return out

    @staticmethod
    def write(spans, path):
        """One CSV line per span: op,id,parent,name,start_ns,end_ns."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op,id,parent,name,start_ns,end_ns\n")
            fh.writelines(
                f"{op},{sid},{'' if parent is None else parent},{name},{start},{end}\n"
                for op, sid, parent, name, start, end, *_ in spans
            )


def _bits(m):
    return max((abs(x).bit_length() for row in m.data for x in row), default=0)


def layer_metrics(spans, stdout_bytes):
    """Per-layer numbers of one traced pass.

    ``.s`` is inclusive time, counted once where spans of one group nest;
    ``.self_s`` subtracts the time covered by child spans.
    """
    child_ns = Counter()
    for s in spans:
        if s[2] is not None:
            child_ns[s[2]] += s[5] - s[4]

    incl = Counter()  # group -> ns, outermost spans only
    self_ns = Counter()
    calls = Counter()
    counts = Counter()
    snf_hit_ns = snf_miss_ns = 0
    max_dim = max_bits = 0
    unknown_expansions = 0
    unknown_search_ns = 0
    for s in spans:
        name, dur, attrs = s[3], s[5] - s[4], s[6]
        calls[name] += 1
        self_ns[name] += dur - child_ns[s[1]]
        if not s[7]:
            incl[_group(name)] += dur
        for key, value in attrs.items():
            if key.endswith(".calls") or key.endswith(".expansions"):
                counts[key] += value
        if name == "intlinalg.snf":
            if "miss" in attrs:
                snf_miss_ns += dur
                matrix, smith = attrs["miss"]
                max_dim = max(max_dim, matrix.rows, matrix.cols)
                max_bits = max(max_bits, _bits(smith.u), _bits(smith.v))
            else:
                snf_hit_ns += dur
        elif name == "lattice.enumerate_hsat":
            counts["lattice.elements"] += attrs["elements"]
        elif name == "lattice.isomorphisms":
            counts["lattice.isomorphisms.count"] += attrs["count"]
        elif name == "filtered.fkbar":
            counts["filtered.rows"] += attrs["rows"]
        elif name == "monoid.ungraded_equal" and attrs["unknown"]:
            unknown_expansions += attrs.get("monoid.bfs.expansions", 0)
        elif name == "shifts.search" and attrs["unknown"]:
            unknown_search_ns += dur

    snf_calls = calls["intlinalg.snf"]
    snf_misses = sum(1 for s in spans if s[3] == "intlinalg.snf" and "miss" in s[6])
    sec = 1e-9
    return {
        "cli.self_s": self_ns["cli"] * sec,
        "cli.stdout_bytes": stdout_bytes,
        "graphs.parse.s": incl["graphs.parse"] * sec,
        "graphs.surgery.calls": calls["graphs.surgery"],
        "graphs.surgery.s": incl["graphs.surgery"] * sec,
        "intlinalg.snf.calls": snf_calls,
        "intlinalg.snf.misses": snf_misses,
        "intlinalg.snf.hit_s": snf_hit_ns * sec,
        "intlinalg.snf.miss_s": snf_miss_ns * sec,
        "intlinalg.snf.max_dim": max_dim,
        "intlinalg.snf.max_entry_bits": max_bits,
        "intlinalg.exactness.s": incl["intlinalg.exactness"] * sec,
        "intlinalg.subgroup_equal.calls": calls["intlinalg.subgroup_equal"],
        "intlinalg.coker_with_coefficients.s": incl["intlinalg.coker_with_coefficients"] * sec,
        "lattice.enumerate_hsat.s": incl["lattice.enumerate_hsat"] * sec,
        "lattice.elements": counts["lattice.elements"],
        "lattice.hsat_closure.calls": counts["lattice.hsat_closure.calls"],
        "lattice.spectrum.s": incl["lattice.spectrum"] * sec,
        "lattice.locally_closed_all.s": incl["lattice.locally_closed_all"] * sec,
        "lattice.isomorphisms.s": incl["lattice.isomorphisms"] * sec,
        "lattice.isomorphisms.count": counts["lattice.isomorphisms.count"],
        "ktheory.six_term_row.calls": calls["ktheory.six_term_row"],
        "ktheory.six_term_row.self_s": self_ns["ktheory.six_term_row"] * sec,
        "ktheory.connecting_delta.s": incl["ktheory.connecting_delta"] * sec,
        "ktheory.k0.s": incl["ktheory.k0"] * sec,
        "ktheory.k1.s": incl["ktheory.k1"] * sec,
        "ktheory.vdb_sequence.s": incl["ktheory.vdb_sequence"] * sec,
        "filtered.fkbar.self_s": self_ns["filtered.fkbar"] * sec,
        "filtered.rows": counts["filtered.rows"],
        "filtered.compare_fkbar.self_s": self_ns["filtered.compare_fkbar"] * sec,
        "monoid.ungraded_equal.s": incl["monoid.ungraded_equal"] * sec,
        "monoid.bfs.expansions": counts["monoid.bfs.expansions"],
        "monoid.bfs.unknown_expansions": unknown_expansions,
        "monoid.graded_equal.s": incl["monoid.graded_equal"] * sec,
        "monoid.graded_expand.calls": counts["monoid.graded_expand.calls"],
        "shifts.invariants.s": incl["shifts.invariants"] * sec,
        "shifts.search.self_s": self_ns["shifts.search"] * sec,
        "shifts.verify_certificate.calls": counts["shifts.verify_certificate.calls"],
        "shifts.unknown_s": unknown_search_ns * sec,
    }


MAXIMA = {"intlinalg.snf.max_dim", "intlinalg.snf.max_entry_bits"}


def combine(per_pass, element_checks):
    """Median per traced pass for sums; maxima and ratios over the whole run.

    ``element_checks`` holds the element-search outcome each traced compare
    reported; the passed ratio is over those that ran the search.
    """
    out = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    for k in MAXIMA:
        out[k] = max(p[k] for p in per_pass)
    calls = sum(p["intlinalg.snf.calls"] for p in per_pass)
    misses = sum(p["intlinalg.snf.misses"] for p in per_pass)
    out["intlinalg.snf.hit_ratio"] = (calls - misses) / calls if calls else 0.0
    tried = [e for e in element_checks if e != "skipped"]
    passed = sum(1 for e in tried if e == "passed")
    out["filtered.element_search.passed_ratio"] = passed / len(tried) if tried else 0.0
    return out

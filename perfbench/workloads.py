"""Seeded inputs for the three workloads, each with its independent check.

A workload is a list of passes.  One pass is a fixed recipe of families and
sizes (the "ladder"); only the random content changes from pass to pass,
so pass totals are comparable.  Every input gets fresh vertex names or
entries, so no input repeats within a run.

An ``Op`` carries the CLI argv (``--json`` is added by the runner) and a
check that sees only the exit code and the parsed JSON.  Checks compare
mathematical content against ``oracles`` and against verdicts known by
construction; exit codes carry the verdicts (0 yes, 1 obstruction, 3 budget
exhausted), so a renamed report field does not turn into a failure.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import oracles as orc

EXIT_OK, EXIT_NO, EXIT_BUDGET = 0, 1, 3


@dataclass
class Op:
    verb: str
    argv: list
    check: Callable  # (exit_code, payload) -> error message or None
    decision: bool = False  # a monoid-eq/shifteq verdict that may be "unknown"


def _expect_codes(codes, what):
    def check(code, payload):
        if code not in codes:
            return f"{what}: exit {code}, expected one of {sorted(codes)}"
        return None

    return check


# ---------------------------------------------------------------------------
# graph construction helpers
# ---------------------------------------------------------------------------


class Files:
    """Writes the inputs of one pass into its own directory."""

    def __init__(self, root):
        self.root = root
        self.count = 0
        os.makedirs(root, exist_ok=True)

    def _path(self, suffix):
        self.count += 1
        return os.path.join(self.root, f"in{self.count:04d}{suffix}")

    def graph(self, vertices, edges):
        path = self._path(".graph")
        lines = ["vertices: " + " ".join(vertices)]
        lines += [f"edge {name} {src} {dst}" for name, src, dst in edges]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return path

    def matrix(self, rows):
        path = self._path(".mat")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(" ".join(map(str, r)) for r in rows) + "\n")
        return path


def relabel(rng, vertices, edges, prefix):
    """Fresh names and a shuffled declaration order: the same graph, a new input."""
    order = list(vertices)
    rng.shuffle(order)
    names = {v: f"{prefix}{i}" for i, v in enumerate(order)}
    new_edges = [(f"e{prefix}{i}", names[s], names[d]) for i, (_, s, d) in enumerate(edges)]
    rng.shuffle(new_edges)
    return [names[v] for v in order], new_edges


def disjoint_loops(k):
    vs = [f"x{i}" for i in range(k)]
    return vs, [(f"l{i}", v, v) for i, v in enumerate(vs)]


def line_with_loops(n):
    vs = [f"x{i}" for i in range(n)]
    edges = [(f"l{i}", v, v) for i, v in enumerate(vs)]
    edges += [(f"f{i}", vs[i], vs[i + 1]) for i in range(n - 1)]
    return vs, edges


def random_graph(rng, n, sink_prob=0.15, max_out=3):
    vs = [f"x{i}" for i in range(n)]
    edges = []
    for v in vs:
        if rng.random() < sink_prob:
            continue
        for _ in range(rng.randint(1, max_out)):
            edges.append((f"e{len(edges)}", v, rng.choice(vs)))
    return vs, edges


def two_petal_roses(count):
    """Disjoint roses with two loops each: every vertex has K0 class 0."""
    vs = [f"r{i}" for i in range(count)]
    return vs, [(f"p{i}{j}", v, v) for i, v in enumerate(vs) for j in range(2)]


def k0_invariants(vertices, edges):
    return orc.cokernel_invariants(orc.k_matrix(vertices, edges), len(vertices))


def element_text(coeffs, level=None):
    """``2*v+w``, or ``2*v(1)+w(1)`` with a level."""
    lvl = "" if level is None else f"({level})"
    return "+".join(f"{n}*{v}{lvl}" if n != 1 else f"{v}{lvl}" for v, n in sorted(coeffs.items()))


# ---------------------------------------------------------------------------
# lattice-tables
# ---------------------------------------------------------------------------

# Largest rungs: 4 disjoint loops for fk (16 lattice elements, 81 rows;
# 5 loops takes ~2 s and 6 loops ~12 s), 6 loops for spec, and lines of up
# to 7 loops (an 8-element chain, 120 rows).  Each random rung pins the
# vertex count and the lattice shape (elements, nested triples), so its cost
# varies little from draw to draw; the shapes are the common ones among
# random graphs of that size.
LOOPS_FK = (1, 2, 3, 4)
LOOPS_SPEC = (5, 6)
LINES = (3, 5, 7)
RANDOM_RUNGS = ((5, 3, 10), (6, 4, 20), (7, 5, 30), (8, 6, 40),
                (9, 4, 16), (10, 5, 30), (11, 6, 40), (12, 4, 20))
MAX_TRIPLES = 120


def _check_fk(vertices, edges):
    elems = orc.hsat_sets(vertices, edges)
    want_rows = orc.nested_triples(elems)
    want_lattice = {frozenset(e) for e in elems}

    def check(code, payload):
        if code != EXIT_OK:
            return f"fk: exit {code}, expected every row exact (0)"
        got = {frozenset(e) for e in payload["lattice"]}
        if got != want_lattice:
            return "fk: lattice differs from the 2^V enumeration"
        if len(payload["rows"]) != want_rows:
            return f"fk: {len(payload['rows'])} rows, expected {want_rows} nested triples"
        return None

    return check


def _check_spec(vertices, edges):
    elems, primes, diffs = orc.spectrum_oracle(vertices, edges)
    want_elems = set(elems)
    want_primes = set(primes)
    want_diffs = {frozenset(primes[i] for i in d) for d in diffs}

    def check(code, payload):
        if code != EXIT_OK:
            return f"spec: exit {code}"
        if {frozenset(e) for e in payload["elements"]} != want_elems:
            return "spec: lattice differs from the 2^V enumeration"
        prime_sets = [frozenset(p) for p in payload["prime_members"]]
        if set(prime_sets) != want_primes:
            return "spec: primes differ from the meet-prime elements"
        got = {frozenset(prime_sets[i] for i in pc["difference"]) for pc in payload["pieces"]}
        if got != want_diffs:
            return "spec: locally closed pieces differ"
        return None

    return check


def _k0_changed_copy(vertices, edges):
    """The graph with one more edge, the first (loops first) that changes K0."""
    base = k0_invariants(vertices, edges)
    candidates = [(v, v) for v in vertices]
    candidates += [(v, w) for v in vertices for w in vertices if v != w]
    for v, w in candidates:
        extra = edges + [("k0", v, w)]
        if (k0_invariants(vertices, extra) != base
                and orc.nested_triples(orc.hsat_sets(vertices, extra)) <= MAX_TRIPLES):
            return extra
    raise RuntimeError("no added edge changes K0 within the size limits")


def _random_rung(rng, n, elements, triples):
    while True:
        vs, es = random_graph(rng, n)
        elems = orc.hsat_sets(vs, es)
        if len(elems) == elements and orc.nested_triples(elems) == triples:
            return vs, es


def lattice_tables(rng, files, pass_index):
    # (graph, run fk?, run compare?)
    ladder = [(disjoint_loops(k), True, k <= 3) for k in LOOPS_FK]
    ladder += [(disjoint_loops(k), False, False) for k in LOOPS_SPEC]
    ladder += [(line_with_loops(n), True, n <= 5) for n in LINES]
    ladder += [(_random_rung(rng, *rung), True, True) for rung in RANDOM_RUNGS]
    ops = []
    for idx, ((vs, es), with_fk, with_compare) in enumerate(ladder):
        vs, es = relabel(rng, vs, es, f"p{pass_index}g{idx}v")
        path = files.graph(vs, es)
        field_args = ["--field", "5"] if (idx + pass_index) % 2 else []
        ops.append(Op("spec", ["spec", path], _check_spec(vs, es)))
        if with_fk:
            ops.append(Op("fk", ["fk", path] + field_args, _check_fk(vs, es)))
        if with_compare:
            cvs, ces = relabel(rng, vs, es, f"p{pass_index}g{idx}c")
            same = files.graph(cvs, ces)
            ops.append(
                Op("compare", ["compare", path, same] + field_args,
                   _expect_codes({EXIT_OK}, "compare with a relabelled copy"))
            )
            dvs, des = relabel(rng, vs, _k0_changed_copy(vs, es), f"p{pass_index}g{idx}d")
            other = files.graph(dvs, des)
            ops.append(
                Op("compare", ["compare", path, other] + field_args,
                   _expect_codes({EXIT_NO}, "compare with a copy whose K0 differs"))
            )
    return ops


# ---------------------------------------------------------------------------
# matrix-invariants
# ---------------------------------------------------------------------------

# Dense SNF grows entry sizes fast: from n = 30 some draws take 0.5-1 s,
# n = 40 takes minutes, so dense rungs stop at 28 (about 15 ms each).  The
# fifteen draws at 28 straddle the median op (13 cheaper ops, 10 dearer),
# which keeps op_ms.p50 inside one group of alike ops.
# Sparse rungs go to 200 (about 0.45 s), where entries stay small.  shifteq
# searches stay at dimension 2-3: 4x4 searches can run into the
# 200,000-node cap (seconds), so dimension 4 appears only in pairs the
# invariant screen rejects.
BF_DENSE = (20, 24) + (28,) * 15
# The six ops at n = 200 are the slowest tenth of a pass; op_ms.p90 falls
# inside that group rather than between groups.
BF_SPARSE = (50, 100, 200, 200)
K_SPARSE = (100, 200, 200)
SE_SEARCH_DIMS = (2, 2, 3, 3)
SE_OBSTRUCTION_DIMS = (2, 3, 4)
# 3x3 searches with entries up to 2 visit under 3^9 R candidates per lag,
# far below the 200,000-node cap; at the default entry bound 4 about one
# search in 300 runs into the cap and takes ~4 s.
SE_ENTRY_3X3 = ["--max-entry", "2"]


def _dense(rng, n, hi=3):
    return [[rng.randint(0, hi) for _ in range(n)] for _ in range(n)]


def _sparse(rng, n):
    """One or two unit entries per row: transfer matrices of sparse graphs."""
    rows = [[0] * n for _ in range(n)]
    for r in rows:
        for _ in range(rng.randint(1, 2)):
            r[rng.randrange(n)] += 1
    return rows


def _check_bf(a):
    m = orc.i_minus(a)
    n = len(a)
    exact = orc.det_exact(m) if n <= 40 else None
    rank, det_p = orc.rank_det_mod(m)

    def check(code, payload):
        if code != EXIT_OK:
            return f"bf: exit {code}"
        group = payload["bowen_franks"]
        det = payload["det_invariant"]
        if exact is not None and det != exact:
            return "bf: det(I - A) differs from the Bareiss determinant"
        if det % orc.PRIME != det_p:
            return "bf: det(I - A) differs modulo p"
        if group["free_rank"] != n - rank:
            return f"bf: free rank {group['free_rank']}, expected {n - rank}"
        if det and math.prod(group["torsion"]) != abs(det):
            return "bf: torsion product differs from |det(I - A)|"
        return None

    return check


def _check_k(verb, vertices, edges):
    km = orc.k_matrix(vertices, edges)  # square: every vertex is regular
    n = len(vertices)
    rank, det_p = orc.rank_det_mod(km)

    def check(code, payload):
        if code != EXIT_OK:
            return f"{verb}: exit {code}"
        if verb == "k0":
            group = payload["group"]
            if group["free_rank"] != n - rank:
                return f"k0: free rank {group['free_rank']}, expected {n - rank}"
            if rank == n and math.prod(group["torsion"]) % orc.PRIME not in (
                det_p, -det_p % orc.PRIME
            ):
                return "k0: torsion product differs from |det| modulo p"
        elif payload["kernel_rank"] != n - rank:
            return f"k1: kernel rank {payload['kernel_rank']}, expected {n - rank}"
        return None

    return check


def _check_certificate(a, b, expect):
    def check(code, payload):
        if code not in expect:
            return f"shifteq: exit {code}, expected one of {sorted(expect)}"
        if code == EXIT_OK:
            cert = payload["certificate"]
            r, s, lag = cert["r"], cert["s"], cert["lag"]
            if lag < 1 or any(x < 0 for row in r + s for x in row):
                return "shifteq: certificate has a negative entry or lag < 1"
            if orc.matmul(a, r) != orc.matmul(r, b) or orc.matmul(s, a) != orc.matmul(b, s):
                return "shifteq: certificate does not intertwine"
            if orc.matmul(r, s) != orc.matpow(a, lag) or orc.matmul(s, r) != orc.matpow(b, lag):
                return "shifteq: R S or S R is not the lag power"
        return None

    return check


def _permuted(rng, a):
    n = len(a)
    perm = list(range(n))
    rng.shuffle(perm)
    return [[a[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


def matrix_invariants(rng, files, pass_index):
    ops = []
    for n in BF_DENSE:
        a = _dense(rng, n)
        ops.append(Op("bf", ["bf", files.matrix(a)], _check_bf(a)))
    for n in BF_SPARSE:
        a = _sparse(rng, n)
        ops.append(Op("bf", ["bf", files.matrix(a)], _check_bf(a)))
    for n in K_SPARSE:
        for verb in ("k0", "k1"):
            vs, es = random_graph(rng, n, sink_prob=0.0, max_out=2)
            vs, es = relabel(rng, vs, es, f"p{pass_index}n{n}{verb}")
            ops.append(Op(verb, [verb, files.graph(vs, es)], _check_k(verb, vs, es)))
    for n in SE_SEARCH_DIMS:
        a = _dense(rng, n, hi=2)
        bounds = SE_ENTRY_3X3 if n == 3 else []
        for b in (_permuted(rng, a), orc.transpose(a)):
            ops.append(
                Op("shifteq", ["shifteq", files.matrix(a), files.matrix(b)] + bounds,
                   _check_certificate(a, b, {EXIT_OK, EXIT_BUDGET}), decision=True)
            )
    for n in SE_OBSTRUCTION_DIMS:
        while True:
            a = _dense(rng, n, hi=2)
            b = [list(r) for r in a]
            b[rng.randrange(n)][rng.randrange(n)] += 1
            if orc.det_exact(orc.i_minus(a)) != orc.det_exact(orc.i_minus(b)):
                break
        ops.append(
            Op("shifteq", ["shifteq", files.matrix(a), files.matrix(b)],
               _check_certificate(a, b, {EXIT_NO}), decision=True)
        )
    return ops


# ---------------------------------------------------------------------------
# monoid-verdicts
# ---------------------------------------------------------------------------

MONOID_SIZES = (4, 5, 6, 7, 8, 9, 10, 11, 12)
# vdb on larger graphs (15-30 ms each) is the slowest sixth of a pass, so
# op_ms.p90 falls inside that group instead of among the few-ms ops, whose
# tail moves with every scheduling hiccup.
VDB_SIZES = (30, 32, 34, 36, 38, 40, 42, 44)


def _random_element(rng, vertices, terms=3, hi=2):
    coeffs = {}
    for _ in range(rng.randint(1, terms)):
        v = rng.choice(vertices)
        coeffs[v] = coeffs.get(v, 0) + rng.randint(1, hi)
    return coeffs


def _rewritten(rng, vertices, edges, coeffs, steps):
    regs = {s for _, s, _ in edges}
    for _ in range(steps):
        choices = [v for v in coeffs if v in regs]
        if not choices:
            break
        coeffs = orc.rewrite(vertices, edges, coeffs, rng.choice(sorted(choices)))
    return coeffs


def _expanded_graded(rng, vertices, edges, coeffs, level):
    """Rewrite one regular generator v(level) into its ranges at level - 1."""
    regs = sorted({s for _, s, _ in edges} & set(coeffs))
    if not regs:
        return None
    v = rng.choice(regs)
    terms = {(u, level): n for u, n in coeffs.items()}
    terms[(v, level)] -= 1
    if not terms[(v, level)]:
        del terms[(v, level)]
    for _, s, d in edges:
        if s == v:
            terms[(d, level - 1)] = terms.get((d, level - 1), 0) + 1
    return "+".join(
        f"{n}*{u}({lvl})" if n != 1 else f"{u}({lvl})" for (u, lvl), n in sorted(terms.items())
    )


def monoid_verdicts(rng, files, pass_index):
    ops = []
    for idx, n in enumerate(MONOID_SIZES):
        while True:  # a nontrivial K0, so that two classes can differ
            vs, es = random_graph(rng, n)
            if k0_invariants(vs, es) != (0, []):
                break
        vs, es = relabel(rng, vs, es, f"p{pass_index}m{idx}v")
        path = files.graph(vs, es)
        km = orc.k_matrix(vs, es)

        # two rewrites of one ancestor are equal, so never "not-equal"
        c = _random_element(rng, vs)
        a = _rewritten(rng, vs, es, c, rng.randint(0, 2))
        b = _rewritten(rng, vs, es, c, rng.randint(1, 2))
        ops.append(
            Op("monoid-eq", ["monoid-eq", path, element_text(a), element_text(b)],
               _expect_codes({EXIT_OK, EXIT_BUDGET}, "monoid-eq of two rewrites"), decision=True)
        )

        # different K0 classes are never equal
        for _ in range(1000):
            a, b = _random_element(rng, vs), _random_element(rng, vs)
            diff = [a.get(v, 0) - b.get(v, 0) for v in vs]
            if not orc.in_column_span(km, diff):
                break
        else:
            raise RuntimeError("no pair of elements in different K0 classes")
        ops.append(
            Op("monoid-eq", ["monoid-eq", path, element_text(a), element_text(b)],
               _expect_codes({EXIT_NO}, "monoid-eq across K0 classes"), decision=True)
        )

        # graded: an expansion is equal, one more generator is not
        level = rng.randint(-1, 2)
        c = _random_element(rng, vs)
        expanded = _expanded_graded(rng, vs, es, c, level)
        if expanded is not None:
            ops.append(
                Op("graded-eq", ["graded-eq", path, element_text(c, level), expanded],
                   _expect_codes({EXIT_OK}, "graded-eq of an expansion"))
            )
        more = dict(c)
        extra = rng.choice(vs)
        more[extra] = more.get(extra, 0) + 1
        ops.append(
            Op("graded-eq", ["graded-eq", path, element_text(c, level), element_text(more, level)],
               _expect_codes({EXIT_NO}, "graded-eq with one more generator"))
        )

        field_args = ["--field", "5"] if (idx + pass_index) % 2 else []
        ops.append(Op("vdb", ["vdb", path] + field_args, _expect_codes({EXIT_OK}, "vdb")))

    for idx, n in enumerate(VDB_SIZES):
        vs, es = relabel(rng, *random_graph(rng, n), f"p{pass_index}d{idx}v")
        field_args = ["--field", "5"] if (idx + pass_index) % 2 else []
        ops.append(Op("vdb", ["vdb", files.graph(vs, es)] + field_args, _expect_codes({EXIT_OK}, "vdb")))

    # same K0 class, provably different: distinct 2-petal roses
    for count in (2, 3, 4):
        vs, es = relabel(rng, *two_petal_roses(count), f"p{pass_index}r{count}v")
        path = files.graph(vs, es)
        i, j = rng.sample(range(count), 2)
        mult = rng.randint(1, 3)
        ops.append(
            Op("monoid-eq", ["monoid-eq", path, element_text({vs[i]: mult}), element_text({vs[j]: mult})],
               _expect_codes({EXIT_NO, EXIT_BUDGET}, "monoid-eq of distinct roses"), decision=True)
        )
    return ops


WORKLOADS = {
    "lattice-tables": lattice_tables,
    "matrix-invariants": matrix_invariants,
    "monoid-verdicts": monoid_verdicts,
}


def make_pass(workload, seed, pass_index, root):
    """The ops of one pass; the same (workload, seed, pass) gives the same inputs."""
    rng = random.Random(f"{workload}/{seed}/{pass_index}")
    files = Files(os.path.join(root, f"pass{pass_index:03d}"))
    return WORKLOADS[workload](rng, files, pass_index)

"""Answers computed without the library, for checking what it prints.

Everything here is deliberately naive: a 2^V search for the ideal lattice,
plain elimination for ranks and determinants, and a pivot-by-pivot Smith
diagonal for small cokernels.  None of it imports ``leavitt``.
"""

from __future__ import annotations


# A 61-bit Mersenne prime: ranks and determinants of the large sparse inputs
# are checked modulo it instead of over Z, to keep the check cheaper than the
# operation it checks.
PRIME = (1 << 61) - 1


# ---------------------------------------------------------------------------
# graphs: (vertices, edges) with edges as (name, src, dst)
# ---------------------------------------------------------------------------


def out_targets(vertices, edges):
    out = {v: [] for v in vertices}
    for _, src, dst in edges:
        out[src].append(dst)
    return out


def hsat_sets(vertices, edges):
    """Every hereditary saturated vertex set, by trying all 2^V subsets."""
    bit = {v: 1 << i for i, v in enumerate(vertices)}
    out = [0] * len(vertices)
    for _, src, dst in edges:
        out[vertices.index(src)] |= bit[dst]
    found = []
    for mask in range(1 << len(vertices)):
        ok = True
        for i, targets in enumerate(out):
            inside = mask >> i & 1
            if inside and targets & ~mask:  # an edge leaves the set
                ok = False
                break
            if not inside and targets and not targets & ~mask:  # should be saturated in
                ok = False
                break
        if ok:
            found.append(frozenset(v for v in vertices if mask & bit[v]))
    return found


def spectrum_oracle(vertices, edges):
    """Lattice elements, prime elements and locally closed differences.

    A prime is a proper element p such that a ∩ b ⊆ p forces a ⊆ p or
    b ⊆ p (meet is intersection in this lattice).  The open set of an
    element is the set of primes it is not below.
    """
    elems = hsat_sets(vertices, edges)
    top = frozenset(vertices)
    primes = [
        p
        for p in elems
        if p != top
        and all(a <= p or b <= p for a in elems for b in elems if (a & b) <= p)
    ]
    opens = [frozenset(i for i, p in enumerate(primes) if not h <= p) for h in elems]
    diffs = {u - w for u in opens for w in opens if w <= u}
    return elems, primes, diffs


def nested_triples(elems):
    return sum(1 for a in elems for b in elems for c in elems if a <= b <= c)


def k_matrix(vertices, edges):
    """Rows all vertices, columns the non-sinks: edges w -> v, minus 1 on v = w."""
    out = out_targets(vertices, edges)
    regs = [w for w in vertices if out[w]]
    return [
        [out[w].count(v) - (1 if v == w else 0) for w in regs] for v in vertices
    ]


def rewrite(vertices, edges, coeffs, v):
    """One monoid rewrite: one copy of v becomes the ranges of its edges."""
    targets = out_targets(vertices, edges)[v]
    new = dict(coeffs)
    new[v] -= 1
    if not new[v]:
        del new[v]
    for t in targets:
        new[t] = new.get(t, 0) + 1
    return new


# ---------------------------------------------------------------------------
# integer matrices as lists of rows
# ---------------------------------------------------------------------------


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def matpow(a, k):
    out = [[int(i == j) for j in range(len(a))] for i in range(len(a))]
    for _ in range(k):
        out = matmul(out, a)
    return out


def i_minus(a):
    return [[int(i == j) - x for j, x in enumerate(row)] for i, row in enumerate(a)]


def transpose(a):
    return [list(c) for c in zip(*a)]


def det_exact(a):
    """Bareiss fraction-free determinant over Z."""
    m = [list(r) for r in a]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            mi, mk = m[i], m[k]
            f = mi[k]
            for j in range(k + 1, n):
                mi[j] = (mi[j] * pivot - f * mk[j]) // prev
        prev = pivot
    return sign * m[n - 1][n - 1] if n else 1


def rank_det_mod(a, p=PRIME):
    """Rank and (for square input) determinant of ``a`` modulo ``p``."""
    m = [[x % p for x in row] for row in a]
    rows, cols = len(m), len(m[0]) if m else 0
    rank, det = 0, 1
    for c in range(cols):
        piv = next((i for i in range(rank, rows) if m[i][c]), None)
        if piv is None:
            det = 0
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            det = -det
        pr = m[rank]
        det = det * pr[c] % p
        inv = pow(pr[c], p - 2, p)
        for i in range(rank + 1, rows):
            mi = m[i]
            f = mi[c] * inv % p
            if f:
                m[i] = mi[:c] + [(x - f * y) % p for x, y in zip(mi[c:], pr[c:])]
        rank += 1
    if rows != cols or rank < rows:
        det = 0
    return rank, det % p


def smith_diagonal(a):
    """Nonzero invariant factors and rank of a small integer matrix."""
    m = [list(r) for r in a if any(r)]
    diag = []
    while m and m[0]:
        entries = [(abs(x), i, j) for i, r in enumerate(m) for j, x in enumerate(r) if x]
        if not entries:
            break
        _, i, j = min(entries)
        m[0], m[i] = m[i], m[0]
        for r in m:
            r[0], r[j] = r[j], r[0]
        while True:
            p = m[0][0]
            dirty = False
            for r in m[1:]:
                q = r[0] // p
                if q:
                    for k in range(len(r)):
                        r[k] -= q * m[0][k]
                dirty |= r[0] != 0
            for k in range(1, len(m[0])):
                q = m[0][k] // p
                if q:
                    for r in m:
                        r[k] -= q * r[0]
                dirty |= m[0][k] != 0
            if not dirty:
                bad = next(
                    ((i, j) for i in range(1, len(m)) for j in range(1, len(m[0])) if m[i][j] % p),
                    None,
                )
                if bad is None:
                    break
                for k in range(len(m[0])):
                    m[0][k] += m[bad[0]][k]
                continue
            entries = [
                (abs(x), i, j)
                for i, r in enumerate(m)
                for j, x in enumerate(r)
                if x and (i == 0 or j == 0)
            ]
            _, i, j = min(entries)
            m[0], m[i] = m[i], m[0]
            for r in m:
                r[0], r[j] = r[j], r[0]
        diag.append(abs(m[0][0]))
        m = [r[1:] for r in m[1:]]
        m = [r for r in m if any(r)]
    return diag


def cokernel_invariants(a, rows):
    """(free rank, torsion) of Z^rows modulo the column span of ``a``."""
    diag = smith_diagonal(a) if a and a[0] else []
    return rows - len(diag), sorted(d for d in diag if d != 1)


def in_column_span(a, vec):
    """Is ``vec`` an integer combination of the columns of ``a``?

    Adding a vector outside the span makes the cokernel a proper quotient,
    and finitely generated abelian groups are not isomorphic to proper
    quotients of themselves; so membership is equality of invariants.
    """
    rows = len(vec)
    with_vec = [list(r) + [x] for r, x in zip(a, vec)] if a and a[0] else [[x] for x in vec]
    return cokernel_invariants(a, rows) == cokernel_invariants(with_vec, rows)

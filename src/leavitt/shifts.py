"""Shift equivalence over the nonnegative integers, bounded but exact.

A lag-ell shift equivalence between square nonnegative matrices A and B is
a pair of nonnegative integer matrices R, S with A R = R B, S A = B S,
R S = A^ell and S R = B^ell.  These equations are linear, so R and S are
points of integer solution lattices from the Smith engine, listed inside
the entry bound by a walk over an echelon basis.  The search is complete
within explicit entry and lag bounds and reports Unknown beyond them; the
cheap complete invariants (Bowen-Franks group, determinant of I - A) run
first and give sound obstructions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import count
from operator import neg

from .intlinalg import (
    FgAbGroup,
    IntMatrix,
    PresentedGroup,
    SmithData,
    _solve,
    kernel_basis,
    snf,
)

__all__ = [
    "ShiftEqCertificate",
    "SeResult",
    "bowen_franks",
    "det_invariant",
    "verify_certificate",
    "shift_equivalent_bounded",
]


def _check_shift_matrix(m: IntMatrix, name="matrix"):
    if m.rows != m.cols:
        raise ValueError(f"{name} must be square")
    if not m.is_nonnegative():
        raise ValueError(f"{name} must be nonnegative")


@lru_cache(maxsize=2)
def _identity_minus(m: IntMatrix) -> IntMatrix:
    """I - A of a square nonnegative A, built in one pass over its rows and
    kept for the last two matrices: ``bf`` and the shift screen ask for
    both invariants of each."""
    _check_shift_matrix(m)
    out = []
    for i, r in enumerate(m.data):
        row = list(map(neg, r))
        row[i] += 1
        out.append(tuple(row))
    return IntMatrix._trusted(tuple(out), m.cols)


def bowen_franks(m: IntMatrix) -> FgAbGroup:
    """Invariant factors of Z^n / (I - A) Z^n."""
    return PresentedGroup(_identity_minus(m)).invariants()


def det_invariant(m: IntMatrix) -> int:
    """Exact determinant of I - A, a shift equivalence invariant with sign."""
    return snf(_identity_minus(m)).det


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShiftEqCertificate:
    lag: int
    r: IntMatrix
    s: IntMatrix


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    failures: tuple[str, ...]


def verify_certificate(a: IntMatrix, b: IntMatrix, cert: ShiftEqCertificate) -> VerifyResult:
    """Check all four intertwining equations plus shapes and positivity."""
    _check_shift_matrix(a, "A")
    _check_shift_matrix(b, "B")
    failures = []
    if cert.lag < 1:
        failures.append("lag must be at least 1")
    if cert.r.shape != (a.rows, b.rows):
        failures.append(f"R shape {cert.r.shape} != ({a.rows}, {b.rows})")
    if cert.s.shape != (b.rows, a.rows):
        failures.append(f"S shape {cert.s.shape} != ({b.rows}, {a.rows})")
    if failures:
        return VerifyResult(False, tuple(failures))
    if not cert.r.is_nonnegative():
        failures.append("R has a negative entry")
    if not cert.s.is_nonnegative():
        failures.append("S has a negative entry")
    if a @ cert.r != cert.r @ b:
        failures.append("A R != R B")
    if cert.s @ a != b @ cert.s:
        failures.append("S A != B S")
    if cert.r @ cert.s != a.pow(cert.lag):
        failures.append("R S != A^lag")
    if cert.s @ cert.r != b.pow(cert.lag):
        failures.append("S R != B^lag")
    return VerifyResult(not failures, tuple(failures))


@dataclass(frozen=True)
class SeResult:
    kind: str  # "certificate" | "obstruction" | "unknown"
    certificate: ShiftEqCertificate | None = None
    obstructions: tuple[str, ...] = ()
    note: str = ""


class _NodeCapHit(Exception):
    pass


def _unflat(x, rows, cols) -> IntMatrix:
    return IntMatrix._trusted(tuple(x[i * cols:(i + 1) * cols] for i in range(rows)), cols)


def _sylvester(left: IntMatrix, right: IntMatrix) -> IntMatrix:
    """The matrix M with M @ vec(X) = vec(left X + X right), where vec(X)
    reads X row by row, as ``_unflat`` undoes."""
    cells = [divmod(c, right.rows) for c in range(left.rows * right.rows)]
    rows = (tuple(left.data[i][k] * (l == j) + (k == i) * right.data[l][j] for k, l in cells)
            for i, j in cells)
    return IntMatrix._trusted(tuple(rows), len(cells))


def _echelon(vectors):
    """A basis of the lattice that linearly independent integer vectors
    span, each vector's first nonzero entry positive and right of the
    previous vector's: Euclid's algorithm on one entry at a time."""
    rest, basis, j = [list(v) for v in vectors], [], 0
    while rest:
        live = sorted((v for v in rest if v[j]), key=lambda v: abs(v[j]))
        for v in live[1:]:
            q = v[j] // live[0][j]
            v[:] = [x - q * y for x, y in zip(v, live[0])]
        if len(live) == 1:
            rest = [v for v in rest if v is not live[0]]
            basis.append(live[0] if live[0][j] > 0 else [-x for x in live[0]])
        if len(live) <= 1:
            j += 1
    return basis


def _box_points(base, basis, upper, tick):
    """The points of base + span_Z(basis) in [0, upper]^n in lexicographic
    order, for a basis from ``_echelon``: the i-th coefficient raises the
    entry at the i-th pivot and fixes every entry before the next pivot, so
    a depth-first walk over rising coefficients lists the points in order.
    A coefficient is accepted when the entries it fixes lie in [0, upper]
    and every later entry can still get there (see ``_reachable``).
    ``tick`` is called per accepted coefficient.
    """
    pivots = [next(j for j, x in enumerate(v) if x) for v in basis]
    ends = pivots[1:] + [len(base)]
    head = base[:pivots[0]] if pivots else base
    if min(head, default=0) < 0 or max(head, default=0) > upper:
        return

    def walk(depth, x):
        if depth == len(basis):
            yield tuple(x)
            return
        v, p, end = basis[depth], pivots[depth], ends[depth]
        for c in range(-(x[p] // v[p]), (upper - x[p]) // v[p] + 1):
            y = [xi + c * vi for xi, vi in zip(x, v)]
            fixed = y[p + 1:end]
            if (
                min(fixed, default=0) >= 0
                and max(fixed, default=0) <= upper
                and _reachable(y, basis, pivots, depth + 1, upper)
            ):
                tick()
                yield from walk(depth + 1, y)

    yield from walk(0, list(base))


def _reachable(x, basis, pivots, depth, upper) -> bool:
    """Can coefficients of ``basis[depth:]`` bring every entry of x from the
    pivot of ``basis[depth]`` on into [0, upper]?  A sound bound, by
    intervals: each coefficient ranges over what keeps its pivot entry in
    [0, upper], given the ranges the earlier ones leave that entry, and
    each entry over the sum of what the ranges can add to it."""
    if depth == len(basis):
        return True
    start = pivots[depth]
    lo, hi = x[start:], x[start:]
    for v, pivot in zip(basis[depth:], pivots[depth:]):
        q, k = v[pivot], pivot - start
        c_lo, c_hi = -(hi[k] // q), (upper - lo[k]) // q
        if c_lo > c_hi:
            return False
        lo = [a + min(c_lo * w, c_hi * w) for a, w in zip(lo, v[start:])]
        hi = [b + max(c_lo * w, c_hi * w) for b, w in zip(hi, v[start:])]
    return min(hi) >= 0 and max(lo) <= upper


def shift_equivalent_bounded(
    a: IntMatrix,
    b: IntMatrix,
    max_lag: int = 6,
    max_entry: int = 4,
    node_cap: int = 200_000,
) -> SeResult:
    """Search for a shift equivalence within entry and lag bounds.

    Runs the invariant screen first; a mismatch is a sound obstruction.
    Otherwise R runs over the integer solutions of A R = R B in the entry
    bound, in lexicographic order, and for each lag in increasing order and
    each R, S over those of S A = B S, R S = A^lag and S R = B^lag, in the
    same order; both solution sets are lattices from the Smith engine.  The
    S system of each R gets one uncached two-sided elimination, which gives
    both the directions of its lattice and a base point for every lag.  One
    node is counted per (R, lag) system and per coefficient a lattice walk
    accepts; exhausting the bounds (or the node budget) yields Unknown.
    """
    _check_shift_matrix(a, "A")
    _check_shift_matrix(b, "B")
    obstructions = []
    bf_a, bf_b = bowen_franks(a), bowen_franks(b)
    if bf_a != bf_b:
        obstructions.append(f"Bowen-Franks groups differ: {bf_a} vs {bf_b}")
    det_a, det_b = det_invariant(a), det_invariant(b)
    if det_a != det_b:
        obstructions.append(f"det(I-A) differs: {det_a} vs {det_b}")
    if obstructions:
        return SeResult(kind="obstruction", obstructions=tuple(obstructions))

    na, nb = a.rows, b.rows
    nodes = count(1)

    def tick():
        if next(nodes) > node_cap:
            raise _NodeCapHit

    note = f"no certificate with lag <= {max_lag}, entries <= {max_entry}"
    s_lattice = kernel_basis(_sylvester(-b, a))  # vec(S) with S A = B S
    s_basis = [_unflat(col, nb, na) for col in s_lattice.transpose().data]
    r_basis = _echelon(kernel_basis(_sylvester(a, -b)).transpose().data)  # A R = R B
    # per R: the Smith form of R S = A^lag, S R = B^lag on S's coordinates,
    # and S's directions
    systems = []
    try:
        r_points = _box_points((0,) * (na * nb), r_basis, max_entry, tick)
        r_candidates = [_unflat(flat, na, nb) for flat in r_points]
        for lag in range(1, max_lag + 1):
            target = sum(a.pow(lag).data + b.pow(lag).data, ())  # vec(A^lag), vec(B^lag)
            for i, r in enumerate(r_candidates):
                tick()
                if lag == 1:
                    columns = tuple(sum((r @ s).data + (s @ r).data, ()) for s in s_basis)
                    # one two-sided run, read through v first, serves _solve
                    sd = SmithData(IntMatrix._trusted(columns, len(target)).transpose())
                    kernel = sd.v.take_columns(range(sd.rank, sd.v.cols))
                    systems.append((sd, _echelon((s_lattice @ kernel).transpose().data)))
                sd, s_directions = systems[i]
                t = _solve(sd, target)
                if t is None:
                    continue
                for flat in _box_points(s_lattice @ t, s_directions, max_entry, tick):
                    cert = ShiftEqCertificate(lag=lag, r=r, s=_unflat(flat, nb, na))
                    if verify_certificate(a, b, cert).ok:
                        return SeResult(kind="certificate", certificate=cert)
    except _NodeCapHit:
        note += f"; node budget {node_cap} exhausted, search incomplete"
    return SeResult(kind="unknown", note=note)

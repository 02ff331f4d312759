"""Shift equivalence over the nonnegative integers, bounded but exact.

A lag-ell shift equivalence between square nonnegative matrices A and B is
a pair of nonnegative integer matrices R, S with A R = R B, S A = B S,
R S = A^ell and S R = B^ell.  The search here is complete within explicit
entry and lag bounds and reports Unknown beyond them; the cheap complete
invariants (Bowen-Franks group, determinant of I - A) run first and give
sound obstructions.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import neg

from .intlinalg import FgAbGroup, IntMatrix, PresentedGroup, invariant_factors

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


def _identity_minus(m: IntMatrix) -> IntMatrix:
    """I - A of a square nonnegative A, built in one pass over its rows."""
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
    return invariant_factors(_identity_minus(m)).det


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


def _bounded_solutions(num_vars, constraints, upper, counter, cap):
    """Integer points of [0, upper]^num_vars satisfying linear constraints.

    ``constraints`` is a list of (coeffs, target) with coeffs a dict from
    variable index to coefficient.  Depth-first with interval pruning;
    raises _NodeCapHit when the node budget runs out.
    """
    by_var = [[] for _ in range(num_vars)]
    partial = []
    rem_lo = []
    rem_hi = []
    targets = []
    for ci, (coeffs, target) in enumerate(constraints):
        lo = hi = 0
        for var, c in coeffs.items():
            by_var[var].append((ci, c))
            if c > 0:
                hi += c * upper
            else:
                lo += c * upper
        partial.append(0)
        rem_lo.append(lo)
        rem_hi.append(hi)
        targets.append(target)

    assignment = [0] * num_vars

    def feasible():
        return all(
            partial[ci] + rem_lo[ci] <= targets[ci] <= partial[ci] + rem_hi[ci]
            for ci in range(len(constraints))
        )

    def descend(var):
        counter[0] += 1
        if counter[0] > cap:
            raise _NodeCapHit
        if var == num_vars:
            yield tuple(assignment)
            return
        for value in range(upper + 1):
            assignment[var] = value
            touched = by_var[var]
            for ci, c in touched:
                partial[ci] += c * value
                if c > 0:
                    rem_hi[ci] -= c * upper
                else:
                    rem_lo[ci] -= c * upper
            if feasible():
                yield from descend(var + 1)
            for ci, c in touched:
                partial[ci] -= c * value
                if c > 0:
                    rem_hi[ci] += c * upper
                else:
                    rem_lo[ci] += c * upper
        assignment[var] = 0

    yield from descend(0)


def _constraints(target: IntMatrix, x_cols: int, left=None, right=None):
    """left X + X right = target as constraints on vec(X), row-major X with
    ``x_cols`` columns; either term may be absent."""
    out = []
    for i in range(target.rows):
        for j in range(target.cols):
            coeffs = {}
            for k, c in enumerate(left.row(i) if left is not None else ()):
                if c:
                    coeffs[k * x_cols + j] = coeffs.get(k * x_cols + j, 0) + c
            for k, c in enumerate(right.column(j) if right is not None else ()):
                if c:
                    coeffs[i * x_cols + k] = coeffs.get(i * x_cols + k, 0) + c
            out.append(({v: c for v, c in coeffs.items() if c}, target[i, j]))
    return out


def shift_equivalent_bounded(
    a: IntMatrix,
    b: IntMatrix,
    max_lag: int = 6,
    max_entry: int = 4,
    node_cap: int = 200_000,
) -> SeResult:
    """Search for a shift equivalence within entry and lag bounds.

    Runs the invariant screen first; a mismatch is a sound obstruction.
    Otherwise lags are tried in increasing order and for each lag the
    R candidates in lexicographic order, solving for S under the same entry
    bound.  Exhausting the bounds (or the node budget) yields Unknown.
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
    counter = [0]
    capped = False
    r_candidates = []
    ar_rb = _constraints(IntMatrix.zeros(na, nb), nb, left=a, right=-b)  # A R = R B
    try:
        for flat in _bounded_solutions(na * nb, ar_rb, max_entry, counter, node_cap):
            r_candidates.append(
                IntMatrix([flat[i * nb:(i + 1) * nb] for i in range(na)], cols=nb)
            )
    except _NodeCapHit:
        capped = True

    sa_bs = _constraints(IntMatrix.zeros(nb, na), na, left=-b, right=a)  # S A = B S, every lag
    for lag in range(1, max_lag + 1):
        a_pow = a.pow(lag)
        b_pow = b.pow(lag)
        for r in r_candidates:
            # R S = A^lag and S R = B^lag
            constraints = (
                sa_bs
                + _constraints(a_pow, na, left=r)
                + _constraints(b_pow, na, right=r)
            )
            try:
                for flat in _bounded_solutions(nb * na, constraints, max_entry, counter, node_cap):
                    s = IntMatrix([flat[i * na:(i + 1) * na] for i in range(nb)], cols=na)
                    cert = ShiftEqCertificate(lag=lag, r=r, s=s)
                    check = verify_certificate(a, b, cert)
                    if check.ok:
                        return SeResult(kind="certificate", certificate=cert)
            except _NodeCapHit:
                capped = True
    note = f"no certificate with lag <= {max_lag}, entries <= {max_entry}"
    if capped:
        note += f"; node budget {node_cap} exhausted, search incomplete"
    return SeResult(kind="unknown", note=note)

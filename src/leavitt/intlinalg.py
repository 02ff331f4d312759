"""Exact linear algebra over the integers.

One Smith elimination is the engine here, with one record per matrix.
``_smith`` pivots on the least entry of the trailing block and carries
along only the unimodular transforms its caller reads, with one pivot
sequence whatever it tracks.  A :class:`SmithData` record computes each
part of it when first read, and :func:`snf`, the only cache, keeps one
record per matrix for the length of one op (:func:`op_scope`).  The
diagonal needs no transform: it gives group invariants, twisted cokernels
(:func:`coker_with_coefficients`), the shift invariants and the inclusion
tests of :func:`subgroup_equal` and of :func:`check_exact`, the one
exactness checker.  The kernel needs v: it gives :func:`kernel_basis` and
:func:`preimage_lattice`.  Lattice solving reads u and v, from one
two-sided run; the Smith coordinates of K0 presentations and the left
inverses of kernel bases read u^-1 and v^-1, which that run tracks too when
asked.  Each reads its transforms first, so that the run serves the
diagonal too.  Everything runs on Python ints, so there is no overflow and
no floating point anywhere.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from operator import mul

__all__ = [
    "IntMatrix",
    "SmithData",
    "FgAbGroup",
    "PresentedGroup",
    "GroupMap",
    "CoeffGroup",
    "CoeffCokernel",
    "snf",
    "kernel_basis",
    "coker_with_coefficients",
    "check_exact",
    "solve_lattice",
    "preimage_lattice",
    "subgroup_equal",
    "map_invariants",
    "op_scope",
]


class IntMatrix:
    """Immutable integer matrix stored as a tuple of row tuples.

    Zero-dimensional shapes are legal and behave as empty maps, which the
    rest of the package relies on (empty graphs, groups with no generators).

    Parameters
    ----------
    data : iterable of iterables of int
        Row-major entries.  May be empty.
    cols : int, optional
        Required when ``data`` has no rows, to pin down the column count.
    """

    __slots__ = ("rows", "cols", "data", "_hash")

    def __init__(self, data, cols=None):
        rows = tuple(tuple(int(x) for x in row) for row in data)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError("cols mismatch")
            cols = width
        else:
            cols = 0 if cols is None else int(cols)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", rows)

    @classmethod
    def _trusted(cls, rows, cols):
        """Wrap a tuple of int row tuples, each ``cols`` long, unchecked.

        Only for rows the package has just built, from entries of existing
        matrices, from edge counts or from literal zeros and ones, or for
        ints just parsed and width-checked; public construction goes
        through the checks above.  The slots are set through their member
        descriptors, which skips the attribute lookup of ``__setattr__``.
        """
        m = object.__new__(cls)
        _set_rows(m, len(rows))
        _set_cols(m, cols)
        _set_data(m, rows)
        return m

    def __setattr__(self, *_):
        raise AttributeError("IntMatrix is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, n):
        return cls._trusted(tuple(map(tuple, _identity_rows(n))), n)

    @classmethod
    def zeros(cls, rows, cols):
        return cls._trusted(((0,) * cols,) * rows, cols)

    # -- access --------------------------------------------------------

    def __getitem__(self, key):
        i, j = key
        return self.data[i][j]

    def column(self, j):
        return tuple(r[j] for r in self.data)

    def take_rows(self, indices):
        return IntMatrix._trusted(tuple(self.data[i] for i in indices), self.cols)

    def take_columns(self, indices):
        indices = list(indices)
        return IntMatrix._trusted(
            tuple(tuple(r[j] for j in indices) for r in self.data), len(indices)
        )

    def scatter_rows(self, indices, rows):
        """The ``rows``-row matrix with row k of self at row ``indices[k]``.

        Every other row is zero.  With distinct indices this is the product
        of the 0/1 matrix placing them among ``range(rows)`` with self, and
        ``take_rows(indices)`` undoes it.
        """
        indices = list(indices)
        if len(indices) != self.rows:
            raise ValueError("one index per row needed")
        out = [(0,) * self.cols] * rows
        for i, r in zip(indices, self.data):
            out[i] = r
        return IntMatrix._trusted(tuple(out), self.cols)

    def to_lists(self):
        return [list(r) for r in self.data]

    # -- algebra --------------------------------------------------------

    def __matmul__(self, other):
        if isinstance(other, IntMatrix):
            if self.cols != other.rows:
                raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
            columns = tuple(zip(*other.data)) if other.rows else ((),) * other.cols
            return IntMatrix._trusted(
                tuple(tuple(sum(map(mul, row, c)) for c in columns) for row in self.data),
                other.cols,
            )
        # vector: tuple/list of length cols; most vectors here are sparse,
        # so only their nonzero entries are multiplied
        vec = tuple(other)
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        nonzero = [(k, x) for k, x in enumerate(vec) if x]
        return tuple(sum(row[k] * x for k, x in nonzero) for row in self.data)

    def __add__(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return IntMatrix._trusted(
            tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.data, other.data)),
            self.cols,
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return IntMatrix._trusted(tuple(tuple(-a for a in r) for r in self.data), self.cols)

    def transpose(self):
        return IntMatrix._trusted(
            tuple(tuple(self.data[i][j] for i in range(self.rows)) for j in range(self.cols)),
            self.rows,
        )

    def hstack(self, other):
        if self.rows != other.rows:
            raise ValueError("row count mismatch")
        return IntMatrix._trusted(
            tuple(r1 + r2 for r1, r2 in zip(self.data, other.data)),
            self.cols + other.cols,
        )

    def pow(self, k):
        """Exact k-th power of a square matrix, k >= 0."""
        if self.rows != self.cols:
            raise ValueError("pow needs a square matrix")
        if k < 0:
            raise ValueError("negative power")
        result = IntMatrix.identity(self.rows)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base
            k >>= 1
        return result

    # -- predicates -----------------------------------------------------

    @property
    def shape(self):
        return (self.rows, self.cols)

    def is_nonnegative(self):
        return not self.cols or min(map(min, self.data), default=0) >= 0

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        # matrices key the Smith caches and the row memos again and again
        try:
            return self._hash
        except AttributeError:
            h = hash((self.cols, self.data))
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.data]!r}, cols={self.cols})"


_set_rows, _set_cols, _set_data = (IntMatrix.__dict__[s].__set__ for s in ("rows", "cols", "data"))


def _select_pivot(d):
    """Position of the entry with the least (abs value, row, column) key.

    A unit has the least value, so the first row holding one ends the
    search; otherwise each row's least nonzero value is compared, a later
    row winning only when it is strictly smaller.  Each row is scanned in
    C, by membership tests, ``min`` and ``index``.
    """
    for i, di in enumerate(d):
        if 1 in di or -1 in di:
            return (i, _first_of(di, 1))
    best = None
    for i, di in enumerate(d):
        least = min(map(abs, filter(None, di)), default=0)
        if least and (best is None or least < best[0]):
            best = (least, i)
    if best is None:
        return None
    least, i = best
    return (i, _first_of(d[i], least))


def _first_of(row, a):
    """Least column holding a or -a, in a row that holds one of them."""
    return min(row.index(x) for x in (a, -a) if x in row)


def _first_indivisible_row(d, p):
    """First row below row 0 holding an entry right of column 0 that p does not divide."""
    if p == 1 or p == -1:
        return None
    for i in range(1, len(d)):
        di = d[i]
        for j in range(1, len(di)):
            if di[j] % p != 0:
                return i
    return None


def _nonzero(row):
    """The (index, entry) pairs of a row that is mostly zeros, else None."""
    n = len(row)
    if 2 * (n - row.count(0)) >= n:
        return None
    return [(k, row[k]) for k in compress(range(n), row)]


def _subtract(rows, i, q, pivot, pivot_nz):
    """rows[i] -= q * pivot, touching only the columns in ``pivot_nz`` when
    that is not None (see ``_nonzero``)."""
    if pivot_nz is None:
        rows[i] = [a - q * b for a, b in zip(rows[i], pivot)]
    else:
        r = rows[i]
        for k, y in pivot_nz:
            r[k] -= q * y


def _identity_rows(n: int) -> list[list[int]]:
    """The rows of the n-by-n identity, as fresh lists."""
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


def _smith(m: IntMatrix, u: bool, v: bool, inverses: bool = False):
    """The one Smith elimination: ``(u, diagonal, v, sign, u^-1, v^-1)``.

    Each step pivots on the least entry of the trailing block (see
    ``_select_pivot``), clears its column by row operations and its row by
    column operations, promoting any remainder to the pivot, and folds in
    the first row that the pivot does not divide until none is left.  The
    finished pivot row and column are then dropped, so the next step works
    on the trailing block only.  With ``u`` the rows of u follow every row
    operation, with ``v`` the columns of v every column operation, block
    index i being global index t + i; an untracked transform is None.  v is
    returned as its list of columns, so a column operation on it is one
    list operation.  ``sign`` is the product of the signs of the swaps and
    negations.  The pivot sequence does not depend on what is tracked.

    With ``inverses`` each tracked transform's inverse follows too, u^-1 as
    its list of columns and v^-1 as its list of rows: a row operation E on
    u is the column operation E^-1 on u^-1 (row_i -= q row_t becomes
    col_t += q col_i, the fold row_t += row_b becomes col_b -= col_t), and a
    column operation F on v the row operation F^-1 on v^-1; swaps and
    negations are their own inverses.
    """
    rows, cols = m.rows, m.cols
    d = [list(r) for r in m.data]
    left = _identity_rows(rows) if u else None
    right = _identity_rows(cols) if v else None
    left_inv = _identity_rows(rows) if u and inverses else None
    right_inv = _identity_rows(cols) if v and inverses else None
    diagonal = []
    sign = 1
    t = 0
    while d and d[0]:
        piv = _select_pivot(d)
        if piv is None:
            break
        i, j = piv
        if i:
            d[0], d[i] = d[i], d[0]
            if u:
                left[t], left[t + i] = left[t + i], left[t]
                if inverses:
                    left_inv[t], left_inv[t + i] = left_inv[t + i], left_inv[t]
            sign = -sign
        if j:
            for r in d:
                r[0], r[j] = r[j], r[0]
            if v:
                right[t], right[t + j] = right[t + j], right[t]
                if inverses:
                    right_inv[t], right_inv[t + j] = right_inv[t + j], right_inv[t]
            sign = -sign
        while True:
            restart = False
            head = d[0]
            p = head[0]
            head_nz = _nonzero(head)
            if u:
                left_nz = _nonzero(left[t])
            for i in range(1, len(d)):
                x = d[i][0]
                if x == 0:
                    continue
                q = x // p
                if head_nz is None:  # the dense case, inlined: it is the hot one
                    d[i] = [a - q * b for a, b in zip(d[i], head)]
                else:
                    _subtract(d, i, q, head, head_nz)
                if u:
                    _subtract(left, t + i, q, left[t], left_nz)
                    if inverses:
                        column = left_inv[t + i]
                        _subtract(left_inv, t, -q, column, _nonzero(column))
                if x % p:
                    # the remainder is smaller than the pivot: promote it
                    d[0], d[i] = d[i], d[0]
                    if u:
                        left[t], left[t + i] = left[t + i], left[t]
                        if inverses:
                            left_inv[t], left_inv[t + i] = left_inv[t + i], left_inv[t]
                    sign = -sign
                    restart = True
                    break
            if restart:
                continue
            if not v and (p == 1 or p == -1):
                # the row pass would only zero row 0, which is dropped
                # next: x % p is 0, so it makes no swap
                break
            if v:
                right_nz = _nonzero(right[t])
            for j in range(1, len(head)):
                x = head[j]
                if x == 0:
                    continue
                # column 0 is zero below the pivot, so subtracting x // p
                # times column 0 changes this one entry of the block
                head[j] = x % p
                if v:
                    _subtract(right, t + j, x // p, right[t], right_nz)
                    if inverses:
                        row = right_inv[t + j]
                        _subtract(right_inv, t, -(x // p), row, _nonzero(row))
                if head[j]:
                    for r in d:
                        r[0], r[j] = r[j], r[0]
                    if v:
                        right[t], right[t + j] = right[t + j], right[t]
                        if inverses:
                            right_inv[t], right_inv[t + j] = right_inv[t + j], right_inv[t]
                    sign = -sign
                    restart = True
                    break
            if restart:
                continue
            bad = _first_indivisible_row(d, p)
            if bad is None:
                break
            # fold the offending row into row 0; the next clearing pass
            # shrinks the pivot toward the gcd
            d[0] = [a + b for a, b in zip(head, d[bad])]
            if u:
                left[t] = [a + b for a, b in zip(left[t], left[t + bad])]
                if inverses:
                    left_inv[t + bad] = [a - b for a, b in zip(left_inv[t + bad], left_inv[t])]
        # the last pass changed no entry of column 0, nor of row 0 when it
        # ran, so p = d[0][0]
        if p < 0:
            sign = -sign
            if u:
                left[t] = [-a for a in left[t]]
                if inverses:
                    left_inv[t] = [-a for a in left_inv[t]]
        diagonal.append(abs(p))
        del d[0]
        for r in d:
            del r[0]
        t += 1
    diagonal += [0] * (min(rows, cols) - len(diagonal))
    return left, tuple(diagonal), right, sign, left_inv, right_inv


class SmithData:
    """The Smith elimination d = u @ m @ v of one matrix, filled in as read.

    u and v are unimodular; the ``diagonal`` of d is a divisibility chain of
    nonnegative entries, zeros last.  ``sign`` is the product of the signs
    of the swaps and negations, so a square matrix has determinant
    ``sign * prod(diagonal)`` (``det``).  ``kernel`` is the columns of v past
    the rank, a primitive basis of the integer kernel.  ``u_inverse`` and
    ``v_inverse`` are the inverses of u and v, tracked by the run that
    tracks u and v.  A part is computed when first read, by one ``_smith``
    run that tracks only what it needs: nothing for the diagonal, sign, rank
    and determinant, v for the kernel, both for u and v, both and their
    inverses for an inverse.  A run sets every part it yields that no
    earlier run set, so a kernel run serves the diagonal too, a run with
    inverses serves every part, and no run replaces a part the record holds
    from an earlier one, even one set again by hand.
    The pivot rule (least absolute value, then lowest row and column) makes
    u and v reproducible, so golden tests freeze them, and every run of one
    matrix yields the same parts.
    """

    __slots__ = ("_m", "_tracked", "diagonal", "sign", "kernel", "u", "v", "u_inverse", "v_inverse")

    # the (u, v, inverses) a run tracks to yield each part
    _TRACKS = {
        "diagonal": (False, False, False),
        "sign": (False, False, False),
        "kernel": (False, True, False),
        "u": (True, True, False),
        "v": (True, True, False),
        "u_inverse": (True, True, True),
        "v_inverse": (True, True, True),
    }

    def __init__(self, m: IntMatrix):
        self._m = m
        self._tracked = ()  # the (u, v, inverses) of the last run

    def __getattr__(self, name):
        # only a part that no run has yielded yet gets here
        if name not in SmithData._TRACKS:
            raise AttributeError(name)
        self._run(*SmithData._TRACKS[name])
        return getattr(self, name)

    def _run(self, u: bool, v: bool, inverses: bool) -> None:
        # a run tracks more than every earlier one; it sets only what that adds
        m, held = self._m, self._tracked
        self._tracked = (u, v, inverses)
        left, diagonal, right, sign, left_inv, right_inv = _smith(m, u, v, inverses)
        if not held:
            self.diagonal, self.sign = diagonal, sign
        if v and held < (False, True, False):
            columns = right[self.rank:]
            self.kernel = IntMatrix._trusted(
                tuple(zip(*columns)) if columns else ((),) * m.cols, len(columns)
            )
        if u and held < (True, True, False):
            self.u = IntMatrix._trusted(tuple(map(tuple, left)), m.rows)
            self.v = IntMatrix._trusted(tuple(zip(*right)), m.cols)
        if inverses:
            self.u_inverse = IntMatrix._trusted(tuple(zip(*left_inv)), m.rows)
            self.v_inverse = IntMatrix._trusted(tuple(map(tuple, right_inv)), m.cols)

    @property
    def rank(self) -> int:
        diagonal = self.diagonal
        return len(diagonal) - diagonal.count(0)

    @property
    def det(self) -> int:
        if self._m.rows != self._m.cols:
            raise ValueError("det needs a square matrix")
        return self.sign * math.prod(self.diagonal)


@lru_cache(maxsize=65536)
def snf(m: IntMatrix) -> SmithData:
    """The Smith record of ``m``, one per matrix and shared by every reader.

    This is the only Smith cache.  Matrices are immutable, so sharing is
    safe, and a record is filled in as its readers read it (see
    :class:`SmithData`).  Its records belong to the op that made them:
    when the outermost :func:`op_scope` exits, they go.
    """
    return SmithData(m)


# bound here, so that a wrapper that rebinds the name ``snf`` still leaves
# the scope the cache to empty
_clear_records = snf.cache_clear
_open_scopes = 0


@contextmanager
def op_scope():
    """The lifetime of one op's Smith records.

    While a scope is open, :func:`snf` keeps one record per matrix, and
    every reader in it shares them; when the outermost scope exits, error
    exits included, the records go, so no Smith record outlives its op.  A
    nested scope shares the outermost one.  ``cli.main`` enters one around
    each op; a library caller may enter one around the calls of one op.
    """
    global _open_scopes
    _open_scopes += 1
    try:
        yield
    finally:
        _open_scopes -= 1
        if not _open_scopes:
            _clear_records()


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Basis of the integer kernel lattice of ``m``, as matrix columns.

    The basis is primitive: it spans ker(m) as a direct summand basis, not
    just up to finite index, because the columns come from a unimodular
    transform.  They are ``snf(m).kernel``, the last columns of v.
    """
    return snf(m).kernel


def solve_lattice(m: IntMatrix, vec):
    """One integer solution x of m @ x = vec, or None if there is none."""
    return _solve(snf(m), vec)


def _solve(sd: SmithData, vec):
    """:func:`solve_lattice` on the Smith form ``sd`` of the matrix."""
    y = sd.u @ tuple(vec)
    diag = sd.diagonal
    cols = sd.v.rows
    z = []
    for i in range(cols):
        di = diag[i] if i < len(diag) else 0
        yi = y[i] if i < len(y) else 0
        if di == 0:
            if yi != 0:
                return None
            z.append(0)
        else:
            if yi % di != 0:
                return None
            z.append(yi // di)
    for i in range(cols, len(y)):
        if y[i] != 0:
            return None
    return sd.v @ tuple(z)


def preimage_lattice(m: IntMatrix, lat: IntMatrix) -> IntMatrix:
    """Generators of {x : m @ x lies in the column span of lat}.

    Computed as the projection of ker([m | lat]) onto the first block, so
    the columns generate (not necessarily freely) the preimage lattice: m x
    + lat y = 0 says m x = lat (-y), so no negated copy of lat is needed.
    """
    if m.rows != lat.rows:
        raise ValueError("row count mismatch")
    return kernel_basis(m.hstack(lat)).take_rows(range(m.cols))


def map_invariants(matrix: IntMatrix, dom_relations: IntMatrix, cod_relations: IntMatrix):
    """Kernel, image and cokernel classes of an induced map of presented groups.

    ``matrix`` acts from Z^dom/span(dom_relations) to Z^cod/span(cod_relations)
    and must be well defined there.  Returns three FgAbGroup values.

    Every matrix read here is eliminated tracking v, diagonals included:
    the lattices of one map recur as the matrices whose kernels another
    map reads, so one run each serves both.
    """
    ker_lat = preimage_lattice(matrix, cod_relations)
    kernel = _kernel_run_class(preimage_lattice(ker_lat, dom_relations))
    image = _kernel_run_class(ker_lat)
    coker = _kernel_run_class(matrix.hstack(cod_relations))
    return kernel, image, coker


def _kernel_run_class(m: IntMatrix) -> FgAbGroup:
    """Z^rows modulo the column span of ``m``.  The kernel is read first, so
    that its run gives the diagonal too."""
    sd = snf(m)
    sd.kernel
    return FgAbGroup.cokernel_of(m.rows, sd)


def _extent(sd: SmithData):
    """Rank and index in its saturation of the span of the columns of the
    matrix whose Smith record is ``sd``.

    A lattice inside another of the same rank has the same saturation, so
    the two are equal exactly when their extents are; no transform and no
    per-column membership test is needed.  The index is the product of the
    nonzero invariant factors.
    """
    nonzero = [x for x in sd.diagonal if x]
    return len(nonzero), math.prod(nonzero)


def _kernel_extent(sd: SmithData):
    """``_extent`` of the record ``sd``, read after its kernel."""
    sd.kernel
    return _extent(sd)


def _spans_into(gens: IntMatrix, lattice: IntMatrix) -> bool:
    """Is every column of ``gens`` in the column span of ``lattice``?

    L lies in L + span(gens), so they are equal, and the answer is yes,
    exactly when their extents agree (see ``_extent``).
    """
    return _extent(snf(lattice)) == _extent(snf(lattice.hstack(gens)))


def subgroup_equal(gens_a: IntMatrix, gens_b: IntMatrix, modulo: IntMatrix | None = None) -> bool:
    """Do two sets of columns span the same subgroup, modulo a lattice?

    With ``modulo`` given, compares span(a)+span(modulo) with
    span(b)+span(modulo) by mutual inclusion.
    """
    if modulo is None:
        return _spans_into(gens_a, gens_b) and _spans_into(gens_b, gens_a)
    return _spans_into(gens_a, gens_b.hstack(modulo)) and _spans_into(
        gens_b, gens_a.hstack(modulo)
    )


# ---------------------------------------------------------------------------
# finitely generated abelian groups
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class FgAbGroup:
    """Isomorphism class of a finitely generated abelian group.

    ``torsion`` holds the invariant factors: each at least 2, each dividing
    the next.  Construct through :meth:`from_parts` unless the data is
    already canonical.
    """

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("torsion not an invariant factor chain")
        if any(t < 2 for t in self.torsion):
            raise ValueError("torsion entries must be >= 2")

    @classmethod
    def from_parts(cls, free_rank, torsion):
        """Canonicalize an arbitrary multiset of cyclic orders.

        Zeros count toward the free rank, ones vanish, the rest is merged
        into an invariant factor chain.
        """
        tors = []
        free = free_rank
        for t in torsion:
            t = abs(int(t))
            if t == 0:
                free += 1
            elif t > 1:
                tors.append(t)
        # Z/a + Z/b = Z/gcd + Z/lcm; after pass i, tors[i] divides every later order
        for i in range(len(tors)):
            for j in range(i + 1, len(tors)):
                a, b = tors[i], tors[j]
                tors[i], tors[j] = math.gcd(a, b), math.lcm(a, b)
        return cls(free, tuple(t for t in tors if t > 1))

    @classmethod
    def cokernel_of(cls, rows, smith):
        """Z^rows modulo the column span of a matrix with ``rows`` rows, read
        off its Smith diagonal: entries 1 vanish, entries d >= 2 give Z/d and
        each missing pivot gives a copy of Z.  ``smith`` is the matrix's
        :class:`SmithData`."""
        return cls(rows - smith.rank, tuple(x for x in smith.diagonal if x > 1))

    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion

    def direct_sum(self, other):
        return FgAbGroup.from_parts(
            self.free_rank + other.free_rank, self.torsion + other.torsion
        )

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " ⊕ ".join(parts) if parts else "0"


@dataclass(frozen=True, slots=True)
class PresentedGroup:
    """Abelian group presented by its relation matrix.

    The group is Z^n divided by the column span of ``relations``, n being
    its row count, the number of generators.  An element is zero when
    :func:`solve_lattice` finds it in that span.
    """

    relations: IntMatrix

    @property
    def generators(self) -> int:
        return self.relations.rows

    def invariants(self) -> FgAbGroup:
        return FgAbGroup.cokernel_of(self.generators, snf(self.relations))


# ---------------------------------------------------------------------------
# group maps and exactness
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class GroupMap:
    """Homomorphism between presented groups, given on generators.

    ``matrix`` has shape (codomain.generators, domain.generators) and acts on
    column vectors of generator coordinates.
    """

    domain: PresentedGroup
    codomain: PresentedGroup
    matrix: IntMatrix

    def __post_init__(self):
        if self.matrix.shape != (self.codomain.generators, self.domain.generators):
            raise ValueError(
                f"map matrix shape {self.matrix.shape} does not match "
                f"({self.codomain.generators}, {self.domain.generators})"
            )


@dataclass(frozen=True, slots=True)
class NodeVerdict:
    image_in_kernel: bool
    kernel_in_image: bool

    @property
    def exact(self):
        return self.image_in_kernel and self.kernel_in_image


def check_exact(maps) -> tuple[NodeVerdict, ...]:
    """Exactness of a composable sequence at every interior node.

    For consecutive maps f, g the check is im(f) = ker(g) inside f.codomain.
    Each inclusion is tested on its own modulo the relations R and reported
    as its own verdict: im(f) lies in ker(g) + R exactly when ker(g) + R
    has the extent (see ``_extent``) of the union ker(g) + R + im(f), and
    the other way round for im(f) + R.  So a node eliminates three lattices,
    the union once for both inclusions.  A node at a group with no
    generators is exact and eliminates nothing.

    Each map m is stacked as [m | R_cod] once, and its one Smith record
    serves both nodes that read it: the node before m reads its kernel,
    whose top block generates the preimage of R_cod under m (see
    :func:`preimage_lattice`), and m's own node reads its extent, that of
    im(m) + R_cod.  So a chain of n maps asks :func:`snf` for n + 2(n - 1)
    records, less those only nodes without generators would read.  Every
    lattice is eliminated tracking v, its kernel read before its extent: a
    lattice of one chain, a union too, may be the stacked map or kernel
    lattice of another, or a lattice whose kernel :func:`map_invariants`
    reads, and then the one run serves both readers.
    """
    maps = list(maps)
    live = [f.codomain.generators > 0 for f in maps[:-1]]
    # a map's record serves the nodes on either side of it
    records = [
        snf(f.matrix.hstack(f.codomain.relations)) if any(live[max(k - 1, 0) : k + 1]) else None
        for k, f in enumerate(maps)
    ]
    verdicts = []
    for idx in range(len(maps) - 1):
        f, g = maps[idx], maps[idx + 1]
        if f.codomain != g.domain:
            raise ValueError(f"maps {idx} and {idx + 1} are not composable")
        if not live[idx]:
            verdicts.append(NodeVerdict(True, True))
            continue
        preimage = records[idx + 1].kernel.take_rows(range(g.matrix.cols))
        kernel_rel = preimage.hstack(f.codomain.relations)
        union = _kernel_extent(snf(kernel_rel.hstack(f.matrix)))
        verdicts.append(
            NodeVerdict(
                _kernel_extent(snf(kernel_rel)) == union,
                _kernel_extent(records[idx]) == union,
            )
        )
    return tuple(verdicts)


# ---------------------------------------------------------------------------
# coefficient groups
# ---------------------------------------------------------------------------


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981  # exact below (Sorenson-Webster 2015)


def _passes_prime_test(n: int) -> bool:
    """Is n a strong probable prime to every base of ``_PRIME_BASES``
    (Miller-Rabin)?  Below ``_PRIME_TEST_BOUND`` exactly the primes are; a
    False is exact at any size."""
    if n < 2 or any(n % a == 0 for a in _PRIME_BASES):
        return n in _PRIME_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    return all(
        (x := pow(a, d, n)) == 1 or n - 1 in (pow(x, 1 << i, n) for i in range(s))
        for a in _PRIME_BASES
    )


def _integer_root(q: int, k: int) -> int:
    """The largest r with r**k <= q, for q >= 1: Newton's method from above."""
    r = 1 << -(-q.bit_length() // k)
    while (s := ((k - 1) * r + q // r ** (k - 1)) // k) < r:
        r = s
    return r


def _prime_power_root(q):
    """Return (p, e) with q = p^e, p prime, or raise ValueError.  Such a p
    is the integer e-th root of q; a root at or past ``_PRIME_TEST_BOUND``
    that passes every base of the prime test is not decided: q is refused."""
    q = int(q)
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    for e in range(1, q.bit_length()):
        r = _integer_root(q, e)
        if r**e == q and _passes_prime_test(r):
            if r >= _PRIME_TEST_BOUND:
                raise ValueError(
                    f"{q} has a root {r} at or past {_PRIME_TEST_BOUND}, "
                    "the bound of the prime power check's exact prime test"
                )
            return r, e
    raise ValueError(f"{q} is not a prime power")


@dataclass(frozen=True)
class CoeffGroup:
    """Coefficient group for unit-level cokernels.

    kind is one of "finite-cyclic" (with ``order``), "divisible", "symbolic"
    (with ``symbol`` naming the formal group).
    """

    kind: str
    order: int | None = None
    symbol: str = "G"

    @classmethod
    def finite_cyclic(cls, order):
        order = int(order)
        if order < 1:
            raise ValueError("order must be positive")
        return cls("finite-cyclic", order=order)

    @classmethod
    def units_of_field(cls, q):
        """Multiplicative group of the field with q elements (q a prime power)."""
        _prime_power_root(q)
        return cls.finite_cyclic(q - 1)

    @classmethod
    def reduced_units_of_field(cls, q):
        """Units modulo {1, -1} of the field with q elements."""
        _prime_power_root(q)
        return cls.finite_cyclic((q - 1) // math.gcd(2, q - 1))

    @classmethod
    def divisible(cls):
        return cls("divisible")

    @classmethod
    def symbolic(cls, symbol="G"):
        return cls("symbolic", symbol=symbol)


@dataclass(frozen=True, slots=True)
class CoeffCokernel:
    """Cokernel of an integer matrix after applying a coefficient group.

    ``quotient_orders`` lists the invariant factors d with d >= 2 (each
    contributing G/dG) and ``free_rank`` counts plain copies of G.
    """

    coeff: CoeffGroup
    quotient_orders: tuple[int, ...]
    free_rank: int

    def specialize(self) -> FgAbGroup | None:
        """Concrete isomorphism class, when the coefficients allow one."""
        if self.coeff.kind == "finite-cyclic":
            tors = [math.gcd(d, self.coeff.order) for d in self.quotient_orders]
            tors += [self.coeff.order] * self.free_rank
            return FgAbGroup.from_parts(0, tors)
        if self.coeff.kind == "divisible":
            # d != 0 kills a divisible group; only free copies remain
            return FgAbGroup(0, ()) if self.free_rank == 0 else None
        return None

    def symbol(self) -> str:
        name = self.coeff.symbol if self.coeff.kind == "symbolic" else "G"
        if self.coeff.kind == "finite-cyclic":
            spec = self.specialize()
            if spec is not None:
                return str(spec)
        if self.coeff.kind == "divisible":
            if self.free_rank == 0:
                return "0"
            return name if self.free_rank == 1 else f"{name}^{self.free_rank}"
        parts = [f"{name}/{d}{name}" for d in self.quotient_orders]
        if self.free_rank == 1:
            parts.append(name)
        elif self.free_rank > 1:
            parts.append(f"{name}^{self.free_rank}")
        return " ⊕ ".join(parts) if parts else "0"

    def class_key(self):
        """Hashable class of the induced group: the specialization when the
        coefficients admit one, else the quotient orders and free rank."""
        spec = self.specialize()
        return (self.coeff, spec if spec is not None else (self.quotient_orders, self.free_rank))


def coker_with_coefficients(m: IntMatrix, coeff: CoeffGroup) -> CoeffCokernel:
    """Cokernel of ``m`` with coefficients: (+) G/d_iG (+) G^(rows - rank).

    Reads only the Smith diagonal of ``m``.
    """
    group = FgAbGroup.cokernel_of(m.rows, snf(m))
    return CoeffCokernel(coeff=coeff, quotient_orders=group.torsion, free_rank=group.free_rank)

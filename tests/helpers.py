"""Shared test utilities: independent oracles and the random graph corpus.

The oracles here are deliberately written from scratch, with different
algorithms and pivoting strategies than the library, so they can serve as
independent cross-checks:

* ``snf_invariant_factors_naive`` — plain row/column Euclidean reduction
  with first-nonzero pivoting and a final divisibility repair pass.
* ``snf_invariant_factors_minors`` — determinantal-divisor method (gcd of
  all k-by-k minors), exponential but exact; for small matrices only.
* ``bareiss_det`` — the determinant by fraction-free elimination, against
  the sign and diagonal of a ``SmithData`` record; ``_det_laplace`` checks
  it by cofactor expansion.
* ``hsat_subsets_bruteforce`` — filters all 2^V vertex subsets with the
  hereditary/saturated predicates spelled out from their definitions.
* ``six_term_nodes_oracle`` — exactness of a six-term row at its four
  interior nodes, decided in ambient coordinates by span comparisons, from
  matrices built here from the edge lists.
* ``twisted_nodes_oracle`` — the two K̄₁ nodes of a six-term row at the
  coefficient level, decided by listing every element of the finite
  twisted groups and comparing sets.
* ``DimensionTriple`` — Krieger's dimension group of a matrix as (level,
  vector) pairs, the oracle for the library's graded colimit engine;
  ``triple_of_graded`` translates a graded element without calling it.
* ``is_lattice_prime`` — order-theoretic primality, against the library's
  downward directed characterization; ``is_downward_directed`` — that
  characterization by vertex name, on the name sets of ``reachable_from``,
  against the library's reach masks.
* ``locally_closed_oracle`` and ``lattice_isomorphisms_oracle`` — the
  whole-lattice algorithms the library replaced by prime-poset ones: every
  pair of opens for the pieces, and a backtracking search over all elements
  with n×n order tables for the isomorphisms, in the same output order.
* ``kernel_of`` — the intersection of named primes, which recovers each
  lattice element from the primes containing it; ``open_sets`` reads the
  library's open masks as sets of prime positions.
* ``lattice_member`` — membership in a column lattice read off the Smith
  transforms, the reference for ``solve_lattice`` and ``_spans_into``;
  ``check_well_defined`` applies it to every domain relation of a map.
* ``canon`` and ``is_zero_class`` — the canonical form of an element's
  class in a presented group, read off the Smith transform u, and the zero
  test by it; the library decides membership by ``solve_lattice``.
* ``smith_verifies`` — rechecks a Smith factorization against its matrix.
* ``coeff_quotient_by`` — G/dG for one coefficient group, summed up by the
  test of ``CoeffCokernel.specialize``; ``delta_value`` — the connecting
  map's value on a checked kernel vector, against ``snake_rho``.
* ``index_of``, ``lattice_meet`` and ``lattice_join`` — an element's
  index and the meet found by their vertex sets, and the join by the
  order, not by the library's masks.
* ``bfs_equal`` — monoid equality by bidirectional breadth-first search
  over rewrites under a state and a mass budget, the engine the library's
  exact separativity rule replaced; it answers "unknown" when a budget runs
  out and never flips a decided verdict as the budgets grow.
* ``shift_equivalent_box_search`` — the bounded shift-equivalence search
  the library's lattice walk replaced: every entry of R, then of S, over
  [0, max_entry] one at a time, pruned by interval sums of the linear
  constraints, with the same screen, search order, node cap and notes; it
  also reports the nodes it used.
* ``compare_verdicts_per_candidate`` — table comparison as it was before
  it counted entry mismatches first, building every candidate's piece
  verdicts, against the closest-failure report of ``compare_fkbar``.
* ``psi``, ``snake_rho`` and ``order_ideal_membership`` (with
  ``graded_is_nonnegative``) — the stage embedding, the connecting map by a
  direct chase of the colimit diagram, and the order-ideal test, which only
  tests call.

The sampling harnesses below the oracles drive the library's exact engines
on random inputs: ``random_graded_element`` and ``apply_random_expansions``
feed ``graded_equal``, ``quotient_roundtrip`` checks both composites of the
quotient-monoid isomorphism, ``psi_diagram_check`` the square relating K and
the colimit shift, and ``covering_window`` and ``is_irreducible`` build and
test graphs for them.  ``monoid_to_str`` and ``graded_to_str`` print
elements as literals the parsers read back, ``mass`` counts the vertex
copies of a monoid element, ``graded_add`` adds two graded elements,
``group_order`` is the order of a finite group and ``scale`` multiplies a
matrix by an integer; ``row_skeleton`` builds a six-term row's Z-level
skeleton, the oracle for the library's cut in Smith coordinates,
``skeleton_record`` reduces a Z-level skeleton to a record as a store
would, ``row_groups`` lists the six groups of a skeleton, and
``shape_count`` counts the row shapes of a store.
``declared_shuffled`` declares a graph's vertices in another order, and
``unaligned_pair`` adds to two graphs a cycle declared in orders that a
compare cannot align.  ``sparse_graph`` draws the sparse graphs, up to
200 vertices, that the Smith sweeps run on.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations, product

import leavitt.filtered as filtered
from leavitt.filtered import ComparisonReport, PieceVerdict
from leavitt.graphs import (
    Graph,
    _require_subset,
    is_hereditary,
    is_saturated,
    quotient,
    restriction,
    subquotient,
)
from leavitt.intlinalg import (
    CoeffGroup,
    FgAbGroup,
    GroupMap,
    IntMatrix,
    PresentedGroup,
    SmithData,
    kernel_basis,
    preimage_lattice,
    snf,
    solve_lattice,
    subgroup_equal,
)
from leavitt.ktheory import (
    ConnectingMap,
    SixTermRow,
    SubquotientStore,
    _residues,
    _Skeleton,
    _SmithCoordinates,
    k_matrix,
    phi,
    psi_regular,
)
from leavitt.lattice import IdealLattice, LocallyClosed, SpectrumTopology, _mask
from leavitt.monoid import (
    GradedElement,
    MonoidElement,
    _LevelForm,
    graded_equal,
    successors_one_step,
)
from leavitt.shifts import (
    SeResult,
    ShiftEqCertificate,
    bowen_franks,
    det_invariant,
    verify_certificate,
)


# ---------------------------------------------------------------------------
# oracle A: naive Smith reduction (no transforms, first-nonzero pivoting)
# ---------------------------------------------------------------------------


def _naive_diagonal(rows):
    """Nonzero pivots of a textbook row/column Euclidean diagonalization.

    First-nonzero pivoting, no transform tracking; the result is a diagonal
    of some unimodular diagonalization, not yet in divisibility order.
    """
    m = [list(map(int, r)) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    diag = []
    k = 0
    while k < nr and k < nc:
        loc = None
        for i in range(k, nr):
            for j in range(k, nc):
                if m[i][j]:
                    loc = (i, j)
                    break
            if loc:
                break
        if loc is None:
            break
        i0, j0 = loc
        m[k], m[i0] = m[i0], m[k]
        for row in m:
            row[k], row[j0] = row[j0], row[k]
        while True:
            for i in range(k + 1, nr):
                while m[i][k]:
                    q = m[i][k] // m[k][k]
                    for j in range(k, nc):
                        m[i][j] -= q * m[k][j]
                    if m[i][k]:
                        m[k], m[i] = m[i], m[k]
            row_clean = True
            for j in range(k + 1, nc):
                while m[k][j]:
                    q = m[k][j] // m[k][k]
                    for i in range(k, nr):
                        m[i][j] -= q * m[i][k]
                    if m[k][j]:
                        for i in range(k, nr):
                            m[i][k], m[i][j] = m[i][j], m[i][k]
                        row_clean = False
            if row_clean and all(m[i][k] == 0 for i in range(k + 1, nr)):
                break
        diag.append(abs(m[k][k]))
        k += 1
    return diag


def snf_invariant_factors_naive(rows):
    """Invariant factors greater than one, sorted, from the naive reduction.

    A repair pass turns the raw diagonal into a divisibility chain using the
    fact that diag(a, b) is unimodularly equivalent to diag(gcd, lcm).
    """
    facs = [d for d in _naive_diagonal(rows) if d]
    guard = 0
    changed = True
    while changed:
        guard += 1
        assert guard < 10_000, "divisibility repair failed to settle"
        changed = False
        for i in range(len(facs)):
            for j in range(i + 1, len(facs)):
                if facs[j] % facs[i]:
                    g = math.gcd(facs[i], facs[j])
                    facs[i], facs[j] = g, facs[i] // g * facs[j]
                    changed = True
    facs.sort()
    for a, b in zip(facs, facs[1:]):
        assert b % a == 0
    return tuple(f for f in facs if f != 1)


def naive_rank(rows):
    """Rank over Q = number of nonzero pivots in the naive reduction."""
    return len(_naive_diagonal(rows))


def cokernel_invariants_naive(rows):
    """(free_rank, torsion) of the cokernel of the column-vector map given by
    ``rows``; the cokernel lives in Z^len(rows)."""
    return len(rows) - naive_rank(rows), snf_invariant_factors_naive(rows)


# ---------------------------------------------------------------------------
# oracle B: determinantal divisors
# ---------------------------------------------------------------------------


def _det_laplace(sub):
    n = len(sub)
    if n == 0:
        return 1
    if n == 1:
        return sub[0][0]
    total = 0
    for j in range(n):
        if sub[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in sub[1:]]
        term = sub[0][j] * _det_laplace(minor)
        total += -term if j % 2 else term
    return total


def bareiss_det(m: IntMatrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination.

    Exact for any integer entries; the empty matrix has determinant 1.
    """
    if m.rows != m.cols:
        raise ValueError("det needs a square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = m.to_lists()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot_row is None:
                return 0
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def snf_invariant_factors_minors(rows):
    """Invariant factors (> 1) via gcds of all k-by-k minors.

    The k-th determinantal divisor D_k is the gcd of all k-by-k minors; the
    k-th invariant factor is D_k / D_{k-1}.  Exponential in the matrix size,
    so keep inputs at 5x5 or smaller.
    """
    m = [list(map(int, r)) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    prev = 1
    facs = []
    for k in range(1, min(nr, nc) + 1):
        g = 0
        for rs in combinations(range(nr), k):
            for cs in combinations(range(nc), k):
                g = math.gcd(g, _det_laplace([[m[i][j] for j in cs] for i in rs]))
        if g == 0:
            break
        facs.append(g // prev)
        prev = g
    return tuple(sorted(f for f in facs if f != 1))


# ---------------------------------------------------------------------------
# lattice oracle: brute force over all vertex subsets
# ---------------------------------------------------------------------------


def hsat_subsets_bruteforce(g: Graph):
    """All hereditary and saturated vertex subsets, by checking every subset
    against the definitions directly (closed under edge targets; contains any
    regular vertex all of whose targets it contains)."""
    verts = g.vertices
    found = []
    for r in range(len(verts) + 1):
        for combo in combinations(verts, r):
            s = set(combo)
            hereditary = all(e.dst in s for e in g.edges if e.src in s)
            if not hereditary:
                continue
            saturated = True
            for v in verts:
                outs = g.out_edges(v)
                if outs and v not in s and all(e.dst in s for e in outs):
                    saturated = False
                    break
            if saturated:
                found.append(frozenset(s))
    return found


# ---------------------------------------------------------------------------
# six-term row oracle: ambient coordinates, span comparisons
# ---------------------------------------------------------------------------


def _edge_count(g: Graph, src, dst):
    return sum(1 for e in g.edges if e.src == src and e.dst == dst)


def _transfer(g: Graph) -> IntMatrix:
    """Rows all vertices, columns non-sinks: edges w -> v, minus 1 on v = w."""
    return IntMatrix(
        [[_edge_count(g, w, v) - (v == w) for w in g.regulars] for v in g.vertices],
        cols=len(g.regulars),
    )


def sparse_graph(rng, n: int, sink_prob: float = 0.0) -> Graph:
    """Random graph with n vertices, each a sink with probability
    ``sink_prob`` and otherwise of out-degree 1 or 2, like the sparse graphs
    of the benchmark."""
    names = [f"v{i}" for i in range(n)]
    edges = []
    for v in names:
        if rng.random() >= sink_prob:
            for _ in range(rng.randint(1, 2)):
                edges.append((f"e{len(edges)}", v, rng.choice(names)))
    return Graph(names, edges)


def _select(sub_items, all_items) -> IntMatrix:
    """0/1 matrix placing ``sub_items`` among ``all_items`` (rows all_items)."""
    return IntMatrix(
        [[int(v == w) for w in sub_items] for v in all_items], cols=len(sub_items)
    )


def _inside(a: IntMatrix, b: IntMatrix, modulo=None) -> bool:
    """span(a) within span(b) (+ modulo): adding a to b must not grow the span."""
    return subgroup_equal(b.hstack(a), b, modulo=modulo)


def six_term_nodes_oracle(graphs, delta_scale: int = 1):
    """(image in kernel, kernel in image) at the four interior nodes of a row.

    ``graphs`` are the ideal part, middle and quotient part of the row.  The
    free nodes live in ambient non-sink coordinates (kernel-basis columns),
    the K0 nodes modulo their transfer matrices; the connecting map is read
    off the edges from quotient non-sinks into the ideal part and multiplied
    by ``delta_scale`` (1 gives the true row).
    """
    g1, g2, g3 = graphs
    km1, km2, km3 = (_transfer(g) for g in graphs)
    kb1, kb2, kb3 = (kernel_basis(km) for km in (km1, km2, km3))
    ext_reg = _select(g1.regulars, g2.regulars)
    proj_reg = _select(g3.regulars, g2.regulars).transpose()
    ext_vert = _select(g1.vertices, g2.vertices)
    proj_vert = _select(g3.vertices, g2.vertices).transpose()
    x_block = IntMatrix(
        [[delta_scale * _edge_count(g2, v, w) for v in g3.regulars] for w in g1.vertices],
        cols=len(g3.regulars),
    )
    tau2_image = proj_reg @ kb2
    delta_image = x_block @ kb3
    pairs = (
        (ext_reg @ kb1, kb2 @ kernel_basis(tau2_image), None),
        (tau2_image, kb3 @ preimage_lattice(delta_image, km1), None),
        (delta_image, preimage_lattice(ext_vert, km2), km1),
        (ext_vert, preimage_lattice(proj_vert, km3), km2),
    )
    return tuple(
        (_inside(image, kernel, mod), _inside(kernel, image, mod))
        for image, kernel, mod in pairs
    )


class _FiniteCoker:
    """Element enumeration for the cokernel of [K | m*I]; always finite."""

    def __init__(self, km: IntMatrix, order: int):
        n = km.rows
        sd = snf(km.hstack(scale(IntMatrix.identity(n), order)))
        self.diag = sd.diagonal[:n]
        assert all(self.diag), "cokernel with finite coefficients must be finite"
        self.u = sd.u
        self.order = math.prod(self.diag)

    def canon(self, vec):
        y = self.u @ tuple(vec)
        return tuple(yi % d for yi, d in zip(y, self.diag))

    def representatives(self):
        uinv = inverse_unimodular(self.u)
        for combo in product(*(range(d) for d in self.diag)):
            yield uinv @ combo


def twisted_nodes_oracle(graphs, order: int, u12_scale: int = 1):
    """(exact at K̄₁ middle, onto at K̄₁ quotient) with coefficients Z/order.

    ``graphs`` are the ideal part, middle and quotient part of the row.  Each
    twisted group coker(K) ⊗ Z/order = coker([K | order*I]) is listed element
    by element, and image, kernel and onto-ness are compared as sets; the
    inclusion into the middle is multiplied by ``u12_scale`` (1 gives the
    true row).  The cost is the group order: small graphs only.
    """
    g1, g2, g3 = graphs
    c1, c2, c3 = (_FiniteCoker(_transfer(g), order) for g in graphs)
    ext_vert = scale(_select(g1.vertices, g2.vertices), u12_scale)
    proj_vert = _select(g3.vertices, g2.vertices).transpose()
    image = {c2.canon(ext_vert @ rep) for rep in c1.representatives()}
    kernel = {
        c2.canon(rep)
        for rep in c2.representatives()
        if not any(c3.canon(proj_vert @ rep))
    }
    onto = {c3.canon(proj_vert @ rep) for rep in c2.representatives()}
    return image == kernel, len(onto) == c3.order


# ---------------------------------------------------------------------------
# colimit oracle: dimension triples
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DimensionTriple:
    """Direct limit of Z^n along A, with positivity and the shift action.

    Elements are pairs (level, vector); (k, x) and (k+1, A x) are the same
    element.  Equality is decided exactly through the stabilized kernel of
    A: a difference dies in the limit iff it dies within n applications.
    """

    matrix: IntMatrix

    def __post_init__(self):
        if self.matrix.rows != self.matrix.cols or not self.matrix.is_nonnegative():
            raise ValueError("matrix must be square and nonnegative")

    def _raise_to(self, elem, level):
        k, x = elem
        x = tuple(x)
        if len(x) != self.matrix.rows:
            raise ValueError("vector length mismatch")
        if level < k:
            raise ValueError("cannot lower a representative level")
        return self.matrix.pow(level - k) @ x

    def equal(self, a, b) -> bool:
        m = max(a[0], b[0])
        u = tuple(p - q for p, q in zip(self._raise_to(a, m), self._raise_to(b, m)))
        for _ in range(self.matrix.rows + 1):
            if all(c == 0 for c in u):
                return True
            u = self.matrix @ u
        return False

    def add(self, a, b):
        m = max(a[0], b[0])
        return (m, tuple(p + q for p, q in zip(self._raise_to(a, m), self._raise_to(b, m))))

    def shift(self, a):
        """The canonical automorphism: apply A without moving the level."""
        k, x = a
        return (k, self.matrix @ tuple(x))

    def eventually_positive(self, a, bound=None) -> bool:
        """Does some bounded power of A make the representative nonnegative?"""
        bound = self.matrix.rows if bound is None else bound
        _, x = a
        x = tuple(x)
        for _ in range(bound + 1):
            if all(c >= 0 for c in x):
                return True
            x = self.matrix @ x
        return False


def dimension_triple_equal(m: IntMatrix, a, b) -> bool:
    return DimensionTriple(m).equal(a, b)


def triple_of_graded(g: Graph, elem: GradedElement):
    """Translate a graded element of a sink-free graph into the triple of
    the transposed adjacency matrix.

    Vertex v at level i is the basis vector of v at triple level -i; the
    terms are summed with ``DimensionTriple.add``, so no graded expansion
    of the library is involved.
    """
    if g.sinks:
        raise ValueError("translation requires a sink-free graph")
    triple = DimensionTriple(g.adjacency().transpose())
    n = len(g.vertices)
    total = (0, (0,) * n)
    for v, lvl, c in elem.coeffs:
        vec = [0] * n
        vec[g.index(v)] = c
        total = triple.add(total, (-lvl, tuple(vec)))
    return total


# ---------------------------------------------------------------------------
# lattice oracles: whole-lattice pieces and isomorphisms
# ---------------------------------------------------------------------------


def open_sets(topology: SpectrumTopology) -> tuple[frozenset, ...]:
    """Each element's open as the frozenset of its prime positions."""
    m = len(topology.primes)
    return tuple(frozenset(p for p in range(m) if o >> p & 1) for o in topology.opens)


def kernel_of(topology: SpectrumTopology, prime_positions) -> frozenset:
    """Intersection of the named primes; the full vertex set when none are named."""
    lattice = topology.lattice
    members = frozenset(lattice.graph.vertices)
    for pos in prime_positions:
        members &= frozenset(lattice.members(topology.primes[pos]))
    return members


def locally_closed_oracle(topology: SpectrumTopology) -> tuple[LocallyClosed, ...]:
    """One pair per distinct difference of opens, from every pair of opens.

    For each difference the outer element is the one with the smallest open
    (then the smallest index) from which the difference can be cut.
    """
    opens = open_sets(topology)
    n = len(opens)
    element = {o: i for i, o in enumerate(opens)}
    differences = {opens[i] - opens[j] for i in range(n) for j in range(n) if opens[j] <= opens[i]}
    out = []
    for diff in differences:
        candidates = [
            (len(u), i, element[u - diff])
            for i, u in enumerate(opens)
            if diff <= u and (u - diff) in opens
        ]
        _, outer, inner = min(candidates)
        out.append(LocallyClosed(outer_index=outer, inner_index=inner, difference=diff))
    out.sort(key=lambda lc: (len(lc.difference), tuple(sorted(lc.difference))))
    return tuple(out)


def lattice_isomorphisms_oracle(l1: IdealLattice, l2: IdealLattice):
    """Every order isomorphism l1 -> l2, by backtracking over all elements.

    Elements are assigned rarest (down, up) signature first, then by index,
    each image tried in increasing order and checked against every earlier
    assignment in both directions, so the list is in lexicographic order of
    the images along that element order.
    """
    n = len(l1.elements)
    if n != len(l2.elements):
        return []
    leq1 = [[l1.leq(i, j) for j in range(n)] for i in range(n)]
    leq2 = [[l2.leq(i, j) for j in range(n)] for i in range(n)]

    def signature(leq, i):
        return (sum(leq[a][i] for a in range(n)), sum(leq[i][a] for a in range(n)))

    sig1 = [signature(leq1, i) for i in range(n)]
    sig2 = [signature(leq2, i) for i in range(n)]
    if sorted(sig1) != sorted(sig2):
        return []
    order = sorted(range(n), key=lambda i: (sig2.count(sig1[i]), i))
    results = []
    assignment = [-1] * n

    def extend(pos):
        if pos == n:
            results.append(tuple(assignment))
            return
        i = order[pos]
        for j in range(n):
            if sig1[i] != sig2[j] or j in assignment:
                continue
            if all(
                leq1[i][k] == leq2[j][assignment[k]] and leq1[k][i] == leq2[assignment[k]][j]
                for k in order[:pos]
            ):
                assignment[i] = j
                extend(pos + 1)
                assignment[i] = -1

    extend(0)
    return results


def disjoint_union(*graphs: Graph) -> Graph:
    """The graphs side by side, the k-th one's names prefixed with ``c<k>``."""
    vertices, edges = [], []
    for k, g in enumerate(graphs):
        vertices += [f"c{k}{v}" for v in g.vertices]
        edges += [(f"c{k}{e.name}", f"c{k}{e.src}", f"c{k}{e.dst}") for e in g.edges]
    return Graph(vertices, edges)


def cycle(k: int, order=None) -> Graph:
    """A directed k-cycle, edge ``a<i>`` from ``t<i>`` to ``t<i + 1 mod k>``,
    its vertices declared in ``order``, by default t0, t1, ..."""
    order = range(k) if order is None else order
    edges = [(f"a{i}", f"t{i}", f"t{(i + 1) % k}") for i in range(k)]
    return Graph([f"t{i}" for i in order], edges)


def declared_shuffled(g: Graph, seed: int) -> Graph:
    """``g`` with its vertices declared in the order that
    ``random.Random(seed).shuffle`` gives them; names and edges stay."""
    names = list(g.vertices)
    random.Random(seed).shuffle(names)
    return Graph(names, g.edges)


def unaligned_pair(g: Graph, h: Graph) -> tuple[Graph, Graph]:
    """``g`` and ``h``, each beside a directed 3-cycle (``disjoint_union``),
    declared t0, t1, t2 beside ``g`` and t0, t2, t1 beside ``h``.

    Colour refinement gives the cycle's vertices one colour, and matching
    them in declaration order sends t1 to t2 and the edge t0 -> t1 onto
    t0 -> t2, which ``h``'s cycle lacks.  So ``Graph._alignment`` finds no
    bijection, and a compare of the pair reads both graphs in declaration
    order, as it does any two graphs that it cannot align.  The cycle has
    no exit, so each lattice is the graph's lattice times a 2-chain."""
    return disjoint_union(g, cycle(3)), disjoint_union(h, cycle(3, (0, 2, 1)))


# ---------------------------------------------------------------------------
# lattice membership and well-defined maps
# ---------------------------------------------------------------------------


def scale(m: IntMatrix, k: int) -> IntMatrix:
    """``m`` with every entry multiplied by ``k``."""
    return IntMatrix._trusted(tuple(tuple(k * a for a in r) for r in m.data), m.cols)


def diagonal(entries, rows=None, cols=None) -> IntMatrix:
    """The ``rows`` by ``cols`` matrix with ``entries`` down its diagonal
    (square of their length by default) and zeros elsewhere."""
    entries = tuple(int(e) for e in entries)
    rows = len(entries) if rows is None else rows
    cols = len(entries) if cols is None else cols
    return IntMatrix(
        tuple(
            tuple(entries[i] if i == j and i < len(entries) else 0 for j in range(cols))
            for i in range(rows)
        ),
        cols=cols,
    )


def inverse_unimodular(m: IntMatrix) -> IntMatrix:
    """Exact inverse of a matrix with determinant +1 or -1, as v @ u from
    its Smith record (u m v = 1 forces m^-1 = v u)."""
    sd = snf(m)
    inverse = sd.v @ sd.u if m.rows == m.cols else None
    if inverse is None or any(x != 1 for x in sd.diagonal):
        raise ValueError("matrix is not unimodular")
    return inverse


def from_columns(columns, rows=None) -> IntMatrix:
    """The matrix whose columns are ``columns``; ``rows`` pins the row
    count of an empty list."""
    columns = [tuple(int(x) for x in c) for c in columns]
    if columns:
        rows = len(columns[0])
        return IntMatrix(tuple(tuple(c[i] for c in columns) for i in range(rows)), cols=len(columns))
    if rows is None:
        raise ValueError("rows required for an empty column list")
    return IntMatrix.zeros(rows, 0)


def lattice_member(m: IntMatrix, vec) -> bool:
    """Is ``vec`` an integer combination of the columns of ``m``?"""
    sd = snf(m)
    y = sd.u @ tuple(vec)
    diag = sd.diagonal
    for i, yi in enumerate(y):
        di = diag[i] if i < len(diag) else 0
        if di == 0:
            if yi != 0:
                return False
        elif yi % di != 0:
            return False
    return True


def canon(group: PresentedGroup, vec) -> tuple:
    """Canonical form of the class of ``vec`` in ``group``, read off the
    Smith transform u of its relations: equal classes, equal tuples."""
    vec = tuple(vec)
    if len(vec) != group.generators:
        raise ValueError("vector length mismatch")
    sd = snf(group.relations)
    diag = sd.diagonal
    return tuple(
        yi % diag[i] if i < len(diag) and diag[i] else yi for i, yi in enumerate(sd.u @ vec)
    )


def is_zero_class(group: PresentedGroup, vec) -> bool:
    """Is ``vec`` zero in ``group``, by its class form?"""
    return not any(canon(group, vec))


def smith_verifies(sd: SmithData, m: IntMatrix) -> bool:
    """Recheck a Smith factorization: u @ m @ v is the diagonal matrix, u and
    v are unimodular, and the diagonal is a nonnegative divisibility chain
    with its zeros last."""
    d = diagonal(sd.diagonal, rows=sd.u.rows, cols=sd.v.cols)
    if sd.u @ m @ sd.v != d:
        return False
    if abs(bareiss_det(sd.u)) != 1 or abs(bareiss_det(sd.v)) != 1:
        return False
    diag = sd.diagonal
    for a, b in zip(diag, diag[1:]):
        if a == 0 and b != 0:
            return False
        if a != 0 and b % a != 0:
            return False
    return all(x >= 0 for x in diag)


def check_well_defined(gmap: GroupMap) -> bool:
    """Raise ValueError when a relation is not respected; True otherwise."""
    for j in range(gmap.domain.relations.cols):
        image = gmap.matrix @ gmap.domain.relations.column(j)
        if not lattice_member(gmap.codomain.relations, image):
            raise ValueError(
                f"map {gmap.name or '<anonymous>'} does not kill domain relation {j}"
            )
    return True


def row_skeleton(store: SubquotientStore, row: SixTermRow) -> tuple[GroupMap, ...]:
    """The Z-level skeleton of a row of the store's graph: tau1, tau2,
    delta, u12 and u23 between its six groups (the free kernel parts of the
    three K1bar groups, then the K0 presentations), unnamed like the maps
    of a skeleton record (``ktheory._Skeleton.maps``).  Any store of the
    graph gives the same skeleton.

    It is built apart from the library's cut in Smith coordinates and from
    its pair records: the rows and regular columns of J minus I, P minus I
    and P minus J are read off the graph, every matrix is a block of the
    graph's transfer matrix (:func:`k_matrix`) or of a kernel basis of one,
    or a 0/1 selection of H' = J minus I, and tau1 and tau2 solve for each
    kernel vector in the next kernel basis.
    """
    g = store.graph
    inner, middle, outer = (_mask(g, names) for names in row.triple)
    km, regular = k_matrix(g), [g.index(v) for v in g.regulars]

    def rows_and_regs(bits):
        rows = [i for i in range(g.num_vertices) if bits >> i & 1]
        return rows, [j for j, i in enumerate(regular) if bits >> i & 1]

    blocks = [
        km.take_rows(rows).take_columns(regs)
        for rows, regs in map(rows_and_regs, (middle & ~inner, outer & ~inner, outer & ~middle))
    ]
    rows, regs = rows_and_regs(outer & ~inner)
    hprime = [k for k, i in enumerate(rows) if middle >> i & 1]
    vert3 = [k for k, i in enumerate(rows) if not middle >> i & 1]
    reg1 = [c for c, j in enumerate(regs) if middle >> regular[j] & 1]
    reg3 = [c for c, j in enumerate(regs) if not middle >> regular[j] & 1]
    kb1, kb2, kb3 = map(kernel_basis, blocks)
    eye = IntMatrix.identity(len(rows))
    matrices = (
        kernel_coordinates(kb2, kb1.scatter_rows(reg1, len(regs))),
        kernel_coordinates(kb3, kb2.take_rows(reg3)),
        blocks[1].take_rows(hprime).take_columns(reg3) @ kb3,
        eye.take_columns(hprime),
        eye.take_rows(vert3),
    )
    free = tuple(PresentedGroup(IntMatrix.zeros(kb.cols, 0)) for kb in (kb1, kb2, kb3))
    groups = free + tuple(map(PresentedGroup, blocks))
    return tuple(GroupMap(groups[k], groups[k + 1], m) for k, m in enumerate(matrices))


def kernel_coordinates(basis: IntMatrix, vectors: IntMatrix) -> IntMatrix:
    """The coordinates of each vector column in the columns of ``basis``,
    one lattice solve each; a vector outside their span raises."""
    columns = []
    for j in range(vectors.cols):
        x = solve_lattice(basis, vectors.column(j))
        if x is None:
            raise AssertionError("kernel vector left the kernel under an induced map")
        columns.append(x)
    if not columns:
        return IntMatrix.zeros(basis.cols, 0)
    return IntMatrix._trusted(tuple(zip(*columns)), len(columns))


def shape_count(store: SubquotientStore) -> int:
    """The row shapes that the store maps to skeleton records, per pair
    record the sets of positions of J minus I cut from its block; with a
    store that shares another's records, the shapes of both."""
    return sum(map(len, store._shapes.values()))


def skeleton_record(maps, pairs) -> _Skeleton:
    """A new skeleton record of the Z-level skeleton ``maps`` over
    ``pairs``, the pair records of the row whose skeleton it is or
    mutates: each map conjugated into the Smith coordinates of its
    groups, project @ m @ lift with each row reduced modulo its modulus,
    as a store's cut gives for a real row."""
    coords = [_SmithCoordinates(grp) for grp in row_groups(maps)]
    reduced = []
    for f, dom, cod in zip(maps, coords, coords[1:]):
        m = f.matrix if dom.lift is None else f.matrix @ dom.lift
        if cod.project is not None:
            m = cod.project @ m
            m = IntMatrix._trusted(_residues(m, cod.moduli), m.cols)
        reduced.append(GroupMap(dom.group, cod.group, m))
    return _Skeleton(tuple(reduced), pairs)


def row_groups(maps) -> tuple[PresentedGroup, ...]:
    """The six groups of a row skeleton, in row order."""
    return (maps[0].domain,) + tuple(f.codomain for f in maps)


def row_graphs(g: Graph, row: SixTermRow) -> tuple[Graph, Graph, Graph]:
    """The ideal part, middle and quotient part of a row of ``g``, built
    from its triple of vertex names."""
    inner, middle, outer = (frozenset(names) for names in row.triple)
    return subquotient(g, inner, middle), subquotient(g, inner, outer), subquotient(g, middle, outer)


# ---------------------------------------------------------------------------
# monoid equality by budgeted rewrite search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BfsVerdict:
    """For "equal", trace_a and trace_b are rewrite paths from each input to
    a common element; for "not-equal" and "unknown", reason says why."""

    kind: str
    reason: str = ""
    trace_a: tuple = ()
    trace_b: tuple = ()


def _trace_from(parents, end):
    path = [end]
    while parents[path[-1]] is not None:
        path.append(parents[path[-1]])
    path.reverse()
    return tuple(path)


def bfs_equal(g: Graph, a: MonoidElement, b: MonoidElement, max_states=100_000, max_mass=64) -> BfsVerdict:
    """Semi-decision of monoid equality under a state and mass budget.

    NotEqual is only ever reported on sound evidence: a vertex-class
    obstruction in the cokernel of the transfer matrix, or two fully
    explored rewrite closures that are disjoint.  Budget exhaustion gives
    Unknown, and growing the budget can only sharpen verdicts, never flip
    them.
    """
    if a == b:
        return BfsVerdict("equal", trace_a=(a,), trace_b=(b,))
    if not a.coeffs or not b.coeffs:
        # rewriting never creates or destroys the zero element
        return BfsVerdict("not-equal", reason="only the zero element equals zero")
    diff = tuple(a.get(v) - b.get(v) for v in g.vertices)
    if not lattice_member(k_matrix(g), diff):
        return BfsVerdict("not-equal", reason="vertex classes differ in the transfer cokernel")

    seen_a = {a: None}
    seen_b = {b: None}
    frontier_a = [a]
    frontier_b = [b]
    complete_a = True
    complete_b = True
    states = 2
    hit_mass = False
    hit_states = False

    def expand(frontier, seen, complete_flag):
        nonlocal states, hit_mass, hit_states
        nxt = []
        complete = complete_flag
        for elem in frontier:
            for succ in successors_one_step(g, elem):
                if succ in seen:
                    continue
                if mass(succ) > max_mass:
                    complete = False
                    hit_mass = True
                    continue
                if states >= max_states:
                    complete = False
                    hit_states = True
                    continue
                seen[succ] = elem
                states += 1
                nxt.append(succ)
        return nxt, complete

    while frontier_a or frontier_b:
        # grow the smaller side first; ties favor a
        if frontier_a and (not frontier_b or len(seen_a) <= len(seen_b)):
            frontier_a, complete_a = expand(frontier_a, seen_a, complete_a)
        elif frontier_b:
            frontier_b, complete_b = expand(frontier_b, seen_b, complete_b)
        common = seen_a.keys() & seen_b.keys()
        if common:
            witness = min(common, key=lambda e: e.coeffs)
            return BfsVerdict(
                "equal",
                trace_a=_trace_from(seen_a, witness),
                trace_b=_trace_from(seen_b, witness),
            )
    if complete_a and complete_b:
        return BfsVerdict("not-equal", reason="disjoint finite rewrite closures")
    caps = []
    if hit_states:
        caps.append(f"states cap {max_states}")
    if hit_mass:
        caps.append(f"mass cap {max_mass}")
    return BfsVerdict("unknown", reason="budget exhausted: " + ", ".join(caps))


# ---------------------------------------------------------------------------
# test-only predicates, samplers and sampling harnesses
# ---------------------------------------------------------------------------


def coeff_quotient_by(coeff: CoeffGroup, d: int):
    """Isomorphism class of G/dG when it is finitely generated, else None."""
    d = abs(int(d))
    if coeff.kind == "finite-cyclic":
        return FgAbGroup.from_parts(0, [math.gcd(d, coeff.order)] if d else [coeff.order])
    if coeff.kind == "divisible":
        return FgAbGroup(0, ()) if d != 0 else None
    return None


def delta_value(cd: ConnectingMap, x) -> tuple:
    """Value of the connecting map on a kernel vector of the quotient
    transfer matrix; ValueError for any other vector."""
    x = tuple(x)
    if len(x) != len(cd.quo.regulars):
        raise ValueError("vector length must match quotient non-sinks")
    if any(v != 0 for v in k_matrix(cd.quo) @ x):
        raise ValueError("vector is not in the kernel of the quotient transfer matrix")
    return cd.x_block @ x


def index_of(lattice: IdealLattice, vertices) -> int:
    """The index of the element whose vertices are ``vertices``, found by
    comparing vertex sets; KeyError when no element has them."""
    vertices = frozenset(vertices)
    for i in range(len(lattice)):
        if frozenset(lattice.members(i)) == vertices:
            return i
    raise KeyError(f"not a lattice element: {sorted(vertices)!r}")


def lattice_meet(lattice: IdealLattice, i: int, j: int) -> int:
    """The element whose vertices both i and j contain: an intersection of
    hereditary saturated sets is one."""
    return index_of(lattice, set(lattice.members(i)) & set(lattice.members(j)))


def lattice_join(lattice: IdealLattice, i: int, j: int) -> int:
    """The least element above both i and j, found from the order alone:
    elements are sorted by size, so the first upper bound is the least."""
    return next(k for k in range(len(lattice)) if lattice.leq(i, k) and lattice.leq(j, k))


def group_order(group: FgAbGroup):
    """Order of a finitely generated abelian group, or None when infinite."""
    return None if group.free_rank else math.prod(group.torsion)


def graded_add(a: GradedElement, b: GradedElement) -> GradedElement:
    """The sum of two graded elements."""
    return GradedElement.of(a.coeffs + b.coeffs)


def restrict_to(a: GradedElement, vertices) -> GradedElement:
    """The terms of ``a`` at the given vertices."""
    keep = frozenset(vertices)
    return GradedElement.of([t for t in a.coeffs if t[0] in keep])


def mass(a: MonoidElement) -> int:
    """The number of vertex copies in a monoid element; rewrites never lower it."""
    return sum(n for _, n in a.coeffs)


def monoid_to_str(a: MonoidElement, g: Graph | None = None) -> str:
    """A literal ``parse_monoid_element`` reads back, terms in vertex order."""
    if not a.coeffs:
        return "0"
    items = sorted(a.coeffs, key=(lambda p: g.index(p[0])) if g else None)
    return " + ".join(f"{n}*{v}" if n != 1 else v for v, n in items)


def graded_to_str(a: GradedElement, g: Graph | None = None) -> str:
    """A literal ``parse_graded_element`` reads back: vertex order, then
    descending level."""
    if not a.coeffs:
        return "0"
    items = sorted(
        a.coeffs,
        key=(lambda t: (g.index(t[0]), -t[1])) if g else (lambda t: (t[0], -t[1])),
    )
    parts = []
    for v, l, n in items:
        term = f"{v}({l})" if n in (1, -1) else f"{abs(n)}*{v}({l})"
        parts.append(("- " if n < 0 else "+ ") + term)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def is_lattice_prime(lattice: IdealLattice, i: int) -> bool:
    """Order-theoretic primality: meet(a,b) <= p forces a <= p or b <= p."""
    if len(lattice.members(i)) == lattice.graph.num_vertices:
        return False
    n = len(lattice.elements)
    for a in range(n):
        for b in range(a, n):
            if lattice.leq(lattice_meet(lattice, a, b), i) and not (
                lattice.leq(a, i) or lattice.leq(b, i)
            ):
                return False
    return True


def reachable_from(g: Graph, v):
    """Set of vertices reachable from v by a path of length >= 0."""
    seen = {v}
    stack = [v]
    while stack:
        cur = stack.pop()
        for e in g.out_edges(cur):
            if e.dst not in seen:
                seen.add(e.dst)
                stack.append(e.dst)
    return frozenset(seen)


def is_downward_directed(g: Graph, subset=None) -> bool:
    """Can every two vertices of the subset reach a common vertex in it?

    Defaults to the full vertex set.  Paths may have length zero; for the
    complement of a hereditary set, paths between members automatically stay
    inside the subset.
    """
    member_set = frozenset(g.vertices) if subset is None else _require_subset(g, subset)
    members = tuple(v for v in g.vertices if v in member_set)
    if len(members) <= 1:
        return True
    for i, u in enumerate(members):
        ru = reachable_from(g, u) & member_set
        for v in members[i + 1:]:
            if not (ru & reachable_from(g, v)):
                return False
    return True


def is_weakly_connected(g: Graph) -> bool:
    if not g.vertices:
        return True
    nbrs = {v: set() for v in g.vertices}
    for e in g.edges:
        nbrs[e.src].add(e.dst)
        nbrs[e.dst].add(e.src)
    seen = {g.vertices[0]}
    stack = [g.vertices[0]]
    while stack:
        cur = stack.pop()
        for nxt in nbrs[cur]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == len(g.vertices)


def random_monoid_element(g: Graph, rng, max_terms=3, max_coeff=3) -> MonoidElement:
    if not g.vertices:
        return MonoidElement(())
    pairs = {}
    for _ in range(rng.randint(1, max_terms)):
        v = rng.choice(g.vertices)
        pairs[v] = pairs.get(v, 0) + rng.randint(1, max_coeff)
    return MonoidElement.of(pairs)


def is_irreducible(g: Graph) -> bool:
    """Does every vertex reach every vertex by a path of length >= 1?"""
    if not g.vertices:
        return False
    for v in g.vertices:
        # length >= 1: start from out-neighbors, not from v itself
        seen = set()
        stack = [e.dst for e in g.out_edges(v)]
        seen.update(stack)
        while stack:
            cur = stack.pop()
            for e in g.out_edges(cur):
                if e.dst not in seen:
                    seen.add(e.dst)
                    stack.append(e.dst)
        if len(seen) != len(g.vertices):
            return False
    return True


def covering_window(g: Graph, lo: int, hi: int) -> Graph:
    """Finite window of the Z-covering.

    Vertex (v,k) exists for lo <= k <= hi; edge (e,k) runs from (s(e),k) to
    (r(e),k-1), so it exists for lo < k <= hi.  The result is acyclic by
    construction since every edge strictly drops the level.
    """
    if lo > hi:
        raise ValueError("empty window")
    vertices = [f"({v},{k})" for k in range(hi, lo - 1, -1) for v in g.vertices]
    edges = [
        (f"({e.name},{k})", f"({e.src},{k})", f"({e.dst},{k - 1})")
        for k in range(hi, lo, -1)
        for e in g.edges
    ]
    return Graph(vertices, edges)


def random_graded_element(g: Graph, rng, max_terms=3, levels=(-2, 2), max_coeff=3, signed=False) -> GradedElement:
    if not g.vertices:
        return GradedElement.zero()
    triples = []
    for _ in range(rng.randint(1, max_terms)):
        v = rng.choice(g.vertices)
        lvl = rng.randint(levels[0], levels[1])
        n = rng.randint(1, max_coeff)
        if signed and rng.random() < 0.5:
            n = -n
        triples.append((v, lvl, n))
    return GradedElement.of(triples)


def apply_random_expansions(g: Graph, a: GradedElement, steps: int, rng) -> GradedElement:
    """Rewrite random single copies of regular generators, keeping the class."""
    acc = {(v, l): n for v, l, n in a.coeffs}
    for _ in range(steps):
        # sorted, as in the element's own order, so a seeded rng picks alike
        candidates = sorted(
            key for key, n in acc.items() if n > 0 and not g.is_sink(key[0])
        )
        if not candidates:
            break
        v, l = rng.choice(candidates)
        acc[(v, l)] -= 1
        for e in g.out_edges(v):
            acc[(e.dst, l - 1)] = acc.get((e.dst, l - 1), 0) + 1
    return GradedElement.of((v, l, n) for (v, l), n in acc.items())


@dataclass(frozen=True)
class RoundtripReport:
    samples: int
    failures: tuple
    inner_graph: Graph

    @property
    def passed(self):
        return not self.failures


def quotient_roundtrip(g: Graph, members, samples: int = 100, rng=None, rewrite_steps: int = 4) -> RoundtripReport:
    """Check both composites of the quotient-monoid isomorphism on samples.

    Down-then-up: a graded element of the quotient graph is lifted to the
    ambient graph, rewritten randomly there, projected back by dropping the
    removed vertices, and must stay graded-equal to the original.
    Up-then-down: an ambient element is rewritten randomly in the ambient
    graph, and the projections of the element and of its rewrite must be
    graded-equal in the quotient, so projection is well defined on classes.
    """
    rng = rng or random.Random(0)
    members = frozenset(members)
    if not (is_hereditary(g, members) and is_saturated(g, members)):
        raise ValueError("quotient needs a hereditary saturated set")
    q = quotient(g, members)
    failures = []
    for i in range(samples):
        # down-then-up on the quotient side
        a = random_graded_element(q, rng)
        # a is read in g as it stands: the quotient keeps g's vertex ids
        rewritten = apply_random_expansions(g, a, rng.randint(0, rewrite_steps), rng)
        projected = restrict_to(rewritten, q.vertices)
        verdict = graded_equal(q, projected, a)
        if not verdict.is_equal:
            failures.append(("down-up", a, rewritten, verdict.reason))
            continue
        # up-then-down on the ambient side
        c = random_graded_element(g, rng)
        rewritten = apply_random_expansions(g, c, rng.randint(0, rewrite_steps), rng)
        verdict = graded_equal(q, restrict_to(c, q.vertices), restrict_to(rewritten, q.vertices))
        if not verdict.is_equal:
            failures.append(("up-down", c, rewritten, verdict.reason))
    return RoundtripReport(samples=samples, failures=tuple(failures), inner_graph=q)


@dataclass(frozen=True)
class DiagramReport:
    trials: int
    failures: tuple

    @property
    def passed(self):
        return not self.failures


def psi_diagram_check(g: Graph, trials: int = 100, rng=None, bound: int = 5) -> DiagramReport:
    """Sample the commuting square relating K and the colimit shift.

    For random integer vectors y over the non-sink vertices, the image
    psi(K y) must be graded-equal to phi(psi(y)).
    """
    rng = rng or random.Random(0)
    km = k_matrix(g)
    failures = []
    for _ in range(trials):
        y = tuple(rng.randint(-bound, bound) for _ in g.regulars)
        left = phi(psi_regular(g, y))
        right = psi(g, km @ y)
        verdict = graded_equal(g, left, right)
        if not verdict.is_equal:
            failures.append((y, verdict.reason))
    return DiagramReport(trials=trials, failures=tuple(failures))


# ---------------------------------------------------------------------------
# the paper's maps and the order-ideal test, chased through the colimit engine
# ---------------------------------------------------------------------------


def psi(g: Graph, vec, level: int = 0) -> GradedElement:
    """Stage embedding: a vertex vector becomes generators at one level."""
    return GradedElement.from_vertex_vector(g.vertices, tuple(vec), level=level)


def snake_rho(g: Graph, members, x) -> tuple:
    """Connecting value computed by chasing the colimit diagram directly.

    Entirely independent of the adjacency-block formula: lift the kernel
    vector to the ambient graph, apply the shift map, expand one level at a
    time until the result is supported inside the ideal, then forget levels.
    Returns the ideal vertex vector (one entry per ideal vertex, declaration
    order).
    """
    members = frozenset(members)
    if not (is_hereditary(g, members) and is_saturated(g, members)):
        raise ValueError("snake chase needs a hereditary saturated set")
    quo = quotient(g, members)
    sub = restriction(g, members)
    x = tuple(x)
    if any(v != 0 for v in k_matrix(quo) @ x):
        raise ValueError("vector is not in the kernel of the quotient transfer matrix")
    w = phi(GradedElement.from_vertex_vector(quo.regulars, x, level=0))
    if w.is_zero():
        return tuple(0 for _ in sub.vertices)
    form = _LevelForm(g, w.coeffs, w.min_level())
    for attempt in range(len(quo.regulars) + 2):
        if attempt:
            form.step()
        terms = tuple(form.terms())
        if all(v in members for v, _, _ in terms):
            return tuple(sum(n for u, _, n in terms if u == v) for v in sub.vertices)
    raise AssertionError("shift image failed to fall into the ideal; kernel input invalid")


def graded_is_nonnegative(a: GradedElement) -> bool:
    return all(n >= 0 for _, _, n in a.coeffs)


def order_ideal_membership(g: Graph, a: GradedElement, members) -> bool:
    """Is the class of a nonnegative graded element inside the ideal of H?

    H must be hereditary and saturated; then membership is visible already
    at the minimal support level: expand there and look at the support.
    """
    members = frozenset(members)
    for v in members:
        g.index(v)
    if not (is_hereditary(g, members) and is_saturated(g, members)):
        raise ValueError("ideal test needs a hereditary saturated set")
    if not graded_is_nonnegative(a):
        raise ValueError("ideal membership is a monoid notion; element must be nonnegative")
    if a.is_zero():
        return True
    return all(v in members for v, _, _ in _LevelForm(g, a.coeffs, a.min_level()).terms())


# ---------------------------------------------------------------------------
# the interval-pruned box search for shift equivalence
# ---------------------------------------------------------------------------


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
            for k, c in enumerate(left.data[i] if left is not None else ()):
                if c:
                    coeffs[k * x_cols + j] = coeffs.get(k * x_cols + j, 0) + c
            for k, c in enumerate(right.column(j) if right is not None else ()):
                if c:
                    coeffs[i * x_cols + k] = coeffs.get(i * x_cols + k, 0) + c
            out.append(({v: c for v, c in coeffs.items() if c}, target[i, j]))
    return out


def shift_equivalent_box_search(a, b, max_lag=6, max_entry=4, node_cap=200_000):
    """``shift_equivalent_bounded`` by the walk it replaced: every entry of
    R, then of S, one at a time over [0, max_entry], pruned by interval sums
    of the linear constraints.  Same screen, search order and notes; its
    node count is one per partial assignment that passes the pruning.

    Returns the result and the nodes used.  The walk does not depend on the
    cap, and every walk after the first node past it stops at its first
    node, so the search finishes under a cap c exactly when an uncapped
    one uses at most c nodes, and then gives the same result."""
    obstructions = []
    bf_a, bf_b = bowen_franks(a), bowen_franks(b)
    if bf_a != bf_b:
        obstructions.append(f"Bowen-Franks groups differ: {bf_a} vs {bf_b}")
    det_a, det_b = det_invariant(a), det_invariant(b)
    if det_a != det_b:
        obstructions.append(f"det(I-A) differs: {det_a} vs {det_b}")
    if obstructions:
        return SeResult(kind="obstruction", obstructions=tuple(obstructions)), 0

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
                    if verify_certificate(a, b, cert).ok:
                        return SeResult(kind="certificate", certificate=cert), counter[0]
            except _NodeCapHit:
                capped = True
    note = f"no certificate with lag <= {max_lag}, entries <= {max_entry}"
    if capped:
        note += f"; node budget {node_cap} exhausted, search incomplete"
    return SeResult(kind="unknown", note=note), counter[0]


# ---------------------------------------------------------------------------
# table comparison with a verdict per entry of every candidate
# ---------------------------------------------------------------------------


def _old_entry_classes(t):
    """(entry, class, names) per entry of a table, all built up front, as
    ``compare_fkbar`` once did: per facet of ``filtered._ENTRY_FACETS`` the
    K0 invariants, the K1bar kernel rank and the twisted class key, and how
    a mismatch message writes each."""
    out = []
    for e in t.entries:
        k0, kb = e.pair.k0_group, e.pair.k1
        cls = (k0, kb.kernel_rank, kb.coker_part.class_key())
        out.append((e, cls, (str(k0), str(kb.kernel_rank), kb.coker_part.symbol())))
    return out


def _old_match_entries(t1, t2, iso, classes1, classes2):
    """The per-candidate entry matcher ``compare_fkbar`` replaced: builds a
    ``PieceVerdict`` for every entry of every candidate."""
    prime_pos2 = {p: idx for idx, p in enumerate(t2.topology.primes)}
    mapped = {iso[p] for p in t1.topology.primes}
    if mapped != set(t2.topology.primes):
        return None, "lattice isomorphism does not preserve the prime set"
    prime_bij = {idx: prime_pos2[iso[p]] for idx, p in enumerate(t1.topology.primes)}
    verdicts = []
    paired = 0
    for e1, c1, names1 in classes1:
        difference = e1.piece.difference
        e2, c2, names2 = classes2.get(frozenset(prime_bij[x] for x in difference), (None,) * 3)
        if e2 is None:
            verdicts.append(
                PieceVerdict(
                    difference=tuple(sorted(difference)),
                    matched=False,
                    detail="no matching piece in the second table",
                )
            )
            continue
        paired += 1
        problems = [
            f"{facet} {n1} vs {n2}"
            for facet, x1, x2, n1, n2 in zip(filtered._ENTRY_FACETS, c1, c2, names1, names2)
            if x1 != x2
        ]
        verdicts.append(
            PieceVerdict(
                difference=tuple(sorted(difference)),
                matched=not problems,
                detail="; ".join(problems) if problems else "entry classes agree",
            )
        )
    if paired != len(t1.pieces) or len(t1.pieces) != len(t2.pieces):
        return verdicts, "piece bijection failed"
    bad = next((v for v in verdicts if not v.matched), None)
    return verdicts, bad.detail if bad else ""


def compare_verdicts_per_candidate(g1: Graph, g2: Graph, coeff: CoeffGroup, element_search=True):
    """``compare_fkbar`` as it was before it counted mismatches first: every
    candidate gets its piece verdicts built, and the closest failure (fewest
    unmatched verdicts, the first on ties) is reported.  No intertwiner and
    default caps."""
    t1 = filtered.FilteredKTable(g1, coeff)
    t2 = filtered.FilteredKTable(g2, coeff)
    t2.store._share(t1.store)
    classes1 = _old_entry_classes(t1)
    classes2 = {item[0].piece.difference: item for item in _old_entry_classes(t2)}
    best = (math.inf, (None, (), (), "ideal lattices admit no order isomorphism", "skipped"))
    for tried, iso in enumerate(filtered._iter_isomorphisms(t1.topology, t2.topology), 1):
        piece_verdicts, piece_failure = _old_match_entries(t1, t2, iso, classes1, classes2)
        if piece_verdicts is None:
            bundle = (iso, (), (), piece_failure, "skipped")
            score = math.inf
        elif piece_failure:
            bundle = (iso, tuple(piece_verdicts), (), piece_failure, "skipped")
            score = sum(1 for v in piece_verdicts if not v.matched)
        else:
            row_verdicts, row_failure, element_outcomes = filtered._match_rows(
                t1, t2, iso, run_elements=element_search
            )
            outcomes = element_outcomes
            if outcomes and all(e == "passed" for e in outcomes):
                element = "passed"
            elif "refuted" in outcomes:
                element = "refuted"
            elif outcomes:
                element = "inconclusive"
            else:
                element = "skipped"
            if not row_failure:
                if element == "skipped":
                    certification = "structural"
                elif element == "passed":
                    certification = "exhaustive"
                else:
                    certification = "bounded"
                return ComparisonReport(
                    consistent=True,
                    obstruction="",
                    lattice_iso=iso,
                    group_matches=tuple(piece_verdicts),
                    map_matches=tuple(row_verdicts),
                    certification=certification,
                    element_check=element,
                )
            bundle = (iso, tuple(piece_verdicts), tuple(row_verdicts), row_failure, element)
            score = sum(1 for v in row_verdicts if not v.matched)
        if tried == 1 or score < best[0]:
            best = (score, bundle)
    iso, pieces, rows, failure, element = best[1]
    return ComparisonReport(
        consistent=False,
        obstruction=failure,
        lattice_iso=None,
        group_matches=pieces,
        map_matches=rows,
        certification="structural",
        element_check=element,
    )


# ---------------------------------------------------------------------------
# standard graphs
# ---------------------------------------------------------------------------


def rose(n: int) -> Graph:
    """One vertex with n loops."""
    return Graph(["v"], [(f"e{i}", "v", "v") for i in range(n)])


def disjoint_loops(k: int) -> Graph:
    """k vertices, each with one loop: 4^k nested ideal triples."""
    names = [f"x{i}" for i in range(k)]
    return Graph(names, [(f"l{i}", v, v) for i, v in enumerate(names)])


def fan_graph() -> Graph:
    """One source feeding two sinks."""
    return Graph(["v", "w1", "w2"], [("a", "v", "w1"), ("b", "v", "w2")])


def line_graph(n: int) -> Graph:
    """Path v0 -> v1 -> ... -> v(n-1)."""
    verts = [f"v{i}" for i in range(n)]
    edges = [(f"e{i}", f"v{i}", f"v{i + 1}") for i in range(n - 1)]
    return Graph(verts, edges)


# ---------------------------------------------------------------------------
# random corpus
# ---------------------------------------------------------------------------

CORPUS_SEED = 20260819
CORPUS_SIZE = 200


def build_corpus(seed: int = CORPUS_SEED, count: int = CORPUS_SIZE):
    """Seeded corpus of weakly connected multigraphs with 1-4 vertices and at
    most 2 parallel edges per ordered vertex pair.  Weak connectivity comes
    from a random tree skeleton; extra edges (loops allowed) are sprinkled on
    top."""
    rng = random.Random(seed)
    graphs = []
    while len(graphs) < count:
        n = rng.randint(1, 4)
        names = [f"v{i}" for i in range(n)]
        pair_counts = {}
        edges = []

        def add(src, dst):
            key = (src, dst)
            if pair_counts.get(key, 0) >= 2:
                return False
            pair_counts[key] = pair_counts.get(key, 0) + 1
            edges.append((f"e{len(edges)}", src, dst))
            return True

        order = names[:]
        rng.shuffle(order)
        for i in range(1, n):
            u = order[rng.randrange(i)]
            w = order[i]
            if rng.random() < 0.5:
                u, w = w, u
            add(u, w)
        for _ in range(rng.randint(0, n + 2)):
            add(rng.choice(names), rng.choice(names))
        graphs.append(Graph(names, edges))
    return tuple(graphs)


_corpus_cache = None


def corpus():
    """Session-cached corpus with the default seed and size."""
    global _corpus_cache
    if _corpus_cache is None:
        _corpus_cache = build_corpus()
    return _corpus_cache

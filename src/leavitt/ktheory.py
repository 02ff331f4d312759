"""K-theoretic invariants of a graph: K0, graded K0, unit-twisted K1.

Everything is presented through one integer matrix per graph, the transfer
matrix K with one row per vertex and one column per non-sink vertex.  K0 is
its cokernel on vertex generators, the kernel gives the free part of K1,
and coefficient groups of units twist the cokernel.  Connecting maps
between the invariants of an ideal, the whole graph and the quotient are
computed exactly and their six-term rows are verified, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graphs import (
    Graph,
    is_hereditary,
    is_saturated,
    quotient,
    restriction,
    subquotient,
)
from .intlinalg import (
    CoeffCokernel,
    CoeffGroup,
    FgAbGroup,
    GroupMap,
    IntMatrix,
    PresentedGroup,
    check_exact,
    coker_with_coefficients,
    invariant_factors,
    kernel_basis,
    solve_lattice,
)
from .monoid import GradedElement, graded_equal

__all__ = [
    "k_matrix",
    "k0",
    "KOneBar",
    "k1",
    "phi",
    "VdbReport",
    "vdb_sequence",
    "ConnectingMap",
    "connecting_delta",
    "SixTermRow",
    "SubquotientK",
    "SubquotientStore",
    "six_term_row",
]


@lru_cache(maxsize=1)
def k_matrix(g: Graph) -> IntMatrix:
    """Transfer matrix: rows all vertices, columns non-sink vertices.

    Entry at (v, w) counts edges from w to v, minus one when v = w.  Its
    cokernel presents K0 on the vertex generators; its integer kernel is the
    free part of K1.  Back-to-back calls on one graph (K0 and K1 of a
    :class:`SubquotientK` or of ``vdb_sequence``) get the same matrix
    object instead of building it and its hash again; one entry keeps no
    more than the last graph alive.  It is built in one walk over the edge
    list, not from the n-by-n adjacency matrix.
    """
    row = {v: i for i, v in enumerate(g.vertices)}
    col = {w: j for j, w in enumerate(g.regulars)}
    rows = [[0] * len(col) for _ in row]
    for w, j in col.items():
        rows[row[w]][j] = -1
    for e in g.edges:
        rows[row[e.dst]][col[e.src]] += 1
    return IntMatrix._trusted(tuple(map(tuple, rows)), len(col))


def k0(g: Graph) -> PresentedGroup:
    """K0 presented on vertex generators."""
    return PresentedGroup(k_matrix(g))


@dataclass(frozen=True)
class KOneBar:
    """K1 (or its reduced variant) split as twisted cokernel plus free kernel.

    ``coker_part`` is the cokernel of the transfer matrix with coefficients
    in the unit group; ``kernel`` is a basis of the free summand inside the
    non-sink coordinate space, and ``kernel_rank`` counts it.  The rank is
    read off the Smith diagonal of the transfer matrix, and the basis is
    computed only when a caller reads it.
    """

    coker_part: CoeffCokernel
    _transfer: IntMatrix

    @property
    def kernel(self) -> IntMatrix:
        return kernel_basis(self._transfer)

    @property
    def kernel_rank(self) -> int:
        return self._transfer.cols - invariant_factors(self._transfer).rank

    def isomorphism_class(self) -> FgAbGroup | None:
        spec = self.coker_part.specialize()
        if spec is None:
            return None
        return FgAbGroup(self.kernel_rank, ()).direct_sum(spec)

    def symbol(self) -> str:
        iso = self.isomorphism_class()
        if iso is not None:
            return str(iso)
        free = FgAbGroup(self.kernel_rank, ())
        coker = self.coker_part.symbol()
        if self.kernel_rank == 0:
            return coker
        if coker == "0":
            return str(free)
        return f"{free} ⊕ {coker}"


def k1(g: Graph, coeff: CoeffGroup) -> KOneBar:
    """K1 with the given unit group as coefficients for the cokernel part.

    Reduced K1 is the same computation with the reduced unit group passed
    in (for a field with q elements, cyclic of order (q-1)/gcd(2,q-1)).
    The twisted cokernel and the kernel rank come from one transform-free
    elimination of the transfer matrix; the kernel basis needs an
    elimination tracking v, run only when ``kernel`` is read.
    """
    km = k_matrix(g)
    return KOneBar(coker_with_coefficients(km, coeff), km)


# ---------------------------------------------------------------------------
# graded K0
# ---------------------------------------------------------------------------


def phi(a: GradedElement) -> GradedElement:
    """The colimit shift map: v(i) goes to v(i+1) - v(i), extended linearly."""
    return a.shift(1).sub(a)


def psi_regular(g: Graph, vec, level: int = 0) -> GradedElement:
    return GradedElement.from_vertex_vector(g.regulars, tuple(vec), level=level)


@dataclass(frozen=True)
class VdbReport:
    """The four-term sequence K1 -> graded K0 -> graded K0 -> K0 -> 0.

    Two facts are verified: every kernel basis vector of the transfer matrix
    (the free part of K1) maps under psi to an element that phi sends to
    zero in graded K0, decided by exact graded equality; and forgetting
    levels is a well-defined map from graded K0 to K0, so that phi followed
    by it is zero.  On generators v(i) the composite is zero by definition;
    what needs checking is that each graded relation v(0) - sum r(e)(-1),
    over the edges e leaving a regular vertex v, forgets to a zero class of
    the K0 presentation.  For the j-th regular vertex the forgotten relation
    is minus column j of the transfer matrix, so the witness -e_j proves it
    zero once the K0 relations re-multiply it to that vector; a presentation
    where no witness holds gets the full class decision instead.  The rest
    is identification, not computation: ``ker_phi`` is the free group on
    that kernel basis and ``coker_phi`` is K0, read from the Smith diagonal
    that K1's twisted cokernel already holds, as the exactness of the
    sequence says they are, and
    ``lift_witnesses`` name the level-0 lift of each vertex generator.
    """

    k1: KOneBar
    k0: PresentedGroup
    ker_phi: FgAbGroup
    coker_phi: FgAbGroup
    lift_witnesses: tuple
    kernel_maps_into_ker_phi: bool
    phi_composes_to_zero: bool

    @property
    def consistent(self):
        return self.kernel_maps_into_ker_phi and self.phi_composes_to_zero


def vdb_sequence(g: Graph, coeff: CoeffGroup) -> VdbReport:
    """Assemble the unit-coefficient four-term sequence; verify its two maps."""
    km = k_matrix(g)
    kone = k1(g, coeff)
    kzero = k0(g)
    # kernel part of K1 embeds via psi; its image must die under phi
    into_ker = True
    for j in range(kone.kernel.cols):
        x = kone.kernel.column(j)
        if any(km @ x):
            raise AssertionError("kernel basis vector is not in the kernel of the transfer matrix")
        image = phi(psi_regular(g, x))
        if not graded_equal(g, image, GradedElement.zero()).is_equal:
            into_ker = False
    # forgetting levels respects every graded relation, one level down as in
    # the level form's rewriting step
    composes_zero = True
    # column j is relations @ e_j, so the witness -e_j holds for the j-th
    # regular vertex when it equals minus the forgotten relation
    columns = tuple(zip(*kzero.relations.data))
    position = {w: i for i, w in enumerate(g.vertices)}
    for j, v in enumerate(g.regulars):
        relation = GradedElement.of([(v, 0, 1)] + [(e.dst, -1, -1) for e in g.out_edges(v)])
        minus = [0] * len(position)
        for w, n in relation.forget_levels().items():
            minus[position[w]] = -n
        minus = tuple(minus)
        if j < len(columns) and minus == columns[j]:
            continue
        if not kzero.is_zero_class(tuple(-x for x in minus)):
            composes_zero = False
    witnesses = tuple((v, f"{v}(0)") for v in g.vertices)
    return VdbReport(
        k1=kone,
        k0=kzero,
        ker_phi=FgAbGroup(kone.kernel_rank, ()),
        coker_phi=FgAbGroup.cokernel_of(km.rows, invariant_factors(km)),
        lift_witnesses=witnesses,
        kernel_maps_into_ker_phi=into_ker,
        phi_composes_to_zero=composes_zero,
    )


# ---------------------------------------------------------------------------
# connecting map
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConnectingMap:
    """Index map from the kernel at the quotient to K0 of the ideal.

    ``kernel`` is a basis of the kernel of the quotient graph's transfer
    matrix.  ``x_block`` has one row per ideal vertex and one column per
    non-sink quotient vertex; applied to a kernel vector it lands in the
    ideal's K0 presentation.  ``map`` is the map on kernel-basis coordinates.
    """

    quo: Graph
    kernel: IntMatrix
    x_block: IntMatrix
    map: GroupMap


def connecting_delta(g: Graph, members, parts=None) -> ConnectingMap:
    """Connecting map of the ideal-quotient pair, checked well defined.

    The matrix block records edges from non-sink quotient vertices into the
    ideal; composing with a kernel basis of the quotient transfer matrix
    gives the map on the free kernel summand.  ``parts``, when given, is the
    pair of :class:`SubquotientK` for the ideal and the quotient that a
    six-term row has already built; their graphs, quotient kernel basis and
    ideal K0 are used instead of being computed again.
    """
    members = frozenset(members)
    if not (is_hereditary(g, members) and is_saturated(g, members)):
        raise ValueError("connecting map needs a hereditary saturated set")
    if parts is None:
        sub = restriction(g, members)
        quo = quotient(g, members)
        kb = kernel_basis(k_matrix(quo))
        codomain = k0(sub)
    else:
        ideal, rest = parts
        sub, quo = ideal.graph, rest.graph
        kb, codomain = rest.k1.kernel, ideal.k0
    # one row per ideal vertex, one column per quotient non-sink: edge counts
    x_block = (
        g.adjacency()
        .take_rows(g.index(v) for v in quo.regulars)
        .take_columns(g.index(w) for w in sub.vertices)
        .transpose()
    )
    domain = PresentedGroup(IntMatrix.zeros(kb.cols, 0))
    gmap = GroupMap(domain=domain, codomain=codomain, matrix=x_block @ kb, name="delta")
    return ConnectingMap(quo=quo, kernel=kb, x_block=x_block, map=gmap)


# ---------------------------------------------------------------------------
# six-term rows
# ---------------------------------------------------------------------------


class SubquotientK:
    """The subquotient graph of one pair inner <= outer, with its K-groups.

    Holds the graph, its transfer matrix, K0 and K1 with the given coefficients.
    """

    __slots__ = ("graph", "km", "k0", "k1")

    def __init__(self, graph: Graph, coeff: CoeffGroup):
        self.graph = graph
        self.km = k_matrix(graph)
        self.k0 = k0(graph)
        self.k1 = k1(graph, coeff)


class SubquotientStore:
    """Subquotients of one graph with one coefficient group, each built once.

    Keys are (inner, outer) pairs of frozensets; a filtered table keeps one
    store for all its entries and rows, a lone six-term row a store of its
    own.  The store also keeps, for as long as it lives, the row work that
    depends only on matrices and so repeats across the rows of a table: one
    record per distinct row skeleton, which rows with equal skeletons share,
    and the kernel coordinates of tau1 and tau2.  A skeleton is matrices
    only, so two stores with one coefficient group may share the records.
    """

    def __init__(self, g: Graph, coeff: CoeffGroup):
        self.graph = g
        self.coeff = coeff
        self._pairs = {}
        self._coordinates = {}
        self._skeletons = {}

    def get(self, inner: frozenset, outer: frozenset) -> SubquotientK:
        key = (inner, outer)
        pair = self._pairs.get(key)
        if pair is None:
            pair = SubquotientK(subquotient(self.graph, inner, outer), self.coeff)
            self._pairs[key] = pair
        return pair

    def _kernel_coordinates(self, basis: IntMatrix, vectors: IntMatrix) -> IntMatrix:
        key = (basis, vectors)
        coords = self._coordinates.get(key)
        if coords is None:
            coords = self._coordinates[key] = _kernel_coordinates(basis, vectors)
        return coords

    def _skeleton(self, maps: tuple[GroupMap, ...]) -> list:
        """The record of ``maps``: the first equal skeleton, its node verdicts
        and, once a table comparison asks for them, its signature classes
        (None until then)."""
        record = self._skeletons.get(maps)
        if record is None:
            record = self._skeletons[maps] = [maps, _skeleton_nodes(maps, self.coeff), None]
        return record


def _kernel_coordinates(target_basis: IntMatrix, vectors: IntMatrix) -> IntMatrix:
    """Coordinates of each vector column in a primitive kernel basis."""
    cols = []
    for j in range(vectors.cols):
        c = solve_lattice(target_basis, vectors.column(j))
        if c is None:
            raise AssertionError("kernel vector left the kernel under an induced map")
        cols.append(c)
    return IntMatrix.from_columns(cols, rows=target_basis.cols)


@dataclass(frozen=True)
class NodeReport:
    """Exactness at one interior node, one inclusion per Z-level field."""

    name: str
    z_image_in_kernel: bool
    z_kernel_in_image: bool
    coeff_exact: bool | None  # None at K0 nodes and for coefficients not finite cyclic

    @property
    def exact(self):
        coeff_ok = self.coeff_exact is None or self.coeff_exact
        return self.z_image_in_kernel and self.z_kernel_in_image and coeff_ok


def _skeleton_nodes(maps, coeff: CoeffGroup) -> tuple[NodeReport, ...]:
    """Verdicts at the four interior nodes of a row skeleton.

    The Z-level fields come from :func:`check_exact` on the five maps.  For
    finite cyclic coefficients Z/m, the two K1bar nodes are also decided on
    the twisted cokernels coker(K) ⊗ Z/m = coker([K | mI]) of the three K0
    presentations: exactness at the middle one under u12 and u23, and
    onto-ness of u23.
    """
    z_nodes = check_exact(maps)
    coeff2 = coeff3 = None
    if coeff.kind == "finite-cyclic":
        u12, u23 = maps[3], maps[4]
        c1, c2, c3 = (
            PresentedGroup(km.hstack(IntMatrix.identity(km.rows).scale(coeff.order)))
            for km in (u12.domain.relations, u12.codomain.relations, u23.codomain.relations)
        )
        trivial = PresentedGroup(IntMatrix.zeros(0, 0))
        middle_node, quotient_node = check_exact(
            (
                GroupMap(c1, c2, u12.matrix, name="u12"),
                GroupMap(c2, c3, u23.matrix, name="u23"),
                GroupMap(c3, trivial, IntMatrix.zeros(0, c3.generators)),
            )
        )
        coeff2 = middle_node.exact
        # the kernel of the zero map is all of c3: this inclusion is onto-ness
        coeff3 = quotient_node.kernel_in_image
    names = ("k1bar-middle", "k1bar-quotient", "k0-ideal", "k0-middle")
    return tuple(
        NodeReport(name, z.image_in_kernel, z.kernel_in_image, c)
        for name, z, c in zip(names, z_nodes, (coeff2, coeff3, None, None))
    )


@dataclass(frozen=True)
class SixTermRow:
    """One row of the filtered K-theory ladder for a nested ideal triple.

    Groups run K1bar(ideal part) -> K1bar(middle) -> K1bar(quotient part)
    -> K0(ideal part) -> K0(middle) -> K0(quotient part); the verdicts cover
    the four interior nodes.  ``maps`` is the Z-level skeleton of the row:
    tau1, tau2, delta, u12 and u23 between six groups, the free kernel parts
    in kernel-basis coordinates and then the K0 presentations ``k0s``.
    """

    triple: tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]
    graphs: tuple[Graph, Graph, Graph]
    k1bars: tuple[KOneBar, KOneBar, KOneBar]
    k0s: tuple[PresentedGroup, PresentedGroup, PresentedGroup]
    maps: tuple[GroupMap, ...]
    nodes: tuple[NodeReport, ...]

    @property
    def groups(self) -> tuple[PresentedGroup, ...]:
        """The six groups of the skeleton, in row order."""
        return (self.maps[0].domain,) + tuple(f.codomain for f in self.maps)

    @property
    def exact(self):
        return all(n.exact for n in self.nodes)


def six_term_row(
    g: Graph,
    inner,
    middle,
    outer,
    coeff: CoeffGroup,
    store: SubquotientStore | None = None,
) -> SixTermRow:
    """Build and verify the six-term row of a nested hereditary triple.

    A triple that is not nested, or a middle set that is not hereditary
    saturated, raises ValueError before any subquotient is built.

    Exactness at the four interior nodes is decided on the row skeleton by
    :func:`_skeleton_nodes`: at the Z level, and for finite cyclic
    coefficients also at the two K1bar nodes on the twisted cokernels.  The
    three subquotients and their K-groups come from ``store`` (a fresh one
    when None), which decides each distinct skeleton once.  Every row still
    checks the vertices and edges of the middle ideal's restriction and
    quotient against the store, and the two squares that make the induced
    maps well defined.  Inclusions and projections act by selecting and
    scattering rows and columns at the positions of the smaller graphs'
    vertices in the middle subquotient.
    """
    inner = frozenset(inner)
    middle_set = frozenset(middle)
    outer = frozenset(outer)
    if not inner <= middle_set or not middle_set <= outer:
        raise ValueError("ideal triple must be nested")
    if not (is_hereditary(g, middle_set) and is_saturated(g, middle_set)):
        names = ",".join(v for v in g.vertices if v in middle_set)
        raise ValueError(f"middle set {{{names}}} is not hereditary saturated")
    if store is None:
        store = SubquotientStore(g, coeff)
    elif store.graph != g or store.coeff != coeff:
        raise ValueError("subquotient store belongs to another graph or coefficient group")
    pair2 = store.get(inner, outer)
    g2 = pair2.graph
    # hereditary saturated in g, so hereditary saturated in g2
    hprime = frozenset(v for v in middle_set if v not in inner)
    pair1 = store.get(inner, middle_set)
    pair3 = store.get(middle_set, outer)
    g1, g3 = pair1.graph, pair3.graph
    # restriction(g2, hprime) and quotient(g2, hprime), without building them
    if (
        g1.vertices != tuple(v for v in g2.vertices if v in hprime)
        or g1.edges != tuple(e for e in g2.edges if e.src in hprime)
        or g3.vertices != tuple(v for v in g2.vertices if v not in hprime)
        or g3.edges != tuple(e for e in g2.edges if e.dst not in hprime)
    ):
        raise AssertionError("subquotient bookkeeping broke; identities violated")

    km1, km2, km3 = pair1.km, pair2.km, pair3.km
    k1bars = (pair1.k1, pair2.k1, pair3.k1)
    kb1, kb2, kb3 = (kb.kernel for kb in k1bars)
    delta = connecting_delta(g2, hprime, parts=(pair1, pair3)).map

    reg_pos = {v: i for i, v in enumerate(g2.regulars)}
    reg1 = [reg_pos[v] for v in g1.regulars]
    reg3 = [reg_pos[v] for v in g3.regulars]
    vert1 = [g2.index(v) for v in g1.vertices]
    vert3 = [g2.index(v) for v in g3.vertices]
    n2, r2 = len(g2.vertices), len(g2.regulars)

    # the squares that make every induced map well defined
    if km2.take_columns(reg1) != km1.scatter_rows(vert1, n2):
        raise AssertionError("ideal inclusion does not intertwine transfer matrices")
    if km2.take_rows(vert3) != km3.scatter_columns(reg3, r2):
        raise AssertionError("quotient projection does not intertwine transfer matrices")

    eye = IntMatrix.identity(n2)
    kernels = tuple(PresentedGroup(IntMatrix.zeros(kb.cols, 0)) for kb in (kb1, kb2, kb3))
    groups = kernels + (pair1.k0, pair2.k0, pair3.k0)
    matrices = (
        ("tau1", store._kernel_coordinates(kb2, kb1.scatter_rows(reg1, r2))),
        ("tau2", store._kernel_coordinates(kb3, kb2.take_rows(reg3))),
        ("delta", delta.matrix),
        ("u12", eye.take_columns(vert1)),
        ("u23", eye.take_rows(vert3)),
    )
    maps, nodes, _ = store._skeleton(
        tuple(
            GroupMap(groups[k], groups[k + 1], m, name=name)
            for k, (name, m) in enumerate(matrices)
        )
    )
    return SixTermRow(
        triple=(
            tuple(v for v in g.vertices if v in inner),
            tuple(v for v in g.vertices if v in middle_set),
            tuple(v for v in g.vertices if v in outer),
        ),
        graphs=(g1, g2, g3),
        k1bars=k1bars,
        k0s=(pair1.k0, pair2.k0, pair3.k0),
        maps=maps,
        nodes=nodes,
    )

"""K-theoretic invariants of a graph: K0, graded K0, unit-twisted K1.

Everything is presented through one integer matrix per graph, the transfer
matrix K with one row per vertex and one column per non-sink vertex.  K0 is
its cokernel on vertex generators, the kernel gives the free part of K1,
and coefficient groups of units twist the cokernel.  Connecting maps
between the invariants of an ideal, the whole graph and the quotient are
computed exactly and their six-term rows are verified, not assumed.

The subquotient of a pair I <= P of hereditary saturated sets is read off
the adjacency block of P minus I (the block-matrix reading of Restorff and
of Eilers-Restorff-Ruiz-Sorensen), so no graph is built for it.  Sets are
vertex masks here, as in :mod:`leavitt.lattice` (bit k: the k-th declared
vertex).  A :class:`SubquotientStore` keeps one :class:`SubquotientK`
record per distinct block and maps each difference mask to it.  The row of
a triple I <= J <= P is three pairs, J minus I, P minus I and P minus J,
and depends on the triple only through its positional shape: the block of
P minus I and the positions in it of J minus I.  Each pair record keeps,
once, the Smith coordinates of its K0 presentation on the invariant factors
other than 1 (``_SmithCoordinates``, with certified transforms), the free
group and left inverse of its kernel basis; the store keeps row shapes;
``_row_body`` cuts a new shape's skeleton of six groups and five maps from
the records of its three pairs, in those coordinates, and checks it.  The
coordinates are an isomorphism of each group under which the maps stay
well defined, so verdicts about images, kernels and cokernels do not
change.  Rows of many shapes share one skeleton in Smith coordinates, so a
store keeps one :class:`_Skeleton` record per distinct skeleton, keyed by
its maps in full.  A row is that record: a :class:`SixTermRow` is a triple
of vertex names over it, its verdicts, signature and element searches are
decided once per store on the record, and it prints the groups of the
three pair records that first gave it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import mul

from .graphs import (
    Graph,
    _require_hsat,
    _require_subset,
    is_hereditary,
    is_saturated,
    quotient,
    restriction,
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
    kernel_basis,
    map_invariants,
    snf,
    solve_lattice,
)
from .lattice import _mask, _vertices
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
    free part of K1.  Back-to-back calls on one graph (``k0`` and ``k1`` in
    ``vdb_sequence``) get one matrix object, built in one walk over the
    edge list; one entry keeps no more than the last graph alive.
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
    in the unit group ``coeff``; ``kernel`` is a basis of the free summand
    inside the non-sink coordinate space, and ``kernel_rank`` counts it.
    Each is computed when first read and kept, from the one Smith record of
    the transfer matrix (:func:`~leavitt.intlinalg.snf`): the cokernel and
    the rank from its diagonal, the basis from its kernel.  The record keeps
    what every run yields, so a caller that reads the kernel first, or the
    Smith coordinates of the same matrix before that, runs one elimination
    in all.  It is the one K1bar type: table entries and rows print it.
    """

    coeff: CoeffGroup
    _transfer: IntMatrix

    @cached_property
    def coker_part(self) -> CoeffCokernel:
        return coker_with_coefficients(self._transfer, self.coeff)

    @cached_property
    def kernel(self) -> IntMatrix:
        return kernel_basis(self._transfer)

    @cached_property
    def kernel_rank(self) -> int:
        return self._transfer.cols - snf(self._transfer).rank

    @cached_property
    def class_key(self) -> tuple:
        """Hashable class of the group: the kernel rank and the class key
        of the twisted cokernel."""
        return self.kernel_rank, self.coker_part.class_key()

    def isomorphism_class(self) -> FgAbGroup | None:
        return self._class

    @cached_property
    def _class(self) -> FgAbGroup | None:  # kept: ``symbol`` reads it too
        spec = self.coker_part.specialize()
        if spec is None:
            return None
        return FgAbGroup(self.kernel_rank, ()).direct_sum(spec)

    def symbol(self) -> str:
        """The group as text.  A transfer matrix has no more columns than
        rows, so a positive kernel rank leaves the cokernel a free part
        too, and then the twisted cokernel's symbol is never "0"."""
        iso = self.isomorphism_class()
        if iso is not None:
            return str(iso)
        coker = self.coker_part.symbol()
        if self.kernel_rank == 0:
            return coker
        return f"{FgAbGroup(self.kernel_rank, ())} ⊕ {coker}"


def k1(g: Graph, coeff: CoeffGroup) -> KOneBar:
    """K1 with the given unit group as coefficients for the cokernel part.

    Reduced K1 is the same computation with the reduced unit group passed
    in (for a field with q elements, cyclic of order (q-1)/gcd(2,q-1)).
    Nothing is eliminated until a part is read: the twisted cokernel and the
    kernel rank need the Smith diagonal of the transfer matrix, the kernel
    basis an elimination tracking v, whose diagonal then serves the rest.
    """
    return KOneBar(coeff, k_matrix(g))


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
    where no witness holds gets a lattice solve instead.  The rest
    is identification, not computation: ``ker_phi`` is the free group on
    that kernel basis and ``coker_phi`` is K0, read from the Smith diagonal
    of the one elimination that gave that basis, as the exactness of the
    sequence says they are, and ``lift_witnesses`` name the level-0 lift of
    each vertex generator.
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
        if solve_lattice(kzero.relations, tuple(-x for x in minus)) is None:
            composes_zero = False
    witnesses = tuple((v, f"{v}(0)") for v in g.vertices)
    return VdbReport(
        k1=kone,
        k0=kzero,
        ker_phi=FgAbGroup(kone.kernel_rank, ()),
        coker_phi=kzero.invariants(),
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


def connecting_delta(g: Graph, members) -> ConnectingMap:
    """Connecting map of the ideal-quotient pair, checked well defined.

    The matrix block records edges from non-sink quotient vertices into the
    ideal; composing with a kernel basis of the quotient transfer matrix
    gives the map on the free kernel summand.  ``members`` must be
    hereditary saturated, which is checked.
    """
    members = frozenset(members)
    if not (is_hereditary(g, members) and is_saturated(g, members)):
        raise ValueError("connecting map needs a hereditary saturated set")
    sub = restriction(g, members)
    quo = quotient(g, members)
    kb = kernel_basis(k_matrix(quo))
    codomain = k0(sub)
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
# Smith coordinates
# ---------------------------------------------------------------------------


class _SmithCoordinates:
    """A presented group rewritten on its invariant factors.

    With u @ relations @ v = d in Smith form, x -> u @ x is an isomorphism
    onto Z^n modulo the diagonal d, whose coordinates with d_i = 1 vanish.
    ``project`` is the rows of u at the other coordinates and ``lift`` the
    matching columns of u^-1, which the elimination of u tracks, so
    project @ lift = I and lift @ project is the identity modulo the
    relations.  ``group`` is the ``_smith_group`` of the kept coordinates'
    ``moduli``, the factors d_i > 1 and then a 0 per missing pivot.  Both
    transforms are certified once, by two products: u @ u^-1 = I, so u is
    unimodular with that inverse, and relations @ v = u^-1 d, the columns
    of u^-1 scaled by the diagonal, which then says u @ relations @ v = d.
    Relations that are all zero leave every modulus 0, and ``project`` and
    ``lift`` None, each standing for an identity.
    """

    __slots__ = ("group", "project", "lift", "moduli")

    def __init__(self, pres: PresentedGroup):
        rel = pres.relations
        n = rel.rows
        self.project = self.lift = None
        self.moduli = (0,) * n
        if any(map(any, rel.data)):
            sd = snf(rel)
            # u^-1 first: its run tracks u and v too and gives the diagonal
            u_inv = sd.u_inverse
            diag = sd.diagonal
            pad = (0,) * (rel.cols - len(diag))
            scaled = tuple(tuple(map(mul, r, diag)) + pad for r in u_inv.data)
            if sd.u @ u_inv != IntMatrix.identity(n) or (rel @ sd.v).data != scaled:
                raise AssertionError("Smith transforms of a K0 presentation do not re-multiply")
            keep = [i for i in range(n) if i >= len(diag) or diag[i] != 1]
            self.project = sd.u.take_rows(keep)
            self.lift = u_inv.take_columns(keep)
            self.moduli = tuple(diag[i] if i < len(diag) else 0 for i in keep)
        self.group = _smith_group(self.moduli)

    def reduce(self, m: IntMatrix) -> IntMatrix:
        """``m``, a matrix into these coordinates, with each row reduced
        modulo its modulus."""
        if self.project is None:  # every modulus is 0
            return m
        return IntMatrix._trusted(_residues(m, self.moduli), m.cols)


def _times(a: IntMatrix | None, b: IntMatrix | None) -> IntMatrix | None:
    """a @ b, None standing for an identity."""
    return b if a is None else a if b is None else a @ b


def _smith_group(moduli) -> PresentedGroup:
    """The one form of a group in Smith coordinates: a relation q e_i per modulus q != 0."""
    cols = [i for i, q in enumerate(moduli) if q]
    rows = tuple(tuple(q if i == j else 0 for j in cols) for i, q in enumerate(moduli))
    return PresentedGroup(IntMatrix._trusted(rows, len(cols)))


def _moduli(group: PresentedGroup) -> tuple:
    """Per generator of a ``_smith_group``, its modulus (0: free)."""
    return tuple(max(r, default=0) for r in group.relations.data)


def _residues(m: IntMatrix, moduli) -> tuple:
    """The rows of ``m``, each reduced modulo its modulus (zero: left as is)."""
    return tuple(tuple(x % q for x in r) if q else r for r, q in zip(m.data, moduli))


# ---------------------------------------------------------------------------
# six-term rows
# ---------------------------------------------------------------------------


class SubquotientK:
    """The K-groups of one adjacency block: the record of every pair inner
    <= outer of hereditary saturated sets whose difference has that block.

    ``block`` is a graph's adjacency block at the vertices of outer minus
    inner, in declaration order.  ``regs`` are the positions of its regular
    vertices, its nonzero rows, and ``km`` its transfer matrix, block[w][v]
    minus one when v = w at (v, w) for w in ``regs``.  That is the block of
    the graph's :func:`k_matrix`, and the transfer matrix of
    ``subquotient(g, inner, outer)``: outer is hereditary, so every edge
    leaving a vertex of the pair stays in outer; inner is saturated, so a
    regular vertex outside it keeps an edge that leaves it, and a sink
    stays a sink.  ``k0`` and ``k1`` present K0, and K1 with coefficients
    ``coeff``, on ``km``.  A record refers to no row: the store maps a
    record and the positions of J minus I in its block to the row's
    :class:`_Skeleton` (see :func:`_row_body`), whose ``pairs`` refer to
    records, so no reference cycle keeps a store's records alive.

    Computed when first read and kept: ``k0_group``, the class of K0; and
    for rows ``coords``, the certified Smith coordinates of K0, ``free``,
    the free group on the kernel basis ``k1.kernel``, and
    ``kernel_inverse``, that basis's left inverse: the basis is the columns
    of v past the rank in the Smith record of ``km``, so the rows of v^-1
    past the rank, from the run that gives ``coords``, invert it; a zero
    ``km``, which ``coords`` does not eliminate, has identities for both.
    """

    def __init__(self, block: IntMatrix, coeff: CoeffGroup):
        data = block.data
        self.regs = tuple(k for k, r in enumerate(data) if any(r))
        rows = tuple(tuple(data[w][v] - (v == w) for w in self.regs) for v in range(block.rows))
        self.km = IntMatrix._trusted(rows, len(self.regs))
        self.k0 = PresentedGroup(self.km)
        self.k1 = KOneBar(coeff, self.km)

    @cached_property
    def k0_group(self) -> FgAbGroup:
        return self.k0.invariants()

    @cached_property
    def coords(self) -> _SmithCoordinates:
        return _SmithCoordinates(self.k0)

    @cached_property
    def free(self) -> PresentedGroup:
        return _smith_group((0,) * self.k1.kernel.cols)

    @cached_property
    def kernel_inverse(self) -> IntMatrix:
        km = self.km
        if not any(map(any, km.data)):  # no pivot: v and v^-1 are identities
            return IntMatrix.identity(km.cols)
        sd = snf(km)
        return sd.v_inverse.take_rows(range(sd.rank, km.cols))

    def in_kernel(self, vectors: IntMatrix) -> IntMatrix:
        """Coordinates of vector columns in the kernel basis, re-multiplied
        to them as a guard; with no vector, ``km`` is not eliminated.  A
        basis of another length than the inverse's fails the guard too."""
        kernel = self.k1.kernel
        if not vectors.cols:
            return IntMatrix.zeros(kernel.cols, 0)
        coordinates = self.kernel_inverse @ vectors
        if kernel.cols != coordinates.rows or kernel @ coordinates != vectors:
            raise AssertionError("kernel vector left the kernel under an induced map")
        return coordinates


class SubquotientStore:
    """The pairs of one graph with one coefficient group.

    A pair inner <= outer depends only on the adjacency block of its
    difference, so the store keeps one :class:`SubquotientK` per distinct
    block (``_records``) and maps each difference mask to the indices of
    its vertices and that record (``get``).  It maps each record to the
    row shapes cut from its block, tuples of positions, and each shape to
    the row's :class:`_Skeleton` (``_shapes``), so a row is looked up by an
    int, a record and a small tuple, hashing no matrix (see
    :func:`_row_body`).  It keeps one skeleton record per distinct skeleton
    in Smith coordinates (``_skeletons``, keyed by its maps, whose groups
    have the one form of ``_smith_group``) and, once a comparison searches
    them, the element search outcome of each pair of skeleton records
    (``_searches``) and the candidate isomorphisms of each moduli tuple
    the searches met (``_candidates``).  A filtered table keeps one store
    for all its entries and rows, a lone six-term row a store of its own.

    Exactness, kernels, images and cokernels are statements about
    subgroups, so an isomorphism of each group carries them over; the
    verdicts and classes decided in Smith coordinates are those of the
    skeleton itself, whose maps are well defined (the squares each shape
    checks, and free domains).  Records are matrices only, so two stores
    with one coefficient group may share them (``_share``).
    """

    def __init__(self, g: Graph, coeff: CoeffGroup):
        self.graph = g
        self.coeff = coeff
        self._order = range(g.num_vertices)
        self._pairs = {}
        self._records = {}
        self._shapes = {}
        self._skeletons = {}
        self._searches = {}
        self._candidates = {}

    def _share(self, other: SubquotientStore) -> None:
        """Use the records of ``other``, a store with the same coefficient
        group, before building any: each block then has one record, each
        row shape one skeleton record, each moduli tuple one candidate list.

        When ``Graph._alignment`` finds an isomorphism from this store's
        graph onto the other's, ``_order`` lists the vertices in the order
        of their images.  Then the block of every mask, read in that order,
        is the other graph's block of the image mask, so a copy of the
        other graph declared in another order reaches the other store's
        pair records, shapes and skeleton records and builds none of its
        own.  Otherwise the order stays the declaration order.  Any order
        is sound: a record depends on its block's value alone.
        """
        self._records = other._records
        self._shapes = other._shapes
        self._skeletons = other._skeletons
        self._searches = other._searches
        self._candidates = other._candidates
        order = self.graph._alignment(other.graph)
        if order is not None:
            self._order = order

    def get(self, bits: int) -> tuple[tuple[int, ...], SubquotientK]:
        """The indices of the vertices of the mask ``bits``, the difference
        of a pair, in the store's order (``_order``: declaration order,
        unless the store shares an aligned store's records), and the record
        of their block in that order.  The order of every mask is the
        restriction of one order of the graph, so a pair's sub-pairs list
        their vertices as the pair does."""
        pair = self._pairs.get(bits)
        if pair is None:
            rows = tuple(i for i in self._order if bits >> i & 1)
            block = self.graph.adjacency().take_rows(rows).take_columns(rows)
            record = self._records.get(block)
            if record is None:
                record = self._records[block] = SubquotientK(block, self.coeff)
                self._shapes[record] = {}
            pair = self._pairs[bits] = rows, record
        return pair


class _Skeleton:
    """A row skeleton in Smith coordinates, ``maps``: tau1 and tau2
    between the free kernel parts of the three K1bar groups, delta into K0
    of the ideal part, and u12 and u23 between the K0 groups.  Every row of
    a store with these maps is this record, whatever its shape, and prints
    the ``k0`` and ``k1`` of ``pairs``, the records of J minus I, P minus I
    and P minus J that first gave them: equal maps have groups of equal
    moduli and free ranks.  What is decided on it is kept when first read:
    the verdicts at the four interior nodes (``nodes``), ``exact`` and the
    ``signature`` that a comparison matches.  Records compare by identity,
    and refer to no other skeleton record: a comparison keeps its element
    searches in the store (``_searches``).
    """

    def __init__(self, maps, pairs: tuple[SubquotientK, SubquotientK, SubquotientK]):
        self.maps, self.pairs = maps, pairs

    @cached_property
    def nodes(self) -> tuple[NodeReport, ...]:
        return _skeleton_nodes(self.maps, self.pairs[0].k1.coeff)

    @cached_property
    def exact(self) -> bool:
        return all(n.exact for n in self.nodes)

    @cached_property
    def signature(self) -> tuple:
        """The six group classes and the kernel/image/cokernel classes of
        the five maps (:func:`~leavitt.intlinalg.map_invariants`).  Equal
        signatures mean no Z-level rank or invariant factor tells two rows
        apart.  With one coefficient group the K1bar classes add nothing:
        a kernel rank is the rank of a free node, and a twisted cokernel
        is read off the K0 class of the same block."""
        maps = self.maps
        groups = (maps[0].domain,) + tuple(f.codomain for f in maps)
        classes = tuple(
            map_invariants(f.matrix, f.domain.relations, f.codomain.relations) for f in maps
        )
        return tuple(FgAbGroup.from_parts(0, _moduli(n)) for n in groups), classes


@dataclass(frozen=True, slots=True)
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
    the twisted groups coker(K) ⊗ Z/m, in Smith coordinates the
    ``_smith_group`` of moduli gcd(q, m): exactness at the middle one under
    u12 and u23, and onto-ness of u23.  A store passes Smith coordinates.
    """
    z_nodes = check_exact(maps)
    coeff2 = coeff3 = None
    if coeff.kind == "finite-cyclic":
        u12, u23 = maps[3], maps[4]
        c1, c2, c3 = (
            _smith_group(tuple(math.gcd(q, coeff.order) for q in _moduli(grp)))
            for grp in (u12.domain, u12.codomain, u23.codomain)
        )
        middle_node, quotient_node = check_exact(
            (
                GroupMap(c1, c2, u12.matrix, name="u12"),
                GroupMap(c2, c3, u23.matrix, name="u23"),
                GroupMap(c3, _smith_group(()), IntMatrix.zeros(0, c3.generators)),
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


@dataclass(frozen=True, slots=True)
class SixTermRow:
    """One row of the filtered K-theory ladder for a nested ideal triple:
    the triple's vertex names over ``body``, the store's :class:`_Skeleton`
    record of the row, which holds the maps in Smith coordinates, the pair
    records whose groups the row prints and the verdicts at the four
    interior nodes, and which every row with that skeleton shares."""

    triple: tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]
    body: _Skeleton


def six_term_row(g: Graph, inner, middle, outer, coeff: CoeffGroup) -> SixTermRow:
    """Build and verify the six-term row of a nested hereditary triple.

    A set that names a vertex the graph does not have, a triple that is
    not nested, or a middle, inner or outer set that is not hereditary
    saturated, raises ValueError before any pair is built, in that order.
    The sets then become vertex masks, and the skeleton record comes from
    ``_row_body`` on a store of its own; a filtered table calls that
    directly, on its own store, for the triples of its lattice.
    """
    sets = ((inner, "inner"), (middle, "middle"), (outer, "outer"))
    inner, middle, outer = (_require_subset(g, s, f"{name} set") for s, name in sets)
    if not inner <= middle or not middle <= outer:
        raise ValueError("ideal triple must be nested")
    if not (is_hereditary(g, middle) and is_saturated(g, middle)):
        names = ",".join(v for v in g.vertices if v in middle)
        raise ValueError(f"middle set {{{names}}} is not hereditary saturated")
    _require_hsat(g, inner, "inner set")
    _require_hsat(g, outer, "outer set")
    masks = [_mask(g, members) for members in (inner, middle, outer)]
    body = _row_body(SubquotientStore(g, coeff), *masks)
    return SixTermRow(tuple(_vertices(g, m) for m in masks), body)


def _row_body(store: SubquotientStore, inner: int, middle: int, outer: int) -> _Skeleton:
    """The skeleton record of the row of a nested triple I <= J <= P of
    hereditary saturated sets of the store's graph, given as vertex masks,
    which the caller vouches for.

    The skeleton depends only on the row's positional shape: the adjacency
    block of P minus I and the positions ``hprime`` in it of H' = J minus
    I, so the row is ``_shapes[pair][hprime]`` in the store.  The
    first row of a shape cuts the five maps in Smith coordinates from the
    records of J minus I, P minus I and P minus J, whose transfer matrices
    are the blocks of the middle one at H' and at the rest (``vert3``):
    u12 = project2[:, hprime] @ lift1, u23 = project3 @ lift2[vert3, :]
    (None an identity), delta = project1 @ the block at H' and the
    quotient's regular columns @ the quotient's kernel basis, tau1 and tau2
    through :meth:`SubquotientK.in_kernel`; a new skeleton record keeps the
    three pair records.  Later rows of the shape get the same record.  Both
    intertwining squares say one thing, checked as a bug guard: ``km`` is
    zero at the quotient's rows and the regular columns of H', so no edge
    leaves H' from one of its regular vertices.
    """
    rows, pair = store.get(outer & ~inner)
    hprime = tuple(k for k, i in enumerate(rows) if middle >> i & 1)
    shapes = store._shapes[pair]
    skeleton = shapes.get(hprime)
    if skeleton is None:
        ideal, quo = store.get(middle & ~inner)[1], store.get(outer & ~middle)[1]
        vert3 = [k for k in range(len(rows)) if k not in hprime]
        reg1 = [c for c, k in enumerate(pair.regs) if k in hprime]
        reg3 = [c for c, k in enumerate(pair.regs) if k not in hprime]
        if any(map(any, pair.km.take_rows(vert3).take_columns(reg1).data)):
            raise AssertionError("an edge leaves the middle ideal; the squares do not commute")
        # Smith coordinates before kernels: the two-sided run of each K0
        # presentation then serves the kernel of the same matrix
        c1, c2, c3 = ideal.coords, pair.coords, quo.coords
        kb1, kb2, kb3 = ideal.k1.kernel, pair.k1.kernel, quo.k1.kernel
        n = len(rows)
        project2, lift2 = c2.project or IntMatrix.identity(n), c2.lift or IntMatrix.identity(n)
        top = pair.km.take_rows(hprime).take_columns(reg3)
        maps = (
            GroupMap(ideal.free, pair.free, pair.in_kernel(kb1.scatter_rows(reg1, len(pair.regs)))),
            GroupMap(pair.free, quo.free, quo.in_kernel(kb2.take_rows(reg3))),
            GroupMap(quo.free, c1.group, c1.reduce(_times(c1.project, top @ kb3))),
            GroupMap(c1.group, c2.group, c2.reduce(_times(project2.take_columns(hprime), c1.lift))),
            GroupMap(c2.group, c3.group, c3.reduce(_times(c3.project, lift2.take_rows(vert3)))),
        )
        skeleton = store._skeletons.get(maps)
        if skeleton is None:
            skeleton = store._skeletons[maps] = _Skeleton(maps, (ideal, pair, quo))
        shapes[hprime] = skeleton
    return skeleton

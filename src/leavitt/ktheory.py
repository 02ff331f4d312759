"""K-theoretic invariants of a graph: K0, graded K0, unit-twisted K1.

Everything is presented through one integer matrix per graph, the transfer
matrix K with one row per vertex and one column per non-sink vertex.  K0 is
its cokernel on vertex generators, the kernel gives the free part of K1,
and coefficient groups of units twist the cokernel.  Connecting maps
between the invariants of an ideal, the whole graph and the quotient are
computed exactly and their six-term rows are verified, not assumed.
"""

from __future__ import annotations

import itertools
import math
import random as _random
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
    cokernel,
    inverse_unimodular,
    kernel_basis,
    snf,
    solve_lattice,
)
from .monoid import GradedElement, _LevelForm, graded_equal

__all__ = [
    "k_matrix",
    "KZero",
    "k0",
    "KOneBar",
    "k1",
    "phi",
    "psi",
    "psi_diagram_check",
    "DiagramReport",
    "VdbReport",
    "vdb_sequence",
    "ConnectingMap",
    "connecting_delta",
    "snake_rho",
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
    object, so the Smith caches keyed on it hold one key, not two equal
    ones; one entry keeps no more than the last graph alive.
    """
    a = g.adjacency()
    reg = [g.index(w) for w in g.regulars]
    rows = []
    for i, _ in enumerate(g.vertices):
        rows.append(tuple(a[j, i] - (1 if j == i else 0) for j in reg))
    return IntMatrix(rows, cols=len(reg))


@dataclass(frozen=True)
class KZero:
    """K0 presented on vertex generators."""

    group: PresentedGroup

    def invariants(self) -> FgAbGroup:
        return self.group.invariants()

    def class_of(self, vec):
        return self.group.canon(vec)


def k0(g: Graph) -> KZero:
    return KZero(group=cokernel(k_matrix(g), labels=g.vertices))


@dataclass(frozen=True)
class KOneBar:
    """K1 (or its reduced variant) split as twisted cokernel plus free kernel.

    ``coker_part`` is the cokernel of the transfer matrix with coefficients
    in the unit group; ``kernel`` is a basis of the free summand inside the
    non-sink coordinate space, and ``kernel_rank`` counts it.
    """

    coeff: CoeffGroup
    coker_part: CoeffCokernel
    kernel: IntMatrix

    @property
    def kernel_rank(self) -> int:
        return self.kernel.cols

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
    The kernel and the twisted cokernel share one Smith form of the
    transfer matrix.
    """
    km = k_matrix(g)
    kernel = kernel_basis(km)
    return KOneBar(coeff=coeff, coker_part=coker_with_coefficients(km, coeff), kernel=kernel)


# ---------------------------------------------------------------------------
# graded K0
# ---------------------------------------------------------------------------


def phi(a: GradedElement) -> GradedElement:
    """The colimit shift map: v(i) goes to v(i+1) - v(i), extended linearly."""
    return a.shift(1).sub(a)


def psi(g: Graph, vec, level: int = 0) -> GradedElement:
    """Stage embedding: a vertex vector becomes generators at one level."""
    return GradedElement.from_vertex_vector(g.vertices, tuple(vec), level=level)


def psi_regular(g: Graph, vec, level: int = 0) -> GradedElement:
    return GradedElement.from_vertex_vector(g.regulars, tuple(vec), level=level)


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
    rng = rng or _random.Random(0)
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


@dataclass(frozen=True)
class VdbReport:
    """The four-term sequence K1 -> graded K0 -> graded K0 -> K0 -> 0.

    Two facts are verified: every kernel basis vector of the transfer matrix
    (the free part of K1) maps under psi to an element that phi sends to
    zero in graded K0, decided by exact graded equality; and phi followed by
    forgetting levels is zero on every vertex generator.  The rest is
    identification, not computation: ``ker_phi`` is the free group on that
    kernel basis and ``coker_phi`` is K0, as the exactness of the sequence
    says they are, and ``lift_witnesses`` name the level-0 lift of each
    vertex generator.
    """

    k1: KOneBar
    k0: KZero
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
    # forgetting levels kills phi: check on every generator
    composes_zero = True
    for v in g.vertices:
        image = phi(GradedElement.of([(v, 0, 1)]))
        forgotten = image.forget_levels()
        vec = tuple(forgotten.get(w, 0) for w in g.vertices)
        if not kzero.group.is_zero_class(vec):
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

    ``x_block`` has one row per ideal vertex and one column per non-sink
    quotient vertex; applied to a kernel vector it lands in the ideal's K0
    presentation.
    """

    graph: Graph
    members: tuple[str, ...]
    sub: Graph
    quo: Graph
    kernel: IntMatrix
    x_block: IntMatrix
    map: GroupMap

    def apply(self, x):
        """Value on a kernel vector of the quotient transfer matrix."""
        x = tuple(x)
        if len(x) != len(self.quo.regulars):
            raise ValueError("vector length must match quotient non-sinks")
        if any(v != 0 for v in k_matrix(self.quo) @ x):
            raise ValueError("vector is not in the kernel of the quotient transfer matrix")
        return self.x_block @ x


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
        codomain = cokernel(k_matrix(sub), labels=sub.vertices)
    else:
        ideal, rest = parts
        sub, quo = ideal.graph, rest.graph
        kb, codomain = rest.k1.kernel, ideal.k0.group
    a = g.adjacency()
    # one row per ideal vertex, one column per quotient non-sink: edge counts
    x_block = IntMatrix(
        tuple(
            tuple(a[g.index(v), g.index(w)] for v in quo.regulars)
            for w in sub.vertices
        ),
        cols=len(quo.regulars),
    )
    domain = PresentedGroup(
        generators=kb.cols,
        relations=IntMatrix.zeros(kb.cols, 0),
        labels=tuple(f"ker{i}" for i in range(kb.cols)),
    )
    gmap = GroupMap(domain=domain, codomain=codomain, matrix=x_block @ kb, name="delta")
    return ConnectingMap(
        graph=g,
        members=tuple(v for v in g.vertices if v in members),
        sub=sub,
        quo=quo,
        kernel=kb,
        x_block=x_block,
        map=gmap,
    )


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


# ---------------------------------------------------------------------------
# six-term rows
# ---------------------------------------------------------------------------


def _inclusion_matrix(sub_items, all_items) -> IntMatrix:
    pos = {v: i for i, v in enumerate(all_items)}
    rows = [[0] * len(sub_items) for _ in all_items]
    for j, v in enumerate(sub_items):
        rows[pos[v]][j] = 1
    return IntMatrix(rows, cols=len(sub_items))


class _FiniteCoker:
    """Element enumeration for the cokernel of [K | m*I]; always finite."""

    def __init__(self, km: IntMatrix, order: int):
        n = km.rows
        stacked = km.hstack(IntMatrix.identity(n).scale(order))
        sd = snf(stacked)
        self.n = n
        self.diag = [sd.d[i, i] for i in range(n)]
        if any(d == 0 for d in self.diag):
            raise AssertionError("cokernel with finite coefficients must be finite")
        self.u = sd.u
        self.order = math.prod(self.diag)

    def canon(self, vec):
        y = self.u @ tuple(vec)
        return tuple(yi % d for yi, d in zip(y, self.diag))

    def representatives(self):
        uinv = inverse_unimodular(self.u)
        for combo in itertools.product(*(range(d) for d in self.diag)):
            yield uinv @ combo


class SubquotientK:
    """The subquotient graph of one pair inner <= outer, with its K-groups.

    Holds the graph, its transfer matrix, K0 and K1 with the given
    coefficients; for finite cyclic coefficients the element enumeration of
    the twisted cokernel is built on first use.
    """

    __slots__ = ("graph", "km", "k0", "k1", "_coeff", "_finite")

    def __init__(self, graph: Graph, coeff: CoeffGroup):
        self.graph = graph
        self.km = k_matrix(graph)
        self.k0 = k0(graph)
        self.k1 = k1(graph, coeff)
        self._coeff = coeff
        self._finite = None

    def finite_coker(self) -> _FiniteCoker:
        if self._finite is None:
            self._finite = _FiniteCoker(self.km, self._coeff.order)
        return self._finite


class SubquotientStore:
    """Subquotients of one graph with one coefficient group, each built once.

    Keys are (inner, outer) pairs of frozensets; a filtered table keeps one
    store for all its entries and rows, a lone six-term row a store of its
    own.
    """

    def __init__(self, g: Graph, coeff: CoeffGroup):
        self.graph = g
        self.coeff = coeff
        self._pairs = {}

    def get(self, inner: frozenset, outer: frozenset) -> SubquotientK:
        key = (inner, outer)
        pair = self._pairs.get(key)
        if pair is None:
            pair = SubquotientK(subquotient(self.graph, inner, outer), self.coeff)
            self._pairs[key] = pair
        return pair


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
    coeff_exact: bool | None  # None when not checked at element level

    @property
    def exact(self):
        coeff_ok = self.coeff_exact is None or self.coeff_exact
        return self.z_image_in_kernel and self.z_kernel_in_image and coeff_ok


@dataclass(frozen=True)
class SixTermRow:
    """One row of the filtered K-theory ladder for a nested ideal triple.

    Groups run K1bar(ideal part) -> K1bar(middle) -> K1bar(quotient part)
    -> K0(ideal part) -> K0(middle) -> K0(quotient part); the verdicts cover
    the four interior nodes.  ``maps`` is the Z-level skeleton of the row:
    tau1, tau2, delta, u12 and u23 between six label-less groups, the free
    kernel parts in kernel-basis coordinates and then the K0 presentations.
    """

    triple: tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]
    graphs: tuple[Graph, Graph, Graph]
    k1bars: tuple[KOneBar, KOneBar, KOneBar]
    k0s: tuple[KZero, KZero, KZero]
    delta: ConnectingMap
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
    order_cap: int = 10_000,
    store: SubquotientStore | None = None,
) -> SixTermRow:
    """Build and verify the six-term row of a nested hereditary triple.

    Z-level exactness at the four interior nodes is decided by
    :func:`check_exact` on the row skeleton; when the coefficient group is
    finite cyclic and all three twisted cokernels have at most ``order_cap``
    elements, the two K1bar nodes are additionally checked element by
    element.  The three subquotients and their K-groups come from ``store``
    (a fresh one when None); the middle ideal's restriction and quotient are
    computed here for every row and checked against them.
    """
    inner = frozenset(inner)
    middle_set = frozenset(middle)
    outer = frozenset(outer)
    if not inner <= middle_set or not middle_set <= outer:
        raise ValueError("ideal triple must be nested")
    if store is None:
        store = SubquotientStore(g, coeff)
    elif store.graph != g or store.coeff != coeff:
        raise ValueError("subquotient store belongs to another graph or coefficient group")
    pair2 = store.get(inner, outer)
    g2 = pair2.graph
    hprime = frozenset(v for v in middle_set if v not in inner)
    if not (is_hereditary(g2, hprime) and is_saturated(g2, hprime)):
        raise AssertionError("middle ideal does not stay hereditary saturated in the subquotient")
    pair1 = store.get(inner, middle_set)
    pair3 = store.get(middle_set, outer)
    if restriction(g2, hprime) != pair1.graph or quotient(g2, hprime) != pair3.graph:
        raise AssertionError("subquotient bookkeeping broke; identities violated")
    g1, g3 = pair1.graph, pair3.graph

    km1, km2, km3 = pair1.km, pair2.km, pair3.km
    k1bars = (pair1.k1, pair2.k1, pair3.k1)
    kb1, kb2, kb3 = (kb.kernel for kb in k1bars)
    delta = connecting_delta(g2, hprime, parts=(pair1, pair3))

    ext_reg = _inclusion_matrix(g1.regulars, g2.regulars)
    proj_reg = _inclusion_matrix(g3.regulars, g2.regulars).transpose()
    ext_vert = _inclusion_matrix(g1.vertices, g2.vertices)
    proj_vert = _inclusion_matrix(g3.vertices, g2.vertices).transpose()

    # the squares that make every induced map well defined
    if km2 @ ext_reg != ext_vert @ km1:
        raise AssertionError("ideal inclusion does not intertwine transfer matrices")
    if proj_vert @ km2 != km3 @ proj_reg:
        raise AssertionError("quotient projection does not intertwine transfer matrices")

    # label-less groups, so equal presentations hash alike across rows
    groups = tuple(
        PresentedGroup(kb.cols, IntMatrix.zeros(kb.cols, 0)) for kb in (kb1, kb2, kb3)
    ) + tuple(PresentedGroup(km.rows, km) for km in (km1, km2, km3))
    matrices = (
        ("tau1", _kernel_coordinates(kb2, ext_reg @ kb1)),
        ("tau2", _kernel_coordinates(kb3, proj_reg @ kb2)),
        ("delta", delta.map.matrix),
        ("u12", ext_vert),
        ("u23", proj_vert),
    )
    maps = tuple(
        GroupMap(groups[k], groups[k + 1], m, name=name)
        for k, (name, m) in enumerate(matrices)
    )
    z_nodes = check_exact(maps).nodes

    coeff2 = coeff3 = None
    if coeff.kind == "finite-cyclic":
        c1, c2, c3 = (pair.finite_coker() for pair in (pair1, pair2, pair3))
        if max(c1.order, c2.order, c3.order) <= order_cap:
            image = {
                c2.canon(ext_vert @ rep) for rep in c1.representatives()
            }
            kernel = {
                c2.canon(rep)
                for rep in c2.representatives()
                if all(x == 0 for x in c3.canon(proj_vert @ rep))
            }
            coeff2 = image == kernel
            onto = {c3.canon(proj_vert @ rep) for rep in c2.representatives()}
            coeff3 = len(onto) == c3.order

    names = ("k1bar-middle", "k1bar-quotient", "k0-ideal", "k0-middle")
    coeff_verdicts = (coeff2, coeff3, None, None)
    return SixTermRow(
        triple=(
            tuple(v for v in g.vertices if v in inner),
            tuple(v for v in g.vertices if v in middle_set),
            tuple(v for v in g.vertices if v in outer),
        ),
        graphs=(g1, g2, g3),
        k1bars=k1bars,
        k0s=(pair1.k0, pair2.k0, pair3.k0),
        delta=delta,
        maps=maps,
        nodes=tuple(
            NodeReport(name, z.image_in_kernel, z.kernel_in_image, c)
            for name, z, c in zip(names, z_nodes, coeff_verdicts)
        ),
    )

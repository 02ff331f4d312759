"""Hereditary saturated vertex sets: the ideal lattice and its spectrum.

A vertex set is hereditary when edges never leave it and saturated when a
regular vertex whose targets all lie inside must itself lie inside.  These
sets, ordered by inclusion, form a lattice; its "primes" carry a topology
whose locally closed pieces index the filtered K-theory table.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from .graphs import Graph, is_downward_directed

__all__ = [
    "IdealLattice",
    "SpectrumTopology",
    "LocallyClosed",
    "LatticeCapError",
    "hsat_closure",
    "enumerate_hsat",
    "graded_primes",
    "spectrum",
    "kernel_of",
    "locally_closed_all",
    "lattice_isomorphisms",
]


class LatticeCapError(RuntimeError):
    """Raised when lattice enumeration exceeds the configured cap."""


# A vertex set is stored here as an int mask over declaration order: bit k
# is set when the k-th declared vertex belongs to it.  Other modules see
# vertex tuples in declaration order only.


def _mask(g: Graph, vertices) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << g.index(v)
    return mask


def _vertices(g: Graph, mask: int) -> tuple:
    return tuple(v for k, v in enumerate(g.vertices) if mask >> k & 1)


def _mask_closure(g: Graph):
    """The closure of ``g`` on masks: seed mask to hereditary saturated mask.

    Hereditary closure ORs the reach masks of the seed's vertices.  Then
    saturation adds every regular vertex whose target mask lies inside until
    nothing changes; an added vertex has all its targets inside already, so
    the set stays hereditary.
    """
    reach = [_mask(g, g.reachable_from(v)) for v in g.vertices]
    targets = [(_mask(g, (v,)), _mask(g, (e.dst for e in g.out_edges(v)))) for v in g.regulars]

    def close(seed: int) -> int:
        mask = 0
        while seed:
            low = seed & -seed
            mask |= reach[low.bit_length() - 1]
            seed ^= low
        added = True
        while added:
            added = False
            for v, out in targets:
                if not mask & v and not out & ~mask:
                    mask |= v
                    added = True
        return mask

    return close


def hsat_closure(g: Graph, seed) -> tuple[str, ...]:
    """Smallest hereditary saturated set containing the seed vertices.

    Returns its vertices in declaration order.  Idempotent, extensive and
    monotone in the seed.
    """
    return _vertices(g, _mask_closure(g)(_mask(g, seed)))


@dataclass(frozen=True)
class IdealLattice:
    """All hereditary saturated sets of a graph, canonically ordered.

    Elements are vertex masks sorted by size, then by the tuple of vertex
    declaration indices, so element indices are reproducible run to run.
    ``members(i)`` gives element i's vertices in declaration order.
    """

    graph: Graph
    elements: tuple[int, ...]
    _close: Callable[[int], int] = field(repr=False, compare=False)
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_index", {m: i for i, m in enumerate(self.elements)})

    def __len__(self):
        return len(self.elements)

    def members(self, i: int) -> tuple[str, ...]:
        return _vertices(self.graph, self.elements[i])

    def index_of(self, vertices) -> int:
        vertices = frozenset(vertices)
        try:
            return self._index[_mask(self.graph, vertices)]
        except KeyError:
            raise KeyError(f"not a lattice element: {sorted(vertices)!r}") from None

    def leq(self, i: int, j: int) -> bool:
        return not self.elements[i] & ~self.elements[j]

    def meet(self, i: int, j: int) -> int:
        return self._index[self.elements[i] & self.elements[j]]

    def join(self, i: int, j: int) -> int:
        return self._index[self._close(self.elements[i] | self.elements[j])]

    @property
    def bottom(self) -> int:
        return self._index[0]

    @property
    def top(self) -> int:
        return self._index[(1 << self.graph.num_vertices) - 1]


def enumerate_hsat(g: Graph, cap: int = 4096) -> IdealLattice:
    """Enumerate every hereditary saturated set.

    Every such set is the join of the closures of its vertices, so joining
    each new set with the at most V singleton closures, starting from the
    empty set, reaches all of them without touching the 2^V search space.
    Raises LatticeCapError beyond ``cap`` elements.
    """
    close = _mask_closure(g)
    singles = sorted({close(1 << k) for k in range(g.num_vertices)})
    found = {0}  # no regular vertex has all its targets in the empty set
    frontier = [0]
    while frontier:
        nxt = []
        for a in frontier:
            for s in singles:
                if not s & ~a:
                    continue
                joined = close(a | s)
                if joined not in found:
                    found.add(joined)
                    nxt.append(joined)
                    if len(found) > cap:
                        raise LatticeCapError(
                            f"ideal lattice exceeds cap {cap} "
                            f"(graph has {g.num_vertices} vertices)"
                        )
        frontier = nxt
    elements = sorted(
        found,
        key=lambda m: (m.bit_count(), [k for k in range(g.num_vertices) if m >> k & 1]),
    )
    return IdealLattice(graph=g, elements=tuple(elements), _close=close)


def graded_primes(lattice: IdealLattice) -> tuple[int, ...]:
    """Indices of the prime elements: proper, with downward directed complement."""
    g = lattice.graph
    full = (1 << g.num_vertices) - 1
    return tuple(
        i
        for i, h in enumerate(lattice.elements)
        if h != full and is_downward_directed(g, _vertices(g, full & ~h))
    )


@dataclass(frozen=True)
class SpectrumTopology:
    """The prime elements with their open set lattice.

    ``primes`` are lattice indices; ``opens[i]`` is the open set attached to
    lattice element i, stored as a frozenset of positions into ``primes``.
    Distinct elements have distinct opens, since each element is the meet
    of the primes above it.
    """

    lattice: IdealLattice
    primes: tuple[int, ...]
    opens: tuple[frozenset, ...]
    _element: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_element", {o: i for i, o in enumerate(self.opens)})

    def element_of_open(self, open_set: frozenset) -> int:
        try:
            return self._element[open_set]
        except KeyError:
            raise KeyError(f"not an open set: {sorted(open_set)!r}") from None


def spectrum(lattice: IdealLattice) -> SpectrumTopology:
    primes = graded_primes(lattice)
    prime_masks = [lattice.elements[p] for p in primes]
    opens = tuple(
        frozenset(pos for pos, p in enumerate(prime_masks) if h & ~p)
        for h in lattice.elements
    )
    return SpectrumTopology(lattice=lattice, primes=primes, opens=opens)


def kernel_of(topology: SpectrumTopology, prime_positions) -> frozenset:
    """Intersection of the named primes; the full vertex set when none are named."""
    lattice = topology.lattice
    mask = (1 << lattice.graph.num_vertices) - 1
    for pos in prime_positions:
        mask &= lattice.elements[topology.primes[pos]]
    return frozenset(_vertices(lattice.graph, mask))


@dataclass(frozen=True)
class LocallyClosed:
    """Canonical open pair (inner <= outer) with difference a fixed prime set.

    ``outer_index`` and ``inner_index`` are lattice element indices; the
    difference open(outer) minus open(inner) is what the pair is canonical
    for: the outer open is the smallest open from which the difference can
    be cut, and the inner open is then forced.
    """

    outer_index: int
    inner_index: int
    difference: frozenset


def locally_closed_all(topology: SpectrumTopology) -> tuple[LocallyClosed, ...]:
    """One canonical locally closed pair per distinct difference of opens.

    The open sets are closed under intersection, so among opens U admitting
    an open V with U minus V equal to the difference D there is a unique
    smallest one; V is recovered as U minus D, which is again open.
    """
    lat = topology.lattice
    n = len(lat.elements)
    differences = {}
    for i in range(n):
        for j in range(n):
            if topology.opens[j] <= topology.opens[i]:
                differences.setdefault(topology.opens[i] - topology.opens[j], None)
    out = []
    for diff in differences:
        candidates = []
        for i in range(n):
            u = topology.opens[i]
            if not diff <= u:
                continue
            rest = u - diff
            try:
                j = topology.element_of_open(rest)
            except KeyError:
                continue
            candidates.append((len(u), i, j))
        if not candidates:
            continue
        _, outer, inner = min(candidates)
        out.append(LocallyClosed(outer_index=outer, inner_index=inner, difference=diff))
    out.sort(key=lambda lc: (len(lc.difference), tuple(sorted(lc.difference))))
    return tuple(out)


def _order_signature(leq, n, i):
    down = sum(1 for a in range(n) if leq[a][i])
    up = sum(1 for a in range(n) if leq[i][a])
    return (down, up)


def lattice_isomorphisms(l1: IdealLattice, l2: IdealLattice, limit: int = 10000):
    """All order isomorphisms l1 -> l2 as tuples of l2 indices.

    Purely order theoretic: member names play no role.  Raises
    LatticeCapError if more than ``limit`` isomorphisms exist.
    """
    n = len(l1.elements)
    if n != len(l2.elements):
        return []
    leq1 = [[l1.leq(i, j) for j in range(n)] for i in range(n)]
    leq2 = [[l2.leq(i, j) for j in range(n)] for i in range(n)]
    sig1 = [_order_signature(leq1, n, i) for i in range(n)]
    sig2 = [_order_signature(leq2, n, i) for i in range(n)]
    if sorted(sig1) != sorted(sig2):
        return []
    # assign most-constrained elements first
    order = sorted(range(n), key=lambda i: (sig2.count(sig1[i]), i))
    results = []
    assignment = [-1] * n
    used = [False] * n

    def extend(pos):
        if len(results) > limit:
            raise LatticeCapError(f"more than {limit} lattice isomorphisms")
        if pos == n:
            results.append(tuple(assignment))
            return
        i = order[pos]
        for j in range(n):
            if used[j] or sig1[i] != sig2[j]:
                continue
            ok = True
            for prev_pos in range(pos):
                k = order[prev_pos]
                if leq1[i][k] != leq2[j][assignment[k]] or leq1[k][i] != leq2[assignment[k]][j]:
                    ok = False
                    break
            if ok:
                assignment[i] = j
                used[j] = True
                extend(pos + 1)
                used[j] = False
                assignment[i] = -1

    extend(0)
    return results

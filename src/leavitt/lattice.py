"""Hereditary saturated vertex sets: the ideal lattice and its spectrum.

A vertex set is hereditary when edges never leave it and saturated when a
regular vertex whose targets all lie inside must itself lie inside.  These
sets, ordered by inclusion, form a lattice; its "primes" carry a topology
whose locally closed pieces index the filtered K-theory table.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, is_hereditary, is_saturated, is_downward_directed

__all__ = [
    "HsatSet",
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


@dataclass(frozen=True)
class HsatSet:
    """A hereditary saturated vertex set, ordered by graph declaration."""

    ordered: tuple[str, ...]

    @property
    def members(self) -> frozenset:
        return frozenset(self.ordered)

    def __contains__(self, v):
        return v in self.members

    def __len__(self):
        return len(self.ordered)

    def subset_of(self, other: "HsatSet") -> bool:
        return self.members <= other.members

    def __str__(self):
        return "{" + ",".join(self.ordered) + "}"


def _ordered(g: Graph, members) -> tuple:
    members = frozenset(members)
    return tuple(v for v in g.vertices if v in members)


def hsat_closure(g: Graph, seed) -> HsatSet:
    """Smallest hereditary saturated set containing the seed vertices.

    Alternates reachability closure with saturation until the set is stable.
    Idempotent, extensive and monotone in the seed.
    """
    current = set()
    for v in seed:
        g.index(v)
        current.add(v)
    # hereditary part: everything reachable from the seed
    closed = set()
    for v in current:
        closed |= g.reachable_from(v)
    current = closed
    while True:
        added = False
        for v in g.regulars:
            if v not in current and all(e.dst in current for e in g.out_edges(v)):
                current.add(v)
                added = True
        if not added:
            break
        # saturation can pull in vertices with new reachability only via
        # their own successors, which are already inside; no hereditary pass
        # is needed, but one cheap recheck keeps the invariant obvious
        for v in tuple(current):
            current |= g.reachable_from(v)
    return HsatSet(_ordered(g, current))


@dataclass(frozen=True)
class IdealLattice:
    """All hereditary saturated sets of a graph, canonically ordered.

    Elements are sorted by size, then by the tuple of vertex declaration
    indices, so element indices are reproducible run to run.
    """

    graph: Graph
    elements: tuple[HsatSet, ...]

    def __len__(self):
        return len(self.elements)

    def index_of(self, members) -> int:
        target = frozenset(members)
        for i, h in enumerate(self.elements):
            if h.members == target:
                return i
        raise KeyError(f"not a lattice element: {sorted(target)!r}")

    def leq(self, i: int, j: int) -> bool:
        return self.elements[i].members <= self.elements[j].members

    def meet(self, i: int, j: int) -> int:
        return self.index_of(self.elements[i].members & self.elements[j].members)

    def join(self, i: int, j: int) -> int:
        union = self.elements[i].members | self.elements[j].members
        return self.index_of(hsat_closure(self.graph, union).members)

    @property
    def bottom(self) -> int:
        return self.index_of(frozenset())

    @property
    def top(self) -> int:
        return self.index_of(frozenset(self.graph.vertices))


def enumerate_hsat(g: Graph, cap: int = 4096) -> IdealLattice:
    """Enumerate every hereditary saturated set.

    Every such set is the join of the closures of its singletons, so closing
    the singleton closures under join reaches all of them without touching
    the 2^V search space.  Raises LatticeCapError beyond ``cap`` elements.
    """
    seeds = [hsat_closure(g, ()).members]
    for v in g.vertices:
        seeds.append(hsat_closure(g, (v,)).members)
    found = []
    for s in seeds:
        if s not in found:
            found.append(s)
    frontier = list(found)
    while frontier:
        nxt = []
        for a in frontier:
            for b in found:
                union = a | b
                if union == a or union == b:
                    continue
                joined = hsat_closure(g, union).members
                if joined not in found and joined not in nxt:
                    nxt.append(joined)
        found.extend(nxt)
        if len(found) > cap:
            raise LatticeCapError(
                f"ideal lattice exceeds cap {cap} (graph has {g.num_vertices} vertices)"
            )
        frontier = nxt
    ordered = sorted(
        (HsatSet(_ordered(g, s)) for s in found),
        key=lambda h: (len(h.ordered), tuple(g.index(v) for v in h.ordered)),
    )
    return IdealLattice(graph=g, elements=tuple(ordered))


def graded_primes(lattice: IdealLattice) -> tuple[int, ...]:
    """Indices of the prime elements: proper, with downward directed complement."""
    g = lattice.graph
    full = frozenset(g.vertices)
    out = []
    for i, h in enumerate(lattice.elements):
        if h.members == full:
            continue
        complement = [v for v in g.vertices if v not in h.members]
        if is_downward_directed(g, complement):
            out.append(i)
    return tuple(out)


@dataclass(frozen=True)
class SpectrumTopology:
    """The prime elements with their open set lattice.

    ``primes`` are lattice indices; ``opens[i]`` is the open set attached to
    lattice element i, stored as a frozenset of positions into ``primes``.
    """

    lattice: IdealLattice
    primes: tuple[int, ...]
    opens: tuple[frozenset, ...]

    def open_of(self, element_index: int) -> frozenset:
        return self.opens[element_index]

    def element_of_open(self, open_set: frozenset) -> int:
        for i, o in enumerate(self.opens):
            if o == open_set:
                return i
        raise KeyError(f"not an open set: {sorted(open_set)!r}")


def spectrum(lattice: IdealLattice) -> SpectrumTopology:
    primes = graded_primes(lattice)
    opens = []
    for h in lattice.elements:
        ps = frozenset(
            pos
            for pos, p in enumerate(primes)
            if not h.members <= lattice.elements[p].members
        )
        opens.append(ps)
    return SpectrumTopology(lattice=lattice, primes=primes, opens=tuple(opens))


def kernel_of(topology: SpectrumTopology, prime_positions) -> frozenset:
    """Intersection of the named primes; the full vertex set when none are named."""
    lattice = topology.lattice
    members = frozenset(lattice.graph.vertices)
    for pos in prime_positions:
        members &= lattice.elements[topology.primes[pos]].members
    return members


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

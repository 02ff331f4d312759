"""Hereditary saturated vertex sets: the ideal lattice and its spectrum.

A vertex set is hereditary when edges never leave it and saturated when a
regular vertex whose targets all lie inside must itself lie inside.  These
sets, ordered by inclusion, form a lattice; its "primes" carry a topology
whose locally closed pieces index the filtered K-theory table.

The lattice (of graded ideals) is distributive, so by Birkhoff it is the
lattice of down-sets of its at most V primes ordered by inclusion, the opens;
pieces and lattice isomorphisms are computed on that prime poset.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from operator import and_

from .graphs import Graph

__all__ = [
    "IdealLattice",
    "SpectrumTopology",
    "LocallyClosed",
    "LatticeCapError",
    "hsat_closure",
    "enumerate_hsat",
    "graded_primes",
    "spectrum",
    "locally_closed_all",
    "lattice_isomorphisms",
]


class LatticeCapError(RuntimeError):
    """Raised when lattice enumeration exceeds the configured cap."""


_LATTICE_CAP = 4096  # default lattice elements, here and for every table


# A vertex set is stored here as an int mask over declaration order: bit k
# is set when the k-th declared vertex belongs to it.  The filtered table
# and its rows (``filtered``, ``ktheory``) read these masks as they are;
# everywhere else a set is a vertex tuple in declaration order.


def _mask(g: Graph, vertices) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << g.index(v)
    return mask


def _vertices(g: Graph, mask: int) -> tuple:
    return tuple(v for k, v in enumerate(g.vertices) if mask >> k & 1)


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, in rising order."""
    return [k for k in range(mask.bit_length()) if mask >> k & 1]


@lru_cache(maxsize=1)
def _mask_closure(g: Graph):
    """The mask table of ``g``: ``(reach, targets, close)``.

    ``targets[k]`` masks the targets of the k-th vertex's edges, and
    ``reach[k]`` the vertices it reaches by paths of length >= 0, found by
    breadth-first search on target masks.  ``close`` takes a seed mask to
    its hereditary saturated closure: it ORs the reach masks of the seed's
    vertices, then adds every regular vertex whose target mask lies inside
    until nothing changes; an added vertex has all its targets inside
    already, so the set stays hereditary.  Back-to-back closures on one
    graph (the two seeds of an ungraded equality, the lattice images of a
    certificate transport) share the table; one entry keeps no more than
    the last graph alive.
    """
    targets = [_mask(g, (e.dst for e in g.out_edges(v))) for v in g.vertices]

    def union(table, mask):  # the OR of the table's masks at the bits of mask
        out = 0
        while mask:
            low = mask & -mask
            out |= table[low.bit_length() - 1]
            mask ^= low
        return out

    reach = []
    for k in range(g.num_vertices):
        seen = frontier = 1 << k
        while frontier:
            frontier = union(targets, frontier) & ~seen
            seen |= frontier
        reach.append(seen)
    regular = [(1 << k, out) for k, out in enumerate(targets) if out]

    def close(seed: int) -> int:
        mask = union(reach, seed)
        added = True
        while added:
            added = False
            for v, out in regular:
                if not mask & v and not out & ~mask:
                    mask |= v
                    added = True
        return mask

    return tuple(reach), tuple(targets), close


def hsat_closure(g: Graph, seed) -> tuple[str, ...]:
    """Smallest hereditary saturated set containing the seed vertices.

    Returns its vertices in declaration order.  Idempotent, extensive and
    monotone in the seed.
    """
    _, _, close = _mask_closure(g)
    return _vertices(g, close(_mask(g, seed)))


@dataclass(frozen=True)
class IdealLattice:
    """All hereditary saturated sets of a graph, canonically ordered.

    Elements are vertex masks sorted by size, then by the tuple of vertex
    declaration indices, so element indices are reproducible run to run.
    ``members(i)`` gives element i's vertices in declaration order.
    """

    graph: Graph
    elements: tuple[int, ...]

    def __len__(self):
        return len(self.elements)

    def members(self, i: int) -> tuple[str, ...]:
        return _vertices(self.graph, self.elements[i])

    def leq(self, i: int, j: int) -> bool:
        return not self.elements[i] & ~self.elements[j]


def enumerate_hsat(g: Graph, cap: int = _LATTICE_CAP) -> IdealLattice:
    """Enumerate every hereditary saturated set.

    Every such set is the join of the closures of its vertices, so joining
    each new set with the at most V singleton closures, starting from the
    empty set, reaches all of them without touching the 2^V search space.
    Raises LatticeCapError beyond ``cap`` elements.
    """
    _, _, close = _mask_closure(g)
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
    elements = sorted(found, key=lambda m: (m.bit_count(), _bits(m)))
    return IdealLattice(graph=g, elements=tuple(elements))


def graded_primes(lattice: IdealLattice) -> tuple[int, ...]:
    """Indices of the prime elements: proper, with downward directed complement.

    Reachability is transitive, so every two vertices of a finite set reach
    a common vertex in it exactly when all of them reach one: when the
    reach masks of the complement's vertices share a bit of the complement.
    """
    reach, _, _ = _mask_closure(lattice.graph)
    full = (1 << len(reach)) - 1
    return tuple(
        i
        for i, h in enumerate(lattice.elements)
        if reduce(and_, (r for k, r in enumerate(reach) if not h >> k & 1), full & ~h)
    )


@dataclass(frozen=True)
class SpectrumTopology:
    """The prime elements with their open set lattice.

    ``primes`` are lattice indices; ``opens[i]`` is the open set attached to
    lattice element i, the primes not above it, as an int mask over
    positions into ``primes``: bit p is set when the p-th prime is in it.
    Positions follow lattice indices, which extend inclusion, so an open's
    top bit is a maximal prime of it.  Distinct elements have distinct
    opens, since each element is the meet of the primes above it.
    """

    lattice: IdealLattice
    primes: tuple[int, ...]
    opens: tuple[int, ...]

    @cached_property
    def signatures(self) -> list[tuple[int, int]]:
        """(elements below, elements above) each element, inclusive, kept once
        read: zeta transforms over the prime positions, up for below, down for above."""
        opens = self.opens
        m = len(self.primes)
        down, up = dict.fromkeys(opens, 1), dict.fromkeys(opens, 1)
        for p in range(m):
            q = m - 1 - p
            for o in opens:
                if o >> p & 1 and o ^ (1 << p) in down:
                    down[o] += down[o ^ (1 << p)]
                if not o >> q & 1 and o | (1 << q) in up:
                    up[o] += up[o | (1 << q)]
        return [(down[o], up[o]) for o in opens]


def spectrum(lattice: IdealLattice) -> SpectrumTopology:
    primes = graded_primes(lattice)
    prime_masks = [lattice.elements[p] for p in primes]
    opens = tuple(
        sum(1 << pos for pos, p in enumerate(prime_masks) if h & ~p) for h in lattice.elements
    )
    return SpectrumTopology(lattice=lattice, primes=primes, opens=opens)


@dataclass(frozen=True)
class LocallyClosed:
    """Canonical open pair (inner <= outer, lattice indices) cutting out the
    prime mask ``difference``, over prime positions as an open is: the outer
    open is the smallest cutting it out, and the inner open is then forced."""

    outer_index: int
    inner_index: int
    difference: int


def locally_closed_all(topology: SpectrumTopology) -> tuple[LocallyClosed, ...]:
    """One canonical locally closed pair per distinct difference of opens.

    The differences are the convex sets D of primes; the smallest open
    cutting D out is its down-closure U, with inner open U minus D.  These
    pairs are each open U with each open inside U minus its maximal primes.
    """
    opens = topology.opens
    index = {o: i for i, o in enumerate(opens)}
    inside = {0: [0]}  # open -> the opens inside it

    def opens_inside(s):
        known = s
        while known not in inside:  # drop top primes down to a known open
            known ^= 1 << (known.bit_length() - 1)
        for p in _bits(s ^ known):  # and add them back
            rest, known = inside[known], known | 1 << p
            inside[known] = rest + [v | 1 << p for v in rest if v | 1 << p in index]
        return inside[s]

    out = []
    for i, u in enumerate(opens):
        # p is maximal in u exactly when u without p is still an open
        maximal = sum(1 << p for p in _bits(u) if u ^ (1 << p) in index)
        for v in opens_inside(u ^ maximal):
            out.append(LocallyClosed(outer_index=i, inner_index=index[v], difference=u ^ v))
    out.sort(key=lambda lc: (lc.difference.bit_count(), _bits(lc.difference)))
    return tuple(out)


def _iter_isomorphisms(topo1: SpectrumTopology, topo2: SpectrumTopology):
    """Lazily yield the lattice isomorphisms as index tuples: the poset
    isomorphisms s of the primes, lifted to i -> the element with open s(open i).

    Per prime, a mask holds the primes it may still map to.  Element images
    are fixed rarest signature first, then by index, each image j in rising
    order cutting the masks to s(open i) = open j; s is lifted once it is a
    bijection sending every open to an open.  So the isomorphisms come in
    lexicographic order of their images along that element order.
    """
    opens1, opens2 = topo1.opens, topo2.opens
    sig1, sig2 = topo1.signatures, topo2.signatures
    n, m = len(opens1), len(topo1.primes)
    if n != len(opens2) or m != len(topo2.primes) or sorted(sig1) != sorted(sig2):
        return
    index2 = {o: j for j, o in enumerate(opens2)}
    by_sig = {}
    for j, sig in enumerate(sig2):
        by_sig.setdefault(sig, []).append(j)
    order = sorted(range(n), key=lambda i: (len(by_sig[sig1[i]]), i))

    def children(cand, i):  # the masks once element i has an image too
        for j in by_sig[sig1[i]]:
            t = opens2[j]
            out = [c & (t if opens1[i] >> p & 1 else ~t) for p, c in enumerate(cand)]
            if all(out):
                yield out

    stack = [iter(([(1 << m) - 1] * m,))]  # depth-first, one level per element
    while stack:
        cand = next(stack[-1], None)
        if cand is None:
            stack.pop()
        elif all(not c & (c - 1) for c in cand):
            lifted = [index2.get(sum(c for p, c in enumerate(cand) if o >> p & 1)) for o in opens1]
            if len(set(cand)) == m and None not in lifted:
                yield tuple(lifted)
        elif len(stack) <= n:
            stack.append(children(cand, order[len(stack) - 1]))


def lattice_isomorphisms(l1: IdealLattice, l2: IdealLattice, limit: int = 10000):
    """All order isomorphisms l1 -> l2 as tuples of l2 indices (member names
    play no role); LatticeCapError if more than ``limit`` of them exist."""
    isos = list(itertools.islice(_iter_isomorphisms(spectrum(l1), spectrum(l2)), limit + 1))
    if len(isos) > limit:
        raise LatticeCapError(f"more than {limit} lattice isomorphisms")
    return isos

"""Filtered K-theory: the full table over the ideal lattice, and comparison.

The table attaches to each canonical locally closed piece of the prime
spectrum the K0/K1bar pair of its subquotient graph, and to each nested
triple of ideals its verified six-term row.  Comparing two tables means
searching the finitely many lattice isomorphisms for one matching every
entry class and every row signature; a match is a necessary condition for
the tables to be isomorphic as diagrams, never a proof, and the report
says so explicitly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .graphs import Graph
from .intlinalg import (
    CoeffGroup,
    IntMatrix,
    PresentedGroup,
    inverse_unimodular,
    map_invariants,
)
from .ktheory import KOneBar, KZero, SixTermRow, SubquotientStore, six_term_row
from .lattice import (
    IdealLattice,
    LocallyClosed,
    SpectrumTopology,
    enumerate_hsat,
    hsat_closure,
    lattice_isomorphisms,
    locally_closed_all,
    spectrum,
)

__all__ = [
    "TableEntry",
    "FilteredKTable",
    "PieceVerdict",
    "RowVerdict",
    "ComparisonReport",
    "RowCapError",
    "fkbar",
    "compare_fkbar",
    "transport_from_certificate",
]

NECESSARY_ONLY_NOTE = (
    "a consistent report is a necessary condition for isomorphic filtered "
    "K-theory, not a proof of it"
)


@dataclass(frozen=True)
class TableEntry:
    """Invariants of the subquotient attached to one locally closed piece."""

    piece: LocallyClosed
    outer_members: tuple[str, ...]
    inner_members: tuple[str, ...]
    graph: Graph
    kzero: KZero
    konebar: KOneBar


@dataclass(frozen=True)
class FilteredKTable:
    graph: Graph
    coeff: CoeffGroup
    lattice: IdealLattice
    topology: SpectrumTopology
    pieces: tuple[LocallyClosed, ...]
    entries: tuple[TableEntry, ...]
    rows: tuple[SixTermRow, ...]
    row_triples: tuple[tuple[int, int, int], ...]

    @property
    def all_rows_exact(self):
        return all(r.exact for r in self.rows)

    def entry_for(self, piece: LocallyClosed) -> TableEntry:
        for e in self.entries:
            if e.piece == piece:
                return e
        raise KeyError("no entry for that piece")


class RowCapError(RuntimeError):
    """Raised when a table would need more six-term rows than the cap."""


def _count_triples(lattice: IdealLattice) -> int:
    """Nested triples i <= j <= p: the sum over j of (#i <= j) * (#p >= j)."""
    n = len(lattice)
    below = [0] * n
    above = [0] * n
    for i in range(n):
        for p in range(i, n):
            if lattice.leq(i, p):
                above[i] += 1
                below[p] += 1
    return sum(b * a for b, a in zip(below, above))


def fkbar(
    g: Graph,
    coeff: CoeffGroup,
    lattice_cap: int = 4096,
    order_cap: int = 10_000,
    include_rows: bool = True,
    row_cap: int = 65_536,
) -> FilteredKTable:
    """Compute the filtered table: an entry per piece, a row per ideal triple.

    Each row is verified at construction; ``all_rows_exact`` summarizes the
    verdicts rather than hiding them.  Every subquotient an entry or a row
    needs is built once, with its K-groups, and shared.  Raises RowCapError
    before any row is built when the lattice has more than ``row_cap``
    nested triples.
    """
    lattice = enumerate_hsat(g, cap=lattice_cap)
    n = len(lattice)
    if include_rows:
        count = _count_triples(lattice)
        if count > row_cap:
            raise RowCapError(
                f"nested triples exceed row cap {row_cap} "
                f"(the {n}-element lattice has {count})"
            )
    topo = spectrum(lattice)
    pieces = locally_closed_all(topo)
    members = [frozenset(lattice.members(i)) for i in range(n)]
    store = SubquotientStore(g, coeff)
    entries = []
    for piece in pieces:
        pair = store.get(members[piece.inner_index], members[piece.outer_index])
        entries.append(
            TableEntry(
                piece=piece,
                outer_members=lattice.members(piece.outer_index),
                inner_members=lattice.members(piece.inner_index),
                graph=pair.graph,
                kzero=pair.k0,
                konebar=pair.k1,
            )
        )
    rows = []
    triples = []
    if include_rows:
        for i in range(n):
            for j in range(i, n):
                if not lattice.leq(i, j):
                    continue
                for p in range(j, n):
                    if not lattice.leq(j, p):
                        continue
                    rows.append(
                        six_term_row(
                            g,
                            members[i],
                            members[j],
                            members[p],
                            coeff,
                            order_cap=order_cap,
                            store=store,
                        )
                    )
                    triples.append((i, j, p))
    return FilteredKTable(
        graph=g,
        coeff=coeff,
        lattice=lattice,
        topology=topo,
        pieces=pieces,
        entries=tuple(entries),
        rows=tuple(rows),
        row_triples=tuple(triples),
    )


# ---------------------------------------------------------------------------
# row signatures
# ---------------------------------------------------------------------------


def _konebar_class(kb: KOneBar):
    """Hashable class of the twisted part plus kernel rank.

    Uses the specialization when the coefficients admit one, mirroring
    CoeffCokernel.same_class, so equal classes give equal keys.
    """
    spec = kb.coker_part.specialize()
    twisted = spec if spec is not None else (
        "raw",
        kb.coker_part.quotient_orders,
        kb.coker_part.free_rank,
    )
    return (kb.kernel_rank, twisted)


def _row_signature(row: SixTermRow):
    """Invariant tuple of a six-term row: group classes and map classes.

    Map classes are the kernel/image/cokernel triples of the five maps of
    the row skeleton, so equal signatures mean no Z-level rank or invariant
    factor tells the rows apart.
    """
    map_sigs = tuple(
        map_invariants(f.matrix, f.domain.relations, f.codomain.relations)
        for f in row.maps
    )
    return (
        tuple(n.invariants() for n in row.groups),
        tuple(_konebar_class(kb) for kb in row.k1bars),
        map_sigs,
    )


# ---------------------------------------------------------------------------
# element-level isomorphism search (small groups only)
# ---------------------------------------------------------------------------

_NODE_CANDIDATE_CAP = 64
_TORSION_ORDER_CAP = 10_000
_FREE_RANK_CAP = 3
_FREE_ENTRY_BOUND = 2


class _Reduced:
    """A presented group in its canonical coordinates.

    One coordinate per invariant factor greater than one (with that factor
    as modulus) plus one per free generator (modulus zero).
    """

    def __init__(self, pres: PresentedGroup):
        sd = pres.smith
        diag = sd.diagonal
        self.pres = pres
        self.keep = tuple(
            i
            for i in range(pres.generators)
            if i >= len(diag) or diag[i] != 1
        )
        self.moduli = tuple(
            diag[i] if i < len(diag) and diag[i] != 0 else 0 for i in self.keep
        )
        self._uinv = inverse_unimodular(sd.u) if pres.generators else IntMatrix.zeros(0, 0)

    def to_reduced(self, vec):
        full = self.pres.canon(vec)
        return tuple(full[i] for i in self.keep)

    def from_reduced(self, red):
        full = [0] * self.pres.generators
        for value, i in zip(red, self.keep):
            full[i] = value
        return self._uinv @ tuple(full)

    def normalize(self, red):
        return tuple(
            v % m if m else v for v, m in zip(red, self.moduli)
        )


@lru_cache(maxsize=4096)
def _reduced(pres: PresentedGroup) -> _Reduced:
    return _Reduced(pres)


def _reduced_map(matrix: IntMatrix, dom: _Reduced, cod: _Reduced):
    """The map in reduced coordinates, as a tuple of rows."""
    cols = []
    for j in range(len(dom.moduli)):
        e = dom.from_reduced(tuple(1 if i == j else 0 for i in range(len(dom.moduli))))
        cols.append(cod.to_reduced(matrix @ e))
    return tuple(
        tuple(c[i] for c in cols) for i in range(len(cod.moduli))
    )


def _candidate_count(dom: _Reduced, cod: _Reduced) -> int:
    total = 1
    for mj in dom.moduli:
        for mi in cod.moduli:
            if mi > 0:
                total *= math.gcd(mi, mj) if mj > 0 else mi
            else:
                total *= 1 if mj > 0 else (2 * _FREE_ENTRY_BOUND + 1)
            if total > _NODE_CANDIDATE_CAP:
                return total
    return total


@lru_cache(maxsize=2048)
def _iso_candidates(dom_pres: PresentedGroup, cod_pres: PresentedGroup):
    """All isomorphism matrices between two groups in reduced coordinates.

    Returns (candidates, complete): candidates is a tuple of row-tuple
    matrices; complete is False when free coordinates were truncated to the
    entry bound, so an empty result is not a proof that no isomorphism
    exists.  Returns None when the enumeration would exceed the node cap.
    """
    dom, cod = _reduced(dom_pres), _reduced(cod_pres)
    if sorted(dom.moduli) != sorted(cod.moduli):
        return (), True
    if _candidate_count(dom, cod) > _NODE_CANDIDATE_CAP:
        return None
    complete = all(m > 0 for m in dom.moduli)
    per_entry = []
    for mi in cod.moduli:
        for mj in dom.moduli:
            if mi > 0 and mj > 0:
                step = mi // math.gcd(mi, mj)
                per_entry.append(tuple(range(0, mi, step)))
            elif mi > 0:
                per_entry.append(tuple(range(mi)))
            elif mj > 0:
                per_entry.append((0,))
            else:
                per_entry.append(tuple(range(-_FREE_ENTRY_BOUND, _FREE_ENTRY_BOUND + 1)))
    k_cod, k_dom = len(cod.moduli), len(dom.moduli)
    relations = IntMatrix.diagonal(cod.moduli, rows=k_cod, cols=k_cod)
    out = []
    for flat in itertools.product(*per_entry):
        m = tuple(flat[i * k_dom : (i + 1) * k_dom] for i in range(k_cod))
        mat = IntMatrix(m, cols=k_dom)
        onto = PresentedGroup(k_cod, mat.hstack(relations)).invariants().is_trivial()
        if onto:
            out.append(m)
    return tuple(out), complete


def _compose(rows_a, rows_b, inner_dim):
    """Product of two row-tuple matrices (a after b)."""
    if inner_dim == 0:
        return tuple(tuple(0 for _ in (rows_b[0] if rows_b else ())) for _ in rows_a)
    cols = len(rows_b[0]) if rows_b else 0
    return tuple(
        tuple(sum(ra[k] * rows_b[k][j] for k in range(inner_dim)) for j in range(cols))
        for ra in rows_a
    )


def _squares_commute(alpha_next, f_red, f_other_red, alpha_prev, cod: _Reduced):
    left = _compose(alpha_next, f_red, len(f_red))  # alpha after f
    right = _compose(f_other_red, alpha_prev, len(alpha_prev))
    for i, m in enumerate(cod.moduli):
        for a, b in zip(left[i] if left else (), right[i] if right else ()):
            diff = a - b
            if (diff % m if m else diff) != 0:
                return False
    return True


def _row_element_check(row_a: SixTermRow, row_b: SixTermRow):
    """Search for a commuting system of node isomorphisms between two rows.

    Returns "passed", "refuted" (full coverage, no system exists), or
    "skipped" / "inconclusive" when caps or entry bounds got in the way.
    The chain shape of the diagram lets a forward arc-consistency pass
    decide existence exactly.
    """
    nodes_a, nodes_b = row_a.groups, row_b.groups
    reduced_a = [_reduced(n) for n in nodes_a]
    reduced_b = [_reduced(n) for n in nodes_b]
    for ra in reduced_a:
        torsion = math.prod(m for m in ra.moduli if m) if ra.moduli else 1
        free = sum(1 for m in ra.moduli if m == 0)
        if torsion > _TORSION_ORDER_CAP or free > _FREE_RANK_CAP:
            return "skipped"
    candidate_sets = []
    complete = True
    for na, nb in zip(nodes_a, nodes_b):
        found = _iso_candidates(na, nb)
        if found is None:
            return "skipped"
        cands, full = found
        if not cands:
            return "refuted" if full else "inconclusive"
        candidate_sets.append(cands)
        complete = complete and full
    red_maps_a = [
        _reduced_map(f.matrix, reduced_a[k], reduced_a[k + 1]) for k, f in enumerate(row_a.maps)
    ]
    red_maps_b = [
        _reduced_map(f.matrix, reduced_b[k], reduced_b[k + 1]) for k, f in enumerate(row_b.maps)
    ]
    viable = list(candidate_sets[0])
    for k in range(5):
        nxt = []
        for beta in candidate_sets[k + 1]:
            if any(
                _squares_commute(beta, red_maps_a[k], red_maps_b[k], alpha, reduced_b[k + 1])
                for alpha in viable
            ):
                nxt.append(beta)
        if not nxt:
            return "refuted" if complete else "inconclusive"
        viable = nxt
    return "passed"


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


def transport_from_certificate(
    g1: Graph, g2: Graph, lattice1: IdealLattice, lattice2: IdealLattice, r_matrix: IntMatrix
):
    """Candidate lattice map induced by a shift-equivalence intertwiner.

    Sends an ideal to the saturated closure of the vertices its members hit
    through R.  Returns the index map when it lands bijectively on the
    second lattice and preserves order both ways; otherwise None.  Always
    verified, never trusted.
    """
    if r_matrix.shape != (g1.num_vertices, g2.num_vertices):
        return None
    n = len(lattice1)
    images = []
    for i in range(n):
        hit = [
            g2.vertices[j]
            for j in range(g2.num_vertices)
            if any(r_matrix[g1.index(v), j] != 0 for v in lattice1.members(i))
        ]
        try:
            images.append(lattice2.index_of(hsat_closure(g2, hit)))
        except KeyError:
            return None
    if sorted(images) != list(range(len(lattice2))):
        return None
    mapping = tuple(images)
    for i in range(n):
        for j in range(n):
            if lattice1.leq(i, j) != lattice2.leq(mapping[i], mapping[j]):
                return None
    return mapping


@dataclass(frozen=True)
class PieceVerdict:
    difference: tuple[int, ...]
    matched: bool
    detail: str


@dataclass(frozen=True)
class RowVerdict:
    triple: tuple[int, int, int]
    matched: bool
    detail: str


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of comparing two filtered tables.

    ``consistent`` means some lattice isomorphism matched every entry class
    and every row signature (and survived the element-level search when it
    ran).  ``certification`` records how much of the isomorphism space was
    covered: "structural" for signature matching only, "bounded" when the
    element-level search ran with truncated free parts or skipped rows,
    "exhaustive" when it covered every candidate system.  ``note`` flags
    that consistency is a necessary condition, not a proof.
    """

    consistent: bool
    obstruction: str
    lattice_iso: tuple[int, ...] | None
    group_matches: tuple[PieceVerdict, ...]
    map_matches: tuple[RowVerdict, ...]
    certification: str
    element_check: str
    note: str = NECESSARY_ONLY_NOTE


def _match_entries(t1: FilteredKTable, t2: FilteredKTable, iso):
    """Pair the canonical pieces through the prime bijection; verdict per piece."""
    prime_pos2 = {p: idx for idx, p in enumerate(t2.topology.primes)}
    mapped = {iso[p] for p in t1.topology.primes}
    if mapped != set(t2.topology.primes):
        return None, "lattice isomorphism does not preserve the prime set"
    prime_bij = {idx: prime_pos2[iso[p]] for idx, p in enumerate(t1.topology.primes)}
    verdicts = []
    pairing = {}
    for piece in t1.pieces:
        want = frozenset(prime_bij[x] for x in piece.difference)
        other = next((q for q in t2.pieces if q.difference == want), None)
        if other is None:
            verdicts.append(
                PieceVerdict(
                    difference=tuple(sorted(piece.difference)),
                    matched=False,
                    detail="no matching piece in the second table",
                )
            )
            continue
        pairing[piece] = other
        e1, e2 = t1.entry_for(piece), t2.entry_for(other)
        problems = []
        if e1.kzero.invariants() != e2.kzero.invariants():
            problems.append(
                f"K0 {e1.kzero.invariants()} vs {e2.kzero.invariants()}"
            )
        if e1.konebar.kernel_rank != e2.konebar.kernel_rank:
            problems.append(
                f"K1bar free rank {e1.konebar.kernel_rank} vs {e2.konebar.kernel_rank}"
            )
        if not e1.konebar.coker_part.same_class(e2.konebar.coker_part):
            problems.append(
                f"K1bar twisted part {e1.konebar.coker_part.symbol()} "
                f"vs {e2.konebar.coker_part.symbol()}"
            )
        verdicts.append(
            PieceVerdict(
                difference=tuple(sorted(piece.difference)),
                matched=not problems,
                detail="; ".join(problems) if problems else "entry classes agree",
            )
        )
    if len(pairing) != len(t1.pieces) or len(t1.pieces) != len(t2.pieces):
        return verdicts, "piece bijection failed"
    bad = next((v for v in verdicts if not v.matched), None)
    return verdicts, bad.detail if bad else ""


def _signatures(table: FilteredKTable):
    """Row signature by lattice triple, each computed on first request."""
    rows = dict(zip(table.row_triples, table.rows))
    memo = {}

    def signature(trip):
        if trip not in memo:
            memo[trip] = _row_signature(rows[trip])
        return memo[trip]

    return signature


def _match_rows(t1: FilteredKTable, t2: FilteredKTable, iso, run_elements: bool, signatures):
    rows2 = {trip: row for trip, row in zip(t2.row_triples, t2.rows)}
    sig1, sig2 = signatures
    verdicts = []
    element_outcomes = []
    failure = ""
    for trip, row in zip(t1.row_triples, t1.rows):
        # an order isomorphism maps a nested triple to a nested triple
        other_trip = (iso[trip[0]], iso[trip[1]], iso[trip[2]])
        other = rows2.get(other_trip)
        if other is None:
            verdicts.append(
                RowVerdict(triple=trip, matched=False, detail="row missing in second table")
            )
            failure = failure or f"row {other_trip} missing in the second table"
            continue
        problems = []
        if sig1(trip) != sig2(other_trip):
            problems.append("map invariants differ")
        if not row.exact:
            problems.append("first table row failed exactness")
        if not other.exact:
            problems.append("second table row failed exactness")
        element = None
        if not problems and run_elements:
            element = _row_element_check(row, other)
            element_outcomes.append(element)
            if element == "refuted":
                problems.append("no commuting system of isomorphisms exists")
        detail = "; ".join(problems) if problems else "row matches"
        if element is not None and not problems:
            detail = f"row matches (element search: {element})"
        verdicts.append(RowVerdict(triple=trip, matched=not problems, detail=detail))
        if problems and not failure:
            failure = f"triple {trip}: {problems[0]}"
    return verdicts, failure, element_outcomes


def compare_fkbar(
    g1: Graph,
    g2: Graph,
    coeff: CoeffGroup,
    se_intertwiner: IntMatrix | None = None,
    lattice_cap: int = 4096,
    order_cap: int = 10_000,
    element_search: bool = True,
    row_cap: int = 65_536,
) -> ComparisonReport:
    """Search the lattice isomorphisms for one matching the two tables.

    A shift-equivalence intertwiner, when supplied, proposes the first
    candidate; enumeration covers the rest.  For each candidate the checks
    run in order: prime and piece bijections, per-piece group classes,
    per-row map invariants plus exactness, then (for small groups) an
    element-level search for commuting isomorphism systems.  Each row's
    signature is computed at most once, whatever the number of candidates.
    """
    t1 = fkbar(g1, coeff, lattice_cap=lattice_cap, order_cap=order_cap, row_cap=row_cap)
    t2 = fkbar(g2, coeff, lattice_cap=lattice_cap, order_cap=order_cap, row_cap=row_cap)
    signatures = (_signatures(t1), _signatures(t2))

    candidates = []
    if se_intertwiner is not None:
        transported = transport_from_certificate(
            g1, g2, t1.lattice, t2.lattice, se_intertwiner
        )
        if transported is not None:
            candidates.append(transported)
    for iso in lattice_isomorphisms(t1.lattice, t2.lattice):
        if iso not in candidates:
            candidates.append(iso)
    if not candidates:
        return ComparisonReport(
            consistent=False,
            obstruction="ideal lattices admit no order isomorphism",
            lattice_iso=None,
            group_matches=(),
            map_matches=(),
            certification="structural",
            element_check="skipped",
        )

    best = None  # (mismatch_count, verdict bundle) of the closest failure
    for iso in candidates:
        piece_verdicts, piece_failure = _match_entries(t1, t2, iso)
        if piece_verdicts is None:
            bundle = (iso, (), (), piece_failure, "skipped")
            score = math.inf
        elif piece_failure:
            bundle = (iso, tuple(piece_verdicts), (), piece_failure, "skipped")
            score = sum(1 for v in piece_verdicts if not v.matched)
        else:
            row_verdicts, row_failure, element_outcomes = _match_rows(
                t1, t2, iso, run_elements=element_search, signatures=signatures
            )
            if element_outcomes and all(e == "passed" for e in element_outcomes):
                element = "passed"
            elif any(e == "refuted" for e in element_outcomes):
                element = "refuted"
            elif element_outcomes:
                element = "inconclusive"
            else:
                element = "skipped"
            if not row_failure:
                certification = "structural"
                if element_search and element == "passed":
                    certification = (
                        "exhaustive"
                        if all(
                            _row_element_coverage(row) == "full" for row in t1.rows
                        )
                        else "bounded"
                    )
                elif element_search and element != "skipped":
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
        if best is None or score < best[0]:
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


def _row_element_coverage(row: SixTermRow) -> str:
    """Would the element search over this row cover the full space?"""
    for n in row.groups:
        red = _reduced(n)
        if any(m == 0 for m in red.moduli):
            return "truncated"
        torsion = math.prod(m for m in red.moduli if m) if red.moduli else 1
        if torsion > _TORSION_ORDER_CAP:
            return "skipped"
        if _candidate_count(red, red) > _NODE_CANDIDATE_CAP:
            return "skipped"
    return "full"

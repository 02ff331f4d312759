"""Filtered K-theory: the full table over the ideal lattice, and comparison.

The table attaches to each canonical locally closed piece of the prime
spectrum the K0/K1bar pair of its subquotient graph, and to each nested
triple of ideals its verified six-term row.  Comparing two tables means
drawing lattice isomorphisms from the prime posets until one matches every
entry class and every row signature; a match is a necessary condition for
the tables to be isomorphic as diagrams, never a proof, and the report
says so explicitly.

Row signatures and the element search read each row's skeleton in the Smith
coordinates its store reduced it to (``SixTermRow.reduced``): one
coordinate per invariant factor other than 1, so candidate isomorphisms
are listed on the invariant factors and no map is rewritten per row pair.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .graphs import Graph
from .intlinalg import CoeffGroup, IntMatrix, PresentedGroup
from .ktheory import (
    KOneBar,
    SixTermRow,
    SubquotientStore,
    _build_row,
    _moduli,
    _residues,
)
from .lattice import (
    IdealLattice,
    LatticeCapError,
    LocallyClosed,
    _iter_isomorphisms,
    _signatures,
    enumerate_hsat,
    hsat_closure,
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

_CANDIDATE_CAP = 10_000  # lattice isomorphisms tried without a match

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
    kzero: PresentedGroup
    konebar: KOneBar

    @cached_property
    def class_key(self) -> tuple:
        """The entry's class, per facet of ``_ENTRY_FACETS``: the K0
        invariants, the K1bar kernel rank and the twisted class key, all
        read off the Smith diagonal of the transfer matrix."""
        return (self.kzero.invariants(), *self.konebar.class_key)

    def same_class(self, other: TableEntry) -> bool:
        """Are the two entries of one class?  Read off their transfer
        matrices when those are equal, with no elimination."""
        return self.kzero.relations == other.kzero.relations or self.class_key == other.class_key


class RowCapError(RuntimeError):
    """Raised when a table would need more six-term rows than the cap."""


class FilteredKTable:
    """The filtered table of one graph: an entry per locally closed piece of
    the prime spectrum and a six-term row per nested ideal triple.

    The constructor counts the nested triples i <= j <= p, at each j as
    (#i <= j) * (#p >= j), and raises RowCapError past ``row_cap`` before
    any entry is built; then it builds every entry.  A row is built through
    the table's subquotient ``store`` on first request and kept: its name
    triple over the store's body for its positional shape.  Its triple
    comes from the table's own lattice, so it is nested with a hereditary
    saturated middle set, and the row skips that validation of
    :func:`~leavitt.ktheory.six_term_row`; every other check runs, once
    per shape, on the matrices every row of that shape carries.  The
    constructor builds no row, so a caller may still have the store share
    another store's memos (``SubquotientStore._share``).
    """

    def __init__(self, g: Graph, coeff: CoeffGroup, lattice_cap: int = 4096, row_cap: int = 65_536):
        topology = spectrum(enumerate_hsat(g, cap=lattice_cap))
        lattice = topology.lattice
        count = sum(down * up for down, up in _signatures(topology))
        if count > row_cap:
            raise RowCapError(
                f"nested triples exceed row cap {row_cap} "
                f"(the {len(lattice)}-element lattice has {count})"
            )
        self.graph, self.coeff, self.lattice, self.topology = g, coeff, lattice, topology
        self.store = SubquotientStore(g, coeff)
        n = len(lattice)
        self._members = [frozenset(lattice.members(i)) for i in range(n)]
        self.pieces = locally_closed_all(topology)
        entries = []
        for piece in self.pieces:
            outer, inner = piece.outer_index, piece.inner_index
            pair = self.store.get(self._members[inner], self._members[outer])
            members = lattice.members(outer), lattice.members(inner)
            entries.append(TableEntry(piece, *members, pair.graph, pair.k0, pair.k1))
        self.entries = tuple(entries)
        self._by_difference = {e.piece.difference: e for e in entries}
        self.row_triples = tuple(
            (i, j, p)
            for i in range(n)
            for j in range(i, n)
            if lattice.leq(i, j)
            for p in range(j, n)
            if lattice.leq(j, p)
        )
        self._rows, self._signatures = {}, {}

    def row(self, trip) -> SixTermRow | None:
        """The row of a lattice triple; None when the triple is not nested
        (indices rise along the order)."""
        row = self._rows.get(trip)
        if row is None:
            i, j, p = trip
            if not (i <= j <= p and self.lattice.leq(i, j) and self.lattice.leq(j, p)):
                return None
            row = self._rows[trip] = _build_row(self.store, *(self._members[k] for k in trip))
        return row

    def signature(self, trip):
        """:func:`_row_signature` of the row of a nested triple, computed once."""
        sig = self._signatures.get(trip)
        if sig is None:
            sig = self._signatures[trip] = _row_signature(self.row(trip))
        return sig

    @property
    def rows(self) -> tuple[SixTermRow, ...]:
        """Every row, in the order of ``row_triples``."""
        return tuple(self.row(trip) for trip in self.row_triples)

    @property
    def all_rows_exact(self):
        return all(r.exact for r in self.rows)


def fkbar(
    g: Graph,
    coeff: CoeffGroup,
    lattice_cap: int = 4096,
    row_cap: int = 65_536,
) -> FilteredKTable:
    """Compute the filtered table: an entry per piece, a row per ideal triple.

    Each row's checks run at construction and its node verdicts are
    decided when first read; ``all_rows_exact`` reads and summarizes them
    rather than hiding them.  Every subquotient an entry or a row
    needs is built once, with its K-groups, and shared, and so is the
    body of each positional row shape with its exactness verdict.  Raises RowCapError
    before any entry is built when the lattice has more than ``row_cap``
    nested triples; otherwise builds every row before it returns.
    """
    table = FilteredKTable(g, coeff, lattice_cap, row_cap)
    for trip in table.row_triples:
        table.row(trip)
    return table


# ---------------------------------------------------------------------------
# row signatures
# ---------------------------------------------------------------------------


def _row_signature(row: SixTermRow):
    """Invariant tuple of a six-term row: group classes and map classes.

    Map classes are the kernel/image/cokernel triples of the five maps of
    the row skeleton, so equal signatures mean no Z-level rank or invariant
    factor tells the rows apart.  The group and map classes are those of
    the store's record of the skeleton, computed once per row shape; the
    K1bar classes are kept by each group.
    """
    groups, maps = row._record.classes
    return (groups, tuple(kb.class_key for kb in row.k1bars), maps)


# ---------------------------------------------------------------------------
# element-level isomorphism search (small groups only)
# ---------------------------------------------------------------------------

_NODE_CANDIDATE_CAP = 64
_TORSION_ORDER_CAP = 10_000
_FREE_RANK_CAP = 3
_FREE_ENTRY_BOUND = 2


@lru_cache(maxsize=2048)
def _iso_candidates(dom: PresentedGroup, cod: PresentedGroup):
    """All isomorphism matrices between two groups in Smith coordinates.

    The two groups have equal moduli tuples: equal group classes give equal
    moduli, since Smith coordinates list the torsion as an ascending
    invariant-factor chain followed by the free zeros.  Returns
    (candidates, complete): candidates is a tuple of matrices, never empty,
    since every diagonal entry may be 1 and every other entry 0, so the
    identity is listed; complete is False when free coordinates were
    truncated to the entry bound.  Returns None when the enumeration would
    exceed the node cap.
    """
    dom_moduli, cod_moduli = _moduli(dom), _moduli(cod)
    per_entry = []
    for mi in cod_moduli:
        for mj in dom_moduli:
            if mi > 0 and mj > 0:
                step = mi // math.gcd(mi, mj)
                per_entry.append(range(0, mi, step))
            elif mi > 0:
                per_entry.append(range(mi))
            elif mj > 0:
                per_entry.append((0,))
            else:
                per_entry.append(range(-_FREE_ENTRY_BOUND, _FREE_ENTRY_BOUND + 1))
    if math.prod(map(len, per_entry)) > _NODE_CANDIDATE_CAP:
        return None
    complete = all(m > 0 for m in dom_moduli)
    k_cod, k_dom = len(cod_moduli), len(dom_moduli)
    relations = IntMatrix.diagonal(cod_moduli, rows=k_cod, cols=k_cod)
    out = []
    for flat in itertools.product(*per_entry):
        mat = IntMatrix._trusted(
            tuple(flat[i * k_dom : (i + 1) * k_dom] for i in range(k_cod)), k_dom
        )
        if PresentedGroup(mat.hstack(relations)).invariants().is_trivial():
            out.append(mat)
    return tuple(out), complete


def _squares_commute(beta, f_a, f_b, alpha, moduli) -> bool:
    """Does beta f_a = f_b alpha hold, each row modulo its modulus?"""
    return not any(map(any, _residues(beta @ f_a - f_b @ alpha, moduli)))


def _row_element_check(row_a: SixTermRow, row_b: SixTermRow):
    """Search for a commuting system of node isomorphisms between two rows.

    The rows have equal signatures, so each pair of nodes has equal moduli
    and a nonempty candidate list (see :func:`_iso_candidates`).  Returns
    (outcome, complete).  The outcome is "passed", "refuted" (full coverage,
    no system exists), or "skipped" / "inconclusive" when caps or entry
    bounds got in the way.  ``complete`` says that no node has a free
    coordinate, so the candidates listed cover every isomorphism.  The chain
    shape of the diagram lets a forward arc-consistency pass decide
    existence exactly, so only a square that no listed pair of node
    isomorphisms makes commute refutes.  Everything runs on the rows'
    skeletons in Smith coordinates (``SixTermRow.reduced``).
    """
    nodes_a, nodes_b = (
        (row.reduced[0].domain,) + tuple(f.codomain for f in row.reduced)
        for row in (row_a, row_b)
    )
    moduli_b = [_moduli(n) for n in nodes_b]
    for moduli in map(_moduli, nodes_a):
        torsion = math.prod(m for m in moduli if m)
        if torsion > _TORSION_ORDER_CAP or moduli.count(0) > _FREE_RANK_CAP:
            return "skipped", False
    candidate_sets = []
    complete = True
    for na, nb in zip(nodes_a, nodes_b):
        found = _iso_candidates(na, nb)
        if found is None:
            return "skipped", False
        cands, full = found
        candidate_sets.append(cands)
        complete = complete and full
    viable = candidate_sets[0]
    for k in range(5):
        moduli = moduli_b[k + 1]
        if not (moduli_b[k] and moduli):
            # a square with a trivial corner commutes for every beta
            viable = candidate_sets[k + 1]
            continue
        f_a, f_b = row_a.reduced[k].matrix, row_b.reduced[k].matrix
        viable = [
            beta
            for beta in candidate_sets[k + 1]
            if any(_squares_commute(beta, f_a, f_b, alpha, moduli) for alpha in viable)
        ]
        if not viable:
            return ("refuted" if complete else "inconclusive"), complete
    return "passed", complete


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


_ENTRY_FACETS = ("K0", "K1bar free rank", "K1bar twisted part")


def _paired_entries(t1: FilteredKTable, t2: FilteredKTable, iso):
    """Each entry of the first table with the entry of the second whose
    piece is its image under the prime bijection of a lattice isomorphism.

    ``iso`` maps primes onto primes and every difference of nested opens
    onto one, so every entry has an image and both tables have as many
    entries (see :func:`compare_fkbar`)."""
    position = {p: idx for idx, p in enumerate(t2.topology.primes)}
    image = [position[iso[p]] for p in t1.topology.primes].__getitem__
    by_difference = t2._by_difference
    return [(e, by_difference[frozenset(map(image, d))]) for d, e in t1._by_difference.items()]


def _entry_verdicts(pairs) -> list[PieceVerdict]:
    """A verdict per pair of :func:`_paired_entries`; the class of every
    paired entry is read."""
    verdicts = []
    for e1, e2 in pairs:
        c1, c2 = e1.class_key, e2.class_key
        problems = []
        if c1 != c2:
            names = zip(_entry_names(e1), _entry_names(e2))
            problems = [
                f"{facet} {n1} vs {n2}"
                for facet, x1, x2, (n1, n2) in zip(_ENTRY_FACETS, c1, c2, names)
                if x1 != x2
            ]
        detail = "; ".join(problems) if problems else "entry classes agree"
        verdicts.append(PieceVerdict(tuple(sorted(e1.piece.difference)), not problems, detail))
    return verdicts


def _entry_names(e: TableEntry) -> tuple[str, str, str]:
    """How a mismatch message writes each facet of an entry's class."""
    k0, kernel_rank, _ = e.class_key
    return str(k0), str(kernel_rank), e.konebar.coker_part.symbol()


def _match_rows(t1: FilteredKTable, t2: FilteredKTable, iso, run_elements: bool):
    """Row verdicts under a lattice isomorphism, the first failure, and the
    element search outcomes.

    Every row pair's signatures are compared before any row's exactness
    is read or any element search runs: the signature classes take the
    kernels of matrices whose diagonals those read (see
    ``ktheory._Skeleton``), so each such matrix is eliminated once.
    """
    # an order isomorphism maps a nested triple to a nested triple
    pairs = [(trip, (iso[trip[0]], iso[trip[1]], iso[trip[2]])) for trip in t1.row_triples]
    same = [t1.signature(trip) == t2.signature(other) for trip, other in pairs]
    verdicts = []
    element_outcomes = []
    failure = ""
    for (trip, other_trip), matched in zip(pairs, same):
        row, other = t1.row(trip), t2.row(other_trip)
        problems = []
        if not matched:
            problems.append("map invariants differ")
        if not row.exact:
            problems.append("first table row failed exactness")
        if not other.exact:
            problems.append("second table row failed exactness")
        element = None
        if not problems and run_elements:
            element, complete = _row_element_check(row, other)
            element_outcomes.append((element, complete))
            if element == "refuted":
                problems.append("no commuting system of isomorphisms exists")
        detail = "; ".join(problems) if problems else "row matches"
        if element is not None and not problems:
            detail = f"row matches (element search: {element})"
        verdicts.append(RowVerdict(triple=trip, matched=not problems, detail=detail))
        if problems and not failure:
            failure = f"triple {trip}: {problems[0]}"
    return verdicts, failure, element_outcomes


def _element_check(element_outcomes) -> tuple[str, str]:
    """The report's element check and certification from the outcomes of
    the rows searched: "structural" when none was searched, "exhaustive"
    when every search passed over every candidate, else "bounded"."""
    outcomes = [e for e, _ in element_outcomes]
    if not outcomes:
        return "skipped", "structural"
    if all(e == "passed" for e in outcomes):
        return "passed", "exhaustive" if all(c for _, c in element_outcomes) else "bounded"
    return ("refuted" if "refuted" in outcomes else "inconclusive"), "bounded"


def compare_fkbar(
    g1: Graph,
    g2: Graph,
    coeff: CoeffGroup,
    se_intertwiner: IntMatrix | None = None,
    lattice_cap: int = 4096,
    element_search: bool = True,
    row_cap: int = 65_536,
) -> ComparisonReport:
    """Search the lattice isomorphisms for one matching the two tables.

    A shift-equivalence intertwiner, when supplied, proposes the first
    candidate; the rest are drawn lazily, and LatticeCapError is raised
    after ``_CANDIDATE_CAP`` failed candidates.  For each candidate the checks
    run in order: per-piece group classes, per-row map invariants plus
    exactness, then (for small groups) an element-level search for
    commuting isomorphism systems.  Both tables are built, each lattice
    checked against ``lattice_cap`` and ``row_cap``, with their entries
    before any candidate is tried.  An entry's class is computed once, when
    a candidate pairs it with an entry of another transfer matrix or the
    report's verdicts need it; a row is built only when a candidate matches
    every entry.  Each row and its signature are computed at most once,
    whatever the number of candidates.  The two tables share one body per
    positional row shape and one set of Smith coordinates, so each row
    shape is built, checked, decided and classed once, and each K0
    presentation reduced once.  So a
    comparison that fails at its entries runs no elimination that tracks a
    transform, and one whose candidate pairs equal transfer matrices
    eliminates no matrix twice.

    Every candidate pairs every piece and every row.  A candidate is an
    order isomorphism of finite distributive lattices:
    ``_iter_isomorphisms`` lifts a bijection s of the primes that maps the
    opens onto the opens, and ``transport_from_certificate`` returns only
    bijections it has checked to preserve order both ways.  An order
    isomorphism maps the meet-irreducible elements, which are the primes,
    onto the primes; the bijection s it induces on them maps each open, the
    set of primes not above an element, onto the open of the image.  So s
    maps each difference U minus V of nested opens onto the difference of
    their images, which are nested opens too: every piece of the first
    table has an image piece, and the tables have as many pieces.  It maps
    a nested triple onto a nested triple, whose indices rise because
    lattice indices extend inclusion, so every row of the first table has
    an image row.
    """
    t1 = FilteredKTable(g1, coeff, lattice_cap, row_cap)
    t2 = FilteredKTable(g2, coeff, lattice_cap, row_cap)
    t2.store._share(t1.store)

    candidates = _iter_isomorphisms(t1.topology, t2.topology)
    if se_intertwiner is not None:
        transported = transport_from_certificate(
            g1, g2, t1.lattice, t2.lattice, se_intertwiner
        )
        if transported is not None:
            candidates = itertools.chain(
                (transported,), (iso for iso in candidates if iso != transported)
            )

    # (mismatch count, candidate, entry pairs, row results) of the closest
    # failure, the first candidate winning ties; its verdicts are built once
    # the search has failed
    best = None
    for tried, iso in enumerate(candidates, 1):
        pairs = _paired_entries(t1, t2, iso)
        rows = None
        score = sum(not e1.same_class(e2) for e1, e2 in pairs)
        if not score:
            rows = _match_rows(t1, t2, iso, run_elements=element_search)
            row_verdicts, row_failure, element_outcomes = rows
            if not row_failure:
                element, certification = _element_check(element_outcomes)
                return ComparisonReport(
                    consistent=True,
                    obstruction="",
                    lattice_iso=iso,
                    group_matches=tuple(_entry_verdicts(pairs)),
                    map_matches=tuple(row_verdicts),
                    certification=certification,
                    element_check=element,
                )
            score = sum(1 for v in row_verdicts if not v.matched)
        if best is None or score < best[0]:
            best = (score, iso, pairs, rows)
        if tried > _CANDIDATE_CAP:
            raise LatticeCapError(
                f"more than {_CANDIDATE_CAP} lattice isomorphisms tried without a match"
            )

    pieces, rows, element = (), (), "skipped"
    if best is None:
        failure = "ideal lattices admit no order isomorphism"
    else:
        _, iso, pairs, found = best
        pieces = _entry_verdicts(pairs)
        if found is not None:
            rows, failure, element_outcomes = found
            element = _element_check(element_outcomes)[0]
        else:
            failure = next(v.detail for v in pieces if not v.matched)
    return ComparisonReport(
        consistent=False,
        obstruction=failure,
        lattice_iso=None,
        group_matches=tuple(pieces),
        map_matches=tuple(rows),
        certification="structural",
        element_check=element,
    )

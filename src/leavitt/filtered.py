"""Filtered K-theory: the full table over the ideal lattice, and comparison.

The table attaches to each canonical locally closed piece of the prime
spectrum the K0/K1bar pair of its subquotient, a block of the graph's
transfer matrix, and to each nested triple of ideals its verified
six-term row; no graph is built for either, and lattice elements stay
the vertex masks of ``IdealLattice.elements`` until a report asks for
vertex names.  Comparing two tables means drawing lattice isomorphisms
from the prime posets until one matches every entry class and every row
signature; a match is a necessary condition for the tables to be
isomorphic as diagrams, never a proof, and the report says so explicitly.

A comparison reads each row as its skeleton record (``ktheory._Skeleton``),
the row's maps in Smith coordinates, which every row with those maps
shares: one coordinate per invariant factor other than 1, so candidate
isomorphisms are listed on the invariant factors and no map is rewritten
per row pair.  Signature and exactness are decided once per record of the
tables' shared store, and the element search once per pair of records.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_

from .graphs import Graph
from .intlinalg import CoeffGroup, IntMatrix, PresentedGroup
from .ktheory import (
    SixTermRow,
    SubquotientK,
    SubquotientStore,
    _Skeleton,
    _moduli,
    _residues,
    _row_body,
    _smith_group,
)
from .lattice import (
    _LATTICE_CAP,
    IdealLattice,
    LatticeCapError,
    LocallyClosed,
    _iter_isomorphisms,
    _mask_closure,
    _signatures,
    enumerate_hsat,
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
_ROW_CAP = 65_536  # default nested ideal triples, one six-term row each

NECESSARY_ONLY_NOTE = (
    "a consistent report is a necessary condition for isomorphic filtered "
    "K-theory, not a proof of it"
)


@dataclass(frozen=True)
class TableEntry:
    """A locally closed piece with ``pair``, the record of its subquotient's
    block, which holds K0 (``k0``, its class ``k0_group``) and K1bar (``k1``)."""

    piece: LocallyClosed
    outer_members: tuple[str, ...]
    inner_members: tuple[str, ...]
    pair: SubquotientK

    @cached_property
    def class_key(self) -> tuple:
        """The entry's class, per facet of ``_ENTRY_FACETS``: the K0
        invariants, the K1bar kernel rank and the twisted class key, all
        read off the Smith diagonal of the transfer matrix."""
        return (self.pair.k0_group, *self.pair.k1.class_key)

    def same_class(self, other: TableEntry) -> bool:
        """Are the two entries of one class?  Read off their transfer
        matrices when those are equal, with no elimination."""
        return self.pair.km == other.pair.km or self.class_key == other.class_key


class RowCapError(RuntimeError):
    """Raised when a table would need more six-term rows than the cap."""


class FilteredKTable:
    """The filtered table of one graph: an entry per locally closed piece of
    the prime spectrum and a six-term row per nested ideal triple.

    The constructor counts the nested triples i <= j <= p, at each j as
    (#i <= j) * (#p >= j), and raises RowCapError past ``row_cap``.
    Lattice elements stay the vertex masks of ``lattice.elements``: an
    entry's pair record and a row's ``body``, its skeleton record, come
    from the table's subquotient ``store`` by mask.  A row's triple comes
    from the table's own lattice, so it is nested with a hereditary
    saturated middle set, and ``body`` skips that validation of
    :func:`~leavitt.ktheory.six_term_row`; every other check runs, once per
    shape, on the matrices every row of that shape carries.  The
    constructor builds no pair record: ``entries`` are built when first
    read, rows when looked up, so a caller may still have the store share
    another store's records (``SubquotientStore._share``).
    """

    def __init__(
        self, g: Graph, coeff: CoeffGroup, lattice_cap: int = _LATTICE_CAP, row_cap: int = _ROW_CAP
    ):
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
        self.pieces = locally_closed_all(topology)
        # indices extend inclusion, so the elements above i come after it
        n = len(lattice)
        above = [[j for j in range(i, n) if lattice.leq(i, j)] for i in range(n)]
        self.row_triples = tuple((i, j, p) for i in range(n) for j in above[i] for p in above[j])

    @cached_property
    def entries(self) -> tuple[TableEntry, ...]:
        """The entry of every piece, in the order of ``pieces``."""
        names, bits, entries = self.lattice.members, self.lattice.elements, []
        for piece in self.pieces:
            outer, inner = piece.outer_index, piece.inner_index
            _, pair = self.store.get(bits[outer] & ~bits[inner])
            entries.append(TableEntry(piece, names(outer), names(inner), pair))
        return tuple(entries)

    @cached_property
    def _by_difference(self) -> dict:
        return {e.piece.difference: e for e in self.entries}

    def body(self, trip) -> _Skeleton:
        """The skeleton record of a nested lattice triple, which the caller
        vouches for: one of ``row_triples``, or its image under a lattice
        isomorphism."""
        return _row_body(self.store, *map(self.lattice.elements.__getitem__, trip))

    @cached_property
    def bodies(self) -> tuple[_Skeleton, ...]:
        """The skeleton record of every row, in the order of
        ``row_triples``, each triple's looked up once."""
        return tuple(map(self.body, self.row_triples))

    def row(self, trip) -> SixTermRow | None:
        """The row of a lattice triple, its names over its skeleton record;
        None when the triple is not nested."""
        inner, middle, outer = (self.lattice.elements[k] for k in trip)
        if inner & ~middle or middle & ~outer:
            return None
        return SixTermRow(tuple(map(self.lattice.members, trip)), self.body(trip))

    @property
    def rows(self) -> tuple[SixTermRow, ...]:
        """Every row, in the order of ``row_triples``; rows share one name
        tuple per lattice element."""
        names = list(map(self.lattice.members, range(len(self.lattice))))
        return tuple(
            SixTermRow((names[i], names[j], names[p]), body)
            for (i, j, p), body in zip(self.row_triples, self.bodies)
        )

    @property
    def all_rows_exact(self):
        return all(body.exact for body in self.bodies)


def fkbar(
    g: Graph,
    coeff: CoeffGroup,
    lattice_cap: int = _LATTICE_CAP,
    row_cap: int = _ROW_CAP,
) -> FilteredKTable:
    """Compute the filtered table: an entry per piece, a row per ideal triple.

    Each row shape's checks run at construction and its node verdicts are
    decided when first read; ``all_rows_exact`` reads and summarizes them
    rather than hiding them.  Every pair an entry or a row needs is read
    once per distinct adjacency block, as that block's record with its
    K-groups, and shared, and so is the skeleton record of each positional
    row shape with its exactness verdict.  Raises RowCapError before any
    pair is built when the lattice has more than ``row_cap`` nested
    triples; otherwise looks up the record of every row before it
    returns.
    """
    table = FilteredKTable(g, coeff, lattice_cap, row_cap)
    table.bodies  # builds the skeleton record of every row
    return table


# ---------------------------------------------------------------------------
# element-level isomorphism search (small groups only)
# ---------------------------------------------------------------------------

_NODE_CANDIDATE_CAP = 64
_FREE_ENTRY_BOUND = 2


def _iso_candidates(moduli: tuple):
    """All isomorphism matrices between two groups in Smith coordinates
    with these moduli (see ``ktheory._moduli``), or None when the
    enumeration would exceed the node cap.

    Two nodes that a search pairs have equal moduli tuples: equal group
    classes give equal moduli, since Smith coordinates list the torsion as
    an ascending invariant-factor chain followed by the free zeros.  So
    one tuple keys the candidates of both.  An entry runs over
    every homomorphism between its two coordinates, except that a
    free-to-free entry runs over the entry bound.  That truncates nothing
    that is listed: two free coordinates give at least 5^4 = 625
    candidates, past the node cap, and on one free coordinate an
    isomorphism's free entry is a unit, +1 or -1 (GL1(Z) = {±1}).  So the
    tuple returned lists every isomorphism.  It is never empty, since
    every diagonal entry may be 1 and every other entry 0, so the identity
    is listed.
    """
    per_entry = []
    for mi in moduli:
        for mj in moduli:
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
    k = len(moduli)
    relations = _smith_group(moduli).relations
    out = []
    for flat in itertools.product(*per_entry):
        mat = IntMatrix._trusted(tuple(flat[i * k : (i + 1) * k] for i in range(k)), k)
        if PresentedGroup(mat.hstack(relations)).invariants().is_trivial():
            out.append(mat)
    return tuple(out)


def _squares_commute(beta, f_a, f_b, alpha, moduli) -> bool:
    """Does beta f_a = f_b alpha hold, each row modulo its modulus?"""
    return not any(map(any, _residues(beta @ f_a - f_b @ alpha, moduli)))


def _row_element_check(a: _Skeleton, b: _Skeleton, candidates: dict):
    """Search for a commuting system of node isomorphisms between the rows
    of two skeleton records of equal signatures.  Returns "passed",
    "refuted" (no system exists), or "skipped" when a node has more
    candidates than the node cap.

    A record passes against itself.  Two rows with one skeleton in Smith
    coordinates are each isomorphic to it, through the Smith-coordinate
    isomorphisms of their groups, so the identity at each node of the
    record is a commuting system between them.  That rule comes first
    because it also decides pairs whose nodes are past the node cap, which
    the search would skip.  Any other pair goes to
    :func:`_skeleton_element_search` on the two records' maps, whose
    outcome depends on those two skeletons alone.
    """
    if a is b:
        return "passed"
    return _skeleton_element_search(a.maps, b.maps, candidates)


def _skeleton_element_search(maps_a, maps_b, candidates: dict):
    """The element search of :func:`_row_element_check` on two skeletons
    in Smith coordinates.

    Each pair of nodes has equal moduli and one nonempty candidate list
    (see :func:`_iso_candidates`), kept in ``candidates`` by moduli tuple:
    a comparison passes its store's, so each list is built once per op.
    Listed candidates are all of a node's isomorphisms, and
    the diagram is a chain, so a forward arc-consistency pass decides
    existence exactly: a search that is not skipped is exhaustive.
    """
    moduli = [_moduli(maps_a[0].domain)] + [_moduli(f.codomain) for f in maps_a]
    candidate_sets = []
    for node in moduli:
        if node not in candidates:
            candidates[node] = _iso_candidates(node)
        cands = candidates[node]
        if cands is None:
            return "skipped"
        candidate_sets.append(cands)
    viable = candidate_sets[0]
    for k, (f_a, f_b) in enumerate(zip(maps_a, maps_b)):
        cod = moduli[k + 1]
        if not (moduli[k] and cod):
            # a square with a trivial corner commutes for every beta
            viable = candidate_sets[k + 1]
            continue
        viable = [
            beta
            for beta in candidate_sets[k + 1]
            if any(_squares_commute(beta, f_a.matrix, f_b.matrix, alpha, cod) for alpha in viable)
        ]
        if not viable:
            return "refuted"
    return "passed"


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


def transport_from_certificate(
    g1: Graph, g2: Graph, lattice1: IdealLattice, lattice2: IdealLattice, r_matrix: IntMatrix
):
    """Candidate lattice map induced by a shift-equivalence intertwiner.

    Sends an ideal to the saturated closure of the vertices its members hit
    through R, on vertex masks: the closure of the OR of the hit masks of
    R's rows at the ideal's vertices.  Returns the index map when it lands
    bijectively on the second lattice and preserves order both ways;
    otherwise None.  Always verified, never trusted.
    """
    if r_matrix.shape != (g1.num_vertices, g2.num_vertices):
        return None
    hits = [sum(1 << j for j, x in enumerate(row) if x) for row in r_matrix.data]
    _, _, close = _mask_closure(g2)
    images = []
    for h in lattice1.elements:
        seed = reduce(or_, (hit for i, hit in enumerate(hits) if h >> i & 1), 0)
        images.append(lattice2._index.get(close(seed)))
    if None in images or sorted(images) != list(range(len(lattice2))):
        return None
    mapping = tuple(images)
    n = len(lattice1)
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
    element-level search skipped some pair of row skeletons (a node past
    the candidate cap), "exhaustive" when the search of every pair of
    skeletons the rows pair covered every system of node isomorphisms.
    The search runs once per pair of skeleton records, and each
    ``map_matches`` verdict is that of its row's pair.  ``note`` flags
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
    return str(k0), str(kernel_rank), e.pair.k1.coker_part.symbol()


def _match_rows(t1: FilteredKTable, t2: FilteredKTable, iso, run_elements: bool):
    """Row verdicts under a lattice isomorphism, the first failure, and the
    element search outcomes, one per pair of skeleton records searched.

    Everything is read on the rows' records, and a row's verdict depends
    on nothing else, so it is decided once per distinct pair of records and
    stamped on every triple of that pair.  A record matches itself without
    reading its signature (see :func:`_row_element_check`).  Element search
    outcomes of distinct records are kept in the tables' shared store,
    keyed by the pair, so the candidates of one comparison search each
    pair once.
    """
    searches, candidates = t1.store._searches, t1.store._candidates
    # an order isomorphism maps a nested triple to a nested triple
    pairs = [
        (body, t2.body((iso[i], iso[j], iso[p])))
        for (i, j, p), body in zip(t1.row_triples, t1.bodies)
    ]
    same = {(a, b): a is b or a.signature == b.signature for a, b in pairs}
    decided = {}
    element_outcomes = []
    for (body, other), matched in same.items():
        problems = []
        if not matched:
            problems.append("map invariants differ")
        if not body.exact:
            problems.append("first table row failed exactness")
        if not other.exact:
            problems.append("second table row failed exactness")
        detail = "row matches"
        if not problems and run_elements:
            element = searches.get((body, other))
            if element is None:
                element = _row_element_check(body, other, candidates)
                if body is not other:  # a record passes against itself at once
                    searches[body, other] = element
            element_outcomes.append(element)
            if element == "refuted":
                problems.append("no commuting system of isomorphisms exists")
            else:
                detail = f"row matches (element search: {element})"
        decided[body, other] = problems, "; ".join(problems) or detail
    verdicts = []
    failure = ""
    for trip, pair in zip(t1.row_triples, pairs):
        problems, detail = decided[pair]
        verdicts.append(RowVerdict(triple=trip, matched=not problems, detail=detail))
        if problems and not failure:
            failure = f"triple {trip}: {problems[0]}"
    return verdicts, failure, element_outcomes


def _element_check(element_outcomes) -> tuple[str, str]:
    """The report's element check and certification from the outcomes of
    the pairs of skeleton records searched: "structural" when none was
    searched, "exhaustive" when every search passed, else "bounded".  A
    search that is not skipped covers every isomorphism, so on a consistent
    report "bounded" means some pair was skipped, and the element check
    reads "inconclusive"."""
    if not element_outcomes:
        return "skipped", "structural"
    if all(e == "passed" for e in element_outcomes):
        return "passed", "exhaustive"
    return ("refuted" if "refuted" in element_outcomes else "inconclusive"), "bounded"


def compare_fkbar(
    g1: Graph,
    g2: Graph,
    coeff: CoeffGroup,
    se_intertwiner: IntMatrix | None = None,
    lattice_cap: int = _LATTICE_CAP,
    element_search: bool = True,
    row_cap: int = _ROW_CAP,
) -> ComparisonReport:
    """Search the lattice isomorphisms for one matching the two tables.

    A shift-equivalence intertwiner, when supplied, proposes the first
    candidate; the rest are drawn lazily, and LatticeCapError is raised
    after ``_CANDIDATE_CAP`` failed candidates.  For each candidate the checks
    run in order: per-piece group classes, per-row map invariants plus
    exactness, then (for small groups) an element-level search for
    commuting isomorphism systems.  Both tables are built, each lattice
    checked against ``lattice_cap`` and ``row_cap``, before any candidate
    is tried, and the second table's store shares the first's records
    before either builds one, so every adjacency block of the two graphs
    has one pair record, with its row shapes and reduced K0 presentation,
    and every skeleton in Smith coordinates one skeleton record.  An entry
    is built when a candidate first pairs it, and its class computed once,
    when a candidate pairs it with an entry of another transfer matrix or
    the report needs it.  A row shape is built and checked once, only when
    a candidate matches every entry, each skeleton record decided and
    classed once, and each pair of skeleton records that a candidate pairs
    searched once; a row whose image row has its skeleton has its record,
    and passes by the identity without reading its signature.  So a
    comparison that fails at its entries runs no elimination that tracks a
    transform, and one whose candidate pairs equal transfer matrices
    eliminates no matrix twice.

    When colour refinement matches the second graph onto the first
    (``Graph._alignment``), the second store reads each block in the first
    graph's vertex order: a copy declared in another order then builds no
    pair record, shape or skeleton record of its own, and a row paired with
    its image under the vertex bijection has its record.

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

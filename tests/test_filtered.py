"""Filtered K-theory tables and graph-to-graph comparison."""

import contextlib
import dataclasses
import io
import itertools
import json
import random

import pytest

import helpers as H
import leavitt.filtered as filtered
import leavitt.intlinalg as intlinalg
import leavitt.ktheory as ktheory
from leavitt import cli
from leavitt.filtered import RowCapError, compare_fkbar, fkbar, transport_from_certificate
from leavitt.graphs import (
    Graph,
    _refine,
    graph_from_matrix,
    graph_to_text,
    parse_graph,
    relabel,
    subquotient,
)
from leavitt.intlinalg import CoeffGroup, FgAbGroup, IntMatrix, PresentedGroup
from leavitt.ktheory import k0, k1, k_matrix, six_term_row
from leavitt.lattice import IdealLattice, LatticeCapError, enumerate_hsat, hsat_closure
from leavitt.shifts import shift_equivalent_bounded
from walls import poset_loops


COEFF = CoeffGroup.reduced_units_of_field(5)


def ones_graph():
    return graph_from_matrix(IntMatrix([[1, 1], [1, 1]]))


def shuffled_posets(n, order_seed):
    """``poset_loops(n, 0.3, 1)`` and the copy declared in the order that
    ``order_seed`` shuffles."""
    return [parse_graph(poset_loops(n, 0.3, 1, order_seed=s)) for s in (None, order_seed)]


class TestTable:
    def test_fan_structure(self, fan):
        t = fkbar(fan, COEFF)
        assert len(t.pieces) == 4
        assert len(t.entries) == 4
        assert len(t.rows) == 16
        assert t.all_rows_exact
        k0s = sorted(str(e.pair.k0.invariants()) for e in t.entries)
        assert k0s == ["0", "Z", "Z", "Z^2"]

    def test_rose2_vanishes(self, rose2):
        t = fkbar(rose2, CoeffGroup.reduced_units_of_field(3))
        assert len(t.pieces) == 2  # one graded prime, so two spectrum subsets
        for e in t.entries:
            if not e.piece.difference:
                continue
            assert e.pair.k0.invariants() == FgAbGroup.from_parts(0, ())
            assert e.pair.k1.isomorphism_class() == FgAbGroup.from_parts(0, ())

    def test_full_spectrum_entry_is_global_invariant(self, corpus):
        for g in corpus[:40]:
            t = fkbar(g, COEFF)
            full = frozenset(range(len(t.topology.primes)))
            [entry] = [e for e in t.entries if e.piece.difference == full]
            assert entry.pair.k0.invariants() == k0(g).invariants()
            expected = k1(g, COEFF).isomorphism_class()
            assert entry.pair.k1.isomorphism_class() == expected

    def test_empty_difference_entry_is_trivial(self, corpus):
        for g in corpus[:40]:
            t = fkbar(g, COEFF)
            [entry] = [e for e in t.entries if not e.piece.difference]
            assert entry.pair.k0.invariants() == FgAbGroup.from_parts(0, ())
            sub = subquotient(g, entry.inner_members, entry.outer_members)
            assert sub.num_vertices == 0
            assert entry.pair.k0.relations == k_matrix(sub) == IntMatrix.zeros(0, 0)

    def test_entry_for_lookup(self, fan):
        t = fkbar(fan, COEFF)
        for piece in t.pieces:
            assert [e.piece for e in t.entries if e.piece == piece] == [piece]

    def test_rows_cover_all_nested_triples(self, fan):
        t = fkbar(fan, COEFF)
        lat = t.lattice
        n = len(lat.elements)
        expected = sum(
            1
            for i in range(n)
            for j in range(i, n)
            if lat.leq(i, j)
            for p in range(j, n)
            if lat.leq(j, p)
        )
        assert len(t.rows) == expected == len(t.row_triples)

    def test_row_triples_are_the_nested_triples_in_order(self, corpus):
        for g in corpus[:40]:
            t = filtered.FilteredKTable(g, COEFF)
            lat, n = t.lattice, len(t.lattice)
            nested = tuple(
                (i, j, p)
                for i in range(n)
                for j in range(i, n)
                if lat.leq(i, j)
                for p in range(j, n)
                if lat.leq(j, p)
            )
            assert t.row_triples == nested, g

    def test_tables_and_rows_build_no_graph(self, corpus, monkeypatch):
        # every entry and row is read off blocks of the parsed graph's
        # matrices; a relabelled copy is built before the count starts
        graphs = [(g, relabel(g, {v: v + "c" for v in g.vertices})) for g in corpus[:30]]
        built = []
        init = Graph.__init__

        def counting(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(Graph, "__init__", counting)
        for g, copy in graphs:
            table = fkbar(g, COEFF)
            assert compare_fkbar(g, copy, COEFF).consistent
            trip = table.row_triples[-1]
            six_term_row(g, *(table.lattice.members(k) for k in trip), COEFF)
        assert built == []

    def test_referential_integrity(self, corpus):
        # the same nested pair must show the same groups in every row
        for g in corpus[:25]:
            t = fkbar(g, COEFF)
            seen = {}
            for idx_triple, row in zip(t.row_triples, t.rows):
                i, j, p = idx_triple
                slots = [((i, j), 0), ((i, p), 1), ((j, p), 2)]
                for pair, slot in slots:
                    part = row.body.pairs[slot]
                    inv = (part.k0.invariants(), part.k1.isomorphism_class(), part.k1.symbol())
                    if pair in seen:
                        assert seen[pair] == inv, (g, pair)
                    else:
                        seen[pair] = inv

    def test_rows_exact_on_sample(self, corpus):
        for g in corpus[:25]:
            assert fkbar(g, COEFF).all_rows_exact

    def test_relabel_gives_same_entry_invariants(self, corpus):
        rng = random.Random(37)
        for g in corpus[:20]:
            names = list(g.vertices)
            rng.shuffle(names)
            g2 = relabel(g, {v: f"u{i}_{n}" for i, (v, n) in enumerate(zip(g.vertices, names))})
            t1 = fkbar(g, COEFF)
            t2 = fkbar(g2, COEFF)
            inv1 = sorted(
                (len(e.piece.difference), str(e.pair.k0.invariants()), e.pair.k1.symbol())
                for e in t1.entries
            )
            inv2 = sorted(
                (len(e.piece.difference), str(e.pair.k0.invariants()), e.pair.k1.symbol())
                for e in t2.entries
            )
            assert inv1 == inv2


BODY_FIELDS = ("maps", "nodes")


def pair_classes(body):
    """The K0 and K1bar classes of a skeleton record's pair records, which
    its rows print: the K0 invariants, the kernel rank and the twisted
    cokernel of each."""
    return tuple((p.k0.invariants(), p.k1.kernel_rank, p.k1.coker_part) for p in body.pairs)


class TestSharedSubquotients:
    """A table builds each subquotient once; every row and entry must still
    equal what a standalone computation gives for it."""

    @pytest.mark.parametrize(
        "coeff",
        [CoeffGroup.symbolic("Gbar"), COEFF],
        ids=["symbolic", "field5"],
    )
    def test_rows_and_entries_match_fresh_computation(self, corpus, coeff):
        rows = 0
        for g in corpus:
            t = fkbar(g, coeff)
            for row in t.rows:
                fresh = six_term_row(g, *row.triple, coeff)
                assert row.triple == fresh.triple
                body, fresh = row.body, fresh.body
                for name in BODY_FIELDS:
                    assert getattr(body, name) == getattr(fresh, name), (g, row.triple, name)
                assert pair_classes(body) == pair_classes(fresh), (g, row.triple)
                rows += 1
            for e in t.entries:
                sub = subquotient(g, e.inner_members, e.outer_members)
                assert e.pair.k0.relations == k_matrix(sub), (g, e.piece)
                assert e.pair.k0 == k0(sub), (g, e.piece)
                assert e.pair.k1 == k1(sub, coeff), (g, e.piece)
        assert rows == 1491

    def test_one_pair_record_per_difference(self):
        # a pair depends on its difference mask alone: the 3^k nested pairs
        # of k disjoint loops have 2^k differences, and those share one
        # record per block, the k + 1 identity matrices
        for k in range(3, 7):
            table = fkbar(H.disjoint_loops(k), COEFF)
            assert len(table.row_triples) == 4**k
            assert len(table.store._pairs) == 2**k and len(table.store._records) == k + 1


class TestRowCap:
    def test_cap_counts_nested_triples_before_rows(self, fan):
        assert len(fkbar(fan, COEFF, row_cap=16).rows) == 16
        with pytest.raises(RowCapError, match="row cap 15"):
            fkbar(fan, COEFF, row_cap=15)

    def test_boolean_lattice_has_four_to_the_k_triples(self):
        g = H.disjoint_loops(3)
        assert len(fkbar(g, COEFF, row_cap=64).rows) == 64
        with pytest.raises(RowCapError):
            fkbar(g, COEFF, row_cap=63)

    def test_compare_passes_the_cap_on(self, fan):
        with pytest.raises(RowCapError):
            compare_fkbar(fan, fan, COEFF, row_cap=15)


class TestCompare:
    def test_body_work_once_per_body(self, monkeypatch):
        g = H.disjoint_loops(3)
        calls = {"signature": [], "exact": [], "element": []}
        for name in ("signature", "exact"):
            prop = vars(ktheory._Skeleton)[name]

            def counting(body, compute=prop.func, name=name):
                calls[name].append(body)
                return compute(body)

            monkeypatch.setattr(prop, "func", counting)
        search = filtered._row_element_check

        def counting_search(a, b, candidates):
            calls["element"].append((a, b))
            return search(a, b, candidates)

        monkeypatch.setattr(filtered, "_row_element_check", counting_search)
        rep = compare_fkbar(g, g, COEFF)
        assert rep.consistent and len(rep.map_matches) == 64
        assert all(v.matched for v in rep.map_matches)
        # the 64 rows of each table have 15 skeleton records between them,
        # each paired with itself: one exactness verdict per record and one
        # element search per pair of records, not one per row or per
        # candidate, and no signature, since a record matches itself
        records = set(calls["exact"])
        assert len(records) == len(calls["exact"]) == 15 and calls["signature"] == []
        assert len(calls["element"]) == len(set(calls["element"])) == 15
        assert all(a is b for a, b in calls["element"])

    def test_searches_kept_only_by_a_comparison(self, monkeypatch):
        # an fk table searches no pair of records, so its store keeps no
        # outcome; a comparison keeps each outcome in the shared store,
        # keyed by the pair of records, and a repeated pair reads it back
        # without a search.  The pair is one the compare cannot align, so
        # its rows pair distinct records
        graphs = H.unaligned_pair(*shuffled_posets(3, 1))
        for g in graphs:
            assert fkbar(g, COEFF).store._searches == {}
        iso = compare_fkbar(*graphs, COEFF).lattice_iso
        t1, t2 = (filtered.FilteredKTable(g, COEFF) for g in graphs)
        t2.store._share(t1.store)
        calls = []
        search = filtered._skeleton_element_search

        def counting(maps_a, maps_b, candidates):
            calls.append((maps_a, maps_b))
            return search(maps_a, maps_b, candidates)

        monkeypatch.setattr(filtered, "_skeleton_element_search", counting)
        first = filtered._match_rows(t1, t2, iso, run_elements=True)
        images = (t2.body(tuple(iso[k] for k in trip)) for trip in t1.row_triples)
        pairs = set(zip(t1.bodies, images))
        searched = {(a, b) for a, b in pairs if a is not b and a.signature == b.signature}
        assert len(calls) == len(searched) > 0
        assert all((a, b) in t1.store._searches for a, b in searched)
        calls.clear()
        assert filtered._match_rows(t1, t2, iso, run_elements=True) == first and calls == []

    def test_row_passes_call_no_leq(self, monkeypatch):
        # only the ``above`` lists of ``row_triples`` compare lattice
        # elements, one call per i <= j of each 32-element table; fkbar's
        # row pass and _match_rows read every body by mask
        g = H.disjoint_loops(5)
        calls = []
        leq = IdealLattice.leq

        def counting(self, i, j):
            calls.append((i, j))
            return leq(self, i, j)

        monkeypatch.setattr(IdealLattice, "leq", counting)
        table = fkbar(g, COEFF)
        assert H.shape_count(table.store) == 2**6 - 1 and len(calls) == 32 * 33 // 2
        calls.clear()
        rep = compare_fkbar(g, g, COEFF)
        assert rep.consistent and len(rep.map_matches) == 4**5
        assert len(calls) == 2 * 32 * 33 // 2

    def test_rows_are_built_on_request(self):
        g = H.disjoint_loops(2)
        t = filtered.FilteredKTable(g, COEFF)
        trip = (0, 1, 3)  # empty set, one loop, both loops
        assert trip in t.row_triples and not H.shape_count(t.store)
        row = t.row(trip)
        assert row.triple == ((), ("x0",), ("x0", "x1")) and H.shape_count(t.store) == 1
        again = t.row(trip)
        assert again == row and again.body is row.body and H.shape_count(t.store) == 1
        # another table's row has its own skeleton record, equal in its maps
        # and classes
        other = fkbar(g, COEFF).row(trip)
        assert row.triple == other.triple and row.body is not other.body
        assert row.body.maps == other.body.maps
        assert pair_classes(row.body) == pair_classes(other.body)
        # indices rise along the order, so the reversed triple is not nested
        assert t.row(trip[::-1]) is None and H.shape_count(t.store) == 1

    def test_skeletons_decided_once_across_both_tables(self, monkeypatch):
        g = H.disjoint_loops(3)
        calls = []
        original = ktheory._skeleton_nodes

        def counting(maps, coeff):
            calls.append(maps)
            return original(maps, coeff)

        monkeypatch.setattr(ktheory, "_skeleton_nodes", counting)
        assert compare_fkbar(g, g, COEFF).consistent
        # the 64 rows of each table have 15 distinct skeletons between them
        assert len(calls) == len(set(calls)) == 15


    def test_map_invariants_once_per_skeleton(self, monkeypatch):
        g = H.disjoint_loops(3)
        table = fkbar(g, COEFF)
        skeletons = {H.row_skeleton(table.store, row) for row in table.rows}
        calls, read = [], []
        original = ktheory.map_invariants
        signature = vars(ktheory._Skeleton)["signature"]

        def counting(*args):
            calls.append(args)
            return original(*args)

        def reading(record, compute=signature.func):
            read.append(record)
            return compute(record)

        monkeypatch.setattr(ktheory, "map_invariants", counting)
        monkeypatch.setattr(signature, "func", reading)
        assert compare_fkbar(g, g, COEFF, element_search=False).consistent
        # each of the 15 distinct skeletons of 64 rows is paired with its own
        # record, which matches without a signature
        assert len(skeletons) == 15 and calls == [] and read == []
        # against a shuffled declaration order that the compare cannot align
        # records differ: both tables share one memo, five maps per record
        # whose signature is read
        graphs = H.unaligned_pair(*shuffled_posets(8, 5))
        assert compare_fkbar(*graphs, COEFF, element_search=False).consistent
        assert len(read) == len(set(read)) == 311
        assert len(calls) == 5 * len(read)

    @pytest.mark.parametrize(
        "coeff", [COEFF, CoeffGroup.symbolic("Gbar")], ids=["field5", "symbolic"]
    )
    def test_rows_on_one_skeleton_pass_by_identity(self, coeff):
        # two rows of other shapes with one skeleton in Smith coordinates
        # are each isomorphic to it, so the identity of the shared store's
        # record is a commuting system between them, even where the node
        # cap would skip the search; the pair is one the compare cannot
        # align, so rows keep their own shapes
        graphs = H.unaligned_pair(*shuffled_posets(3, 1))
        rep = compare_fkbar(*graphs, coeff)
        assert rep.consistent and rep.element_check == "inconclusive"
        t1, t2 = (fkbar(g, coeff) for g in graphs)
        shared, alone = 0, set()
        for verdict in rep.map_matches:
            trip = verdict.triple
            a, b = t1.body(trip), t2.body(tuple(rep.lattice_iso[k] for k in trip))
            if a.maps != b.maps:
                continue
            assert verdict.detail == "row matches (element search: passed)", trip
            shared += 1
            alone.add(filtered._skeleton_element_search(a.maps, b.maps, {}))
        assert shared == 136 and alone == {"passed", "skipped"}
        # aligned, the copy's every row is its image's record, and the
        # identity passes records whose own search the node cap skips
        graphs = shuffled_posets(3, 1)
        rep = compare_fkbar(*graphs, coeff)
        assert rep.certification == "exhaustive" and rep.element_check == "passed"
        records = set(fkbar(graphs[0], coeff).bodies)
        assert {filtered._skeleton_element_search(r.maps, r.maps, {}) for r in records} == alone

    def test_entry_classes_once_per_table(self, monkeypatch):
        g = H.disjoint_loops(3)
        doubled = Graph(g.vertices, g.edges + (("extra", "x0", "x0"),))
        blocks = {
            subquotient(x, e.inner_members, e.outer_members).adjacency()
            for x in (g, doubled)
            for e in fkbar(x, COEFF).entries
        }
        calls = []
        invariants = PresentedGroup.invariants

        def counting(self):
            calls.append(self)
            return invariants(self)

        monkeypatch.setattr(PresentedGroup, "invariants", counting)
        candidates = filtered._iter_isomorphisms
        reports = []
        for limit in (1, 6):  # every one of the 6 cube automorphisms fails
            monkeypatch.setattr(
                filtered,
                "_iter_isomorphisms",
                lambda t1, t2, limit=limit: itertools.islice(candidates(t1, t2), limit),
            )
            calls.clear()
            reports.append(compare_fkbar(g, doubled, COEFF))
            # one K0 class per adjacency block of the 16 entries of the two
            # tables, which share its record, however many candidates fail,
            # and no other group's invariants
            assert len(calls) == len(blocks) == 7
        assert not reports[0].consistent and reports[0] == reports[1]

    def test_rose_pair_obstruction(self, rose2, rose3):
        rep = compare_fkbar(rose2, rose3, COEFF)
        assert not rep.consistent
        assert "K0" in rep.obstruction
        assert rep.certification == "structural"
        assert rep.element_check == "skipped"

    def test_rose2_vs_full_shift_splitting(self, rose2):
        rep = compare_fkbar(rose2, ones_graph(), COEFF)
        assert rep.consistent
        assert rep.certification == "exhaustive"
        assert rep.element_check == "passed"
        assert rep.lattice_iso == (0, 1)
        assert all(p.matched for p in rep.group_matches)
        assert all(r.matched for r in rep.map_matches)

    def test_torsion_mismatch_detected(self, rose3):
        rep = compare_fkbar(rose3, H.rose(5), COEFF)
        assert not rep.consistent
        assert "Z/2 vs Z/4" in rep.obstruction

    def test_self_compare_draws_one_candidate(self, monkeypatch):
        drawn = []
        original = filtered._iter_isomorphisms

        def counting(topo1, topo2):
            for iso in original(topo1, topo2):
                drawn.append(iso)
                yield iso

        monkeypatch.setattr(filtered, "_iter_isomorphisms", counting)
        g = H.disjoint_loops(4)
        rep = compare_fkbar(g, g, COEFF, element_search=False)
        # 24 lattice automorphisms, but the first (the identity) matches
        assert rep.consistent and drawn == [tuple(range(16))]

    def test_candidate_cap_counts_failed_candidates(self, monkeypatch):
        g = H.disjoint_loops(3)
        doubled = Graph(g.vertices, g.edges + (("extra", "x0", "x0"),))
        # all 6 automorphisms of the cube fail the K0 of the doubled loop
        assert not compare_fkbar(g, doubled, COEFF).consistent
        monkeypatch.setattr(filtered, "_CANDIDATE_CAP", 6)
        assert not compare_fkbar(g, doubled, COEFF).consistent
        monkeypatch.setattr(filtered, "_CANDIDATE_CAP", 5)
        with pytest.raises(LatticeCapError, match="more than 5 lattice isomorphisms tried"):
            compare_fkbar(g, doubled, COEFF)
        # a match ends the search before the cap is reached
        monkeypatch.setattr(filtered, "_CANDIDATE_CAP", 0)
        assert compare_fkbar(g, g, COEFF).consistent

    def test_lattice_shape_mismatch(self, fan, rose2):
        rep = compare_fkbar(fan, rose2, COEFF)
        assert not rep.consistent
        assert "lattice" in rep.obstruction
        assert rep.lattice_iso is None

    def test_self_comparison_consistent(self, corpus):
        for g in corpus[:15]:
            rep = compare_fkbar(g, g, COEFF)
            assert rep.consistent, (g, rep.obstruction)
            assert rep.element_check != "refuted"

    def test_relabeling_consistent(self, corpus):
        rng = random.Random(41)
        for g in corpus[:15]:
            names = list(g.vertices)
            rng.shuffle(names)
            g2 = relabel(g, {v: f"z{i}_{n}" for i, (v, n) in enumerate(zip(g.vertices, names))})
            rep = compare_fkbar(g, g2, COEFF)
            assert rep.consistent, (g, rep.obstruction)

    def test_free_rank_one_comparison_is_exhaustive(self, loop):
        # K0 = Z: an isomorphism of Z is +1 or -1 (GL1(Z) = {±1}), so the
        # entry bound truncates nothing and the search covers every system
        rep = compare_fkbar(loop, relabel(loop, {"v": "w"}), COEFF)
        assert rep.consistent
        assert rep.certification == "exhaustive"
        assert rep.element_check == "passed"

    def test_shared_bodies_pass_by_the_identity(self, monkeypatch):
        # K0 = Z^2 at the whole graph, past the node cap; but a relabelled
        # copy keeps the declaration order, so every row pairs a skeleton
        # record with itself, and the identity is a commuting system at every
        # node
        g = H.disjoint_loops(2)
        pairs = []
        search = filtered._row_element_check

        def recording(a, b, candidates):
            pairs.append((a, b))
            return search(a, b, candidates)

        monkeypatch.setattr(filtered, "_row_element_check", recording)
        rep = compare_fkbar(g, relabel(g, {"x0": "y0", "x1": "y1"}), COEFF)
        assert rep.consistent
        assert rep.certification == "exhaustive"
        assert rep.element_check == "passed"
        assert {v.detail for v in rep.map_matches} == {"row matches (element search: passed)"}
        assert len(pairs) == 7 and all(a is b for a, b in pairs)

    def test_free_k0_comparison_is_bounded(self, monkeypatch):
        # K0 = Z^2 at the whole graph: its node has at least 5^4 candidates,
        # past the node cap.  Declared in the other order, the copy's blocks
        # are other matrices; the compare aligns the copy to the graph's
        # order, so every row pairs one record and the report is exhaustive
        edges = [("l0", "0", "0"), ("l1", "1", "1"), ("l2", "2", "2"), ("e", "0", "1")]
        g = Graph(["x0", "x1", "x2"], [(e, "x" + s, "x" + d) for e, s, d in edges])
        copy = Graph(["y2", "y1", "y0"], [(e, "y" + s, "y" + d) for e, s, d in edges])
        rep = compare_fkbar(g, copy, COEFF)
        assert (rep.certification, rep.element_check) == ("exhaustive", "passed")
        # a pair it cannot align reads the declaration order: such a row
        # and its image have two skeleton records, and their search is
        # skipped; the report stays consistent, bounded and inconclusive
        g, copy = H.unaligned_pair(g, copy)
        outcomes = []
        search = filtered._row_element_check

        def recording(a, b, candidates):
            outcomes.append((a is b, search(a, b, candidates)))
            return outcomes[-1][1]

        monkeypatch.setattr(filtered, "_row_element_check", recording)
        rep = compare_fkbar(g, copy, COEFF)
        assert rep.consistent
        assert rep.certification == "bounded"
        assert rep.element_check == "inconclusive"
        details = {v.detail for v in rep.map_matches}
        assert details == {f"row matches (element search: {e})" for e in ("passed", "skipped")}
        assert (False, "skipped") in outcomes and (True, "skipped") not in outcomes

    def test_element_search_can_be_disabled(self, rose2):
        rep = compare_fkbar(rose2, ones_graph(), COEFF, element_search=False)
        assert rep.consistent
        assert rep.certification == "structural"
        assert rep.element_check == "skipped"

    def test_report_carries_necessity_note(self, rose2):
        rep = compare_fkbar(rose2, ones_graph(), COEFF)
        assert "necessary" in rep.note

    def test_deterministic(self, rose2, rose3):
        assert compare_fkbar(rose2, rose3, COEFF) == compare_fkbar(rose2, rose3, COEFF)
        g2 = ones_graph()
        assert compare_fkbar(rose2, g2, COEFF) == compare_fkbar(rose2, g2, COEFF)


class TestAlignment:
    """A compare reads its second graph in the first graph's vertex order
    when ``Graph._alignment`` finds an isomorphism between them, and in
    declaration order otherwise; its verdict is the same either way."""

    def test_six_cycle_against_two_triangles_keeps_declaration_order(self, monkeypatch):
        six, two = H.cycle(6), H.disjoint_union(H.cycle(3), H.cycle(3))
        # equal degrees and one colour throughout, but not isomorphic
        assert six._alignment(two) is None and two._alignment(six) is None
        assert set(_refine([0] * 6, [[(j, 1)] for j in (1, 2, 3, 4, 5, 0)])) == {0}
        # equal degrees that refinement tells apart: a path of four vertices
        # against an edge beside a 2-cycle
        path = Graph("abcd", [("e", "a", "b"), ("f", "b", "c"), ("g", "c", "d")])
        split = Graph("abcd", [("e", "a", "b"), ("f", "c", "d"), ("g", "d", "c")])
        assert path._alignment(split) is None and split._alignment(path) is None
        pairs = [(six, two), H.unaligned_pair(*shuffled_posets(3, 1))]
        with monkeypatch.context() as m:
            m.setattr(Graph, "_alignment", lambda self, other: None)
            unaligned = [compare_fkbar(*pair, COEFF) for pair in pairs]
        stores = []
        share = ktheory.SubquotientStore._share

        def recording(store, other):
            share(store, other)
            stores.append(store)

        monkeypatch.setattr(ktheory.SubquotientStore, "_share", recording)
        reports = [compare_fkbar(*pair, COEFF) for pair in pairs]
        assert [s._order for s in stores] == [range(6), range(len(pairs[1][1].vertices))]
        assert reports == unaligned
        assert reports[0].obstruction == "ideal lattices admit no order isomorphism"
        assert reports[1].consistent and reports[1].element_check == "inconclusive"

    def test_shuffled_copies_keep_the_unaligned_verdicts(self, corpus, tmp_path, monkeypatch):
        # each corpus graph against a copy of itself and one of the next
        # graph, both declared in another order: the exit code and
        # ``consistent`` of the compare, aligned and on the declaration-order
        # path, which a compare takes for any pair it cannot align
        def run(*paths):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["--json", "compare", *paths])
            return code, json.loads(out.getvalue())["consistent"]

        paths = []
        for k, g in enumerate(corpus):
            for name, x in (("g", g), ("s", H.declared_shuffled(g, k))):
                path = tmp_path / f"{name}{k}.graph"
                path.write_text(graph_to_text(x), encoding="utf-8")
                paths.append(str(path))
        codes = set()
        for k in range(len(corpus)):
            for j in (2 * k + 1, (2 * k + 3) % len(paths)):
                got = run(paths[2 * k], paths[j])
                with monkeypatch.context() as m:
                    m.setattr(Graph, "_alignment", lambda self, other: None)
                    assert run(paths[2 * k], paths[j]) == got, (k, j)
                codes.add(got[0])
        assert codes == {0, 1}


def linked_blocks(links):
    """A two-vertex block on x0, x1 (K0 = Z/2 + Z/4, K1 = 0) below a
    two-vertex block on x2, x3 (K0 = Z + Z/2, K1 = Z): ``links[i][j]``
    edges run from x(2 + i) to x(j).  The ideal lattice is the 3-chain."""
    (n00, n01), (n10, n11) = links
    adjacency = [[3, 2, 0, 0], [2, 7, 0, 0], [n00, n01, 3, 2], [n10, n11, 2, 3]]
    return graph_from_matrix(IntMatrix(adjacency), prefix="x")


class TestRowFailures:
    """A candidate that matches every entry can still fail at a row."""

    def test_connecting_maps_with_other_cokernels(self):
        # delta: K1(top block) = Z -> K0(bottom block) = Z/2 + Z/4 has image
        # Z/2 in both, with cokernel Z/4 in one and Z/2 + Z/2 in the other;
        # the whole graphs' K0 are both Z + Z/2 + Z/4
        a, b = linked_blocks(((0, 0), (1, 1))), linked_blocks(((0, 1), (2, 1)))
        rep = compare_fkbar(a, b, COEFF)
        assert not rep.consistent
        assert all(v.matched for v in rep.group_matches) and len(rep.group_matches) == 4
        assert rep.obstruction == "triple (0, 1, 2): map invariants differ"
        assert [v.triple for v in rep.map_matches if not v.matched] == [(0, 1, 2)]
        delta = [fkbar(g, COEFF).row((0, 1, 2)).body.signature[1][2] for g in (a, b)]
        assert [str(cokernel) for _, _, cokernel in delta] == ["Z/4", "Z/2 ⊕ Z/2"]
        assert rep == H.compare_verdicts_per_candidate(a, b, COEFF)

    @pytest.mark.parametrize("broken, problem", [("v", "first"), ("w", "second")])
    def test_inexact_row_fails_the_candidate(self, rose2, monkeypatch, broken, problem):
        # a row whose exactness check fails, as a broken skeleton check would
        # leave it, is a failure of the candidate and not a match; the two
        # tables share their skeleton records, so only the rows of one table
        # get an inexact copy of theirs
        row_body = filtered._row_body

        def breaking(store, inner, middle, outer):
            body = row_body(store, inner, middle, outer)
            g = store.graph
            if not g.has_vertex(broken) or not outer >> g.index(broken) & 1:
                return body
            inexact = ktheory._Skeleton(body.maps, body.pairs)
            inexact.exact = False
            return inexact

        monkeypatch.setattr(filtered, "_row_body", breaking)
        rep = compare_fkbar(rose2, relabel(rose2, {"v": "w"}), COEFF)
        assert not rep.consistent and rep.element_check == "passed"
        detail = f"{problem} table row failed exactness"
        assert rep.obstruction == f"triple (0, 0, 1): {detail}"
        details = [v.detail for v in rep.map_matches]
        assert details == ["row matches (element search: passed)"] + [detail] * 3

    def test_refuted_element_search_fails_the_candidate(self, rose2, monkeypatch):
        # no real pair refutes under today's node cap: the rows would be short
        # exact sequences of small finite groups, where rows of equal
        # signatures are always isomorphic
        monkeypatch.setattr(filtered, "_row_element_check", lambda body, other, candidates: "refuted")
        rep = compare_fkbar(rose2, ones_graph(), COEFF)
        assert not rep.consistent and rep.element_check == "refuted"
        assert rep.obstruction == "triple (0, 0, 0): no commuting system of isomorphisms exists"
        assert {v.matched for v in rep.map_matches} == {False}


def count_eliminations(monkeypatch):
    """Matrix -> the list of (u, v) tracked by its Smith eliminations, in
    run order, from an empty Smith cache, so no earlier test serves a run.
    A two-sided run that also tracks the inverses counts as (True, True)."""
    runs = {}
    smith = intlinalg._smith

    def counting(m, u, v, inverses=False):
        runs.setdefault(m, []).append((u, v))
        return smith(m, u, v, inverses)

    monkeypatch.setattr(intlinalg, "_smith", counting)
    intlinalg.snf.cache_clear()
    return runs


class TestEliminations:
    """A comparison eliminates each matrix one way: tracking v where some
    reader takes its kernel, with no transform where none does."""

    @pytest.mark.parametrize("coeff", [CoeffGroup.symbolic("Gbar"), COEFF], ids=["symbolic", "field5"])
    def test_no_matrix_is_eliminated_both_ways(self, coeff, monkeypatch):
        g = H.sparse_graph(random.Random(77), 11, 0.3)
        n = g.num_vertices
        twin = relabel(g, {v: f"w{n - 1 - k}" for k, v in enumerate(g.vertices)})
        runs = count_eliminations(monkeypatch)
        rep = compare_fkbar(g, twin, coeff)
        assert rep.consistent and rep.element_check != "skipped"
        both = [m for m, kinds in runs.items() if {(False, False), (False, True)} <= set(kinds)]
        assert len(runs) >= 200 and both == []

    def test_entry_failures_track_no_transform(self, rose2, rose3, monkeypatch):
        g = H.disjoint_loops(4)
        doubled = Graph(g.vertices, g.edges + (("extra", "x0", "x0"),))
        runs = count_eliminations(monkeypatch)
        for a, b in ((rose2, rose3), (g, doubled), (doubled, g)):
            rep = compare_fkbar(a, b, COEFF)
            assert not rep.consistent and rep.group_matches and not rep.map_matches
        assert runs and set().union(*runs.values()) == {(False, False)}

    @pytest.mark.parametrize("case", ["rose2-pair", "fk-8-loops", "sparse-relabelled"])
    def test_each_matrix_runs_each_kind_once(self, case, rose2, monkeypatch):
        # one Smith record per matrix: a read that needs more than the runs
        # so far yielded runs once more, and a two-sided run yields every part
        runs = count_eliminations(monkeypatch)
        if case == "rose2-pair":
            rep = compare_fkbar(rose2, graph_from_matrix(IntMatrix([[1, 1], [1, 1]])), COEFF)
            assert rep.consistent
            # each was eliminated three ways while two caches kept its runs
            assert len(runs[IntMatrix([[1]])]) <= 2
            assert len(runs[IntMatrix([[0, 1], [1, 0]])]) <= 2
        elif case == "fk-8-loops":
            assert fkbar(H.disjoint_loops(8), COEFF).all_rows_exact
        else:
            g = H.sparse_graph(random.Random(77), 9, 0.3)
            n = g.num_vertices
            twin = relabel(g, {v: f"w{n - 1 - k}" for k, v in enumerate(g.vertices)})
            assert compare_fkbar(g, twin, COEFF).consistent
        assert runs
        for m, kinds in runs.items():
            assert len(kinds) == len(set(kinds)), (m, kinds)
            assert (True, True) not in kinds[:-1], (m, kinds)


def count_rows(monkeypatch):
    """The (inner, middle, outer) masks of every row record a table asks for."""
    built = []
    original = filtered._row_body

    def counting(*args, **kwargs):
        built.append(args[1:4])
        return original(*args, **kwargs)

    monkeypatch.setattr(filtered, "_row_body", counting)
    return built


class TestRowsOnDemand:
    """compare builds rows only for a candidate that matches every entry."""

    def test_k0_differing_pair_builds_no_rows(self, rose2, rose3, monkeypatch):
        built = count_rows(monkeypatch)
        rep = compare_fkbar(rose2, rose3, COEFF)
        assert built == []
        assert not rep.consistent
        assert rep.obstruction == "K0 0 vs Z/2; K1bar twisted part 0 vs Z/2"
        assert rep.lattice_iso is None and rep.map_matches == ()
        assert [(v.difference, v.matched, v.detail) for v in rep.group_matches] == [
            ((), True, "entry classes agree"),
            ((0,), False, "K0 0 vs Z/2; K1bar twisted part 0 vs Z/2"),
        ]
        assert (rep.certification, rep.element_check) == ("structural", "skipped")

    def test_k0_differing_pair_still_meets_the_row_cap(self, rose2, rose3, monkeypatch):
        built = count_rows(monkeypatch)
        assert len(fkbar(rose2, COEFF).rows) == len(fkbar(rose3, COEFF).rows) == 4
        built.clear()
        with pytest.raises(RowCapError, match="row cap 3"):
            compare_fkbar(rose2, rose3, COEFF, row_cap=3)
        assert built == []

    def test_matching_pair_builds_every_row_once(self, rose2, monkeypatch):
        built = count_rows(monkeypatch)
        rep = compare_fkbar(rose2, ones_graph(), COEFF)
        assert rep.consistent and len(rep.map_matches) == 4
        assert len(built) == 8

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_each_triple_asks_for_its_body_once(self, k, tmp_path, capsys, monkeypatch):
        # fk asks once per row of its table, a self-compare once per row of
        # each table: the first table's rows and the second's image triples
        path = tmp_path / "loops.graph"
        path.write_text(graph_to_text(H.disjoint_loops(k)), encoding="utf-8")
        built = count_rows(monkeypatch)
        assert cli.main(["--json", "fk", str(path)]) == 0
        assert len(built) == 4**k
        built.clear()
        assert cli.main(["--json", "compare", str(path), str(path)]) == 0
        assert len(built) == 2 * 4**k
        capsys.readouterr()


def zeroed_map(body, k):
    """A new skeleton record like ``body`` with its k-th map replaced by the
    zero map."""
    maps = list(body.maps)
    maps[k] = dataclasses.replace(maps[k], matrix=IntMatrix.zeros(*maps[k].matrix.shape))
    return ktheory._Skeleton(tuple(maps), body.pairs)


def element_outcome(matrix, trip, k):
    """A real row, the six groups of its Z-level skeleton, and the
    element-search outcome of its skeleton record against the same record
    with map k zeroed."""
    table = fkbar(graph_from_matrix(IntMatrix(matrix)), COEFF)
    row = table.row(trip)
    groups = H.row_groups(H.row_skeleton(table.store, row))
    return row, groups, filtered._row_element_check(row.body, zeroed_map(row.body, k), {})


class TestElementSearchOutcomes:
    """Each outcome of the element search, reached from a real row."""

    def test_zeroed_map_between_finite_groups_is_refuted(self):
        # Z/3 -> Z/3 -> 0 at K0; zeroing u12 leaves no commuting system
        row, groups, outcome = element_outcome([[4, 1], [0, 4]], (0, 1, 1), 3)
        assert [str(grp.invariants()) for grp in groups[3:]] == ["Z/3", "Z/3", "0"]
        assert outcome == "refuted"
        assert filtered._row_element_check(row.body, row.body, {}) == "passed"

    def test_zeroed_map_between_free_groups_is_refuted(self):
        # every node is Z, whose isomorphisms are +1 and -1, all listed; the
        # zeroed map leaves no commuting system of them
        row, groups, outcome = element_outcome([[1, 1], [0, 1]], (0, 1, 2), 0)
        assert all(str(grp.invariants()) == "Z" for grp in groups)
        assert outcome == "refuted"
        assert filtered._row_element_check(row.body, row.body, {}) == "passed"

    def test_large_torsion_is_skipped(self):
        # Z/101 + Z/101 has order 10,201: its candidates outnumber the node
        # cap, as those of any torsion order past the cap do
        _, groups, outcome = element_outcome([[1, 101], [101, 1]], (0, 1, 1), 3)
        node = groups[3]
        assert str(node.invariants()) == "Z/101 ⊕ Z/101"
        assert 101 > filtered._NODE_CANDIDATE_CAP
        assert filtered._iso_candidates(ktheory._moduli(node)) is None
        assert outcome == "skipped"

    def test_many_candidates_are_skipped(self):
        # Z/5 + Z/5 is small, but its 625 candidate matrices pass the node cap
        _, groups, outcome = element_outcome([[6, 0], [0, 6]], (0, 3, 3), 3)
        node = groups[3]
        assert str(node.invariants()) == "Z/5 ⊕ Z/5"
        assert 5**4 > filtered._NODE_CANDIDATE_CAP
        assert filtered._iso_candidates(ktheory._moduli(node)) is None
        assert outcome == "skipped"

    def test_listed_nodes_have_every_isomorphism(self):
        # two free coordinates give (2 * bound + 1)^4 candidates, past the
        # node cap; on one, the listed free entries are the units +1 and -1
        bound = filtered._FREE_ENTRY_BOUND
        assert (2 * bound + 1) ** 4 > filtered._NODE_CANDIDATE_CAP
        assert filtered._iso_candidates((0, 0)) is None
        assert [m.to_lists() for m in filtered._iso_candidates((0,))] == [[[-1]], [[1]]]
        # Z/2 + Z: -1 or 1 on Z, either residue from Z into Z/2, 0 back
        found = sorted(m.to_lists() for m in filtered._iso_candidates((2, 0)))
        assert found == [[[1, a], [0, u]] for a in (0, 1) for u in (-1, 1)]


class TestTransport:
    def test_certificate_transport_matches(self, rose2):
        g2 = ones_graph()
        se = shift_equivalent_bounded(IntMatrix([[2]]), IntMatrix([[1, 1], [1, 1]]))
        assert se.kind == "certificate"
        iso = transport_from_certificate(
            rose2, g2, enumerate_hsat(rose2), enumerate_hsat(g2), se.certificate.r
        )
        assert iso == (0, 1)
        rep = compare_fkbar(rose2, g2, COEFF, se_intertwiner=se.certificate.r)
        assert rep.consistent and rep.lattice_iso == (0, 1)

    def test_degenerate_matrix_rejected(self, rose2):
        g2 = ones_graph()
        lat1, lat2 = enumerate_hsat(rose2), enumerate_hsat(g2)
        for r in (IntMatrix([[0, 0]], cols=2), IntMatrix.identity(2)):  # no hit; wrong shape
            assert transport_from_certificate(rose2, g2, lat1, lat2, r) is None

    def test_image_outside_the_second_lattice_rejected(self):
        # the second lattice is of a strongly connected graph on the same
        # names, so the image {b} of the ideal {b} is not one of its elements
        g = Graph(["a", "b"], [("x", "a", "a"), ("y", "a", "b"), ("z", "b", "b")])
        cycle = Graph(["a", "b"], [("x", "a", "a"), ("y", "a", "b"), ("z", "b", "a")])
        lattice, other = enumerate_hsat(g), enumerate_hsat(cycle)
        with pytest.raises(KeyError):
            H.index_of(other, {"b"})
        assert transport_from_certificate(g, g, lattice, other, IntMatrix.identity(2)) is None

    def test_monotone_bijection_that_does_not_reflect_order_rejected(self):
        # square {}, {x}, {y}, {x, y, z} (z only feeds x and y) against the
        # chain {}, {a}, {a, b}, {a, b, c}: R sends x, y, z to a, b, c, so
        # the image map is a monotone bijection, but {x} and {y} are
        # incomparable while their images {a} and {a, b} are not
        square = Graph(
            ["x", "y", "z"], [("p", "x", "x"), ("q", "y", "y"), ("r", "z", "x"), ("s", "z", "y")]
        )
        chain = Graph(
            ["a", "b", "c"],
            [("p", "a", "a"), ("q", "b", "a"), ("r", "b", "b"), ("s", "c", "b"), ("t", "c", "c")],
        )
        lat1, lat2 = enumerate_hsat(square), enumerate_hsat(chain)
        assert len(lat1) == len(lat2) == 4
        hit = dict(zip("xyz", "abc"))
        images = [
            H.index_of(lat2, hsat_closure(chain, [hit[v] for v in lat1.members(i)]))
            for i in range(4)
        ]
        assert sorted(images) == [0, 1, 2, 3]
        pairs = [(i, j) for i in range(4) for j in range(4) if lat1.leq(i, j)]
        assert all(lat2.leq(images[i], images[j]) for i, j in pairs)
        assert transport_from_certificate(square, chain, lat1, lat2, IntMatrix.identity(3)) is None

    def test_transport_on_graphs_with_ideals(self):
        # identical graphs with a nontrivial lattice: the identity intertwiner
        # must transport to the identity lattice map
        g = H.fan_graph()
        lat = enumerate_hsat(g)
        iso = transport_from_certificate(g, g, lat, lat, IntMatrix.identity(3))
        assert iso == tuple(range(len(lat.elements)))

class TestClosestFailure:
    """compare counts entry mismatches first and builds verdicts only for
    the first candidate or a closer failure; its reports must equal those of
    the builder that made every candidate's verdicts."""

    def test_reports_equal_verdicts_per_candidate(self, corpus):
        rng = random.Random(23)
        pairs = []
        for _ in range(80):
            g = rng.choice(corpus)
            v, w = rng.choice(g.vertices), rng.choice(g.vertices)
            pairs.append((g, Graph(g.vertices, g.edges + (("extra", v, w),))))
        pairs += [(rng.choice(corpus), rng.choice(corpus)) for _ in range(80)]
        # copies declaring their vertices in another order: their entries
        # have other transfer matrices of the same classes
        shuffled = []
        for _ in range(40):
            g = rng.choice(corpus)
            order = list(g.vertices)
            rng.shuffle(order)
            shuffled.append((g, Graph(order, g.edges)))
        entry_failures = lattice_failures = other_matrices = 0
        for a, b in pairs + shuffled:
            rep = compare_fkbar(a, b, COEFF)
            assert rep == H.compare_verdicts_per_candidate(a, b, COEFF), (a, b)
            entry_failures += not rep.consistent and bool(rep.group_matches)
            lattice_failures += not rep.consistent and not rep.group_matches
            if (a, b) in shuffled:
                assert rep.consistent, (a, b)
                t1, t2 = filtered.FilteredKTable(a, COEFF), filtered.FilteredKTable(b, COEFF)
                other_matrices += sum(
                    e1.pair.k0.relations != e2.pair.k0.relations
                    for e1, e2 in filtered._paired_entries(t1, t2, rep.lattice_iso)
                )
        assert entry_failures >= 60 and lattice_failures >= 30 and other_matrices >= 20

    def test_row_failures_keep_the_closest(self, monkeypatch):
        # every candidate of a 3-loop self-compare fails some rows, a number
        # that depends on the candidate, so a later one is the closest
        match_rows = filtered._match_rows

        def failing(t1, t2, iso, run_elements):
            verdicts, _, outcomes = match_rows(t1, t2, iso, run_elements)
            bad = 7 - sum(i * p for i, p in enumerate(iso)) % 7
            verdicts = [
                dataclasses.replace(v, matched=False, detail="forced") if k < bad else v
                for k, v in enumerate(verdicts)
            ]
            return verdicts, f"forced {bad}", outcomes

        monkeypatch.setattr(filtered, "_match_rows", failing)
        g = H.disjoint_loops(3)
        t = filtered.FilteredKTable(g, COEFF)
        isos = list(filtered._iter_isomorphisms(t.topology, t.topology))
        scores = [7 - sum(i * p for i, p in enumerate(iso)) % 7 for iso in isos]
        assert len(isos) == 6 and scores.index(min(scores)) > 0
        rep = compare_fkbar(g, g, COEFF)
        assert rep.obstruction == f"forced {min(scores)}" and len(rep.map_matches) == 64
        assert rep == H.compare_verdicts_per_candidate(g, g, COEFF)

    @pytest.mark.parametrize("k", [5, 6, 7])
    def test_loops_against_one_doubled(self, k):
        g = H.disjoint_loops(k)
        doubled = Graph(g.vertices, g.edges + (("extra", "x0", "x0"),))
        rep = compare_fkbar(g, doubled, COEFF)
        assert not rep.consistent and len(rep.group_matches) == 2**k
        assert rep == H.compare_verdicts_per_candidate(g, doubled, COEFF)

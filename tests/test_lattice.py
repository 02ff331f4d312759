"""Hereditary-saturated lattices, graded primes, spectrum topology."""

import random

import pytest

import helpers as H
from leavitt import lattice
from leavitt.graphs import Graph, relabel
from leavitt.lattice import (
    LatticeCapError,
    enumerate_hsat,
    graded_primes,
    hsat_closure,
    lattice_isomorphisms,
    locally_closed_all,
    spectrum,
)


class TestClosure:
    def test_closure_properties(self, corpus):
        import random

        rng = random.Random(3)
        for g in corpus[:60]:
            if not g.vertices:
                continue
            seed = frozenset(rng.sample(g.vertices, rng.randint(1, g.num_vertices)))
            c = hsat_closure(g, seed)
            members = frozenset(c)
            assert seed <= members  # extensive
            assert frozenset(hsat_closure(g, members)) == members  # idempotent
            bigger = frozenset(hsat_closure(g, seed | {g.vertices[0]}))
            assert members <= bigger or not seed <= (seed | {g.vertices[0]})  # monotone

    def test_closure_is_hereditary_saturated(self, corpus):
        from leavitt.graphs import is_hereditary, is_saturated

        for g in corpus[:60]:
            for v in g.vertices:
                c = frozenset(hsat_closure(g, {v}))
                assert is_hereditary(g, c) and is_saturated(g, c)

    def test_fan_closures(self, fan):
        assert frozenset(hsat_closure(fan, {"w1"})) == {"w1"}
        assert frozenset(hsat_closure(fan, {"v"})) == {"v", "w1", "w2"}
        assert frozenset(hsat_closure(fan, {"w1", "w2"})) == {"v", "w1", "w2"}

    def test_closures_on_one_graph_share_one_mask_table(self, fan):
        g = Graph(["a", "b"], [("e", "a", "a"), ("f", "a", "b"), ("l", "b", "b")])
        hsat_closure(fan, {"v"})  # the last graph closed is another one
        before = lattice._mask_closure.cache_info()
        assert hsat_closure(g, {"b"}) == ("b",)
        assert hsat_closure(g, {"a"}) == ("a", "b")
        after = lattice._mask_closure.cache_info()
        # one table, built for the first closure only
        assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)

    def test_mask_table_matches_the_name_oracle(self, corpus):
        for g in corpus:
            reach, targets, _ = lattice._mask_closure(g)
            assert len(reach) == len(targets) == g.num_vertices

            def names(mask):
                assert 0 <= mask < 1 << g.num_vertices
                return {w for j, w in enumerate(g.vertices) if mask >> j & 1}

            for k, v in enumerate(g.vertices):
                assert names(reach[k]) == H.reachable_from(g, v)
                assert names(targets[k]) == {e.dst for e in g.out_edges(v)}


class TestEnumeration:
    def test_matches_bruteforce_oracle(self, corpus):
        for g in corpus:
            lat = enumerate_hsat(g)
            got = {frozenset(lat.members(i)) for i in range(len(lat))}
            expected = set(H.hsat_subsets_bruteforce(g))
            assert got == expected
            assert len(lat.elements) == len(got)

    def test_sorted_by_size_then_indices(self, corpus):
        for g in corpus[:60]:
            lat = enumerate_hsat(g)
            keys = [
                (len(h), tuple(sorted(g.index(v) for v in h)))
                for h in map(lat.members, range(len(lat)))
            ]
            assert keys == sorted(keys)

    def test_bottom_and_top(self, corpus):
        for g in corpus[:60]:
            lat = enumerate_hsat(g)
            assert frozenset(lat.members(H.index_of(lat, ()))) == frozenset()
            assert frozenset(lat.members(len(lat) - 1)) == frozenset(g.vertices)

    def test_leq_matches_subset(self, corpus):
        for g in corpus[:40]:
            lat = enumerate_hsat(g)
            n = len(lat.elements)
            sets = [frozenset(lat.members(i)) for i in range(n)]
            for i in range(n):
                for j in range(n):
                    assert lat.leq(i, j) == (sets[i] <= sets[j])

    def test_meet_is_intersection_join_is_closure_of_union(self, corpus):
        for g in corpus[:40]:
            lat = enumerate_hsat(g)
            n = len(lat.elements)
            sets = [frozenset(lat.members(i)) for i in range(n)]
            for i in range(n):
                for j in range(n):
                    assert sets[H.lattice_meet(lat, i, j)] == sets[i] & sets[j]
                    expected_join = frozenset(hsat_closure(g, sets[i] | sets[j]))
                    assert sets[H.lattice_join(lat, i, j)] == expected_join

    def test_cap_enforced(self, fan):
        with pytest.raises(LatticeCapError):
            enumerate_hsat(fan, cap=2)

    def test_empty_graph(self):
        lat = enumerate_hsat(Graph([], []))
        assert len(lat.elements) == 1
        assert H.index_of(lat, ()) == len(lat) - 1 == 0


def _disjoint_loops(k):
    return Graph([f"v{i}" for i in range(k)], [(f"e{i}", f"v{i}", f"v{i}") for i in range(k)])


def _random_graph(rng, n):
    """n vertices, each with 0-3 out-edges to random targets (loops allowed)."""
    names = [f"v{i}" for i in range(n)]
    edges = []
    for v in names:
        for _ in range(rng.choice((0, 1, 1, 1, 2, 3))):
            edges.append((f"e{len(edges)}", v, rng.choice(names)))
    return Graph(names, edges)


class TestBeyondCorpus:
    def test_random_graphs_match_oracles(self):
        # the corpus stops at 4 vertices; these have 5-10
        rng = random.Random(808)
        largest = 0
        for _ in range(300):
            g = _random_graph(rng, rng.randint(5, 10))
            lat = enumerate_hsat(g)
            got = [frozenset(lat.members(i)) for i in range(len(lat))]
            assert set(got) == set(H.hsat_subsets_bruteforce(g))
            assert len(got) == len(set(got))
            primes = set(graded_primes(lat))
            for i in range(len(lat)):
                assert (i in primes) == H.is_lattice_prime(lat, i)
            assert len(set(spectrum(lat).opens)) == len(lat)
            largest = max(largest, len(lat))
        assert largest >= 32

    @pytest.mark.parametrize("k", [10, 12])
    def test_disjoint_loops_give_boolean_lattice(self, k):
        lat = enumerate_hsat(_disjoint_loops(k))
        assert len(lat) == 2**k
        assert lat.members(len(lat) - 1) == tuple(f"v{i}" for i in range(k))

    def test_thirteen_loops_exceed_default_cap(self):
        with pytest.raises(LatticeCapError, match="exceeds cap 4096"):
            enumerate_hsat(_disjoint_loops(13))

    def test_members_follow_declaration_order(self):
        g = Graph(["b", "a", "c"], [("x", "c", "b"), ("y", "c", "a")])
        lat = enumerate_hsat(g)
        assert lat.members(len(lat) - 1) == ("b", "a", "c")
        assert hsat_closure(g, {"c"}) == ("b", "a", "c")
        assert H.index_of(lat, ["a", "c", "b"]) == len(lat) - 1

    def test_index_of_rejects_non_elements(self, fan):
        lat = enumerate_hsat(fan)
        assert lat.members(H.index_of(lat, {"w2"})) == ("w2",)
        for bad in ({"v"}, {"w1", "w2"}, {"nowhere"}):
            # not hereditary, not saturated, not a vertex
            with pytest.raises(KeyError):
                H.index_of(lat, bad)


class TestPrimes:
    def test_fan_has_two_primes(self, fan):
        lat = enumerate_hsat(fan)
        primes = graded_primes(lat)
        assert len(primes) == 2
        prime_sets = {frozenset(lat.members(p)) for p in primes}
        assert prime_sets == {frozenset({"w1"}), frozenset({"w2"})}

    def test_rose_prime_is_bottom(self, rose2):
        lat = enumerate_hsat(rose2)
        assert graded_primes(lat) == (0,)

    def test_primes_match_downward_directed_complement(self, corpus):
        for g in corpus[:80]:
            lat = enumerate_hsat(g)
            full = frozenset(g.vertices)
            expected = tuple(
                i
                for i in range(len(lat))
                if frozenset(lat.members(i)) != full
                and H.is_downward_directed(g, full - frozenset(lat.members(i)))
            )
            assert graded_primes(lat) == expected

    def test_primes_match_lattice_primality(self, corpus):
        # meet-primality in the lattice agrees with the graph-side definition
        for g in corpus[:80]:
            lat = enumerate_hsat(g)
            primes = set(graded_primes(lat))
            for i in range(len(lat.elements)):
                assert (i in primes) == H.is_lattice_prime(lat, i)


class TestSpectrum:
    def test_open_sets_of_bottom_and_top(self, corpus):
        for g in corpus[:60]:
            lat = enumerate_hsat(g)
            topo = spectrum(lat)
            opens = H.open_sets(topo)
            assert opens[H.index_of(lat, ())] == frozenset()
            assert opens[len(lat) - 1] == frozenset(range(len(topo.primes)))

    def test_open_map_respects_meet_and_join(self, corpus):
        for g in corpus[:40]:
            lat = enumerate_hsat(g)
            topo = spectrum(lat)
            opens = H.open_sets(topo)
            n = len(lat.elements)
            for i in range(n):
                for j in range(n):
                    assert opens[H.lattice_join(lat, i, j)] == opens[i] | opens[j]
                    assert opens[H.lattice_meet(lat, i, j)] == opens[i] & opens[j]

    def test_open_map_is_injective(self, corpus):
        for g in corpus:
            lat = enumerate_hsat(g)
            topo = spectrum(lat)
            assert len(set(H.open_sets(topo))) == len(lat.elements)

    def test_kernel_of_recovers_every_element(self, corpus):
        # intersecting the primes that contain H gives back H
        for g in corpus:
            lat = enumerate_hsat(g)
            topo = spectrum(lat)
            all_primes = frozenset(range(len(topo.primes)))
            opens = H.open_sets(topo)
            for i in range(len(lat)):
                containing = all_primes - opens[i]
                assert H.kernel_of(topo, containing) == frozenset(lat.members(i))

    def test_kernel_of_no_primes_is_everything(self, fan):
        lat = enumerate_hsat(fan)
        topo = spectrum(lat)
        assert H.kernel_of(topo, frozenset()) == frozenset(fan.vertices)


class TestLocallyClosed:
    def test_differences_are_exactly_open_differences(self, corpus):
        for g in corpus[:80]:
            lat = enumerate_hsat(g)
            topo = spectrum(lat)
            pieces = locally_closed_all(topo)
            diffs = [p.difference for p in pieces]
            assert len(set(diffs)) == len(diffs)
            opens = H.open_sets(topo)
            expected = {u - v for u in opens for v in opens}
            assert set(diffs) == expected

    def test_piece_indices_realize_difference(self, corpus):
        for g in corpus[:80]:
            lat = enumerate_hsat(g)
            topo = spectrum(lat)
            opens = H.open_sets(topo)
            for p in locally_closed_all(topo):
                outer_open = opens[p.outer_index]
                inner_open = opens[p.inner_index]
                assert inner_open <= outer_open
                assert outer_open - inner_open == p.difference

    def test_outer_choice_is_canonical(self, corpus):
        # the outer is the smallest element (by size, then position) whose
        # open set covers the difference, and the inner removes the rest
        for g in corpus[:40]:
            lat = enumerate_hsat(g)
            topo = spectrum(lat)
            opens = H.open_sets(topo)
            for p in locally_closed_all(topo):
                candidates = [
                    i
                    for i in range(len(lat.elements))
                    if p.difference <= opens[i] and (opens[i] - p.difference) in opens
                ]
                best = min(candidates, key=lambda i: (len(lat.members(i)), i))
                assert p.outer_index == best

    def test_empty_difference_piece_present(self, corpus):
        for g in corpus[:40]:
            topo = spectrum(enumerate_hsat(g))
            assert frozenset() in {p.difference for p in locally_closed_all(topo)}


class TestLatticeIsomorphisms:
    def test_identity_found_on_self(self, corpus):
        for g in corpus[:40]:
            lat = enumerate_hsat(g)
            isos = lattice_isomorphisms(lat, lat)
            n = len(lat.elements)
            assert tuple(range(n)) in isos

    def test_isos_preserve_and_reflect_order(self, corpus):
        for g in corpus[:30]:
            lat = enumerate_hsat(g)
            n = len(lat.elements)
            for iso in lattice_isomorphisms(lat, lat):
                assert sorted(iso) == list(range(n))
                for i in range(n):
                    for j in range(n):
                        assert lat.leq(i, j) == lat.leq(iso[i], iso[j])

    def test_relabeled_graph_is_isomorphic(self, fan):
        from leavitt.graphs import relabel

        g2 = relabel(fan, {"v": "x", "w1": "y", "w2": "z"})
        isos = lattice_isomorphisms(enumerate_hsat(fan), enumerate_hsat(g2))
        assert isos

    def test_shape_mismatch_gives_nothing(self, fan, rose2):
        assert not lattice_isomorphisms(enumerate_hsat(fan), enumerate_hsat(rose2))

    def test_fan_lattice_has_diamond_symmetry(self, fan):
        lat = enumerate_hsat(fan)
        isos = lattice_isomorphisms(lat, lat)
        assert len(isos) == 2  # identity and the swap of the two middle ideals


def _symmetric_family(corpus):
    """The corpus plus seeded disjoint unions of corpus graphs, whose
    lattices are products with many automorphisms."""
    rng = random.Random(7)
    graphs = list(corpus)
    for _ in range(120):
        a, b = rng.choice(corpus[:120]), rng.choice(corpus[:120])
        graphs.append(H.disjoint_union(a, a if rng.random() < 0.5 else b))
    for _ in range(30):
        a = rng.choice(corpus[:60])
        graphs.append(H.disjoint_union(a, a, rng.choice(corpus[:60])))
    return graphs


class TestBirkhoffDual:
    """The lattice is the lattice of down-sets of its primes, and the
    prime-poset algorithms agree with the whole-lattice oracles."""

    def test_distributive_on_every_triple(self, corpus):
        for g in corpus:
            lat = enumerate_hsat(g)
            n = len(lat)
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        assert H.lattice_meet(lat, a, H.lattice_join(lat, b, c)) == H.lattice_join(
                            lat, H.lattice_meet(lat, a, b), H.lattice_meet(lat, a, c)
                        )

    def test_opens_are_the_down_sets_of_the_prime_poset(self, corpus):
        for g in corpus:
            lat = enumerate_hsat(g)
            topo = spectrum(lat)
            members = [frozenset(lat.members(p)) for p in topo.primes]
            m = len(members)
            down_sets = {
                frozenset(q for q in range(m) if mask >> q & 1)
                for mask in range(1 << m)
                if all(
                    mask >> q & 1
                    for p in range(m)
                    if mask >> p & 1
                    for q in range(m)
                    if members[q] <= members[p]
                )
            }
            assert set(H.open_sets(topo)) == down_sets
            assert len(topo.opens) == len(down_sets)

    def test_signatures_count_opens_inside_and_containing(self, corpus):
        for g in _symmetric_family(corpus)[::3]:
            topo = spectrum(enumerate_hsat(g))
            opens = topo.opens
            expected = [
                (sum(not v & ~u for v in opens), sum(not u & ~v for v in opens)) for u in opens
            ]
            assert lattice._signatures(topo) == expected

    def test_pieces_match_the_pairwise_oracle(self, corpus):
        for g in _symmetric_family(corpus):
            topo = spectrum(enumerate_hsat(g))
            assert locally_closed_all(topo) == H.locally_closed_oracle(topo)

    def test_isomorphisms_match_the_whole_lattice_oracle_in_order(self, corpus):
        graphs = _symmetric_family(corpus)
        multiple = 0
        for k, g in enumerate(graphs):
            lat = enumerate_hsat(g)
            copy = relabel(g, {v: f"r{v}" for v in g.vertices})
            others = (lat, enumerate_hsat(copy), enumerate_hsat(graphs[k - 1]))
            for other in others:
                isos = lattice_isomorphisms(lat, other)
                assert isos == H.lattice_isomorphisms_oracle(lat, other), g
            multiple += len(lattice_isomorphisms(lat, lat)) > 1
        assert multiple >= 100

    def test_empty_graph(self):
        lat = enumerate_hsat(Graph([], []))
        topo = spectrum(lat)
        assert topo.primes == () and topo.opens == (0,)
        assert H.open_sets(topo) == (frozenset(),)
        assert locally_closed_all(topo) == H.locally_closed_oracle(topo)
        assert [p.difference for p in locally_closed_all(topo)] == [frozenset()]
        assert lattice_isomorphisms(lat, lat) == [(0,)]

    @pytest.mark.parametrize("edges", [[], [("e", "v", "v")]])
    def test_one_vertex_graph(self, edges):
        lat = enumerate_hsat(Graph(["v"], edges))
        topo = spectrum(lat)
        assert len(lat) == 2 and len(topo.primes) == 1
        pieces = locally_closed_all(topo)
        assert pieces == H.locally_closed_oracle(topo)
        assert [p.difference for p in pieces] == [frozenset(), frozenset({0})]
        assert lattice_isomorphisms(lat, lat) == [(0, 1)]

    def test_isomorphism_limit_still_raises(self):
        lat = enumerate_hsat(_disjoint_loops(4))
        assert len(lattice_isomorphisms(lat, lat, limit=24)) == 24
        with pytest.raises(LatticeCapError, match="more than 23 lattice isomorphisms"):
            lattice_isomorphisms(lat, lat, limit=23)

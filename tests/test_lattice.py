"""Hereditary-saturated lattices, graded primes, spectrum topology."""

import pytest

import helpers as H
from leavitt.graphs import Graph, is_downward_directed
from leavitt.lattice import (
    LatticeCapError,
    enumerate_hsat,
    graded_primes,
    hsat_closure,
    kernel_of,
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
            members = frozenset(c.members)
            assert seed <= members  # extensive
            assert frozenset(hsat_closure(g, members).members) == members  # idempotent
            bigger = frozenset(hsat_closure(g, seed | {g.vertices[0]}).members)
            assert members <= bigger or not seed <= (seed | {g.vertices[0]})  # monotone

    def test_closure_is_hereditary_saturated(self, corpus):
        from leavitt.graphs import is_hereditary, is_saturated

        for g in corpus[:60]:
            for v in g.vertices:
                c = frozenset(hsat_closure(g, {v}).members)
                assert is_hereditary(g, c) and is_saturated(g, c)

    def test_fan_closures(self, fan):
        assert frozenset(hsat_closure(fan, {"w1"}).members) == {"w1"}
        assert frozenset(hsat_closure(fan, {"v"}).members) == {"v", "w1", "w2"}
        assert frozenset(hsat_closure(fan, {"w1", "w2"}).members) == {"v", "w1", "w2"}


class TestEnumeration:
    def test_matches_bruteforce_oracle(self, corpus):
        for g in corpus:
            lat = enumerate_hsat(g)
            got = {frozenset(h.members) for h in lat.elements}
            expected = set(H.hsat_subsets_bruteforce(g))
            assert got == expected
            assert len(lat.elements) == len(got)

    def test_sorted_by_size_then_indices(self, corpus):
        for g in corpus[:60]:
            lat = enumerate_hsat(g)
            keys = [
                (len(h.members), tuple(sorted(g.index(v) for v in h.members)))
                for h in lat.elements
            ]
            assert keys == sorted(keys)

    def test_bottom_and_top(self, corpus):
        for g in corpus[:60]:
            lat = enumerate_hsat(g)
            assert frozenset(lat.elements[lat.bottom].members) == frozenset()
            assert frozenset(lat.elements[lat.top].members) == frozenset(g.vertices)

    def test_leq_matches_subset(self, corpus):
        for g in corpus[:40]:
            lat = enumerate_hsat(g)
            n = len(lat.elements)
            sets = [frozenset(h.members) for h in lat.elements]
            for i in range(n):
                for j in range(n):
                    assert lat.leq(i, j) == (sets[i] <= sets[j])

    def test_meet_is_intersection_join_is_closure_of_union(self, corpus):
        for g in corpus[:40]:
            lat = enumerate_hsat(g)
            n = len(lat.elements)
            sets = [frozenset(h.members) for h in lat.elements]
            for i in range(n):
                for j in range(n):
                    assert sets[lat.meet(i, j)] == sets[i] & sets[j]
                    expected_join = frozenset(hsat_closure(g, sets[i] | sets[j]).members)
                    assert sets[lat.join(i, j)] == expected_join

    def test_cap_enforced(self, fan):
        with pytest.raises(LatticeCapError):
            enumerate_hsat(fan, cap=2)

    def test_empty_graph(self):
        lat = enumerate_hsat(Graph([], []))
        assert len(lat.elements) == 1
        assert lat.bottom == lat.top == 0


class TestPrimes:
    def test_fan_has_two_primes(self, fan):
        lat = enumerate_hsat(fan)
        primes = graded_primes(lat)
        assert len(primes) == 2
        prime_sets = {frozenset(lat.elements[p].members) for p in primes}
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
                for i, h in enumerate(lat.elements)
                if frozenset(h.members) != full
                and is_downward_directed(g, full - frozenset(h.members))
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
            assert topo.opens[lat.bottom] == frozenset()
            assert topo.opens[lat.top] == frozenset(range(len(topo.primes)))

    def test_open_map_respects_meet_and_join(self, corpus):
        for g in corpus[:40]:
            lat = enumerate_hsat(g)
            topo = spectrum(lat)
            n = len(lat.elements)
            for i in range(n):
                for j in range(n):
                    assert topo.opens[lat.join(i, j)] == topo.opens[i] | topo.opens[j]
                    assert topo.opens[lat.meet(i, j)] == topo.opens[i] & topo.opens[j]

    def test_open_map_is_injective(self, corpus):
        for g in corpus:
            lat = enumerate_hsat(g)
            topo = spectrum(lat)
            assert len(set(topo.opens)) == len(lat.elements)

    def test_kernel_of_recovers_every_element(self, corpus):
        # intersecting the primes that contain H gives back H
        for g in corpus:
            lat = enumerate_hsat(g)
            topo = spectrum(lat)
            all_primes = frozenset(range(len(topo.primes)))
            for i, h in enumerate(lat.elements):
                containing = all_primes - topo.opens[i]
                assert kernel_of(topo, containing) == frozenset(h.members)

    def test_kernel_of_no_primes_is_everything(self, fan):
        lat = enumerate_hsat(fan)
        topo = spectrum(lat)
        assert kernel_of(topo, frozenset()) == frozenset(fan.vertices)


class TestLocallyClosed:
    def test_differences_are_exactly_open_differences(self, corpus):
        for g in corpus[:80]:
            lat = enumerate_hsat(g)
            topo = spectrum(lat)
            pieces = locally_closed_all(topo)
            diffs = [p.difference for p in pieces]
            assert len(set(diffs)) == len(diffs)
            expected = {u - v for u in topo.opens for v in topo.opens}
            assert set(diffs) == expected

    def test_piece_indices_realize_difference(self, corpus):
        for g in corpus[:80]:
            lat = enumerate_hsat(g)
            topo = spectrum(lat)
            for p in locally_closed_all(topo):
                outer_open = topo.opens[p.outer_index]
                inner_open = topo.opens[p.inner_index]
                assert inner_open <= outer_open
                assert outer_open - inner_open == p.difference

    def test_outer_choice_is_canonical(self, corpus):
        # the outer is the smallest element (by size, then position) whose
        # open set covers the difference, and the inner removes the rest
        for g in corpus[:40]:
            lat = enumerate_hsat(g)
            topo = spectrum(lat)
            for p in locally_closed_all(topo):
                candidates = [
                    i
                    for i in range(len(lat.elements))
                    if p.difference <= topo.opens[i]
                    and (topo.opens[i] - p.difference) in topo.opens
                ]
                best = min(candidates, key=lambda i: (len(lat.elements[i].members), i))
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
"""K-theory of graph algebras: K0, reduced K1, diagrams, six-term rows."""

import random

import pytest

import helpers as H
from leavitt.graphs import Graph, relabel
from leavitt.intlinalg import CoeffGroup, FgAbGroup, GroupMap, check_exact, check_well_defined
from leavitt.ktheory import (
    connecting_delta,
    k0,
    k1,
    k_matrix,
    phi,
    psi,
    psi_diagram_check,
    six_term_row,
    snake_rho,
    vdb_sequence,
)
from leavitt.lattice import enumerate_hsat
from leavitt.monoid import GradedElement, graded_equal, parse_graded_element


def toeplitz_graph():
    """A loop with one exit edge into a sink."""
    return Graph(["v", "s"], [("l", "v", "v"), ("x", "v", "s")])


class TestKMatrix:
    def test_goldens(self, fan, rose3):
        assert k_matrix(fan).to_lists() == [[-1], [1], [1]]
        assert k_matrix(rose3).to_lists() == [[2]]
        assert k_matrix(H.line_graph(2)).to_lists() == [[-1], [1]]
        assert k_matrix(toeplitz_graph()).to_lists() == [[0], [1]]

    def test_shape(self, corpus):
        for g in corpus[:60]:
            km = k_matrix(g)
            assert km.rows == g.num_vertices
            assert km.cols == len(g.regulars)

    def test_definition(self, corpus):
        # entry (v, w) counts edges w -> v, minus 1 on the diagonal
        for g in corpus[:60]:
            km = k_matrix(g)
            a = g.adjacency()
            regs = [g.index(w) for w in g.regulars]
            for i in range(g.num_vertices):
                for jj, j in enumerate(regs):
                    expected = a[j, i] - (1 if i == j else 0)
                    assert km[i, jj] == expected


class TestKZero:
    def test_rose_series(self, rose2, rose3):
        assert k0(rose2).group.invariants() == FgAbGroup.from_parts(0, ())
        assert k0(rose3).group.invariants() == FgAbGroup.from_parts(0, (2,))
        assert k0(H.rose(5)).group.invariants() == FgAbGroup.from_parts(0, (4,))

    def test_other_goldens(self, fan, loop):
        assert k0(fan).group.invariants() == FgAbGroup.from_parts(2, ())
        assert k0(loop).group.invariants() == FgAbGroup.from_parts(1, ())
        assert k0(H.line_graph(2)).group.invariants() == FgAbGroup.from_parts(1, ())

    def test_matches_naive_cokernel_oracle(self, corpus):
        for g in corpus:
            free, tors = H.cokernel_invariants_naive(k_matrix(g).to_lists())
            assert k0(g).group.invariants() == FgAbGroup.from_parts(free, tors)

    def test_invariant_under_relabeling(self, corpus):
        rng = random.Random(3)
        for g in corpus[:40]:
            names = list(g.vertices)
            rng.shuffle(names)
            g2 = relabel(g, {v: f"x_{n}" for v, n in zip(g.vertices, names)})
            assert k0(g).group.invariants() == k0(g2).group.invariants()

    def test_vertex_relation_classes(self, fan, corpus):
        # the class of a regular vertex equals the sum of its edge targets
        kz = k0(fan)
        assert kz.class_of((1, 0, 0)) == kz.class_of((0, 1, 1))
        rng = random.Random(5)
        for g in corpus[:40]:
            if not g.regulars:
                continue
            kz = k0(g)
            km = k_matrix(g)
            x = tuple(rng.randint(-3, 3) for _ in range(km.cols))
            assert kz.group.is_zero_class(km @ x)


class TestKOne:
    def test_loop_laurent_values(self, loop):
        # one loop: full K1 keeps the whole unit group, the reduced version
        # halves it
        f5 = CoeffGroup.units_of_field(5)
        f5r = CoeffGroup.reduced_units_of_field(5)
        assert k1(loop, f5).isomorphism_class() == FgAbGroup.from_parts(1, (4,))
        assert k1(loop, f5r).isomorphism_class() == FgAbGroup.from_parts(1, (2,))

    def test_rose_reduced_k1_depends_on_field(self, rose3):
        # petals-minus-one acts on the reduced coefficient group
        f5r = CoeffGroup.reduced_units_of_field(5)  # Z/2
        f7r = CoeffGroup.reduced_units_of_field(7)  # Z/3
        assert k1(rose3, f5r).isomorphism_class() == FgAbGroup.from_parts(0, (2,))
        assert k1(rose3, f7r).isomorphism_class() == FgAbGroup.from_parts(0, ())

    def test_divisible_coefficients(self, loop):
        kb = k1(loop, CoeffGroup.divisible())
        assert kb.isomorphism_class() is None
        assert kb.kernel_rank == 1
        assert kb.symbol() == "Z ⊕ G"  # the divisible summand survives whole

    def test_symbolic_coefficients(self, loop):
        kb = k1(loop, CoeffGroup.symbolic("Gbar"))
        assert kb.isomorphism_class() is None
        assert kb.symbol() == "Z ⊕ Gbar"

    def test_sink_only_graph(self):
        g = Graph(["s"], [])
        f5r = CoeffGroup.reduced_units_of_field(5)
        assert k1(g, f5r).isomorphism_class() == FgAbGroup.from_parts(0, (2,))
        assert k0(g).group.invariants() == FgAbGroup.from_parts(1, ())


class TestPsiPhiDiagram:
    def test_hand_golden_on_rose2(self, rose2):
        # K-matrix is [1]; applying the square both ways lands in one class
        left = phi(psi(rose2, (1,)))
        right = psi(rose2, k_matrix(rose2) @ (1,))
        assert graded_equal(rose2, left, right).is_equal

    def test_psi_level_shift(self, fan):
        a = psi(fan, (1, 0, 0), level=2)
        assert a.items() == (("v", 2, 1),)

    def test_diagram_check_on_sample(self, corpus):
        rng = random.Random(7)
        for g in corpus[:25]:
            rep = psi_diagram_check(g, trials=15, rng=rng)
            assert rep.trials == 15
            assert not rep.failures

    def test_graded_kzero_equality(self, rose2):
        assert graded_equal(
            rose2, parse_graded_element("v(0)"), parse_graded_element("2*v(-1)")
        ).is_equal
        assert graded_equal(rose2, parse_graded_element("0"), GradedElement.zero()).is_equal
        assert not graded_equal(rose2, parse_graded_element("v(0)"), GradedElement.zero()).is_equal


class TestVdbSequence:
    def test_consistent_on_sample(self, corpus):
        f5r = CoeffGroup.reduced_units_of_field(5)
        for g in corpus[:20]:
            rep = vdb_sequence(g, f5r)
            assert rep.consistent
            assert rep.phi_composes_to_zero
            assert rep.kernel_maps_into_ker_phi

    def test_loop_witnesses(self, loop):
        rep = vdb_sequence(loop, CoeffGroup.reduced_units_of_field(5))
        assert rep.consistent
        assert rep.k0.group.invariants() == FgAbGroup.from_parts(1, ())
        assert rep.k1.isomorphism_class() == FgAbGroup.from_parts(1, (2,))


class TestConnectingMap:
    def test_toeplitz_golden(self):
        g = toeplitz_graph()
        cd = connecting_delta(g, {"s"})
        assert cd.kernel.to_lists() == [[1]]
        assert cd.x_block.to_lists() == [[1]]
        assert cd.apply((1,)) == (1,)
        assert cd.map.codomain.invariants() == FgAbGroup.from_parts(1, ())

    def test_fan_has_trivial_kernel(self, fan):
        cd = connecting_delta(fan, {"w1"})
        assert cd.kernel.cols == 0
        assert cd.x_block.to_lists() == [[1]]

    def test_apply_rejects_non_kernel_vectors(self):
        g = toeplitz_graph()
        cd = connecting_delta(g, {"s"})
        with pytest.raises(ValueError):
            # (1,) is in the kernel, so scale breaks nothing; a non-kernel
            # vector must be refused — build one from a different graph shape
            connecting_delta(H.fan_graph(), {"w1"}).apply((1,))

    def test_snake_chase_agrees_with_block_formula(self, corpus):
        rng = random.Random(11)
        checked = 0
        for g in corpus[:50]:
            lat = enumerate_hsat(g)
            for i in range(len(lat)):
                members = frozenset(lat.members(i))
                if not members or members == frozenset(g.vertices):
                    continue
                cd = connecting_delta(g, members)
                if cd.kernel.cols == 0:
                    continue
                for _ in range(10):
                    coeffs = tuple(rng.randint(-3, 3) for _ in range(cd.kernel.cols))
                    x = cd.kernel @ coeffs
                    assert snake_rho(g, members, x) == cd.apply(x)
                    checked += 1
        assert checked >= 50


ROW_MAP_NAMES = ("tau1", "tau2", "delta", "u12", "u23")


def nested_rows(g, coeff):
    """The six-term row of every nested triple of g's ideal lattice."""
    lat = enumerate_hsat(g)
    n = len(lat)
    for i in range(n):
        for j in range(i, n):
            if not lat.leq(i, j):
                continue
            for p in range(j, n):
                if lat.leq(j, p):
                    yield six_term_row(g, lat.members(i), lat.members(j), lat.members(p), coeff)


def z_verdicts(nodes):
    return tuple((n.image_in_kernel, n.kernel_in_image) for n in nodes)


def with_doubled_delta(row):
    f = row.maps[2]
    doubled = GroupMap(f.domain, f.codomain, f.matrix.scale(2), name="2delta")
    return row.maps[:2] + (doubled,) + row.maps[3:]


class TestSixTermRow:
    def test_fan_row_golden(self, fan):
        f5r = CoeffGroup.reduced_units_of_field(5)
        row = six_term_row(fan, set(), {"w1"}, set(fan.vertices), f5r)
        assert row.exact
        assert [n.name for n in row.nodes] == [
            "k1bar-middle",
            "k1bar-quotient",
            "k0-ideal",
            "k0-middle",
        ]
        assert [k.group.invariants() for k in row.k0s] == [
            FgAbGroup.from_parts(1, ()),
            FgAbGroup.from_parts(2, ()),
            FgAbGroup.from_parts(1, ()),
        ]
        assert [k.isomorphism_class() for k in row.k1bars] == [
            FgAbGroup.from_parts(0, (2,)),
            FgAbGroup.from_parts(0, (2, 2)),
            FgAbGroup.from_parts(0, (2,)),
        ]
        # coefficient-level element checks ran on the torsion nodes
        assert all(n.coeff_exact for n in row.nodes[:2])

    def test_toeplitz_row_has_nonzero_delta(self):
        g = toeplitz_graph()
        f5r = CoeffGroup.reduced_units_of_field(5)
        row = six_term_row(g, set(), {"s"}, {"v", "s"}, f5r)
        assert row.exact
        assert row.delta.map.matrix.to_lists() == [[1]]

    def test_rejects_non_nested_triples(self):
        g = toeplitz_graph()
        with pytest.raises(ValueError):
            six_term_row(g, {"s"}, set(), {"v", "s"}, CoeffGroup.reduced_units_of_field(5))

    def test_exact_on_sampled_triples_f5_f7(self, corpus):
        # fields whose reduced unit groups are Z/2 and Z/3 catch torsion slips
        for coeff in (
            CoeffGroup.reduced_units_of_field(5),
            CoeffGroup.reduced_units_of_field(7),
        ):
            for g in corpus[:15]:
                for row in nested_rows(g, coeff):
                    assert row.exact, (g, row.triple)

class TestRowSkeleton:
    def test_nodes_match_ambient_oracle_on_corpus(self, corpus):
        coeff = CoeffGroup.reduced_units_of_field(3)
        rows = doubled = 0
        for g in corpus:
            for row in nested_rows(g, coeff):
                reported = tuple((n.z_image_in_kernel, n.z_kernel_in_image) for n in row.nodes)
                assert reported == H.six_term_nodes_oracle(row.graphs), (g, row.triple)
                assert reported == z_verdicts(check_exact(row.maps).nodes)
                if not row.maps[2].matrix.is_zero():
                    # a broken row: the one-sided verdicts must still agree
                    got = z_verdicts(check_exact(with_doubled_delta(row)).nodes)
                    assert got == H.six_term_nodes_oracle(row.graphs, delta_scale=2), (
                        g,
                        row.triple,
                    )
                    doubled += 1
                rows += 1
        assert rows == 1491
        assert doubled >= 50

    def test_stored_maps_form_a_chain(self, corpus):
        coeff = CoeffGroup.reduced_units_of_field(5)
        for g in corpus[:60]:
            for row in nested_rows(g, coeff):
                groups = row.groups
                assert len(groups) == 6 and all(grp.labels is None for grp in groups)
                assert tuple(f.name for f in row.maps) == ROW_MAP_NAMES
                for k, f in enumerate(row.maps):
                    assert f.domain == groups[k] and f.codomain == groups[k + 1]
                    assert f.matrix.shape == (f.codomain.generators, f.domain.generators)
                    assert check_well_defined(f)
                for grp, kb in zip(groups[:3], row.k1bars):
                    assert grp.generators == kb.kernel_rank
                    assert grp.relations.shape == (kb.kernel_rank, 0)
                for grp, kz, sub in zip(groups[3:], row.k0s, row.graphs):
                    assert grp.relations == kz.group.relations == k_matrix(sub)
                assert row.maps[2].matrix == row.delta.map.matrix

    def test_doubled_delta_is_one_sided_on_toeplitz(self):
        # im(2 delta) = 2Z sits inside ker(u12) = Z but does not fill it
        row = six_term_row(
            toeplitz_graph(), set(), {"s"}, {"v", "s"}, CoeffGroup.reduced_units_of_field(5)
        )
        got = z_verdicts(check_exact(with_doubled_delta(row)).nodes)
        assert got == ((True, True), (True, True), (True, False), (True, True))
        assert got == H.six_term_nodes_oracle(row.graphs, delta_scale=2)

"""K-theory of graph algebras: K0, reduced K1, diagrams, six-term rows."""

import math
import operator
import random

import pytest

import helpers as H
from helpers import check_well_defined, psi, psi_diagram_check, snake_rho
from leavitt import cli, filtered, ktheory
from leavitt.filtered import RowCapError, compare_fkbar, fkbar
from leavitt.graphs import Graph, parse_graph, relabel
from leavitt.intlinalg import (
    CoeffGroup,
    FgAbGroup,
    GroupMap,
    IntMatrix,
    PresentedGroup,
    check_exact,
    map_invariants,
    snf,
)
from leavitt.ktheory import (
    SixTermRow,
    SubquotientStore,
    connecting_delta,
    k0,
    k1,
    k_matrix,
    phi,
    six_term_row,
    vdb_sequence,
)
from leavitt.lattice import enumerate_hsat
from leavitt.monoid import EqVerdict, GradedElement, graded_equal, parse_graded_element
from walls import poset_loops


COEFF_F5 = CoeffGroup.reduced_units_of_field(5)


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

    def test_matches_edge_count_oracle_on_corpus(self, corpus):
        for g in corpus:
            assert k_matrix(g) == H._transfer(g), g

    def test_unchecked_builds_equal_checked_construction(self, corpus):
        # k_matrix and Graph.adjacency skip the checking constructor
        for g in corpus + (Graph([], []),):
            for m in (k_matrix(g), g.adjacency()):
                checked = IntMatrix(m.data, cols=m.cols)
                assert m == checked and hash(m) == hash(checked)
                assert type(m.data) is tuple and all(type(r) is tuple for r in m.data)

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
        assert k0(rose2).invariants() == FgAbGroup.from_parts(0, ())
        assert k0(rose3).invariants() == FgAbGroup.from_parts(0, (2,))
        assert k0(H.rose(5)).invariants() == FgAbGroup.from_parts(0, (4,))

    def test_other_goldens(self, fan, loop):
        assert k0(fan).invariants() == FgAbGroup.from_parts(2, ())
        assert k0(loop).invariants() == FgAbGroup.from_parts(1, ())
        assert k0(H.line_graph(2)).invariants() == FgAbGroup.from_parts(1, ())

    def test_matches_naive_cokernel_oracle(self, corpus):
        for g in corpus:
            free, tors = H.cokernel_invariants_naive(k_matrix(g).to_lists())
            assert k0(g).invariants() == FgAbGroup.from_parts(free, tors)

    def test_invariant_under_relabeling(self, corpus):
        rng = random.Random(3)
        for g in corpus[:40]:
            names = list(g.vertices)
            rng.shuffle(names)
            g2 = relabel(g, {v: f"x_{n}" for v, n in zip(g.vertices, names)})
            assert k0(g).invariants() == k0(g2).invariants()

    def test_vertex_relation_classes(self, fan, corpus):
        # the class of a regular vertex equals the sum of its edge targets
        kz = k0(fan)
        assert H.canon(kz, (1, 0, 0)) == H.canon(kz, (0, 1, 1))
        rng = random.Random(5)
        for g in corpus[:40]:
            if not g.regulars:
                continue
            kz = k0(g)
            km = k_matrix(g)
            x = tuple(rng.randint(-3, 3) for _ in range(km.cols))
            assert H.is_zero_class(kz, km @ x)


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

    def test_kernel_is_the_tail_of_the_two_sided_v(self, corpus):
        # the V-only elimination behind k1's kernel gives the columns of
        # snf's v past the rank, and kernel_rank counts them
        rng = random.Random(89)
        sizes = ((50, 0.0), (120, 0.2), (200, 0.0))
        graphs = list(corpus[:60]) + [H.sparse_graph(rng, n, p) for n, p in sizes]
        for coeff in (CoeffGroup.units_of_field(5), CoeffGroup.symbolic()):
            for g in graphs:
                km = k_matrix(g)
                sd = snf(km)
                kb = k1(g, coeff)
                assert kb.kernel == sd.v.take_columns(range(sd.rank, km.cols)), g
                assert kb.kernel_rank == kb.kernel.cols

    def test_sink_only_graph(self):
        g = Graph(["s"], [])
        f5r = CoeffGroup.reduced_units_of_field(5)
        assert k1(g, f5r).isomorphism_class() == FgAbGroup.from_parts(0, (2,))
        assert k0(g).invariants() == FgAbGroup.from_parts(1, ())


class TestPsiPhiDiagram:
    def test_hand_golden_on_rose2(self, rose2):
        # K-matrix is [1]; applying the square both ways lands in one class
        left = phi(psi(rose2, (1,)))
        right = psi(rose2, k_matrix(rose2) @ (1,))
        assert graded_equal(rose2, left, right).is_equal

    def test_psi_level_shift(self, fan):
        a = psi(fan, (1, 0, 0), level=2)
        assert a.coeffs == (("v", 2, 1),)

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

    def test_wrong_k0_presentation_breaks_phi_check(self, rose2, monkeypatch):
        # K0 presented as the free group on the vertices: v(0) - 2*v(-1)
        # forgets to -v, which is not zero there
        def free_k0(g):
            return PresentedGroup(IntMatrix.zeros(len(g.vertices), 0))

        assert vdb_sequence(rose2, CoeffGroup.units_of_field(5)).phi_composes_to_zero
        monkeypatch.setattr(ktheory, "k0", free_k0)
        rep = vdb_sequence(rose2, CoeffGroup.units_of_field(5))
        assert not rep.phi_composes_to_zero
        assert not rep.consistent

    def test_foreign_presentation_gets_full_decision(self, corpus, monkeypatch):
        # the same relations in reverse column order: the witnesses -e_j no
        # longer re-multiply, so each relation is decided by a lattice solve
        def reversed_k0(g):
            km = k_matrix(g)
            return PresentedGroup(km.take_columns(reversed(range(km.cols))))

        decided = []
        solve_lattice = ktheory.solve_lattice

        def counted(m, vec):
            decided.append(vec)
            return solve_lattice(m, vec)

        monkeypatch.setattr(ktheory, "k0", reversed_k0)
        monkeypatch.setattr(ktheory, "solve_lattice", counted)
        for g in corpus[:60]:
            rep = vdb_sequence(g, CoeffGroup.units_of_field(5))
            assert rep.phi_composes_to_zero
        assert len(decided) >= 10

    def test_witnesses_need_no_class_decision(self, corpus, monkeypatch):
        calls = []
        solve_lattice = ktheory.solve_lattice

        def counted(m, vec):
            calls.append(vec)
            return solve_lattice(m, vec)

        monkeypatch.setattr(ktheory, "solve_lattice", counted)
        for g in corpus:
            for coeff in (CoeffGroup.units_of_field(5), CoeffGroup.symbolic()):
                rep = vdb_sequence(g, coeff)
                assert rep.phi_composes_to_zero
                assert rep.coker_phi == k0(g).invariants()
        assert calls == []

    def test_kernel_vector_outside_the_kernel_is_a_bug(self, rose2, monkeypatch):
        # the transfer matrix of the rose is [1]; a kernel basis [1] is wrong
        monkeypatch.setattr(ktheory, "kernel_basis", lambda m: IntMatrix([[1]]))
        with pytest.raises(AssertionError, match="^kernel basis vector is not in the kernel of"):
            vdb_sequence(rose2, COEFF_F5)

    def test_kernel_image_phi_does_not_kill_is_reported(self, loop, monkeypatch):
        # as if graded equality could not decide phi(psi(x)) = 0 for the
        # loop's kernel vector
        undecided = EqVerdict("not-equal", "forced")
        monkeypatch.setattr(ktheory, "graded_equal", lambda g, a, b: undecided)
        rep = vdb_sequence(loop, COEFF_F5)
        assert not rep.kernel_maps_into_ker_phi and rep.phi_composes_to_zero
        assert not rep.consistent

    def test_loop_witnesses(self, loop):
        rep = vdb_sequence(loop, CoeffGroup.reduced_units_of_field(5))
        assert rep.consistent
        assert rep.k0.invariants() == FgAbGroup.from_parts(1, ())
        assert rep.k1.isomorphism_class() == FgAbGroup.from_parts(1, (2,))


class TestConnectingMap:
    def test_toeplitz_golden(self):
        g = toeplitz_graph()
        cd = connecting_delta(g, {"s"})
        assert cd.kernel.to_lists() == [[1]]
        assert cd.x_block.to_lists() == [[1]]
        assert H.delta_value(cd, (1,)) == (1,)
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
            H.delta_value(connecting_delta(H.fan_graph(), {"w1"}), (1,))

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
                    assert snake_rho(g, members, x) == H.delta_value(cd, x)
                    checked += 1
        assert checked >= 50


def nested_rows(g, coeff, store=None):
    """The six-term row of every nested triple of g's ideal lattice, each on
    a store of its own, or all on ``store`` when one is given."""
    lat = enumerate_hsat(g)
    n = len(lat)
    for i in range(n):
        for j in range(i, n):
            if not lat.leq(i, j):
                continue
            for p in range(j, n):
                if not lat.leq(j, p):
                    continue
                if store is None:
                    yield six_term_row(g, lat.members(i), lat.members(j), lat.members(p), coeff)
                else:
                    names = tuple(lat.members(k) for k in (i, j, p))
                    masks = (lat.elements[k] for k in (i, j, p))
                    yield SixTermRow(names, ktheory._row_body(store, *masks))


# two loops a and b, as vertex masks: the ideal {a} between nothing and
# everything
TWO_LOOP_TRIPLE = (0b00, 0b01, 0b11)


def z_verdicts(nodes):
    return tuple((n.image_in_kernel, n.kernel_in_image) for n in nodes)


def with_doubled_delta(maps):
    f = maps[2]
    doubled = GroupMap(f.domain, f.codomain, H.scale(f.matrix, 2), name="2delta")
    return maps[:2] + (doubled,) + maps[3:]


class TestSixTermRow:
    def test_fan_row_golden(self, fan):
        f5r = CoeffGroup.reduced_units_of_field(5)
        row = six_term_row(fan, set(), {"w1"}, set(fan.vertices), f5r)
        assert row.body.exact
        assert [n.name for n in row.body.nodes] == [
            "k1bar-middle",
            "k1bar-quotient",
            "k0-ideal",
            "k0-middle",
        ]
        assert [pair.k0.invariants() for pair in row.body.pairs] == [
            FgAbGroup.from_parts(1, ()),
            FgAbGroup.from_parts(2, ()),
            FgAbGroup.from_parts(1, ()),
        ]
        assert [pair.k1.isomorphism_class() for pair in row.body.pairs] == [
            FgAbGroup.from_parts(0, (2,)),
            FgAbGroup.from_parts(0, (2, 2)),
            FgAbGroup.from_parts(0, (2,)),
        ]
        # coefficient-level element checks ran on the torsion nodes
        assert all(n.coeff_exact for n in row.body.nodes[:2])

    def test_toeplitz_row_has_nonzero_delta(self):
        g = toeplitz_graph()
        f5r = CoeffGroup.reduced_units_of_field(5)
        row = six_term_row(g, set(), {"s"}, {"v", "s"}, f5r)
        assert row.body.exact
        assert H.row_skeleton(SubquotientStore(g, f5r), row)[2].matrix.to_lists() == [[1]]

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
                    assert row.body.exact, (g, row.triple)

class TestRowSkeleton:
    def test_nodes_match_ambient_oracle_on_corpus(self, corpus):
        coeff = CoeffGroup.reduced_units_of_field(3)
        rows = doubled = 0
        for g in corpus:
            store = SubquotientStore(g, coeff)
            for row in nested_rows(g, coeff):
                reported = tuple((n.z_image_in_kernel, n.z_kernel_in_image) for n in row.body.nodes)
                graphs = H.row_graphs(g, row)
                assert reported == H.six_term_nodes_oracle(graphs), (g, row.triple)
                maps = H.row_skeleton(store, row)
                assert reported == z_verdicts(check_exact(maps))
                if any(map(any, maps[2].matrix.data)):  # delta is not zero
                    # a broken row: the one-sided verdicts must still agree
                    got = z_verdicts(check_exact(with_doubled_delta(maps)))
                    assert got == H.six_term_nodes_oracle(graphs, delta_scale=2), (
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
            store = SubquotientStore(g, coeff)
            for row in nested_rows(g, coeff):
                maps = H.row_skeleton(store, row)
                groups = H.row_groups(maps)
                assert len(groups) == 6
                for k, f in enumerate(maps):
                    assert f.domain == groups[k] and f.codomain == groups[k + 1]
                    assert f.matrix.shape == (f.codomain.generators, f.domain.generators)
                    assert check_well_defined(f)
                graphs = H.row_graphs(g, row)
                for grp, sub in zip(groups[:3], graphs):
                    assert grp.relations.shape == (k1(sub, coeff).kernel_rank, 0)
                for grp, sub in zip(groups[3:], graphs):
                    assert grp.relations == k_matrix(sub)
                # delta in the skeleton is the standalone connecting map of
                # the middle ideal in the outer subquotient
                inner, middle, _ = row.triple
                hprime = set(middle) - set(inner)
                assert maps[2].matrix == connecting_delta(graphs[1], hprime).map.matrix

    def test_corrupted_store_pair_breaks_a_square(self):
        # two loops, ideal {a}: a middle pair whose transfer matrix counts an
        # edge from a to b, leaving the ideal, fails both intertwining squares
        g = Graph(["a", "b"], [("x", "a", "a"), ("y", "b", "b")])
        leaving = k_matrix(Graph(["a", "b"], [("x", "a", "a"), ("y", "b", "b"), ("z", "a", "b")]))
        coeff = CoeffGroup.reduced_units_of_field(5)
        # corrupted before the first row: a later row of the same shape
        # shares the checked record and would not look at the pair again
        store = SubquotientStore(g, coeff)
        store.get(TWO_LOOP_TRIPLE[2] & ~TWO_LOOP_TRIPLE[0])[1].km = leaving
        with pytest.raises(AssertionError, match="^an edge leaves the middle ideal; the squares"):
            ktheory._row_body(store, *TWO_LOOP_TRIPLE)

    def test_kernel_vector_leaving_the_kernel_is_a_bug(self, monkeypatch):
        # a kernel basis of the middle group that misses the vector which
        # tau1 sends from the ideal part's kernel: (1, 0) is not in its span
        kernel_basis = ktheory.kernel_basis
        middle = IntMatrix.zeros(2, 2)
        monkeypatch.setattr(
            ktheory, "kernel_basis", lambda m: IntMatrix([[0], [1]]) if m == middle else kernel_basis(m)
        )
        g = Graph(["a", "b"], [("x", "a", "a"), ("y", "b", "b")])
        message = "^kernel vector left the kernel under an induced map$"
        with pytest.raises(AssertionError, match=message):
            six_term_row(g, set(), {"a"}, {"a", "b"}, COEFF_F5)

    def test_doubled_delta_is_one_sided_on_toeplitz(self):
        # im(2 delta) = 2Z sits inside ker(u12) = Z but does not fill it
        g = toeplitz_graph()
        coeff = CoeffGroup.reduced_units_of_field(5)
        row = six_term_row(g, set(), {"s"}, {"v", "s"}, coeff)
        maps = H.row_skeleton(SubquotientStore(g, coeff), row)
        got = z_verdicts(check_exact(with_doubled_delta(maps)))
        assert got == ((True, True), (True, True), (True, False), (True, True))
        assert got == H.six_term_nodes_oracle(H.row_graphs(g, row), delta_scale=2)


def twisted_chain(maps, order, u12_scale=1, u23_scale=1):
    """u12 and u23 between the twisted groups coker([K | order*I]) of a row
    skeleton, then the zero map to the trivial group: the chain six_term_row
    checks."""
    c1, c2, c3 = (
        PresentedGroup(km.hstack(H.scale(IntMatrix.identity(km.rows), order)))
        for km in (maps[3].domain.relations, maps[4].domain.relations, maps[4].codomain.relations)
    )
    u12, u23 = H.scale(maps[3].matrix, u12_scale), H.scale(maps[4].matrix, u23_scale)
    return (
        GroupMap(c1, c2, u12),
        GroupMap(c2, c3, u23),
        GroupMap(c3, PresentedGroup(IntMatrix.zeros(0, 0)), IntMatrix.zeros(0, c3.generators)),
    )


def fresh_verdicts(maps, coeff):
    """Node verdicts of a skeleton from check_exact, with no store."""
    z = z_verdicts(check_exact(maps))
    twisted = (None, None)
    if coeff.kind == "finite-cyclic":
        middle, quotient = check_exact(twisted_chain(maps, coeff.order))
        twisted = (middle.exact, quotient.kernel_in_image)
    return z, twisted + (None, None)


def store_verdicts(nodes):
    z = tuple((n.z_image_in_kernel, n.z_kernel_in_image) for n in nodes)
    return z, tuple(n.coeff_exact for n in nodes)


def with_zero_u12(maps):
    f = maps[3]
    zero = GroupMap(f.domain, f.codomain, H.scale(f.matrix, 0), name="u12")
    return maps[:3] + (zero,) + maps[4:]


class TestSkeletonMemo:
    """A store decides each distinct skeleton once; every row must still
    carry the verdicts of a fresh check of its own maps."""

    @pytest.mark.parametrize(
        "coeff", [CoeffGroup.symbolic(), CoeffGroup.finite_cyclic(5)], ids=["symbolic", "z5"]
    )
    def test_nodes_equal_fresh_check_exact(self, corpus, coeff):
        rows = shared = broken = 0
        for g in corpus:
            if g.num_vertices > 6:
                continue
            store = SubquotientStore(g, coeff)
            skeletons = set()
            for row in nested_rows(g, coeff, store=store):
                skeleton = H.row_skeleton(store, row)
                expected = fresh_verdicts(skeleton, coeff)
                assert store_verdicts(row.body.nodes) == expected, (g, row.triple)
                shared += skeleton in skeletons
                skeletons.add(skeleton)
                rows += 1
                # skeletons that differ from a real one in a single map must
                # not be served its verdicts
                for maps in (with_doubled_delta(skeleton), with_zero_u12(skeleton)):
                    got = store_verdicts(H.skeleton_record(maps, row.body.pairs).nodes)
                    expected = fresh_verdicts(maps, coeff)
                    assert got == expected, (g, row.triple, maps[2].name, maps[3].matrix)
                    broken += got != store_verdicts(row.body.nodes)
        assert rows == 1491 and shared >= 300 and broken >= 100

    def test_kernel_coordinates_are_shared(self, monkeypatch):
        g = H.disjoint_loops(3)
        store = SubquotientStore(g, CoeffGroup.symbolic())
        rows = list(nested_rows(g, CoeffGroup.symbolic(), store=store))
        assert len(rows) == 64
        for row in rows:
            fresh = six_term_row(g, *row.triple, CoeffGroup.symbolic())
            assert row.body.maps == fresh.body.maps and row.body.nodes == fresh.body.nodes
        # 4^k rows on k disjoint loops fall into 2^(k+1) - 1 positional shapes
        for k in range(1, 5):
            table = fkbar(H.disjoint_loops(k), COEFF_F5)
            assert len(table.rows) == 4**k
            assert H.shape_count(table.store) == 2 ** (k + 1) - 1
        # the two tables of a compare share one skeleton record per shape
        built = []
        record_class = ktheory._Skeleton

        def counting(*args):
            built.append(args)
            return record_class(*args)

        monkeypatch.setattr(ktheory, "_Skeleton", counting)
        assert compare_fkbar(g, g, COEFF_F5).consistent
        assert len(built) == 15


class TestCoefficientNodes:
    def test_match_enumeration_oracle_on_corpus(self, corpus):
        # reduced unit groups Z/1, Z/2, Z/3 and Z/4
        for q in (3, 5, 7, 9):
            coeff = CoeffGroup.reduced_units_of_field(q)
            rows = 0
            for g in corpus:
                for row in nested_rows(g, coeff):
                    got = tuple(n.coeff_exact for n in row.body.nodes)
                    expected = H.twisted_nodes_oracle(H.row_graphs(g, row), coeff.order)
                    assert got == expected + (None, None), (q, g, row.triple)
                    rows += 1
            assert rows == 1491

    def test_not_checked_without_finite_coefficients(self, fan):
        for coeff in (CoeffGroup.symbolic(), CoeffGroup.divisible()):
            row = six_term_row(fan, set(), {"w1"}, set(fan.vertices), coeff)
            assert all(n.coeff_exact is None for n in row.body.nodes)

    def test_zero_maps_leave_kernels_uncovered(self):
        # two loops, ideal {a}: ker(u23) = Z/2 ⊕ 0 inside (Z/2)^2, and a zero
        # u12 has image 0, so only the kernel-in-image inclusion fails
        g = Graph(["a", "b"], [("x", "a", "a"), ("y", "b", "b")])
        coeff = CoeffGroup.reduced_units_of_field(5)
        row = six_term_row(g, set(), {"a"}, {"a", "b"}, coeff)
        assert [n.coeff_exact for n in row.body.nodes[:2]] == [True, True]
        maps = H.row_skeleton(SubquotientStore(g, coeff), row)
        middle, quotient = check_exact(twisted_chain(maps, 2, u12_scale=0))
        assert middle.image_in_kernel and not middle.kernel_in_image
        assert quotient.exact
        assert H.twisted_nodes_oracle(H.row_graphs(g, row), 2, u12_scale=0) == (False, True)
        # a zero u23 is not onto: the quotient node reads that as kernel_in_image
        _, quotient = check_exact(twisted_chain(maps, 2, u23_scale=0))
        assert quotient.image_in_kernel and not quotient.kernel_in_image
        assert all(n.exact for n in check_exact(twisted_chain(maps, 2)))


def seeded_tables(coeff, count=16, max_rows=150):
    """Tables of seeded sparse graphs with 5 to 12 vertices, some with
    sinks; a graph whose lattice has more than ``max_rows`` nested triples
    is drawn again."""
    rng = random.Random(2323)
    tables = []
    while len(tables) < count:
        g = H.sparse_graph(rng, 5 + len(tables) % 8, sink_prob=0.3)
        try:
            tables.append(fkbar(g, coeff, row_cap=max_rows))
        except RowCapError:
            continue
    return tables


def original_classes(maps):
    """Group and map classes of a skeleton, on its own presentations."""
    groups = (maps[0].domain,) + tuple(f.codomain for f in maps)
    return (
        tuple(n.invariants() for n in groups),
        tuple(map_invariants(f.matrix, f.domain.relations, f.codomain.relations) for f in maps),
    )


class TestSmithCoordinates:
    """A table decides every skeleton on its groups' Smith coordinates; the
    verdicts and classes must be those of the skeleton's own maps."""

    @pytest.mark.parametrize(
        "coeff",
        [CoeffGroup.reduced_units_of_field(5), CoeffGroup.divisible(), CoeffGroup.symbolic()],
        ids=["field5", "divisible", "symbolic"],
    )
    def test_verdicts_and_classes_equal_original_coordinates(self, corpus, coeff):
        tables = [filtered.FilteredKTable(g, coeff) for g in corpus] + seeded_tables(coeff)
        expected = {}  # skeleton -> verdicts and classes on its own maps

        def original(maps):
            if maps not in expected:
                expected[maps] = fresh_verdicts(maps, coeff), original_classes(maps)
            return expected[maps]

        rows = reduced = broken = 0
        for t in tables:
            for row in t.rows:
                skeleton = H.row_skeleton(t.store, row)
                got = store_verdicts(row.body.nodes), row.body.signature
                assert got == original(skeleton), row.triple
                rows += 1
                reduced += row.body.maps != skeleton
                if not any(map(any, skeleton[2].matrix.data)):
                    continue
                # a non-exact skeleton: its one-sided verdicts and its classes
                mutant = with_doubled_delta(skeleton)
                body = H.skeleton_record(mutant, row.body.pairs)
                got = store_verdicts(body.nodes)
                groups, maps = body.signature
                assert (got, (groups, maps)) == original(mutant), row.triple
                broken += got != store_verdicts(row.body.nodes)
        assert rows >= 1491 + 16 and reduced >= 1000 and broken >= 50

    def test_each_presentation_reduced_once_per_pair_record(self, corpus, monkeypatch):
        reduced = []
        coordinates = ktheory._SmithCoordinates

        def counting(group):
            reduced.append(group)
            return coordinates(group)

        monkeypatch.setattr(ktheory, "_SmithCoordinates", counting)
        stores = record_shared_stores(monkeypatch)
        total = 0
        for g in corpus[:80]:
            reduced.clear()
            table = fkbar(g, COEFF_F5)
            # only pair records reduce, each its own K0 presentation once
            own = {id(pair.k0) for pair in table.store._records.values()}
            assert len(reduced) == len(set(map(id, reduced))) and set(map(id, reduced)) <= own, g
            total += len(reduced)
            # a relabelled copy's blocks are the first table's, so the second
            # store reaches only records the first table's masks reach, and
            # a compare reduces each of them once
            reduced.clear()
            stores.clear()
            copy = relabel(g, {v: v + "c" for v in g.vertices})
            assert compare_fkbar(g, copy, COEFF_F5).consistent
            first, second = ({id(pair) for _, pair in s._pairs.values()} for s in stores)
            assert second <= first, g
            assert len(reduced) == len(set(map(id, reduced))), g
            assert set(map(id, reduced)) <= {id(p.k0) for p in stores[0]._records.values()}, g
        assert total >= 200

    def test_kernel_inverse_inverts_every_kernel_basis(self, corpus):
        # rows r.. of v^-1 from the transfer matrix's one two-sided run are a
        # left inverse of its kernel basis, the columns r.. of v; a zero
        # transfer matrix has identities for both
        records = zeros = 0
        for g in corpus:
            for record in fkbar(g, COEFF_F5).store._records.values():
                kernel = record.k1.kernel
                assert record.kernel_inverse @ kernel == IntMatrix.identity(kernel.cols), g
                records += 1
                zeros += not any(map(any, record.km.data))
        assert records >= 550 and 0 < zeros < records

    def test_zero_relations_have_one_coordinate_group(self):
        # a group with no nonzero relation is in Smith coordinates already,
        # whatever its zero relation columns: 3 generators give the free
        # group of rank 3 that a record on 3 loops builds on its kernel
        groups = {
            ktheory._SmithCoordinates(PresentedGroup(IntMatrix.zeros(3, cols))).group
            for cols in (0, 1, 2)
        }
        record = ktheory.SubquotientK(IntMatrix.identity(3), COEFF_F5)
        assert record.k1.kernel_rank == 3
        assert groups == {record.free} == {record.coords.group}

    def test_products_per_built_shape(self, monkeypatch):
        # a shape's five maps are cut from its three pair records: one
        # product each for u12 and u23, two for delta, and one for tau1 and
        # tau2 with one more each to re-multiply; a record's own Smith data
        # and kernel inverse are made once, however many shapes read them
        products = []
        matmul = IntMatrix.__matmul__

        def counting(a, b):
            if isinstance(b, IntMatrix):
                products.append(None)
            return matmul(a, b)

        monkeypatch.setattr(IntMatrix, "__matmul__", counting)
        table = fkbar(parse_graph(poset_loops(8, 0.3, 1)), COEFF_F5)
        shapes = H.shape_count(table.store)
        assert shapes == 396 and len(products) <= 8 * shapes

    def test_skeleton_work_once_per_skeleton(self, monkeypatch):
        # a chain of loops into a sink, and a two-petal rose feeding it
        edges = [("x", "a", "a"), ("y", "a", "b"), ("z", "b", "b"), ("w", "b", "s")]
        edges += [("v", "c", "c"), ("u", "c", "c"), ("t", "c", "a")]
        g = Graph(["a", "b", "c", "s"], edges)
        calls = {"nodes": [], "classes": []}
        skeleton_nodes, invariants = ktheory._skeleton_nodes, ktheory.map_invariants

        def counting_nodes(maps, coeff):
            calls["nodes"].append(maps)
            return skeleton_nodes(maps, coeff)

        def counting_classes(*args):
            calls["classes"].append(args)
            return invariants(*args)

        monkeypatch.setattr(ktheory, "_skeleton_nodes", counting_nodes)
        monkeypatch.setattr(ktheory, "map_invariants", counting_classes)
        table = fkbar(g, COEFF_F5)
        skeletons = {H.row_skeleton(table.store, row) for row in table.rows}
        distinct = set(table.bodies)
        calls["nodes"].clear()
        assert compare_fkbar(g, g, COEFF_F5, element_search=False).consistent
        # the nodes of each distinct skeleton in Smith coordinates, which
        # the two tables' shared store decides once; each record is paired
        # with itself, so no class is read
        assert len(calls["nodes"]) == len(distinct) < len(skeletons)
        assert calls["classes"] == []
        assert any(reduced not in skeletons for reduced in calls["nodes"])


class TestSharedSkeletons:
    """Row verdicts are a function of the skeleton in Smith coordinates,
    and a store decides each skeleton once: rows of other shapes with one
    skeleton, in one table or in the two tables of a compare, share its
    record."""

    @pytest.mark.parametrize(
        "coeff", [CoeffGroup.symbolic("Gbar"), COEFF_F5], ids=["symbolic", "field5"]
    )
    def test_check_exact_once_per_skeleton(self, coeff, monkeypatch):
        # a pair the compare cannot align, so each table's rows are those
        # of its own fk
        graphs = H.unaligned_pair(
            *(parse_graph(poset_loops(8, 0.3, 1, order_seed=s)) for s in (None, 5))
        )
        stores = [fkbar(g, coeff).store for g in graphs]
        keys = {maps for store in stores for maps in store._skeletons}
        shapes = sum(map(H.shape_count, stores))
        calls = []
        original = ktheory.check_exact

        def counting(maps):
            calls.append(maps)
            return original(maps)

        monkeypatch.setattr(ktheory, "check_exact", counting)
        assert compare_fkbar(*graphs, coeff, element_search=False).consistent
        # the Z-level chain per skeleton, and for Z/m the twisted one too
        per_key = 2 if coeff.kind == "finite-cyclic" else 1
        assert len(calls) == per_key * len(keys) and 2 * len(keys) < shapes

    def test_one_record_per_skeleton_in_smith_coordinates(self):
        # a skeleton in Smith coordinates is its maps and the moduli of its
        # six groups, each read here as the gcd of a generator's relation
        # row; shapes whose skeletons agree that way share one record
        store = fkbar(parse_graph(poset_loops(10, 0.3, 1)), COEFF_F5).store

        def key(maps):
            groups = (maps[0].domain,) + tuple(f.codomain for f in maps)
            moduli = tuple(tuple(math.gcd(*r) for r in n.relations.data) for n in groups)
            return moduli, tuple(f.matrix for f in maps)

        records = {id(record) for shapes in store._shapes.values() for record in shapes.values()}
        keys = {key(maps) for maps in store._skeletons}
        assert len(records) == len(store._skeletons) == len(keys) == 60
        assert H.shape_count(store) > 2 * len(keys)

    @pytest.mark.parametrize(
        "coeff", [COEFF_F5, CoeffGroup.symbolic("Gbar")], ids=["field5", "symbolic"]
    )
    def test_equal_skeletons_have_equal_payloads(self, corpus, coeff):
        # a record built outside a store decides its own verdicts, and
        # records of other tables with equal maps must print and match alike
        graphs = [*corpus[:80], *(parse_graph(poset_loops(8, 0.3, s)) for s in range(8))]
        first = {}  # skeleton -> payload, nodes and signature of its first record
        shared = 0
        for g in graphs:
            for maps, record in fkbar(g, coeff).store._skeletons.items():
                own = ktheory._Skeleton(maps, record.pairs)
                got = cli._body_json(own), own.nodes, own.signature
                seen = first.setdefault(maps, got)
                assert got == seen, g
                shared += seen is not got
        assert len(first) >= 1500 and shared >= 600


def record_shared_stores(monkeypatch):
    """A list that gains the two stores of each compare from now on, the
    first table's and then the second's, when the second shares the
    first's memos."""
    stores = []
    share = ktheory.SubquotientStore._share

    def recording(store, other):
        stores.extend((other, store))
        share(store, other)

    monkeypatch.setattr(ktheory.SubquotientStore, "_share", recording)
    return stores


def count_konebars(monkeypatch):
    """A list that gains an entry per ``KOneBar`` built from now on."""
    built = []
    init = ktheory.KOneBar.__init__

    def counting(self, *args, **kwargs):
        built.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ktheory.KOneBar, "__init__", counting)
    return built


PRINTED_COEFFS = {
    "field5": CoeffGroup.reduced_units_of_field(5),
    "field9": CoeffGroup.reduced_units_of_field(9),
    "field17": CoeffGroup.reduced_units_of_field(17),
    "divisible": CoeffGroup.divisible(),
    "symbolic": CoeffGroup.symbolic("Gbar"),
}


class TestPairRecordGroups:
    """A row is three pair records.  Its skeleton record keeps those of the
    first row cut to it and prints their K1bar and K0 groups, so a table
    builds one K1bar per pair record and none per row, and what every row
    of the record prints must be the classes of its own pair records."""

    def test_pairs_are_the_first_rows_pair_records(self, corpus):
        # by identity: the store's records of J - I, P - I and P - J of the
        # first row in ``row_triples`` order with that skeleton record
        records, others = set(), 0
        # the whole corpus: rows of one block share its record, so fewer
        # later rows than on 80 graphs come from other pair records
        for g in [*corpus, parse_graph(poset_loops(8, 0.3, 1))]:
            table = fkbar(g, COEFF_F5)
            bits = table.lattice.elements
            for (i, j, p), body in zip(table.row_triples, table.bodies):
                masks = ((i, j), (i, p), (j, p))
                parts = [table.store.get(bits[b] & ~bits[a])[1] for a, b in masks]
                same = len(body.pairs) == 3 and all(map(operator.is_, body.pairs, parts))
                if body in records:
                    others += not same  # a later row on other pair records
                    continue
                records.add(body)
                assert same, (g, i, j, p)
        assert len(records) >= 450 and others >= 500

    def test_one_konebar_per_pair_record(self, corpus, monkeypatch):
        built = count_konebars(monkeypatch)
        for g in [*corpus[:80], parse_graph(poset_loops(8, 0.3, 1))]:
            built.clear()
            table = fkbar(g, COEFF_F5)
            for record in set(table.bodies):
                cli._body_json(record)
            assert len(built) == len(table.store._records), g
        # the poset's 396 row shapes over its pair records
        assert H.shape_count(table.store) >= 4 * len(table.store._pairs)

    def test_compare_builds_konebars_per_pair_record(self, monkeypatch):
        stores = record_shared_stores(monkeypatch)
        g = parse_graph(poset_loops(8, 0.3, 1))
        shuffled = parse_graph(poset_loops(8, 0.3, 1, order_seed=5))
        built = count_konebars(monkeypatch)
        assert compare_fkbar(g, shuffled, COEFF_F5).consistent
        first, second = stores
        # the two stores share one record, and so one K1bar, per block
        assert first._records is second._records and len(built) == len(first._records)
        assert H.shape_count(first) >= 300

    @pytest.mark.parametrize("coeff", list(PRINTED_COEFFS.values()), ids=list(PRINTED_COEFFS))
    def test_printed_classes_equal_pair_records(self, corpus, coeff):
        # every row's printed K0 and K1bar fields, read off its skeleton
        # record's pair records, which the first row cut to it gave, against
        # the K0 invariants and the KOneBar of the store's pair records of
        # this row's J - I, P - I and P - J, on their transfer blocks
        records = set()
        for g in [*corpus, parse_graph(poset_loops(8, 0.3, 1))]:
            table = fkbar(g, coeff)
            bits = table.lattice.elements
            for (i, j, p), body in zip(table.row_triples, table.bodies):
                masks = ((i, j), (i, p), (j, p))
                parts = [table.store.get(bits[b] & ~bits[a])[1] for a, b in masks]
                k0s = [cli._group_json(pair.k0.invariants()) for pair in parts]
                k1bars = [cli._konebar_json(pair.k1) for pair in parts]
                payload = cli._body_json(body)
                assert payload["k0"] == k0s, (g, i, j, p)
                assert payload["k1bar"] == k1bars, (g, i, j, p)
                records.add(body)
        assert len(records) >= 800


class TestBlockRecords:
    """A store keeps one pair record per distinct adjacency block, read off
    the block alone, and maps each difference mask to the rows of its
    vertices and the record of their block."""

    def test_km_is_the_transfer_block(self, corpus):
        # each mask's record against the graph's k_matrix at the mask's
        # vertices and its regular vertices, on the corpus and on a poset
        # whose declaration order is shuffled
        masks = 0
        for g in [*corpus, parse_graph(poset_loops(8, 0.3, 1, order_seed=5))]:
            store = fkbar(g, COEFF_F5).store
            km, regular = k_matrix(g), [g.index(v) for v in g.regulars]
            for bits, (rows, pair) in store._pairs.items():
                cols = [j for j, i in enumerate(regular) if bits >> i & 1]
                assert rows == tuple(i for i in range(g.num_vertices) if bits >> i & 1)
                assert pair.km == km.take_rows(rows).take_columns(cols), (g, bits)
                assert pair.regs == tuple(rows.index(regular[j]) for j in cols), (g, bits)
                masks += 1
        assert masks >= 680

    def test_equal_blocks_share_one_record(self, corpus):
        # k disjoint loops: 2^k masks whose blocks are the k + 1 identities
        store = fkbar(H.disjoint_loops(8), COEFF_F5).store
        assert len(store._pairs) == 256 and len(store._records) == 9
        assert len({id(pair) for _, pair in store._pairs.values()}) == 9
        # two masks share one record exactly when their blocks are equal
        shared = 0
        for g in [*corpus, parse_graph(poset_loops(8, 0.3, 1))]:
            store = fkbar(g, COEFF_F5).store
            by_block = {}
            for rows, pair in store._pairs.values():
                block = g.adjacency().take_rows(rows).take_columns(rows)
                assert by_block.setdefault(block, pair) is pair, g
            assert len({id(pair) for pair in by_block.values()}) == len(by_block), g
            assert list(store._records) == list(by_block), g
            shared += len(store._pairs) - len(by_block)
        assert shared >= 60

    def test_relabelled_compare_builds_no_record_in_its_second_store(self, corpus, monkeypatch):
        # a relabelled copy keeps the declaration order, so each block of
        # it is one of the first graph's: the compare builds as many pair
        # records as the first table alone, and the second store reaches
        # only records that the first reaches
        built = []
        record = ktheory.SubquotientK

        def counting(block, coeff):
            built.append(block)
            return record(block, coeff)

        stores = record_shared_stores(monkeypatch)
        for g in [*corpus[:80], parse_graph(poset_loops(8, 0.3, 1))]:
            alone = len(fkbar(g, COEFF_F5).store._records)
            monkeypatch.setattr(ktheory, "SubquotientK", counting)
            built.clear()
            stores.clear()
            copy = relabel(g, {v: v + "c" for v in g.vertices})
            assert compare_fkbar(g, copy, COEFF_F5).consistent
            monkeypatch.setattr(ktheory, "SubquotientK", record)
            first, second = ({id(pair) for _, pair in s._pairs.values()} for s in stores)
            assert len(built) == alone and second <= first, g

    def test_shuffled_compare_builds_nothing_in_its_second_store(self, corpus):
        # a copy declared in another order that the compare aligns reads each
        # block in the first graph's order: the compare's shared store holds
        # the pair records, row shapes and skeleton records of the first
        # table alone, and the second store reaches only the first's records
        reordered = 0
        graphs = [*corpus[:80], parse_graph(poset_loops(8, 0.3, 1))]
        for k, g in enumerate(graphs):
            copy = H.declared_shuffled(g, k)
            assert copy._alignment(g) is not None, g
            alone = fkbar(g, COEFF_F5).store
            t1, t2 = (filtered.FilteredKTable(x, COEFF_F5) for x in (g, copy))
            t2.store._share(t1.store)
            iso = filtered.compare_fkbar(g, copy, COEFF_F5).lattice_iso
            assert filtered._match_rows(t1, t2, iso, run_elements=True)[1] == "", g
            sizes = [len(s) for s in (alone._records, alone._shapes, alone._skeletons)]
            shared = t1.store
            assert [len(s) for s in (shared._records, shared._shapes, shared._skeletons)] == sizes
            first, second = ({id(p) for _, p in s._pairs.values()} for s in (t1.store, t2.store))
            assert second <= first, g
            reordered += copy.vertices != g.vertices
        assert reordered >= 45

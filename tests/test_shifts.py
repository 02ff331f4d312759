"""Shift equivalence, Bowen-Franks invariants; the dimension-triple oracle
against the graded colimit engine."""

import itertools
import random

import pytest

import helpers as H
from helpers import (
    DimensionTriple,
    apply_random_expansions,
    dimension_triple_equal,
    random_graded_element,
    triple_of_graded,
)
from leavitt import shifts
from leavitt.cli import main
from leavitt.graphs import Graph, graph_from_matrix, parse_matrix
from leavitt.intlinalg import FgAbGroup, IntMatrix, PresentedGroup, kernel_basis, snf
from leavitt.ktheory import k0
from leavitt.monoid import graded_equal
from leavitt.shifts import (
    ShiftEqCertificate,
    VerifyResult,
    bowen_franks,
    det_invariant,
    shift_equivalent_bounded,
    verify_certificate,
)


def random_shift_matrix(rng, n, hi=2):
    return IntMatrix([[rng.randint(0, hi) for _ in range(n)] for _ in range(n)])


def shift_pairs(rng, count):
    """Seeded (kind, A, B) with A of size 2 to 4, the kinds in turn:
    elementary pairs A = R S, B = S R (often of unequal size), conjugates
    by a permutation, transposes, and independent random pairs."""
    for i in range(count):
        kind = ("elementary", "permutation", "transpose", "random")[i % 4]
        n = rng.randint(2, 4)
        if kind == "elementary":
            m = rng.randint(n - 1, min(4, n + 1))
            r = IntMatrix([[rng.randint(0, 1) for _ in range(m)] for _ in range(n)])
            s = IntMatrix([[rng.randint(0, 1) for _ in range(n)] for _ in range(m)])
            yield kind, r @ s, s @ r
        elif kind == "permutation":
            a = random_shift_matrix(rng, n)
            p = IntMatrix.identity(n).take_rows(rng.sample(range(n), n))
            yield kind, a, p @ a @ p.transpose()
        elif kind == "transpose":
            a = random_shift_matrix(rng, n)
            yield kind, a, a.transpose()
        else:
            yield kind, random_shift_matrix(rng, n, hi=1), random_shift_matrix(rng, n, hi=1)


@pytest.fixture(scope="module")
def box_oracle():
    """(kind, A, B, result, nodes used) of the box-search oracle at node cap
    2,000, run once on each of the 1,000 seeded pairs of the oracle sweeps;
    a smaller cap c gives the same result when nodes <= c, and runs out of
    nodes otherwise (see ``helpers.shift_equivalent_box_search``)."""
    return [
        (kind, a, b, *H.shift_equivalent_box_search(a, b, max_lag=2, max_entry=2, node_cap=2_000))
        for kind, a, b in shift_pairs(random.Random(71), 1000)
    ]


class TestInvariants:
    def test_bowen_franks_goldens(self):
        assert bowen_franks(IntMatrix([[2]])) == FgAbGroup.from_parts(0, ())
        assert bowen_franks(IntMatrix([[3]])) == FgAbGroup.from_parts(0, (2,))
        assert bowen_franks(IntMatrix([[1, 1], [1, 1]])) == FgAbGroup.from_parts(0, ())
        assert bowen_franks(IntMatrix([[1]])) == FgAbGroup.from_parts(1, ())

    def test_det_goldens(self):
        assert det_invariant(IntMatrix([[2]])) == -1
        assert det_invariant(IntMatrix([[3]])) == -2
        assert det_invariant(IntMatrix([[1, 1], [1, 1]])) == -1
        assert det_invariant(IntMatrix([[1]])) == 0
        # the Bareiss determinant of I - A is an independent oracle
        rng = random.Random(53)
        for _ in range(240):
            a = random_shift_matrix(rng, rng.randint(1, 6), hi=rng.choice((1, 3)))
            assert det_invariant(a) == H.bareiss_det(IntMatrix.identity(a.rows) - a)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            bowen_franks(IntMatrix([[1, 0]], cols=2))
        with pytest.raises(ValueError):
            bowen_franks(IntMatrix([[-1]]))
        with pytest.raises(ValueError):
            det_invariant(IntMatrix([[-1]]))

    def test_identity_minus_matches_the_matrix_sum(self):
        # I - A is built in one pass; both invariants must equal those of
        # identity(n) - A, on sparse and dense draws and on 1x1 matrices
        rng = random.Random(67)
        mats = [IntMatrix([[0]]), IntMatrix([[1]]), IntMatrix([[7]])]
        for n in (1, 2, 3, 6, 12, 20, 40):
            if n <= 12:
                mats.append(random_shift_matrix(rng, n, hi=3))
            sparse = [[0] * n for _ in range(n)]
            for row in sparse:
                for _ in range(rng.randint(1, 2)):
                    row[rng.randrange(n)] += 1
            mats.append(IntMatrix(sparse))
        for a in mats:
            old = IntMatrix.identity(a.rows) - a
            assert shifts._identity_minus(a) == old
            assert hash(shifts._identity_minus(a)) == hash(IntMatrix(old.data))
            assert bowen_franks(a) == PresentedGroup(old).invariants()
            assert det_invariant(a) == snf(old).det

    def test_one_identity_minus_per_matrix(self, tmp_path, capsys):
        # bf and the shift screen read both invariants of a matrix from one I - A
        a, b = IntMatrix([[1, 1], [1, 0]]), IntMatrix([[0, 1], [1, 1]])
        shifts._identity_minus.cache_clear()
        assert shift_equivalent_bounded(a, b).kind == "certificate"
        info = shifts._identity_minus.cache_info()
        assert (info.misses, info.hits) == (2, 2)
        path = tmp_path / "a.mat"
        path.write_text("2 1\n1 0\n", encoding="utf-8")
        shifts._identity_minus.cache_clear()
        assert main(["bf", str(path)]) == 0
        info = shifts._identity_minus.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert capsys.readouterr().out == "BF = Z/2\ndet(I - A) = -2\n"

    def test_bad_matrix_exits_two(self, tmp_path, capsys):
        for name, text in (("neg.mat", "1 -1\n0 1\n"), ("wide.mat", "1 0 1\n0 1 1\n")):
            path = tmp_path / name
            path.write_text(text, encoding="utf-8")
            m = parse_matrix(text)
            for invariant in (bowen_franks, det_invariant):
                with pytest.raises(ValueError):
                    invariant(m)
            assert main(["bf", str(path)]) == 2
            assert main(["--json", "shifteq", str(path), str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error: ")

    def test_bowen_franks_is_k0_of_the_graph(self):
        # for a matrix with no zero rows, coker(I-A) matches K0 of its graph
        rng = random.Random(13)
        for _ in range(60):
            n = rng.randint(1, 4)
            m = IntMatrix(
                [
                    [rng.randint(0, 2) for _ in range(n)]
                    for _ in range(n)
                ]
            )
            if any(all(m[i, j] == 0 for j in range(n)) for i in range(n)):
                continue
            assert bowen_franks(m) == k0(graph_from_matrix(m)).invariants()


class TestCertificates:
    def test_full_shift_pair(self):
        # the 2-shift as a 1x1 matrix vs its 2x2 splitting
        a = IntMatrix([[2]])
        b = IntMatrix([[1, 1], [1, 1]])
        cert = ShiftEqCertificate(lag=1, r=IntMatrix([[1, 1]], cols=2), s=IntMatrix([[1], [1]], cols=1))
        assert verify_certificate(a, b, cert).ok

    def test_self_certificate(self):
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randint(1, 3)
            a = random_shift_matrix(rng, n)
            cert = ShiftEqCertificate(lag=1, r=a, s=IntMatrix.identity(n))
            assert verify_certificate(a, a, cert).ok

    def test_failure_modes_reported(self):
        a = IntMatrix([[2]])
        b = IntMatrix([[1, 1], [1, 1]])
        bad_shape = ShiftEqCertificate(lag=1, r=IntMatrix([[1]]), s=IntMatrix([[1], [1]], cols=1))
        res = verify_certificate(a, b, bad_shape)
        assert not res.ok and any("shape" in f for f in res.failures)

        bad_lag = ShiftEqCertificate(lag=0, r=IntMatrix([[1, 1]], cols=2), s=IntMatrix([[1], [1]], cols=1))
        assert any("lag" in f for f in verify_certificate(a, b, bad_lag).failures)

        negative = ShiftEqCertificate(
            lag=1, r=IntMatrix([[2, -1]], cols=2), s=IntMatrix([[1], [1]], cols=1)
        )
        assert any("negative" in f for f in verify_certificate(a, b, negative).failures)

        broken = ShiftEqCertificate(
            lag=1, r=IntMatrix([[1, 0]], cols=2), s=IntMatrix([[1], [1]], cols=1)
        )
        res = verify_certificate(a, b, broken)
        assert not res.ok and res.failures

        # R = [1 1] intertwines the two, so every failure below involves S
        for s, failures in (
            ([[1, 1]], ("S shape (1, 2) != (2, 1)",)),
            ([[3], [-1]], ("S has a negative entry", "S A != B S", "S R != B^lag")),
            ([[1], [0]], ("S A != B S", "R S != A^lag", "S R != B^lag")),
        ):
            cert = ShiftEqCertificate(lag=1, r=IntMatrix([[1, 1]]), s=IntMatrix(s))
            assert verify_certificate(a, b, cert) == VerifyResult(False, failures)


class TestBoundedSearch:
    def test_finds_full_shift_certificate(self):
        res = shift_equivalent_bounded(
            IntMatrix([[2]]), IntMatrix([[1, 1], [1, 1]]), max_lag=2, max_entry=2
        )
        assert res.kind == "certificate"
        assert res.certificate.lag == 1
        assert all(
            0 <= res.certificate.r[i, j] <= 1
            for i in range(res.certificate.r.rows)
            for j in range(res.certificate.r.cols)
        )
        assert verify_certificate(
            IntMatrix([[2]]), IntMatrix([[1, 1], [1, 1]]), res.certificate
        ).ok

    def test_rose_pair_obstruction(self):
        res = shift_equivalent_bounded(IntMatrix([[2]]), IntMatrix([[3]]))
        assert res.kind == "obstruction"
        assert any("Bowen-Franks" in o for o in res.obstructions)
        assert any("det" in o for o in res.obstructions)

    def test_unknown_when_bounds_exhausted(self):
        res = shift_equivalent_bounded(IntMatrix([[2]]), IntMatrix([[2]]), max_lag=1, max_entry=0)
        assert res.kind == "unknown"
        assert "entries <= 0" in res.note

    def test_self_equivalence_always_found(self):
        rng = random.Random(19)
        for _ in range(25):
            n = rng.randint(1, 3)
            a = random_shift_matrix(rng, n)
            res = shift_equivalent_bounded(a, a, max_lag=3, max_entry=3)
            assert res.kind == "certificate"
            assert verify_certificate(a, a, res.certificate).ok

    def test_soundness_on_random_pairs(self):
        rng = random.Random(23)
        kinds = {"certificate": 0, "obstruction": 0, "unknown": 0}
        for _ in range(60):
            a = random_shift_matrix(rng, rng.randint(1, 2))
            b = random_shift_matrix(rng, rng.randint(1, 2))
            res = shift_equivalent_bounded(a, b, max_lag=3, max_entry=3, node_cap=50_000)
            kinds[res.kind] += 1
            if res.kind == "certificate":
                assert verify_certificate(a, b, res.certificate).ok
                assert bowen_franks(a) == bowen_franks(b)
                assert det_invariant(a) == det_invariant(b)
            elif res.kind == "obstruction":
                assert bowen_franks(a) != bowen_franks(b) or det_invariant(a) != det_invariant(b)
        assert kinds["certificate"] > 5 and kinds["obstruction"] > 5

    def test_node_cap_ends_unknown(self):
        # A R = 0 leaves twelve free entries of R in [0, 4]: far past any cap
        e03 = IntMatrix([[0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
        res = shift_equivalent_bounded(e03, IntMatrix.zeros(4, 4), node_cap=5_000)
        assert res.kind == "unknown" and res.certificate is None
        assert res.note == (
            "no certificate with lag <= 6, entries <= 4; "
            "node budget 5000 exhausted, search incomplete"
        )

    def test_r_lag_systems_count_against_the_cap(self):
        # R in {0, 1} takes two nodes; then each of the 2 * max_lag (R, lag)
        # systems takes one and has no S in the box (R S = 2^lag needs S > 1)
        a = IntMatrix([[2]])
        for max_lag in (1, 3):
            nodes = 2 + 2 * max_lag
            done = shift_equivalent_bounded(a, a, max_lag=max_lag, max_entry=1, node_cap=nodes)
            assert done.note == f"no certificate with lag <= {max_lag}, entries <= 1"
            capped = shift_equivalent_bounded(a, a, max_lag=max_lag, max_entry=1, node_cap=nodes - 1)
            assert capped.kind == "unknown"
            assert capped.note == done.note + f"; node budget {nodes - 1} exhausted, search incomplete"

    def test_four_by_four_transposes_finish_under_the_cap(self):
        # the interval-pruned walk spent its 200,000 nodes listing R on four
        # of these six; the lattice walk decides all six at the default bounds
        rng = random.Random(11)
        lags = []
        for _ in range(6):
            a = IntMatrix([[rng.randint(0, 2) for _ in range(4)] for _ in range(4)])
            res = shift_equivalent_bounded(a, a.transpose())
            assert "budget" not in res.note
            if res.kind == "certificate":
                assert verify_certificate(a, a.transpose(), res.certificate).ok
                lags.append(res.certificate.lag)
            else:
                assert res.kind == "unknown"
        assert lags == [2, 2, 1]

    def test_matches_the_box_search_oracle(self, box_oracle):
        # every field agrees wherever the old walk finishes under the cap, and
        # the lattice walk never runs out of nodes where the old walk did not
        finished = 0
        for kind, a, b, old, nodes in box_oracle:
            bounds = dict(max_lag=2, max_entry=2, node_cap=2_000)
            new = shift_equivalent_bounded(a, b, **bounds)
            if new.kind == "certificate":
                assert verify_certificate(a, b, new.certificate).ok
            assert ("budget" not in old.note) == (nodes <= 2_000), (kind, a, b)
            if "budget" not in old.note:
                assert new == old, (kind, a, b)
                finished += 1
        assert finished >= 800

    @pytest.mark.parametrize("node_cap", [500, 1_000])
    def test_small_caps_match_the_box_search_oracle(self, node_cap, box_oracle):
        # the walk cuts dead ends early enough that a small budget finishes
        # wherever the old walk's does; the old walk finishes under this cap
        # exactly where its cap-2,000 run used no more nodes
        finished = 0
        for kind, a, b, old, nodes in box_oracle:
            if nodes <= node_cap:
                bounds = dict(max_lag=2, max_entry=2, node_cap=node_cap)
                assert shift_equivalent_bounded(a, b, **bounds) == old, (kind, a, b)
                finished += 1
        assert finished >= 800

    def test_deterministic(self):
        a = IntMatrix([[2]])
        b = IntMatrix([[1, 1], [1, 1]])
        r1 = shift_equivalent_bounded(a, b, max_lag=2, max_entry=2)
        r2 = shift_equivalent_bounded(a, b, max_lag=2, max_entry=2)
        assert r1 == r2


class TestLatticeWalk:
    def test_echelon_spans_the_same_lattice(self):
        rng = random.Random(73)
        for _ in range(200):
            n, k = rng.randint(1, 5), rng.randint(0, 3)
            vectors = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(min(k, n))]
            m = H.from_columns(vectors, rows=n)
            if snf(m).rank < m.cols:
                continue
            basis = shifts._echelon(vectors)
            pivots = [next(j for j, x in enumerate(v) if x) for v in basis]
            assert len(basis) == len(vectors)
            assert pivots == sorted(set(pivots)) and all(v[p] > 0 for v, p in zip(basis, pivots))
            e = H.from_columns(basis, rows=n)
            assert all(H.lattice_member(m, v) for v in basis)
            assert all(H.lattice_member(e, v) for v in vectors)

    def test_box_points_match_brute_force(self):
        # every point of the box whose difference from the base lies in the
        # lattice, in lexicographic order, one node per accepted coefficient
        rng = random.Random(79)
        for _ in range(150):
            n, upper = rng.randint(1, 4), rng.randint(0, 3)
            vectors = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(0, n))]
            m = H.from_columns(vectors, rows=n)
            if snf(m).rank < m.cols:
                continue
            base = tuple(rng.randint(-2, 5) for _ in range(n))
            nodes = []
            got = list(shifts._box_points(base, shifts._echelon(vectors), upper, lambda: nodes.append(1)))
            want = [
                x for x in itertools.product(range(upper + 1), repeat=n)
                if H.lattice_member(m, [xi - bi for xi, bi in zip(x, base)])
            ]
            assert got == want, (vectors, base, upper)
            assert len(nodes) >= len(got) if vectors else not nodes

    def test_dead_ends_are_cut_early(self):
        # R with A R = R B in [0, 2]^12 for an elementary pair of sizes 3
        # and 4: checking the entries after the last pivot only at the last
        # depth took 1,134 nodes to list the 42 points
        a = IntMatrix([[1, 1, 1], [1, 1, 1], [3, 3, 3]])
        b = IntMatrix([[1, 1, 2, 1]] * 4)
        basis = shifts._echelon(kernel_basis(shifts._sylvester(a, -b)).transpose().data)
        nodes = []
        points = list(shifts._box_points((0,) * 12, basis, 2, lambda: nodes.append(1)))
        assert len(points) == 42 and len(nodes) <= 392


class TestDimensionTriples:
    def test_representative_shifting(self):
        rng = random.Random(29)
        for _ in range(50):
            n = rng.randint(1, 3)
            a = random_shift_matrix(rng, n)
            t = DimensionTriple(a)
            x = tuple(rng.randint(-4, 4) for _ in range(n))
            k = rng.randint(0, 3)
            assert t.equal((k, x), (k + 1, a @ x))
            assert dimension_triple_equal(a, (k, x), (k + 2, a @ (a @ x)))

    def test_kernel_vectors_vanish(self):
        a = IntMatrix([[1, 1], [1, 1]])
        t = DimensionTriple(a)
        assert t.equal((0, (1, -1)), (0, (0, 0)))
        assert not t.equal((0, (1, 0)), (0, (0, 0)))

    def test_add_and_shift(self):
        a = IntMatrix([[1, 1], [1, 0]])
        t = DimensionTriple(a)
        s = t.add((0, (1, 0)), (1, (0, 1)))
        # (0,(1,0)) = (1, A(1,0)) = (1,(1,1)); adding (1,(0,1)) gives (1,(1,2))
        assert t.equal(s, (1, (1, 2)))
        assert t.equal(t.shift((0, (1, 0))), (0, (1, 1)))

    def test_eventually_positive(self):
        t = DimensionTriple(IntMatrix([[1, 1], [1, 0]]))
        assert t.eventually_positive((0, (1, -1)))
        assert not t.eventually_positive((0, (-1, 0)))

    def test_level_cannot_drop(self):
        t = DimensionTriple(IntMatrix([[2]]))
        with pytest.raises(ValueError):
            t._raise_to((2, (1,)), 1)


class TestGradedBridge:
    def test_requires_sink_free(self, fan):
        from leavitt.monoid import parse_graded_element

        with pytest.raises(ValueError):
            triple_of_graded(fan, parse_graded_element("v(0)"))

    def test_graded_equality_matches_triple_equality(self, corpus):
        rng = random.Random(31)
        agree = 0
        for g in corpus:
            if g.sinks or not g.vertices:
                continue
            a = random_graded_element(g, rng)
            b = random_graded_element(g, rng)
            verdict = graded_equal(g, a, b)
            if verdict.kind == "unknown":
                continue
            ta, tb = triple_of_graded(g, a), triple_of_graded(g, b)
            assert dimension_triple_equal(g.adjacency().transpose(), ta, tb) == verdict.is_equal
            agree += 1
        assert agree >= 30

    def test_equal_and_signed_pairs_match_triple_equality(self, corpus):
        # random pairs are almost never equal; expansions of one element
        # are, and a signed part added to both sides keeps them so
        rng = random.Random(37)
        verdicts = {"equal": 0, "not-equal": 0}
        for g in corpus:
            if g.sinks or not g.vertices:
                continue
            m = g.adjacency().transpose()
            for _ in range(4):
                a = random_graded_element(g, rng)
                b = apply_random_expansions(g, a, rng.randint(0, 5), rng)
                s = random_graded_element(g, rng, signed=True)
                if rng.random() < 0.5:
                    b = H.graded_add(b, s)
                    a = H.graded_add(
                        a, s if rng.random() < 0.5 else random_graded_element(g, rng, signed=True)
                    )
                verdict = graded_equal(g, a, b)
                assert verdict.kind in verdicts
                assert dimension_triple_equal(
                    m, triple_of_graded(g, a), triple_of_graded(g, b)
                ) == verdict.is_equal, (g, a, b, verdict)
                verdicts[verdict.kind] += 1
        assert verdicts["equal"] >= 250 and verdicts["not-equal"] >= 50
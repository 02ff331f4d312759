"""Integer linear algebra: Smith forms, kernels, cokernels, group machinery."""

import collections
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers as H
from helpers import check_well_defined, lattice_member
from leavitt import intlinalg
from leavitt.intlinalg import (
    CoeffGroup,
    FgAbGroup,
    GroupMap,
    IntMatrix,
    PresentedGroup,
    SmithData,
    check_exact,
    coker_with_coefficients,
    kernel_basis,
    map_invariants,
    preimage_lattice,
    snf,
    solve_lattice,
    subgroup_equal,
)
from leavitt.intlinalg import _smith, _spans_into
from leavitt.ktheory import SubquotientStore, k0, k_matrix, six_term_row


def random_matrix(rng, nr, nc, lo=-9, hi=9):
    return IntMatrix([[rng.randint(lo, hi) for _ in range(nc)] for _ in range(nr)], cols=nc)


# Inputs the random sweeps rarely draw: singular squares, and pivots that
# force row swaps, column swaps, both, a negation, or a gcd fold.
SWEEP_EXTRAS = [
    IntMatrix([[0]]),
    IntMatrix([[0, 0], [0, 0]]),
    IntMatrix([[2, 4], [1, 2]]),
    IntMatrix([[1, 2, 3], [2, 4, 6], [0, 5, 7]]),
    IntMatrix([[4, 6], [1, 0]]),
    IntMatrix([[4, 1], [6, 8]]),
    IntMatrix([[4, 6, 8], [6, 9, 4], [8, 4, -1]]),
    IntMatrix([[-3]]),
    IntMatrix([[0, -2], [-3, 0]]),
    IntMatrix([[6, 4, 0], [9, 6, 0], [0, 0, 10]]),
    IntMatrix([[2, 0], [0, 3], [4, 9]]),
]


def assert_invariant_factors_agree(m):
    """The transform-free diagonal is the two-sided one; det matches Bareiss."""
    inv, full = SmithData(m), SmithData(m)
    assert full.u.shape == (m.rows, m.rows)  # a two-sided run
    assert inv.diagonal == full.diagonal
    assert inv.rank == full.rank
    if m.rows == m.cols:
        assert inv.det == H.bareiss_det(m)
    else:
        with pytest.raises(ValueError):
            inv.det


# ---------------------------------------------------------------------------
# IntMatrix basics
# ---------------------------------------------------------------------------


class TestIntMatrix:
    def test_shape_and_entries(self):
        m = IntMatrix([[1, 2, 3], [4, 5, 6]])
        assert m.shape == (2, 3)
        assert m[1, 2] == 6
        assert m.to_lists() == [[1, 2, 3], [4, 5, 6]]
        assert repr(m) == "IntMatrix([[1, 2, 3], [4, 5, 6]], cols=3)"

    def test_matmul_matrix_and_vector(self):
        a = IntMatrix([[1, 2], [3, 4]])
        b = IntMatrix([[0, 1], [1, 0]])
        assert (a @ b).to_lists() == [[2, 1], [4, 3]]
        assert a @ (1, 1) == (3, 7)

    def test_identity_and_pow(self):
        a = IntMatrix([[1, 1], [1, 0]])
        assert (a.pow(0)).to_lists() == IntMatrix.identity(2).to_lists()
        assert (a.pow(5)).to_lists() == (a @ a @ a @ a @ a).to_lists()

    def test_det_golden(self):
        assert H.bareiss_det(IntMatrix([[2]])) == 2
        assert H.bareiss_det(IntMatrix([[1, 2], [3, 4]])) == -2
        assert H.bareiss_det(IntMatrix([[2, 0, 0], [0, 3, 0], [0, 0, 5]])) == 30

    def test_det_matches_laplace_oracle(self):
        rng = random.Random(11)
        for _ in range(120):
            n = rng.randint(1, 4)
            m = random_matrix(rng, n, n, -6, 6)
            assert H.bareiss_det(m) == H._det_laplace(m.to_lists())

    def test_hstack_vstack_take(self):
        a = IntMatrix([[1, 2], [3, 4]])
        b = IntMatrix([[5], [6]])
        assert a.hstack(b).to_lists() == [[1, 2, 5], [3, 4, 6]]
        assert a.take_rows([1]).to_lists() == [[3, 4]]
        assert a.take_columns([1]).to_lists() == [[2], [4]]
        assert a.column(0) == (1, 3)

    def test_empty_shapes(self):
        zero_rows = IntMatrix([], cols=3)
        assert zero_rows.shape == (0, 3)
        zero_cols = IntMatrix([[], []], cols=0)
        assert zero_cols.shape == (2, 0)
        assert snf(zero_rows).diagonal == ()
        assert kernel_basis(zero_rows).shape == (3, 3)
        assert kernel_basis(zero_cols).shape == (0, 0)

    def test_hashable_and_equal(self):
        a = IntMatrix([[1, 2], [3, 4]])
        b = IntMatrix([[1, 2], [3, 4]])
        assert a == b and hash(a) == hash(b)
        assert a != IntMatrix([[1, 2], [3, 5]])

    def test_is_nonnegative_matches_entrywise_check(self):
        rng = random.Random(31)
        for _ in range(200):
            nr, nc = rng.randint(0, 4), rng.randint(0, 4)
            m = random_matrix(rng, nr, nc, rng.choice((-1, 0)), 3)
            assert m.is_nonnegative() == all(x >= 0 for r in m.data for x in r)
        assert IntMatrix([], cols=0).is_nonnegative()
        assert IntMatrix([[], []], cols=0).is_nonnegative()
        assert not IntMatrix([[0, 5], [2, -(2**70)]]).is_nonnegative()

    def test_from_columns(self):
        m = H.from_columns([(1, 2), (3, 4)])
        assert m.to_lists() == [[1, 3], [2, 4]]
        assert H.from_columns([], rows=2).shape == (2, 0)

    def test_matvec_matches_dense_reference(self):
        rng = random.Random(23)
        for _ in range(400):
            nr, nc = rng.randint(0, 6), rng.randint(0, 6)
            m = random_matrix(rng, nr, nc)
            kind = rng.randrange(4)
            if kind == 0 or nc == 0:
                vec = [0] * nc
            elif kind == 1:
                vec = [0] * nc
                vec[rng.randrange(nc)] = rng.choice([-7, -1, 1, 5])
            else:
                vec = [rng.randint(-9, 9) if rng.random() < 0.5 else 0 for _ in range(nc)]
            dense = tuple(sum(m[i, k] * vec[k] for k in range(nc)) for i in range(nr))
            assert m @ vec == dense
            assert m @ tuple(vec) == dense
        assert IntMatrix([[], []], cols=0) @ () == (0, 0)
        with pytest.raises(ValueError):
            IntMatrix([[1, 2]]) @ (1,)
        with pytest.raises(ValueError):
            IntMatrix([[], []], cols=0) @ (0,)

    def test_internal_results_equal_checked_construction(self):
        rng = random.Random(29)
        for _ in range(150):
            nr, nc = rng.randint(0, 4), rng.randint(0, 4)
            a = random_matrix(rng, nr, nc)
            b = random_matrix(rng, nr, nc)
            c = random_matrix(rng, nc, rng.randint(0, 4))
            rows = [i for i in range(nr) if rng.random() < 0.5]
            cols = [j for j in range(nc) if rng.random() < 0.5]
            results = [
                (a @ c, (nr, c.cols)),
                (a + b, (nr, nc)),
                (a - b, (nr, nc)),
                (-a, (nr, nc)),
                (H.scale(a, rng.randint(-3, 3)), (nr, nc)),
                (a.transpose(), (nc, nr)),
                (a.hstack(b), (nr, 2 * nc)),
                (a.take_rows(rows), (len(rows), nc)),
                (a.take_columns(cols), (nr, len(cols))),
                (a.take_rows(rows).scatter_rows(rows, nr), (nr, nc)),
                (IntMatrix.zeros(nr, nc), (nr, nc)),
                (IntMatrix.identity(nr), (nr, nr)),
            ]
            sd = snf(a)
            assert H.smith_verifies(sd, a)
            results += [(sd.u, (nr, nr)), (sd.v, (nc, nc))]
            for r, shape in results:
                checked = IntMatrix(r.data, cols=r.cols)
                assert r == checked and hash(r) == hash(checked)
                assert r.shape == checked.shape == shape

    def test_select_and_scatter_match_dense_products(self):
        # the 0/1 matrix placing k of n items is the oracle for index selection
        rng = random.Random(31)
        for _ in range(200):
            n = rng.randint(0, 6)
            positions = rng.sample(range(n), rng.randint(0, n))
            items = [f"v{i}" for i in range(n)]
            place = H._select([items[i] for i in positions], items)
            k, c = len(positions), rng.randint(0, 4)
            small, big = random_matrix(rng, k, c), random_matrix(rng, n, c)
            assert small.scatter_rows(positions, n) == place @ small
            assert big.take_rows(positions) == place.transpose() @ big
            big = random_matrix(rng, c, n)
            assert big.take_columns(positions) == big @ place
        with pytest.raises(ValueError):
            IntMatrix.identity(2).scatter_rows([0], 3)


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


class TestSmith:
    def test_golden_2x2(self):
        m = IntMatrix([[2, 4], [6, 8]])
        sd = snf(m)
        assert sd.diagonal == (2, 4)
        assert H.smith_verifies(sd, m)

    def test_golden_identity_zero(self):
        assert snf(IntMatrix.identity(3)).diagonal == (1, 1, 1)
        # the diagonal keeps explicit zeros for rank-deficient matrices
        assert snf(IntMatrix([[0, 0], [0, 0]])).diagonal == (0, 0)
        assert snf(IntMatrix([[0, 0], [0, 0]])).rank == 0

    # (m, u, diagonal, v, sign): transforms of snf and the sign of a
    # transform-free run, frozen.  The comments name the steps each input
    # forces; the last two are a 0-row and a 0-column shape.
    GOLDEN = [
        # row swap
        (IntMatrix([[2, 4], [1, 2]]), [[0, 1], [1, -2]], (1, 0), [[1, -2], [0, 1]], -1),
        # column swap, negation
        (IntMatrix([[4, 1], [6, 8]]), [[1, 0], [8, -1]], (1, 26), [[0, 1], [1, -4]], 1),
        # row and column swaps, a promoted row remainder, negation
        (
            IntMatrix([[4, 6, 8], [6, 9, 4], [8, 4, -1]]),
            [[0, 0, -1], [2, -3, 4], [25, -38, 48]],
            (1, 1, 256),
            [[0, 0, 1], [0, 1, -22], [1, 4, -80]],
            -1,
        ),
        # column swap, a promoted column remainder, gcd fold, negation
        (IntMatrix([[0, -2], [-3, 0]]), [[-1, -1], [-3, -2]], (1, 6), [[1, -2], [-1, 3]], -1),
        # promoted row and column remainders, zero tail
        (
            IntMatrix([[6, 4, 0], [9, 6, 0], [0, 0, 10]]),
            [[-1, 1, 0], [0, 0, 1], [3, -2, 0]],
            (1, 10, 0),
            [[1, 0, -2], [-1, 0, 3], [0, 1, 0]],
            -1,
        ),
        # gcd fold on a tall matrix
        (
            IntMatrix([[2, 0], [0, 3], [4, 9]]),
            [[1, 1, 0], [3, 2, 0], [-2, -3, 1]],
            (1, 6),
            [[-1, 3], [1, -2]],
            1,
        ),
        (IntMatrix([], cols=3), [], (), [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 1),
        (IntMatrix([[], []], cols=0), [[1, 0], [0, 1]], (), [], 1),
    ]

    def test_golden_transforms(self):
        for m, u, diagonal, v, sign in self.GOLDEN:
            assert m.rows == 0 or m.cols == 0 or m in SWEEP_EXTRAS
            sd = snf(m)
            assert (sd.u.to_lists(), sd.diagonal, sd.v.to_lists()) == (u, diagonal, v)
            assert sd.u.shape == (m.rows, m.rows) and sd.v.shape == (m.cols, m.cols)
            assert H.smith_verifies(sd, m)
            inv = SmithData(m)  # a fresh record reads the sign with no transform
            assert (inv.diagonal, inv.sign) == (diagonal, sign)

    def test_transforms_are_unimodular_and_verify(self):
        rng = random.Random(23)
        for _ in range(150):
            nr, nc = rng.randint(1, 5), rng.randint(1, 5)
            m = random_matrix(rng, nr, nc)
            sd = snf(m)
            assert H.smith_verifies(sd, m)
            assert abs(H.bareiss_det(sd.u)) == 1
            assert abs(H.bareiss_det(sd.v)) == 1
            assert (sd.u @ m @ sd.v) == H.diagonal(sd.diagonal, rows=m.rows, cols=m.cols)
            nonzero = [d for d in sd.diagonal if d]
            # nonzero entries form a positive divisibility chain, zeros trail
            assert list(sd.diagonal) == nonzero + [0] * (len(sd.diagonal) - len(nonzero))
            for a, b in zip(nonzero, nonzero[1:]):
                assert a > 0 and b % a == 0

    def test_matches_naive_oracle(self):
        rng = random.Random(31)
        sweep = [random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5)) for _ in range(200)]
        for m in sweep + SWEEP_EXTRAS:
            lib = tuple(sorted(d for d in snf(m).diagonal if d > 1))
            assert lib == H.snf_invariant_factors_naive(m.to_lists())
            assert snf(m).rank == H.naive_rank(m.to_lists())
            assert_invariant_factors_agree(m)

    def test_matches_minor_oracle(self):
        rng = random.Random(37)
        sweep = [random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), -7, 7) for _ in range(120)]
        for m in sweep + SWEEP_EXTRAS:
            lib = tuple(sorted(d for d in snf(m).diagonal if d > 1))
            assert lib == H.snf_invariant_factors_minors(m.to_lists())
            assert_invariant_factors_agree(m)

    @settings(max_examples=120, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(-30, 30), min_size=1, max_size=4),
            min_size=1,
            max_size=4,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    def test_hypothesis_snf_consistency(self, rows):
        m = IntMatrix(rows, cols=len(rows[0]))
        sd = snf(m)
        assert H.smith_verifies(sd, m)
        assert tuple(sorted(d for d in sd.diagonal if d > 1)) == H.snf_invariant_factors_naive(rows)
        assert_invariant_factors_agree(m)
        if m.rows == m.cols:
            prod = 1
            for d in sd.diagonal:
                prod *= d
            if sd.rank == m.rows:
                assert prod == abs(H.bareiss_det(m))
            else:
                assert H.bareiss_det(m) == 0


def sparse_transfer_matrix(rng, n, sink_prob=0.0):
    """Transfer matrix of a random sparse graph; sinks make it non-square."""
    g = H.sparse_graph(rng, n, sink_prob)
    km = k_matrix(g)
    assert km == H._transfer(g)
    return km


class TestTransformChoices:
    """Each choice of tracked transforms runs the pivot sequence of the full
    elimination: the same diagonal and sign, and each tracked transform
    equal to the full run's."""

    CHOICES = ((False, False), (True, False), (False, True), (True, True))

    def assert_choices_agree(self, m):
        full_u, diagonal, full_v, sign, _, _ = _smith(m, True, True)
        for u, v in self.CHOICES:
            left, diag, right, s, _, _ = _smith(m, u, v)
            assert (diag, s) == (diagonal, sign), (m, u, v)
            assert left == (full_u if u else None), (m, u, v)
            assert right == (full_v if v else None), (m, u, v)
        sd = snf(m)
        assert sd.u.to_lists() == full_u
        # v is carried as its list of columns
        assert sd.v.transpose().to_lists() == full_v
        inv = SmithData(m)
        assert (inv.diagonal, inv.sign) == (diagonal, sign)
        self.assert_inverses(m, full_u, diagonal, full_v, sign)
        rank = sd.rank
        assert kernel_basis(m) == sd.v.take_columns(range(rank, m.cols))
        assert SmithData(m).kernel == kernel_basis(m)  # from a run tracking v alone
        return sd

    @staticmethod
    def assert_inverses(m, full_u, diagonal, full_v, sign):
        # a run that tracks the inverses keeps the pivot sequence, and its
        # u^-1 (columns) and v^-1 (rows) invert u and v
        u, diag, v, s, u_inv, v_inv = _smith(m, True, True, True)
        assert (u, diag, v, s) == (full_u, diagonal, full_v, sign), m
        u, v = IntMatrix(u, cols=m.rows), H.from_columns(v, rows=m.cols)
        u_inv, v_inv = H.from_columns(u_inv, rows=m.rows), IntMatrix(v_inv, cols=m.cols)
        assert u @ u_inv == IntMatrix.identity(m.rows), m
        assert v_inv @ v == IntMatrix.identity(m.cols), m
        sd = SmithData(m)
        assert (sd.u_inverse, sd.v_inverse) == (u_inv, v_inv)

    def test_sparse_transfer_matrices(self):
        rng = random.Random(61)
        matrices = [sparse_transfer_matrix(rng, n) for n in (5, 20, 60, 120, 200)]
        matrices += [sparse_transfer_matrix(rng, n, sink_prob=0.3) for n in (8, 30, 90)]
        assert all(km.rows > km.cols for km in matrices[-3:])
        for km in matrices:
            sd = self.assert_choices_agree(km)
            kernel = kernel_basis(km)
            assert all(not any(km @ kernel.column(j)) for j in range(kernel.cols))
            if km.rows <= 60:  # the dense products of the check are cubic
                assert H.smith_verifies(sd, km)

    def test_dense_matrices(self):
        rng = random.Random(67)
        for _ in range(40):
            m = random_matrix(rng, rng.randint(1, 9), rng.randint(1, 9), -3, 3)
            assert H.smith_verifies(self.assert_choices_agree(m), m)
        for n in (16, 24):
            self.assert_choices_agree(random_matrix(rng, n, n, -3, 3))

    def test_rank_deficient_and_non_square(self):
        rng = random.Random(73)
        for _ in range(40):
            nr, nc, r = rng.randint(1, 8), rng.randint(1, 8), rng.randint(0, 3)
            # a product through r dimensions has rank at most r
            m = random_matrix(rng, nr, r, -3, 3) @ random_matrix(rng, r, nc, -3, 3)
            sd = self.assert_choices_agree(m)
            assert sd.rank <= r and H.smith_verifies(sd, m)

    def test_zero_rows_and_columns(self):
        rng = random.Random(79)
        shapes = [IntMatrix([], cols=4), IntMatrix([[], [], []], cols=0), IntMatrix.zeros(3, 5)]
        for _ in range(30):
            nr, nc = rng.randint(1, 7), rng.randint(1, 7)
            rows = random_matrix(rng, nr, nc, -4, 4).to_lists()
            for i in rng.sample(range(nr), rng.randint(1, nr)):
                rows[i] = [0] * nc
            for j in rng.sample(range(nc), rng.randint(0, nc)):
                for r in rows:
                    r[j] = 0
            shapes.append(IntMatrix(rows, cols=nc))
        for m in shapes + SWEEP_EXTRAS:
            assert H.smith_verifies(self.assert_choices_agree(m), m)

    def test_negative_unit_pivots_flip_the_sign(self):
        rng = random.Random(83)
        cases = [IntMatrix([[-1]]), H.scale(IntMatrix.identity(4), -1), IntMatrix([[-1, 3], [2, 5]])]
        for _ in range(30):
            n = rng.randint(2, 7)
            rows = random_matrix(rng, n, n, -3, 3).to_lists()
            for i in range(n):
                rows[i][i] = -1
            cases.append(IntMatrix(rows))
        for m in cases:
            self.assert_choices_agree(m)
            assert SmithData(m).det == H.bareiss_det(m)
        # a -1 pivot leaves 1 on the diagonal; only the sign records it
        minus_one = SmithData(IntMatrix([[-1]]))
        assert (minus_one.diagonal, minus_one.sign) == ((1,), -1)
        assert SmithData(H.scale(IntMatrix.identity(4), -1)).sign == 1


# ---------------------------------------------------------------------------
# kernels, lattices, solving
# ---------------------------------------------------------------------------


class TestSmithRecord:
    """A record runs the elimination its first read of a part needs, and
    serves every later read from what its runs yielded."""

    # parts read in order -> the (u, v, inverses) choices of the runs they cause
    ORDERS = [
        (("diagonal", "sign", "kernel", "rank", "u", "v", "diagonal"),
         [(False, False, False), (False, True, False), (True, True, False)]),
        (("kernel", "diagonal", "sign", "rank", "kernel"), [(False, True, False)]),
        (("u", "diagonal", "sign", "rank", "kernel", "v"), [(True, True, False)]),
        (("v_inverse", "u", "v", "u_inverse", "kernel", "diagonal", "sign", "rank"),
         [(True, True, True)]),
        (("kernel", "u", "u_inverse", "v_inverse", "v"),
         [(False, True, False), (True, True, False), (True, True, True)]),
    ]

    def test_each_read_order_runs_what_it_needs(self, monkeypatch):
        runs = []
        smith = intlinalg._smith

        def counting(m, u, v, inverses=False):
            runs.append((u, v, inverses))
            return smith(m, u, v, inverses)

        monkeypatch.setattr(intlinalg, "_smith", counting)
        rng = random.Random(37)
        matrices = SWEEP_EXTRAS + [IntMatrix([], cols=3), IntMatrix([[], []], cols=0)]
        matrices += [random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), -4, 4) for _ in range(30)]
        for m in matrices:
            parts = {}
            for order, kinds in self.ORDERS:
                runs.clear()
                sd = SmithData(m)
                for name in order:
                    value = getattr(sd, name)
                    # every order yields equal parts
                    assert parts.setdefault(name, value) == value, (m, order, name)
                assert runs == kinds, (m, order)
            assert H.smith_verifies(sd, m)
            assert parts["kernel"] == parts["v"].take_columns(range(parts["rank"], m.cols))
            assert parts["u"] @ parts["u_inverse"] == IntMatrix.identity(m.rows)
            assert parts["v_inverse"] @ parts["v"] == IntMatrix.identity(m.cols)

    def test_a_name_that_is_no_part_runs_nothing(self, monkeypatch):
        # hasattr and copy probe names such as __deepcopy__; they must get
        # AttributeError, not an elimination
        monkeypatch.setattr(intlinalg, "_smith", lambda *_: pytest.fail("ran _smith"))
        sd = SmithData(IntMatrix([[2]]))
        assert not hasattr(sd, "__deepcopy__")
        with pytest.raises(AttributeError, match="^transforms$"):
            sd.transforms


class TestKernelsAndLattices:
    def test_kernel_basis_annihilates_and_has_right_rank(self):
        rng = random.Random(41)
        for _ in range(150):
            nr, nc = rng.randint(1, 5), rng.randint(1, 5)
            m = random_matrix(rng, nr, nc)
            kb = kernel_basis(m)
            assert kb.rows == nc
            assert kb.cols == nc - snf(m).rank
            for j in range(kb.cols):
                assert m @ kb.column(j) == tuple([0] * nr)

    def test_kernel_basis_is_primitive(self):
        # a primitive basis of a direct summand has all invariant factors 1
        rng = random.Random(43)
        for _ in range(120):
            nr, nc = rng.randint(1, 5), rng.randint(1, 5)
            kb = kernel_basis(random_matrix(rng, nr, nc))
            if kb.cols:
                assert H.snf_invariant_factors_naive(kb.to_lists()) == ()
                assert H.naive_rank(kb.to_lists()) == kb.cols

    def test_kernel_membership_is_complete(self):
        # any integer kernel vector lies in the integer span of the basis:
        # enumerate every small vector and check the ones the matrix kills
        from itertools import product

        rng = random.Random(47)
        hits = 0
        for _ in range(60):
            nr, nc = rng.randint(1, 3), rng.randint(1, 3)
            m = random_matrix(rng, nr, nc, -2, 2)
            kb = kernel_basis(m)
            for z in product(range(-2, 3), repeat=nc):
                if m @ z == tuple([0] * nr):
                    hits += 1
                    assert solve_lattice(kb, z) is not None
        assert hits > 60  # always hits the zero vector, usually much more

    def test_solve_lattice_roundtrip(self):
        rng = random.Random(53)
        for _ in range(200):
            nr, nc = rng.randint(1, 5), rng.randint(1, 5)
            m = random_matrix(rng, nr, nc)
            x = tuple(rng.randint(-5, 5) for _ in range(nc))
            v = m @ x
            y = solve_lattice(m, v)
            assert y is not None
            assert m @ y == v
            assert lattice_member(m, v)

    def test_solve_lattice_none_iff_not_member(self):
        rng = random.Random(59)
        seen_none = 0
        for _ in range(300):
            nr, nc = rng.randint(1, 4), rng.randint(1, 4)
            m = random_matrix(rng, nr, nc, -3, 3)
            v = tuple(rng.randint(-6, 6) for _ in range(nr))
            y = solve_lattice(m, v)
            if lattice_member(m, v):
                assert y is not None and m @ y == v
            else:
                assert y is None
                seen_none += 1
        assert seen_none > 30

    def test_spans_into_matches_columnwise_membership(self):
        def columnwise(gens, lat):
            return all(lattice_member(lat, gens.column(j)) for j in range(gens.cols))

        rng = random.Random(71)
        cases = [
            (IntMatrix([[1]]), IntMatrix([[2]]), False),  # Z is not inside 2Z
            (IntMatrix([[2]]), IntMatrix([[1]]), True),
            (IntMatrix([[6]]), IntMatrix([[2]]), True),
            # equal invariant factors (1, 6), different lattices
            (H.diagonal([1, 6]), H.diagonal([2, 3]), False),
            (H.diagonal([2, 3]), H.diagonal([1, 6]), False),
            (IntMatrix([[6], [6]]), H.diagonal([2, 3]), True),
            (IntMatrix([[1], [0]]), IntMatrix([[2], [0]]), False),
            (IntMatrix([[0], [1]]), IntMatrix([[2], [0]]), False),
            (IntMatrix.zeros(0, 2), IntMatrix.zeros(0, 1), True),
            (IntMatrix.zeros(2, 0), IntMatrix.zeros(2, 0), True),
            (IntMatrix([[1], [1]]), IntMatrix.zeros(2, 0), False),
        ]
        for _ in range(400):
            nr = rng.randint(0, 4)
            rank = rng.randint(0, nr)
            # rank-deficient lattices, often scaled so they are not saturated
            lat = random_matrix(rng, nr, rank, -3, 3) @ random_matrix(
                rng, rank, rng.randint(0, 4), -2, 2
            )
            lat = H.scale(lat, rng.choice((1, 1, 2, 3)))
            k = rng.randint(0, 3)
            if rng.random() < 0.5:
                gens = lat @ random_matrix(rng, lat.cols, k, -2, 2)
            else:
                gens = random_matrix(rng, nr, k, -3, 3)
            cases.append((gens, lat, None))
        outcomes = set()
        for gens, lat, expected in cases:
            got = _spans_into(gens, lat)
            assert got == columnwise(gens, lat), (gens, lat)
            if expected is not None:
                assert got is expected, (gens, lat)
            outcomes.add((got, gens.rows == 0 or gens.cols == 0 or lat.cols == 0))
        assert outcomes == {(True, False), (False, False), (True, True), (False, True)}

    def test_preimage_lattice_soundness_and_completeness(self):
        rng = random.Random(61)
        sound = complete_hits = 0
        for _ in range(150):
            nr, nc = rng.randint(1, 4), rng.randint(1, 4)
            m = random_matrix(rng, nr, nc, -3, 3)
            lat = random_matrix(rng, nr, rng.randint(0, 3), -3, 3)
            pre = preimage_lattice(m, lat)
            for j in range(pre.cols):
                assert lattice_member(lat, m @ pre.column(j))
                sound += 1
            z = tuple(rng.randint(-3, 3) for _ in range(nc))
            if lattice_member(lat, m @ z):
                assert lattice_member(pre, z)
                complete_hits += 1
        assert sound > 100 and complete_hits > 20

    def test_inverse_unimodular(self):
        rng = random.Random(67)
        for _ in range(100):
            n = rng.randint(1, 4)
            # random product of elementary operations is unimodular
            m = IntMatrix.identity(n)
            for _ in range(8):
                kind = rng.randrange(3)
                i, j = rng.randrange(n), rng.randrange(n)
                e = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
                if kind == 0 and i != j:
                    e[i][j] = rng.randint(-3, 3)
                elif kind == 1:
                    e[i][i] = -1
                elif i != j:
                    e[i][i] = e[j][j] = 0
                    e[i][j] = e[j][i] = 1
                m = m @ IntMatrix(e)
            inv = H.inverse_unimodular(m)
            assert (inv @ m).to_lists() == IntMatrix.identity(n).to_lists()
            assert (m @ inv).to_lists() == IntMatrix.identity(n).to_lists()

    def test_inverse_unimodular_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            H.inverse_unimodular(IntMatrix([[2]]))
        with pytest.raises(ValueError):
            H.inverse_unimodular(IntMatrix([[1, 0], [0, 0]]))
        # a non-square matrix with unit invariant factors
        with pytest.raises(ValueError, match="^matrix is not unimodular$"):
            H.inverse_unimodular(IntMatrix([[1, 0]]))


# ---------------------------------------------------------------------------
# finitely generated abelian groups
# ---------------------------------------------------------------------------


class TestGroups:
    def test_from_parts_normalizes(self):
        assert FgAbGroup.from_parts(0, (2, 3)) == FgAbGroup.from_parts(0, (6,))
        assert FgAbGroup.from_parts(1, (4, 2)).torsion == (2, 4)
        assert str(FgAbGroup.from_parts(1, (4, 2))) == "Z ⊕ Z/2 ⊕ Z/4"
        assert str(FgAbGroup.from_parts(0, ())) == "0"
        assert str(FgAbGroup.from_parts(2, ())) == "Z^2"

    def test_from_parts_matches_smith_oracle(self):
        def via_smith(free_rank, torsion):
            tors = [abs(t) for t in torsion if abs(t) > 1]
            free = free_rank + sum(1 for t in torsion if t == 0)
            if not tors:
                return FgAbGroup(free, ())
            diag = snf(H.diagonal(tors)).diagonal
            return FgAbGroup(free, tuple(x for x in diag if x > 1))

        rng = random.Random(31)
        pool = [0, 1, -1, 2, -2, 3, 4, -4, 5, 6, 8, 9, 12, 25, 27, 35, 49, 60, 64, 97, 210]
        cases = [(0, ()), (1, (0, 1, -1)), (0, (4, 4, 2, 2)), (0, (3, 5, 7)), (2, (-6, 10, 15))]
        for _ in range(300):
            torsion = tuple(rng.choice(pool) for _ in range(rng.randint(0, 6)))
            cases.append((rng.randint(0, 2), torsion))
        for free_rank, torsion in cases:
            assert FgAbGroup.from_parts(free_rank, torsion) == via_smith(free_rank, torsion)

    def test_order(self):
        assert H.group_order(FgAbGroup.from_parts(0, (2, 3))) == 6
        assert H.group_order(FgAbGroup.from_parts(0, ())) == 1
        assert H.group_order(FgAbGroup.from_parts(1, ())) is None

    def test_direct_sum(self):
        a = FgAbGroup.from_parts(1, (2,))
        b = FgAbGroup.from_parts(0, (3,))
        assert a.direct_sum(b) == FgAbGroup.from_parts(1, (6,))

    def test_cokernel_golden(self):
        assert PresentedGroup(IntMatrix([[2, 0], [0, 3]])).invariants() == FgAbGroup.from_parts(0, (6,))
        assert PresentedGroup(IntMatrix([[]], cols=0)).invariants() == FgAbGroup.from_parts(1, ())
        assert PresentedGroup(IntMatrix([[1]])).invariants() == FgAbGroup.from_parts(0, ())
        assert PresentedGroup(IntMatrix([[0]])).invariants() == FgAbGroup.from_parts(1, ())

    def test_cokernel_matches_naive_oracle(self):
        rng = random.Random(71)
        for _ in range(150):
            n = rng.randint(1, 5)
            m = random_matrix(rng, n, rng.randint(0, 5))
            free, tors = H.cokernel_invariants_naive(m.to_lists())
            assert PresentedGroup(m).invariants() == FgAbGroup.from_parts(free, tors)

    def test_presented_group_classes(self):
        pg = PresentedGroup(IntMatrix([[2, 0], [0, 3]]))
        assert H.is_zero_class(pg, (1 - 3, 1 - 4))
        assert not H.is_zero_class(pg, (1, -1))
        assert H.is_zero_class(pg, (2, 3))
        assert not H.is_zero_class(pg, (1, 0))
        assert H.canon(pg, (1, 1)) == H.canon(pg, (3, 4))

    def test_class_equal_random_relation_shifts(self):
        rng = random.Random(73)
        for _ in range(100):
            gens = rng.randint(1, 4)
            rel = random_matrix(rng, gens, rng.randint(0, 3), -4, 4)
            pg = PresentedGroup(rel)
            x = tuple(rng.randint(-5, 5) for _ in range(gens))
            shift = rel @ tuple(rng.randint(-3, 3) for _ in range(rel.cols))
            y = tuple(a + b for a, b in zip(x, shift))
            assert H.is_zero_class(pg, tuple(a - b for a, b in zip(x, y)))
            assert H.canon(pg, x) == H.canon(pg, y)

    def test_subgroup_equal(self):
        a = IntMatrix([[2, 0], [0, 3]], cols=2)
        b = IntMatrix([[2, 2], [3, 0]], cols=2)  # (2,3), (2,0) spans the same lattice
        assert subgroup_equal(a, b)
        c = IntMatrix([[2, 2], [3, -3]], cols=2)
        assert not subgroup_equal(a, c)

    def test_subgroup_equal_modulo(self):
        gens_a = IntMatrix([[2], [0]], cols=1)
        gens_b = IntMatrix([[2], [2]], cols=1)
        rel = IntMatrix([[0], [2]], cols=1)
        assert subgroup_equal(gens_a, gens_b, modulo=rel)
        assert not subgroup_equal(gens_a, gens_b)

    def test_map_invariants(self):
        nil = IntMatrix([[]], cols=0)
        ker, im, cok = map_invariants(IntMatrix([[2]]), nil, nil)
        assert (ker, im, cok) == (
            FgAbGroup.from_parts(0, ()),
            FgAbGroup.from_parts(1, ()),
            FgAbGroup.from_parts(0, (2,)),
        )
        ker, im, cok = map_invariants(IntMatrix([[1]]), IntMatrix([[4]]), IntMatrix([[2]]))
        assert (ker, im, cok) == (
            FgAbGroup.from_parts(0, (2,)),
            FgAbGroup.from_parts(0, (2,)),
            FgAbGroup.from_parts(0, ()),
        )


# ---------------------------------------------------------------------------
# maps and exact sequences
# ---------------------------------------------------------------------------


def _zfree():
    return PresentedGroup(IntMatrix([[]], cols=0))


def _ztrivial():
    return PresentedGroup(IntMatrix([[1]]))


class TestMapsAndExactness:
    def test_well_defined_and_composition(self):
        zf = _zfree()
        double = GroupMap(zf, zf, IntMatrix([[2]]))
        assert check_well_defined(double)
        proj = GroupMap(zf, PresentedGroup(IntMatrix([[2]])), IntMatrix([[1]]))
        comp = GroupMap(zf, proj.codomain, proj.matrix @ double.matrix)
        assert check_well_defined(comp)
        assert comp.matrix.to_lists() == [[2]]

    def test_ill_defined_map_raises(self):
        bad = GroupMap(PresentedGroup(IntMatrix([[2]])), _zfree(), IntMatrix([[1]]))
        with pytest.raises(ValueError):
            check_well_defined(bad)

    def test_short_exact_sequence(self):
        zf, zt = _zfree(), _ztrivial()
        zmod2 = PresentedGroup(IntMatrix([[2]]))
        maps = [
            GroupMap(zt, zf, IntMatrix([[0]])),
            GroupMap(zf, zf, IntMatrix([[2]])),
            GroupMap(zf, zmod2, IntMatrix([[1]])),
            GroupMap(zmod2, zt, IntMatrix([[0]])),
        ]
        nodes = check_exact(maps)
        assert [n.exact for n in nodes] == [True, True, True]

    def test_broken_sequence_detected(self):
        zf, zt = _zfree(), _ztrivial()
        zmod2 = PresentedGroup(IntMatrix([[2]]))
        maps = [
            GroupMap(zt, zf, IntMatrix([[0]])),
            GroupMap(zf, zf, IntMatrix([[4]])),
            GroupMap(zf, zmod2, IntMatrix([[1]])),
            GroupMap(zmod2, zt, IntMatrix([[0]])),
        ]
        nodes = check_exact(maps)
        assert not all(n.exact for n in nodes)
        assert nodes[1].image_in_kernel and not nodes[1].kernel_in_image

    def test_image_outside_kernel_is_one_sided(self):
        # im(double) = 2Z is not killed by the identity, whose kernel 0 is
        # inside every image
        zf = _zfree()
        maps = [
            GroupMap(zf, zf, IntMatrix([[2]])),
            GroupMap(zf, zf, IntMatrix([[1]])),
        ]
        [node] = check_exact(maps)
        assert not node.image_in_kernel and node.kernel_in_image

    def test_non_composable_rejected(self):
        zf = _zfree()
        z2 = PresentedGroup(IntMatrix([[2]]))
        f = GroupMap(zf, z2, IntMatrix([[1]]))
        with pytest.raises(ValueError):
            check_exact([f, f])

    def test_each_map_stacked_once(self, fan, monkeypatch):
        # a node's [f | R] is the [g | R_cod] whose kernel the node before
        # it read for its preimage, so n maps ask for n stacked records and
        # each of the n - 1 nodes for two more, its kernel and its union,
        # unless a node's group has no generators
        zf, zmod2 = _zfree(), PresentedGroup(IntMatrix([[2]]))
        short = [
            GroupMap(zf, zf, IntMatrix([[4]])),
            GroupMap(zf, zmod2, IntMatrix([[1]])),
            GroupMap(zmod2, PresentedGroup(IntMatrix.zeros(0, 0)), IntMatrix.zeros(0, 1)),
        ]
        coeff = CoeffGroup.reduced_units_of_field(5)
        row = six_term_row(fan, set(), {"w1"}, set(fan.vertices), coeff)
        skeleton = H.row_skeleton(SubquotientStore(fan, coeff), row)
        asked = []
        original = intlinalg.snf

        def counting(m):
            asked.append(m)
            return original(m)

        monkeypatch.setattr(intlinalg, "snf", counting)
        middle, quotient = check_exact(short)
        assert len(asked) == 7
        assert middle.image_in_kernel and not middle.kernel_in_image and quotient.exact
        # the fan row's three K1bar groups are 0, so its two nodes there are
        # exact with no elimination, and only the maps next to the two K0
        # nodes, delta, u12 and u23, are stacked
        asked.clear()
        assert [grp.generators for grp in H.row_groups(skeleton)][:3] == [0, 0, 0]
        assert all(n.exact for n in check_exact(skeleton)) and len(asked) == 7
        stacked = [f.matrix.hstack(f.codomain.relations) for f in skeleton[2:]]
        assert asked[: len(stacked)] == stacked
        # a chain through the trivial group asks for no record at all
        asked.clear()
        trivial = PresentedGroup(IntMatrix.zeros(0, 0))
        through = [
            GroupMap(zf, trivial, IntMatrix.zeros(0, 1)),
            GroupMap(trivial, zf, IntMatrix.zeros(1, 0)),
        ]
        assert check_exact(through)[0].exact and asked == []


# ---------------------------------------------------------------------------
# coefficient groups
# ---------------------------------------------------------------------------


class TestCoefficients:
    def test_units_of_field(self):
        assert CoeffGroup.units_of_field(5).order == 4
        assert CoeffGroup.units_of_field(9).order == 8
        assert CoeffGroup.units_of_field(2).order == 1
        with pytest.raises(ValueError):
            CoeffGroup.units_of_field(6)
        with pytest.raises(ValueError):
            CoeffGroup.units_of_field(1)

    def test_prime_power_check_stops_at_its_bound(self):
        bound = intlinalg._PRIME_TEST_BOUND

        def by_trial_division(q):  # every divisor up to the square root
            p = next((c for c in range(2, math.isqrt(q) + 1) if q % c == 0), q)
            e = 0
            while q % p == 0:
                q, e = q // p, e + 1
            return (p, e) if q == 1 else None

        def root(q):
            try:
                return intlinalg._prime_power_root(q)
            except ValueError:
                return None

        inside = [*range(2, 2000), 1_000_000_000_039, 3**60, 2**80, 1048573**2, 2**40 + 1]
        for q in inside:
            assert root(q) == by_trial_division(q), q
        # strong pseudoprimes to the bases up to 23 and up to 37 fail at 41
        for q in (1048583 * 1048589, 3825123056546413051, 318665857834031151167461):
            with pytest.raises(ValueError, match="is not a prime power"):
                intlinalg._prime_power_root(q)
        # a prime past 2^20 and its square, a prime just above 10^24, and
        # a prime past the bound of the exact prime test and its square
        assert root(1048583**2) == (1048583, 2)
        assert root(10**24 + 7) == (10**24 + 7, 1)
        past = 4 * 10**24 + 27  # sympy.nextprime(4 * 10**24)
        started = time.perf_counter()
        for q in (past, past**2, bound):  # the bound passes every base
            with pytest.raises(ValueError, match=f"at or past {bound}, the bound"):
                intlinalg._prime_power_root(q)
        assert time.perf_counter() - started < 1

    def test_prime_power_check_agrees_with_sympy(self):
        sympy = pytest.importorskip("sympy")  # a test-time oracle only
        rng = random.Random(51)

        def oracle(q):
            base, e = sympy.perfect_power(q) or (q, 1)
            return (int(base), int(e)) if sympy.isprime(base) else None

        seen = collections.Counter()
        for _ in range(1500):
            kind, digits = rng.randrange(3), rng.randrange(2, 16)
            a, b = rng.randrange(3, 10**digits), rng.randrange(10**digits)
            if kind == 0:  # any q below 10^30
                q = rng.randrange(2, 10 ** rng.randrange(2, 31))
            elif kind == 1:  # a prime power below 10^30
                q = sympy.prevprime(a) ** rng.randrange(1, 1 + 30 // digits)
            else:  # a product of two primes
                q = sympy.nextprime(a) * sympy.nextprime(b)
            want = oracle(q)
            if want is not None and want[0] >= intlinalg._PRIME_TEST_BOUND:
                with pytest.raises(ValueError, match="the bound"):
                    intlinalg._prime_power_root(q)
                seen["refused"] += 1
                continue
            try:
                got = intlinalg._prime_power_root(q)
            except ValueError as exc:
                assert "is not a prime power" in str(exc), q
                got = None
            assert got == want, q
            seen["none" if got is None else "prime" if got[1] == 1 else "power"] += 1
        assert min(seen[k] for k in ("none", "prime", "power")) >= 100, seen

    def test_reduced_units_of_field(self):
        # (q-1)/gcd(2, q-1)
        assert CoeffGroup.reduced_units_of_field(2).order == 1
        assert CoeffGroup.reduced_units_of_field(3).order == 1
        assert CoeffGroup.reduced_units_of_field(4).order == 3
        assert CoeffGroup.reduced_units_of_field(5).order == 2
        assert CoeffGroup.reduced_units_of_field(7).order == 3
        assert CoeffGroup.reduced_units_of_field(9).order == 4

    def test_coker_with_finite_cyclic(self):
        cc = coker_with_coefficients(IntMatrix([[2]]), CoeffGroup.units_of_field(5))
        assert cc.specialize() == FgAbGroup.from_parts(0, (2,))
        assert not cc.specialize().is_trivial()

    def test_coker_with_divisible(self):
        cd = coker_with_coefficients(IntMatrix([[2]]), CoeffGroup.divisible())
        assert cd.specialize() == FgAbGroup.from_parts(0, ())
        assert cd.symbol() == "0"
        cd2 = coker_with_coefficients(IntMatrix([[0]]), CoeffGroup.divisible())
        assert cd2.specialize() is None  # one full divisible summand survives
        assert cd2.free_rank == 1

    def test_coker_with_symbolic(self):
        cs = coker_with_coefficients(IntMatrix([[2], [0]], cols=1), CoeffGroup.symbolic("Gbar"))
        assert cs.specialize() is None
        assert cs.quotient_orders == (2,) and cs.free_rank == 1
        assert "Gbar" in cs.symbol()

    def test_same_class_is_presentation_independent(self):
        k = CoeffGroup.units_of_field(5)
        a = coker_with_coefficients(IntMatrix([[2]]), k)
        b = coker_with_coefficients(IntMatrix([[6]]), k)
        c = coker_with_coefficients(IntMatrix([[4]]), k)
        assert a.class_key() == b.class_key()
        assert a.class_key() != c.class_key()

    def test_quotient_by(self):
        k = CoeffGroup.units_of_field(5)  # Z/4
        assert H.group_order(H.coeff_quotient_by(k, 2)) == 2
        assert H.group_order(H.coeff_quotient_by(k, 0)) == 4
        d = CoeffGroup.divisible()
        assert H.group_order(H.coeff_quotient_by(d, 3)) == 1
        # specialize() is the direct sum of G/dG over the Smith entries d
        rng = random.Random(41)
        for coeff in (k, CoeffGroup.finite_cyclic(12), d):
            for _ in range(30):
                m = random_matrix(rng, rng.randint(1, 4), rng.randint(0, 4), -6, 6)
                cc = coker_with_coefficients(m, coeff)
                parts = [H.coeff_quotient_by(coeff, x) for x in cc.quotient_orders]
                parts += [H.coeff_quotient_by(coeff, 0)] * cc.free_rank
                if any(p is None for p in parts):
                    assert cc.specialize() is None
                    continue
                total = FgAbGroup(0, ())
                for p in parts:
                    total = total.direct_sum(p)
                assert cc.specialize() == total

"""Acceptance suite: the ten headline checks, one test and one report line each.

Each criterion prints ``criterion N: PASS`` (with its wall time) or
``criterion N: FAIL`` and enforces its own time budget.  Sweeps run over the
seeded 200-graph corpus from helpers (connected graphs, at most 4 vertices,
at most 2 parallel edges per ordered pair).
"""

import random
import time
from contextlib import contextmanager

import helpers as H
from leavitt.filtered import compare_fkbar
from leavitt.graphs import graph_from_matrix, relabel
from leavitt.intlinalg import CoeffGroup, FgAbGroup, IntMatrix
from leavitt.ktheory import (
    connecting_delta,
    k0,
    k1,
    psi_diagram_check,
    six_term_row,
    snake_rho,
)
from leavitt.lattice import enumerate_hsat, kernel_of, spectrum
from leavitt.monoid import (
    EqBudget,
    parse_graded_element,
    graded_equal,
    quotient_roundtrip,
    ungraded_equal,
)
from leavitt.shifts import (
    bowen_franks,
    det_invariant,
    shift_equivalent_bounded,
    verify_certificate,
)
from leavitt.graphs import restriction


@contextmanager
def report(number: int, budget_seconds: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.2f}s"
    )
    print(f"criterion {number}: PASS ({elapsed:.2f}s)")


def nested_pairs(lat):
    n = len(lat.elements)
    return [(i, j) for i in range(n) for j in range(n) if lat.leq(i, j)]


def test_criterion_01_single_loop_k1_and_k1bar():
    with report(1, 1.0):
        loop = H.rose(1)
        full = k1(loop, CoeffGroup.units_of_field(5))
        assert full.isomorphism_class() == FgAbGroup.from_parts(1, (4,))
        reduced = k1(loop, CoeffGroup.reduced_units_of_field(5))
        assert reduced.isomorphism_class() == FgAbGroup.from_parts(1, (2,))


def test_criterion_02_rose_k0_series_with_snf_oracle():
    with report(2, 1.0):
        expected = {2: (0, ()), 3: (0, (2,)), 5: (0, (4,))}
        for n, (free, torsion) in expected.items():
            g = H.rose(n)
            assert k0(g).invariants() == FgAbGroup.from_parts(free, torsion)
            # independent naive row/column-reduction oracle
            from leavitt.ktheory import k_matrix

            naive = H.cokernel_invariants_naive(k_matrix(g).to_lists())
            assert naive == (free, torsion)


def test_criterion_03_shift_equivalence_roundtrip():
    with report(3, 10.0):
        a = IntMatrix([[2]])
        b = IntMatrix([[1, 1], [1, 1]])
        result = shift_equivalent_bounded(a, b)
        assert result.kind == "certificate"
        cert = result.certificate
        assert cert.lag == 1
        entries = [x for row in cert.r.to_lists() for x in row]
        entries += [x for row in cert.s.to_lists() for x in row]
        assert all(0 <= x <= 1 for x in entries)
        assert verify_certificate(a, b, cert).ok
        trivial = FgAbGroup.from_parts(0, ())
        assert bowen_franks(a) == trivial and bowen_franks(b) == trivial
        assert det_invariant(a) == -1 and det_invariant(b) == -1


def test_criterion_04_exactness_sweep(corpus):
    with report(4, 600.0):
        coeff = CoeffGroup.reduced_units_of_field(3)
        triples = 0
        for g in corpus:
            lat = enumerate_hsat(g)
            n = len(lat)
            for i in range(n):
                for j in range(i, n):
                    if not lat.leq(i, j):
                        continue
                    for p in range(j, n):
                        if not lat.leq(j, p):
                            continue
                        row = six_term_row(
                            g,
                            lat.members(i),
                            lat.members(j),
                            lat.members(p),
                            coeff,
                            order_cap=10_000,
                        )
                        for node in row.nodes:
                            assert node.z_image_in_kernel, (g, row.triple, node.name)
                            assert node.z_kernel_in_image, (g, row.triple, node.name)
                            # coeff_exact is None exactly when the element-level
                            # enumeration was skipped for exceeding the cap
                            assert node.coeff_exact in (None, True), (
                                g,
                                row.triple,
                                node.name,
                            )
                        triples += 1
        assert len(corpus) >= 200
        assert triples == 1491


def test_criterion_05_quotient_monoid_roundtrip(corpus):
    with report(5, 300.0):
        rng = random.Random(505)
        pairs = 0
        for g in corpus:
            lat = enumerate_hsat(g)
            for i, j in nested_pairs(lat):
                ambient = restriction(g, lat.members(j))
                rep = quotient_roundtrip(
                    ambient,
                    lat.members(i),
                    samples=100,
                    rng=random.Random(rng.randrange(2**30)),
                )
                assert rep.passed, (g, lat.members(i), lat.members(j), rep.failures)
                pairs += 1
        assert pairs > 0


def test_criterion_06_psi_diagram_commutes(corpus):
    with report(6, 120.0):
        for idx, g in enumerate(corpus):
            rep = psi_diagram_check(g, trials=100, rng=random.Random(606 + idx))
            assert rep.passed, (g, rep.failures)


def test_criterion_07_snake_consistency(corpus):
    with report(7, 300.0):
        rng = random.Random(707)
        for g in corpus:
            lat = enumerate_hsat(g)
            for h in map(lat.members, range(len(lat))):
                delta = connecting_delta(g, h)
                ncols = delta.kernel.cols
                for _ in range(50):
                    coeffs = tuple(rng.randint(-3, 3) for _ in range(ncols))
                    x = delta.kernel @ coeffs
                    assert tuple(delta.apply(x)) == tuple(snake_rho(g, h, x)), (
                        g,
                        h,
                        x,
                    )


def test_criterion_08_lattice_and_spectrum_oracles(corpus, fan):
    with report(8, 120.0):
        for g in corpus:
            assert g.num_vertices <= 10
            lat = enumerate_hsat(g)
            computed = sorted(sorted(lat.members(i)) for i in range(len(lat)))
            brute = sorted(sorted(s) for s in H.hsat_subsets_bruteforce(g))
            assert computed == brute, g
            topo = spectrum(lat)
            all_primes = frozenset(range(len(topo.primes)))
            for i in range(len(lat)):
                containing = all_primes - topo.opens[i]
                assert kernel_of(topo, containing) == frozenset(lat.members(i))
        fan_topo = spectrum(enumerate_hsat(fan))
        assert len(fan_topo.primes) == 2


def test_criterion_09_comparison_sanity(corpus, rose2, rose3):
    with report(9, 60.0):
        coeff = CoeffGroup.reduced_units_of_field(5)
        rng = random.Random(909)
        for k in range(50):
            g = corpus[k % len(corpus)]
            names = list(g.vertices)
            rng.shuffle(names)
            mapping = {v: f"r{k}_{n}" for v, n in zip(g.vertices, names)}
            rep = compare_fkbar(g, relabel(g, mapping), coeff)
            assert rep.consistent, (g, mapping, rep.obstruction)
        rep = compare_fkbar(rose2, rose3, coeff)
        assert not rep.consistent and "K0" in rep.obstruction
        ones = graph_from_matrix(IntMatrix([[1, 1], [1, 1]]))
        assert compare_fkbar(rose2, ones, coeff).consistent


def test_criterion_10_monoid_decisions(corpus, rose2):
    with report(10, 120.0):
        equal = graded_equal(
            rose2, parse_graded_element("v(0)"), parse_graded_element("2*v(-1)")
        )
        assert equal.is_equal
        unequal = graded_equal(
            rose2, parse_graded_element("v(0)"), parse_graded_element("v(-1)")
        )
        assert unequal.kind == "not-equal"

        budgets = (
            EqBudget(max_states=20, max_mass=8),
            EqBudget(max_states=400, max_mass=16),
            EqBudget(max_states=8000, max_mass=32),
        )
        rng = random.Random(1010)
        for k in range(500):
            g = corpus[k % len(corpus)]
            a = H.random_monoid_element(g, rng)
            b = H.random_monoid_element(g, rng)
            decided = None
            for budget in budgets:
                verdict = ungraded_equal(g, a, b, budget)
                if decided is None:
                    if verdict.kind != "unknown":
                        decided = verdict.kind
                else:
                    # once decided, larger budgets must agree
                    assert verdict.kind == decided, (g, a, b, decided, verdict.kind)
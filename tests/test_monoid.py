"""Graph monoids: parsing, rewriting, equality decisions, quotient roundtrip."""

import random
import time

import pytest

import helpers as H
from helpers import (
    apply_random_expansions,
    bfs_equal,
    order_ideal_membership,
    quotient_roundtrip,
    random_graded_element,
)
from leavitt.graphs import Graph, restriction
from leavitt.ktheory import k_matrix
from leavitt.monoid import (
    GradedElement,
    MonoidElement,
    graded_equal,
    graded_expand_to_level,
    parse_graded_element,
    parse_monoid_element,
    successors_one_step,
    ungraded_equal,
)


class TestParsing:
    def test_monoid_goldens(self):
        assert parse_monoid_element("v").coeffs == (("v", 1),)
        assert parse_monoid_element("2*v + w").coeffs == (("v", 2), ("w", 1))
        assert parse_monoid_element("v+v").coeffs == (("v", 2),)
        assert parse_monoid_element("0").coeffs == ()

    def test_graded_goldens(self):
        assert parse_graded_element("v(0)").coeffs == (("v", 0, 1),)
        assert parse_graded_element("-v(2) + 3*w(0)").coeffs == (("v", 2, -1), ("w", 0, 3))
        assert parse_graded_element("v(1)+v(1)").coeffs == (("v", 1, 2),)
        assert parse_graded_element("0").is_zero()

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_monoid_element("v + w(")
        with pytest.raises(ValueError):
            parse_monoid_element("-v")
        # a monoid has no subtraction: a negative term is an error even when
        # the coefficients sum to a nonnegative count
        for text in ("v - v", "2*v - v", "-v + 2*v"):
            with pytest.raises(ValueError):
                parse_monoid_element(text)
        with pytest.raises(ValueError):
            parse_graded_element("v(x)")
        # a bare vertex in a graded element defaults to level 0
        assert parse_graded_element("v").coeffs == (("v", 0, 1),)

    def test_to_str_roundtrip(self, fan):
        rng = random.Random(17)
        for _ in range(50):
            a = H.random_monoid_element(fan, rng)
            assert parse_monoid_element(H.monoid_to_str(a, fan)) == a
            b = random_graded_element(fan, rng, signed=True)
            assert parse_graded_element(H.graded_to_str(b, fan)) == b

    def test_element_algebra(self):
        a = parse_graded_element("2*v(0) + w1(-1)")
        assert a.min_level() == -1 and max(l for _, l, _ in a.coeffs) == 0
        assert a.shift(2).coeffs == (("v", 2, 2), ("w1", 1, 1))
        assert a.sub(parse_graded_element("v(0)")).coeffs == (("v", 0, 1), ("w1", -1, 1))
        assert not H.graded_is_nonnegative(a.sub(parse_graded_element("3*v(0)")))
        assert H.restrict_to(a, {"w1"}).coeffs == (("w1", -1, 1),)
        assert a.forget_levels() == {"v": 2, "w1": 1}
        assert H.mass(MonoidElement(())) == 0
        # repeated vertices add up, as they do in GradedElement.of
        assert MonoidElement.of([("v", 1), ("v", 2)]).coeffs == (("v", 3),)
        assert MonoidElement.of([("v", 1), ("w", 2), ("v", 2)]) == parse_monoid_element("3*v + 2*w")
        assert H.mass(parse_monoid_element("2*v + w")) == 3


class TestRewriting:
    def test_successors_goldens(self, fan, rose2):
        v = parse_monoid_element("v")
        assert [H.monoid_to_str(s, fan) for s in successors_one_step(fan, v)] == ["w1 + w2"]
        assert [H.monoid_to_str(s, rose2) for s in successors_one_step(rose2, v)] == ["2*v"]
        assert not successors_one_step(fan, parse_monoid_element("w1"))
        # one rewrite of one occurrence per successor
        assert [H.monoid_to_str(s, fan) for s in successors_one_step(fan, parse_monoid_element("2*v"))] == [
            "v + w1 + w2"
        ]

    def test_mass_never_decreases(self, corpus):
        rng = random.Random(19)
        for g in corpus[:40]:
            a = H.random_monoid_element(g, rng)
            for succ in successors_one_step(g, a):
                assert H.mass(succ) >= H.mass(a)

    def test_graded_expansion_golden(self, fan):
        out = graded_expand_to_level(fan, parse_graded_element("v(0)"), -1)
        assert H.graded_to_str(out, fan) == "w1(-1) + w2(-1)"
        # sinks cannot move down; they simply stay at their level
        stay = graded_expand_to_level(fan, parse_graded_element("w1(0)"), -1)
        assert stay.coeffs == (("w1", 0, 1),)
        # zero has no support level, so any target level will do
        assert graded_expand_to_level(fan, GradedElement.zero(), 5) == GradedElement.zero()

    def test_graded_expansion_rejects_upward(self, rose2):
        with pytest.raises(ValueError):
            graded_expand_to_level(rose2, parse_graded_element("v(0)"), 1)

    def test_graded_expansion_is_additive(self, corpus):
        rng = random.Random(23)
        for g in corpus[:30]:
            if not g.vertices:
                continue
            a = random_graded_element(g, rng)
            b = random_graded_element(g, rng)
            lvl = min(a.min_level(), b.min_level()) - 2
            left = graded_expand_to_level(g, H.graded_add(a, b), lvl)
            right = H.graded_add(
                graded_expand_to_level(g, a, lvl), graded_expand_to_level(g, b, lvl)
            )
            assert left == right


def _rewrite_pair(g, rng, lo, hi):
    """A random element and a rewrite of it in lo to hi random steps, so the
    two are equal."""
    a = H.random_monoid_element(g, rng)
    b = a
    for _ in range(rng.randint(lo, hi)):
        succs = successors_one_step(g, b)
        if not succs:
            break
        b = rng.choice(succs)
    return a, b


def _smallest_hsat_containing(g, vertices):
    """From the brute-force list of hereditary saturated sets, in declaration order."""
    best = min((s for s in H.hsat_subsets_bruteforce(g) if set(vertices) <= s), key=len)
    return tuple(v for v in g.vertices if v in best)


class TestUngradedEquality:
    def test_goldens(self, rose2, rose3, loop):
        v, vv = parse_monoid_element("v"), parse_monoid_element("2*v")
        assert ungraded_equal(rose2, v, vv).is_equal
        assert ungraded_equal(rose3, v, vv).kind == "not-equal"
        assert ungraded_equal(loop, v, vv).kind == "not-equal"
        assert ungraded_equal(rose2, v, v).is_equal
        assert ungraded_equal(rose2, v, MonoidElement(())).kind == "not-equal"

    def test_rose3_triple_is_equal(self, rose3):
        # v rewrites to 3v in one step
        assert ungraded_equal(rose3, parse_monoid_element("v"), parse_monoid_element("3*v")).is_equal

    def test_verdict_kind_strings(self, rose2):
        v, vv = parse_monoid_element("v"), parse_monoid_element("2*v")
        assert ungraded_equal(rose2, v, vv).kind == "equal"
        assert ungraded_equal(rose2, v, MonoidElement(())).kind == "not-equal"
        assert bfs_equal(rose2, v, vv, max_states=1, max_mass=1).kind == "unknown"

    def test_equal_traces_are_valid_rewrite_paths(self, corpus):
        rng = random.Random(29)
        checked = 0
        for g in corpus[:60]:
            if not g.regulars:
                continue
            a, b = _rewrite_pair(g, rng, 1, 3)
            if not a.coeffs:
                continue
            verdict = bfs_equal(g, a, b)
            if verdict.kind != "equal":
                continue
            checked += 1
            for trace, start in ((verdict.trace_a, a), (verdict.trace_b, b)):
                assert trace[0] == start
                for cur, nxt in zip(trace, trace[1:]):
                    assert nxt in successors_one_step(g, cur)
            assert verdict.trace_a[-1] == verdict.trace_b[-1]
        assert checked >= 20

    def test_known_equal_pairs_never_refuted(self, corpus):
        # both elements expand from a common ancestor, so NotEqual is unsound
        rng = random.Random(31)
        for g in corpus[:60]:
            if not g.vertices:
                continue
            root = random_graded_element(g, rng).forget_levels()
            a = MonoidElement.of(root.items())
            if not a.coeffs:
                continue
            b = a
            for _ in range(rng.randint(0, 4)):
                succs = successors_one_step(g, b)
                if not succs:
                    break
                b = rng.choice(succs)
            assert not bfs_equal(g, a, b).kind == "not-equal"
            assert ungraded_equal(g, a, b).is_equal

    def test_budget_monotonicity(self, corpus):
        rng = random.Random(37)
        budgets = [(20, 8), (400, 16), (8000, 32)]
        for _ in range(150):
            g = corpus[rng.randrange(len(corpus))]
            if not g.vertices:
                continue
            a = H.random_monoid_element(g, rng)
            b = H.random_monoid_element(g, rng)
            decided = None
            for states, mass in budgets:
                verdict = bfs_equal(g, a, b, max_states=states, max_mass=mass)
                if decided is None and verdict.kind != "unknown":
                    decided = verdict.kind
                elif decided is not None:
                    assert verdict.kind == decided  # no flips once decided

    def test_rule_agrees_with_bfs_on_corpus(self, corpus):
        # half the pairs are rewrites of one element, half independent draws
        rng = random.Random(59)
        agreed = {"equal": 0, "not-equal": 0}
        for k in range(600):
            g = corpus[k % len(corpus)]
            if k % 2:
                a, b = _rewrite_pair(g, rng, 1, 4)
            else:
                a, b = H.random_monoid_element(g, rng), H.random_monoid_element(g, rng)
            oracle = bfs_equal(g, a, b, max_states=2000, max_mass=32)
            verdict = ungraded_equal(g, a, b)
            assert verdict.kind in agreed
            if oracle.kind != "unknown":
                assert verdict.kind == oracle.kind, (g, a, b, oracle)
                agreed[oracle.kind] += 1
        # 390 and 210 at this seed; none exhausts the oracle's budget
        assert agreed["equal"] >= 380 and agreed["not-equal"] >= 200, agreed

    def test_equal_certificates_remultiply(self, corpus):
        rng = random.Random(61)
        checked = 0
        for g in corpus[:120]:
            a, b = _rewrite_pair(g, rng, 0, 3)
            verdict = ungraded_equal(g, a, b)
            assert verdict.is_equal
            ideal = _smallest_hsat_containing(g, a.support())
            assert verdict.ideal == ideal == _smallest_hsat_containing(g, b.support())
            sub = restriction(g, ideal)
            assert tuple(v for v, _ in verdict.witness) == sub.regulars
            x = tuple(n for _, n in verdict.witness)
            assert k_matrix(sub) @ x == tuple(a.get(v) - b.get(v) for v in ideal)
            checked += 1
        assert checked == 120

    def test_builds_no_graph(self, corpus, monkeypatch):
        # K_H is the block of the graph's transfer matrix at H, so no
        # restriction is built; the inputs are drawn before the count starts
        rng = random.Random(67)
        pairs = []
        for g in corpus[:60]:
            pairs.append((g, *_rewrite_pair(g, rng, 0, 3)))
            pairs.append((g, H.random_monoid_element(g, rng), H.random_monoid_element(g, rng)))
        built = []
        init = Graph.__init__

        def counting(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(Graph, "__init__", counting)
        kinds = {ungraded_equal(g, a, b).kind for g, a, b in pairs}
        assert kinds == {"equal", "not-equal"} and built == []

    def test_distinct_roses_are_not_equal_at_once(self):
        # the budgeted search ran for minutes on this pair without deciding:
        # the supports generate different order ideals
        roses = H.disjoint_union(H.rose(2), H.rose(2))
        v, w = roses.vertices
        start = time.monotonic()
        verdict = ungraded_equal(roses, MonoidElement.of({v: 3}), MonoidElement.of({w: 3}))
        assert time.monotonic() - start < 1.0
        assert verdict.kind == "not-equal"
        assert bfs_equal(roses, MonoidElement.of({v: 3}), MonoidElement.of({w: 3})).kind == "unknown"


class TestGradedEquality:
    def test_goldens(self, rose2):
        v0 = parse_graded_element("v(0)")
        assert graded_equal(rose2, v0, parse_graded_element("2*v(-1)")).is_equal
        assert graded_equal(rose2, v0, parse_graded_element("v(-1)")).kind == "not-equal"
        assert graded_equal(rose2, v0, v0).is_equal

    def test_symmetry_and_reflexivity(self, corpus):
        rng = random.Random(41)
        for g in corpus[:40]:
            if not g.vertices:
                continue
            a = random_graded_element(g, rng)
            b = random_graded_element(g, rng)
            assert graded_equal(g, a, a).is_equal
            assert graded_equal(g, a, b).kind == graded_equal(g, b, a).kind

    def test_expansions_are_equal(self, corpus):
        rng = random.Random(43)
        for g in corpus[:60]:
            if not g.vertices:
                continue
            a = random_graded_element(g, rng)
            b = apply_random_expansions(g, a, rng.randint(1, 4), rng)
            assert graded_equal(g, a, b).is_equal

    def test_expansions_keep_the_seeded_choices(self, corpus):
        # one rewrite at a time on sorted elements, the way the dict-based
        # rewrite must reproduce: same rng state, same candidates, same result
        def one_at_a_time(g, a, steps, rng):
            current = a
            for _ in range(steps):
                candidates = [(v, l) for v, l, n in current.coeffs if n > 0 and not g.is_sink(v)]
                if not candidates:
                    break
                v, l = rng.choice(candidates)
                delta = [(v, l, -1)] + [(e.dst, l - 1, 1) for e in g.out_edges(v)]
                current = H.graded_add(current, GradedElement.of(delta))
            return current

        rng = random.Random(44)
        for g in corpus:
            a = random_graded_element(g, rng, signed=True)
            steps = rng.randint(0, 8)
            seed = rng.randrange(2**30)
            got = apply_random_expansions(g, a, steps, random.Random(seed))
            assert got == one_at_a_time(g, a, steps, random.Random(seed))

    def test_sink_level_mismatch_detected(self, fan):
        # a sink occurrence is frozen at its level, so it separates classes
        assert graded_equal(fan, parse_graded_element("w1(0)"), parse_graded_element("w1(-1)")).kind == "not-equal"
        assert graded_equal(fan, parse_graded_element("v(0)"), parse_graded_element("w1(-1) + w2(-1)")).is_equal


class TestOrderIdeal:
    def test_goldens(self, fan):
        assert order_ideal_membership(fan, parse_graded_element("w1(0)"), {"w1"})
        assert not order_ideal_membership(fan, parse_graded_element("v(0)"), {"w1"})
        assert order_ideal_membership(fan, parse_graded_element("v(0)"), {"w1", "w2", "v"})

    def test_ideal_supported_elements_are_members(self, corpus):
        from leavitt.lattice import enumerate_hsat

        rng = random.Random(47)
        for g in corpus[:30]:
            lat = enumerate_hsat(g)
            for i in range(len(lat)):
                members = frozenset(lat.members(i))
                if not members:
                    continue
                sub = [v for v in g.vertices if v in members]
                a = GradedElement.of([(rng.choice(sub), rng.randint(-1, 1), rng.randint(1, 2))])
                assert order_ideal_membership(g, a, members)


class TestQuotientRoundtrip:
    def test_fan_golden(self, fan):
        rep = quotient_roundtrip(fan, {"w1"}, samples=30, rng=random.Random(3))
        assert rep.passed and not rep.failures

    def test_broken_quotient_fails_up_down(self, monkeypatch):
        # v -> v, v -> w, w -> w; H = {w}.  The real quotient drops edge b;
        # a broken one keeps it as a second loop at v, so v(0) = 2*v(-1)
        # there, while the image of v(0) = v(-1) + w(-1) in g is v(-1).
        g = Graph(["v", "w"], [("a", "v", "v"), ("b", "v", "w"), ("c", "w", "w")])
        broken = Graph(["v"], [("a", "v", "v"), ("b", "v", "v")])
        assert quotient_roundtrip(g, {"w"}, samples=100, rng=random.Random(5)).passed
        monkeypatch.setattr(H, "quotient", lambda *_: broken)
        rep = quotient_roundtrip(g, {"w"}, samples=100, rng=random.Random(5))
        assert any(kind == "up-down" for kind, *_ in rep.failures)

    def test_corpus_sample(self, corpus):
        from leavitt.lattice import enumerate_hsat

        rng = random.Random(53)
        pairs = 0
        for g in corpus[:25]:
            lat = enumerate_hsat(g)
            for i in range(len(lat)):
                members = frozenset(lat.members(i))
                if not members or members == frozenset(g.vertices):
                    continue
                rep = quotient_roundtrip(g, members, samples=15, rng=rng)
                assert rep.passed, (g, members, rep.failures)
                pairs += 1
        assert pairs >= 5
"""Graph monoids: parsing, rewriting, equality decisions, quotient roundtrip."""

import random

import pytest

import helpers as H
from leavitt.graphs import Graph
from leavitt.monoid import (
    EqBudget,
    GradedElement,
    MonoidElement,
    apply_random_expansions,
    graded_equal,
    graded_expand_to_level,
    order_ideal_membership,
    parse_graded_element,
    parse_monoid_element,
    quotient_roundtrip,
    random_graded_element,
    successors_one_step,
    ungraded_equal,
)


class TestParsing:
    def test_monoid_goldens(self):
        assert parse_monoid_element("v").coeffs == (("v", 1),)
        assert parse_monoid_element("2*v + w").coeffs == (("v", 2), ("w", 1))
        assert parse_monoid_element("v+v").coeffs == (("v", 2),)
        assert parse_monoid_element("0").is_zero()

    def test_graded_goldens(self):
        assert parse_graded_element("v(0)").items() == (("v", 0, 1),)
        assert parse_graded_element("-v(2) + 3*w(0)").items() == (("v", 2, -1), ("w", 0, 3))
        assert parse_graded_element("v(1)+v(1)").items() == (("v", 1, 2),)
        assert parse_graded_element("0").is_zero()

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_monoid_element("v + w(")
        with pytest.raises(ValueError):
            parse_monoid_element("-v")
        with pytest.raises(ValueError):
            parse_graded_element("v(x)")
        # a bare vertex in a graded element defaults to level 0
        assert parse_graded_element("v").items() == (("v", 0, 1),)

    def test_to_str_roundtrip(self, fan):
        rng = random.Random(17)
        for _ in range(50):
            a = H.random_monoid_element(fan, rng)
            assert parse_monoid_element(a.to_str(fan)) == a
            b = random_graded_element(fan, rng, signed=True)
            assert parse_graded_element(b.to_str(fan)) == b

    def test_element_algebra(self):
        a = parse_graded_element("2*v(0) + w1(-1)")
        assert a.min_level() == -1 and max(l for _, l, _ in a.items()) == 0
        assert a.shift(2).items() == (("v", 2, 2), ("w1", 1, 1))
        assert a.sub(parse_graded_element("v(0)")).items() == (("v", 0, 1), ("w1", -1, 1))
        assert not a.sub(parse_graded_element("3*v(0)")).is_nonnegative()
        assert a.restrict_to({"w1"}).items() == (("w1", -1, 1),)
        assert a.forget_levels() == {"v": 2, "w1": 1}
        assert MonoidElement.zero().mass() == 0
        # repeated vertices add up, as they do in GradedElement.of
        assert MonoidElement.of([("v", 1), ("v", 2)]).coeffs == (("v", 3),)
        assert MonoidElement.of([("v", 1), ("w", 2), ("v", 2)]) == parse_monoid_element("3*v + 2*w")
        assert parse_monoid_element("2*v + w").mass() == 3


class TestRewriting:
    def test_successors_goldens(self, fan, rose2):
        v = parse_monoid_element("v")
        assert [s.to_str(fan) for s in successors_one_step(fan, v)] == ["w1 + w2"]
        assert [s.to_str(rose2) for s in successors_one_step(rose2, v)] == ["2*v"]
        assert not successors_one_step(fan, parse_monoid_element("w1"))
        # one rewrite of one occurrence per successor
        assert [s.to_str(fan) for s in successors_one_step(fan, parse_monoid_element("2*v"))] == [
            "v + w1 + w2"
        ]

    def test_mass_never_decreases(self, corpus):
        rng = random.Random(19)
        for g in corpus[:40]:
            a = H.random_monoid_element(g, rng)
            for succ in successors_one_step(g, a):
                assert succ.mass() >= a.mass()

    def test_graded_expansion_golden(self, fan):
        out = graded_expand_to_level(fan, parse_graded_element("v(0)"), -1)
        assert out.to_str(fan) == "w1(-1) + w2(-1)"
        # sinks cannot move down; they simply stay at their level
        stay = graded_expand_to_level(fan, parse_graded_element("w1(0)"), -1)
        assert stay.items() == (("w1", 0, 1),)

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
            left = graded_expand_to_level(g, a.add(b), lvl)
            right = graded_expand_to_level(g, a, lvl).add(graded_expand_to_level(g, b, lvl))
            assert left == right


class TestUngradedEquality:
    def test_goldens(self, rose2, rose3, loop):
        v, vv = parse_monoid_element("v"), parse_monoid_element("2*v")
        assert ungraded_equal(rose2, v, vv).is_equal
        assert ungraded_equal(rose3, v, vv).is_not_equal
        assert ungraded_equal(loop, v, vv).is_not_equal
        assert ungraded_equal(rose2, v, v).is_equal
        assert ungraded_equal(rose2, v, MonoidElement.zero()).is_not_equal

    def test_rose3_triple_is_equal(self, rose3):
        # v rewrites to 3v in one step
        assert ungraded_equal(rose3, parse_monoid_element("v"), parse_monoid_element("3*v")).is_equal

    def test_verdict_kind_strings(self, rose2):
        v, vv = parse_monoid_element("v"), parse_monoid_element("2*v")
        assert ungraded_equal(rose2, v, vv).kind == "equal"
        assert ungraded_equal(rose2, v, MonoidElement.zero()).kind == "not-equal"
        assert ungraded_equal(rose2, v, vv, EqBudget(max_states=1, max_mass=1)).kind == "unknown"

    def test_equal_traces_are_valid_rewrite_paths(self, corpus):
        rng = random.Random(29)
        checked = 0
        for g in corpus[:60]:
            if not g.regulars:
                continue
            a = H.random_monoid_element(g, rng)
            if a.is_zero():
                continue
            b = a
            for _ in range(rng.randint(1, 3)):
                succs = successors_one_step(g, b)
                if not succs:
                    break
                b = rng.choice(succs)
            verdict = ungraded_equal(g, a, b)
            if not verdict.is_equal:
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
            if a.is_zero():
                continue
            b = a
            for _ in range(rng.randint(0, 4)):
                succs = successors_one_step(g, b)
                if not succs:
                    break
                b = rng.choice(succs)
            assert not ungraded_equal(g, a, b).is_not_equal

    def test_budget_monotonicity(self, corpus):
        rng = random.Random(37)
        budgets = [
            EqBudget(max_states=20, max_mass=8),
            EqBudget(max_states=400, max_mass=16),
            EqBudget(max_states=8000, max_mass=32),
        ]
        for _ in range(150):
            g = corpus[rng.randrange(len(corpus))]
            if not g.vertices:
                continue
            a = H.random_monoid_element(g, rng)
            b = H.random_monoid_element(g, rng)
            decided = None
            for budget in budgets:
                verdict = ungraded_equal(g, a, b, budget)
                if decided is None and not verdict.is_unknown:
                    decided = verdict.kind
                elif decided is not None:
                    assert verdict.kind == decided  # no flips once decided


class TestGradedEquality:
    def test_goldens(self, rose2):
        v0 = parse_graded_element("v(0)")
        assert graded_equal(rose2, v0, parse_graded_element("2*v(-1)")).is_equal
        assert graded_equal(rose2, v0, parse_graded_element("v(-1)")).is_not_equal
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
                current = current.add(GradedElement.of(delta))
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
        assert graded_equal(fan, parse_graded_element("w1(0)"), parse_graded_element("w1(-1)")).is_not_equal
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
        import leavitt.monoid as monoid

        g = Graph(["v", "w"], [("a", "v", "v"), ("b", "v", "w"), ("c", "w", "w")])
        broken = Graph(["v"], [("a", "v", "v"), ("b", "v", "v")])
        assert quotient_roundtrip(g, {"w"}, samples=100, rng=random.Random(5)).passed
        monkeypatch.setattr(monoid, "quotient", lambda *_: broken)
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
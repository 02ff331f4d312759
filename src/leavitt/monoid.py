"""Graph monoids: vertex rewriting, budgets, and the graded refinement.

A monoid element is a nonnegative integer combination of vertices, rewritten
by replacing one copy of a non-sink vertex with the multiset of its edge
targets.  The graded variant tags generators with an integer level; the
rewrite then moves one level down.  Graded equality is decidable exactly;
ungraded equality is semi-decided under explicit budgets and reports
Unknown rather than guessing.
"""

from __future__ import annotations

import random as _random
import re
from dataclasses import dataclass

from .graphs import Graph, is_hereditary, is_saturated, quotient
from .intlinalg import cokernel

__all__ = [
    "MonoidElement",
    "GradedElement",
    "EqVerdict",
    "EqBudget",
    "RoundtripReport",
    "parse_monoid_element",
    "parse_graded_element",
    "successors_one_step",
    "ungraded_equal",
    "graded_expand_to_level",
    "graded_equal",
    "order_ideal_membership",
    "quotient_roundtrip",
    "random_graded_element",
    "apply_random_expansions",
]


@dataclass(frozen=True)
class MonoidElement:
    """Nonnegative combination of vertices; immutable and hashable."""

    coeffs: tuple[tuple[str, int], ...]  # sorted by vertex id, coefficients > 0

    @classmethod
    def of(cls, pairs) -> "MonoidElement":
        """From a dict or (vertex, count) pairs; repeated vertices add up."""
        acc = {}
        for v, n in pairs.items() if isinstance(pairs, dict) else pairs:
            n = int(n)
            if n < 0:
                raise ValueError(f"negative coefficient {n} at {v}")
            if n:
                acc[str(v)] = acc.get(str(v), 0) + n
        return cls(tuple(sorted(acc.items())))

    @classmethod
    def zero(cls):
        return cls(())

    def get(self, v):
        for w, n in self.coeffs:
            if w == v:
                return n
        return 0

    def support(self):
        return tuple(v for v, _ in self.coeffs)

    def mass(self):
        return sum(n for _, n in self.coeffs)

    def is_zero(self):
        return not self.coeffs

    def add(self, other):
        acc = dict(self.coeffs)
        for v, n in other.coeffs:
            acc[v] = acc.get(v, 0) + n
        return MonoidElement.of(acc)

    def to_str(self, g: Graph | None = None) -> str:
        if not self.coeffs:
            return "0"
        items = sorted(self.coeffs, key=(lambda p: g.index(p[0])) if g else None)
        return " + ".join(f"{n}*{v}" if n != 1 else v for v, n in items)


@dataclass(frozen=True)
class GradedElement:
    """Integer combination of vertex-at-level generators.

    Coefficients may be negative; monoid contexts validate nonnegativity at
    the point of use.  The level action shifts every generator uniformly.
    """

    coeffs: tuple[tuple[str, int, int], ...]  # (vertex, level, coefficient), sorted

    @classmethod
    def of(cls, triples) -> "GradedElement":
        acc = {}
        for v, lvl, n in triples:
            key = (str(v), int(lvl))
            acc[key] = acc.get(key, 0) + int(n)
        return cls(tuple((v, lvl, n) for (v, lvl), n in sorted(acc.items()) if n != 0))

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def from_vertex_vector(cls, vertices, vec, level=0):
        return cls.of([(v, level, n) for v, n in zip(vertices, vec, strict=True)])

    def items(self):
        return self.coeffs

    def is_zero(self):
        return not self.coeffs

    def is_nonnegative(self):
        return all(n >= 0 for _, _, n in self.coeffs)

    def support_vertices(self):
        return tuple(dict.fromkeys(v for v, _, _ in self.coeffs))

    def min_level(self):
        if not self.coeffs:
            raise ValueError("zero element has no support level")
        return min(l for _, l, _ in self.coeffs)

    def add(self, other):
        return GradedElement.of(self.coeffs + other.coeffs)

    def sub(self, other):
        return GradedElement.of(self.coeffs + _negated(other))

    def shift(self, k):
        """The Z-action: move every generator k levels up."""
        return GradedElement.of([(v, l + int(k), n) for v, l, n in self.coeffs])

    def restrict_to(self, vertices):
        keep = frozenset(vertices)
        return GradedElement.of([(v, l, n) for v, l, n in self.coeffs if v in keep])

    def forget_levels(self) -> dict:
        acc = {}
        for v, _, n in self.coeffs:
            acc[v] = acc.get(v, 0) + n
        return acc

    def to_str(self, g: Graph | None = None) -> str:
        if not self.coeffs:
            return "0"
        items = sorted(
            self.coeffs,
            key=(lambda t: (g.index(t[0]), -t[1])) if g else (lambda t: (t[0], -t[1])),
        )
        parts = []
        for v, l, n in items:
            term = f"{v}({l})" if n in (1, -1) else f"{abs(n)}*{v}({l})"
            parts.append(("- " if n < 0 else "+ ") + term)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _negated(a: GradedElement) -> tuple:
    return tuple((v, l, -n) for v, l, n in a.coeffs)


# ---------------------------------------------------------------------------
# literals
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(r"^(?:(\d+)\*)?([^+\-*()\s]+)(?:\((-?\d+)\))?$")


def _split_terms(text):
    # signs split terms only outside parentheses, so levels like (-1) survive
    text = text.strip()
    if text == "0":
        return []
    out = []
    sign = 1
    token = ""
    depth = 0
    for ch in text:
        if ch == "(":
            depth += 1
            token += ch
        elif ch == ")":
            depth -= 1
            token += ch
        elif ch in "+-" and depth == 0:
            if token.strip():
                out.append((sign, token.strip()))
                sign = 1 if ch == "+" else -1
                token = ""
            else:
                sign = sign * (1 if ch == "+" else -1)
        else:
            token += ch
    if token.strip():
        out.append((sign, token.strip()))
    return out


def parse_graded_element(text: str) -> GradedElement:
    """Parse literals like ``2*v(0) + w(-1)``; plain ``v`` means level 0."""
    triples = []
    for sign, term in _split_terms(text):
        m = _TERM_RE.match(term)
        if not m:
            raise ValueError(f"bad element term {term!r}")
        coeff = int(m.group(1)) if m.group(1) else 1
        level = int(m.group(3)) if m.group(3) is not None else 0
        triples.append((m.group(2), level, sign * coeff))
    return GradedElement.of(triples)


def parse_monoid_element(text: str) -> MonoidElement:
    """Parse literals like ``2*v + w``; levels are not allowed here."""
    pairs = {}
    for sign, term in _split_terms(text):
        m = _TERM_RE.match(term)
        if not m or m.group(3) is not None:
            raise ValueError(f"bad ungraded term {term!r}")
        coeff = (int(m.group(1)) if m.group(1) else 1) * sign
        v = m.group(2)
        pairs[v] = pairs.get(v, 0) + coeff
    if any(n < 0 for n in pairs.values()):
        raise ValueError("monoid elements need nonnegative coefficients")
    return MonoidElement.of(pairs)


def _check_vertices(g: Graph, vertices):
    for v in vertices:
        g.index(v)


# ---------------------------------------------------------------------------
# ungraded rewriting
# ---------------------------------------------------------------------------


def successors_one_step(g: Graph, elem: MonoidElement) -> tuple[MonoidElement, ...]:
    """All elements reachable by rewriting one copy of one non-sink vertex.

    Ordered by vertex declaration; duplicates are removed keeping the first.
    """
    _check_vertices(g, elem.support())
    out = []
    seen = set()
    for v in sorted(elem.support(), key=g.index):
        if elem.get(v) < 1 or g.is_sink(v):
            continue
        acc = dict(elem.coeffs)
        acc[v] -= 1
        for e in g.out_edges(v):
            acc[e.dst] = acc.get(e.dst, 0) + 1
        succ = MonoidElement.of(acc)
        if succ not in seen:
            seen.add(succ)
            out.append(succ)
    return tuple(out)


@dataclass(frozen=True)
class EqBudget:
    max_states: int = 100_000
    max_mass: int = 64


@dataclass(frozen=True)
class EqVerdict:
    """Outcome of an equality test, with evidence.

    For "equal", trace_a and trace_b are rewrite paths from each input to a
    common element.  For "not-equal" and "unknown", reason says why.
    """

    kind: str
    reason: str = ""
    trace_a: tuple = ()
    trace_b: tuple = ()

    @property
    def is_equal(self):
        return self.kind == "equal"

    @property
    def is_not_equal(self):
        return self.kind == "not-equal"

    @property
    def is_unknown(self):
        return self.kind == "unknown"


def _k0_matrix(g: Graph):
    # lazy import: ktheory depends on this module for the graded machinery
    from .ktheory import k_matrix

    return k_matrix(g)


def _trace_from(parents, end):
    path = [end]
    while parents[path[-1]] is not None:
        path.append(parents[path[-1]])
    path.reverse()
    return tuple(path)


def ungraded_equal(g: Graph, a: MonoidElement, b: MonoidElement, budget: EqBudget | None = None) -> EqVerdict:
    """Semi-decision of monoid equality under a state and mass budget.

    NotEqual is only ever reported on sound evidence: a vertex-class
    obstruction in the cokernel of the transfer matrix, or two fully
    explored rewrite closures that are disjoint.  Budget exhaustion gives
    Unknown, and growing the budget can only sharpen verdicts, never flip
    them.
    """
    budget = budget or EqBudget()
    _check_vertices(g, a.support())
    _check_vertices(g, b.support())
    if a == b:
        return EqVerdict("equal", trace_a=(a,), trace_b=(b,))
    if a.is_zero() or b.is_zero():
        # rewriting never creates or destroys the zero element
        return EqVerdict("not-equal", reason="only the zero element equals zero")

    km = _k0_matrix(g)
    group = cokernel(km)
    diff = tuple(a.get(v) - b.get(v) for v in g.vertices)
    if not group.is_zero_class(diff):
        return EqVerdict("not-equal", reason="vertex classes differ in the transfer cokernel")

    seen_a = {a: None}
    seen_b = {b: None}
    frontier_a = [a]
    frontier_b = [b]
    complete_a = True
    complete_b = True
    states = 2
    hit_mass = False
    hit_states = False

    def expand(frontier, seen, complete_flag):
        nonlocal states, hit_mass, hit_states
        nxt = []
        complete = complete_flag
        for elem in frontier:
            for succ in successors_one_step(g, elem):
                if succ in seen:
                    continue
                if succ.mass() > budget.max_mass:
                    complete = False
                    hit_mass = True
                    continue
                if states >= budget.max_states:
                    complete = False
                    hit_states = True
                    continue
                seen[succ] = elem
                states += 1
                nxt.append(succ)
        return nxt, complete

    while frontier_a or frontier_b:
        # grow the smaller side first; ties favor a
        if frontier_a and (not frontier_b or len(seen_a) <= len(seen_b)):
            frontier_a, complete_a = expand(frontier_a, seen_a, complete_a)
        elif frontier_b:
            frontier_b, complete_b = expand(frontier_b, seen_b, complete_b)
        common = seen_a.keys() & seen_b.keys()
        if common:
            witness = min(common, key=lambda e: e.coeffs)
            return EqVerdict(
                "equal",
                trace_a=_trace_from(seen_a, witness),
                trace_b=_trace_from(seen_b, witness),
            )
    if complete_a and complete_b:
        return EqVerdict("not-equal", reason="disjoint finite rewrite closures")
    caps = []
    if hit_states:
        caps.append(f"states cap {budget.max_states}")
    if hit_mass:
        caps.append(f"mass cap {budget.max_mass}")
    return EqVerdict("unknown", reason="budget exhausted: " + ", ".join(caps))


# ---------------------------------------------------------------------------
# graded rewriting
# ---------------------------------------------------------------------------


class _LevelForm:
    """A graded element rewritten down to one level: the colimit engine.

    ``regular`` maps regular vertices to their coefficients at ``level``;
    ``ledger`` maps (sink, level) to a sink coefficient.  Sinks never move,
    so :meth:`step` pushes only the regular part, one level down along the
    out-edges, and adds what lands on a sink to the ledger.  Cancelled
    entries stay as zeros; :meth:`terms` skips them.
    """

    __slots__ = ("graph", "level", "regular", "ledger")

    def __init__(self, g: Graph, terms, level: int):
        """Sum n*v(l) over the (v, l, n) ``terms``, rewritten to ``level``.

        Requires level <= every l.
        """
        self.graph = g
        self.regular = {}
        self.ledger = {}
        pending = []
        for v, l, n in terms:
            if g.is_sink(v):
                self.ledger[(v, l)] = self.ledger.get((v, l), 0) + n
            else:
                pending.append((l, v, n))
        pending.sort(reverse=True)
        self.level = pending[0][0] if pending else level
        for l, v, n in pending:
            while self.level > l:
                self.step()
            self.regular[v] = self.regular.get(v, 0) + n
        while self.level > level:
            self.step()

    def step(self):
        """Rewrite every regular generator one level down."""
        g, ledger = self.graph, self.ledger
        self.level -= 1
        moved = {}
        for v, n in self.regular.items():
            if not n:
                continue
            for e in g.out_edges(v):
                if g.is_sink(e.dst):
                    key = (e.dst, self.level)
                    ledger[key] = ledger.get(key, 0) + n
                else:
                    moved[e.dst] = moved.get(e.dst, 0) + n
        self.regular = moved

    def terms(self):
        """The nonzero (vertex, level, coefficient) triples."""
        for v, n in self.regular.items():
            if n:
                yield v, self.level, n
        for (v, l), n in self.ledger.items():
            if n:
                yield v, l, n


def graded_expand_to_level(g: Graph, a: GradedElement, level: int) -> GradedElement:
    """Rewrite every regular generator above ``level`` down to it.

    Expansion is linear, so whole coefficients move at once.  After this,
    regular vertices appear only at exactly ``level``; sink generators stay
    where they were created.  Requires level <= every support level.
    """
    _check_vertices(g, a.support_vertices())
    if a.is_zero():
        return a
    if level > a.min_level():
        raise ValueError(f"target level {level} above minimal support level {a.min_level()}")
    return GradedElement.of(_LevelForm(g, a.coeffs, level).terms())


def graded_equal(g: Graph, a: GradedElement, b: GradedElement) -> EqVerdict:
    """Exact decision of graded monoid (and graded group) equality.

    The difference is rewritten to the common minimal level.  Sink
    coefficients persist under expansion, so any sink mismatch decides
    NotEqual; the remaining difference is supported on regular vertices and
    dies under further expansion iff it dies within as many steps as there
    are regular vertices.
    """
    if a.is_zero() and b.is_zero():
        return EqVerdict("equal", reason="both zero")
    level = min(x.min_level() for x in (a, b) if not x.is_zero())
    diff = _LevelForm(g, a.coeffs + _negated(b), level)
    for step in range(len(g.regulars) + 1):
        if step:
            diff.step()
        bad = min((key for key, n in diff.ledger.items() if n), default=None)
        if bad is not None:
            return EqVerdict(
                "not-equal",
                reason=f"sink coefficient differs at {bad[0]}({bad[1]})",
            )
        live = [v for v, n in diff.regular.items() if n]
        if not live:
            return EqVerdict("equal", reason=f"expansions agree at level {diff.level}")
    return EqVerdict(
        "not-equal",
        reason=f"regular difference persists, e.g. {min(live)}({diff.level})",
    )


def order_ideal_membership(g: Graph, a: GradedElement, members) -> bool:
    """Is the class of a nonnegative graded element inside the ideal of H?

    H must be hereditary and saturated; then membership is visible already
    at the minimal support level: expand there and look at the support.
    """
    members = frozenset(members)
    _check_vertices(g, members)
    if not (is_hereditary(g, members) and is_saturated(g, members)):
        raise ValueError("ideal test needs a hereditary saturated set")
    if not a.is_nonnegative():
        raise ValueError("ideal membership is a monoid notion; element must be nonnegative")
    if a.is_zero():
        return True
    return all(v in members for v, _, _ in _LevelForm(g, a.coeffs, a.min_level()).terms())


# ---------------------------------------------------------------------------
# sampling and the quotient round trip
# ---------------------------------------------------------------------------


def random_graded_element(g: Graph, rng, max_terms=3, levels=(-2, 2), max_coeff=3, signed=False) -> GradedElement:
    if not g.vertices:
        return GradedElement.zero()
    triples = []
    for _ in range(rng.randint(1, max_terms)):
        v = rng.choice(g.vertices)
        lvl = rng.randint(levels[0], levels[1])
        n = rng.randint(1, max_coeff)
        if signed and rng.random() < 0.5:
            n = -n
        triples.append((v, lvl, n))
    return GradedElement.of(triples)


def apply_random_expansions(g: Graph, a: GradedElement, steps: int, rng) -> GradedElement:
    """Rewrite random single copies of regular generators, keeping the class."""
    acc = {(v, l): n for v, l, n in a.coeffs}
    for _ in range(steps):
        # sorted, as in the element's own order, so a seeded rng picks alike
        candidates = sorted(
            key for key, n in acc.items() if n > 0 and not g.is_sink(key[0])
        )
        if not candidates:
            break
        v, l = rng.choice(candidates)
        acc[(v, l)] -= 1
        for e in g.out_edges(v):
            acc[(e.dst, l - 1)] = acc.get((e.dst, l - 1), 0) + 1
    return GradedElement.of((v, l, n) for (v, l), n in acc.items())


@dataclass(frozen=True)
class RoundtripReport:
    samples: int
    failures: tuple
    inner_graph: Graph

    @property
    def passed(self):
        return not self.failures


def quotient_roundtrip(g: Graph, members, samples: int = 100, rng=None, rewrite_steps: int = 4) -> RoundtripReport:
    """Check both composites of the quotient-monoid isomorphism on samples.

    Down-then-up: a graded element of the quotient graph is lifted to the
    ambient graph, rewritten randomly there, projected back by dropping the
    removed vertices, and must stay graded-equal to the original.
    Up-then-down: an ambient element is rewritten randomly in the ambient
    graph, and the projections of the element and of its rewrite must be
    graded-equal in the quotient, so projection is well defined on classes.
    """
    rng = rng or _random.Random(0)
    members = frozenset(members)
    if not (is_hereditary(g, members) and is_saturated(g, members)):
        raise ValueError("quotient needs a hereditary saturated set")
    q = quotient(g, members)
    failures = []
    for i in range(samples):
        # down-then-up on the quotient side
        a = random_graded_element(q, rng)
        # a is read in g as it stands: the quotient keeps g's vertex ids
        rewritten = apply_random_expansions(g, a, rng.randint(0, rewrite_steps), rng)
        projected = rewritten.restrict_to(q.vertices)
        verdict = graded_equal(q, projected, a)
        if not verdict.is_equal:
            failures.append(("down-up", a, rewritten, verdict.reason))
            continue
        # up-then-down on the ambient side
        c = random_graded_element(g, rng)
        rewritten = apply_random_expansions(g, c, rng.randint(0, rewrite_steps), rng)
        verdict = graded_equal(q, c.restrict_to(q.vertices), rewritten.restrict_to(q.vertices))
        if not verdict.is_equal:
            failures.append(("up-down", c, rewritten, verdict.reason))
    return RoundtripReport(samples=samples, failures=tuple(failures), inner_graph=q)

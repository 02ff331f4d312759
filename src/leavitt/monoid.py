"""Graph monoids: vertex rewriting, exact equality, and the graded refinement.

A monoid element is a nonnegative integer combination of vertices, rewritten
by replacing one copy of a non-sink vertex with the multiset of its edge
targets.  The graded variant tags generators with an integer level; the
rewrite then moves one level down.  Both equalities are decided exactly:
graded equality by expanding to a common level, ungraded equality from
separativity, by order ideals and K0 of a restriction, a block of the
graph's transfer matrix.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .graphs import Graph
from .intlinalg import solve_lattice
from .lattice import hsat_closure

__all__ = [
    "MonoidElement",
    "GradedElement",
    "EqVerdict",
    "parse_monoid_element",
    "parse_graded_element",
    "successors_one_step",
    "ungraded_equal",
    "graded_expand_to_level",
    "graded_equal",
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

    def get(self, v):
        for w, n in self.coeffs:
            if w == v:
                return n
        return 0

    def support(self):
        return tuple(v for v, _ in self.coeffs)


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

    def is_zero(self):
        return not self.coeffs

    def support_vertices(self):
        return tuple(dict.fromkeys(v for v, _, _ in self.coeffs))

    def min_level(self):
        if not self.coeffs:
            raise ValueError("zero element has no support level")
        return min(l for _, l, _ in self.coeffs)

    def sub(self, other):
        return GradedElement.of(self.coeffs + _negated(other))

    def shift(self, k):
        """The Z-action: move every generator k levels up."""
        return GradedElement.of([(v, l + int(k), n) for v, l, n in self.coeffs])

    def forget_levels(self) -> dict:
        acc = {}
        for v, _, n in self.coeffs:
            acc[v] = acc.get(v, 0) + n
        return acc


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
    pairs = []
    for sign, term in _split_terms(text):
        m = _TERM_RE.match(term)
        if not m or m.group(3) is not None:
            raise ValueError(f"bad ungraded term {term!r}")
        if sign < 0:
            # a monoid has no subtraction, so 'v - v' is not 0
            raise ValueError(f"monoid elements need nonnegative terms, not -{term}")
        pairs.append((m.group(2), int(m.group(1)) if m.group(1) else 1))
    return MonoidElement.of(pairs)


def _check_vertices(g: Graph, vertices):
    for v in vertices:
        g.index(v)


# ---------------------------------------------------------------------------
# ungraded rewriting and equality
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
class EqVerdict:
    """Outcome of an equality test, with evidence.

    An ungraded "equal" carries its certificate: ``ideal``, the vertices of
    the hereditary saturated set H both supports generate, and ``witness``,
    (regular vertex of H, x_w) pairs with K_H x = a - b on H.  ``reason``
    says why the verdict holds.
    """

    kind: str
    reason: str
    ideal: tuple = ()
    witness: tuple = ()

    @property
    def is_equal(self):
        return self.kind == "equal"


def ungraded_equal(g: Graph, a: MonoidElement, b: MonoidElement) -> EqVerdict:
    """Exact decision of monoid equality.

    The order ideal a generates is the monoid of the restriction to H(a),
    the hereditary saturated closure of its support (Ara-Moreno-Pardo
    2007), and M_E is separative, so a = b iff H(a) = H(b) = H and a - b is
    0 in K0 of the restriction, coker K_H (Ara-Goodearl-O'Meara-Pardo
    1998).  The integer solution x of K_H x = a - b is re-multiplied before
    "equal" is returned.
    """
    # lazy import: ktheory depends on this module for the graded machinery
    from .ktheory import k_matrix

    _check_vertices(g, a.support())
    _check_vertices(g, b.support())
    ideal = hsat_closure(g, a.support())
    other = hsat_closure(g, b.support())
    if ideal != other:
        reason = f"order ideals differ: H(a) = {{{','.join(ideal)}}}, H(b) = {{{','.join(other)}}}"
        return EqVerdict("not-equal", reason=reason)
    # H is hereditary, so K_H is the block of the graph's transfer matrix
    # at the vertices of H and its regular vertices, in declaration order
    members = set(ideal)
    cols = [j for j, v in enumerate(g.regulars) if v in members]
    km = k_matrix(g).take_rows(map(g.index, ideal)).take_columns(cols)
    diff = tuple(a.get(v) - b.get(v) for v in ideal)
    x = solve_lattice(km, diff)
    if x is None:
        return EqVerdict(
            "not-equal", reason="a - b is not 0 in K0 of the restriction to H(a) = H(b)"
        )
    if km @ x != diff:
        raise AssertionError("monoid certificate does not re-multiply to a - b")
    return EqVerdict(
        "equal",
        reason="a - b is zero in K0 of the restriction to H(a) = H(b)",
        ideal=ideal,
        witness=tuple(zip((g.regulars[j] for j in cols), x)),
    )


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

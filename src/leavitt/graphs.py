"""Finite directed graphs with parallel edges, and the quotient calculus.

Vertex and edge identifiers are opaque whitespace-free strings.  Declaration
order is canonical everywhere: adjacency rows, group generators and JSON
reports all follow the order in which vertices were declared.
"""

from __future__ import annotations

from typing import NamedTuple

from .intlinalg import IntMatrix

__all__ = [
    "Edge",
    "Graph",
    "GraphFormatError",
    "parse_graph",
    "graph_to_text",
    "parse_matrix",
    "matrix_to_text",
    "covering_window",
    "restriction",
    "quotient",
    "subquotient",
    "relabel",
    "graph_from_matrix",
    "is_downward_directed",
    "is_irreducible",
]


class Edge(NamedTuple):
    name: str
    src: str
    dst: str


class GraphFormatError(ValueError):
    """Raised on malformed graph or matrix text, with a line number."""


def _check_identifier(kind, ident):
    if not ident or any(ch.isspace() for ch in ident):
        raise ValueError(f"bad {kind} identifier {ident!r}")


class Graph:
    """A finite directed graph; vertices and edges keep declaration order.

    Parallel edges and loops are allowed.  Instances are immutable and
    hashable; all derived data (adjacency, sinks, reachability) is computed
    once at construction.
    """

    __slots__ = (
        "vertices",
        "edges",
        "_index",
        "_out",
        "sinks",
        "regulars",
        "_adjacency",
        "_reach",
    )

    def __init__(self, vertices, edges):
        vertices = tuple(str(v) for v in vertices)
        edges = tuple(Edge(str(e[0]), str(e[1]), str(e[2])) for e in edges)
        seen = set()
        for v in vertices:
            _check_identifier("vertex", v)
            if v in seen:
                raise ValueError(f"duplicate vertex {v!r}")
            seen.add(v)
        index = {v: i for i, v in enumerate(vertices)}
        enames = set()
        out = {v: [] for v in vertices}
        for e in edges:
            _check_identifier("edge", e.name)
            if e.name in enames:
                raise ValueError(f"duplicate edge {e.name!r}")
            enames.add(e.name)
            if e.src not in index:
                raise ValueError(f"edge {e.name!r} has unknown source {e.src!r}")
            if e.dst not in index:
                raise ValueError(f"edge {e.name!r} has unknown target {e.dst!r}")
            out[e.src].append(e)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_out", {v: tuple(es) for v, es in out.items()})
        object.__setattr__(self, "sinks", tuple(v for v in vertices if not out[v]))
        object.__setattr__(self, "regulars", tuple(v for v in vertices if out[v]))
        object.__setattr__(self, "_adjacency", None)
        object.__setattr__(self, "_reach", None)

    def __setattr__(self, *_):
        raise AttributeError("Graph is immutable")

    # -- basic queries ---------------------------------------------------

    @property
    def num_vertices(self):
        return len(self.vertices)

    def index(self, v):
        try:
            return self._index[v]
        except KeyError:
            raise KeyError(f"unknown vertex {v!r}") from None

    def has_vertex(self, v):
        return v in self._index

    def out_edges(self, v):
        return self._out[self.vertices[self.index(v)]]

    def is_sink(self, v):
        return not self.out_edges(v)

    def adjacency(self) -> IntMatrix:
        """Vertex-by-vertex edge count matrix, declaration order on both axes."""
        if self._adjacency is None:
            n = len(self.vertices)
            counts = [[0] * n for _ in range(n)]
            for e in self.edges:
                counts[self._index[e.src]][self._index[e.dst]] += 1
            object.__setattr__(self, "_adjacency", IntMatrix(counts, cols=n))
        return self._adjacency

    def reachable_from(self, v):
        """Set of vertices reachable from v by a path of length >= 0."""
        if self._reach is None:
            reach = {}
            for start in self.vertices:
                seen = {start}
                stack = [start]
                while stack:
                    cur = stack.pop()
                    for e in self._out[cur]:
                        if e.dst not in seen:
                            seen.add(e.dst)
                            stack.append(e.dst)
                reach[start] = frozenset(seen)
            object.__setattr__(self, "_reach", reach)
        return self._reach[self.vertices[self.index(v)]]

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return f"Graph(vertices={self.vertices!r}, edges={len(self.edges)})"


# ---------------------------------------------------------------------------
# text formats
# ---------------------------------------------------------------------------


def parse_graph(text: str) -> Graph:
    """Parse the line-based graph format.

    One ``vertices: id id ...`` line (possibly empty) followed by zero or
    more ``edge <name> <src> <dst>`` lines.  ``#`` starts a comment; blank
    lines are ignored.  Errors carry 1-based line numbers.
    """
    vertices = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vertices:"):
            if vertices is not None:
                raise GraphFormatError(f"line {lineno}: repeated vertices line")
            vertices = line[len("vertices:"):].split()
            continue
        parts = line.split()
        if parts[0] == "edge":
            if vertices is None:
                raise GraphFormatError(f"line {lineno}: edge before vertices line")
            if len(parts) != 4:
                raise GraphFormatError(
                    f"line {lineno}: expected 'edge <name> <src> <dst>', got {raw.strip()!r}"
                )
            edges.append((parts[1], parts[2], parts[3]))
            continue
        raise GraphFormatError(f"line {lineno}: unrecognized line {raw.strip()!r}")
    if vertices is None:
        raise GraphFormatError("missing vertices line")
    try:
        return Graph(vertices, edges)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc


def graph_to_text(g: Graph) -> str:
    lines = ["vertices: " + " ".join(g.vertices) if g.vertices else "vertices:"]
    lines.extend(f"edge {e.name} {e.src} {e.dst}" for e in g.edges)
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> IntMatrix:
    """Parse a matrix file: one row per line of space-separated integers."""
    rows = []
    width = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            row = [int(tok) for tok in line.split()]
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer entry in {raw.strip()!r}") from None
        if width is not None and len(row) != width:
            raise GraphFormatError(f"line {lineno}: expected {width} entries, got {len(row)}")
        width = len(row)
        rows.append(row)
    if not rows:
        raise GraphFormatError("empty matrix file")
    return IntMatrix(rows)


def matrix_to_text(m: IntMatrix) -> str:
    return "\n".join(" ".join(str(x) for x in row) for row in m.data) + "\n"


# ---------------------------------------------------------------------------
# derived graphs
# ---------------------------------------------------------------------------


def covering_window(g: Graph, lo: int, hi: int) -> Graph:
    """Finite window of the Z-covering.

    Vertex (v,k) exists for lo <= k <= hi; edge (e,k) runs from (s(e),k) to
    (r(e),k-1), so it exists for lo < k <= hi.  The result is acyclic by
    construction since every edge strictly drops the level.
    """
    if lo > hi:
        raise ValueError("empty window")
    vertices = [f"({v},{k})" for k in range(hi, lo - 1, -1) for v in g.vertices]
    edges = [
        (f"({e.name},{k})", f"({e.src},{k})", f"({e.dst},{k - 1})")
        for k in range(hi, lo, -1)
        for e in g.edges
    ]
    return Graph(vertices, edges)


def _require_subset(g, members, what="subset"):
    members = frozenset(members)
    for v in members:
        if not g.has_vertex(v):
            raise ValueError(f"{what} contains unknown vertex {v!r}")
    return members


def is_hereditary(g: Graph, members) -> bool:
    members = _require_subset(g, members)
    return all(e.dst in members for e in g.edges if e.src in members)


def is_saturated(g: Graph, members) -> bool:
    members = _require_subset(g, members)
    for v in g.regulars:
        if v not in members and all(e.dst in members for e in g.out_edges(v)):
            return False
    return True


def _require_hsat(g, members, name):
    members = _require_subset(g, members, name)
    if not is_hereditary(g, members):
        raise ValueError(f"{name} is not hereditary")
    if not is_saturated(g, members):
        raise ValueError(f"{name} is not saturated")
    return members


def restriction(g: Graph, members) -> Graph:
    """Subgraph on a hereditary set: its vertices and the edges leaving them."""
    members = _require_subset(g, members, "restriction set")
    if not is_hereditary(g, members):
        raise ValueError("restriction set is not hereditary")
    vertices = [v for v in g.vertices if v in members]
    edges = [e for e in g.edges if e.src in members]
    return Graph(vertices, edges)


def quotient(g: Graph, members) -> Graph:
    """Quotient by a hereditary saturated set: drop it and all edges into it.

    Saturation guarantees no new sinks appear, so the regular and sink sets
    of the quotient are the originals minus the removed vertices.
    """
    members = _require_hsat(g, members, "quotient set")
    vertices = [v for v in g.vertices if v not in members]
    edges = [e for e in g.edges if e.dst not in members]
    return Graph(vertices, edges)


def subquotient(g: Graph, inner, outer) -> Graph:
    """Graph of the pair inner <= outer of hereditary saturated sets.

    Vertices are outer minus inner; edges are those with source in outer and
    target outside inner.  Equals quotient(restriction(g, outer), inner)
    vertex for vertex and edge for edge.
    """
    inner = _require_hsat(g, inner, "inner set")
    outer = _require_hsat(g, outer, "outer set")
    if not inner <= outer:
        raise ValueError("inner set must be contained in the outer set")
    vertices = [v for v in g.vertices if v in outer and v not in inner]
    edges = [e for e in g.edges if e.src in outer and e.dst not in inner]
    return Graph(vertices, edges)


def relabel(g: Graph, vertex_map, edge_map=None) -> Graph:
    """Rename vertices (and optionally edges) through a bijection."""
    if set(vertex_map) != set(g.vertices):
        raise ValueError("vertex map must cover exactly the vertices")
    if len(set(vertex_map.values())) != len(vertex_map):
        raise ValueError("vertex map is not injective")
    edge_map = edge_map or {}
    return Graph(
        [vertex_map[v] for v in g.vertices],
        [
            (edge_map.get(e.name, e.name), vertex_map[e.src], vertex_map[e.dst])
            for e in g.edges
        ],
    )


def graph_from_matrix(m: IntMatrix, prefix="v") -> Graph:
    """Graph with m[i][j] parallel edges from vertex i to vertex j."""
    if m.rows != m.cols:
        raise ValueError("adjacency matrix must be square")
    if not m.is_nonnegative():
        raise ValueError("adjacency entries must be nonnegative")
    vertices = [f"{prefix}{i}" for i in range(m.rows)]
    edges = []
    for i in range(m.rows):
        for j in range(m.cols):
            for k in range(m[i, j]):
                edges.append((f"e{i}_{j}_{k}", vertices[i], vertices[j]))
    return Graph(vertices, edges)


# ---------------------------------------------------------------------------
# connectivity predicates
# ---------------------------------------------------------------------------


def is_downward_directed(g: Graph, subset=None) -> bool:
    """Can every two vertices of the subset reach a common vertex in it?

    Defaults to the full vertex set.  Paths may have length zero; for the
    complement of a hereditary set, paths between members automatically stay
    inside the subset.
    """
    members = tuple(g.vertices) if subset is None else tuple(
        v for v in g.vertices if v in frozenset(subset)
    )
    if subset is not None:
        _require_subset(g, subset)
    if len(members) <= 1:
        return True
    member_set = frozenset(members)
    for i, u in enumerate(members):
        ru = g.reachable_from(u) & member_set
        for v in members[i + 1:]:
            if not (ru & g.reachable_from(v)):
                return False
    return True


def is_irreducible(g: Graph) -> bool:
    """Does every vertex reach every vertex by a path of length >= 1?"""
    if not g.vertices:
        return False
    for v in g.vertices:
        # length >= 1: start from out-neighbors, not from v itself
        seen = set()
        stack = [e.dst for e in g.out_edges(v)]
        seen.update(stack)
        while stack:
            cur = stack.pop()
            for e in g.out_edges(cur):
                if e.dst not in seen:
                    seen.add(e.dst)
                    stack.append(e.dst)
        if len(seen) != len(g.vertices):
            return False
    return True

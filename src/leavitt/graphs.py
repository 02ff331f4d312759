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
    "restriction",
    "quotient",
    "subquotient",
    "relabel",
    "graph_from_matrix",
]


class Edge(NamedTuple):
    name: str
    src: str
    dst: str


class GraphFormatError(ValueError):
    """Raised on malformed graph or matrix text, with a line number."""


def _check_identifier(kind, ident):
    # str.split() cuts at exactly the characters str.isspace() accepts, so an
    # identifier is good when it is one nonempty whitespace-free piece
    if ident.split() != [ident]:
        raise ValueError(f"bad {kind} identifier {ident!r}")


# ---------------------------------------------------------------------------
# colour refinement
# ---------------------------------------------------------------------------


def _refine(colours, *relations) -> list[int]:
    """Stable colours of nodes 0, 1, ... by colour refinement (1-dimensional
    Weisfeiler-Leman).

    ``colours`` gives each node a start colour, values that sort together;
    each of ``relations`` lists per node its (neighbour, multiplicity)
    pairs.  A round recolours a node by its colour and, per relation, the
    sorted multiset of its neighbours' colours with their multiplicities,
    and numbers the new colours in sorted order.  So the colours depend on
    no node's index: a bijection that preserves the start colours and every
    relation preserves them.  Rounds end when no class splits, after at
    most as many rounds as nodes.
    """
    colours = list(colours)
    count = len(set(colours))
    while True:
        keys = [
            (c, *(tuple(sorted((colours[u], m) for u, m in rel[v])) for rel in relations))
            for v, c in enumerate(colours)
        ]
        rank = {key: k for k, key in enumerate(sorted(set(keys)))}
        colours = [rank[key] for key in keys]
        if len(rank) == count:
            return colours
        count = len(rank)


class Graph:
    """A finite directed graph; vertices and edges keep declaration order.

    Parallel edges and loops are allowed.  Instances are immutable and
    hashable.  Out-edges, sinks and regular vertices are computed at
    construction; the adjacency matrix when first asked for.
    """

    __slots__ = (
        "vertices",
        "edges",
        "_index",
        "_out",
        "sinks",
        "regulars",
        "_adjacency",
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
            object.__setattr__(self, "_adjacency", IntMatrix._trusted(tuple(map(tuple, counts)), n))
        return self._adjacency

    # -- isomorphism -------------------------------------------------------

    def _alignment(self, other: Graph) -> tuple[int, ...] | None:
        """A vertex bijection from this graph onto ``other`` that carries
        one adjacency matrix onto the other, or None when this cheap match
        finds none: at position k, the index of the vertex matched with the
        k-th vertex of ``other``.

        A vertex starts with the colour (loops, out-degree, in-degree);
        graphs whose sorted start colours differ have no such bijection.
        Otherwise the two graphs are refined as one disjoint union
        (:func:`_refine` on out- and in-edges), so that their colours are
        numbered alike, and the vertices of each colour are matched in
        declaration order.  The match is kept only if every entry of the
        adjacency matrices agrees under it.  So a returned bijection is a
        graph isomorphism, and None says nothing: colour ties that
        declaration order breaks the wrong way miss an isomorphism that
        exists.
        """
        a, b = self.adjacency().data, other.adjacency().data
        n = len(a)
        first, second = (
            [(m[i][i], sum(m[i]), sum(c)) for i, c in enumerate(zip(*m))] for m in (a, b)
        )
        if sorted(first) != sorted(second):
            return None
        halves = ((a, 0), (b, n))
        out = [[(k + j, x) for j, x in enumerate(r) if x] for m, k in halves for r in m]
        into = [[(k + i, x) for i, x in enumerate(c) if x] for m, k in halves for c in zip(*m)]
        colours = _refine(first + second, out, into)
        # sorting is stable, so each colour class keeps declaration order
        mine = sorted(range(n), key=colours.__getitem__)
        theirs = sorted(range(n), key=lambda j: colours[n + j])
        if any(colours[i] != colours[n + j] for i, j in zip(mine, theirs)):
            return None
        order = [i for _, i in sorted(zip(theirs, mine))]
        if any(b[j][k] != a[order[j]][order[k]] for j in range(n) for k in range(n)):
            return None
        return tuple(order)

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
            row = tuple(map(int, line.split()))
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer entry in {raw.strip()!r}") from None
        if width is not None and len(row) != width:
            raise GraphFormatError(f"line {lineno}: expected {width} entries, got {len(row)}")
        width = len(row)
        rows.append(row)
    if not rows:
        raise GraphFormatError("empty matrix file")
    return IntMatrix._trusted(tuple(rows), width)


def matrix_to_text(m: IntMatrix) -> str:
    return "\n".join(" ".join(str(x) for x in row) for row in m.data) + "\n"


# ---------------------------------------------------------------------------
# derived graphs
# ---------------------------------------------------------------------------


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

"""Graph model, text formats, derived graphs, connectivity predicates."""

import random

import pytest

import helpers as H
from helpers import covering_window, is_irreducible
from leavitt.graphs import (
    Graph,
    GraphFormatError,
    graph_from_matrix,
    graph_to_text,
    is_hereditary,
    is_saturated,
    matrix_to_text,
    parse_graph,
    parse_matrix,
    quotient,
    relabel,
    restriction,
    subquotient,
)
from leavitt.intlinalg import IntMatrix


class TestGraphBasics:
    def test_construction_and_queries(self):
        g = H.fan_graph()
        assert g.num_vertices == 3
        assert g.vertices == ("v", "w1", "w2")
        assert g.sinks == ("w1", "w2")
        assert g.regulars == ("v",)
        assert g.is_sink("w1") and not g.is_sink("v")
        assert [e.name for e in g.out_edges("v")] == ["a", "b"]
        assert g.index("w2") == 2
        assert g.has_vertex("v") and not g.has_vertex("x")
        assert repr(g) == "Graph(vertices=('v', 'w1', 'w2'), edges=2)"

    @pytest.mark.parametrize("ident", ["", "a b", "a\u2003b", "\u00a0", "a\tb", "a\n"])
    def test_blank_or_spaced_identifiers_rejected(self, ident):
        with pytest.raises(ValueError, match="identifier"):
            Graph([ident], [])
        with pytest.raises(ValueError, match="identifier"):
            Graph(["v"], [(ident, "v", "v")])

    def test_every_isspace_character_rejected(self):
        # the check splits with str.split(), which cuts at exactly the
        # characters str.isspace() accepts; each of them is refused inside a
        # name, and characters outside that set are kept
        spaces = [chr(code) for code in range(0x110000) if chr(code).isspace()]
        assert "\u3000" in spaces and "\x1f" in spaces
        for c in spaces:
            with pytest.raises(ValueError, match="identifier"):
                Graph([f"a{c}b"], [])
        for c in ("\u200b", "\u180e", "\ufeff", "_", "-"):
            assert Graph([f"a{c}b"], []).vertices == (f"a{c}b",)

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(ValueError):
            Graph(["v", "v"], [])

    def test_duplicate_edge_name_rejected(self):
        with pytest.raises(ValueError):
            Graph(["v"], [("e", "v", "v"), ("e", "v", "v")])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ValueError):
            Graph(["v"], [("e", "v", "w")])

    def test_immutable(self):
        g = H.rose(2)
        with pytest.raises(AttributeError):
            g.vertices = ()

    def test_adjacency_counts_parallel_edges(self):
        g = H.rose(3)
        assert g.adjacency().to_lists() == [[3]]
        fan = H.fan_graph()
        assert fan.adjacency().to_lists() == [[0, 1, 1], [0, 0, 0], [0, 0, 0]]

    def test_reachable_from(self):
        g = H.line_graph(3)
        assert H.reachable_from(g, "v0") == {"v0", "v1", "v2"}
        assert H.reachable_from(g, "v2") == {"v2"}


class TestTextFormats:
    def test_graph_roundtrip(self, corpus):
        for g in corpus[:40]:
            assert parse_graph(graph_to_text(g)) == g

    def test_parse_graph_golden(self):
        text = """
        # a small example
        vertices: v w
        edge e v w   # comment after an edge
        """
        g = parse_graph(text)
        assert g.vertices == ("v", "w")
        assert [tuple(e) for e in g.edges] == [("e", "v", "w")]

    def test_parse_graph_errors_carry_line_numbers(self):
        with pytest.raises(GraphFormatError, match="missing vertices"):
            parse_graph("# nothing\n")
        with pytest.raises(GraphFormatError, match="line 2"):
            parse_graph("vertices: v\nbogus line\n")
        with pytest.raises(GraphFormatError, match="line 1"):
            parse_graph("edge e v w\nvertices: v w\n")
        with pytest.raises(GraphFormatError, match="line 2"):
            parse_graph("vertices: v\nvertices: w\n")
        with pytest.raises(GraphFormatError, match="line 2"):
            parse_graph("vertices: v\nedge e v\n")
        with pytest.raises(GraphFormatError):
            parse_graph("vertices: v w\nedge e v x\n")

    def test_matrix_roundtrip(self):
        rng = random.Random(5)
        for _ in range(30):
            nr = rng.randint(1, 4)
            nc = rng.randint(1, 4)
            m = IntMatrix([[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)], cols=nc)
            assert parse_matrix(matrix_to_text(m)) == m

    def test_parse_matrix_equals_checked_construction(self):
        rng = random.Random(7)
        for _ in range(60):
            nr = rng.randint(1, 6)
            nc = rng.randint(1, 6)
            rows = [[rng.randint(-(2**70), 9) for _ in range(nc)] for _ in range(nr)]
            text = "# matrix\n\n" + "\n".join(
                "  ".join(map(str, r)) + (" # row" if k % 2 else "") for k, r in enumerate(rows)
            )
            m = parse_matrix(text)
            checked = IntMatrix(rows)
            assert m == checked and hash(m) == hash(checked)
            assert (m.rows, m.cols, m.data) == (checked.rows, checked.cols, checked.data)
        one = parse_matrix("+3\n")
        assert one == IntMatrix([[3]]) and hash(one) == hash(IntMatrix([[3]]))

    def test_parse_matrix_errors(self):
        with pytest.raises(GraphFormatError, match="empty"):
            parse_matrix("# only a comment\n")
        with pytest.raises(GraphFormatError, match="line 2"):
            parse_matrix("1 2\n3\n")
        with pytest.raises(GraphFormatError, match="line 1"):
            parse_matrix("1 x\n")


class TestCoveringWindow:
    def test_structure(self):
        g = H.rose(2)
        w = covering_window(g, -1, 1)
        # one vertex per level, edges drop exactly one level
        assert w.num_vertices == 3
        assert len(w.edges) == 4  # 2 loops at each of 2 level transitions
        for e in w.edges:
            src_level = int(e.src.rsplit(",", 1)[1].rstrip(")"))
            dst_level = int(e.dst.rsplit(",", 1)[1].rstrip(")"))
            assert dst_level == src_level - 1

    def test_acyclic(self, corpus):
        for g in corpus[:20]:
            w = covering_window(g, -2, 2)
            # acyclicity: no vertex reaches itself through an edge
            for v in w.vertices:
                for e in w.out_edges(v):
                    assert v not in H.reachable_from(w, e.dst)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            covering_window(H.rose(1), 1, 0)


class TestDerivedGraphs:
    def test_restriction_requires_hereditary(self, fan):
        with pytest.raises(ValueError):
            restriction(fan, {"v"})
        r = restriction(fan, {"w1"})
        assert r.vertices == ("w1",)
        assert not r.edges

    def test_quotient_requires_hsat(self, fan):
        with pytest.raises(ValueError):
            quotient(fan, {"w1", "w2"})  # not saturated: v's targets all inside
        q = quotient(fan, {"w1"})
        assert q.vertices == ("v", "w2")
        assert [e.name for e in q.edges] == ["b"]

    def test_subquotient_identities(self, corpus):
        from leavitt import enumerate_hsat

        for g in corpus[:40]:
            lat = enumerate_hsat(g)
            bottom = lat.members(0)
            top = lat.members(len(lat) - 1)
            assert subquotient(g, frozenset(), top) == g
            for i in range(len(lat)):
                h = lat.members(i)
                assert subquotient(g, h, h).num_vertices == 0
                # agreement with quotient-of-restriction
                sq = subquotient(g, bottom, h)
                assert sq == restriction(g, h)

    def test_subquotient_equals_quotient_of_restriction(self, corpus):
        from leavitt import enumerate_hsat

        for g in corpus[:40]:
            lat = enumerate_hsat(g)
            n = len(lat.elements)
            for i in range(n):
                for j in range(i, n):
                    if not lat.leq(i, j):
                        continue
                    inner = lat.members(i)
                    outer = lat.members(j)
                    sq = subquotient(g, inner, outer)
                    qr = quotient(restriction(g, outer), inner)
                    assert sq == qr

    def test_subquotient_rejects_non_nested(self, fan):
        with pytest.raises(ValueError):
            subquotient(fan, {"w1"}, {"w2"})

    def test_relabel_bijection_enforced(self, fan):
        with pytest.raises(ValueError):
            relabel(fan, {"v": "a", "w1": "a", "w2": "b"})
        with pytest.raises(ValueError):
            relabel(fan, {"v": "a"})

    def test_relabel_preserves_structure(self, fan):
        g2 = relabel(fan, {"v": "root", "w1": "left", "w2": "right"})
        assert g2.vertices == ("root", "left", "right")
        assert g2.adjacency() == fan.adjacency()

    def test_graph_from_matrix_roundtrip(self):
        rng = random.Random(9)
        for _ in range(25):
            n = rng.randint(1, 4)
            m = IntMatrix([[rng.randint(0, 2) for _ in range(n)] for _ in range(n)])
            assert graph_from_matrix(m).adjacency() == m

    def test_graph_from_matrix_rejects_bad_input(self):
        with pytest.raises(ValueError):
            graph_from_matrix(IntMatrix([[1, 0]], cols=2))
        with pytest.raises(ValueError):
            graph_from_matrix(IntMatrix([[-1]]))


class TestPredicates:
    def test_hereditary_saturated_definitions(self, corpus):
        # cross-check against the spelled-out definitions over all subsets
        from itertools import combinations

        for g in corpus[:30]:
            for r in range(g.num_vertices + 1):
                for combo in combinations(g.vertices, r):
                    s = frozenset(combo)
                    hereditary = all(e.dst in s for e in g.edges if e.src in s)
                    saturated = not any(
                        g.out_edges(v) and v not in s and all(e.dst in s for e in g.out_edges(v))
                        for v in g.vertices
                    )
                    assert is_hereditary(g, s) == hereditary
                    assert is_saturated(g, s) == saturated

    def test_downward_directed(self, fan):
        assert not H.is_downward_directed(fan)  # the two sinks never meet
        assert H.is_downward_directed(H.rose(2))
        assert H.is_downward_directed(H.line_graph(3))
        assert H.is_downward_directed(fan, {"v", "w1"})
        assert not H.is_downward_directed(fan, {"w1", "w2"})

    def test_irreducible(self):
        assert is_irreducible(H.rose(1))
        assert not is_irreducible(H.line_graph(2))
        cycle = Graph(["a", "b"], [("e", "a", "b"), ("f", "b", "a")])
        assert is_irreducible(cycle)

    def test_weakly_connected(self):
        assert H.is_weakly_connected(H.fan_graph())
        two = Graph(["a", "b"], [])
        assert not H.is_weakly_connected(two)
        assert H.is_weakly_connected(Graph([], []))

    def test_corpus_is_weakly_connected(self, corpus):
        assert len(corpus) >= 200
        for g in corpus:
            assert H.is_weakly_connected(g)
            assert 1 <= g.num_vertices <= 4
            a = g.adjacency()
            assert all(
                a[i, j] <= 2 for i in range(g.num_vertices) for j in range(g.num_vertices)
            )
"""Command-line interface: verbs, exit codes, JSON determinism."""

import contextlib
import gc
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import helpers as H
import leavitt
from leavitt import cli, filtered, intlinalg, ktheory, lattice, shifts
from leavitt.cli import main
from leavitt.graphs import Graph, graph_from_matrix, graph_to_text, parse_graph
from leavitt.intlinalg import IntMatrix, SmithData
from walls import poset_loops


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")

    def write(name, text):
        p = d / name
        p.write_text(text, encoding="utf-8")
        return str(p)

    return {
        "rose2": write("rose2.graph", graph_to_text(H.rose(2))),
        "rose3": write("rose3.graph", graph_to_text(H.rose(3))),
        "loop": write("loop.graph", graph_to_text(H.rose(1))),
        "fan": write("fan.graph", graph_to_text(H.fan_graph())),
        "loops5": write(
            "loops5.graph", graph_to_text(graph_from_matrix(IntMatrix.identity(5)))
        ),
        "ones": write(
            "ones.graph", graph_to_text(graph_from_matrix(IntMatrix([[1, 1], [1, 1]])))
        ),
        # a loop at a, and b with one edge to the loop at c
        "split": write("split.graph", "vertices: a b c\nedge x a a\nedge y b c\nedge z c c\n"),
        "two": write("two.mat", "2\n"),
        "three": write("three.mat", "3\n"),
        "ones2": write("ones2.mat", "1 1\n1 1\n"),
        "r": write("r.mat", "1 1\n"),
        "missing": str(d / "does-not-exist.graph"),
    }


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_success_is_zero(self, capsys, files):
        code, out, err = run(capsys, ["k0", files["rose3"]])
        assert (code, err) == (0, "")
        assert out == "K0 = Z/2\n"

    def test_obstruction_is_one(self, capsys, files):
        code, out, _ = run(capsys, ["graded-eq", files["rose2"], "v(0)", "v(-1)"])
        assert code == 1
        assert out.startswith("graded equality: not-equal\n")

    def test_input_error_is_two(self, capsys, files):
        code, out, err = run(capsys, ["k0", files["missing"]])
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    def test_bad_field_is_two(self, capsys, files):
        code, _, err = run(capsys, ["k1bar", files["loop"], "--field", "abc"])
        assert code == 2
        assert "--field" in err

    def test_middle_set_not_hereditary_saturated_is_two(self, capsys, files, monkeypatch):
        # {v0} is not hereditary in the graph of [[1, 1], [1, 1]]; no pair is built
        built = []
        monkeypatch.setattr(ktheory, "SubquotientK", lambda *args: built.append(args))
        code, out, err = run(capsys, ["sixterm", files["ones"], "--middle", "v0", "--field", "7"])
        assert (code, out, built) == (2, "", [])
        assert err == "error: middle set {v0} is not hereditary saturated\n"

    @pytest.mark.parametrize(
        "sets, message",
        [
            (["--inner", "b", "--middle", "a,b,c"], "inner set is not hereditary"),
            (["--inner", "c", "--middle", "a,b,c"], "inner set is not saturated"),
            (["--middle", "a", "--outer", "a,b"], "outer set is not hereditary"),
            (["--middle", "a", "--outer", "a,c"], "outer set is not saturated"),
        ],
    )
    def test_inner_or_outer_set_not_hereditary_saturated_is_two(
        self, capsys, files, monkeypatch, sets, message
    ):
        # the middle set is hereditary saturated; no pair is built
        built = []
        monkeypatch.setattr(ktheory, "SubquotientK", lambda *args: built.append(args))
        code, out, err = run(capsys, ["sixterm", files["split"], *sets, "--field", "7"])
        assert (code, out, built) == (2, "", [])
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "sets, message",
        [
            (["--inner", "z", "--middle", "a"], "inner set contains unknown vertex 'z'"),
            (["--middle", "z"], "middle set contains unknown vertex 'z'"),
            (["--middle", "a", "--outer", "a,z"], "outer set contains unknown vertex 'z'"),
        ],
    )
    def test_unknown_vertex_in_a_set_is_two(self, capsys, files, monkeypatch, sets, message):
        # the names are checked before nesting: each of these triples is
        # also not nested once the unknown vertex counts
        built = []
        monkeypatch.setattr(ktheory, "SubquotientK", lambda *args: built.append(args))
        code, out, err = run(capsys, ["sixterm", files["split"], *sets, "--field", "7"])
        assert (code, out, built) == (2, "", [])
        assert err == f"error: {message}\n"

    def test_lattice_cap_is_three(self, capsys, files):
        code, out, err = run(capsys, ["hsat", files["fan"], "--lattice-cap", "1"])
        assert (code, out) == (3, "")
        assert err.startswith("cap exhausted:")

    def test_row_cap_is_three(self, capsys, files):
        # the fan's 3-element chain has 16 nested triples
        code, out, err = run(capsys, ["fk", files["fan"], "--row-cap", "15"])
        assert (code, out) == (3, "")
        assert err.startswith("cap exhausted:") and "row cap 15" in err
        code, out, err = run(capsys, ["compare", files["fan"], files["fan"], "--row-cap", "15"])
        assert (code, out) == (3, "")
        assert "row cap 15" in err
        code, _, _ = run(capsys, ["fk", files["fan"], "--row-cap", "16"])
        assert code == 0

    def test_candidate_cap_is_three(self, capsys, files, tmp_path, monkeypatch):
        # five loops against five with one doubled: 120 lattice
        # isomorphisms, none matching, past a cap of 100
        rows = IntMatrix.identity(5).to_lists()
        rows[0][0] = 2
        doubled = tmp_path / "doubled.graph"
        doubled.write_text(graph_to_text(graph_from_matrix(IntMatrix(rows))), encoding="utf-8")
        monkeypatch.setattr(leavitt.filtered, "_CANDIDATE_CAP", 100)
        code, out, err = run(capsys, ["compare", files["loops5"], str(doubled)])
        assert (code, out) == (3, "")
        assert err.startswith("cap exhausted:") and "more than 100 lattice isomorphisms" in err

    def test_shifteq_budget_is_three(self, capsys, files):
        code, out, _ = run(
            capsys,
            ["shifteq", files["two"], files["two"], "--max-lag", "1", "--max-entry", "0"],
        )
        assert code == 3
        assert out.startswith("unknown:")

    def test_internal_error_is_four(self, capsys, files, monkeypatch):
        def broken(g, coeff):
            raise AssertionError("kernel basis vector is not in the kernel")

        # the name the CLI resolves when it runs vdb
        monkeypatch.setattr(cli, "vdb_sequence", broken)
        code, out, err = run(capsys, ["vdb", files["loop"]])
        assert (code, out) == (4, "")
        assert err == "internal error: kernel basis vector is not in the kernel\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "read, transform",
        [
            pytest.param("u_inverse", "u", id="u"),
            pytest.param("u_inverse", "u_inverse", id="u_inverse"),
            # the coordinates' later run with inverses must not mend the bumped u
            pytest.param("u", "u", id="u-before-inverses"),
        ],
    )
    def test_corrupted_smith_coordinates_are_four(self, capsys, files, monkeypatch, read, transform):
        # the fan's K0 presentation [-1, 1, 1]^T is reduced to Smith
        # coordinates; one wrong entry in u or in its inverse must not pass
        def bump(m):
            rows = m.to_lists()
            rows[0][0] += 1
            return IntMatrix(rows, cols=m.cols)

        fan_k0 = IntMatrix([[-1], [1], [1]])
        record = SmithData(fan_k0)  # a record of its own, so the cached one stays
        getattr(record, read)  # the run that yields the part bumped below
        setattr(record, transform, bump(getattr(record, transform)))
        snf = ktheory.snf
        monkeypatch.setattr(ktheory, "snf", lambda m: record if m == fan_k0 else snf(m))
        code, out, err = run(capsys, ["fk", files["fan"], "--field", "5"])
        assert (code, out) == (4, "")
        assert err == "internal error: Smith transforms of a K0 presentation do not re-multiply\n"

    def test_monoid_certificate_mismatch_is_four(self, capsys, files, monkeypatch):
        # v = 2v on the 2-petal rose with x = (-1,); a wrong x must not pass
        monkeypatch.setattr(leavitt.monoid, "solve_lattice", lambda m, vec: (5,))
        code, out, err = run(capsys, ["monoid-eq", files["rose2"], "v", "2*v"])
        assert (code, out) == (4, "")
        assert err.startswith("internal error:") and "re-multiply" in err

    @pytest.mark.parametrize("a, b", [("v - v", "0"), ("u", "v"), ("v", "2*v + u")])
    def test_monoid_bad_element_is_two(self, capsys, files, a, b):
        # a negative term, or a vertex the graph lacks, in either argument
        code, out, err = run(capsys, ["monoid-eq", files["rose2"], a, b])
        assert (code, out) == (2, "")
        assert err.startswith("error:")


class TestOpLifetime:
    """What an op builds goes when it returns, by reference counts alone:
    no pair record refers to a skeleton record and no skeleton record to
    another, since the store keeps the row shapes and the element searches,
    so a store's records form no reference cycle that would wait for the
    cyclic collector."""

    KINDS = (
        ktheory.SubquotientK,
        ktheory.SubquotientStore,
        ktheory._Skeleton,
        filtered.FilteredKTable,
        filtered.TableEntry,
    )

    def alive(self):
        return sum(isinstance(o, self.KINDS) for o in gc.get_objects())

    @staticmethod
    def smith_records():
        return sum(type(o) is SmithData for o in gc.get_objects())

    def test_nothing_of_an_fk_or_a_compare_outlives_it(self, files, tmp_path, capsys):
        poset, shuffled = tmp_path / "poset.graph", tmp_path / "shuffled.graph"
        poset.write_text(poset_loops(6, 0.3, 1), encoding="utf-8")
        shuffled.write_text(poset_loops(6, 0.3, 1, order_seed=5), encoding="utf-8")
        unaligned = [tmp_path / f"{name}.graph" for name in ("first", "second")]
        pair = H.unaligned_pair(*(parse_graph(p.read_text()) for p in (poset, shuffled)))
        for path, g in zip(unaligned, pair):
            path.write_text(graph_to_text(g), encoding="utf-8")
        ops = [
            ["fk", files["loops5"]],
            ["fk", str(poset)],
            ["compare", files["loops5"], files["loops5"]],
            ["compare", str(poset), str(shuffled)],
            ["compare", *map(str, unaligned)],
        ]
        gc.collect()
        gc.disable()
        try:
            before = self.alive()
            for argv in ops:
                code, out, _ = run(capsys, ["--json", *argv])
                assert code == 0 and out, argv
                assert self.alive() == before, argv
        finally:
            gc.enable()

    def test_no_smith_record_outlives_an_op(self, files, capsys, monkeypatch):
        # every verb that eliminates a matrix, and every exit code: the op
        # scope empties the Smith cache whatever way the op ends, and the
        # one-graph caches hold no more than their bound
        smith = intlinalg._smith

        def bumped(m, u, v, inverses=False):
            out = smith(m, u, v, inverses)
            if out[4]:
                out[4][0][0] += 1  # one wrong entry in u^-1
            return out

        ops = [
            (0, ["fk", files["loops5"]]),
            (0, ["compare", files["loops5"], files["loops5"]]),
            (0, ["bf", files["ones2"]]),
            (0, ["k0", files["rose3"]]),
            (0, ["shifteq", files["two"], files["ones2"]]),
            (0, ["monoid-eq", files["rose2"], "v", "2*v"]),
            (0, ["vdb", files["fan"], "--field", "5"]),
            (1, ["compare", files["rose2"], files["rose3"]]),
            (2, ["monoid-eq", files["rose2"], "v", "2*v + u"]),
            (3, ["fk", files["loops5"], "--row-cap", "1"]),
            (4, ["fk", files["fan"], "--field", "5"]),
        ]
        gc.collect()
        with intlinalg.op_scope():  # leaves no record of earlier tests behind
            pass
        gc.disable()
        try:
            before = self.alive(), self.smith_records()
            for code, argv in ops:
                with monkeypatch.context() as patch:
                    if code == 4:  # the re-multiplication guard of the Smith coordinates
                        patch.setattr(intlinalg, "_smith", bumped)
                    assert run(capsys, ["--json", *argv])[0] == code, argv
                assert (self.alive(), self.smith_records()) == before, argv
                assert intlinalg.snf.cache_info().currsize == 0, argv
                assert ktheory.k_matrix.cache_info().currsize <= 1, argv
                assert lattice._mask_closure.cache_info().currsize <= 1, argv
                assert shifts._identity_minus.cache_info().currsize <= 2, argv
        finally:
            gc.enable()


class TestStreamedReports:
    """``fk`` writes its rows while it encodes them, each joined from the
    text of its skeleton record and of its lattice elements, after every row is built
    and checked."""

    def test_fk_on_six_loops_stays_small(self, tmp_path):
        path = tmp_path / "loops6.graph"
        path.write_text(graph_to_text(graph_from_matrix(IntMatrix.identity(6))), encoding="utf-8")
        out = io.StringIO()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(out):
                code = main(["--json", "fk", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the 4,096 rows and their 8.6 MB of text, the text included
        assert code == 0 and len(json.loads(out.getvalue())["rows"]) == 4096
        assert peak <= 14 * 2**20

    @pytest.mark.parametrize(
        "graph",
        [
            *map(H.disjoint_loops, range(1, 6)),
            Graph(
                [f"x{i}" for i in range(7)],
                [(f"l{i}", f"x{i}", f"x{i}") for i in range(7)]
                + [(f"f{i}", f"x{i}", f"x{i + 1}") for i in range(6)],
            ),
        ],
        ids=[*(f"loops{k}" for k in range(1, 6)), "line7"],
    )
    def test_fk_writes_each_row_payload(self, capsys, tmp_path, graph):
        # the report is json.dumps of itself, and each row the payload of
        # the table's row with its lattice triple
        path = tmp_path / "g.graph"
        path.write_text(graph_to_text(graph), encoding="utf-8")
        code, out, _ = run(capsys, ["--json", "fk", str(path)])
        report = json.loads(out)
        assert code == 0 and out == json.dumps(report, sort_keys=True, indent=2) + "\n"
        table = filtered.fkbar(graph, cli._coeff("symbolic", reduced=True))
        assert report["rows"] == [
            dict(cli._row_json(row), lattice_triple=list(trip))
            for trip, row in zip(table.row_triples, table.rows)
        ]

    def test_fk_encodes_each_skeleton_once(self, capsys, tmp_path, monkeypatch):
        # a row's payload is read off its skeleton record, so rows of two
        # shapes with one skeleton share one text
        text = poset_loops(8, 0.3, 1)
        path = tmp_path / "poset.graph"
        path.write_text(text, encoding="utf-8")
        table = filtered.fkbar(parse_graph(text), cli._coeff("symbolic", reduced=True))
        distinct = set(table.bodies)
        encoded = []
        body_json = cli._body_json

        def counting(body):
            encoded.append(body)
            return body_json(body)

        monkeypatch.setattr(cli, "_body_json", counting)
        code, out, _ = run(capsys, ["--json", "fk", str(path)])
        assert code == 0 and len(json.loads(out)["rows"]) == len(table.row_triples)
        assert len(encoded) == len(distinct) < H.shape_count(table.store)

    def test_each_konebar_class_built_once(self, capsys, tmp_path, monkeypatch):
        # a printed K1bar group's JSON reads its class directly and through
        # its symbol; the class is one direct sum, built once per KOneBar,
        # so at most once per pair record however many rows print it
        built = []
        direct_sum = intlinalg.FgAbGroup.direct_sum

        def counting(self, other):
            built.append(self)
            return direct_sum(self, other)

        monkeypatch.setattr(intlinalg.FgAbGroup, "direct_sum", counting)
        coeff = cli._coeff("5", reduced=True)
        kb = ktheory.k1(Graph(["a"], [("x", "a", "a")]), coeff)
        assert cli._konebar_json(kb)["symbol"] == str(kb.isomorphism_class())
        assert len(built) == 1
        text = poset_loops(9, 0.3, 2)
        path = tmp_path / "poset.graph"
        path.write_text(text, encoding="utf-8")
        table = filtered.fkbar(parse_graph(text), coeff)
        printed = len(table.entries) + 3 * len(set(table.bodies))
        built.clear()
        code, _, _ = run(capsys, ["--json", "fk", str(path), "--field", "5"])
        assert code == 0 and 0 < len(built) <= len(table.store._records) < printed // 10

    def test_failed_check_on_the_last_row_writes_nothing(self, capsys, files, monkeypatch):
        built = []
        row_body = filtered._row_body

        def failing_last(store, *members):
            built.append(members)
            if len(built) == 1024:
                raise AssertionError("an edge leaves the middle ideal; the squares do not commute")
            return row_body(store, *members)

        monkeypatch.setattr(filtered, "_row_body", failing_last)
        code, out, err = run(capsys, ["--json", "fk", files["loops5"]])
        assert (code, out, len(built)) == (4, "", 1024)
        assert err == (
            "internal error: an edge leaves the middle ideal; the squares do not commute\n"
        )


class TestParserReuse:
    def test_build_parser_builds_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    @pytest.mark.parametrize(
        "capped, plain",
        [
            (["fk", "fan", "--row-cap", "1"], ["fk", "fan"]),
            (["hsat", "fan", "--lattice-cap", "1"], ["hsat", "fan"]),
        ],
    )
    def test_calls_share_no_state(self, capsys, files, capped, plain):
        capped = ["--json"] + [files.get(a, a) for a in capped]
        plain = ["--json"] + [files.get(a, a) for a in plain]
        assert run(capsys, capped)[0] == 3
        code, out, err = run(capsys, plain)
        fresh = subprocess.run(
            [sys.executable, "-m", "leavitt.cli", *plain],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert (code, err) == (0, "")
        assert (fresh.returncode, fresh.stdout) == (0, out)


class TestTrackedTransforms:
    """Verbs that read only Smith diagonals and kernels run no elimination
    that tracks a transform they do not read.  Each test draws a graph no
    other test builds, so the Smith caches miss."""

    def record(self, monkeypatch):
        calls = []
        smith = intlinalg._smith

        def counting(m, u, v, inverses=False):
            calls.append((u, v))
            return smith(m, u, v, inverses)

        monkeypatch.setattr(intlinalg, "_smith", counting)
        return calls

    def write(self, tmp_path, seed):
        path = tmp_path / f"sparse{seed}.graph"
        path.write_text(graph_to_text(H.sparse_graph(random.Random(seed), 40)), encoding="utf-8")
        return str(path)

    def test_k1_tracks_no_transform(self, capsys, tmp_path, monkeypatch):
        path = self.write(tmp_path, 97)
        calls = self.record(monkeypatch)
        code, out, _ = run(capsys, ["--json", "k1", path, "--field", "5"])
        assert code == 0 and "kernel_rank" in json.loads(out)
        assert calls and calls == [(False, False)] * len(calls)

    def test_vdb_tracks_no_u(self, capsys, tmp_path, monkeypatch):
        path = self.write(tmp_path, 101)
        calls = self.record(monkeypatch)
        code, out, _ = run(capsys, ["--json", "vdb", path, "--field", "5"])
        assert code == 0 and json.loads(out)["consistent"]
        assert (False, True) in calls and not any(u for u, _ in calls)

    def test_vdb_eliminates_its_transfer_matrix_once(self, capsys, tmp_path, monkeypatch):
        # the kernel run of K1 also serves K1's twisted cokernel, its kernel
        # rank and coker(phi): one elimination of the transfer matrix in all
        path = self.write(tmp_path, 103)
        eliminated = []
        smith = intlinalg._smith

        def counting(m, u, v, inverses=False):
            eliminated.append((m, u, v))
            return smith(m, u, v, inverses)

        monkeypatch.setattr(intlinalg, "_smith", counting)
        code, out, _ = run(capsys, ["--json", "vdb", path, "--field", "5"])
        assert code == 0 and json.loads(out)["consistent"]
        km = ktheory.k_matrix(parse_graph(Path(path).read_text(encoding="utf-8")))
        assert [(u, v) for m, u, v in eliminated if m == km] == [(False, True)]


class TestHumanOutput:
    def test_k1bar_loop(self, capsys, files):
        code, out, _ = run(capsys, ["k1bar", files["loop"], "--field", "5"])
        assert code == 0
        assert out == "Kbar1 = Z ⊕ Z/2\n"
        # the twisted cokernel keeps one whole divisible summand
        code, out, _ = run(capsys, ["k1bar", files["loop"], "--field", "divisible"])
        assert (code, out) == (0, "Kbar1 = Z ⊕ G\n")

    def test_info(self, capsys, files):
        code, out, _ = run(capsys, ["info", files["loop"]])
        assert code == 0
        assert out.splitlines() == [
            "vertices (1): v",
            "edges (1): e0:v->v",
            "sinks: (none)",
            "regulars: v",
        ]

    def test_hsat(self, capsys, files):
        code, out, _ = run(capsys, ["hsat", files["fan"]])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "4 hereditary saturated sets"
        assert lines[1] == "  [0] {}"
        assert "  [3] {v,w1,w2}" in lines

    def test_spec_fan(self, capsys, files):
        code, out, _ = run(capsys, ["spec", files["fan"]])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "2 graded primes, 4 locally closed pieces"
        assert "  prime 0: {w1}" in lines
        assert "  prime 1: {w2}" in lines

    def test_bf(self, capsys, files):
        code, out, _ = run(capsys, ["bf", files["two"]])
        assert code == 0
        assert out.splitlines() == ["BF = 0", "det(I - A) = -1"]

    def test_vdb(self, capsys, files):
        code, out, _ = run(capsys, ["vdb", files["loop"], "--field", "5"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("K1 = Z ⊕ Z/4 ->")
        assert lines[-1] == "consistent: True"

    def test_sixterm_fan(self, capsys, files):
        code, out, _ = run(
            capsys, ["sixterm", files["fan"], "--middle", "w1", "--field", "5"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "Kbar1: Z/2 -> Z/2 ⊕ Z/2 -> Z/2"
        assert lines[1] == "K0:   Z -> Z^2 -> Z"
        assert lines[2] == "exact: True"

    def test_compare_consistent(self, capsys, files):
        code, out, _ = run(capsys, ["compare", files["rose2"], files["ones"]])
        assert code == 0
        assert out.splitlines()[0] == "consistent under lattice isomorphism [0, 1]"

    def test_compare_with_intertwiner(self, capsys, files):
        code, out, _ = run(
            capsys, ["compare", files["rose2"], files["ones"], "--se-r", files["r"]]
        )
        assert code == 0
        assert "certification: exhaustive; element check: passed" in out

    def test_compare_obstruction(self, capsys, files):
        code, out, _ = run(capsys, ["compare", files["rose2"], files["rose3"]])
        assert code == 1
        assert out.splitlines()[0].startswith("obstruction: K0")

    def test_monoid_eq(self, capsys, files):
        code, out, _ = run(capsys, ["monoid-eq", files["fan"], "v", "w1 + w2"])
        assert code == 0
        assert out.splitlines() == [
            "monoid equality: equal",
            "  a - b is zero in K0 of the restriction to H(a) = H(b)",
        ]
        code, out, _ = run(capsys, ["monoid-eq", files["fan"], "w1", "w2"])
        assert code == 1
        assert out.splitlines() == [
            "monoid equality: not-equal",
            "  order ideals differ: H(a) = {w1}, H(b) = {w2}",
        ]

    def test_shifteq_certificate(self, capsys, files):
        code, out, _ = run(capsys, ["shifteq", files["two"], files["ones2"]])
        assert code == 0
        assert out == "shift equivalent at lag 1\n"

    def test_shifteq_obstruction(self, capsys, files):
        code, out, _ = run(capsys, ["shifteq", files["two"], files["three"]])
        assert code == 1
        assert out.splitlines()[0] == "not shift equivalent:"


class TestJson:
    def test_k0_payload(self, capsys, files):
        code, out, _ = run(capsys, ["--json", "k0", files["rose3"]])
        assert code == 0
        payload = json.loads(out)
        assert payload["group"] == {"free_rank": 0, "torsion": [2], "symbol": "Z/2"}

    def test_k1bar_payload(self, capsys, files):
        code, out, _ = run(capsys, ["--json", "k1bar", files["loop"], "--field", "5"])
        assert code == 0
        payload = json.loads(out)
        assert payload["symbol"] == "Z ⊕ Z/2"
        assert payload["kernel_rank"] == 1
        # the twisted part is one full copy of the coefficient group Z/2
        assert payload["twisted"]["quotient_orders"] == []
        assert payload["twisted"]["free_rank"] == 1
        assert payload["twisted"]["symbol"] == "Z/2"

    def test_shifteq_payload(self, capsys, files):
        code, out, _ = run(capsys, ["--json", "shifteq", files["two"], files["ones2"]])
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "certificate"
        cert = payload["certificate"]
        assert cert["lag"] == 1 and cert["verified"] is True
        assert cert["r"] == [[1, 1]] and cert["s"] == [[1], [1]]

    def test_monoid_eq_payload(self, capsys, files):
        code, out, _ = run(capsys, ["--json", "monoid-eq", files["rose2"], "v", "2*v"])
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "equal"
        assert (payload["ideal"], payload["witness"]) == (["v"], {"v": -1})
        code, out, _ = run(capsys, ["--json", "monoid-eq", files["rose3"], "v", "2*v"])
        assert code == 1
        payload = json.loads(out)
        assert payload["verdict"] == "not-equal"
        assert (payload["ideal"], payload["witness"]) == (None, None)
        code, out, _ = run(capsys, ["--json", "graded-eq", files["rose2"], "v(0)", "2*v(-1)"])
        assert code == 0
        assert sorted(json.loads(out)) == ["reason", "verdict"]

    def test_fk_payload_structure(self, capsys, files):
        code, out, _ = run(capsys, ["--json", "fk", files["fan"], "--field", "5"])
        assert code == 0
        payload = json.loads(out)
        assert payload["all_rows_exact"] is True
        assert len(payload["pieces"]) == 4
        assert len(payload["rows"]) == 16
        full = [p for p in payload["pieces"] if p["difference"] == [0, 1]]
        assert full[0]["k0"]["symbol"] == "Z^2"

    def test_sixterm_decides_large_twisted_groups(self, capsys, files):
        # field 17: reduced units Z/8, so the middle twisted group has 8^5 elements
        code, out, _ = run(
            capsys,
            ["--json", "sixterm", files["loops5"], "--middle", "v0,v1", "--field", "17"],
        )
        assert code == 0
        nodes = {n["name"]: n["coeff_exact"] for n in json.loads(out)["nodes"]}
        assert nodes["k1bar-middle"] is True and nodes["k1bar-quotient"] is True

    def test_byte_determinism(self, capsys, files):
        outputs = []
        for _ in range(2):
            code, out, _ = run(capsys, ["--json", "fk", files["fan"], "--field", "5"])
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]
        # and the text of one op of every verb is exactly the canonical
        # sorted-keys rendering of its payload
        ops = [
            ["info", files["fan"]],
            ["hsat", files["fan"]],
            ["spec", files["fan"]],
            ["k0", files["rose3"]],
            ["k1", files["loop"], "--field", "5"],
            ["k1bar", files["loop"], "--field", "5"],
            ["monoid-eq", files["rose2"], "v", "2*v"],
            ["graded-eq", files["rose2"], "v(0)", "2*v(-1)"],
            ["fk", files["fan"], "--field", "5"],
            ["compare", files["rose2"], files["ones"], "--se-r", files["r"]],
            ["shifteq", files["two"], files["ones2"]],
            ["bf", files["ones2"]],
            ["vdb", files["loop"], "--field", "5"],
            ["sixterm", files["fan"], "--middle", "w1", "--field", "5"],
        ]
        [verbs] = [a.choices for a in cli.build_parser()._actions if a.dest == "verb"]
        assert {argv[0] for argv in ops} == set(verbs)
        for argv in ops:
            code, out, _ = run(capsys, ["--json"] + argv)
            assert code in (0, 1), argv
            payload = json.loads(out)
            assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n", argv

    def test_compare_payload(self, capsys, files):
        code, out, _ = run(capsys, ["--json", "compare", files["rose2"], files["rose3"]])
        assert code == 1
        payload = json.loads(out)
        assert payload["consistent"] is False
        assert "K0" in payload["obstruction"]
        # every candidate order-isomorphism was refuted at the group level
        assert payload["lattice_iso"] is None


# JSON leaves, with the characters escaping must get right and ints past 64 bits
_TEXT = st.text(st.sampled_from('a⊕"\\/\x00\x1f\x7f\n\té😀') | st.characters(), max_size=6)
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(2**200), 2**200)
    | _TEXT
    | st.lists(st.integers(), max_size=5)
)
_TREES = st.recursive(
    _LEAVES,
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, kids, max_size=4),
    max_leaves=25,
)


class TestJsonWriter:
    """``cli._json_text`` is ``json.dumps(x, sort_keys=True, indent=2)``."""

    @given(_TREES)
    @example([1, True])
    @example({"a": [], "b": {}, "c": [[], [{}], ()], "": [[[]]]})
    @example({"⊕": 'q"uo\\te\x01', "z": [-(2**100), 0, 2**64]})
    def test_equals_json_dumps(self, x):
        assert cli._json_text(x) == json.dumps(x, sort_keys=True, indent=2)

    @given(_TREES, _TREES, st.lists(_TREES, max_size=4))
    @example([1, 2], {"k": []}, [])
    @example({"a": [True, None]}, "x", [0, [], {}])
    def test_texts_and_lazy_lists(self, part, tree, items):
        # one object at several depths, plain or as its _Text at that depth,
        # and lists written from generators (empty ones included) as they
        # are consumed
        plain = {"a": part, "b": [part, {"c": part, "d": tree}], "e": [[part, x] for x in items]}
        assert cli._json_text(plain) == json.dumps(plain, sort_keys=True, indent=2)

        def text(depth):
            return cli._Text(cli._json_text(part, "\n" + "  " * depth))

        lazy = {
            "a": text(1),
            "b": [text(2), {"c": text(3), "d": tree}],
            "e": ([text(3), x] for x in items),
        }
        chunks = []
        cli._put_json(lazy, "\n", chunks.append)
        assert "".join(chunks) == json.dumps(plain, sort_keys=True, indent=2)

    @pytest.mark.parametrize(
        "x", [1.5, [1, 2.0], {1, 2}, {"a": {3}}, {1: "a"}, {"a": {None: 1}}, object()]
    )
    def test_other_types_raise(self, x):
        with pytest.raises(TypeError):
            cli._json_text(x)


def child_env():
    """Environment in which a child process imports this ``leavitt`` package."""
    src = str(Path(leavitt.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def declared_script_command(name):
    """Command that runs ``[project.scripts]`` entry *name* as pip's wrapper does."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"][name]
    module, attr = target.split(":")
    code = (
        f"import sys; from {module} import {attr}; "
        f"sys.argv[0] = {name!r}; sys.exit({attr}())"
    )
    return [sys.executable, "-c", code]


class TestConsoleScript:
    def test_installed_entry_point(self, files):
        script = shutil.which("leavitt")
        command = [script] if script else declared_script_command("leavitt")
        proc = subprocess.run(
            [*command, "k0", files["rose3"]],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "K0 = Z/2\n"

    def test_module_invocation_error_path(self, files):
        proc = subprocess.run(
            [sys.executable, "-m", "leavitt.cli", "k0", files["missing"]],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
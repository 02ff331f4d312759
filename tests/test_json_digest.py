"""The ``--json`` bytes and exit codes of every verb, pinned by one digest.

Each op runs through ``cli.main`` in process on graphs and matrices written
from the seeded corpus; its label, exit code and stdout feed one SHA-256.
A refactor that keeps every report byte-identical keeps the digest.  When a
change means to alter a report, the digest changes with it, and
``REPORT_DIGEST`` is updated in the same change with the reason.

The ops: the graph verbs on the first 40 corpus graphs, ``compare`` of each
against a relabelled copy (with and without the element search) and
against the next graph, and ``bf`` and ``shifteq`` on their adjacency
matrices, some of whose bounded searches end ``unknown``.
"""

import contextlib
import hashlib
import io

import helpers as H
from leavitt.cli import main
from leavitt.graphs import graph_to_text, matrix_to_text, relabel

GRAPHS = 40
SHIFTEQ = ["shifteq", "--max-lag", "2", "--max-entry", "2"]

REPORT_DIGEST = "a2369b34db55681a616352809c14335057d713b1b1b0dc72e01a4102458322ae"


def _reversed_names(g):
    n = g.num_vertices
    return relabel(g, {v: f"w{n - 1 - k}" for k, v in enumerate(g.vertices)})


def _ops(tmp):
    """(label, argv) per op, with input files written under ``tmp``."""

    def write(name, text):
        path = tmp / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    graphs = H.corpus()[:GRAPHS]
    paths = [write(f"g{i}.graph", graph_to_text(g)) for i, g in enumerate(graphs)]
    twins = [write(f"r{i}.graph", graph_to_text(_reversed_names(g))) for i, g in enumerate(graphs)]
    mats = [write(f"a{i}.mat", matrix_to_text(g.adjacency())) for i, g in enumerate(graphs)]
    ops = []
    for i, path in enumerate(paths):
        nxt = paths[(i + 1) % GRAPHS]
        for label, argv in (
            ("info", ["info", path]),
            ("hsat", ["hsat", path]),
            ("spec", ["spec", path]),
            ("k0", ["k0", path]),
            ("k1-5", ["k1", path, "--field", "5"]),
            ("k1bar-17", ["k1bar", path, "--field", "17"]),
            ("vdb-5", ["vdb", path, "--field", "5"]),
            ("fk-17", ["fk", path, "--field", "17"]),
            ("fk-symbolic", ["fk", path]),
            ("compare-relabelled", ["compare", path, twins[i]]),
            ("compare-relabelled-structural", ["compare", path, twins[i], "--no-element-search"]),
            ("compare-next-9", ["compare", path, nxt, "--field", "9"]),
        ):
            ops.append((f"{label} g{i}", argv))
    for i, mat in enumerate(mats):
        ops.append((f"bf a{i}", ["bf", mat]))
        ops.append((f"shifteq a{i} a{(i + 1) % GRAPHS}", SHIFTEQ + [mat, mats[(i + 1) % GRAPHS]]))
    for i, g in enumerate(graphs[:10]):
        transposed = write(f"t{i}.mat", matrix_to_text(g.adjacency().transpose()))
        ops.append((f"shifteq a{i} t{i}", SHIFTEQ + [mats[i], transposed]))
    return ops


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--json"] + argv)
    return code, out.getvalue()


def test_json_reports_match_the_pinned_digest(tmp_path):
    digest = hashlib.sha256()
    unknown = 0
    for label, argv in _ops(tmp_path):
        code, out = _run(argv)
        digest.update(f"{label}\n{code}\n".encode())
        digest.update(out.encode())
        unknown += argv[0] == "shifteq" and '"kind": "unknown"' in out
    assert unknown >= 1, "no shifteq pair ends unknown; the digest would miss that path"
    assert digest.hexdigest() == REPORT_DIGEST

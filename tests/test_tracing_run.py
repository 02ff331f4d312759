"""The benchmark tracer, installed for real around one small run of each verb.

``perfbench/tracing.py`` also reads attributes of what the library returns
(``len(result.elements)`` of a lattice, ``len(result.rows)`` of a table), so
a renamed attribute breaks ``perfbench/run.py --trace 1`` although every
wrapped function still exists.  This runs the tracer as the benchmark does.
"""

import importlib.util
from pathlib import Path

import helpers as H
import leavitt.cli as cli
from leavitt.graphs import graph_to_text

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_verbs_report_layer_metrics(tmp_path, capsys):
    tracing = _load_tracing()
    fan = tmp_path / "fan.graph"
    fan.write_text(graph_to_text(H.fan_graph()), encoding="utf-8")
    rose2 = tmp_path / "rose2.graph"
    rose2.write_text(graph_to_text(H.rose(2)), encoding="utf-8")
    two = tmp_path / "two.mat"
    two.write_text("2\n", encoding="utf-8")
    ones = tmp_path / "ones.mat"
    ones.write_text("1 1\n1 1\n", encoding="utf-8")
    fan, rose2, two, ones = map(str, (fan, rose2, two, ones))
    calls = [
        ["fk", fan],
        ["compare", fan, fan],
        ["spec", fan],
        ["k0", rose2],
        ["k1", rose2],
        ["monoid-eq", fan, "v", "w1+w2"],
        ["graded-eq", fan, "v(0)", "w1(-1)+w2(-1)"],
        ["vdb", rose2],
        ["bf", two],
        ["shifteq", two, ones],
    ]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        codes = [cli.main(["--json"] + argv) for argv in calls]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert all(code in (0, 1) for code in codes), list(zip(calls, codes))
    metrics = tracing.layer_metrics(tracer.take(), 0)
    assert metrics["lattice.elements"] > 0
    assert metrics["filtered.rows"] > 0

"""List the executable lines of ``src/leavitt`` that the benchmark's traffic
never runs.

Run from anywhere, with the interpreter that runs the benchmark::

    python tests/traffic_reach.py

It runs one pass at seed 1 of each workload that ``BENCHMARK.json``
names, in this process, on inputs that ``perfbench/workloads.make_pass``
writes to a temporary directory.  Each op is one ``leavitt.cli.main``
call, through ``perfbench/run.run_op``, and is checked by
``perfbench/run.check_op`` against the workload's own answer.  Lines are
traced as ``tests/line_reach.py`` traces the test suite, and the trace
starts before ``leavitt`` is imported, so module-level lines count too.
A line that this pass does not reach is not exercised by the benchmark,
whatever a workload's description says.

It prints each unreached line as ``module:line: source``, module by
module, then per module the count of its unreached and executable lines,
the totals, and the number of ops that failed their check.  It exits 1
when some op failed, 0 otherwise.  The three passes take about 2 s on 2
vCPUs.

The file has no ``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import json
import sys
import tempfile
import threading
from pathlib import Path

from line_reach import PACKAGE, ROOT, line_tracer, print_unreached, read_sources

SEED = 1


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import run as bench  # perfbench/run.py, which imports no leavitt module
    import workloads

    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    sources = read_sources()
    reached: dict[str, set[int]] = {}
    tracer = line_tracer(reached)
    threading.settrace(tracer)
    sys.settrace(tracer)
    failed = ops = 0
    try:
        import leavitt.cli as cli

        with tempfile.TemporaryDirectory() as workdir:
            for name in names:
                for op in workloads.make_pass(name, SEED, 0, workdir):
                    _, code, text, error = bench.run_op(cli, op)
                    if error is None:
                        _, error = bench.check_op(op, code, text)
                    ops += 1
                    if error is not None:
                        failed += 1
                        print(f"FAILED {name}: {error}", file=sys.stderr)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    counts = print_unreached(sources, reached)
    for path, (missed, executable) in counts.items():
        print(f"{path.name}: {missed} of {executable} executable lines unreached")
    missed, executable = (sum(c) for c in zip(*counts.values()))
    print(f"{missed} of {executable} executable lines under {PACKAGE.relative_to(ROOT)} unreached")
    print(f"{failed} of {ops} ops failed, workloads {', '.join(names)} at seed {SEED}")
    return int(failed > 0)


if __name__ == "__main__":
    sys.exit(main())

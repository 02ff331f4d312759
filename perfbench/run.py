"""Benchmark of the ``leavitt`` CLI: seeded closed-loop workloads, one client.

    python3 perfbench/run.py --workload lattice-tables --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The library is imported from
``src/`` of that checkout and nowhere else.  Every op is one in-process
call of ``leavitt.cli.main([... "--json"])`` with stdout captured, on input
files this script generated from the seed; the next op starts when the
previous one returns.  A run is a fixed number of passes of fresh inputs:
``--seconds`` divided by the workload's nominal pass time at the seed commit
(``PASS_SECONDS``), so that every version of the library does the same work
and a run takes about ``--seconds`` at the seed.  Every op is checked
against an answer the library did not produce (see ``workloads.py``).

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``).  The line before it carries the
per-verb totals and shares.  README.md in this directory defines them all.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from time import perf_counter

import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")

MIN_PASSES = 4
# Seconds of op time per pass at the seed commit (Python 3.11, 2 vCPUs).
PASS_SECONDS = {"lattice-tables": 6.3, "matrix-invariants": 4.3, "monoid-verdicts": 0.35}
SETUP_SAMPLES = 11
TAIL_PERCENTILE = 90  # >= 15 ops beyond it even at MIN_PASSES passes; see README.md
VERBS = {
    "fk": "fk_s",
    "compare": "compare_s",
    "spec": "spec_s",
    "bf": "bf_s",
    "shifteq": "shifteq_s",
    "monoid-eq": "monoid_eq_s",
    "graded-eq": "graded_eq_s",
}

SETUP_CHILD = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import leavitt.cli\n"
    "leavitt.cli.build_parser()\n"
    "print(time.perf_counter() - t)\n"
)


def measure_setup():
    """Median seconds from a fresh interpreter to a built CLI parser."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CHILD, SRC],
            capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(done.stdout))
    return statistics.median(samples)


def run_op(cli, op):
    """(seconds, exit code, stdout text, error text or None) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["--json"] + op.argv)
    except SystemExit as exc:  # argparse rejected the argv
        code = exc.code
    except Exception as exc:  # noqa: BLE001 - an op that raises counts as failed
        return perf_counter() - start, None, "", f"{op.verb} raised {exc!r}"
    return perf_counter() - start, code, out.getvalue(), None


def check_op(op, code, text):
    try:
        payload = json.loads(text) if text else {}
    except json.JSONDecodeError:
        return None, f"{op.verb}: stdout is not JSON"
    try:
        return payload, op.check(code, payload)
    except (KeyError, TypeError, IndexError) as exc:
        return payload, f"{op.verb}: report lacks {exc!r}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "leavitt", "cli.py")):
        print(f"error: no library source under {SRC}", file=sys.stderr)
        return 2
    setup_s = measure_setup()
    sys.path.insert(0, SRC)
    import leavitt.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"error: leavitt imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    # let the cleanup below run when the run is stopped from outside
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tracer = tracing.Tracer() if args.trace else None
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    passes = max(MIN_PASSES, round(args.seconds / PASS_SECONDS[args.workload]))
    latencies = []
    verbs = dict.fromkeys(VERBS.values(), 0.0)  # seconds per verb over the run
    layer_passes, all_spans, element_checks = [], [], []
    attempted = failed = decisions = decided = 0
    failures = []
    try:
        for pass_index in range(passes):
            ops = workloads.make_pass(args.workload, args.seed, pass_index, workdir)
            if tracer:
                tracer.install()
            stdout_bytes = 0
            try:
                for op_index, op in enumerate(ops):
                    if tracer:
                        tracer.op = f"{pass_index}.{op_index}"
                    seconds, code, text, error = run_op(cli, op)
                    latencies.append(seconds)
                    stdout_bytes += len(text.encode())
                    if op.verb in VERBS:
                        verbs[VERBS[op.verb]] += seconds
                    payload = None
                    if error is None:
                        payload, error = check_op(op, code, text)
                    attempted += 1
                    if op.decision:
                        decisions += 1
                        decided += code in (0, 1)
                    if error is not None:
                        failed += 1
                        failures.append(f"pass {pass_index} op {op_index}: {error}")
                    elif tracer and op.verb == "compare":
                        element_checks.append(payload.get("element_check", "skipped"))
            finally:
                if tracer:
                    tracer.uninstall()
            if tracer:
                spans = tracer.take()
                layer_passes.append(tracing.layer_metrics(spans, stdout_bytes))
                all_spans.extend(s[:6] for s in spans)  # drop attrs: they pin matrices
            shutil.rmtree(os.path.join(workdir, f"pass{pass_index:03d}"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)

    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": passes,
        "tail_percentile": TAIL_PERCENTILE,
        "failed_share": failed / attempted,
        # no monoid-eq/shifteq ops means nothing was left undecided
        "decided_share": decided / decisions if decisions else 1.0,
        **verbs,
    }

    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        tracing.Tracer.write(all_spans, os.path.join(OUT, f"{args.workload}-seed{args.seed}.spans.csv"))
        values = tracing.combine(layer_passes, element_checks)
        values["decided_share"] = detail["decided_share"]
        # minus wall_s of the untraced run of the same seed: the tracing overhead
        values["trace.wall_s"] = sum(latencies)
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
    else:
        pct = statistics.quantiles(latencies, n=100, method="inclusive")
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": sum(latencies), "unit": "s"},
            "op_ms.p50": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
            f"op_ms.p{TAIL_PERCENTILE}": {"value": pct[TAIL_PERCENTILE - 1] * 1e3, "unit": "ms"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


def unit_of(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ratio") or name.endswith("_share"):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_bits"):
        return "bit"
    return "count"


if __name__ == "__main__":
    sys.exit(main())

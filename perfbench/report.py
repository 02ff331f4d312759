"""Print every metric of every workload by name, with its unit.

    python3 perfbench/report.py --seed 1 --seconds 25 [--json FILE]

Runs ``run.py`` once untraced (end-to-end metrics and the detail line) and
once traced (per-layer metrics) per workload, each in a fresh interpreter,
and prints one line per metric.  Both runs of a workload see the same
inputs, so ``trace.overhead_s``, the traced run's ``trace.wall_s`` minus the
untraced ``wall_s``, is the tracing overhead.  ``--json`` also writes the
numbers to FILE in the layout of ``baseline_seed.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import run
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
# ungated numbers of the untraced run's detail line, with their units
DETAIL = {name: "s" for name in run.VERBS.values()}
DETAIL.update(decided_share="ratio", failed_share="ratio")


def run_once(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True,
    )
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--json", default=None)
    args = parser.parse_args(argv)
    out = {}
    for workload in workloads.WORKLOADS:
        entry = out[workload] = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            detail, result = run_once(workload, args.seed, args.seconds, trace)
            entry[key] = {k: v["value"] for k, v in result["metrics"].items()}
            entry[f"{key}_run"] = {
                "attempted": result["attempted"],
                "failed": result["failed"],
                "passes": detail["passes"],
            }
            for name, m in sorted(result["metrics"].items()):
                print(f"{workload:18s} {name:40s} {m['value']:>16.6g} {m['unit']}")
            if not trace:
                entry["detail"] = detail
                for name in DETAIL:
                    print(f"{workload:18s} {name:40s} {detail[name]:>16.6g} {DETAIL[name]}")
        overhead = entry["per_layer"]["trace.wall_s"] - entry["end_to_end"]["wall_s"]
        entry["trace.overhead_s"] = overhead
        print(f"{workload:18s} {'trace.overhead_s':40s} {overhead:>16.6g} s")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "seconds": args.seconds, "workloads": out}, fh,
                      indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

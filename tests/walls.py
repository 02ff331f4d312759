"""Time the filtered-table and spectrum walls on disjoint loops, one child
process each.

Run from anywhere, with the interpreter that runs the tests::

    python tests/walls.py

It writes the input graphs to a temporary directory: k disjoint loops
(vertices ``x0`` ... ``x<k-1>``, edge ``l<i>`` a loop at ``x<i>``) for k =
7, 8 and 12, and 7 loops with a second loop ``extra`` at ``x0``.  Then it
runs, each as one child process on the ``src`` tree next to this file:

- ``leavitt --json fk`` on 8 loops;
- ``leavitt --json compare`` of 8 loops with itself;
- ``leavitt --json compare`` of 7 loops against 7 with one doubled, which
  exits 1;
- ``leavitt --json spec`` on 12 loops.

For each it prints the exit code, the wall time, the child's peak resident
set (``ru_maxrss`` from ``os.wait4``), the stdout byte count and its
sha256.  The hash names the bytes, so two trees that print the same hash
wrote the same output.  Copy the file into another checkout's ``tests/`` to
time that tree the same way.

The file has no ``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def loops_text(k: int, doubled: bool = False) -> str:
    names = [f"x{i}" for i in range(k)]
    edges = [f"edge l{i} {v} {v}" for i, v in enumerate(names)]
    if doubled:
        edges.append("edge extra x0 x0")
    return "\n".join(["vertices: " + " ".join(names)] + edges) + "\n"


def run(args) -> tuple[int, float, float, int, str]:
    """(exit code, wall s, peak RSS MB, stdout bytes, sha256) of one child."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command = [sys.executable, "-c", "import sys, leavitt.cli; sys.exit(leavitt.cli.main())"]
    digest, size = hashlib.sha256(), 0
    start = time.perf_counter()
    with subprocess.Popen(command + args, stdout=subprocess.PIPE, env=env) as child:
        while chunk := child.stdout.read(1 << 16):
            digest.update(chunk)
            size += len(chunk)
        # reap the child here, for its resource usage; Popen then has its code
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, wall, usage.ru_maxrss / 1024, size, digest.hexdigest()


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in (
            ("loops7", loops_text(7)),
            ("loops8", loops_text(8)),
            ("loops12", loops_text(12)),
            ("doubled7", loops_text(7, doubled=True)),
        ):
            paths[name] = os.path.join(tmp, f"{name}.graph")
            Path(paths[name]).write_text(text, encoding="utf-8")
        for name, args in (
            ("fk 8 loops", ["fk", paths["loops8"]]),
            ("compare 8 loops, self", ["compare", paths["loops8"], paths["loops8"]]),
            ("compare 7 loops, one doubled", ["compare", paths["loops7"], paths["doubled7"]]),
            ("spec 12 loops", ["spec", paths["loops12"]]),
        ):
            code, wall, rss, size, sha = run(["--json", *args])
            print(f"{name}: exit {code}, {wall:.2f} s, {rss:.1f} MB, {size} bytes, sha256 {sha}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Time the filtered-table walls on 8 disjoint loops, one child process each.

Run from anywhere, with the interpreter that runs the tests::

    python tests/walls.py

It writes the input graph (vertices ``x0`` ... ``x7``, edge ``l<i>`` a loop
at ``x<i>``) to a temporary directory, then runs ``leavitt --json fk`` on
it and ``leavitt --json compare`` of it with itself, each as one child
process on the ``src`` tree next to this file.  For each it prints the exit
code, the wall time, the child's peak resident set (``ru_maxrss`` from
``os.wait4``), the stdout byte count and its sha256.  The hash names the
bytes, so two trees that print the same hash wrote the same output.  Copy
the file into another checkout's ``tests/`` to time that tree the same way.

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
LOOPS = 8


def loops_text(k: int) -> str:
    names = [f"x{i}" for i in range(k)]
    edges = [f"edge l{i} {v} {v}" for i, v in enumerate(names)]
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
        path = os.path.join(tmp, f"loops{LOOPS}.graph")
        Path(path).write_text(loops_text(LOOPS), encoding="utf-8")
        for name, args in (
            (f"fk {LOOPS} loops", ["--json", "fk", path]),
            (f"compare {LOOPS} loops, self", ["--json", "compare", path, path]),
        ):
            code, wall, rss, size, sha = run(args)
            print(f"{name}: exit {code}, {wall:.2f} s, {rss:.1f} MB, {size} bytes, sha256 {sha}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

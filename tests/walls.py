"""Time the filtered-table and spectrum walls on disjoint loops, one child
process each.

Run from anywhere, with the interpreter that runs the tests::

    python tests/walls.py [--only NAME] [--repeat N] [SRC ...]

It writes the input graphs to a temporary directory: k disjoint loops
(vertices ``x0`` ... ``x<k-1>``, edge ``l<i>`` a loop at ``x<i>``) for k =
7, 8 and 12, and 7 loops with a second loop ``extra`` at ``x0``.  Then it
runs these walls, each as one child process:

- ``fk``: ``leavitt --json fk`` on 8 loops;
- ``compare-self``: ``leavitt --json compare`` of 8 loops with itself;
- ``compare-doubled``: ``leavitt --json compare`` of 7 loops against 7
  with one doubled, which exits 1;
- ``spec``: ``leavitt --json spec`` on 12 loops.

``--only NAME`` runs one of them alone.  The library comes from each
``SRC`` directory given, by default the ``src`` tree next to this file.
``--repeat N`` runs each wall N rounds before the next wall, every tree
once per round, in the given order in even rounds and reversed in odd
ones, so two trees alternate and each pair of runs is adjacent.

It prints one line per child: the wall, the tree, the exit code, the wall
time, the child's peak resident set (``ru_maxrss`` from ``os.wait4``),
the stdout byte count and its sha256.  The hash names the bytes, so two
trees that print the same hash wrote the same output.

The file has no ``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
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


def run(args, src=SRC) -> tuple[int, float, float, int, str]:
    """(exit code, wall s, peak RSS MB, stdout bytes, sha256) of one child
    that imports the library from ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
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


WALLS = {
    "fk": ["fk", "loops8"],
    "compare-self": ["compare", "loops8", "loops8"],
    "compare-doubled": ["compare", "loops7", "doubled7"],
    "spec": ["spec", "loops12"],
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", choices=sorted(WALLS), help="run this wall alone")
    parser.add_argument("--repeat", type=int, default=1, metavar="N", help="rounds per wall")
    parser.add_argument("trees", nargs="*", metavar="SRC", help="src directories to time")
    args = parser.parse_args(argv)
    trees = args.trees or [str(SRC)]
    walls = [args.only] if args.only else list(WALLS)
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
        for name in walls:
            verb, *inputs = WALLS[name]
            for round_ in range(args.repeat):
                for src in trees if round_ % 2 == 0 else trees[::-1]:
                    code, wall, rss, size, sha = run(
                        ["--json", verb, *map(paths.get, inputs)], Path(src).resolve()
                    )
                    print(
                        f"{name} {src}: exit {code}, {wall:.2f} s, {rss:.1f} MB, "
                        f"{size} bytes, sha256 {sha}",
                        flush=True,
                    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

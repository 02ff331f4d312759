"""Time the filtered-table and spectrum walls on disjoint loops and on a
poset of loops, one child process each.

Run from anywhere, with the interpreter that runs the tests::

    python tests/walls.py [--only NAME] [--repeat N] [SRC ...]

It writes the input graphs to a temporary directory: k disjoint loops
(vertices ``x0`` ... ``x<k-1>``, edge ``l<i>`` a loop at ``x<i>``) for k =
7, 8 and 12, 7 loops with a second loop ``extra`` at ``x0``, the poset of
loops ``poset_loops(12, 0.3, 1)`` and a copy of it whose vertex
declaration order ``random.Random(5).shuffle`` has shuffled.  Then it runs
these walls, each as one child process:

- ``fk``: ``leavitt --json fk`` on 8 loops;
- ``compare-self``: ``leavitt --json compare`` of 8 loops with itself;
- ``compare-doubled``: ``leavitt --json compare`` of 7 loops against 7
  with one doubled, which exits 1;
- ``spec``: ``leavitt --json spec`` on 12 loops, whose opens are the
  subsets of its 12 primes;
- ``spec-poset``: ``leavitt --json spec`` on the poset of loops, whose
  opens are the down-sets of a prime poset that is not an antichain;
- ``fk-poset``: ``leavitt --json fk`` on the poset of loops, whose rows
  share far fewer skeletons than those of disjoint loops;
- ``fk-poset-field``: ``leavitt --json fk --field 5`` on it, whose rows
  also decide their K̄₁ nodes on the twisted groups, with coefficients
  Z/2 (the reduced units of the field with 5 elements);
- ``compare-poset-self``: ``leavitt --json compare`` of it with itself;
- ``compare-poset-shuffled``: ``leavitt --json compare`` of it against
  the shuffled copy, which the compare reads in the poset's vertex order,
  so that the two tables share every pair record, row shape and skeleton
  record.

``--only NAME`` runs one of them alone.  The library comes from each
``SRC`` directory given, by default the ``src`` tree next to this file.
Before the first round each tree's bytecode is compiled once
(``python -I -m compileall -q``), so that no child compiles a module
whose cached bytecode is stale.
``--repeat N`` runs each wall N rounds before the next wall, every tree
once per round, in the given order in even rounds and reversed in odd
ones, so two trees alternate and each pair of runs is adjacent.

It prints one line per child: the wall, the tree, the exit code, the wall
time, the child's peak resident set (``ru_maxrss`` from ``os.wait4``),
the stdout byte count and its sha256, and whether that hash is the one
``PINNED`` for the wall.  The hash names the bytes, so two trees that
print the same hash wrote the same output.  With ``--repeat N`` for N of
at least 2 it ends with one line per wall and tree: the median wall time
and its interquartile range (``statistics.quantiles``, inclusive method),
the median peak RSS, and how many of the N runs printed the pinned hash.
It exits 1 when any run's hash is not the pinned one, 0 otherwise.

The file has no ``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import random
import statistics
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


def poset_loops(n: int, p: float, seed: int, order_seed: int | None = None) -> str:
    """A loop ``l<i>`` at each of the vertices ``v0`` ... ``v<n-1>``, then,
    for each i < j in i-major order, an edge ``e<k>`` from ``v<i>`` to
    ``v<j>`` when ``random.Random(seed).random() < p``, k counting the edges
    kept, in the text format of :func:`loops_text`.  Every vertex keeps its
    loop, so every hereditary set is saturated, and the ideal lattice is
    the hereditary sets of a random DAG.  With ``order_seed``, the vertices
    are declared in the order ``random.Random(order_seed).shuffle`` gives
    them; the edges stay."""
    rng = random.Random(seed)
    names = [f"v{i}" for i in range(n)]
    edges = [f"edge l{i} {v} {v}" for i, v in enumerate(names)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append(f"edge e{len(edges) - n} v{i} v{j}")
    if order_seed is not None:
        random.Random(order_seed).shuffle(names)
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
    "spec-poset": ["spec", "poset"],
    "fk-poset": ["fk", "poset"],
    "fk-poset-field": ["fk", "--field", "5", "poset"],
    "compare-poset-self": ["compare", "poset", "poset"],
    "compare-poset-shuffled": ["compare", "poset", "shuffled"],
}


# the sha256 of each wall's stdout; a change that moves one pins the new
# hash and says why
PINNED = {
    "fk": "c0ed38d6a524b8d14b74f9c1365e7d4d4ec0c3a479d23dcbf32dd6d9273193ef",
    "compare-self": "ff43f57d49b9d633393e0a8204ecd7db896a33772b5c633db0255a6c99ed3470",
    "compare-doubled": "9f58012e23b3ee1b6533e19f442cddf7ed83b8a4b08178b9c0ddaaaafad9413b",
    "spec": "a70f3126bdc426f59df0b3ee53f5cb78da0c6f7ed39e3e526687a74e26adc725",
    "spec-poset": "c83af23c54234cd55394ab90cd480738f80c0539837bf1efe9dc9ea323917c43",
    "fk-poset": "bef67ab93c37a45db1c41e4af48de2a090f3301ed9051f678e700c47b7f86869",
    "fk-poset-field": "d53328d92f44b331dcfe0c1eda8f344c6d69e21dd71fe415e36de3d8c5db3deb",
    "compare-poset-self": "d5ca838292effc8826f8b22faeaf8416ec9fa7ed92e6a48b57e10e5d57e5b2f9",
    # the shuffled copy is read in the poset's vertex order, so each of the
    # 65,012 rows pairs a skeleton record with itself and passes the element
    # search by the identity: the report reads exhaustive and passed, where
    # 53,048 rows read "skipped" in declaration order
    "compare-poset-shuffled": "70da26287fee7d48b3a745c063a0db0112915e0d3e8311fa5340396ca6dacecf",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", choices=sorted(WALLS), help="run this wall alone")
    parser.add_argument("--repeat", type=int, default=1, metavar="N", help="rounds per wall")
    parser.add_argument("trees", nargs="*", metavar="SRC", help="src directories to time")
    args = parser.parse_args(argv)
    trees = args.trees or [str(SRC)]
    walls = [args.only] if args.only else list(WALLS)
    runs = {(name, src): [] for name in walls for src in trees}  # (wall s, RSS MB, pinned)
    for src in trees:
        subprocess.run([sys.executable, "-I", "-m", "compileall", "-q", src], check=True)
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in (
            ("loops7", loops_text(7)),
            ("loops8", loops_text(8)),
            ("loops12", loops_text(12)),
            ("doubled7", loops_text(7, doubled=True)),
            ("poset", poset_loops(12, 0.3, 1)),
            ("shuffled", poset_loops(12, 0.3, 1, order_seed=5)),
        ):
            paths[name] = os.path.join(tmp, f"{name}.graph")
            Path(paths[name]).write_text(text, encoding="utf-8")
        for name in walls:
            verb, *words = WALLS[name]
            for round_ in range(args.repeat):
                for src in trees if round_ % 2 == 0 else trees[::-1]:
                    code, wall, rss, size, sha = run(
                        ["--json", verb, *(paths.get(w, w) for w in words)], Path(src).resolve()
                    )
                    runs[name, src].append((wall, rss, sha == PINNED[name]))
                    pin = "pinned" if sha == PINNED[name] else "NOT the pinned hash"
                    print(
                        f"{name} {src}: exit {code}, {wall:.2f} s, {rss:.1f} MB, "
                        f"{size} bytes, sha256 {sha} ({pin})",
                        flush=True,
                    )
    if args.repeat >= 2:
        for (name, src), got in runs.items():
            times, rss, pinned = zip(*got)
            q1, _, q3 = statistics.quantiles(times, n=4, method="inclusive")
            print(
                f"{name} {src} over {len(got)} runs: median {statistics.median(times):.2f} s "
                f"(IQR {q3 - q1:.2f} s), median {statistics.median(rss):.1f} MB, "
                f"{sum(pinned)} of {len(got)} pinned"
            )
    return 0 if all(ok for got in runs.values() for _, _, ok in got) else 1


if __name__ == "__main__":
    sys.exit(main())

"""List the executable lines of ``src/leavitt`` that the test suite never runs.

Run from anywhere, with the same interpreter as the tests::

    python tests/line_reach.py [extra pytest arguments]

It runs the whole suite (``pytest -q --continue-on-collection-errors`` over
``tests/``) in this process under :func:`sys.settrace`.  Only frames whose
code lives under ``src/leavitt`` get a local tracer, so the rest of the
suite runs untraced.  A line counts as executable when the compiler gives it
an instruction (``co_lines`` of the module's code objects, nested ones
included).  The script prints each unreached line as ``module:line: source``,
then the total, and exits with pytest's status.  Work done in a child
process, such as the ``if __name__ == "__main__"`` line of ``cli.py``, is
not seen.  It uses only the standard library (the ``coverage`` package is
not needed) and takes about 10 minutes on 2 vCPUs.

The file has no ``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "leavitt"


def executable_lines(path: Path, text: str) -> set[int]:
    """Every line of a source text that some instruction of it carries."""
    lines, stack = set(), [compile(text, str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def read_sources() -> dict[Path, str]:
    """Each module of the package with its text, read before a run, so that
    an edit made meanwhile cannot shift the lines."""
    return {path: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}


def line_tracer(reached: dict[str, set[int]]):
    """A :func:`sys.settrace` function that adds to ``reached[filename]``
    each line run in a frame whose code lives under the package."""
    prefix = str(PACKAGE) + os.sep

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        reached.setdefault(filename, set()).add(frame.f_lineno)
        return local

    return tracer


def print_unreached(sources: dict[Path, str], reached: dict[str, set[int]]) -> dict:
    """Print each executable line that no traced frame ran, module by
    module, as ``module:line: source``; return per module the counts of
    those lines and of its executable lines."""
    counts = {}
    for path, text in sources.items():
        source, executable = text.splitlines(), executable_lines(path, text)
        missed = sorted(executable - reached.get(str(path), set()))
        for line in missed:
            print(f"{path.name}:{line}: {source[line - 1].strip()}")
        counts[path] = len(missed), len(executable)
    return counts


def main(argv: list[str]) -> int:
    import pytest

    sources = read_sources()
    reached: dict[str, set[int]] = {}
    tracer = line_tracer(reached)
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", "tests", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = sum(missed for missed, _ in print_unreached(sources, reached).values())
    print(f"{total} unreached executable lines under {PACKAGE.relative_to(ROOT)}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

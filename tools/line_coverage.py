"""List the lines of ``src/jcsubdyn`` that no Tier-1 test executes.

Run it from anywhere (it takes about twice the plain test run):

    python3 tools/line_coverage.py

It runs the Tier-1 suite in this process under ``sys.settrace`` and
``threading.settrace``, so the block-worker threads are traced too, and
prints each unreached line as ``path:line: source``, then a count.  Code
run in a child process (the CLI subprocess tests, ``python -m jcsubdyn``)
is not traced, so a line reached only there is listed.  A line counts as
executable when the compiled module maps a bytecode instruction to it.
Arguments go to pytest.  The exit code is pytest's.
"""

from __future__ import annotations

import os
import sys
import threading
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "jcsubdyn")


def executable_lines(path: str) -> set[int]:
    """Line numbers that some instruction of the compiled module maps to."""
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    lines, stack = set(), [code]
    while stack:
        co = stack.pop()
        lines.update(line for _, _, line in co.co_lines() if line is not None)
        stack.extend(c for c in co.co_consts if isinstance(c, types.CodeType))
    lines.discard(0)
    return lines


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest on ``pytest_args`` in process; return its exit code and the
    lines executed in each file of the package."""
    hits: dict[str, set[int]] = {}
    prefix = PACKAGE + os.sep

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None  # no line events for code outside the package
        hits.setdefault(filename, set())
        return local

    import pytest

    sys.path.insert(0, SRC)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def main(argv=None) -> int:
    os.chdir(ROOT)
    code, hits = run_traced(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                             *(sys.argv[1:] if argv is None else argv)])
    missed = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            source = fh.read().splitlines()
        for line in sorted(executable_lines(path) - hits.get(path, set())):
            print(f"{os.path.relpath(path, ROOT)}:{line}: {source[line - 1].strip()}")
            missed += 1
    print(f"{missed} unreached line(s)")
    return code


if __name__ == "__main__":
    sys.exit(main())

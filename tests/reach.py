"""Report the lines of ``src/crn1d`` that no tier-1 test runs.

    python tests/reach.py [extra pytest arguments]

Runs the tier-1 suite in this process under ``sys.settrace``, recording the
lines run in frames whose code lives in ``src/crn1d``, then prints, per
module, the executable lines (those the compiled code objects map to) that
never ran.  Code that runs only in a child process is not counted: the tests
that start ``python -m crn1d`` or ``crn1d`` as a subprocess, and the
``enumerate --jobs`` workers.  Lines reached only there show up as not run.

It is a report, not a gate: it exits 0 whatever it finds, and prints the
suite's own exit status.  ``coverage`` is not needed.  pytest does not
collect this file (its name does not start with ``test_``).
"""

from __future__ import annotations

import os
import sys
import types
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "crn1d") + os.sep


def executable_lines(path: str) -> set[int]:
    """Line numbers of every instruction in the module's code objects."""
    with open(path, encoding="utf-8") as fh:
        todo = [compile(fh.read(), path, "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines.update(line for _start, _end, line in code.co_lines() if line)  # None or 0: no source line
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def ranges(lines) -> str:
    """``1, 4-6, 9`` for the sorted line numbers."""
    spans = []
    for line in sorted(lines):
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(argv: list[str]) -> int:
    import pytest

    run: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, _arg):
        if event == "line":
            run[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, _event, _arg):
        return local if frame.f_code.co_filename.startswith(PACKAGE) else None

    os.chdir(ROOT)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
    print(f"\nlines of src/crn1d no in-process test runs (suite exit status {int(status)}):")
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = PACKAGE + name
            lines = executable_lines(path)
            missed = lines - run[path]
            print(f"  {name}: {len(missed)} of {len(lines)}" + (f": {ranges(missed)}" if missed else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Print the statement lines in functions of `src/mswasm` that no test runs.

    python3 scripts/line_reach.py [PYTEST_ARGS ...]

runs pytest in this process, on the whole repository when no argument is
given, with a `sys.settrace` tracer that records each line run in a file
of `src/mswasm`.  pytest's own report goes to stderr.  stdout gets:

  - a line `failed under the tracer: NODEID` for each test that failed;
  - a line `PATH: N N ...` for each file with never-run lines, PATH from
    the repository root and the line numbers ascending;
  - last, `N never-run statement lines`.

A statement line is the first line of a statement inside a function,
method or nested function, when it holds bytecode; a docstring is no
statement.  Code that a test runs in a subprocess is not seen.

A test can fail only because it is traced: the tracer's time, and any
memory it allocates, count in a test's own bounds.  The tracer keeps one
set of line numbers per file, so the memory bounds of the `tracemalloc`
tests in `tests/test_tracerel.py` hold.  A failed test is listed, and
the lines it ran still count.
"""

from __future__ import annotations

import ast
import contextlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mswasm"
sys.path.insert(0, str(ROOT / "src"))

import pytest


def statement_lines(path: Path) -> set[int]:
    """The first lines of the statements inside functions that hold
    bytecode, docstrings left out."""
    text = path.read_text()
    tree = ast.parse(text)
    lines: set[int] = set()
    docstrings: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                docstrings.add(node.body[0].lineno)
            for stmt in node.body:
                lines.update(n.lineno for n in ast.walk(stmt) if isinstance(n, ast.stmt))
    with_code: set[int] = set()
    codes = [compile(tree, str(path), "exec")]
    while codes:
        code = codes.pop()
        with_code.update(line for _, _, line in code.co_lines() if line is not None)
        codes += (c for c in code.co_consts if hasattr(c, "co_lines"))
    return (lines - docstrings) & with_code


class _Failures:
    """A pytest plugin that keeps the node id of each failed test."""

    def __init__(self):
        self.nodeids: list[str] = []

    def pytest_runtest_logreport(self, report):
        if report.failed and report.nodeid not in self.nodeids:
            self.nodeids.append(report.nodeid)


def main(argv: list[str]) -> int:
    files = sorted(PACKAGE.glob("*.py"))
    seen: dict[str, set[int]] = {str(f): set() for f in files}

    def local_tracer(add):
        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local
        return local

    tracers = {name: local_tracer(lines.add) for name, lines in seen.items()}

    def tracer(frame, event, arg):
        return tracers.get(frame.f_code.co_filename)

    failures = _Failures()
    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            pytest.main(argv or [str(ROOT)], plugins=[failures])
    finally:
        sys.settrace(None)

    for nodeid in failures.nodeids:
        print(f"failed under the tracer: {nodeid}")
    total = 0
    for f in files:
        missed = sorted(statement_lines(f) - seen[str(f)])
        if missed:
            print(f"{f.relative_to(ROOT)}: {' '.join(map(str, missed))}")
            total += len(missed)
    print(f"{total} never-run statement lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

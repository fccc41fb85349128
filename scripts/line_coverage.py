#!/usr/bin/env python3
"""List the statements of ``src/fastssc`` that a pytest run never reaches.

Runs pytest in-process with the given arguments, tracing each line that runs
in the package's modules, in the main thread and in every thread started
after tracing begins, then prints one line per module with the statements
that never ran:

    python3 scripts/line_coverage.py [PYTEST_ARGS...]

``def``, ``class`` and ``import`` lines, docstrings and ``global`` or
``nonlocal`` declarations are not counted as statements.  The package is
imported only by the tests, after tracing starts, so its module-level lines
are traced too.  The exit status is pytest's.
"""

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fastssc"
NOT_STATEMENTS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
                  ast.ImportFrom, ast.Global, ast.Nonlocal)


def statements(path):
    """``{first line: lines it owns}`` for each statement of the module at
    ``path``.  A compound statement owns its header lines, up to its first
    body statement; a string or other constant statement compiles to nothing,
    so it is not counted."""
    owned = {}
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.stmt) or isinstance(node, NOT_STATEMENTS):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        body = getattr(node, "body", None)
        end = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
        owned[node.lineno] = range(node.lineno, max(end, node.lineno) + 1)
    return owned


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    prefix = f"{PACKAGE}{os.sep}"
    hits = set()

    def trace_lines(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    for path in sorted(PACKAGE.glob("*.py")):
        owned = statements(path)
        missed = [line for line, lines in sorted(owned.items())
                  if not any((str(path), n) in hits for n in lines)]
        listed = "".join(f" {line}" for line in missed)
        print(f"{path.name}: {len(missed)} of {len(owned)} statements unreached{listed}")
    return status


if __name__ == "__main__":
    sys.exit(main())

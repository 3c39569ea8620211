"""List the statements of ``src/chiralight`` that no tier-1 test executes.

A stdlib stand-in for a coverage tool: it installs a line tracer with
``sys.settrace`` and ``threading.settrace``, restricted to the package
sources, runs the test suite in this process through ``pytest.main``
and prints every statement whose lines never ran, one per line, as
``path:line: source``.  A compound statement (``if``, ``def``, ...)
counts by its header, a simple one by any of its lines.  Docstrings,
``global`` and ``nonlocal`` are not statements here.  Code that runs
only in the fresh interpreters some tests start (``tests/test_imports.py``)
is not seen.

It is a script, not a test, and takes about twice as long as tier-1:

    PYTHONPATH=src python tests/untested_lines.py [pytest args]

The exit status is pytest's.
"""

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "chiralight"

_hits = {}  # path -> set of executed line numbers
_paths = {}  # co_filename -> resolved package path, or None outside it


def _package_path(filename):
    if filename not in _paths:
        path = Path(os.path.realpath(filename))
        _paths[filename] = str(path) if path.parent == PACKAGE else None
    return _paths[filename]


def _tracer(frame, event, arg):
    path = _package_path(frame.f_code.co_filename)
    if path is None:
        return None
    lines = _hits.setdefault(path, set())
    lines.add(frame.f_lineno)

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local
    return local


def _is_docstring(node, parent):
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str) and parent.body[0] is node
            and isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                    ast.AsyncFunctionDef)))


def statements(path):
    """(first line, lines that count as running it) per statement in path."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for parent in ast.walk(tree):
        for field in ("body", "orelse", "finalbody"):
            children = getattr(parent, field, None)
            for node in children if isinstance(children, list) else ():
                if isinstance(node, (ast.Global, ast.Nonlocal)) or _is_docstring(node, parent):
                    continue
                first = min([node.lineno] + [d.lineno for d in
                                             getattr(node, "decorator_list", ())])
                body = getattr(node, "body", None)
                last = body[0].lineno - 1 if body else node.end_lineno
                found.append((node.lineno, range(first, max(first, last) + 1)))
    return sorted(found)


def untested(hits):
    """'path:line: source' for every statement whose lines never ran."""
    report = []
    for path in sorted(PACKAGE.glob("*.py")):
        ran = hits.get(str(path), set())
        source = path.read_text().splitlines()
        rel = path.relative_to(ROOT)
        report += [f"{rel}:{line}: {source[line - 1].strip()}"
                   for line, span in statements(path) if ran.isdisjoint(span)]
    return report


def main(argv):
    import pytest

    sys.path.insert(0, str(PACKAGE.parent))
    threading.settrace(_tracer)
    sys.settrace(_tracer)
    try:
        code = pytest.main([str(ROOT / "tests"), "-q", "-p", "no:cacheprovider",
                            "--continue-on-collection-errors", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    report = untested(_hits)
    print(f"\n{len(report)} statements in src/chiralight no test executed:")
    print("\n".join(report))
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

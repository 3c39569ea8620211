"""Which private names of one ``chiralight`` module another one reads.

A leading underscore marks a name as its module's own business.  The
scan walks the source of every module and records each read of another
module's ``_name``: ``from .params import _finite`` and
``optics._index_at(...)`` after ``from . import optics`` alike.  Every
such read must be on the allow-list below, and every entry of the list
must still be read, so a crossing that goes away takes its entry along.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "chiralight"

# (reading module, owning module, private name)
ALLOWED = {
    ("response", "coherences", "_betas_at"),
    ("pulse", "optics", "_index_at"),
    ("pulse", "params", "_finite"),
}


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def private_reads(path):
    """(reader, owner, name) for every private name path reads from a sibling."""
    reader, tree = path.stem, ast.parse(path.read_text(), filename=str(path))
    modules, reads = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:  # from . import optics [as name]
                    modules[alias.asname or alias.name] = alias.name
                elif _private(alias.name):  # from .params import _finite
                    reads.add((reader, node.module, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            reads.add((reader, modules[node.value.id], node.attr))
    return reads


def test_private_names_cross_modules_only_where_allowed():
    reads = set().union(*map(private_reads, sorted(PACKAGE.glob("*.py"))))
    assert reads - ALLOWED == set(), "private names read across modules"
    assert ALLOWED - reads == set(), "allow-list entries no module reads"


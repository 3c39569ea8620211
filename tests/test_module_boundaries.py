"""How the ``chiralight`` modules may read one another.

Layers: every sibling import (``from . import x``, ``from .x import y``)
sits at module level and names a module earlier in ``LAYERS``, so the
package imports strictly downward and no import is deferred into a
function.  ``__init__`` re-exports everything and is exempt.

Private names: a leading underscore marks a name as its module's own
business.  The scan records each read of another module's ``_name``:
``from .params import _finite`` and ``optics._index_at(...)`` after
``from . import optics`` alike.  Every such read must be on the
allow-list below, and every entry of the list must still be read, so a
crossing that goes away takes its entry along.

Config merges: only ``params`` constructs a config or its parts; every
other module merges fields through ``params.from_dict`` (or a helper
built on it), so an unknown key is named the same way on every path.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "chiralight"

# the import order, lowest layer first
LAYERS = ("errors", "params", "coherences", "response", "doppler", "optics",
          "pulse", "presets", "cli")

# (reading module, owning module, private name)
ALLOWED = {
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



# calls that build a config, which only params may make
CONFIG_CONSTRUCTORS = {"SystemParams", "MediumParams", "ValidatedConfig", "validate"}


def config_constructions(path):
    """(module, callee) for every config constructor path calls."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in CONFIG_CONSTRUCTORS:
                found.add((path.stem, name))
    return found


def test_only_params_constructs_a_config():
    others = [p for p in sorted(PACKAGE.glob("*.py")) if p.stem != "params"]
    assert set().union(*map(config_constructions, others)) == set()
    assert config_constructions(PACKAGE / "params.py"), "the scan sees no constructor call in params"


def sibling_imports(path):
    """(imported module, at module level) for every sibling import in path."""
    tree = ast.parse(path.read_text(), filename=str(path))
    top = {id(node) for node in tree.body}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = [node.module] if node.module else [a.name for a in node.names]
            found += [(name, id(node) in top) for name in names]
    return found


def test_layers_import_downward_at_module_level():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS), "a module is missing from LAYERS"
    bad = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        rank = LAYERS.index(path.stem)
        for name, at_top in sibling_imports(path):
            if not at_top:
                bad.append(f"{path.stem} imports {name} inside a function")
            elif LAYERS.index(name) >= rank:
                bad.append(f"{path.stem} imports {name}, which is not below it")
    assert bad == []

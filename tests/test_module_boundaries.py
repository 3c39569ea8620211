"""How the ``chiralight`` modules may read one another.

Layers: every sibling import (``from . import x``, ``from .x import y``)
names a module earlier in ``LAYERS``, so the package imports strictly
downward, and sits at module level.  One exception, for start-up cost:
``cli`` imports ``optics`` and ``pulse`` inside its functions, where the
commands that compute run, so ``--help``, ``preset-dump`` and the
configuration errors start without numpy and the numerical layers.  No
module imports through ``importlib.import_module`` or ``__import__``,
which would hide an import from this scan.  ``__init__`` re-exports
everything on first access and is exempt.

Private names: a leading underscore marks a name as its module's own
business.  The scan records each read of another module's ``_name``:
``from .optics import _index_at`` and ``optics._index_at(...)`` after
``from . import optics`` alike.  Every such read must be on the
allow-list below, and every entry of the list must still be read, so a
crossing that goes away takes its entry along.

Config merges: only ``params`` constructs a config or its parts; every
other module merges fields through ``params.from_dict`` (or a helper
built on it), so an unknown key is named the same way on every path.

BLAS/LAPACK: ``np.linalg`` is called only from the functions on the
``LINALG`` allow-list.  Their results depend on the host's OpenBLAS
kernel, so these are the calls that tie the printed bytes to the host;
as with ``ALLOWED``, every entry must still be in use.

Callers: every public top-level function or class of the package is
named by a caller, that is a name, an attribute or an import alias in
``src/``, in ``bench/*.py`` or in the README's ``python`` blocks.  The
strings in ``__init__._EXPORTS`` are not callers, and neither are the
tests: a route only the tests run does not belong in ``src/``.  The
``UNCALLED`` allow-list names the exceptions; each entry must still be
uncalled.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "chiralight"

# the import order, lowest layer first
LAYERS = ("errors", "params", "coherences", "response", "doppler", "optics",
          "pulse", "presets", "cli")

# (reading module, owning module, private name)
ALLOWED = {
    ("pulse", "optics", "_index_at"),
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
                elif _private(alias.name):  # from .optics import _index_at
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


# (importing module, imported module) that may sit inside a function
DEFERRED = {("cli", "optics"), ("cli", "pulse")}

# functions that import by name at run time
DYNAMIC_IMPORTS = {"import_module", "__import__"}


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


def dynamic_imports(path):
    """Every mention of a run-time import function in path: a name, an
    attribute (``importlib.import_module``) or an imported alias."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = [getattr(node, field, None) for node in ast.walk(tree)
             for field in ("id", "attr", "name")
             if isinstance(node, (ast.Name, ast.Attribute, ast.alias))]
    return [name for name in names if name in DYNAMIC_IMPORTS]


def test_layers_import_downward_at_module_level():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS), "a module is missing from LAYERS"
    bad, deferred = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        rank = LAYERS.index(path.stem)
        bad += [f"{path.stem} uses {name}" for name in dynamic_imports(path)]
        for name, at_top in sibling_imports(path):
            if not at_top:
                deferred.add((path.stem, name))
            if LAYERS.index(name) >= rank:
                bad.append(f"{path.stem} imports {name}, which is not below it")
    bad += [f"{a} imports {b} inside a function" for a, b in sorted(deferred - DEFERRED)]
    assert bad == []
    assert deferred == DEFERRED, "an allowed deferred import no module makes"


def test_the_scan_sees_dynamic_imports(tmp_path):
    assert dynamic_imports(PACKAGE / "__init__.py") == ["import_module"]
    path = tmp_path / "proxy.py"
    path.write_text("import importlib\n"
                    "from importlib import import_module as load\n"
                    "def f():\n"
                    "    return importlib.import_module('.optics', 'chiralight'), "
                    "__import__('numpy'), load('json')\n")
    assert sorted(dynamic_imports(path)) == ["__import__", "import_module", "import_module"]


# (module, top-level function) that may call np.linalg; ROADMAP item 13
# takes both off the printed path and empties this list
LINALG = {("coherences", "solve_steady_state"), ("pulse", "pulse_metrics")}


def linalg_uses(path):
    """(module, top-level def or '<module>') for every mention of numpy's
    linalg in path: ``np.linalg``, ``import numpy.linalg``, ``from numpy
    import linalg`` or ``from numpy.linalg import ...``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = set()
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            names = [getattr(node, field, None) for field in ("attr", "id", "name", "module")]
            if any(isinstance(n, str) and "linalg" in n.split(".") for n in names):
                found.add((path.stem, owner))
    return found


def test_only_the_allowed_functions_call_blas():
    uses = set().union(*map(linalg_uses, sorted(PACKAGE.glob("*.py"))))
    assert uses - LINALG == set(), "np.linalg called outside the allow-list"
    assert LINALG - uses == set(), "allow-list entries no module uses"


def test_the_scan_sees_every_spelling_of_linalg(tmp_path):
    path = tmp_path / "blas.py"
    path.write_text("import numpy as np\n"
                    "inv = np.linalg.inv\n"
                    "def a():\n    import numpy.linalg\n"
                    "def b():\n    from numpy import linalg\n"
                    "def c():\n    from numpy.linalg import solve\n"
                    "class D:\n    def e(self, x):\n        return np.linalg.norm(x)\n"
                    "def f(x):\n    return np.dot(x, x)\n")
    assert linalg_uses(path) == {("blas", name) for name in ("<module>", "a", "b", "c", "D")}


# (module, public top-level name) that no caller names: criterion 1's
# second route, which ROADMAP item 13 moves onto the production path
UNCALLED = {("coherences", "closed_form_betas")}


def public_definitions(path):
    """(module, name) for every public top-level def and class in path."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return {(path.stem, node.name) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def named(source, filename):
    """Every name source mentions as a name, an attribute or an import
    alias (each dotted part); string constants do not count."""
    found = set()
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(node.name.split("."))
    return found


def uncalled(definitions, callers):
    """The public definitions in the files ``definitions`` that no
    (source, filename) pair in ``callers`` names."""
    names = set().union(*(named(*caller) for caller in callers))
    defined = set().union(*map(public_definitions, definitions))
    return {d for d in defined if d[1] not in names}


def test_every_public_definition_has_a_caller():
    package = sorted(PACKAGE.glob("*.py"))
    readme = ROOT / "README.md"
    callers = [(p.read_text(), str(p)) for p in package + sorted((ROOT / "bench").glob("*.py"))]
    callers += [(block, str(readme))
                for block in re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)]
    found = uncalled(package, callers)
    assert found - UNCALLED == set(), "public definitions that nothing outside the tests calls"
    assert UNCALLED - found == set(), "allow-list entries that now have a caller"


def test_the_caller_scan_sees_names_attributes_and_aliases(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text("EXPORTS = 'unused Record'\n"
                   "def used(): pass\n"
                   "def unused(): pass\n"
                   "def _private(): pass\n"
                   "class Record: pass\n"
                   "class Shape: pass\n"
                   "def method_holder():\n    def inner(): pass\n    return inner\n")
    user = ("from lib import used as run\n"
            "import lib\n"
            "lib.Record()\n"
            "isinstance(run(), Shape)\n"
            "'method_holder'\n")
    assert uncalled([lib], [(lib.read_text(), "lib.py"), (user, "user.py")]) == {
        ("lib", "unused"), ("lib", "method_holder")}

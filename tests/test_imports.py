"""Every name a library module imports is used in that module.

Each `src/fthresh/*.py` except `__init__.py` (whose imports are the package's
exports) is parsed with `ast`; an imported name counts as used when it appears
as a name anywhere in the module, annotations included. `from __future__`
imports are directives, not names. No module imports numpy: `linalg`
eliminates term-dict rows, and importing the package, its CLI or the test
oracles leaves numpy unloaded, so a stray import cannot add its load time to
every CLI call. Every top-level private function or
class is referenced by name somewhere in the package outside its own
definition, so a replaced helper cannot stay behind. Only `self` has its
attributes assigned or its private attributes read: another object's state is
reached through its methods. No module uses `functools.cache` or
`functools.lru_cache`: a global cache would outlive the rings it serves.
Only `linalg` names the matrix cell bound `_MAX_MATRIX_CELLS`: every other
module goes through `linalg.check_cells`, so the bound has one owner. Likewise
only `ideals` calls `buchberger`, and only `ideals` and `ring` (which defines
it) name `elimination_key`: elimination has one owner, `ideals.eliminate`.
Every entry point that `perfbench/tracer.py` wraps resolves in the package,
so a rename cannot break the traced runs.
`fthresh.__all__` lists exactly the names `__init__.py` imports, so a deleted
type cannot stay exported.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fthresh

SRC = Path(__file__).resolve().parent.parent / "src" / "fthresh"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def imported_modules(source: str):
    """Top-level package of every module an import statement names."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def referenced_names(tree, skip):
    """Names and attribute names the tree mentions, ignoring everything inside `skip`."""
    inside = {id(node) for node in ast.walk(skip)}
    names = set()
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def unreferenced_private(sources):
    """Top-level private functions and classes that no source mentions outside their definition."""
    trees = [ast.parse(source) for source in sources]
    missing = []
    for tree in trees:
        for node in tree.body:
            defines = isinstance(node, (ast.FunctionDef, ast.ClassDef))
            if not (defines and node.name.startswith("_") and not node.name.startswith("__")):
                continue
            if not any(node.name in referenced_names(other, node) for other in trees):
                missing.append(node.name)
    return missing


def test_modules_are_found():
    assert len(MODULES) == 8


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_no_module_imports_numpy(path):
    assert "numpy" not in imported_modules(path.read_text())


def test_importing_the_package_and_the_oracles_leaves_numpy_unloaded():
    # a fresh interpreter: this one has loaded numpy for other tests
    probe = "import sys, fthresh, fthresh.cli, oracles; print('numpy' in sys.modules)"
    tests = Path(__file__).resolve().parent
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC.parent), str(tests)])},
    )
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_only_linalg_names_the_cell_bound(path):
    # another module comparing its own counts with the bound would be a second owner of the policy
    assert ("_MAX_MATRIX_CELLS" in path.read_text()) == (path.name == "linalg.py")


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_only_ideals_eliminates(path):
    # `ideals.eliminate` is the one elimination routine: a second caller of `buchberger`, or a
    # second user of the elimination order, would be a second path for that job
    source = path.read_text()
    assert ("buchberger(" in source) == (path.name == "ideals.py")
    assert ("elimination_key" in source) == (path.name in ("ideals.py", "ring.py"))


def test_every_private_definition_is_referenced():
    assert unreferenced_private(path.read_text() for path in sorted(SRC.glob("*.py"))) == []


def test_unreferenced_private_definition_is_reported():
    first = "def _used():\n    pass\n\ndef _recursive(n):\n    return _recursive(n - 1)\n"
    second = "class _Unused:\n    pass\n\ndef public():\n    return mod._used()\n"
    assert unreferenced_private([first, second]) == ["_recursive", "_Unused"]


def package_imports(source: str):
    """Names the package's relative imports bind, in source order."""
    return [
        alias.asname or alias.name
        for node in ast.parse(source).body
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
    ]


def test_exports_are_exactly_the_imported_names():
    # a deleted or renamed name cannot stay behind in __all__, and no import goes unexported
    imported = package_imports((SRC / "__init__.py").read_text())
    assert len(fthresh.__all__) == len(set(fthresh.__all__))
    assert sorted(fthresh.__all__) == sorted(imported)


def test_package_imports_are_read():
    source = "from __future__ import annotations\nimport os\nfrom .ring import QuotientRing, parse_poly as parse\n"
    assert package_imports(source) == ["QuotientRing", "parse"]


def test_numpy_import_is_found():
    assert imported_modules("import numpy as np\nfrom . import linalg\n") == {"numpy"}
    assert imported_modules("from numpy.linalg import solve\n") == {"numpy"}


def test_unused_import_is_reported():
    source = "import numpy as np\nfrom .ring import grevlex_key, transfer\n\ntransfer(1)\n"
    assert unused_imports(source) == [(1, "np"), (2, "grevlex_key")]


def global_caches(source: str):
    """(line, name) of every use of `functools.lru_cache` or `functools.cache`, imported or reached as an attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [(node.lineno, alias.name) for alias in node.names if alias.name in ("cache", "lru_cache")]
        elif isinstance(node, ast.Attribute) and node.attr in ("cache", "lru_cache"):
            if isinstance(node.value, ast.Name) and node.value.id == "functools":
                found.append((node.lineno, node.attr))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_no_global_caches(path):
    # per-basis state lives on its handle or in `ring.cached`, so it dies with the ring: a module-level
    # cache would keep every index and basis it ever saw alive
    assert global_caches(path.read_text()) == []


def test_global_cache_is_reported():
    source = (
        "import functools\n"
        "from functools import lru_cache, reduce\n"
        "@functools.cache\n"
        "def f(x):\n"
        "    return self.cache(x)\n"
        "g = functools.lru_cache(maxsize=None)(f)\n"
    )
    assert global_caches(source) == [(2, "lru_cache"), (3, "cache"), (6, "lru_cache")]


def foreign_attribute_assignments(source: str):
    """(line, target) of every assignment to an attribute of an object other than `self`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        while targets:
            target = targets.pop()
            if isinstance(target, (ast.Tuple, ast.List)):
                targets.extend(target.elts)
            elif isinstance(target, ast.Starred):
                targets.append(target.value)
            elif isinstance(target, ast.Attribute) and not (
                isinstance(target.value, ast.Name) and target.value.id == "self"
            ):
                found.append((node.lineno, ast.unparse(target)))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_attributes_are_assigned_only_on_self(path):
    # an object's state is set by its own methods: a ring's cache is `ring.cached`
    assert foreign_attribute_assignments(path.read_text()) == []


def test_foreign_attribute_assignment_is_reported():
    source = (
        "self.cache = {}\n"
        "ring._handle = handle\n"
        "cache = ring._cache = {}\n"
        "stats.calls += 1\n"
        "first, *obj.rest = values\n"
        "self.ring.name: str = 'R'\n"
        "table[ring.p] = 1\n"
    )
    assert foreign_attribute_assignments(source) == [
        (2, "ring._handle"), (3, "ring._cache"), (4, "stats.calls"), (5, "obj.rest"), (6, "self.ring.name"),
    ]


def foreign_private_reads(source: str):
    """(line, expression) of every read of a private attribute of an object other than `self`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)):
            continue
        private = node.attr.startswith("_") and not node.attr.startswith("__")
        on_self = isinstance(node.value, ast.Name) and node.value.id == "self"
        if private and not on_self:
            found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_private_attributes_are_read_only_on_self(path):
    # another object's internals are reached through its public methods
    assert foreign_private_reads(path.read_text()) == []


def test_foreign_private_read_is_reported():
    source = (
        "x = self._cache\n"
        "y = handle._gb_leads\n"
        "if val in self.ring._var_index:\n"
        "    pass\n"
        "z = ring.__class__\n"
        "w = f(obj._a)._b\n"
        "self._cache = ring.public\n"
    )
    assert foreign_private_reads(source) == [
        (2, "handle._gb_leads"), (3, "self.ring._var_index"), (6, "f(obj._a)._b"), (6, "obj._a"),
    ]


def tracer_entry_points():
    """(module, attribute path) of every entry in `perfbench/tracer.py`'s ENTRY_POINTS, read with `ast`."""
    tree = ast.parse((SRC.parent.parent / "perfbench" / "tracer.py").read_text())
    table = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "ENTRY_POINTS" for t in node.targets)
    )
    return [(entry.elts[0].value, entry.elts[1].value) for entry in table.elts]


def test_tracer_entry_points_resolve():
    # Tracer.install does a getattr on each entry, so a renamed one breaks every traced run
    entries = tracer_entry_points()
    missing = []
    for module, path in entries:
        target = importlib.import_module(f"fthresh.{module}")
        for name in path.split("."):
            target = getattr(target, name, None)
        if target is None:
            missing.append(f"{module}.{path}")
    assert entries and missing == []

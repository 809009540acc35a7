"""Every name a library module imports is used in that module.

Each `src/fthresh/*.py` except `__init__.py` (whose imports are the package's
exports) is parsed with `ast`; an imported name counts as used when it appears
as a name anywhere in the module, annotations included. `from __future__`
imports are directives, not names. Only `linalg.py` may import numpy: every
other module hands it term-dict rows. Every top-level private function or
class is referenced by name somewhere in the package outside its own
definition, so a replaced helper cannot stay behind. Only `self` has its
attributes assigned or its private attributes read: another object's state is
reached through its methods. Every entry point that `perfbench/tracer.py`
wraps resolves in the package, so a rename cannot break the traced runs.
"""

import ast
import importlib
from pathlib import Path

import pytest

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
def test_only_linalg_imports_numpy(path):
    assert ("numpy" in imported_modules(path.read_text())) == (path.name == "linalg.py")


def test_every_private_definition_is_referenced():
    assert unreferenced_private(path.read_text() for path in sorted(SRC.glob("*.py"))) == []


def test_unreferenced_private_definition_is_reported():
    first = "def _used():\n    pass\n\ndef _recursive(n):\n    return _recursive(n - 1)\n"
    second = "class _Unused:\n    pass\n\ndef public():\n    return mod._used()\n"
    assert unreferenced_private([first, second]) == ["_recursive", "_Unused"]


def test_numpy_import_is_found():
    assert imported_modules("import numpy as np\nfrom . import linalg\n") == {"numpy"}
    assert imported_modules("from numpy.linalg import solve\n") == {"numpy"}


def test_unused_import_is_reported():
    source = "import numpy as np\nfrom .ring import grevlex_key, transfer\n\ntransfer(1)\n"
    assert unused_imports(source) == [(1, "np"), (2, "grevlex_key")]


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

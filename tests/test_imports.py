"""Every name a library module imports is used in that module.

Each `src/fthresh/*.py` except `__init__.py` (whose imports are the package's
exports) is parsed with `ast`; an imported name counts as used when it appears
as a name anywhere in the module, annotations included. `from __future__`
imports are directives, not names. Only `linalg.py` may import numpy: every
other module hands it term-dict rows.
"""

import ast
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


def test_modules_are_found():
    assert len(MODULES) == 8


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_only_linalg_imports_numpy(path):
    assert ("numpy" in imported_modules(path.read_text())) == (path.name == "linalg.py")


def test_numpy_import_is_found():
    assert imported_modules("import numpy as np\nfrom . import linalg\n") == {"numpy"}
    assert imported_modules("from numpy.linalg import solve\n") == {"numpy"}


def test_unused_import_is_reported():
    source = "import numpy as np\nfrom .ring import grevlex_key, transfer\n\ntransfer(1)\n"
    assert unused_imports(source) == [(1, "np"), (2, "grevlex_key")]

"""Every name a library module imports is used in that module.

No linter ships with the test dependencies, so this ``ast`` scan is the
guard.  ``__init__.py`` (whose imports are re-exports) and ``__future__``
imports are exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "wsatlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read as a name."""
    tree = ast.parse(source)
    imported: set[str] = set()
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted(imported - used)


def test_the_scan_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "from .graphs import Graph, bits\n"
        "def f(g: Graph) -> int:\n"
        "    return np.sum(g.rows)\n"
    )
    assert unused_imports(source) == ["bits", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_library_modules_use_every_import(path):
    assert unused_imports(path.read_text()) == []

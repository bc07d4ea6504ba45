"""Every name a library module imports is used in that module, and a
module loads only the library modules it imports.

No linter ships with the test dependencies, so this ``ast`` scan is the
guard.  ``__future__`` imports are exempt.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "wsatlab"
MODULES = sorted(SRC.glob("*.py"))


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


@pytest.mark.parametrize("module,loaded", [
    ("graphs", ["wsatlab.graphs"]),
    ("closure", ["wsatlab.closure", "wsatlab.graphs"]),
])
def test_a_module_loads_only_what_it_imports(module, loaded):
    """The package re-exports nothing, so importing one module in a fresh
    interpreter loads no other library module."""
    script = (
        f"import sys, wsatlab.{module}\n"
        "print(*sorted(m for m in sys.modules if m.startswith('wsatlab.')))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC.parent)))
    assert out.stdout.split() == loaded

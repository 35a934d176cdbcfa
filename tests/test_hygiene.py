"""Source hygiene: no module of the package imports a name it never uses."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "turancert"

# A package __init__ imports names to re-export them.
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by an import statement and never read in the module."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_detector_sees_unused_and_used_names():
    src = "import os\nimport json as j\nfrom typing import Optional, Sequence\nx: Optional[int] = j.loads('1')\n"
    assert unused_imports(src) == [(1, "os"), (3, "Sequence")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []

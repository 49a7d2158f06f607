"""Source hygiene: every imported name is used."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
MODULES = sorted(
    [p for p in (ROOT / "src" / "stakesim").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py")),
)


def unused_imports(source: str) -> list[str]:
    """Names a module imports that no `ast.Name` in it refers to."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used)


def test_unused_imports_are_detected():
    assert unused_imports("import os\nimport a.b\nfrom x import y as z\nos.sep\n") == ["a", "z"]
    assert unused_imports("from __future__ import annotations\nfrom x import *\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []

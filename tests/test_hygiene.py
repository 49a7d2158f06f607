"""Source hygiene: every imported name is used, and so is every parameter."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "stakesim").glob("*.py"))
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


def unused_parameters(source: str) -> list[str]:
    """`function.parameter` for each parameter that no `ast.Name` in its
    function's body reads; `self` and `cls` are exempt."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg] if a]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        name = getattr(node, "name", "<lambda>")
        found += [f"{name}.{p}" for p in params if p not in read and p not in ("self", "cls")]
    return found


def test_unused_parameters_are_detected():
    source = (
        "def f(self, a, b, *rest, c, **kw):\n    return a + kw['x']\n"
        "class K:\n    @classmethod\n    def g(cls, d):\n        return lambda e, d2: d + e\n"
        "def h(x):\n    def inner():\n        return x\n    return inner\n"
    )
    assert unused_parameters(source) == ["f.b", "f.c", "f.rest", "<lambda>.d2"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_has_no_unused_parameters(path):
    assert unused_parameters(path.read_text(encoding="utf-8")) == []

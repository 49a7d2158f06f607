"""Source hygiene: the package imports only the standard library, every
imported name is used, and so is every parameter and every dataclass field."""

from __future__ import annotations

import ast
import dataclasses
import importlib.util
import operator
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "stakesim").glob("*.py"))
MODULES = sorted(
    [p for p in (ROOT / "src" / "stakesim").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py")),
)


def third_party_imports(source: str) -> list[str]:
    """Top-level modules a module imports by absolute name that are not in
    the standard library."""
    named = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            named.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            named.add(node.module.split(".")[0])
    return sorted(named - sys.stdlib_module_names)


def test_third_party_imports_are_detected():
    source = (
        "from __future__ import annotations\nimport os.path, numpy as np\nfrom yaml.loader import Loader\n"
        "from . import chain\nfrom .errors import ScenarioError\ndef f():\n    import scipy\n"
    )
    assert third_party_imports(source) == ["numpy", "scipy", "yaml"]


def test_the_package_imports_only_the_standard_library():
    found = {p.name: third_party_imports(p.read_text(encoding="utf-8")) for p in SOURCES}
    assert {name: modules for name, modules in found.items() if modules} == {}


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


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """`module.name` for each private module-level function, class or
    assignment, and `module.Class.name` for each private method of a
    module-level class or private attribute its methods assign on `self`,
    that no name or attribute read in any of `sources` refers to. Dunder
    names are exempt; an augmented assignment is not a read."""
    defined: list[tuple[str, str]] = []
    read: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((f"{module}.{node.name}", node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
                defined += [(f"{module}.{name}", name) for name in names]
            if isinstance(node, ast.ClassDef):
                methods = [m for m in node.body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))]
                defined += [(f"{module}.{node.name}.{m.name}", m.name) for m in methods]
                defined += [
                    (f"{module}.{node.name}.{n.attr}", n.attr)
                    for m in methods
                    for n in ast.walk(m)
                    if isinstance(n, ast.Attribute)
                    and isinstance(n.ctx, ast.Store)
                    and isinstance(n.value, ast.Name)
                    and n.value.id == "self"
                ]
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
    private = [
        (label, name) for label, name in defined if name.startswith("_") and not name.endswith("__")
    ]
    return sorted({label for label, name in private if name not in read})


def test_unused_private_names_are_detected():
    sources = {
        "a": (
            "_A = 1\n_B: int = 2\n_C, (_D, e) = 3, (4, 5)\n__all__ = []\n"
            "def _f():\n    return _A\n"
            "class _K:\n    def __init__(self):\n        self._x = 1\n"
            "    def _m(self):\n        return self._n()\n    def _n(self):\n        return 0\n"
        ),
        "b": "from a import _f\n_f()\nprint(_C)\n",
    }
    assert unused_private_names(sources) == ["a._B", "a._D", "a._K", "a._K._m", "a._K._x"]


def test_unused_private_attributes_are_detected():
    sources = {
        "a": (
            "class K:\n    def __init__(self, other):\n"
            "        self._read = self._kept = self._bumped = self.public = 0\n"
            "        self._typed: int = 1\n        other._elsewhere = 2\n"
            "    def step(self):\n        self._bumped += 1\n        self._late = self._read\n"
            "        return self._kept\n"
        ),
        "b": "from a import K\nprint(K(None)._typed)\n",
    }
    assert unused_private_names(sources) == ["a.K._bumped", "a.K._late"]


def test_every_private_name_in_the_package_is_used():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    assert unused_private_names(sources) == []


def _names_dataclass(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(target, "attr", getattr(target, "id", None)) == "dataclass"


def unread_dataclass_fields(sources: dict[str, str]) -> list[str]:
    """`module.Class.field` for each field of a dataclass in `sources` that
    no attribute access reads and no string constant but a docstring names,
    whole or as a part of a dotted path (a field table's key or attribute,
    an `attrgetter` path)."""
    fields: list[tuple[str, str]] = []
    read: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        docstrings = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                if ast.get_docstring(node, clean=False) is not None:
                    docstrings.add(node.body[0].value)
            if isinstance(node, ast.ClassDef) and any(map(_names_dataclass, node.decorator_list)):
                fields += [
                    (f"{module}.{node.name}.{n.target.id}", n.target.id)
                    for n in node.body
                    if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)
                ]
        for n in ast.walk(tree):
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n not in docstrings:
                read.update(n.value.split("."))
    return sorted(label for label, name in fields if name not in read)


def test_unread_dataclass_fields_are_detected():
    sources = {
        "a": (
            "import dataclasses\nfrom dataclasses import dataclass\n"
            "@dataclass(frozen=True)\nclass A:\n    'dropped'\n"
            "    read: int\n    named: int\n    dropped: int\n    stored: int = 0\n"
            "@dataclasses.dataclass\nclass B:\n    deep: int\n    gone: int\n"
            "class C:\n    plain: int\n"
        ),
        "b": "def f(a):\n    'stored'\n    a.stored = 1\n    return a.read, 'named', attrgetter('x.deep')\n",
    }
    assert unread_dataclass_fields(sources) == ["a.A.dropped", "a.A.stored", "a.B.gone"]


def test_every_dataclass_field_in_the_package_is_read():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    assert unread_dataclass_fields(sources) == []


def test_every_benchmark_trace_target_resolves():
    """The benchmark's traced mode wraps each (module, attribute) in its
    tracer's TARGETS where callers look it up; a refactor that moves one
    breaks that mode, so each must still name something."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module, attr, _ in tracer.TARGETS:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{attr}")
    assert missing == []


def test_the_ledger_reads_no_fork_event():
    """`resolution` alone decides which reveal is slashable; the ledger holds
    lots on the settlements `settle_slash` books, so it reads no fork event
    and takes nothing from `resolution` but the outcome it is handed. It
    holds money and ids, not a timeline: the engine owns the run's
    effective timeline."""
    tree = ast.parse((ROOT / "src" / "stakesim" / "insurance.py").read_text(encoding="utf-8"))
    attributes = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    names = set(attributes)
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.arg):
            names.add(n.arg)
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            names.update(a.asname or a.name for a in n.names)
    assert not {"timeline", "ChainTimeline"} & names
    from_resolution = {
        a.name
        for n in ast.walk(tree)
        if isinstance(n, ast.ImportFrom) and (n.module or "").split(".")[-1] == "resolution"
        for a in n.names
    }
    imported_modules = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    assert "fork_events" not in attributes
    assert from_resolution == {"ResolutionOutcome"}
    assert not any(m.split(".")[-1] == "resolution" for m in imported_modules)


def test_the_document_table_is_the_one_writer_of_a_scenario():
    """Each `Scenario` field but `timeline` is the attribute of exactly one
    key of the document's table, and `scenario_to_doc` writes each key as
    that key's codec writes its attribute, so a second writer of the
    document's top level has no place to come back."""
    from stakesim.scenario import _DOCUMENT, Scenario, load_scenario, scenario_to_doc

    attrs = [f.attr or f.key for f in _DOCUMENT.fields]
    assert sorted(f.name for f in dataclasses.fields(Scenario) if attrs.count(f.name) != 1) == ["timeline"]
    sc = load_scenario(str(ROOT / "tests" / "golden" / "scenarios" / "release-backlog.json"))
    assert sc.timeline.fork_events and sc.adversary.transactors
    by_codec = {f.key: f.codec[1](operator.attrgetter(attr)(sc)) for f, attr in zip(_DOCUMENT.fields, attrs)}
    assert scenario_to_doc(sc) == by_codec


def test_an_output_table_rebuilds_its_class_from_init_fields_only():
    """Where a field table's `make` is a class, each field's attribute is an
    `init` field of that class; a key derived from other fields (a property)
    cannot rebuild the object, so such a table's `make` is `dict`."""
    from stakesim import scenario

    tables = [t for t in vars(scenario).values() if isinstance(t, scenario._Block)]
    tables += scenario._STRATEGIES.values()
    assert len(tables) == 25
    for table in tables:
        if table.make is not dict:
            init = {f.name for f in dataclasses.fields(table.make) if f.init}
            assert {f.attr or f.key for f in table.fields} <= init, table.make.__name__


def test_the_package_exports_exactly_what_it_imports():
    """`__all__` lists each name `__init__.py` imports, once, and no other."""
    import stakesim

    tree = ast.parse((ROOT / "src" / "stakesim" / "__init__.py").read_text(encoding="utf-8"))
    imported = {
        a.asname or a.name
        for n in tree.body
        if isinstance(n, ast.ImportFrom) and n.module != "__future__"
        for a in n.names
    }
    assert len(stakesim.__all__) == len(set(stakesim.__all__))
    assert set(stakesim.__all__) == imported


def test_every_package_error_is_exported_and_raised_by_name():
    """Each class `errors.py` defines is in `stakesim.__all__`, and each
    error the package builds or raises by name, other than Python's own, is
    one of them: an error type no caller can import or catch by name cannot
    come back."""
    import builtins

    import stakesim

    tree = ast.parse((ROOT / "src" / "stakesim" / "errors.py").read_text(encoding="utf-8"))
    defined = {n.name for n in tree.body if isinstance(n, ast.ClassDef)}
    assert defined <= set(stakesim.__all__)
    named = set()
    for path in SOURCES:
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            target = n.func if isinstance(n, ast.Call) else n.exc if isinstance(n, ast.Raise) else None
            if isinstance(target, ast.Name) and target.id.endswith("Error") and not hasattr(builtins, target.id):
                named.add(target.id)
    assert named and named <= defined


# how the docs state the output version: "output version N" and
# "`schema_version` is not N", over any line break
_VERSION_STATEMENTS = re.compile(r"output\s+version\s+(\d+)|`schema_version`\s+is\s+not\s+(\d+)")


def stated_output_versions(text: str) -> list[int]:
    """Each output version `text` states, in order."""
    return [int(a or b) for a, b in _VERSION_STATEMENTS.findall(text)]


_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstrings(source: str) -> list[str]:
    """The module's, and each class's and function's, docstring in `source`."""
    nodes = (n for n in ast.walk(ast.parse(source)) if isinstance(n, _DOCUMENTED))
    return [doc for doc in map(ast.get_docstring, nodes) if doc]


def test_output_version_statements_are_detected():
    text = "at output version 3 (`OUTPUT_VERSION`);\na `schema_version` is not\n 5, or output\nversion 12"
    assert stated_output_versions(text) == [3, 5, 12]
    assert docstrings('"""output version 1"""\ndef f():\n    """output version 2"""\n    x = "output version 9"\n') == [
        "output version 1",
        "output version 2",
    ]


def test_the_docs_state_the_current_output_version():
    """README.md and the package's docstrings name the output version
    `version.OUTPUT_VERSION` holds, so a bump cannot leave one stale."""
    from stakesim.version import OUTPUT_VERSION

    texts = {"README.md": (ROOT / "README.md").read_text(encoding="utf-8")}
    texts |= {p.name: "\n".join(docstrings(p.read_text(encoding="utf-8"))) for p in SOURCES}
    stated = {name: stated_output_versions(text) for name, text in texts.items()}
    assert stated["README.md"] and stated["report.py"]
    assert {name: versions for name, versions in stated.items() if set(versions) - {OUTPUT_VERSION}} == {}

"""Engine modules import only names they use (``__init__`` re-exports),
no engine file holds an ``assert``, the package exports functions and
classes, not its submodules, and every name the benchmark's traced run
wraps still exists."""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import pactop

ENGINE = sorted(Path(pactop.__file__).parent.glob("*.py"))
MODULES = [p for p in ENGINE if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_imports_are_found():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == [
        "os (line 1)", "b (line 2)",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_engine_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def asserts(source: str) -> list[int]:
    """Lines of the ``assert`` statements in ``source``."""
    tree = ast.parse(source)
    return [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]


def test_asserts_are_found():
    assert asserts("x = 1\nassert x\ndef f():\n    assert x, 'msg'\n") == [2, 4]


@pytest.mark.parametrize("path", ENGINE, ids=lambda p: p.name)
def test_engine_module_has_no_assert(path):
    # an AssertionError is no PactopError, so the command line would
    # print its traceback, and python -O drops the check altogether
    assert asserts(path.read_text()) == []


def test_package_exports_functions_and_classes_only():
    # ``from pactop import *`` binds no submodule; the lru_cache'd
    # functions count as functions once unwrapped
    namespace: dict = {}
    exec("from pactop import *", namespace)
    exported = {name: value for name, value in namespace.items()
                if not name.startswith("__")}
    assert sorted(exported) == pactop.__all__
    assert not [name for name, value in exported.items() if inspect.ismodule(value)]
    functions = [name for name, value in exported.items()
                 if inspect.isfunction(inspect.unwrap(value))]
    classes = [name for name, value in exported.items() if inspect.isclass(value)]
    assert sorted(functions + classes) == pactop.__all__
    assert {"minimal_neighborhoods", "pair_action"} <= set(functions)
    assert (len(functions), len(classes)) == (51, 24)


def bench_names(source: str) -> dict:
    """The literal ``TRACED`` and ``CACHED`` assignments of ``source``."""
    return {
        target.id: ast.literal_eval(node.value)
        for node in ast.parse(source).body if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in ("TRACED", "CACHED")
    }


def test_bench_spans_name_engine_functions():
    # read as text, not imported: the benchmark's traced run wraps these
    # names and reads these caches, so none may be renamed or dropped
    spans = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    names = bench_names(spans.read_text())
    traced = [(mod, fn) for mod, fns in names["TRACED"].items() for fn in fns]
    assert traced and names["CACHED"]
    for mod, fn in traced:
        assert callable(getattr(importlib.import_module(f"pactop.{mod}"), fn, None)), (
            mod, fn
        )
    for name in names["CACHED"]:
        mod, fn = name.split(".")
        cached = getattr(importlib.import_module(f"pactop.{mod}"), fn, None)
        assert callable(getattr(cached, "cache_info", None)), name

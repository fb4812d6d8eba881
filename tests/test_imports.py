"""Engine modules import only names they use (``__init__`` re-exports),
no engine file holds an ``assert``, and the package exports functions
and classes, not its submodules."""

from __future__ import annotations

import ast
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

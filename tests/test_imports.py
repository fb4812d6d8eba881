"""Engine modules import only names they use (``__init__`` re-exports)
and never ``typing``, no engine file holds an ``assert``, the package
exports functions and classes, not its submodules, every name the
benchmark's traced run wraps still exists, and importing the command
line loads none of ``dataclasses``, ``inspect``, ``argparse``,
``typing`` and ``random``."""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pactop

SRC = Path(pactop.__file__).resolve().parents[1]
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


def imported_modules(source: str) -> set[str]:
    """The modules ``source`` imports, at any depth, by their full names."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module)
    return names


def test_imported_modules_are_found():
    source = "import os.path\nfrom a.b import c\nfrom . import d\ndef f():\n    import e\n"
    assert imported_modules(source) == {"os.path", "a.b", "e"}


@pytest.mark.parametrize("path", ENGINE, ids=lambda p: p.name)
def test_engine_module_does_not_import_typing(path):
    # every module defers its annotations, so typing would be loaded for
    # names alone: collections.abc holds Iterable, Sequence and the rest
    assert "typing" not in imported_modules(path.read_text())


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
    assert (len(functions), len(classes)) == (49, 24)


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


def run_python(*args: str) -> subprocess.CompletedProcess:
    # -S: no site hooks, so only what the engine imports is loaded
    return subprocess.run([sys.executable, "-S", *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)


def test_importing_the_cli_loads_no_dataclasses_inspect_or_argparse():
    # importing the first three took more than a third of ``import
    # pactop``; argparse is imported only when a command line needs a
    # parser, random only when mutants are drawn, and typing not at all
    res = run_python("-c", "import sys, pactop.cli\n"
                     "print(sorted({'dataclasses', 'inspect', 'argparse', 'typing',"
                     " 'random'} & {*sys.modules}))")
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"
    res = run_python("-c", "from pactop.cli import main\nmain(['report', '--help'])")
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("usage: pactop report [-h]")
    assert "spec" in res.stdout and "--format {text,json}" in res.stdout

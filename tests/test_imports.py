"""Engine modules import only names they use (``__init__`` re-exports)
and never ``typing``, no engine file holds an ``assert``, the package
exports functions and classes, not its submodules, every name the
benchmark's traced run wraps or its code reads still exists, and
importing the command line loads none of ``dataclasses``,
``inspect``, ``argparse``, ``typing`` and ``random``."""

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
from pactop.globalize import Globalization
from pactop.selector import BorelReport

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
    assert (len(functions), len(classes)) == (48, 24)


def _over_bits(node: ast.expr) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "iter_bits")


def _indexed_by(node: ast.expr, target: ast.expr) -> bool:
    # node is x[target] for the loop variable target
    return (isinstance(node, ast.Subscript) and isinstance(target, ast.Name)
            and isinstance(node.slice, ast.Name) and node.slice.id == target.id)


def hand_kernels(source: str) -> list[int]:
    """Lines of ``source`` that write out an image or a union over a
    point set by hand, in place of ``relations.image_of`` and
    ``union_of``: ``mask_of(f[y] for y in iter_bits(...))`` with one
    ``for`` and no ``if``, or a ``for y in iter_bits(...)`` loop whose
    only statement is ``out |= rows[y]`` or ``out |= 1 << f[y]``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "mask_of" and len(node.args) == 1
                and isinstance(node.args[0], ast.GeneratorExp)):
            gen = node.args[0]
            loop, *more = gen.generators
            if (not more and not loop.ifs and _over_bits(loop.iter)
                    and _indexed_by(gen.elt, loop.target)):
                lines.append(node.lineno)
        elif (isinstance(node, ast.For) and _over_bits(node.iter)
              and len(node.body) == 1 and isinstance(node.body[0], ast.AugAssign)
              and isinstance(node.body[0].op, ast.BitOr)):
            value = node.body[0].value
            if (isinstance(value, ast.BinOp) and isinstance(value.op, ast.LShift)
                    and isinstance(value.left, ast.Constant) and value.left.value == 1):
                value = value.right
            if _indexed_by(value, node.target):
                lines.append(node.lineno)
    return sorted(lines)


def test_hand_kernels_are_found():
    source = (
        "a = mask_of(f[y] for y in iter_bits(s))\n"
        "b = mask_of(f[y] for y in iter_bits(s) if y)\n"
        "c = mask_of(y for y in iter_bits(s))\n"
        "d = mask_of(g[y][0] for y in iter_bits(s))\n"
        "for y in iter_bits(s):\n    out |= rows[y]\n"
        "for y in iter_bits(s):\n    out |= 1 << f[y]\n"
        "for y in iter_bits(s):\n    out |= 2 << f[y]\n"
        "for y in iter_bits(s):\n    out |= rows[y]\n    n += 1\n"
        "for y in range(s):\n    out |= rows[y]\n"
        "e = mask_of(t.nbrs[y] for y in iter_bits(s))\n"
    )
    assert hand_kernels(source) == [1, 5, 7, 16]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_engine_module_reads_images_and_unions_through_the_kernels(path):
    # one kernel per operation, so a faster read of either serves every site
    assert hand_kernels(path.read_text()) == []


def bench_names(source: str) -> dict:
    """The literal ``TRACED`` and ``CACHED`` assignments of ``source``."""
    return {
        target.id: ast.literal_eval(node.value)
        for node in ast.parse(source).body if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in ("TRACED", "CACHED")
    }


# the records bench/child.py reads by these variable names
BENCH_RECORDS = {"glob": Globalization, "brep": BorelReport}


def bench_reads(source: str) -> tuple[set[str], set[tuple[str, str]]]:
    """The dotted ``pactop`` names ``source`` reads, and the (variable,
    attribute) pairs it reads on the ``BENCH_RECORDS`` variables.  A
    name is one imported from a pactop module, or an attribute read
    through a name bound to one (``P.validate``, ``cli.parse``,
    ``pactop.topology.mask_of``)."""
    tree = ast.parse(source)
    bound, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "pactop":
                    if alias.asname:
                        bound[alias.asname] = alias.name
                    else:
                        bound["pactop"] = "pactop"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pactop"):
            for alias in node.names:
                names.add(f"{node.module}.{alias.name}")
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    reads = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)):
            continue
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.insert(0, node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in bound:
            names.add(".".join([bound[node.id], *attrs]))
        elif isinstance(node, ast.Name) and node.id in BENCH_RECORDS and len(attrs) == 1:
            reads.add((node.id, attrs[0]))
    return names, reads


def engine_object(name: str):
    """The object the dotted ``pactop`` name reads; AttributeError or
    ImportError when it is gone."""
    parts = name.split(".")
    obj = pactop
    for i, part in enumerate(parts[1:], 2):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            # a submodule not imported yet, as ``from pactop import cli`` imports it
            obj = importlib.import_module(".".join(parts[:i]))
    return obj


def test_bench_spans_name_engine_functions():
    # read as text, not imported: the benchmark's traced run wraps these
    # names and reads these caches, and its children call and read the
    # names and record attributes below, so none may be renamed or dropped
    bench = Path(__file__).resolve().parents[1] / "bench"
    names = bench_names((bench / "spans.py").read_text())
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
    read, fields = set(), set()
    for path in sorted(bench.glob("*.py")):
        path_names, path_fields = bench_reads(path.read_text())
        read |= path_names
        fields |= path_fields
    # each way of reading is seen, so the walk above is not vacuous
    assert {"pactop.induced_family", "pactop.validate", "pactop.topology.mask_of",
            "pactop.cli.parse", "pactop.cli.ActionSpec"} <= read
    assert {("glob", "product"), ("brep", "tau")} <= fields
    gone = []
    for name in sorted(read):
        try:
            engine_object(name)
        except (AttributeError, ImportError):
            gone.append(name)
    gone += [f"{var}.{attr}" for var, attr in sorted(fields)
             if attr not in BENCH_RECORDS[var]._fields
             and not hasattr(BENCH_RECORDS[var], attr)]
    assert gone == []


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

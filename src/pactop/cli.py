"""File-driven front end.

Reads a JSON action document, runs the requested construction and
checks, and prints either a human-readable text report or a canonical
JSON one.  Exit codes: 0 all checks pass, 1 at least one check failed
(the witnesses are in the output), 2 the input could not be parsed,
or the output could not be written (a DOT path, or standard output
closed by a reader that quit, as ``| head`` does).

A plain command line (a command, its spec, and options spelled out in
full, each followed by a value that does not start with ``-``) is read
by ``_read_argv`` without building an argparse parser: building one
imports ``locale`` and compiles argparse's regexes, which takes longer
than the engine's stages on the bundled example.  Every other command
line, help, usage and errors included, goes through the one argparse
parser of every command, which ``_build_parser`` imports and builds
only when ``_read_argv`` declines.

The JSON output and the text output's data block are written by
``_dumps``, whose text equals ``json.dumps(value, indent=2,
sort_keys=True)`` byte for byte.  The standard library's C encoder
cannot indent, so with ``indent`` set ``json.dumps`` runs its
pure-Python generator chain, which took longer than any one stage.
``_dumps`` writes each ``Report`` tree itself, its fixed keys as literal
text in sorted order, with no copy of the tree into dicts first.
"""

from __future__ import annotations

import json
import os
import sys
from json.encoder import encode_basestring_ascii as _escape
from types import SimpleNamespace

from . import topology as topo
from .errors import (
    LimitExceeded, PactopError, ParseError, SchemaError, has_entries, in_range,
)
from .globalize import (
    Globalization,
    build,
    effros_report,
    embedding_report,
    hat_relation_report,
)
from .groups import FiniteGroup, cyclic, make_group
from .paction import (
    PartialAction,
    orbit_consistency_report,
    stabilizer,
    validate,
    well_formedness,
)
from .record import Record
from .reports import FAIL, Check, Report
from .selector import (
    action_continuity_table,
    bireducibility_report,
    normalized_selector,
    orbit_homeomorphism_report,
    transversal,
    transversal_topology,
)
from .topology import FinTop, iter_bits
from .vaught import (
    delta_transform,
    open_case,
    star_transform,
    transform_identities_report,
)


class ActionSpec(Record):
    """A parsed action document: resolved tables plus the point names."""

    label: str
    names: tuple[str, ...]
    pa: PartialAction

    def __init__(self, label: str, names: tuple[str, ...], pa: PartialAction):
        _check_names(names, pa.space.size)
        self._set("label", label)
        self._set("names", names)
        self._set("pa", pa)


def _check_names(names: tuple[str, ...], size: int) -> None:
    # another length would raise IndexError, or write a document of
    # another carrier that parse refuses
    if not has_entries(names, size):
        if not hasattr(names, "__len__"):
            raise ValueError(f"point names for a carrier of {size} points are not "
                             f"a table ({type(names).__name__})")
        raise ValueError(f"{len(names)} point names for a carrier of {size} points")


def _fail(path: str, what: str):  # raises, never returns
    raise SchemaError(f"{path}: {what}", (path,))


def _expect(cond: bool, path: str, what: str) -> None:
    if not cond:
        _fail(path, what)


def _mask_from_names(values, names_idx: dict[str, int], path: str) -> int:
    _expect(isinstance(values, list), path, "expected a list of point names")
    # Plain lookups first: a name that is unknown or not a string raises
    # KeyError (TypeError when unhashable), and a repeat leaves fewer bits
    # than names.  The checks below, which build each entry's path and
    # message, run only when some entry fails, and raise at the first.
    mask = 0
    try:
        for name in values:
            mask |= 1 << names_idx[name]
    except (KeyError, TypeError):
        pass
    else:
        if mask.bit_count() == len(values):
            return mask
    mask = 0
    for i, name in enumerate(values):
        _expect(isinstance(name, str), f"{path}/{i}", "expected a point name")
        _expect(name in names_idx, f"{path}/{i}", f"unknown point {name!r}")
        bit = 1 << names_idx[name]
        _expect(not mask & bit, f"{path}/{i}", f"duplicate point {name!r}")
        mask |= bit


def _parse_group(doc, path: str) -> FiniteGroup:
    _expect(isinstance(doc, dict), path, "expected an object")
    kind = doc.get("kind")
    if kind == "cyclic":
        _expect(set(doc) == {"kind", "order"}, path, "cyclic group takes only order")
        order = doc.get("order")
        # JSON true and false decode to bool, a subclass of int
        _expect(type(order) is int and order >= 1, f"{path}/order",
                "expected a positive integer")
        try:
            return cyclic(order)
        except LimitExceeded as exc:
            raise SchemaError(f"{path}/order: {exc}", (f"{path}/order",)) from exc
    if kind == "table":
        _expect(set(doc) == {"kind", "table"}, path, "table group takes only table")
        table = doc.get("table")
        _expect(isinstance(table, list) and table, f"{path}/table",
                "expected a nonempty list of rows")
        n = len(table)
        for i, row in enumerate(table):
            _expect(
                isinstance(row, list) and len(row) == n
                and all(in_range(v, n) for v in row),
                f"{path}/table/{i}", f"expected a list of {n} integers in 0..{n - 1}",
            )
        try:
            return make_group(tuple(tuple(row) for row in table))
        except LimitExceeded as exc:
            raise SchemaError(f"{path}/table: {exc}", (f"{path}/table",)) from exc
        except PactopError as exc:
            raise SchemaError(f"{path}/table: not a group table: {exc}",
                              (f"{path}/table",)) from exc
    raise SchemaError(f"{path}/kind: expected 'cyclic' or 'table'", (f"{path}/kind",))


def _parse_space(doc, path: str) -> tuple[tuple[str, ...], FinTop]:
    _expect(isinstance(doc, dict), path, "expected an object")
    _expect(set(doc) == {"points", "opens"}, path,
            "space takes exactly points and opens")
    points = doc["points"]
    _expect(isinstance(points, list), f"{path}/points", "expected a list of names")
    for i, name in enumerate(points):
        if not (isinstance(name, str) and name):
            _fail(f"{path}/points/{i}", "expected a nonempty string")
    _expect(len(set(points)) == len(points), f"{path}/points", "duplicate names")
    names = tuple(points)
    names_idx = {name: i for i, name in enumerate(names)}
    opens_doc = doc["opens"]
    _expect(isinstance(opens_doc, list), f"{path}/opens", "expected a list of sets")
    masks = [
        _mask_from_names(u, names_idx, f"{path}/opens/{i}")
        for i, u in enumerate(opens_doc)
    ]
    try:
        return names, topo.topology_with_opens(len(names), masks)
    except ValueError as exc:
        _fail(f"{path}/opens", f"not a topology: {exc}")


def _is_decimal(text: str) -> bool:
    # canonical ASCII decimals only: str.isdigit alone accepts "²", which
    # int() refuses, and "01", which would overwrite "1"
    return text.isascii() and text.isdigit() and (text == "0" or text[0] != "0")


def _below(text: str, order: int) -> bool:
    # lengths first: int() refuses strings of more than 4300 digits
    return len(text) <= len(str(order)) and int(text) < order


def _element_key(key: str, order: int, path: str) -> int:
    _expect(_is_decimal(key), f"{path}/{key}",
            "keys are canonical decimal element indices")
    _expect(_below(key, order), f"{path}/{key}",
            f"element index out of range 0..{order - 1}")
    return int(key)


def parse(document: str | bytes) -> ActionSpec:
    """Parse a JSON action document into resolved tables.

    Malformed JSON raises ParseError; a document that is valid JSON but
    breaks the schema raises SchemaError carrying a JSON-pointer-style
    path to the offending spot.
    """
    try:
        doc = json.loads(document)
    except (ValueError, RecursionError) as exc:
        # undecodable bytes are a ValueError too; deep nesting recurses out
        raise ParseError(f"not valid JSON: {exc}") from exc

    _expect(isinstance(doc, dict), "/", "expected a JSON object")
    allowed = {"label", "group", "space", "domains", "maps"}
    for key in doc:
        _expect(key in allowed, f"/{key}", "unknown key")
    for key in ("group", "space", "domains", "maps"):
        _expect(key in doc, f"/{key}", "missing")
    label = doc.get("label", "")
    _expect(isinstance(label, str), "/label", "expected a string")

    group = _parse_group(doc["group"], "/group")
    names, space = _parse_space(doc["space"], "/space")
    names_idx = {name: i for i, name in enumerate(names)}

    domains_doc = doc["domains"]
    _expect(isinstance(domains_doc, dict), "/domains", "expected an object")
    dom = [0] * group.order
    for key, value in domains_doc.items():
        g = _element_key(key, group.order, "/domains")
        dom[g] = _mask_from_names(value, names_idx, f"/domains/{key}")
    _expect(dom[group.identity] == space.full, f"/domains/{group.identity}",
            "identity domain must list every point")

    maps_doc = doc["maps"]
    _expect(isinstance(maps_doc, dict), "/maps", "expected an object")
    maps = [[-1] * space.size for _ in range(group.order)]
    for key, value in maps_doc.items():
        g = _element_key(key, group.order, "/maps")
        _expect(isinstance(value, dict), f"/maps/{key}", "expected an object")
        for src, dst in value.items():
            if not (src in names_idx and isinstance(dst, str) and dst in names_idx):
                _expect(src in names_idx, f"/maps/{key}/{src}",
                        f"unknown point {src!r}")
                _fail(f"/maps/{key}/{src}", f"unknown point {dst!r}")
            maps[g][names_idx[src]] = names_idx[dst]

    pa = PartialAction(group, space, tuple(dom), tuple(tuple(r) for r in maps))
    return ActionSpec(label, names, pa)


def serialize(spec: ActionSpec) -> dict:
    """Canonical document for an ActionSpec; parse inverts it.  An action
    whose identity domain misses a point has no document: SchemaError."""
    pa = spec.pa
    e = pa.group.identity
    _expect(pa.dom[e] == pa.space.full, f"/domains/{e}",
            "identity domain must list every point")
    group_doc: dict
    k = pa.group.order
    if all(pa.group.mul[g][h] == (g + h) % k for g in range(k) for h in range(k)):
        group_doc = {"kind": "cyclic", "order": k}
    else:
        group_doc = {"kind": "table", "table": [list(r) for r in pa.group.mul]}

    return {
        "label": spec.label,
        "group": group_doc,
        "space": {
            "points": list(spec.names),
            "opens": [_names_of(spec.names, u) for u in pa.space.opens],
        },
        "domains": {
            str(g): _names_of(spec.names, pa.dom[g]) for g in pa.group.elements()
        },
        "maps": {
            str(g): {
                spec.names[x]: spec.names[pa.maps[g][x]]
                for x in pa.space.points()
                if pa.maps[g][x] >= 0
            }
            for g in pa.group.elements()
        },
    }


def _class_label(glob: Globalization, names: tuple[str, ...], c: int) -> str:
    g, x = divmod(glob.relation.least[c], glob.source.space.size)
    return f"({g},{names[x]})"


def dot_export(glob: Globalization, names: tuple[str, ...]) -> str:
    """DOT digraph with two clusters: the specialization preorder of
    the envelope topology (edge c -> d when c lies in the closure of
    {d}) and the translation graph (identity edges omitted).  ``names``
    holds one name per carrier point."""
    _check_names(names, glob.source.space.size)
    nbrs = glob.topology.nbrs
    # a quoted DOT string ends at an unescaped quote
    labels = [
        _class_label(glob, names, c).replace("\\", "\\\\").replace('"', '\\"')
        for c in range(glob.num_classes)
    ]
    lines = ["digraph envelope {"]
    lines.append("  subgraph cluster_specialization {")
    lines.append('    label="specialization preorder";')
    for c in range(glob.num_classes):
        lines.append(f'    q{c} [label="{labels[c]}"];')
    for c in range(glob.num_classes):
        for d in iter_bits(nbrs[c]):
            if c != d:
                lines.append(f"    q{c} -> q{d};")
    lines.append("  }")
    lines.append("  subgraph cluster_translations {")
    lines.append('    label="translations (identity omitted)";')
    for c in range(glob.num_classes):
        lines.append(f'    a{c} [label="{labels[c]}"];')
    e = glob.source.group.identity
    for g in glob.source.group.elements():
        if g == e:
            continue
        for c in range(glob.num_classes):
            lines.append(f'    a{c} -> a{glob.action[g][c]} [label="{g}"];')
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _names_of(names: tuple[str, ...], mask: int) -> list[str]:
    return [names[x] for x in iter_bits(mask)]


def _parse_point_set(spec: ActionSpec, text: str) -> int:
    if not text:
        return 0
    names_idx = {name: i for i, name in enumerate(spec.names)}
    mask = 0
    for name in text.split(","):
        if name not in names_idx:
            raise SchemaError(f"--set: unknown point {name!r}", ("--set",))
        mask |= 1 << names_idx[name]
    return mask


def _parse_group_part(spec: ActionSpec, text: str) -> int:
    order = spec.pa.group.order
    if text == "all":
        return (1 << order) - 1
    mask = 0
    for part in text.split(","):
        if not (_is_decimal(part) and _below(part, order)):
            raise SchemaError(f"--open-g: bad element index {part!r}", ("--open-g",))
        mask |= 1 << int(part)
    return mask


# A stage function takes the values of the run (the parsed options,
# ``spec``, ``pa`` and what earlier stages added) and returns a Report to
# print, a dict to merge into the output data, or None.  It looks the
# engine functions up when it runs, so a wrapper bound over a name in
# this module (``cli.build``, say) sees every call.

def _gate(v: dict, rep: Report, quiet: bool = False) -> Report | None:
    """Add ``valid`` when ``rep`` passes; a quiet gate prints ``rep``
    only when it fails."""
    if rep.ok:
        v["valid"] = True
        if quiet:
            return None
    return rep


def _points(v: dict) -> dict:
    pa, names = v["pa"], v["spec"].names
    return {"points": {
        names[x]: {
            "orbit": _names_of(names, pa.orbits[x]),
            "stabilizer": list(iter_bits(stabilizer(pa, x))),
            "acting-set": list(iter_bits(pa.acting[x])),
        }
        for x in pa.space.points()
    }}


def _transform(v: dict) -> dict:
    transform = delta_transform if v["kind"] == "delta" else star_transform
    names = v["spec"].names
    return {
        "kind": v["kind"],
        "set": _names_of(names, v["a"]),
        "group-part": list(iter_bits(v["part"])),
        "result": _names_of(names, transform(v["pa"], v["a"], v["part"])),
    }


def _envelope(v: dict) -> dict:
    glob, names = v["glob"], v["spec"].names
    sep = topo.separation(glob.topology)
    return {
        "classes": [_class_label(glob, names, c) for c in range(glob.num_classes)],
        "embedding": {
            names[x]: _class_label(glob, names, glob.embedding[x])
            for x in glob.source.space.points()
        },
        "separation": {"t0": sep.t0, "t1": sep.t1, "t2": sep.t2},
    }


def _dot(v: dict) -> dict:
    with open(v["dot"], "w", encoding="utf-8") as fh:
        fh.write(dot_export(v["glob"], v["spec"].names))
    return {"dot": v["dot"]}


def _transversal(v: dict) -> Report:
    v["brep"] = transversal_topology(v["glob"], v["sel"])
    return v["brep"].report


def _continuity(v: dict) -> Report:
    v["rows"], cont = action_continuity_table(v["glob"], v["brep"])
    return cont


def _selector(v: dict) -> dict:
    glob, names, size = v["glob"], v["spec"].names, v["pa"].space.size
    return {
        "classes": [_class_label(glob, names, c) for c in range(glob.num_classes)],
        "transversal": [
            f"({p // size},{names[p % size]})" for p in iter_bits(transversal(v["sel"]))
        ],
        "tau-opens": [list(iter_bits(u)) for u in v["brep"].tau.opens],
        "discontinuities": [
            {"element": g, "class": _class_label(glob, names, c)}
            for g, row in enumerate(v["rows"])
            for c, ok in enumerate(row)
            if not ok
        ],
    }


# (name, needs, fn) in output order, along the chain of the construction:
# the action, its envelope, the transforms, the selector.  A stage runs
# when its command lists it and every value it needs is there; a
# PactopError fails it under its name.  A stage that prints a report is
# named after that report.
_STAGES = (
    ("point-set", (), lambda v: v.update(a=_parse_point_set(v["spec"], v["set"]))),
    ("group-part", (),
     lambda v: v.update(part=_parse_group_part(v["spec"], v["open_g"]))),
    ("well-formedness", (), lambda v: _gate(v, well_formedness(v["pa"]), quiet=True)),
    ("partial-action-validation", (), lambda v: _gate(v, validate(v["pa"]))),
    ("points", ("valid",), _points),
    ("transform", ("valid", "a"), _transform),
    ("envelope-construction", ("valid",), lambda v: v.update(glob=build(v["pa"]))),
    ("embedding", ("glob",), lambda v: embedding_report(v["glob"])),
    ("lift-orbit-relation", ("glob",), lambda v: hat_relation_report(v["glob"])),
    ("orbit-class-structure", ("glob",), lambda v: effros_report(v["pa"])),
    ("envelope", ("glob",), _envelope),
    ("dot", ("glob", "dot"), _dot),
    ("orbit-consistency", ("valid",), lambda v: orbit_consistency_report(v["pa"])),
    ("transform-identities", ("valid",),
     lambda v: transform_identities_report(v["pa"])),
    ("open-case-transform", ("valid", "a"),
     lambda v: open_case(v["pa"], v["a"], v["part"])
     if topo.is_open(v["pa"].space, v["a"]) else None),
    ("selector-construction", ("glob",),
     lambda v: v.update(sel=normalized_selector(v["pa"]))),
    ("transversal-topology", ("sel",), _transversal),
    ("translation-continuity", ("brep",), _continuity),
    ("bireducibility", ("brep",), lambda v: bireducibility_report(v["glob"], v["sel"])),
    ("orbit-enumeration", ("brep",), lambda v: orbit_homeomorphism_report(v["pa"])),
    ("selector", ("brep",), _selector),
)

_ENVELOPE = {"partial-action-validation", "envelope-construction", "embedding",
             "lift-orbit-relation", "orbit-class-structure"}
_SELECTOR = {"selector-construction", "transversal-topology", "translation-continuity",
             "bireducibility", "orbit-enumeration", "selector"}


class _Command(Record):
    """A subcommand: its line in ``pactop --help``, the stages it runs,
    and its options beyond ``spec`` and ``--format``, each a flag with
    the keywords of ``add_argument``."""

    help: str
    stages: set[str]
    options: tuple[tuple[str, dict], ...]

    def __init__(self, help: str, stages: set[str],
                 options: tuple[tuple[str, dict], ...] = ()):
        self._set("help", help)
        self._set("stages", stages)
        self._set("options", options)


# the commands in the order ``pactop --help`` lists them
_COMMANDS = {
    "validate": _Command("axioms in both formulations",
                         {"partial-action-validation", "orbit-consistency"}),
    "orbits": _Command("orbits, stabilizers, acting sets",
                       {"well-formedness", "points", "orbit-consistency"}),
    "globalize": _Command(
        "enveloping space and its checks", _ENVELOPE | {"envelope", "dot"},
        (("--dot", {"metavar": "PATH", "help": "write the DOT graph here"}),),
    ),
    "vaught": _Command(
        "category transforms",
        {"point-set", "group-part", "well-formedness", "transform",
         "transform-identities", "open-case-transform"},
        (("--set", {"default": "", "help": "comma-separated point names"}),
         ("--open-g", {"default": "all", "dest": "open_g",
                       "help": "comma-separated element indices, or 'all'"}),
         ("--kind", {"choices": ("delta", "star"), "default": "delta"})),
    ),
    "selector": _Command("transversal topology and reductions", _ENVELOPE | _SELECTOR),
    "report": _Command("everything", _ENVELOPE | _SELECTOR | {
        "envelope", "orbit-consistency", "transform-identities"}),
}


def _run(spec: ActionSpec, args) -> tuple[dict, list[Report]]:
    """Run the stages of ``args.command`` in table order and collect the
    output data and the reports.  A bad option raises SchemaError; an
    unwritable DOT path raises OSError."""
    v = {**vars(args), "spec": spec, "pa": spec.pa}
    data: dict = {}
    reports: list[Report] = []
    stages = _COMMANDS[args.command].stages
    for name, needs, fn in _STAGES:
        if name not in stages or any(v.get(n) is None for n in needs):
            continue
        try:
            out = fn(v)
        except SchemaError:
            raise
        except PactopError as exc:
            out = Report(name, (Check(str(exc), FAIL, tuple(exc.witness)),))
        if isinstance(out, Report):
            reports.append(out)
        elif out:
            data.update(out)
    return data, reports


# the option every command takes, besides those in its _Command
_FORMAT = ("--format", {"choices": ("text", "json"), "default": "text"})


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """The attributes of the Namespace ``_build_parser()`` returns for
    ``argv``, read without importing argparse or building a parser, as a
    SimpleNamespace, or None when ``argv`` is not of the plain form: a
    command, one spec that does not start with ``-``, and options of that
    command spelled out in full, each followed by a value that does not
    start with ``-`` and is among its choices.  A repeated option keeps
    its last value, as in argparse."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    options = dict((_FORMAT, *_COMMANDS[argv[0]].options))
    given: dict[str, str] = {}
    spec = None
    tokens = iter(argv[1:])
    for token in tokens:
        if token in options:
            value = next(tokens, "-")  # a missing value declines too
            if value.startswith("-") or value not in options[token].get("choices", (value,)):
                return None
            given[token] = value
        elif token.startswith("-") or spec is not None:
            return None
        else:
            spec = token
    if spec is None:
        return None
    args = SimpleNamespace(command=argv[0], spec=spec)
    for flag, keywords in options.items():
        dest = keywords.get("dest", flag[2:].replace("-", "_"))
        setattr(args, dest, given.get(flag, keywords.get("default")))
    return args


def _build_parser():
    """The argparse parser of every command."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="pactop",
        description="validate and analyze partial actions of finite groups "
        "on finite topological spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=_COMMANDS[name].help)
        p.add_argument("spec", help="JSON action document")
        for flag, options in (_FORMAT, *_COMMANDS[name].options):
            p.add_argument(flag, **options)
    return parser


def _dumps(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte, for
    the values the output holds: dicts with str keys, lists, tuples,
    strs, ints, bools, None and ``Report`` trees, each written as the dict
    of its ``checks``, ``name``, ``sections`` and ``status``.  Any other
    value, a float, a set or a key that is not a str, raises TypeError.
    One recursive writer appends to one list, joined once, where
    ``json.dumps`` with an indent runs the standard library's pure-Python
    generator chain."""
    out: list[str] = []
    _write(value, "\n", out.append)
    return "".join(out)


def _write(value, newline: str, put) -> None:
    # ``newline`` is a line break and the indent of the line ``value``
    # starts on; strs go through the standard encoder's own C escaper
    kind = type(value)
    if kind is str:
        put(_escape(value))
    elif kind is int:
        put(int.__repr__(value))
    elif kind is dict:
        if not value:
            put("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"key {key!r} is not a str")
            put(sep + _escape(key) + ": ")
            _write(value[key], inner, put)
            sep = "," + inner
        put(newline + "}")
    elif kind is Report:
        # the keys in sorted order, as literal text, for the report and
        # each check; the witnesses and sections go through _write
        inner = newline + "  "
        item = inner + "  "
        key = item + "  "
        sep = "[" + item
        put("{" + inner + '"checks": ')
        for c in value.checks:
            put(sep + "{" + key + '"detail": ' + _escape(c.detail) + "," + key
                + '"name": ' + _escape(c.name) + "," + key + '"status": '
                + _escape(c.status) + "," + key + '"witness": ')
            _write(c.witness, key, put)
            put(item + "}")
            sep = "," + item
        put((inner + "]," if value.checks else "[],") + inner + '"name": '
            + _escape(value.name) + "," + inner + '"sections": ')
        _write(value.sections, inner, put)
        put("," + inner + ('"status": "pass"' if value.ok else '"status": "fail"')
            + newline + "}")
    elif kind is list or kind is tuple:
        if not value:
            put("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            put(sep)
            _write(item, inner, put)
            sep = "," + inner
        put(newline + "]")
    elif kind is bool:
        put("true" if value else "false")
    elif value is None:
        put("null")
    else:
        raise TypeError(f"cannot write {kind.__name__} {value!r}")


def _render(label: str, command: str, data: dict,
            reports: list[Report], fmt: str) -> tuple[str, bool]:
    ok = all(r.ok for r in reports)
    if fmt == "json":
        payload = {
            "label": label,
            "command": command,
            "overall": "pass" if ok else "fail",
            "data": data,
            "reports": reports,
        }
        return _dumps(payload), ok
    lines = []
    if label:
        lines.append(f"# {label}")
    if data:
        lines.append(_dumps(data))
    for r in reports:
        lines.append(r.render_text())
    lines.append("OVERALL " + ("PASS" if ok else "FAIL"))
    return "\n".join(lines), ok


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_argv(argv)
    if args is None:  # argparse prints help, usage and every error
        args = _build_parser().parse_args(argv)
    try:
        with open(args.spec, "rb") as fh:
            document = fh.read()
    except OSError as exc:
        print(f"error: cannot read {args.spec}: {exc}", file=sys.stderr)
        return 2
    try:
        spec = parse(document)
        data, reports = _run(spec, args)
    except (ParseError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # the DOT file is the only thing a run writes
        print(f"error: cannot write {exc.filename}: {exc}", file=sys.stderr)
        return 2
    text, ok = _render(spec.label, args.command, data, reports, args.format)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # the reader quit; with stdout on devnull the flush at exit
        # finds nothing left to write
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write the output: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1

"""File-driven front end.

Reads a JSON action document, runs the requested construction and
checks, and prints either a human-readable text report or a canonical
JSON one.  Exit codes: 0 all checks pass, 1 at least one check failed
(the witnesses are in the output), 2 the input could not be parsed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from . import topology as topo
from .errors import PactopError, ParseError, SchemaError
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


@dataclass(frozen=True)
class ActionSpec:
    """A parsed action document: resolved tables plus the point names."""

    label: str
    names: tuple[str, ...]
    pa: PartialAction


def _expect(cond: bool, path: str, what: str) -> None:
    if not cond:
        raise SchemaError(f"{path}: {what}", (path,))


def _mask_from_names(values, names_idx: dict[str, int], path: str) -> int:
    _expect(isinstance(values, list), path, "expected a list of point names")
    mask = 0
    for i, name in enumerate(values):
        _expect(isinstance(name, str), f"{path}/{i}", "expected a point name")
        _expect(name in names_idx, f"{path}/{i}", f"unknown point {name!r}")
        bit = 1 << names_idx[name]
        _expect(not mask & bit, f"{path}/{i}", f"duplicate point {name!r}")
        mask |= bit
    return mask


def _parse_group(doc, path: str) -> FiniteGroup:
    _expect(isinstance(doc, dict), path, "expected an object")
    kind = doc.get("kind")
    if kind == "cyclic":
        _expect(set(doc) == {"kind", "order"}, path, "cyclic group takes only order")
        order = doc.get("order")
        _expect(isinstance(order, int) and order >= 1, f"{path}/order",
                "expected a positive integer")
        return cyclic(order)
    if kind == "table":
        _expect(set(doc) == {"kind", "table"}, path, "table group takes only table")
        table = doc.get("table")
        _expect(isinstance(table, list) and table, f"{path}/table",
                "expected a nonempty list of rows")
        n = len(table)
        for i, row in enumerate(table):
            _expect(
                isinstance(row, list) and len(row) == n
                and all(isinstance(v, int) and 0 <= v < n for v in row),
                f"{path}/table/{i}", f"expected a list of {n} integers in 0..{n - 1}",
            )
        try:
            return make_group(tuple(tuple(row) for row in table))
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
        _expect(isinstance(name, str) and name, f"{path}/points/{i}",
                "expected a nonempty string")
    _expect(len(set(points)) == len(points), f"{path}/points", "duplicate names")
    names = tuple(points)
    names_idx = {name: i for i, name in enumerate(names)}
    opens_doc = doc["opens"]
    _expect(isinstance(opens_doc, list), f"{path}/opens", "expected a list of sets")
    masks = [
        _mask_from_names(u, names_idx, f"{path}/opens/{i}")
        for i, u in enumerate(opens_doc)
    ]
    reason = topo.family_is_topology(len(names), masks)
    _expect(reason is None, f"{path}/opens", f"not a topology: {reason}")
    return names, FinTop(len(names), tuple(masks))


def _element_key(key: str, order: int, path: str) -> int:
    _expect(isinstance(key, str) and key.isdigit(), f"{path}/{key}",
            "keys are decimal element indices")
    g = int(key)
    _expect(g < order, f"{path}/{key}", f"element index out of range 0..{order - 1}")
    return g


def parse(document: str | bytes) -> ActionSpec:
    """Parse a JSON action document into resolved tables.

    Malformed JSON raises ParseError; a document that is valid JSON but
    breaks the schema raises SchemaError carrying a JSON-pointer-style
    path to the offending spot.
    """
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
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
            _expect(src in names_idx, f"/maps/{key}/{src}",
                    f"unknown point {src!r}")
            _expect(isinstance(dst, str) and dst in names_idx,
                    f"/maps/{key}/{src}", f"unknown point {dst!r}")
            maps[g][names_idx[src]] = names_idx[dst]

    pa = PartialAction(group, space, tuple(dom), tuple(tuple(r) for r in maps))
    return ActionSpec(label, names, pa)


def serialize(spec: ActionSpec) -> dict:
    """Canonical document for an ActionSpec; parse inverts it."""
    pa = spec.pa
    group_doc: dict
    k = pa.group.order
    if pa.group.mul == cyclic(k).mul:
        group_doc = {"kind": "cyclic", "order": k}
    else:
        group_doc = {"kind": "table", "table": [list(r) for r in pa.group.mul]}

    def name_list(mask: int) -> list[str]:
        return [spec.names[x] for x in iter_bits(mask)]

    return {
        "label": spec.label,
        "group": group_doc,
        "space": {
            "points": list(spec.names),
            "opens": [name_list(u) for u in pa.space.opens],
        },
        "domains": {str(g): name_list(pa.dom[g]) for g in pa.group.elements()},
        "maps": {
            str(g): {
                spec.names[x]: spec.names[pa.maps[g][x]]
                for x in pa.space.points()
                if pa.maps[g][x] >= 0
            }
            for g in pa.group.elements()
        },
    }


def _stage(reports: list[Report], name: str, fn) -> object | None:
    """Run a stage and append the Report it returns.  A PactopError
    becomes a failing report named after the stage, and the result is
    None so that the caller skips the stages that need it."""
    try:
        out = fn()
    except PactopError as exc:
        reports.append(Report(name, (Check(str(exc), FAIL, tuple(exc.witness)),)))
        return None
    if isinstance(out, Report):
        reports.append(out)
    return out


def _class_label(glob: Globalization, names: tuple[str, ...], c: int) -> str:
    g, x = glob.reps[c]
    return f"({g},{names[x]})"


def dot_export(glob: Globalization, names: tuple[str, ...]) -> str:
    """DOT digraph with two clusters: the specialization preorder of
    the envelope topology (edge c -> d when c lies in the closure of
    {d}) and the translation graph (identity edges omitted)."""
    nbrs = topo.minimal_neighborhoods(glob.topology)
    lines = ["digraph envelope {"]
    lines.append("  subgraph cluster_specialization {")
    lines.append('    label="specialization preorder";')
    for c in range(glob.num_classes):
        lines.append(f'    q{c} [label="{_class_label(glob, names, c)}"];')
    for c in range(glob.num_classes):
        for d in iter_bits(nbrs[c]):
            if c != d:
                lines.append(f"    q{c} -> q{d};")
    lines.append("  }")
    lines.append("  subgraph cluster_translations {")
    lines.append('    label="translations (identity omitted)";')
    for c in range(glob.num_classes):
        lines.append(f'    a{c} [label="{_class_label(glob, names, c)}"];')
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


def _cmd_validate(spec: ActionSpec, args) -> tuple[dict, list[Report]]:
    reports = [validate(spec.pa)]
    if reports[0].ok:
        _stage(reports, "orbit-consistency", lambda: orbit_consistency_report(spec.pa))
    return {}, reports


def _cmd_orbits(spec: ActionSpec, args) -> tuple[dict, list[Report]]:
    pa = spec.pa
    wf = well_formedness(pa)
    if not wf.ok:
        return {}, [wf]
    reports: list[Report] = []
    table = {
        spec.names[x]: {
            "orbit": _names_of(spec.names, pa.orbits[x]),
            "stabilizer": sorted(iter_bits(stabilizer(pa, x))),
            "acting-set": sorted(iter_bits(pa.acting[x])),
        }
        for x in pa.space.points()
    }
    _stage(reports, "orbit-consistency", lambda: orbit_consistency_report(pa))
    return {"points": table}, reports


def _globalize_stack(
    spec: ActionSpec, reports: list[Report]
) -> Globalization | None:
    rep = validate(spec.pa)
    reports.append(rep)
    if not rep.ok:
        return None
    glob = _stage(reports, "envelope-construction", lambda: build(spec.pa))
    if glob is None:
        return None
    reports.append(embedding_report(glob))
    reports.append(hat_relation_report(glob))
    reports.append(effros_report(spec.pa))
    return glob


def _classes(glob: Globalization, names: tuple[str, ...]) -> list[str]:
    return [_class_label(glob, names, c) for c in range(glob.num_classes)]


def _glob_data(glob: Globalization, names: tuple[str, ...]) -> dict:
    sep = topo.separation(glob.topology)
    return {
        "classes": _classes(glob, names),
        "embedding": {
            names[x]: _class_label(glob, names, glob.embedding[x])
            for x in glob.source.space.points()
        },
        "separation": {"t0": sep.t0, "t1": sep.t1, "t2": sep.t2},
    }


def _cmd_globalize(spec: ActionSpec, args) -> tuple[dict, list[Report]]:
    reports: list[Report] = []
    glob = _globalize_stack(spec, reports)
    data: dict = {}
    if glob is not None:
        data = _glob_data(glob, spec.names)
        if args.dot:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(dot_export(glob, spec.names))
            data["dot"] = args.dot
    return data, reports


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
        if not part.isdigit() or int(part) >= order:
            raise SchemaError(f"--open-g: bad element index {part!r}", ("--open-g",))
        mask |= 1 << int(part)
    if mask == 0:
        raise SchemaError("--open-g: group part must be nonempty", ("--open-g",))
    return mask


def _cmd_vaught(spec: ActionSpec, args) -> tuple[dict, list[Report]]:
    pa = spec.pa
    a = _parse_point_set(spec, args.set)
    v = _parse_group_part(spec, args.open_g)
    wf = well_formedness(pa)
    if not wf.ok:
        return {}, [wf]
    reports: list[Report] = []
    transform = delta_transform if args.kind == "delta" else star_transform
    result = transform(pa, a, v)
    data = {
        "kind": args.kind,
        "set": _names_of(spec.names, a),
        "group-part": sorted(iter_bits(v)),
        "result": _names_of(spec.names, result),
    }
    _stage(reports, "transform-identities", lambda: transform_identities_report(pa))
    if topo.is_open(pa.space, a):
        _stage(reports, "open-case-transform", lambda: open_case(pa, a, v))
    return data, reports


def _selector_stack(
    spec: ActionSpec, glob: Globalization, reports: list[Report]
) -> dict:
    pa = spec.pa
    sel = _stage(reports, "selector-construction", lambda: normalized_selector(pa))
    if sel is None:
        return {}
    brep = _stage(reports, "transversal-topology",
                  lambda: transversal_topology(glob, sel))
    if brep is None:
        return {}
    reports.append(brep.report)
    rows, cont = action_continuity_table(glob, brep)
    reports.append(cont)
    reports.append(bireducibility_report(glob, sel))
    reports.append(orbit_homeomorphism_report(pa))
    size = pa.space.size
    t_pairs = [
        f"({p // size},{spec.names[p % size]})" for p in iter_bits(transversal(sel))
    ]
    discontinuities = [
        {"element": g, "class": _class_label(glob, spec.names, c)}
        for g, row in enumerate(rows)
        for c, ok in enumerate(row)
        if not ok
    ]
    return {
        "transversal": t_pairs,
        "tau-opens": [sorted(iter_bits(u)) for u in brep.tau.opens],
        "discontinuities": discontinuities,
    }


def _cmd_selector(spec: ActionSpec, args) -> tuple[dict, list[Report]]:
    reports: list[Report] = []
    glob = _globalize_stack(spec, reports)
    if glob is None:
        return {}, reports
    data = _selector_stack(spec, glob, reports)
    if data:
        data["classes"] = _classes(glob, spec.names)
    return data, reports


def _cmd_report(spec: ActionSpec, args) -> tuple[dict, list[Report]]:
    reports: list[Report] = []
    glob = _globalize_stack(spec, reports)
    if glob is None:
        return {}, reports
    _stage(reports, "orbit-consistency", lambda: orbit_consistency_report(spec.pa))
    _stage(reports, "transform-identities",
           lambda: transform_identities_report(spec.pa))
    data = _glob_data(glob, spec.names)
    data.update(_selector_stack(spec, glob, reports))
    return data, reports


_COMMANDS = {
    "validate": _cmd_validate,
    "orbits": _cmd_orbits,
    "globalize": _cmd_globalize,
    "vaught": _cmd_vaught,
    "selector": _cmd_selector,
    "report": _cmd_report,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pactop",
        description="validate and analyze partial actions of finite groups "
        "on finite topological spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("spec", help="JSON action document")
        p.add_argument("--format", choices=("text", "json"), default="text")

    common(sub.add_parser("validate", help="axioms in both formulations"))
    common(sub.add_parser("orbits", help="orbits, stabilizers, acting sets"))
    p = sub.add_parser("globalize", help="enveloping space and its checks")
    common(p)
    p.add_argument("--dot", metavar="PATH", help="write the DOT graph here")
    p = sub.add_parser("vaught", help="category transforms")
    common(p)
    p.add_argument("--set", default="", help="comma-separated point names")
    p.add_argument("--open-g", default="all", dest="open_g",
                   help="comma-separated element indices, or 'all'")
    p.add_argument("--kind", choices=("delta", "star"), default="delta")
    common(sub.add_parser("selector", help="transversal topology and reductions"))
    common(sub.add_parser("report", help="everything"))
    return parser


def _render(label: str, command: str, data: dict,
            reports: list[Report], fmt: str) -> tuple[str, bool]:
    ok = all(r.ok for r in reports)
    if fmt == "json":
        payload = {
            "label": label,
            "command": command,
            "overall": "pass" if ok else "fail",
            "data": data,
            "reports": [r.to_dict() for r in reports],
        }
        return json.dumps(payload, indent=2, sort_keys=True), ok
    lines = []
    if label:
        lines.append(f"# {label}")
    if data:
        lines.append(json.dumps(data, indent=2, sort_keys=True))
    for r in reports:
        lines.append(r.render_text())
    lines.append("OVERALL " + ("PASS" if ok else "FAIL"))
    return "\n".join(lines), ok


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.spec, "rb") as fh:
            document = fh.read()
    except OSError as exc:
        print(f"error: cannot read {args.spec}: {exc}", file=sys.stderr)
        return 2
    try:
        spec = parse(document)
        data, reports = _COMMANDS[args.command](spec, args)
    except (ParseError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text, ok = _render(spec.label, args.command, data, reports, args.format)
    print(text)
    return 0 if ok else 1

from __future__ import annotations

import argparse
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import references
from pactop import (
    all_topologies,
    build,
    cli,
    cyclic,
    discrete,
    example_k3,
    induced,
    mutant_family,
    paction,
)
from pactop.cli import ActionSpec, main, parse, serialize
from pactop.errors import ParseError, SchemaError
from pactop.instances import coset_rows
from pactop.reports import FAIL, INFO, NA, PASS, Check, Report

EXAMPLE = str(resources.files("pactop").joinpath("data/example48.json"))
ROOT = Path(__file__).resolve().parents[1]


def run_cli(*args: str, timeout: float = 60) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "pactop", *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)


def example_doc() -> dict:
    with open(EXAMPLE, encoding="utf-8") as fh:
        return json.load(fh)


def test_example_k3_is_the_bundled_document():
    # the library's example and the bundled document are one instance:
    # an edit to either (a map entry flipped, say) shows here
    with open(EXAMPLE, encoding="utf-8") as fh:
        assert parse(fh.read()).pa == example_k3()


def test_report_passes_and_output_is_stable():
    first = run_cli("report", EXAMPLE, "--format", "json")
    second = run_cli("report", EXAMPLE, "--format", "json")
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["overall"] == "pass"
    assert payload["data"]["separation"] == {"t0": True, "t1": False, "t2": False}
    assert len(payload["data"]["classes"]) == 4


def test_report_text_format():
    res = run_cli("report", EXAMPLE)
    assert res.returncode == 0
    assert res.stdout.rstrip().endswith("OVERALL PASS")


def test_validate_passes():
    res = run_cli("validate", EXAMPLE, "--format", "json")
    assert res.returncode == 0


def test_mutated_document_fails_with_named_witness(tmp_path):
    doc = example_doc()
    doc["maps"]["1"]["v"] = "x0"
    bad = tmp_path / "mutated.json"
    bad.write_text(json.dumps(doc))
    res = run_cli("validate", str(bad))
    assert res.returncode == 1
    assert "OVERALL FAIL" in res.stdout
    assert "[fail] each map is a bijection onto its range set" in res.stdout
    assert "witness=" in res.stdout


def test_malformed_json_exits_2(tmp_path):
    bad = tmp_path / "garbage.json"
    bad.write_text("{not json at all")
    res = run_cli("validate", str(bad))
    assert res.returncode == 2
    assert "error:" in res.stderr
    with pytest.raises(ParseError, match="^not valid JSON: "):
        parse("{not json at all")


@pytest.mark.parametrize("document", [
    b"\xff\xfe{",  # not decodable as JSON text
    b"[" * 200_000 + b"]" * 200_000,  # nested deeper than the decoder recurses
], ids=["undecodable", "deep"])
def test_undecodable_json_exits_2(tmp_path, document):
    bad = tmp_path / "bad.json"
    bad.write_bytes(document)
    res = run_cli("validate", str(bad))
    assert res.returncode == 2
    assert "error:" in res.stderr
    assert "Traceback" not in res.stderr
    with pytest.raises(ParseError, match="^not valid JSON: "):
        parse(document)


def test_schema_error_exits_2(tmp_path):
    doc = example_doc()
    del doc["maps"]
    bad = tmp_path / "nomap.json"
    bad.write_text(json.dumps(doc))
    res = run_cli("validate", str(bad))
    assert res.returncode == 2
    assert "/maps" in res.stderr


def test_group_table_shape_error_exits_2(tmp_path):
    for table in ([[0, 1], [1]], [[0, 1], [1, 2]]):
        doc = {"group": {"kind": "table", "table": table},
               "space": {"points": ["a"], "opens": [[], ["a"]]},
               "domains": {"0": ["a"], "1": ["a"]},
               "maps": {"0": {"a": "a"}, "1": {"a": "a"}}}
        bad = tmp_path / "table.json"
        bad.write_text(json.dumps(doc))
        res = run_cli("validate", str(bad))
        assert res.returncode == 2, res.stderr
        assert "/group/table/1" in res.stderr
        assert "Traceback" not in res.stderr


@pytest.mark.parametrize("group, where", [
    ({"kind": "cyclic", "order": True}, "/group/order"),
    ({"kind": "table", "table": [[False]]}, "/group/table/0"),
], ids=["order", "table"])
def test_boolean_group_entries_exit_2(tmp_path, group, where):
    # JSON booleans decode to bool, which Python counts as an int
    doc = {"group": group, "space": {"points": ["a"], "opens": [[], ["a"]]},
           "domains": {"0": ["a"]}, "maps": {"0": {"a": "a"}}}
    bad = tmp_path / "bool-group.json"
    bad.write_text(json.dumps(doc))
    res = run_cli("validate", str(bad))
    assert res.returncode == 2, res.stdout
    assert "Traceback" not in res.stderr
    assert f"{where}: expected" in res.stderr


@pytest.mark.parametrize("section", ["domains", "maps"])
@pytest.mark.parametrize("key", ["²", "01", "1" * 5000])
def test_parse_rejects_noncanonical_element_keys(section, key):
    # "²" passes str.isdigit but not int(); "01" would overwrite "1";
    # int() refuses more than 4300 digits
    doc = example_doc()
    doc[section][key] = doc[section]["1"]
    with pytest.raises(SchemaError) as exc:
        parse(json.dumps(doc))
    assert exc.value.witness == (f"/{section}/{key}",)


def test_noncanonical_keys_exit_2(tmp_path):
    doc = example_doc()
    doc["maps"]["²"] = doc["maps"].pop("1")
    bad = tmp_path / "superscript.json"
    bad.write_text(json.dumps(doc))
    for args in (["validate", str(bad)], ["vaught", EXAMPLE, "--open-g", "²"],
                 ["vaught", EXAMPLE, "--open-g", "01"]):
        res = run_cli(*args)
        assert res.returncode == 2, args
        assert "Traceback" not in res.stderr
    assert "/maps/²" in run_cli("validate", str(bad)).stderr


@pytest.mark.parametrize("group, where", [
    ({"kind": "cyclic", "order": 257}, "/group/order"),
    ({"kind": "table", "table": [[(g + h) % 257 for h in range(257)]
                                 for g in range(257)]}, "/group/table"),
], ids=["cyclic", "table"])
def test_group_order_limit_exits_2(tmp_path, group, where):
    doc = {"group": group, "space": {"points": ["a"], "opens": [[], ["a"]]},
           "domains": {"0": ["a"]}, "maps": {"0": {"a": "a"}}}
    bad = tmp_path / "big-group.json"
    bad.write_text(json.dumps(doc))
    res = run_cli("validate", str(bad), timeout=30)
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    message = f"{where}: size limit hit: 257 group order exceed the 256 allowed"
    assert message in res.stderr
    # and in process: the parser turns the group's LimitExceeded into a
    # SchemaError at the same path
    with pytest.raises(SchemaError) as exc:
        parse(json.dumps(doc))
    assert (str(exc.value), exc.value.witness) == (message, (where,))


def test_cyclic_group_of_the_largest_order_validates(tmp_path):
    # order 256 is the limit itself: cyclic builds its table from the
    # formula, so a one-point document validates at once
    doc = {"group": {"kind": "cyclic", "order": 256},
           "space": {"points": ["a"], "opens": [[], ["a"]]},
           "domains": {"0": ["a"]}, "maps": {"0": {"a": "a"}}}
    path = tmp_path / "c256.json"
    path.write_text(json.dumps(doc))
    res = run_cli("validate", str(path), timeout=30)
    assert res.returncode == 0, res.stderr
    assert res.stdout.endswith("OVERALL PASS\n")


def test_report_passes_on_rotation_of_six_points_minus_one(tmp_path):
    # C3 rotating two blocks of three discrete points, point 4 dropped
    rows = coset_rows(cyclic(3), [[0]] * 2)
    pa = induced(cyclic(3), discrete(6), rows, 0b101111)
    names = tuple(f"x{i}" for i in range(pa.space.size))
    doc = tmp_path / "c3_6_minus_one.json"
    doc.write_text(json.dumps(serialize(ActionSpec("c3", names, pa))))
    res = run_cli("report", str(doc), "--format", "json")
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["overall"] == "pass"


@pytest.mark.parametrize("command", [["report"], ["vaught", "--set", "p"]])
def test_transform_limit_fails_at_once(tmp_path, command):
    # 2 point sets times 2**25 - 1 group parts, 64 times the old transform
    # limit: the identities are decided per element, at once, and pass
    pa = induced(cyclic(25), discrete(1), [(0,)] * 25, 1)
    doc = tmp_path / "c25.json"
    doc.write_text(json.dumps(serialize(ActionSpec("c25", ("p",), pa))))
    res = run_cli(command[0], str(doc), *command[1:], timeout=30)
    assert res.returncode == 0, res.stderr
    assert "Traceback" not in res.stderr
    assert "[PASS] transform-identities\n" in res.stdout
    assert (
        "  [info] combinations checked witness=[67108862, 33554431]"
        " (point sets times group parts, both transforms)\n"
    ) in res.stdout


def test_identity_domain_must_be_full(tmp_path):
    doc = example_doc()
    doc["domains"]["0"] = ["v"]
    bad = tmp_path / "idgap.json"
    bad.write_text(json.dumps(doc))
    res = run_cli("validate", str(bad))
    assert res.returncode == 2
    assert "/domains/0" in res.stderr


def test_missing_file_exits_2(tmp_path):
    res = run_cli("validate", str(tmp_path / "absent.json"))
    assert res.returncode == 2


def test_unknown_command_exits_2():
    res = run_cli("frobnicate", EXAMPLE)
    assert res.returncode == 2


def test_unknown_point_in_set_exits_2():
    res = run_cli("vaught", EXAMPLE, "--set", "bogus")
    assert res.returncode == 2
    assert "--set" in res.stderr


def test_vaught_vacuous_star():
    res = run_cli(
        "vaught", EXAMPLE, "--set", "", "--open-g", "1", "--kind", "star",
        "--format", "json",
    )
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    assert payload["data"]["result"] == ["x0"]
    assert payload["data"]["group-part"] == [1]


def test_vaught_delta_full():
    res = run_cli(
        "vaught", EXAMPLE, "--set", "x0,v", "--open-g", "all", "--format", "json"
    )
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["data"]["result"] == ["x0", "v"]


@pytest.mark.parametrize("command", [
    ["orbits"], ["vaught"], ["vaught", "--kind", "star", "--set", "v"],
])
def test_ill_formed_tables_fail_without_traceback(tmp_path, command):
    # the map of element 1 is undefined at v, a point of dom(inv(1))
    doc = example_doc()
    doc["maps"]["1"] = {}
    bad = tmp_path / "ill-formed.json"
    bad.write_text(json.dumps(doc))
    res = run_cli(*command[:1], str(bad), *command[1:], "--format", "json")
    assert res.returncode == 1
    assert "Traceback" not in res.stderr
    payload = json.loads(res.stdout)
    assert payload["overall"] == "fail"
    failing = {
        c["name"]: c["witness"]
        for r in payload["reports"] for c in r["checks"] if c["status"] == "fail"
    }
    assert failing["map of element 1 defined exactly on dom(inv(g))"] == [1, 1]


def test_orbits_output():
    res = run_cli("orbits", EXAMPLE, "--format", "json")
    assert res.returncode == 0
    points = json.loads(res.stdout)["data"]["points"]
    assert points["x0"] == {
        "orbit": ["x0"], "stabilizer": [0], "acting-set": [0]
    }
    assert points["v"] == {
        "orbit": ["v"], "stabilizer": [0, 1, 2], "acting-set": [0, 1, 2]
    }


def test_globalize_dot_export(tmp_path):
    out = tmp_path / "envelope.dot"
    res = run_cli("globalize", EXAMPLE, "--dot", str(out), "--format", "json")
    assert res.returncode == 0
    text = out.read_text()
    assert text.startswith("digraph envelope {")
    assert "cluster_specialization" in text
    assert "cluster_translations" in text
    assert 'q1 [label="(0,v)"]' in text
    # translating the identity-slice basepoint lands in the slice of 1
    assert 'a0 -> a2 [label="1"]' in text
    payload = json.loads(res.stdout)
    assert payload["data"]["dot"] == str(out)


@pytest.mark.parametrize("names", [("a",), ("a", "b", "c")], ids=["one", "three"])
def test_names_must_match_the_carrier(names):
    # one name per point of the two-point carrier: fewer would raise
    # IndexError, more would serialize a document parse refuses
    pa = example_k3()
    message = f"{len(names)} point names for a carrier of 2 points"
    with pytest.raises(ValueError, match=message):
        ActionSpec("", names, pa)
    with pytest.raises(ValueError, match=message):
        cli.dot_export(build(pa), names)


def test_dot_labels_escape_quotes_and_backslashes(tmp_path):
    with open(EXAMPLE, "rb") as fh:
        spec = parse(fh.read())
    names = ('a"b', "c\\")
    doc = tmp_path / "quoted.json"
    doc.write_text(json.dumps(serialize(ActionSpec(spec.label, names, spec.pa))))
    out = tmp_path / "envelope.dot"
    res = run_cli("globalize", str(doc), "--dot", str(out), "--format", "json")
    assert res.returncode == 0, res.stderr
    classes = json.loads(res.stdout)["data"]["classes"]
    assert classes == ['(0,a"b)', "(0,c\\)", '(1,a"b)', '(2,a"b)']
    # each label attribute is one quoted string: no unescaped quote inside,
    # and a backslash always escapes the next character
    quoted = re.compile(r'label="((?:[^"\\]|\\.)*)"(?:\]|;)')
    node_labels = []
    for line in out.read_text().splitlines():
        if "label=" in line:
            match = quoted.search(line)
            assert match and line.endswith(";") and line.count("label=") == 1, line
            if "->" not in line and "[" in line:
                node_labels.append(re.sub(r"\\(.)", r"\1", match.group(1)))
    assert node_labels == classes * 2


def test_unwritable_dot_path_exits_2(tmp_path):
    out = tmp_path / "missing" / "envelope.dot"
    res = run_cli("globalize", EXAMPLE, "--dot", str(out))
    assert res.returncode == 2
    assert f"error: cannot write {out}:" in res.stderr
    assert "Traceback" not in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("command, verb", [("validate", "read"), ("globalize", "write")])
def test_read_and_dot_write_errors_exit_2_in_process(command, verb, tmp_path):
    # main's exits for a spec path that cannot be read and a DOT path in
    # a missing directory, in this process; the closed-pipe exit below
    # needs a real pipe, so it runs in a subprocess only
    path = tmp_path / "missing" / ("doc.json" if verb == "read" else "envelope.dot")
    argv = [command, str(path)] if verb == "read" else [command, EXAMPLE, "--dot", str(path)]
    out, err, code = run_main(argv)
    assert (out, code) == ("", 2)
    assert err.startswith(f"error: cannot {verb} {path}: ")
    assert err.count("\n") == 1 and err.endswith("\n"), err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_closed_output_pipe_exits_2(fmt):
    # the read end is closed before the child starts, so its first write
    # fails whatever the timing; behind "| head" a report that fits in
    # the pipe buffer may be written whole before head quits
    read, write = os.pipe()
    os.close(read)
    try:
        res = subprocess.run(
            [sys.executable, "-m", "pactop", "report", EXAMPLE, "--format", fmt],
            stdout=write, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    finally:
        os.close(write)
    assert res.returncode == 2
    assert "error: cannot write the output:" in res.stderr
    assert "Traceback" not in res.stderr
    assert "Exception ignored" not in res.stderr


GOLDEN = ROOT / "tests" / "golden"
GOLDEN_CASES = {
    "validate": ["validate"],
    "orbits": ["orbits"],
    "globalize": ["globalize", "--dot", "envelope.dot"],
    "selector": ["selector"],
    "report": ["report"],
    "vaught": ["vaught"],
    "vaught-star": ["vaught", "--set", "v", "--open-g", "1", "--kind", "star"],
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("case", list(GOLDEN_CASES))
def test_golden_output(case, fmt, tmp_path, monkeypatch, capsys):
    # tests/golden holds each command's output on the bundled example,
    # byte for byte; only a declared change of output format rewrites it
    monkeypatch.chdir(tmp_path)
    args = GOLDEN_CASES[case]
    code = main([args[0], EXAMPLE, *args[1:], "--format", fmt])
    assert code == 0
    ext = "json" if fmt == "json" else "txt"
    assert capsys.readouterr().out == (GOLDEN / f"{case}.{ext}").read_text()
    if "--dot" in args:
        assert (tmp_path / "envelope.dot").read_text() == (
            GOLDEN / "globalize.dot").read_text()


def test_report_never_builds_the_lifted_action(monkeypatch, capsys):
    # every stage that reads the lifted orbit relation reads the one
    # cached table, computed by its formula, so the golden report comes
    # out byte for byte with the lifted action refused
    def refuse(pa):
        raise AssertionError("the lifted action was built")

    monkeypatch.setattr(paction, "lifted_action", refuse)
    assert main(["report", EXAMPLE, "--format", "json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "report.json").read_text()


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_render_writes_without_json_dumps(fmt, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps called")

    monkeypatch.setattr(json, "dumps", refuse)
    assert main(["report", EXAMPLE, "--format", fmt]) == 0
    ext = "json" if fmt == "json" else "txt"
    assert capsys.readouterr().out == (GOLDEN / f"report.{ext}").read_text()


# strs the escaper treats apart: quotes, backslashes, control and
# non-ASCII characters (outside the BMP as surrogate pairs), lone surrogates
SPECIAL_STRS = ["", '"', "\\", "\x00", "\n\t\r\b\f", "\x7f", "é", "\u2028",
                "\U0001f600", "\ud800", 'a "b" \\c']
json_scalars = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(min_value=-(1 << 80), max_value=1 << 80),
    st.sampled_from([1 << 64, -(1 << 64) - 1]),
    st.text(), st.sampled_from(SPECIAL_STRS),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(st.one_of(st.text(), st.sampled_from(SPECIAL_STRS)),
                        inner, max_size=5),
    ),
    max_leaves=40,
)


@given(json_values)
@settings(max_examples=400, deadline=None)
def test_the_writer_writes_what_json_dumps_writes(value):
    assert cli._dumps(value) == json.dumps(value, indent=2, sort_keys=True)


# report trees as the stages build them: every status, witnesses of
# nested tuples of ints (past 2^64 too), bools and short counts, sections
# up to three levels down, with empty checks and empty sections
report_strs = st.one_of(st.sampled_from(SPECIAL_STRS), st.text())
witness_items = st.recursive(
    st.one_of(
        st.integers(), st.sampled_from([1 << 64, -(1 << 64) - 1]), st.booleans(),
        st.integers(min_value=0, max_value=20000).map(lambda k: f"at least 2^{k}"),
    ),
    lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=10,
)
report_checks = st.builds(
    Check, report_strs, st.sampled_from([PASS, FAIL, NA, INFO]),
    st.lists(witness_items, max_size=4).map(tuple), report_strs,
)


def report_trees(depth: int):
    sections = st.lists(report_trees(depth - 1), max_size=2) if depth else st.just([])
    return st.builds(Report, report_strs, st.lists(report_checks, max_size=3).map(tuple),
                     sections.map(tuple))


@given(st.lists(report_trees(3), max_size=2))
@settings(max_examples=100, deadline=None)
def test_the_writer_writes_a_report_as_json_dumps_writes_its_dicts(trees):
    assert cli._dumps({"reports": trees}) == json.dumps(
        {"reports": [references.report_dict(t) for t in trees]}, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [
    1.5, {1, 2}, {1: "a"}, ["a", [0.0]], {"a": frozenset()}, {"a": {2: 0}},
    [Report("r", sections=(Report("s", (Check("c", INFO, (1, (0.5,))),)),))],
    Report("r", (Check("c", PASS, ({1, 2},)),)),
], ids=["float", "set", "int-key", "nested-float", "frozenset", "nested-int-key",
        "float-witness", "set-witness"])
def test_the_writer_refuses_what_no_output_holds(value):
    with pytest.raises(TypeError):
        cli._dumps(value)


def reference_parser() -> argparse.ArgumentParser:
    """The parser of all six commands, written out one by one: what
    ``main`` built for every call before it built only the named
    command's parser."""
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


def run_main(argv) -> tuple[str, str, object]:
    """stdout, stderr and the exit code of ``main(argv)``, or the code of
    the SystemExit argparse raised."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), code


COMMANDS = ["validate", "orbits", "globalize", "vaught", "selector", "report"]
PARITY_ARGS = [
    ["--help"], ["-h", "report"],
    *([c, "--help"] for c in COMMANDS),
    [], ["nosuch", EXAMPLE],
    ["report"], ["report", EXAMPLE, "--format", "xml"],
    ["vaught", EXAMPLE, "--kind", "gamma"],
    # unrecognized arguments are reported with the top-level usage
    ["report", EXAMPLE, "--bogus"], ["report", EXAMPLE, "--dot", "envelope.dot"],
    # forms only argparse reads
    ["report", EXAMPLE, "--format=json"], ["report", EXAMPLE, "--form", "json"],
    ["report", "--", EXAMPLE], ["report", EXAMPLE, EXAMPLE],
    *([args[0], EXAMPLE, *args[1:]] for args in GOLDEN_CASES.values()),
]


@pytest.mark.parametrize("via_sys_argv", [False, True])
@pytest.mark.parametrize("columns", ["80", "30"])
@pytest.mark.parametrize(
    "argv", PARITY_ARGS,
    ids=[" ".join(a).replace(EXAMPLE, "example") or "none" for a in PARITY_ARGS])
def test_texts_and_exit_codes_match_the_six_subparser_parser(
        argv, columns, via_sys_argv, tmp_path, monkeypatch):
    # COLUMNS sets argparse's wrapping width; the DOT file goes to tmp_path
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", columns)
    if via_sys_argv:  # how the console script calls main
        monkeypatch.setattr(sys, "argv", ["pactop", *argv])
        argv = None
    got = run_main(argv)
    # the reference side reads every argv with argparse, the golden cases
    # included, so they compare the reader with argparse
    monkeypatch.setattr(cli, "_read_argv", lambda argv: None)
    monkeypatch.setattr(cli, "_build_parser", lambda command=None: reference_parser())
    assert got == run_main(argv)


def test_a_plain_command_line_builds_no_parser(monkeypatch):
    built = []
    real = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda: built.append(1) or real())
    monkeypatch.setattr(sys, "argv", ["pactop", "validate", EXAMPLE])
    for argv in (["report", EXAMPLE, "--format", "json"],
                 ["vaught", EXAMPLE, "--kind", "star"], None):
        assert run_main(argv)[2] == 0
    assert built == []
    for argv in (["vaught", EXAMPLE, "--kind", "gamma"], ["report", EXAMPLE, "--format=json"],
                 ["--help"], ["nosuch", EXAMPLE]):
        run_main(argv)
    assert len(built) == 4


def test_importing_the_cli_builds_no_parser():
    code = ("import argparse\n"
            "def refuse(*args, **kwargs): raise AssertionError('parser built')\n"
            "argparse.ArgumentParser.__init__ = refuse\n"
            "import pactop.cli\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert res.returncode == 0, res.stderr


# what the reader must decline, or read as argparse does: full option
# names and their abbreviations, the --x=v form, help, the end of options,
# a lone dash, a negative number, spaces and choice values good and bad
ARGV_TOKENS = [
    *COMMANDS, "--format", "--dot", "--set", "--open-g", "--kind",
    "--form", "--f", "--k", "--open", "--se", "--d", "--format=json", "--kind=star",
    "-h", "--help", "--", "-", "-1", "", "a b", "-x y", "--bogus",
    "text", "json", "xml", "delta", "star", "gamma", "doc", "v,w", "all", "1",
]


@st.composite
def plain_argvs(draw, min_options: int = 0) -> list[str]:
    """A command, its spec and some of its options, each with a value it
    accepts, in any order."""
    command = draw(st.sampled_from(COMMANDS))
    options = [cli._FORMAT, *cli._COMMANDS[command].options]
    parts = [[draw(st.sampled_from(["doc", "", "a b", "report", "json"]))]]
    for flag, keywords in draw(
            st.lists(st.sampled_from(options), min_size=min_options, max_size=4)):
        parts.append(
            [flag, draw(st.sampled_from(keywords.get("choices", ["", "v", "1,0", "all"])))])
    return [command, *(t for part in draw(st.permutations(parts)) for t in part)]


@st.composite
def near_plain_argvs(draw) -> list[str]:
    """A plain command line with one token replaced or put in."""
    argv = draw(plain_argvs(min_options=1))
    at = draw(st.integers(0, len(argv)))
    argv[at:at + draw(st.integers(0, 1))] = [draw(st.sampled_from(ARGV_TOKENS))]
    return argv


@given(plain_argvs())
@settings(max_examples=200, deadline=None)
def test_the_reader_reads_every_plain_command_line(argv):
    args = cli._read_argv(argv)
    assert args is not None
    assert vars(args) == vars(reference_parser().parse_args(argv))


@given(st.one_of(near_plain_argvs(), st.lists(st.sampled_from(ARGV_TOKENS), max_size=7)))
@settings(max_examples=500, deadline=None)
def test_what_the_reader_reads_argparse_reads_alike(argv):
    args = cli._read_argv(argv)
    if args is not None:
        assert vars(args) == vars(reference_parser().parse_args(argv))


def test_selector_command():
    res = run_cli("selector", EXAMPLE, "--format", "json")
    assert res.returncode == 0
    data = json.loads(res.stdout)["data"]
    assert data["classes"] == ["(0,x0)", "(0,v)", "(1,x0)", "(2,x0)"]
    assert data["transversal"] == ["(0,x0)", "(0,v)", "(1,x0)", "(2,x0)"]
    assert len(data["tau-opens"]) == 12
    assert data["discontinuities"] == [
        {"element": 1, "class": "(0,x0)"},
        {"element": 2, "class": "(0,x0)"},
    ]


def test_parse_serialize_round_trip(family):
    with open(EXAMPLE, "rb") as fh:
        spec = parse(fh.read())
    doc = serialize(spec)
    again = parse(json.dumps(doc))
    assert again == spec
    assert serialize(again) == doc
    # serialize refuses exactly the actions parse would reject
    refused = 0
    for pa in family + [m for _, m in mutant_family(family, 200, seed=0)]:
        spec = ActionSpec("t", tuple(f"p{x}" for x in pa.space.points()), pa)
        e = pa.group.identity
        if pa.dom[e] != pa.space.full:
            with pytest.raises(SchemaError, match=f"/domains/{e}: identity domain"):
                serialize(spec)
            refused += 1
        else:
            assert parse(json.dumps(serialize(spec))) == spec, pa
    assert refused


SIX = [f"p{i}" for i in range(6)]


def six_point_doc() -> dict:
    # C2 swapping p0 with p1, p2 with p3 and p4 with p5 on an indiscrete
    # space: long enough lists that a bad entry can sit at index 4
    swap = {a: b for i in range(0, 6, 2) for a, b in ((SIX[i], SIX[i + 1]),
                                                       (SIX[i + 1], SIX[i]))}
    return {
        "group": {"kind": "cyclic", "order": 2},
        "space": {"points": list(SIX), "opens": [[], list(SIX)]},
        "domains": {"0": list(SIX), "1": list(SIX)},
        "maps": {"0": {p: p for p in SIX}, "1": swap},
    }


def _late_open(doc, bad):
    doc["space"]["opens"].append(SIX[:4] + [bad])


def _late_domain_entry(doc, bad):
    doc["domains"]["1"] = SIX[:4] + [bad]


def _set_point(doc, bad):
    doc["space"]["points"][4] = bad


def _add_source(doc, bad):
    doc["maps"]["1"][bad] = "p0"


def _set_target(doc, bad):
    doc["maps"]["1"]["p5"] = bad


@pytest.mark.parametrize("edit, bad, message", [
    (_late_open, 7, "/space/opens/2/4: expected a point name"),
    (_late_open, ["p1"], "/space/opens/2/4: expected a point name"),
    (_late_open, "q", "/space/opens/2/4: unknown point 'q'"),
    (_late_open, "p1", "/space/opens/2/4: duplicate point 'p1'"),
    (_late_domain_entry, None, "/domains/1/4: expected a point name"),
    (_late_domain_entry, "q", "/domains/1/4: unknown point 'q'"),
    (_late_domain_entry, "p3", "/domains/1/4: duplicate point 'p3'"),
    (_add_source, "q", "/maps/1/q: unknown point 'q'"),
    (_set_target, "q", "/maps/1/p5: unknown point 'q'"),
    (_set_target, 5, "/maps/1/p5: unknown point 5"),
    (_set_target, {"p0": 1}, "/maps/1/p5: unknown point {'p0': 1}"),
    (_set_point, "", "/space/points/4: expected a nonempty string"),
    (_set_point, 4, "/space/points/4: expected a nonempty string"),
])
def test_point_name_errors(edit, bad, message):
    doc = six_point_doc()
    parse(json.dumps(doc))
    edit(doc, bad)
    with pytest.raises(SchemaError) as exc:
        parse(json.dumps(doc))
    assert str(exc.value) == message
    assert exc.value.witness == (message.split(": ")[0],)


ABC = ["a", "b", "c"]


def _three_point_doc(opens) -> dict:
    # the trivial group on the points a, b, c with the given open sets
    return {
        "group": {"kind": "cyclic", "order": 1},
        "space": {"points": list(ABC), "opens": opens},
        "domains": {"0": list(ABC)},
        "maps": {"0": {p: p for p in ABC}},
    }


@pytest.mark.parametrize("opens, reason", [
    ([["a", "b", "c"]], "missing the empty set"),
    ([[]], "missing the full carrier"),
    ([[], ["a"], ["b"], ABC], "union of 0x1 and 0x2 missing"),
    # closed under union, not under intersection: {a,b} and {b,c} meet in
    # {b}, the neighbourhood of b, so its union with the empty set is
    # missing
    ([[], ["a", "b"], ["b", "c"], ABC], "union of 0x0 and 0x2 missing"),
])
def test_space_opens_errors(opens, reason, tmp_path):
    doc = _three_point_doc(opens)
    message = f"/space/opens: not a topology: {reason}"
    with pytest.raises(SchemaError) as exc:
        parse(json.dumps(doc))
    assert str(exc.value) == message
    assert exc.value.witness == ("/space/opens",)
    bad = tmp_path / "opens.json"
    bad.write_text(json.dumps(doc))
    out, err, code = run_main(["validate", str(bad)])
    assert (out, code) == ("", 2)
    assert message in err


@pytest.mark.parametrize("group, message", [
    ({"kind": "dihedral", "order": 3}, "/group/kind: expected 'cyclic' or 'table'"),
    ({"kind": "table", "table": [[0, 0], [0, 0]]},
     "/group/table: not a group table: no two-sided identity element"),
], ids=["kind", "no-identity"])
def test_group_errors(group, message, tmp_path):
    doc = _three_point_doc([[], ABC])
    doc["group"] = group
    with pytest.raises(SchemaError) as exc:
        parse(json.dumps(doc))
    assert str(exc.value) == message
    assert exc.value.witness == (message.split(": ")[0],)
    bad = tmp_path / "group.json"
    bad.write_text(json.dumps(doc))
    out, err, code = run_main(["validate", str(bad)])
    assert (out, code) == ("", 2)
    assert message in err


def test_parse_rejects_unknown_key():
    doc = example_doc()
    doc["extra"] = 1
    with pytest.raises(Exception) as exc:
        parse(json.dumps(doc))
    assert "/extra" in str(exc.value)


@st.composite
def documents(draw) -> dict:
    """A cyclic group of order <= 3 on <= 3 points with any topology,
    random domains (the identity's full, as the schema demands) and
    random partial maps, half of them defined exactly on dom(inv(g)):
    mostly not partial actions at all."""
    order = draw(st.integers(1, 3))
    size = draw(st.integers(1, 3))
    space = draw(st.sampled_from(all_topologies(size)))
    names = [f"p{x}" for x in range(size)]
    points = st.sampled_from(names)
    dom = [space.full] + [draw(st.integers(0, space.full)) for _ in range(1, order)]

    def name_list(mask: int) -> list[str]:
        return [names[x] for x in range(size) if (mask >> x) & 1]

    if draw(st.booleans()):
        maps = [draw(st.dictionaries(points, points)) for _ in range(order)]
    else:
        maps = [
            {x: draw(points) for x in name_list(dom[-g % order])} for g in range(order)
        ]
    return {
        "group": {"kind": "cyclic", "order": order},
        "space": {"points": names, "opens": [name_list(u) for u in space.opens]},
        "domains": {str(g): name_list(dom[g]) for g in range(order)},
        "maps": {str(g): maps[g] for g in range(order)},
    }


FUZZ_ARGS = [
    ["validate"], ["orbits"], ["globalize"], ["selector"], ["report"],
    ["vaught", "--set", "p0", "--kind", "star"],
    ["vaught", "--set", "nowhere"],
    ["vaught", "--set", "p0,"],
    ["vaught", "--open-g", "9"],
    ["vaught", "--open-g", ""],
    ["vaught", "--open-g", "²"],
    ["globalize", "--dot", "{tmp}/envelope.dot"],
]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(doc=documents())
def test_every_document_ends_in_an_exit_code(doc):
    # main runs in this process, so an exception escaping it is what the
    # interpreter would print as a traceback; it fails the test as such
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for args in FUZZ_ARGS:
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                try:
                    code = main([args[0], path, *(a.format(tmp=tmp) for a in args[1:])])
                except SystemExit as exc:  # argparse exits this way
                    code = exc.code
            assert code in (0, 1, 2), (args, code)
            assert "Traceback" not in err.getvalue(), args


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                         capture_output=True, text=True, timeout=60, env=env)
    assert res.returncode == 0, res.stderr


def test_no_report_stage_builds_the_product(family, s3_family, changed_family, monkeypatch):
    # Each stage reads the group-indexed product by its formula, the
    # neighbourhood of (g, x) being N(x) in slice g, and the action keeps
    # no product table: with the product refused, ``pactop report``
    # writes the JSON it writes with it, on the bundled example (its
    # golden report) and on every sweep table and their neighbours.
    assert not hasattr(paction.PartialAction, "product")
    with open(EXAMPLE, "rb") as fh:
        spec = parse(fh.read())
    got, expected = references.without_product(spec, monkeypatch, "report")
    assert got + "\n" == expected + "\n" == (GOLDEN / "report.json").read_text()
    for pa in [*family, *s3_family, *changed_family]:
        got, expected = references.without_product(
            references.spec_of(pa), monkeypatch, "report")
        assert got == expected, pa

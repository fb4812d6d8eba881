"""A seeded mid-size sweep with larger non-abelian groups, and the scale
gates at 8,128 and 16,376 product points.

D4, Q8, A4 and S4 each act on seeded coset spaces with a seeded
invariant topology, restricted to a seeded carrier (``gspaces``).  Every
valid one must be the saturation G.X, and each label-row relation and
orbit check must match its mask reference.
"""

from __future__ import annotations

import json
import random

import pytest

import references
from gspaces import blanked, midsize_instances, rotation
from pactop import cli
from pactop import (
    SeparationFlags,
    bireducibility_report,
    build,
    effros_report,
    enveloping_relation,
    hat_relation_report,
    lifted_action,
    normalized_selector,
    orbit_equivalence,
    orbit_homeomorphism_report,
    separation,
    transform_identities_report,
    validate,
)
from pactop.errors import LimitExceeded, short_count
from pactop.reports import FAIL, INFO, PASS


@pytest.fixture(scope="module")
def midsize():
    return midsize_instances()


def test_midsize_sweep_shape(midsize):
    sizes = [space.size for space, _, _, _ in midsize]
    orders = sorted({pa.group.order for _, _, _, pa in midsize})
    assert (len(midsize), min(sizes), max(sizes), orders) == (24, 8, 28, [8, 12, 24])
    assert sum(validate(pa).ok for _, _, _, pa in midsize) == 14


def test_round_trip_past_the_bit_table(midsize):
    # A4 on 17 points twice, with 19,440 and 2,300 opens: masks wider
    # than the 12-bit table of iter_bits, read and written in full
    for n, opens in ((6, 19440), (14, 2300)):
        pa = midsize[n][3]
        assert (pa.space.size, len(pa.space.opens)) == (17, opens)
        spec = cli.ActionSpec("t", tuple(f"p{x}" for x in pa.space.points()), pa)
        assert cli.parse(json.dumps(cli.serialize(spec))) == spec


def test_midsize_envelopes_are_the_saturation(midsize):
    kinds = [0, 0]
    for space, rows, carrier, pa in midsize:
        if validate(pa).ok:
            is_open, _ = references.check_saturation(space, rows, carrier, build(pa))
            kinds[is_open] += 1
    assert kinds == [2, 12]


COMPARED = [
    (enveloping_relation, references.enveloping_relation),
    (orbit_equivalence, references.orbit_equivalence),
    (lambda pa: pa.lifted_orbits,
     lambda pa: references.orbit_equivalence(lifted_action(pa))),
    (normalized_selector, references.on_lifted_relation(references.normalized_selector)),
    (orbit_homeomorphism_report,
     references.on_lifted_relation(references.orbit_homeomorphism_report)),
]


def test_midsize_checks_match_the_mask_references(midsize):
    # every instance is algebraically a partial action, so nothing raises
    raised = 0
    for _, _, _, pa in midsize:
        for check, reference in COMPARED:
            expected = references.outcome(reference, pa)
            got = references.outcome(check, references.fresh(pa))
            assert got == expected, (check, pa)
            raised += isinstance(expected, tuple)
    assert raised == 0


def test_midsize_identity_suite_matches_the_row_reference(midsize):
    # The instances the row reference's enumeration bound admits: D4, Q8
    # (identity listed fifth) and A4 on 3 to 12 points, valid or not.
    # Every check's status and witness, and the info line, must equal the
    # row form's; no check fails on any of them.
    names = ["D4", "Q8", "A4", "S4"]
    within = [
        (names[n % 4], validate(pa).ok, pa) for n, (_, _, _, pa) in enumerate(midsize)
        if (1 << pa.space.size) * ((1 << pa.group.order) - 1)
        <= references.TRANSFORM_LIMIT
    ]
    assert [(name, pa.space.size) for name, ok, pa in within if ok] == [
        ("D4", 9), ("A4", 8), ("D4", 4), ("Q8", 12), ("D4", 7), ("Q8", 10),
        ("D4", 11), ("Q8", 3),
    ]
    assert len(within) == 13
    for _, _, pa in within:
        expected = references.transform_identities_report(pa)
        assert transform_identities_report(pa) == expected, pa
        assert expected.ok, pa


def test_validate_never_raises_on_midsize_edits(midsize):
    # Four seeded one-entry edits of each instance, many ill-formed, and
    # the instance with point 0 blanked.  The two relation builders must
    # still match their references: on Q8, whose identity is not element
    # 0, the blanked tables pin the order in which an ill-formed table is
    # read.
    rejected, raised = 0, {}
    for n, (_, _, _, pa) in enumerate(midsize):
        for edit in [*references.one_entry_edits([pa], 4, seed=n), blanked(pa)]:
            rejected += not validate(edit).ok
            for check, reference in COMPARED[:2]:
                expected = references.outcome(reference, edit)
                assert references.outcome(check, edit) == expected, (check, edit)
                if isinstance(expected, tuple):
                    raised[expected[0].__name__] = raised.get(expected[0].__name__, 0) + 1
    assert rejected == 120
    assert raised == {"AxiomViolation": 118, "KeyError": 72}


def test_midsize_graph_open_reads_the_domains(midsize, monkeypatch):
    # each instance, its four one-entry edits and its blanked copy:
    # validate builds no product and gives the report it gave reading
    # the definedness graph in the product
    counts: dict = {}
    for n, (_, _, _, pa) in enumerate(midsize):
        for edit in [pa, *references.one_entry_edits([pa], 4, seed=n), blanked(pa)]:
            assert edit.graph_open == references.graph_open(edit), edit
            got, expected = references.validate_without_product(edit, monkeypatch)
            assert got == expected, edit
            counts[edit.graph_open] = counts.get(edit.graph_open, 0) + 1
    assert counts == {True: 83, False: 61}


def test_midsize_pair_checks_match_the_references(midsize):
    # The square flag on each instance, its four one-entry edits and
    # its blanked copy; separation on the envelope and orbit quotients
    # and bireducibility on the valid instances.
    kinds: dict = {}
    for n, (_, _, _, pa) in enumerate(midsize):
        for edit in [pa, *references.one_entry_edits([pa], 4, seed=n), blanked(pa)]:
            expected = references.outcome(references.effros_report, edit)
            assert references.outcome(effros_report, edit) == expected, edit
            if isinstance(expected, tuple):
                kind = expected[0].__name__
            else:  # the square flag
                kind = expected.checks[0].witness[0]
            kinds[kind] = kinds.get(kind, 0) + 1
        if not validate(pa).ok:
            continue
        glob, sel = build(pa), normalized_selector(pa)
        for t in (glob.topology, pa.orbit_quotient):
            assert separation(t) == references.separation(t), pa
        expected = references.bireducibility_report(glob, sel)
        assert bireducibility_report(glob, sel) == expected and expected.ok, pa
    assert kinds == {True: 26, False: 29, "AxiomViolation": 53, "KeyError": 36}


@pytest.mark.parametrize(
    "changed, change, kinds",
    [
        ("carrier", references.merge_two, {(FAIL, True): 21, (FAIL, False): 1}),
        ("envelope", references.merge_two, {(FAIL, True): 21, (FAIL, False): 1}),
        ("carrier", references.split_two, {(FAIL, True): 19, (FAIL, False): 3}),
        ("envelope", references.split_two,
         {(FAIL, True): 16, (FAIL, False): 5, (PASS, False): 1}),
    ],
)
def test_midsize_bireducibility_witnesses_on_changed_relations(
    monkeypatch, midsize, changed, change, kinds
):
    # larger classes than the small sweeps have, so failures show the
    # full 8 witnesses
    rng = random.Random(0)
    seen: dict = {}
    for _, _, _, pa in midsize:
        if not validate(pa).ok:
            continue
        reports = references.changed_bireducibility(pa, changed, change, rng, monkeypatch)
        if reports:
            got, expected = reports
            assert got == expected, pa
            references.count_witnesses(expected, seen)
    assert seen == kinds


def test_report_on_midsize_edits(midsize):
    # The report stages, in process: some instances have no document
    # (serialize hits the open-set limit), and S4 on 19 points has one of
    # 33 MB.  Each instance, its four one-entry edits and its blanked
    # copy: nothing raises, exactly the valid instances but S4's pass (S4's
    # transversal topology stops at the open-set limit), every failing
    # report names a witness or the size limit it hit, and every
    # transform-identities report that runs passes, past the row
    # reference's bound too, with its count on the info line.
    args = cli._build_parser().parse_args(["report", "doc.json"])
    passed, limits, transforms = [], {}, 0
    for n, (_, _, _, pa) in enumerate(midsize):
        for k, edit in enumerate(
            [pa, *references.one_entry_edits([pa], 4, seed=n), blanked(pa)]
        ):
            spec = cli.ActionSpec("", tuple(f"p{x}" for x in edit.space.points()), edit)
            data, reports = cli._run(spec, args)
            text, ok = cli._render(spec.label, "report", data, reports, "json")
            assert text == references.report_json(spec.label, "report", data, reports)
            for rep in reports:
                if rep.name == "transform-identities":
                    parts = (1 << edit.group.order) - 1
                    count = (1 << edit.space.size) * parts
                    assert rep.ok, edit
                    assert rep.checks[-1].witness == (count, parts), edit
                    transforms += 1
            if ok:
                passed.append((n, k))
                continue
            named = False
            for rep in reports:
                for _, check in rep.failures():
                    if check.name.startswith("size limit hit"):
                        limits[rep.name] = limits.get(rep.name, 0) + 1
                        named = True
                    named = named or bool(check.witness)
            assert named, edit
    assert passed == [
        (n, 0) for n, (_, _, _, pa) in enumerate(midsize)
        if validate(pa).ok and pa.group.order != 24
    ]
    assert len(passed) == 9
    assert limits == {"transversal-topology": 5}
    assert transforms == 14


def test_c64_on_128_points_minus_one():
    # Scale gate: C64 on 128 points minus one (|G|*|X| = 8,128).
    space, rows, carrier, pa = rotation(64, 128)
    assert validate(pa).ok
    glob = build(pa)
    assert hat_relation_report(glob).ok
    assert references.is_selector_for(normalized_selector(pa), glob.relation)
    assert orbit_homeomorphism_report(pa).ok
    assert references.check_saturation(space, rows, carrier, glob) == (True, False)
    assert glob.num_classes == 128


def test_c8_on_2048_points_minus_one():
    # Scale gate: C8 on 2,048 points minus one (|G|*|X| = 16,376).  No
    # table here may grow with the square of the points: every report
    # stage passes but transversal-topology, behind its open-set limit.
    # Bireducibility, which the report skips after that limit, and the
    # envelope's separation flags are read directly.
    _, _, _, pa = rotation(8, 2048)
    spec = cli.ActionSpec("", tuple(f"p{x}" for x in pa.space.points()), pa)
    args = cli._build_parser().parse_args(["report", "doc.json"])
    _, reports = cli._run(spec, args)
    failed = {
        rep.name: [check.name.split(":")[0] for _, check in rep.failures()]
        for rep in reports if not rep.ok
    }
    assert failed == {"transversal-topology": ["size limit hit"]}
    transforms = next(r for r in reports if r.name == "transform-identities")
    assert transforms.ok
    assert transforms.checks[-1].witness == ("at least 2^2054", 255)
    assert effros_report(pa).ok
    glob = build(pa)
    assert separation(glob.topology) == SeparationFlags(True, True, True)
    assert bireducibility_report(glob, normalized_selector(pa)).ok
    assert glob.num_classes == 2048


def test_transform_limit_on_c8_on_2048_points_minus_one_prints_a_short_count():
    # 2^2047 point sets times 2^8 - 1 group parts, past the old transform
    # limit: the checks are decided, and the info line the report prints
    # gives the count's power of two, not 619 digits
    _, _, _, pa = rotation(8, 2048)
    spec = cli.ActionSpec("", tuple(f"p{x}" for x in pa.space.points()), pa)
    args = cli._build_parser().parse_args(["report", "doc.json"])
    _, reports = cli._run(spec, args)
    rep = next(r for r in reports if r.name == "transform-identities")
    assert [(c.status, c.witness) for c in rep.checks] == [(PASS, ())] * 5 + [
        (INFO, ("at least 2^2054", 255))
    ]
    assert rep.checks[-1].name == "combinations checked"
    assert len(json.dumps(rep.checks[-1].witness)) < 120
    assert short_count((1 << 2047) * 255) == "at least 2^2054"
    # the exact count is printed up to 2^64 - 1
    assert short_count((1 << 64) - 1) == (1 << 64) - 1
    err = LimitExceeded("open sets", (1 << 64) - 1, 1)
    assert str(err).startswith("size limit hit: 18,446,744,073,709,551,615 open sets")
    assert err.witness == ("open sets", (1 << 64) - 1)
    err = LimitExceeded("open sets", 1 << 64, 1)
    assert str(err).startswith("size limit hit: at least 2^64 open sets")
    assert err.witness == ("open sets", "at least 2^64")
    # a count past 4,300 digits, which str() refuses with ValueError
    assert "at least 2^15000 open" in str(LimitExceeded("open sets", 1 << 15000, 1))


def test_transform_identities_on_c8_on_16384_points_minus_one():
    # |G|*|X| = 131,064: 2^16383 point sets times 255 group parts, a count
    # of 4,935 digits, past what int.__repr__ prints.  The checks pass,
    # and the JSON writer renders the report's short count.
    _, _, _, pa = rotation(8, 16384)
    rep = transform_identities_report(pa)
    assert rep.ok, rep.failures()
    assert rep.checks[-1].witness == ("at least 2^16390", 255)
    assert '"at least 2^16390"' in cli._dumps(rep.to_dict())

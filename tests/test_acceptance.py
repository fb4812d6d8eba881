"""End-to-end acceptance gate.

One test per shipped guarantee, each printing a single summary line;
the timed ones assert their budget explicitly.  Everything runs on the
generated instance family (cyclic groups up to order 4 and the Klein
four-group on every topology on up to 3 points, S3 on up to 2 points,
every induced restriction of a total action) plus 200 deterministic
mutations, and on the bundled example document.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from importlib import resources

from pactop import (
    build,
    bireducibility_report,
    discrete,
    effros_report,
    embedding_report,
    hat_relation_report,
    ideal_member,
    ideal_section_set,
    induced_family,
    lifted_action,
    minimal_neighborhoods,
    mutant_family,
    normalized_selector,
    open_case,
    orbit,
    orbit_equivalence,
    action_continuity_table,
    separation,
    transform_identities_report,
    transversal,
    transversal_topology,
    validate,
)
from pactop.cli import parse
from pactop.reports import INFO, NA, PASS

EXAMPLE = str(resources.files("pactop").joinpath("data/example48.json"))


def _line(msg: str) -> None:
    print(f"acceptance: {msg}")


def _check(report, name):
    for c in report.checks:
        if c.name == name:
            return c
    raise AssertionError(f"missing check {name!r} in {report.name}")


def test_axiom_formulations_agree_and_mutants_are_rejected():
    start = time.perf_counter()
    fam = induced_family(max_group=4, max_points=3)
    for pa in fam:
        rep = validate(pa)
        agree = _check(rep, "both axiom formulations give the same verdict")
        assert agree.status == PASS, (pa, agree)
    muts = mutant_family(fam, count=200, seed=0)
    assert len(muts) == 200
    for kind, m in muts:
        rep = validate(m)
        assert not rep.ok, (kind, m)
        assert any(c.witness for _, c in rep.failures()), (kind, m)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"{elapsed:.2f}s"
    _line(
        f"formulation agreement on {len(fam)} instances and rejection of "
        f"200 mutants with witnesses: PASS ({elapsed:.2f}s < 10s)"
    )


def test_gluing_relation_equals_lifted_orbit_relation(valid_globs):
    for pa, glob in valid_globs:
        assert glob.relation == orbit_equivalence(lifted_action(pa))
        assert hat_relation_report(glob).ok
    _line(
        f"gluing relation equals the lifted orbit relation exactly on "
        f"{len(valid_globs)} valid instances: PASS (zero tolerance)"
    )


def test_embedding_clauses(valid_globs):
    open_na = 0
    for pa, glob in valid_globs:
        rep = embedding_report(glob)
        assert rep.ok, (pa, rep.failures())
        assert _check(rep, "embedding continuous").status == PASS
        assert _check(rep, "embedding open onto its image").status == PASS
        assert (
            _check(rep, "translation matches the original moves on the image").status
            == PASS
        )
        img = _check(rep, "embedded image open (definedness graph open)")
        assert img.status in (PASS, NA)
        open_na += img.status == NA
    _line(
        f"embedding is an equivariant open homeomorphism onto its image on "
        f"{len(valid_globs)} instances (image-openness hypothesis absent on "
        f"{open_na}): PASS"
    )


def test_transform_identities_exhaustive(valid_family, valid_s3_family):
    instances = valid_family + valid_s3_family
    start = time.perf_counter()
    for pa in instances:
        rep = transform_identities_report(pa)
        assert rep.ok, (pa, rep.failures())
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"{elapsed:.2f}s"
    _line(
        f"transform identities over every point set and group part, "
        f"decided per group element, "
        f"on {len(instances)} instances, S3 on 3 points included: PASS "
        f"({elapsed:.2f}s < 60s)"
    )


def test_open_set_transform_formula(valid_family):
    count = 0
    for pa in valid_family:
        if pa.group.order > 3:
            continue
        gfull = (1 << pa.group.order) - 1
        for a in pa.space.opens:
            for v in range(1, gfull + 1):
                rep = open_case(pa, a, v)
                assert rep.ok, (pa, a, v, rep.failures())
                count += 1
    _line(
        f"direct union formula matches the wide transform and stays open "
        f"on {count} open-set/group-part combinations: PASS"
    )


def test_ideal_machinery(valid_family):
    start = time.perf_counter()
    sections = 0
    for pa in valid_family:
        for x in pa.space.points():
            assert ideal_member(pa, x, orbit(pa, x)) is False, (pa, x)
        for pairs in range(1 << (pa.space.size ** 2)):
            # raises internally if the ideal definition and the
            # pair-action tight transform ever disagree on the diagonal
            ideal_section_set(pa, pairs)
            sections += 1
    elapsed = time.perf_counter() - start
    _line(
        f"no class is small in its own ideal and the section set matches "
        f"the pair-action transform on all {sections} pair sets: PASS "
        f"({elapsed:.1f}s)"
    )


def test_transversal_topology_clauses(valid_globs):
    names = (
        "transversal topology extends the quotient topology",
        "quotient Borel structure equals the transversal Borel algebra",
        "embedded image is Borel",
        "Borel algebra of the embedded image matches the carrier's",
        "every translation is Borel measurable for the transversal topology",
    )
    for pa, glob in valid_globs:
        brep = transversal_topology(glob, normalized_selector(pa))
        assert brep.report.ok, (pa, brep.report.failures())
        for name in names:
            assert _check(brep.report, name).status == PASS, (pa, name)
    _line(
        f"transversal topology clauses (extension, Borel equality, image "
        f"Borel, carrier Borel preserved, translations measurable) on "
        f"{len(valid_globs)} instances: PASS"
    )


def test_bireducibility(valid_globs):
    for pa, glob in valid_globs:
        rep = bireducibility_report(glob, normalized_selector(pa))
        assert rep.ok, (pa, rep.failures())
        assert (
            _check(rep, "embedding reduces carrier orbits to envelope classes").status
            == PASS
        )
        assert (
            _check(
                rep, "selector coordinate reduces envelope classes to carrier orbits"
            ).status
            == PASS
        )
    _line(
        f"carrier orbit relation and envelope class relation reduce to each "
        f"other on {len(valid_globs)} instances: PASS"
    )


def test_bundled_example_phenomena():
    start = time.perf_counter()
    with open(EXAMPLE, "rb") as fh:
        spec = parse(fh.read())
    pa = spec.pa
    glob = build(pa)

    assert glob.num_classes == 4
    sep = separation(glob.topology)
    assert sep.t0 is True
    assert sep.t2 is False
    # a finite non-discrete carrier cannot make every point closed, so
    # unlike the infinite counterpart the envelope here is not T1
    assert sep.t1 is False

    basepoint_classes = [glob.relation.class_id[g * pa.space.size] for g in range(3)]
    assert sorted(basepoint_classes) == [0, 2, 3]
    nbrs = minimal_neighborhoods(glob.topology)
    for c in basepoint_classes:
        for d in basepoint_classes:
            if c != d:
                assert nbrs[c] & nbrs[d], (c, d)

    sel = normalized_selector(pa)
    assert transversal(sel) == 0b10111  # (0,x0) (0,v) (1,x0) (2,x0)

    brep = transversal_topology(glob, sel)
    rows, _ = action_continuity_table(glob, brep)
    assert rows[1] == (False, True, True, True)
    assert glob.relation.class_id[0] == 0

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"{elapsed:.2f}s"
    _line(
        "bundled example: 4 classes, T0 but neither T1 nor T2 with the "
        "basepoint classes pairwise inseparable, the expected transversal, "
        "and translation 1 discontinuous exactly at the basepoint class: "
        f"PASS ({elapsed:.2f}s < 1s)"
    )


def test_orbit_structure_flags(family):
    checked = stated = 0
    for pa in family:
        rep = effros_report(pa)
        assert rep.ok
        agree = _check(rep, "three conditions agree on a discrete carrier")
        if pa.space == discrete(pa.space.size):
            assert agree.status == PASS, pa
            checked += 1
        else:
            assert agree.status == NA
            assert all(c.status in (INFO, NA) for c in rep.checks)
            stated += 1
    _line(
        f"orbit-structure flags agree three ways on {checked} discrete "
        f"carriers and are stated without assertion on {stated} others: PASS"
    )


def test_cli_contract(tmp_path):
    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "pactop", *args],
            capture_output=True, text=True, timeout=60,
        )

    first = run("report", EXAMPLE, "--format", "json")
    second = run("report", EXAMPLE, "--format", "json")
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout

    with open(EXAMPLE, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["maps"]["1"]["v"] = "x0"
    mutated = tmp_path / "mutated.json"
    mutated.write_text(json.dumps(doc))
    res = run("validate", str(mutated))
    assert res.returncode == 1
    assert "[fail] each map is a bijection onto its range set" in res.stdout

    garbage = tmp_path / "garbage.json"
    garbage.write_text("{definitely not json")
    res = run("validate", str(garbage))
    assert res.returncode == 2

    _line(
        "CLI: byte-identical passing report (exit 0), named witness on a "
        "mutated document (exit 1), parse failure (exit 2): PASS"
    )

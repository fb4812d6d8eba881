from __future__ import annotations

import random

import pytest

import references
from gspaces import midsize_instances
from pactop import (
    EqRel,
    FinTop,
    FiniteGroup,
    Globalization,
    PartialAction,
    SelectorMap,
    action_continuity_table,
    bireducibility_report,
    build,
    cyclic,
    discrete,
    example_k3,
    induced,
    make_topology,
    normalized_selector,
    orbit_homeomorphism_report,
    transversal,
    transversal_topology,
)
from pactop.errors import AxiomViolation, LimitExceeded
from pactop.reports import FAIL, INFO, PASS
from pactop.selector import _measurability_failures, _quotient_atoms

SWAP = PartialAction(cyclic(2), discrete(2), (0b11, 0b11), ((0, 1), (1, 0)))
K3 = example_k3()


def test_selector_map_validation():
    with pytest.raises(ValueError):
        SelectorMap(2, (0,))
    with pytest.raises(ValueError):
        SelectorMap(2, (0, 2))
    with pytest.raises(ValueError):
        SelectorMap(2, (1, 0))
    sel = SelectorMap(3, (0, 0, 2))
    assert transversal(sel) == 0b101
    # True used to pass as point 1, and 1.0 to raise a bare TypeError
    for y in (-1, 2, True, 1.0, 100.0, "0"):
        with pytest.raises(ValueError) as caught:
            SelectorMap(2, (0, y))
        assert type(caught.value) is ValueError
        assert str(caught.value) == f"image[1] = {y!r} out of range"


def test_min_selector_laws():
    rel = EqRel(4, (0, 1, 0, 1))
    sel = references.min_selector(rel)
    assert sel.image == (0, 1, 0, 1)
    assert transversal(sel) == 0b0011
    assert references.is_selector_for(sel, rel)
    assert not references.is_selector_for(sel, EqRel(4, (0, 0, 0, 1)))
    assert not references.is_selector_for(sel, EqRel(3, (0, 1, 0)))


def test_normalized_selector_frozen():
    # pairs are encoded element * 2 + point; every pair with a defined
    # element routes to the identity slice, the two undefined-slice
    # classes keep their least member
    sel = normalized_selector(K3)
    assert sel.image == (0, 1, 2, 1, 4, 1)
    assert transversal(sel) == 0b10111


def test_normalized_selector_across_family(valid_family):
    for pa in valid_family[::5]:
        sel = normalized_selector(pa)
        assert references.is_selector_for(sel, references.lifted_orbits(pa))


def test_normalized_selector_reads_the_gluing_relation_alone(
    family, s3_family, changed_family, monkeypatch
):
    # Wherever the gluing relation is built, the selector reads it and
    # nothing of the action's moves: with ``acting``, ``moves`` and
    # ``act`` refusing once ``lifted_orbits`` is cached, it equals the
    # reference, which checks the identity-slice description at every
    # (x, g, y) and routes each defined (g, y) to (identity, g.y).  The
    # mid-size Q8 instances list the identity fifth, so there the
    # identity slice does not hold the least member of each class.
    def refuse(*args):
        raise AssertionError("the selector read the action's moves")

    glued = 0
    midsize = [pa for *_, pa in midsize_instances()]
    for pa in [*family, *s3_family, *changed_family, *midsize]:
        try:
            rel = pa.lifted_orbits
        except (AxiomViolation, KeyError):
            continue
        glued += 1
        expected = references.normalized_selector(pa, rel)
        cached = references.fresh(pa)
        cached.lifted_orbits
        with monkeypatch.context() as m:
            for name in ("acting", "moves"):
                m.setattr(PartialAction, name, property(refuse))
            m.setattr(PartialAction, "act", refuse)
            assert normalized_selector(cached) == expected, pa
    # both sweeps, their neighbours and the mid-size instances
    assert glued == 447 + 66 + 24


def test_transversal_topology_frozen():
    # the transversal meets the identity slice in both carrier points
    # and the two undefined slices in one point each; its subspace
    # topology is (carrier) x (one-point discrete) x (one-point
    # discrete), i.e. 3 * 2 * 2 = 12 traces, pushed to class masks with
    # class bits 0,1 from the identity slice and free bits 2,3
    glob = build(K3)
    brep = transversal_topology(glob, normalized_selector(K3))
    assert brep.report.ok, brep.report.failures()
    assert brep.tau.opens == (0, 2, 3, 4, 6, 7, 8, 10, 11, 12, 14, 15)
    assert len(brep.tau.atoms) == 4
    assert brep.quotient_atoms == brep.tau.atoms
    # strictly finer than the quotient topology on this instance
    assert len(glob.topology.opens) < len(brep.tau.opens)


def test_measurability_frozen_failure():
    # The failing branch no swept instance reaches.  C2 fixing each point
    # of the space whose opens are {}, {0, 1} and {0, 1, 2}, so that the
    # tau-atoms are {0, 1} and {2}, its translation by 1 replaced by the
    # swap of classes 0 and 2: the preimage of each atom splits {0, 1}.
    space = FinTop.from_neighborhoods([0b011, 0b011, 0b111])
    pa = PartialAction(cyclic(2), space, (0b111, 0b111), ((0, 1, 2), (0, 1, 2)))
    glob = build(pa)
    moved = Globalization(glob.source, glob.relation, glob.topology,
                          (glob.action[0], (2, 1, 0)), glob.embedding)
    brep = transversal_topology(moved, normalized_selector(pa))
    assert brep.tau.atoms == (0b011, 0b100)
    assert [(c.status, c.witness) for c in brep.report.checks] == [
        (PASS, ()), (INFO, (3, 3)), (PASS, (4, 4)), (PASS, (0b111,)),
        (PASS, (0b111, 0b111)), (PASS, (4, 4)), (FAIL, ((1, 0b011), (1, 0b100))),
    ]


def test_measurability_matches_the_preimage_loop(family, s3_family, changed_family):
    # The atom-image rule against one is_borel call per (g, atom): on the
    # quotient and transversal topologies of every envelope built from
    # the sweeps, their neighbours and the mid-size instances, then on
    # seeded random topologies with random class maps, permutations or
    # not, each group element's row drawn on its own.
    def agree(glob, tau):
        got = _measurability_failures(tau, glob.action)
        assert got == references.measurability_failures(glob, tau), (glob, tau)
        return bool(got)

    built = crossed = 0
    midsize = [pa for *_, pa in midsize_instances()]
    for pa in [*family, *s3_family, *changed_family, *midsize]:
        try:
            glob = build(pa)
        except (AxiomViolation, KeyError):
            continue
        built += 1
        agree(glob, glob.topology)
        try:
            tau = transversal_topology(glob, normalized_selector(pa)).tau
        except (AxiomViolation, LimitExceeded):
            continue
        crossed += 1
        agree(glob, tau)
    # six mid-size transversal topologies pass the open-set limit
    assert (built, crossed) == (447 + 66 + 24, 447 + 66 + 18)

    rng = random.Random(0)
    failing = {True: 0, False: 0}
    for _ in range(3000):
        n = rng.randint(1, 7)
        gens = [rng.getrandbits(n) for _ in range(rng.randint(0, 3))]
        tau = make_topology(n, gens)
        permutations, order = rng.random() < 0.5, rng.randint(1, 4)
        rows = tuple(
            tuple(rng.sample(range(n), n) if permutations else rng.choices(range(n), k=n))
            for _ in range(order)
        )
        # the loop reads the group's elements, the class count and the rows
        source = PartialAction(cyclic(order), discrete(0), (0,) * order, ((),) * order)
        glob = Globalization(source, EqRel(n, range(n)), tau, rows, ())
        failing[permutations] += agree(glob, tau)
    assert failing == {True: 638, False: 591}


@pytest.mark.parametrize("relation, embedding, graph, statuses", [
    # slice 1 lies off the transversal; gluing (1, 1) to class 2 and
    # (1, 2) to class 0 makes the product atom {(1, 0), (1, 1)} meet
    # classes 0 and 2, so the quotient's one atom joins all three classes
    ((0, 1, 2, 0, 2, 0), None, None,
     [(PASS, ()), (INFO, (3, 3)), (FAIL, (2, 4)), (PASS, (0b111,)),
      (PASS, (0b111, 0b111)), (PASS, (4, 4)), (PASS, ())]),
    # points 0 and 1 both embedded in class 0: the image {0, 2} splits the
    # tau-atom {0, 1}; the graph is the image's transversal part, so that
    # clause still holds
    (None, (0, 0, 2), 0b101,
     [(PASS, ()), (INFO, (3, 3)), (PASS, (4, 4)), (FAIL, (0b101,)),
      (PASS, (0b101, 0b101)), (PASS, (4, 4)), (PASS, ())]),
    # the definedness graph without (identity, 2)
    (None, None, 0b011,
     [(PASS, ()), (INFO, (3, 3)), (PASS, (4, 4)), (PASS, (0b111,)),
      (FAIL, (0b111, 0b011)), (PASS, (4, 4)), (PASS, ())]),
    # points 1 and 2 embedded in each other's class: the carrier atom
    # {0, 1} lands on {0, 2}, which is not an atom of the image
    (None, (0, 2, 1), None,
     [(PASS, ()), (INFO, (3, 3)), (PASS, (4, 4)), (PASS, (0b111,)),
      (PASS, (0b111, 0b111)), (FAIL, (4, 4)), (PASS, ())]),
], ids=["borel-equality", "image-borel", "transversal-part", "image-algebra"])
def test_transversal_clause_frozen_failures(relation, embedding, graph, statuses):
    # The failing branches no swept instance reaches, on the instance of
    # the measurability test (tau-atoms {0, 1} and {2}, the transversal
    # the identity slice): a built envelope with its relation or
    # embedding replaced, or its source's definedness graph, fails the
    # one clause that reads it.
    space = FinTop.from_neighborhoods([0b011, 0b011, 0b111])
    pa = PartialAction(cyclic(2), space, (0b111, 0b111), ((0, 1, 2), (0, 1, 2)))
    glob, sel = build(pa), normalized_selector(pa)
    if graph is not None:
        vars(pa)["graph"] = graph
    moved = Globalization(
        pa, glob.relation if relation is None else EqRel(6, relation), glob.topology,
        glob.action, glob.embedding if embedding is None else embedding)
    brep = transversal_topology(moved, sel)
    assert brep.tau.atoms == (0b011, 0b100)
    assert [(c.status, c.witness) for c in brep.report.checks] == statuses


@pytest.mark.parametrize("change, counts", [
    (None, {"envelopes": 415, "joined": 154}),
    (references.merge_two, {"envelopes": 401, "joined": 102}),
    (references.split_two, {"envelopes": 401, "joined": 154}),
], ids=["envelope", "merge", "split"])
def test_quotient_atoms_match_the_class_set_enumeration(
    valid_globs, valid_s3_family, change, counts
):
    # The quotient of the product's atom topology against every class set
    # whose preimage is a union of product atoms: on each envelope, and
    # with two of its classes merged or split (its relation replaced).
    # "joined" counts the envelopes with an atom of two or more classes.
    rng = random.Random(0)
    seen = {"envelopes": 0, "joined": 0}
    for pa, glob in [*valid_globs, *((pa, build(pa)) for pa in valid_s3_family)]:
        rel = glob.relation
        if change is not None:
            if rel.num_classes < 2:
                continue
            rel = EqRel(rel.size, change(rel, rng))
            glob = Globalization(pa, rel, glob.topology, glob.action, glob.embedding)
        atoms = _quotient_atoms(glob)
        assert atoms == references.quotient_atoms(glob), (pa, rel)
        assert atoms == references.quotient_atoms_by_product(glob), (pa, rel)
        seen["envelopes"] += 1
        seen["joined"] += len(atoms) < rel.num_classes
    assert seen == counts


def test_quotient_atoms_match_the_references_on_every_sweep_table(
    family, s3_family, changed_family
):
    # The slice components against the quotient of the product's atom
    # topology and the class-set enumeration, on the envelope of every
    # sweep table and invalid neighbour that builds one.  "wide" counts
    # the carriers with an atom of two or more points, the only slices
    # that can join classes; "joined", the envelopes where one does (on
    # each wide carrier: the embedding is injective, so the identity
    # slice of a wide atom meets two classes).
    seen = {"envelopes": 0, "wide": 0, "joined": 0}
    for pa in [*family, *s3_family, *changed_family]:
        try:
            glob = build(pa)
        except (AxiomViolation, KeyError):
            continue
        atoms = _quotient_atoms(glob)
        assert atoms == references.quotient_atoms_by_product(glob), pa
        assert atoms == references.quotient_atoms(glob), pa
        seen["envelopes"] += 1
        seen["wide"] += len(pa.space.atoms) < pa.space.size
        seen["joined"] += len(atoms) < glob.num_classes
    assert seen == {"envelopes": 513, "wide": 193, "joined": 193}


def test_quotient_atoms_on_the_empty_carrier():
    # no points, no classes, no atoms, as FinTop.atoms gives on the
    # empty space
    pa = PartialAction(cyclic(2), discrete(0), (0, 0), ((), ()))
    glob = build(pa)
    assert _quotient_atoms(glob) == () == references.quotient_atoms_by_product(glob)
    assert transversal_topology(glob, normalized_selector(pa)).report.ok


def test_quotient_atoms_on_a_relation_shorter_than_the_product():
    # A hand-built envelope whose relation misses the product's last
    # point: the slice reading raises the error the product-point
    # reading raised, type and message.
    glob = build(SWAP)
    rel = EqRel(3, glob.relation.class_id[:3])
    short = Globalization(SWAP, rel, glob.topology, glob.action, glob.embedding)
    for reading in (_quotient_atoms, references.quotient_atoms_by_product):
        with pytest.raises(IndexError, match="^list assignment index out of range$"):
            reading(short)


def test_selector_map_stores_its_image_as_a_tuple():
    # an image given as a list used to be kept as the list: the map then
    # compared unequal to the same map given a tuple, and did not hash
    sel = SelectorMap(2, [0, 1])
    assert sel == SelectorMap(2, (0, 1))
    assert sel.image == (0, 1) and type(sel.image) is tuple
    assert hash(sel) == hash(SelectorMap(2, (0, 1)))


def test_extension_frozen_failure():
    # The failing branch no swept instance reaches.  C2 swapping the two
    # Sierpinski pairs of one block, each a closed bottom point 2i under
    # an open top point 2i + 1, restricted to every point but the bottom
    # of pair 0 (3 points), its envelope's quotient topology replaced by
    # the discrete one: class 2 is open there and not in the transversal
    # topology, and every other check still passes.
    space = FinTop.from_neighborhoods([0b0011, 0b0010, 0b1100, 0b1000])
    pa = induced(cyclic(2), space, [(0, 1, 2, 3), (2, 3, 0, 1)], 0b1110)
    glob = build(pa)
    moved = Globalization(glob.source, glob.relation, discrete(glob.num_classes),
                          glob.action, glob.embedding)
    brep = transversal_topology(moved, normalized_selector(pa))
    assert [(c.status, c.witness) for c in brep.report.checks] == [
        (FAIL, (2,)), (INFO, (16, 12)), (PASS, (16, 16)), (PASS, (7,)),
        (PASS, (7, 7)), (PASS, (8, 8)), (PASS, ()),
    ]


def test_transversal_topology_across_family(valid_globs):
    for pa, glob in valid_globs:
        brep = transversal_topology(glob, normalized_selector(pa))
        assert brep.report.ok, (pa, brep.report.failures())


@pytest.mark.parametrize("size", [2, 9])
@pytest.mark.parametrize("check", [transversal_topology, bireducibility_report])
def test_selector_of_the_wrong_size_is_refused(check, size):
    # the product of example_k3 has 6 points: a selector on fewer or
    # more is refused before either check reads it
    sel = SelectorMap(size, tuple(range(size)))
    with pytest.raises(ValueError, match=f"selector has {size} points, the product 6"):
        check(build(K3), sel)


def test_selector_of_another_relation_is_refused():
    # the identity selector on the six product points of example_k3 meets
    # three of its four classes once and class 1 three times
    with pytest.raises(AxiomViolation) as caught:
        transversal_topology(build(K3), SelectorMap(6, tuple(range(6))))
    assert str(caught.value) == "transversal does not meet every class exactly once"
    assert caught.value.witness == (0, 1, 2, 1, 3, 1)


def test_continuity_table_frozen():
    glob = build(K3)
    brep = transversal_topology(glob, normalized_selector(K3))
    rows, rep = action_continuity_table(glob, brep)
    assert rep.ok
    assert rows == (
        (True, True, True, True),
        (False, True, True, True),
        (False, True, True, True),
    )


def test_continuity_table_identity_row(valid_globs):
    for pa, glob in valid_globs:
        brep = transversal_topology(glob, normalized_selector(pa))
        rows, _ = action_continuity_table(glob, brep)
        assert all(rows[pa.group.identity])


def test_continuity_table_total_discrete():
    glob = build(SWAP)
    brep = transversal_topology(glob, normalized_selector(SWAP))
    rows, _ = action_continuity_table(glob, brep)
    assert all(all(row) for row in rows)


def test_bireducibility_across_family(valid_globs, valid_s3_family):
    # each direction accepted by one partition comparison: the pair
    # scan's report
    for pa, glob in [*valid_globs, *((pa, build(pa)) for pa in valid_s3_family)]:
        sel = normalized_selector(pa)
        rep = bireducibility_report(glob, sel)
        assert rep.ok, (pa, rep.failures())
        assert rep == references.bireducibility_report(glob, sel), pa


def test_bireducibility_coordinate_witness_matches_class_sets(
    valid_globs, valid_s3_family
):
    # The identity selector keeps every pair's own coordinate, so it
    # varies inside every class that glues two points of the carrier.
    globs = [*valid_globs, *((pa, build(pa)) for pa in valid_s3_family)]
    raised = 0
    for pa, glob in globs:
        assert references.coordinate_spread(glob, normalized_selector(pa)) == ()
        n = glob.relation.size
        identity = SelectorMap(n, tuple(range(n)))
        spread = references.coordinate_spread(glob, identity)
        if not spread:
            bireducibility_report(glob, identity)
            continue
        message = "^selector second coordinate is not constant on classes$"
        with pytest.raises(AxiomViolation, match=message) as info:
            bireducibility_report(glob, identity)
        assert info.value.witness == spread, pa
        raised += 1
    assert (len(globs), raised) == (415, 164)


def test_orbit_enumeration_across_family(valid_family):
    for pa in valid_family:
        rep = orbit_homeomorphism_report(pa)
        assert rep.ok, (pa, rep.failures())


def test_orbit_enumeration_frozen_rotation():
    rot = PartialAction(
        cyclic(3), discrete(3), (0b111,) * 3, ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    )
    assert orbit_homeomorphism_report(rot).ok


NS, OH = "normalized_selector", "orbit_homeomorphism_report"
PASSES = (PASS, PASS, PASS)
_CHECKS = [
    (normalized_selector, references.normalized_selector),
    (orbit_homeomorphism_report, references.orbit_homeomorphism_report),
]


def _kind(check, outcome):
    # what a check returned: the exception it raised, the statuses of
    # its report's checks, or "selector"
    if isinstance(outcome, tuple):
        return check.__name__, outcome[0].__name__
    if isinstance(outcome, SelectorMap):
        return check.__name__, "selector"
    return check.__name__, tuple(c.status for c in outcome.checks)


def test_orbit_checks_match_the_mask_references(family, s3_family, changed_family):
    # the same selector or report, or the same exception type, message
    # and witness, on every sweep instance and its invalid neighbours
    seen: dict = {}
    for pa in [*family, *s3_family, *changed_family]:
        for check, reference in _CHECKS:
            expected = references.outcome(references.on_lifted_relation(reference), pa)
            got = references.outcome(check, references.fresh(pa))
            assert got == expected, (check, pa)
            kind = _kind(check, expected)
            seen[kind] = seen.get(kind, 0) + 1
    assert seen == {
        (NS, "AxiomViolation"): 1303, (NS, "KeyError"): 231, (NS, "selector"): 513,
        (OH, "AxiomViolation"): 1303, (OH, "KeyError"): 231, (OH, PASSES): 513,
    }


def _coarse_product(pa):
    # the product with the indiscrete group: each neighbourhood meets
    # every slice, so no orbit of two or more points is discrete in it
    order, size = pa.group.order, pa.space.size
    spread = [sum(n << (j * size) for j in range(order)) for n in pa.space.nbrs]
    return FinTop.from_neighborhoods(spread * order)


def test_orbit_enumeration_frozen_failures():
    # The two clauses no group table reaches, each on C3 fixing one
    # point.  A stated inverse table that makes every element its own
    # inverse: for g != e, inv(j) * g misses the h sending g to (j, 0).
    # The product with the indiscrete group: the orbit of three product
    # points is not discrete in it.
    fixed = ((0,),) * 3
    wrong_inverse = FiniteGroup(3, cyclic(3).mul, 0, (0, 1, 2))
    rep = orbit_homeomorphism_report(
        PartialAction(wrong_inverse, discrete(1), (1, 1, 1), fixed)
    )
    missed = ((1, 0, 0), (1, 0, 1), (1, 0, 2), (2, 0, 0), (2, 0, 1), (2, 0, 2))
    assert [(c.status, c.witness) for c in rep.checks] == [
        (PASS, ()), (FAIL, missed), (PASS, ()),
    ]
    # C4 with the inverses of 2 and 3 swapped: for g = 1 the h = 3 comes
    # back to itself, so only the members of the other h are listed
    swapped = FiniteGroup(4, cyclic(4).mul, 0, (0, 1, 3, 2))
    rep = orbit_homeomorphism_report(
        PartialAction(swapped, discrete(1), (1,) * 4, ((0,),) * 4)
    )
    missed = ((1, 0, 0), (1, 0, 1), (1, 0, 2),
              (2, 0, 0), (2, 0, 1), (2, 0, 2), (2, 0, 3), (3, 0, 0))
    assert [(c.status, c.witness) for c in rep.checks] == [
        (PASS, ()), (FAIL, missed), (PASS, ()),
    ]
    coarse = PartialAction(cyclic(3), discrete(1), (1, 1, 1), fixed)
    vars(coarse)["product"] = _coarse_product(coarse)
    rep = orbit_homeomorphism_report(coarse)
    assert [(c.status, c.witness) for c in rep.checks] == [
        (PASS, ()), (PASS, ()), (FAIL, ((0, 0), (1, 0), (2, 0))),
    ]


@pytest.mark.parametrize(
    "changed, change, kinds",
    [
        ("carrier", references.merge_two, {(FAIL, False): 704}),
        ("envelope", references.merge_two, {(FAIL, False): 704}),
        ("carrier", references.split_two, {(FAIL, False): 252, (PASS, False): 452}),
        ("envelope", references.split_two, {(FAIL, False): 276, (PASS, False): 428}),
    ],
)
def test_bireducibility_witnesses_match_the_pair_scan_on_changed_relations(
    monkeypatch, valid_family, valid_s3_family, changed, change, kinds
):
    # Seeded merges and splits of either relation reach the failure
    # paths of both directions.
    rng = random.Random(0)
    seen: dict = {}
    for pa in [*valid_family, *valid_s3_family]:
        reports = references.changed_bireducibility(pa, changed, change, rng, monkeypatch)
        if reports:
            got, expected = reports
            assert got == expected, pa
            references.count_witnesses(expected, seen)
    assert seen == kinds


@pytest.mark.parametrize(
    "change, kinds",
    [
        ("merge", {(OH, (FAIL, PASS, PASS)): 401}),
        ("split", {(OH, (FAIL, PASS, PASS)): 363, (OH, PASSES): 38}),
        ("coarse product", {
            (NS, "selector"): 415, (OH, (PASS, PASS, FAIL)): 367, (OH, PASSES): 48,
        }),
    ],
)
def test_orbit_checks_match_the_references_on_changed_lifted_classes(
    valid_family, valid_s3_family, change, kinds
):
    # Seeded merges and splits of the lifted classes reach the failure
    # witnesses of the orbit enumeration; a product in which the orbits
    # are not discrete reaches its homeomorphism clause.  The normalized
    # selector reads the classes by the lemma above ``globalize.build``,
    # which holds on the classes ``lifted_orbits`` builds and not on
    # injected ones, so it is compared on the coarse product alone.
    rng = random.Random(0)
    seen: dict = {}
    checks = _CHECKS if change == "coarse product" else _CHECKS[1:]
    for pa in [*valid_family, *valid_s3_family]:
        pa = references.fresh(pa)
        if change == "coarse product":
            vars(pa)["product"] = _coarse_product(pa)
        rel = pa.lifted_orbits
        if change in ("merge", "split"):
            if rel.num_classes < 2:
                continue
            redraw = references.merge_two if change == "merge" else references.split_two
            rel = vars(pa)["lifted_orbits"] = EqRel(rel.size, redraw(rel, rng))
        for check, reference in checks:
            expected = references.outcome(reference, pa, rel)
            assert references.outcome(check, pa) == expected, (check, pa)
            kind = _kind(check, expected)
            seen[kind] = seen.get(kind, 0) + 1
    assert seen == kinds

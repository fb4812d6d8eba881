from __future__ import annotations

import hashlib
import random

import pytest

import pactop.topology as topology
import references
from gspaces import klein_four, symmetric3
from pactop import instances, paction
from pactop import (
    EqRel,
    FinTop,
    PartialAction,
    acting_set,
    build,
    cyclic,
    discrete,
    example_k3,
    hat_relation_report,
    induced,
    induced_family,
    lifted_action,
    mutant_family,
    normalized_selector,
    orbit,
    orbit_consistency_report,
    orbit_equivalence,
    orbit_homeomorphism_report,
    pair_action,
    product,
    product_with_discrete,
    quotient,
    stabilizer,
    validate,
)
from pactop.errors import AxiomViolation, InvalidSubset, NotAnAction
from pactop.instances import induced_instances
from pactop.reports import FAIL, NA, PASS, Report, ReportBuilder
from pactop.topology import iter_bits, mask_of

Z2 = cyclic(2)
Z3 = cyclic(3)

SWAP = PartialAction(Z2, discrete(2), (0b11, 0b11), ((0, 1), (1, 0)))
ROTATION_ROWS = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
# the groups and generators of induced_family(4, ...)
CYCLIC_UP_TO_4 = [(cyclic(k), (1,) if k > 1 else ()) for k in range(1, 5)]


def rotation3():
    return PartialAction(
        Z3, discrete(3), (0b111, 0b111, 0b111), tuple(ROTATION_ROWS)
    )


def section(report, name):
    for s in report.sections:
        if s.name == name:
            return s
    raise AssertionError(f"no section {name}")


def check(report, name):
    for c in report.checks:
        if c.name == name:
            return c
    raise AssertionError(f"no check {name}")


def test_pair_encoding_roundtrip():
    # the product point (g, x) is g * size + x, the group coordinate
    # major: it splits back by divmod, and its neighbourhood is that of
    # x in copy g
    for size in (1, 2, 3):
        space = FinTop(size, (0, 1, (1 << size) - 1))
        prod = product_with_discrete(space, 4)
        for g in range(4):
            for x in range(size):
                assert divmod(g * size + x, size) == (g, x)
                assert prod.nbrs[g * size + x] == space.nbrs[x] << (g * size)


def test_validate_accepts_total_actions():
    assert validate(SWAP).ok
    assert validate(rotation3()).ok
    # products with 2**25 and 64**6 open sets, past any enumeration
    z25 = cyclic(25)
    assert validate(PartialAction(z25, discrete(1), (1,) * 25, ((0,),) * 25)).ok
    z6 = cyclic(6)
    rows = tuple(tuple((x + g) % 6 for x in range(6)) for g in range(6))
    assert validate(PartialAction(z6, discrete(6), (0b111111,) * 6, rows)).ok


def test_validate_accepts_partial_identity_on_open_piece():
    # z2 acting on the discrete pair only at the point 0
    pa = PartialAction(Z2, discrete(2), (0b11, 0b01), ((0, 1), (0, -1)))
    assert validate(pa).ok


def test_validate_rejects_remapped_entry():
    # same instance with the defined entry redirected: image misses the
    # range set, so both formulations must reject
    pa = PartialAction(Z2, discrete(2), (0b11, 0b01), ((0, 1), (1, -1)))
    rep = validate(pa)
    assert not rep.ok
    assert not section(rep, "pair-axioms").ok
    assert not section(rep, "bijection-axioms").ok
    agreement = check(rep, "both axiom formulations give the same verdict")
    assert agreement.status == PASS


def test_validate_rejects_identity_gap():
    pa = PartialAction(Z2, discrete(2), (0b01, 0b11), ((0, -1), (0, 1)))
    rep = validate(pa)
    assert not rep.ok
    assert not section(rep, "pair-axioms").ok
    assert not section(rep, "bijection-axioms").ok


def test_validate_rejects_non_open_domain():
    # sierpinski space: {x0} is not open, so a domain equal to it fails
    # the topological section even though the algebra is fine
    space = FinTop(2, (0, 0b10, 0b11))
    pa = PartialAction(Z2, space, (0b11, 0b01), ((0, 1), (0, -1)))
    rep = validate(pa)
    assert not rep.ok
    assert section(rep, "pair-axioms").ok
    assert section(rep, "bijection-axioms").ok
    assert not section(rep, "topological").ok


def test_validate_rejects_bijection_that_is_no_homeomorphism():
    # the open domain {0, 1} is a Sierpinski space (0 open, 1 closed) and
    # point 2 is isolated; swapping 0 and 1 keeps every algebraic axiom
    # but carries the open point onto the closed one
    space = FinTop.from_neighborhoods((0b001, 0b011, 0b100))
    pa = PartialAction(Z2, space, (0b111, 0b011), ((0, 1, 2), (1, 0, -1)))
    rep = validate(pa)
    assert not rep.ok
    assert section(rep, "pair-axioms").ok
    assert section(rep, "bijection-axioms").ok
    topological = section(rep, "topological")
    assert check(topological, "every domain set is open").status == PASS
    homeo = check(topological, "each map is a homeomorphism between its domains")
    assert (homeo.status, homeo.witness) == (FAIL, (1,))


def test_validate_flags_ill_formed_tables():
    # entry defined outside dom(inv g): the axiom sections are skipped
    # as not-applicable rather than judged pass or fail
    pa = PartialAction(Z2, discrete(2), (0b11, 0b01), ((0, 1), (0, 1)))
    rep = validate(pa)
    assert not rep.ok
    assert not section(rep, "well-formedness").ok
    for check_name in ("pair-axioms", "bijection-axioms", "formulations agree"):
        assert check(rep, check_name).status == NA


def test_formulations_agree_across_family(family):
    for pa in family:
        group, size = pa.group, pa.space.size
        for x in pa.space.points():
            assert pa.acting[x] == sum(
                1 << g for g in group.elements() if (pa.dom[group.inv[g]] >> x) & 1
            )
            assert pa.orbits[x] == sum(
                {1 << pa.maps[g][x] for g in group.elements() if pa.maps[g][x] >= 0}
            )
        assert pa.graph == sum(
            pa.dom[group.inv[g]] << (g * size) for g in group.elements()
        )
        assert pa.product == product_with_discrete(pa.space, group.order)
        assert pa.orbit_quotient == quotient(pa.space, orbit_equivalence(pa))
        rep = validate(pa)
        agreement = check(rep, "both axiom formulations give the same verdict")
        assert agreement.status in (PASS, NA)
        if agreement.status == PASS:
            pair_ok, bij_ok = agreement.witness
            assert pair_ok == bij_ok


def _defined(pa: PartialAction, g: int, x: int) -> bool:
    return pa.maps[g][x] >= 0


def pair_axioms_by_accessors(pa: PartialAction) -> Report:
    """The pair-style axioms entry by entry through the definedness test
    and ``act``: the reference for ``paction._pair_axioms``, which reads
    the map rows directly."""
    rb = ReportBuilder("pair-axioms")
    group, size = pa.group, pa.space.size
    e = group.identity

    bad = [x for x in range(size) if not (_defined(pa, e, x) and pa.act(e, x) == x)]
    rb.check("identity acts everywhere as the identity", not bad, tuple(bad))

    bad_undo = []
    for g in group.elements():
        gi = group.inv[g]
        for x in range(size):
            if _defined(pa, g, x):
                y = pa.act(g, x)
                if not (_defined(pa, gi, y) and pa.act(gi, y) == x):
                    bad_undo.append((g, x))
    rb.check("inverse undoes every defined move", not bad_undo, tuple(bad_undo))

    bad_comp = []
    for g in group.elements():
        for h in group.elements():
            gh = group.mul[g][h]
            for x in range(size):
                if _defined(pa, h, x) and _defined(pa, g, pa.act(h, x)):
                    if not (
                        _defined(pa, gh, x)
                        and pa.act(g, pa.act(h, x)) == pa.act(gh, x)
                    ):
                        bad_comp.append((g, h, x))
    rb.check(
        "composed moves extend to the product element", not bad_comp, tuple(bad_comp)
    )
    return rb.build()


def bijection_axioms_by_accessors(pa: PartialAction) -> Report:
    """The bijection-style axioms reading every table through ``pa`` in
    the loop: the reference for ``paction._bijection_axioms``."""
    rb = ReportBuilder("bijection-axioms")
    group, size = pa.group, pa.space.size
    e = group.identity

    bad_bij = []
    for g in group.elements():
        src = pa.dom[group.inv[g]]
        seen: dict[int, int] = {}
        image = 0
        for x in iter_bits(src):
            y = pa.maps[g][x]
            if y < 0:
                bad_bij.append((g, x))
                continue
            if y in seen:
                bad_bij.append((g, seen[y], x))
            seen[y] = x
            image |= 1 << y
        if image != pa.dom[g]:
            bad_bij.append((g,) + tuple(iter_bits(image ^ pa.dom[g])))
    rb.check("each map is a bijection onto its range set", not bad_bij, tuple(bad_bij))

    id_ok = pa.dom[e] == pa.space.full and all(
        pa.maps[e][x] == x for x in range(size)
    )
    rb.check("identity element has full domain and identity map", id_ok)

    bad_ranges = []
    for g in group.elements():
        for h in group.elements():
            src = pa.dom[group.inv[g]] & pa.dom[h]
            img = 0
            for x in iter_bits(src):
                y = pa.maps[g][x]
                if y < 0:
                    img = -1
                    break
                img |= 1 << y
            if img != pa.dom[g] & pa.dom[group.mul[g][h]]:
                bad_ranges.append((g, h))
    rb.check(
        "maps carry domain intersections onto range intersections",
        not bad_ranges,
        tuple(bad_ranges),
    )

    bad_comp = []
    for g in group.elements():
        for h in group.elements():
            gh = group.mul[g][h]
            region = pa.dom[group.inv[h]] & pa.dom[group.inv[gh]]
            for x in iter_bits(region):
                y = pa.maps[h][x]
                if y < 0 or pa.maps[g][y] < 0 or pa.maps[g][y] != pa.maps[gh][x]:
                    bad_comp.append((g, h, x))
    rb.check(
        "composition agrees with the product element on its region",
        not bad_comp,
        tuple(bad_comp),
    )
    return rb.build()


def _entry_edits(instances, per_instance: int, seed: int):
    # one map entry of one instance set to a seeded value in [-1, size):
    # ill-formed when definedness changes, well-formed (and mostly
    # failing) when one image is redirected
    rng = random.Random(seed)
    for pa in instances:
        size = pa.space.size
        if not size:
            continue
        for _ in range(per_instance):
            g, x = rng.randrange(pa.group.order), rng.randrange(size)
            maps = [list(row) for row in pa.maps]
            maps[g][x] = rng.randrange(-1, size)
            yield PartialAction(pa.group, pa.space, pa.dom, tuple(map(tuple, maps)))


def test_graph_open_reads_the_domains(family, s3_family, changed_family, monkeypatch):
    # A set is open in the product with the discrete group exactly when
    # each slice is, so validate reads the domains and builds no product:
    # its report is the one it gave when it read the product.
    counts: dict = {}
    for pa in [*family, *s3_family, *changed_family]:
        assert pa.graph_open == references.graph_open(pa), pa
        got, expected = references.validate_without_product(pa, monkeypatch)
        assert got == expected, pa
        counts[pa.graph_open] = counts.get(pa.graph_open, 0) + 1
    assert counts == {True: 1411, False: 636}


def test_axioms_match_the_accessor_reference(
    family, s3_family, valid_family, monkeypatch
):
    tables = (
        family
        + s3_family
        + [pa for seed in range(8) for _, pa in mutant_family(valid_family, seed=seed)]
        + list(_entry_edits(family + s3_family, 5, seed=14))
    )
    engine = [validate(pa).to_dict() for pa in tables]
    monkeypatch.setattr(paction, "_pair_axioms", pair_axioms_by_accessors)
    monkeypatch.setattr(paction, "_bijection_axioms", bijection_axioms_by_accessors)
    for pa, report in zip(tables, engine):
        assert validate(pa).to_dict() == report, pa

    def status(report, name):
        found = [s["status"] for s in report["sections"] if s["name"] == name]
        return found[0] if found else NA

    # 638 tables are ill-formed; the axiom sections judge the rest and
    # reject 2,522 of them
    counts = [
        sum(status(r, name) == FAIL for r in engine)
        for name in ("well-formedness", "pair-axioms", "bijection-axioms")
    ]
    assert (len(tables), counts) == (4247, [638, 2522, 2522])


def test_acting_set_stabilizer_orbit():
    pa = example_k3()
    # closed basepoint x0 = 0: identity only; open point v = 1: all
    assert acting_set(pa, 0) == 0b001
    assert acting_set(pa, 1) == 0b111
    assert stabilizer(pa, 1) == 0b111
    assert orbit(pa, 0) == 0b01
    assert orbit(pa, 1) == 0b10


@pytest.mark.parametrize("lookup", [acting_set, stabilizer, orbit])
@pytest.mark.parametrize("x", [-1, 2, True, 1.0, 100.0, "0"])
def test_point_lookups_reject_points_outside_the_carrier(lookup, x):
    # -1 would otherwise read the last point's row, 2 raise IndexError,
    # True read point 1, and 1.0 or "0" raise a bare TypeError
    with pytest.raises(InvalidSubset, match="point is not within the carrier") as exc:
        lookup(SWAP, x)
    assert exc.value.witness == (x,)


@pytest.mark.parametrize("dom, maps, message", [
    (3, SWAP.maps, "dom and maps must have one entry per group element"),
    (SWAP.dom, 5, "dom and maps must have one entry per group element"),
    (SWAP.dom, ((0, 1), 5), "maps[1] must have one entry per point"),
])
def test_constructor_refuses_tables_that_are_not_sequences(dom, maps, message):
    # len() of an int raised a bare TypeError
    with pytest.raises(ValueError) as caught:
        PartialAction(Z2, discrete(2), dom, maps)
    assert type(caught.value) is ValueError
    assert str(caught.value) == message


@pytest.mark.parametrize("mask", [-1, 4, True, 1.0, 100.0, "0"])
def test_constructor_refuses_a_domain_outside_the_carrier(mask):
    # True used to pass as the set {0}, and 1.0 made validate raise a
    # bare TypeError
    with pytest.raises(ValueError) as caught:
        PartialAction(Z2, discrete(2), (0b11, mask), SWAP.maps)
    assert type(caught.value) is ValueError
    assert str(caught.value) == "dom[1] outside the carrier"


@pytest.mark.parametrize("y", [-2, 2, True, 1.0, 100.0, "0", -1.0])
def test_constructor_refuses_a_map_entry_outside_the_carrier(y):
    # -1 marks an undefined entry, so -2 is the int below the range;
    # True used to pass as point 1 and validate to accept it
    with pytest.raises(ValueError) as caught:
        PartialAction(Z2, discrete(2), SWAP.dom, ((0, 1), (y, 0)))
    assert type(caught.value) is ValueError
    assert str(caught.value) == f"maps[1][0] = {y!r} out of range"


def test_orbit_equivalence_matches_reachability():
    pa = rotation3()
    rel = orbit_equivalence(pa)
    assert rel.num_classes == 1
    rel2 = orbit_equivalence(example_k3())
    assert rel2.num_classes == 2
    assert rel2.class_id[0] != rel2.class_id[1]


def test_orbit_equivalence_matches_the_mask_reference(
    family, s3_family, changed_family
):
    # On each instance and on its lift, where the lift can be built: the
    # same EqRel, or the same exception type, message and witness.  A
    # table whose maps miss or overshoot their domains reads its rows
    # from ``orbits``, as the reference does.
    kinds = {"rel": 0, KeyError: 0, AxiomViolation: 0}
    ill_formed = 0
    for pa in [*family, *s3_family, *changed_family]:
        ill_formed += not paction.well_formedness(pa).ok
        actions = [pa]
        lifted = references.outcome(lifted_action, pa)
        if isinstance(lifted, PartialAction):
            actions.append(lifted)
        for action in actions:
            expected = references.outcome(references.orbit_equivalence, action)
            got = references.outcome(orbit_equivalence, references.fresh(action))
            assert got == expected, action
            kinds["rel" if isinstance(expected, EqRel) else expected[0]] += 1
    assert ill_formed == 482
    assert kinds == {"rel": 1726, KeyError: 231, AxiomViolation: 1906}


def test_induced_restriction_tables():
    # order-3 rotation of three discrete points cut down to {0, 1}:
    # element 1 lands only on 1 (from 0), element 2 only on 0 (from 1)
    pa = induced(Z3, discrete(3), ROTATION_ROWS, 0b011)
    assert pa.space.size == 2
    assert pa.dom == (0b11, 0b10, 0b01)
    assert pa.maps[1] == (1, -1)
    assert pa.maps[2] == (-1, 0)
    assert validate(pa).ok


@pytest.mark.parametrize(
    "group, space, rows, carrier, error, message, witness",
    [
        (Z2, discrete(2), [(0, 1), (0, 0)], 0b11, NotAnAction,
         "row of element 1 is not a permutation", (1,)),
        # swap has order 2, so its rows cannot compose as an order-3 action
        (Z3, discrete(2), [(0, 1), (1, 0), (0, 1)], 0b11, NotAnAction,
         "rows do not compose at (1, 2, 0)", (1, 2, 0)),
        (Z2, FinTop(2, (0, 0b10, 0b11)), [(0, 1), (1, 0)], 0b11, NotAnAction,
         "row of element 1 is not continuous", (1,)),
        (Z2, discrete(2), [(1, 0), (0, 1)], 0b11, NotAnAction,
         "identity row is not the identity map", (0,)),
        *[(Z2, discrete(2), [(0, 1), (1, 0)], carrier, InvalidSubset,
           "carrier is not within the point range", (carrier,))
          for carrier in (0b100, -1, True, 1.0, 100.0, "0")],
        # a table or row with no len() raised a bare TypeError
        (Z2, discrete(2), 5, 0b11, NotAnAction,
         "action table needs one row per group element", ()),
        (Z2, discrete(2), [[0, 1], 5], 0b11, NotAnAction,
         "row of element 1 is not a permutation", (1,)),
        # True and 1.0 sort as 1, so these passed as permutations and
        # ended in the continuity check's ValueError or a bare TypeError
        # from indexing; 'a' raised a bare TypeError from sorting
        *[(Z2, discrete(2), rows, 0b11, NotAnAction,
           f"row of element {g} is not a permutation", (g,))
          for g, rows in [(0, [[0, True], [1, 0]]), (1, [[0, 1], [True, 0]]),
                          (1, [[0, 1], [1.0, 0]]), (1, [[0, 1], [1, "a"]])]],
    ],
)
def test_induced_rejects_non_actions(
    group, space, rows, carrier, error, message, witness
):
    with pytest.raises(error) as caught:
        induced(group, space, rows, carrier)
    assert type(caught.value) is error
    assert str(caught.value) == message
    assert caught.value.witness == witness


@pytest.mark.parametrize(
    "group, gens, message",
    [
        (Z3, (-1,), "generator -1 is not an element of the group of order 3"),
        (Z2, (5,), "generator 5 is not an element of the group of order 2"),
        (cyclic(4), (2,), "generators (2,) do not generate the group: "
         "the walk from the identity misses element 1"),
        *[(Z3, (s,), f"generator {s!r} is not an element of the group of order 3")
          for s in (3, True, 1.0, 100.0, "0")],
    ],
)
def test_induced_instances_refuses_bad_generators(group, gens, message):
    # -1 used to read element 2 of C3 through mul[-1], 5 raised a bare
    # IndexError and a non-generating set a bare KeyError
    with pytest.raises(ValueError) as caught:
        induced_instances([(group, gens)], 1)
    assert type(caught.value) is ValueError
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "groups, max_points, members",
    [
        (CYCLIC_UP_TO_4, 3, 213),
        (CYCLIC_UP_TO_4[:2], 4, 1305),
        ([(klein_four(), (1, 2))], 3, 131),
        ([(symmetric3(), (1, 3))], 3, 94),
        # an equal group listed twice merges its members with the first's
        ([(cyclic(3), (1,)), (cyclic(3), (2,))], 3, 44),
    ],
)
def test_induced_instances_matches_the_per_carrier_generator(
    groups, max_points, members
):
    # the same members in the same order as checking the total action
    # and building the subspace again at every carrier
    got = induced_instances(groups, max_points)
    assert len(got) == members
    assert got == references.induced_instances(groups, max_points)


def test_induced_family_checks_each_total_action_once(monkeypatch):
    # one check per (space, group, generator images), one subspace per
    # (space, carrier) and one construction per member, against a check,
    # a subspace and a construction at every carrier of every such table
    calls = {}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    def count(generate, *args):
        calls.update(check=0, subspace=0, construct=0)
        generate(*args)
        return calls["check"], calls["subspace"], calls["construct"]

    monkeypatch.setattr(
        instances, "check_total_action",
        counted("check", instances.check_total_action),
    )
    monkeypatch.setattr(topology, "subspace", counted("subspace", topology.subspace))
    monkeypatch.setattr(instances, "PartialAction", counted("construct", PartialAction))
    assert count(induced_family, 4, 3) == (217, 250, 213)
    assert count(references.induced_instances, CYCLIC_UP_TO_4, 3) == (1415, 1384, 1384)
    s3 = [(symmetric3(), (1, 3))]
    assert count(induced_instances, s3, 3)[2] == 94
    assert count(references.induced_instances, s3, 3)[2] == 522


@pytest.mark.parametrize("gens", [(1, 1), (0, 1)])
def test_induced_instances_checks_the_image_of_every_generator(monkeypatch, gens):
    # The walk never reads the image of the identity or of a generator
    # listed twice; an image choice whose rows differ from it used to be
    # checked and accepted anyway (155 checks, 85 accepted), and only
    # deduplication kept the members right.
    calls = {"check": 0, "accepted": 0}
    check_total_action = instances.check_total_action

    def counted(*args):
        calls["check"] += 1
        check_total_action(*args)
        calls["accepted"] += 1

    monkeypatch.setattr(instances, "check_total_action", counted)
    got = induced_instances([(Z3, gens)], 3)
    assert calls == {"check": 61, "accepted": 38}
    assert got == induced_instances([(Z3, (1,))], 3)


def test_induced_on_empty_carrier():
    pa = induced(Z2, discrete(2), [(0, 1), (1, 0)], 0)
    assert pa.space.size == 0
    assert validate(pa).ok


def test_validate_accepts_empty_domains_outside_a_subgroup():
    # the subgroup {0, 2} of Z4 swaps two points; 1 and 3 act nowhere
    pa = PartialAction(
        cyclic(4), discrete(2), (0b11, 0, 0b11, 0),
        ((0, 1), (-1, -1), (1, 0), (-1, -1)),
    )
    assert validate(pa).ok


def test_lifted_action_moves_pairs():
    # one swap move: element 1 sends (0, 0) to (1, 1) in the
    # group-major pair encoding
    lifted = lifted_action(SWAP)
    size = SWAP.space.size
    p = 0 * size + 0
    q = lifted.maps[1][p]
    assert divmod(q, size) == (1, 1)
    assert validate(lifted).ok


def test_lifted_action_of_partial_instance_is_valid():
    lifted = lifted_action(example_k3())
    rep = validate(lifted)
    assert rep.ok


def test_lifted_orbits_are_computed_once_and_the_lift_is_not_kept(
    valid_family, monkeypatch
):
    # Envelope construction, the lift-orbit-relation check, the
    # normalized selector and the orbit enumeration read one cached
    # table, the lifted orbit relation, built by one from_relation of
    # |G|·|X| points: the lifted action (|G|²·|X| entries) is never
    # built, and the envelope glues along that very table.
    def refuse(pa):
        raise AssertionError("the lifted action was built")

    monkeypatch.setattr(paction, "lifted_action", refuse)
    sizes = []
    relate = paction.from_relation
    monkeypatch.setattr(
        paction, "from_relation", lambda size, rows: sizes.append(size) or relate(size, rows))
    for pa in valid_family:
        pa = references.fresh(pa)
        glob = build(pa)
        hat_relation_report(glob)
        normalized_selector(pa)
        orbit_homeomorphism_report(pa)
        assert glob.relation is pa.lifted_orbits, pa
        assert sizes == [pa.group.order * pa.space.size], pa
        sizes.clear()
        assert not any(isinstance(v, PartialAction) for v in vars(pa).values()), pa


def test_pair_action_acts_through_second_coordinate():
    pa = SWAP
    beta = pair_action(pa)
    size = pa.space.size
    assert beta.space.size == size * size
    # (x, y) with x frozen: 1.(0, 0) = (0, 1) in x-major encoding
    p = 0 * size + 0
    assert beta.maps[1][p] == 0 * size + 1
    assert validate(beta).ok


def test_lifted_and_pair_actions_match_their_definitions(family, s3_family):
    # g.(h, x) = (h * inv(g), g.x) on the lift and g.(w, x) = (w, g.x) on
    # pairs, each defined exactly where g acts on x; the Klein four and
    # S3 instances pin the order of the product h * inv(g)
    for pa in family + s3_family:
        group, size = pa.group, pa.space.size
        lifted, beta = lifted_action(pa), pair_action(pa)
        assert lifted.space == product_with_discrete(pa.space, group.order)
        assert beta.space == product(pa.space, pa.space)
        for g in group.elements():
            lift_row = [-1] * (group.order * size)
            pair_row = [-1] * (size * size)
            for x in iter_bits(pa.dom[group.inv[g]]):
                for h in group.elements():
                    lift_row[h * size + x] = (
                        group.mul[h][group.inv[g]] * size + pa.act(g, x))
                for w in pa.space.points():
                    pair_row[w * size + x] = w * size + pa.act(g, x)
            assert lifted.maps[g] == tuple(lift_row)
            assert beta.maps[g] == tuple(pair_row)
            # dom[g], where the map lands, in every copy of the carrier
            lands = tuple(iter_bits(pa.dom[g]))
            assert lifted.dom[g] == mask_of(
                h * size + y for h in group.elements() for y in lands)
            assert beta.dom[g] == mask_of(
                w * size + y for w in pa.space.points() for y in lands)


def _tables_digest(instances):
    h = hashlib.sha256()
    for pa in instances:
        h.update(repr((pa.group.mul, pa.space.nbrs, pa.dom, pa.maps)).encode())
    return len(instances), h.hexdigest()[:16]


def test_sweep_families_keep_their_members_and_order(family, s3_family, family3):
    # seeded mutant draws pick members by position, so the order is
    # pinned along with the members, and so are the draws themselves
    sweep = induced_family(4, 3)
    assert _tables_digest(sweep) == (213, "37ec11acfe407901")
    mutants = [m for _, m in mutant_family(sweep, 200, seed=0)]
    assert _tables_digest(mutants) == (200, "3b9be9af15695a9e")
    assert _tables_digest(family3) == (146, "e83d45e946fb9560")
    assert _tables_digest(family) == (353, "ca61538b8b92b9f0")
    assert _tables_digest(s3_family) == (94, "616c502ba707ce61")


@pytest.mark.parametrize(
    "instances",
    [[], [PartialAction(cyclic(2), FinTop(0, (0,)), (0, 0), ((), ()))]],
    ids=["no-instance", "no-point"],
)
def test_mutant_family_needs_a_point(instances):
    # every mutator needs a point: the empty list used to fail inside
    # random.choice and the pointless instance to draw forever
    with pytest.raises(ValueError, match="at least one point"):
        mutant_family(instances, 5)


def test_mutants_of_an_action_with_no_defined_entry(monkeypatch):
    # C2 on two points with every entry undefined: each time the remap
    # mutator is drawn it finds no entry to redirect and gives nothing
    # (rng.choice([]) would raise IndexError), and the discrete space has
    # no non-open domain, so every mutant is an identity gap
    remapped = []

    def remap(pa, rng):
        remapped.append(instances._remap_mutant(pa, rng))
        return remapped[-1]

    mutators = (("remap", remap), *instances._MUTATORS[1:])
    monkeypatch.setattr(instances, "_MUTATORS", mutators)
    pa = PartialAction(cyclic(2), discrete(2), (0, 0), ((-1, -1), (-1, -1)))
    assert [kind for kind, _ in mutant_family([pa], 12, seed=1)] == ["identity-gap"] * 12
    assert remapped and not any(remapped), remapped


def test_orbit_consistency_on_valid_family(valid_family):
    for pa in valid_family:
        assert orbit_consistency_report(pa).ok


@pytest.mark.parametrize("nbrs, statuses", [
    ([0b001, 0b010, 0b100], (FAIL, PASS)),
    ([0b111, 0b111, 0b111], (PASS, FAIL)),
], ids=["discrete", "indiscrete"])
def test_class_map_frozen_failures(nbrs, statuses):
    # The failing branches topology.quotient never reaches: it opens a
    # class set exactly when its preimage is open.  C2 fixing each point
    # of the space whose opens are {}, {0, 1} and {0, 1, 2}, its orbit
    # quotient replaced by a discrete one (the class map is not
    # continuous) or an indiscrete one (it is not open).
    space = FinTop.from_neighborhoods([0b011, 0b011, 0b111])
    pa = PartialAction(cyclic(2), space, (0b111, 0b111), ((0, 1, 2), (0, 1, 2)))
    vars(pa)["orbit_quotient"] = FinTop.from_neighborhoods(nbrs)
    rep = orbit_consistency_report(pa)
    assert [(c.name, c.status, c.witness) for c in rep.checks] == [
        ("acting set translates along each move", PASS, ()),
        ("class map continuous", statuses[0], ()),
        ("class map open", statuses[1], ()),
        ("acting set absorbs stabilizer right-shifts", PASS, ()),
    ]


def test_acting_set_size_constant_on_orbits(valid_family):
    # |G^x| is constant along an orbit since acting sets translate
    for pa in valid_family:
        rel = orbit_equivalence(pa)
        for x in pa.space.points():
            for y in pa.space.points():
                if rel.class_id[x] == rel.class_id[y]:
                    assert bin(acting_set(pa, x)).count("1") == bin(
                        acting_set(pa, y)
                    ).count("1")

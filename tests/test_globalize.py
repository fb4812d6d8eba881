from __future__ import annotations

import itertools
import random
from operator import attrgetter

import pytest

import oracles
import pactop.topology as topology
import references
from gspaces import klein_four, symmetric3
from pactop import (
    EqRel,
    FinTop,
    Globalization,
    PartialAction,
    SeparationFlags,
    build,
    cyclic,
    discrete,
    effros_report,
    embedding_report,
    example_k3,
    hat_relation_report,
    induced,
    induced_family,
    instances,
    mutant_family,
    separation,
    validate,
)
from pactop.errors import AxiomViolation, NotAnAction, PactopError
from pactop.reports import FAIL, INFO, NA, PASS
from pactop.topology import is_homeomorphism, iter_bits, mask_of

SWAP = PartialAction(cyclic(2), discrete(2), (0b11, 0b11), ((0, 1), (1, 0)))


def test_swap_relation_classes():
    rel = SWAP.lifted_orbits
    # group-major pairs: (0,0)=0, (0,1)=1, (1,0)=2, (1,1)=3
    assert rel.num_classes == 2
    assert rel.class_id == (0, 1, 1, 0)


def test_relation_matches_reachability_oracle(valid_family):
    for pa in valid_family:
        rel = pa.lifted_orbits
        size = pa.space.size
        expected = oracles.envelope_classes_oracle(pa)
        got = [{divmod(p, size) for p in iter_bits(mask)}
               for mask in references.classes(rel)]
        assert sorted(got, key=min) == expected


def _gluing_pairs(pa) -> list[list[bool]]:
    # The pair condition of the lifted_orbits docstring, literally.
    group, size = pa.group, pa.space.size
    n = group.order * size
    table = [[False] * n for _ in range(n)]
    for p in range(n):
        g, x = divmod(p, size)
        for q in range(n):
            h, y = divmod(q, size)
            if (pa.dom[group.mul[group.inv[g]][h]] >> x) & 1:
                table[p][q] = pa.act(group.mul[group.inv[h]][g], x) == y
    return table


def _is_equivalence(table) -> bool:
    n = len(table)
    return all(
        table[p][p]
        and all(table[p][q] == table[q][p] for q in range(n))
        and all(
            table[p][r] for q in range(n) if table[p][q] for r in range(n) if table[q][r]
        )
        for p in range(n)
    )


def test_relation_matches_pair_condition(family, valid_family):
    for pa in valid_family:
        rel = pa.lifted_orbits
        for p, row in enumerate(_gluing_pairs(pa)):
            cid = rel.class_id
            assert [cid[p] == cid[q] for q in range(len(row))] == row, (pa, p)
    glued = 0
    for kind, m in mutant_family(family, count=200, seed=0):
        table = _gluing_pairs(m)
        if not _is_equivalence(table):
            with pytest.raises(AxiomViolation):
                m.lifted_orbits
            continue
        rel = m.lifted_orbits
        for p, row in enumerate(table):
            cid = rel.class_id
            assert [cid[p] == cid[q] for q in range(len(row))] == row, (kind, m, p)
        glued += 1
    assert 0 < glued < 200


def test_build_swap():
    glob = build(SWAP)
    assert glob.num_classes == 2
    assert glob.embedding == (0, 1)
    assert glob.topology == discrete(2)
    # translation by the swap exchanges the two classes
    assert glob.action[1] == (1, 0)
    assert glob.relation.least == (0, 1)


def test_build_example_k3_class_table():
    glob = build(example_k3())
    assert glob.num_classes == 4
    assert glob.relation.class_id == (0, 1, 2, 1, 3, 1)


def test_build_rejects_invalid_instance():
    broken = PartialAction(
        cyclic(2), discrete(2), (0b11, 0b01), ((0, 1), (1, -1))
    )
    with pytest.raises(AxiomViolation):
        build(broken)


def build_by_class_masks(pa):
    """``build`` as it was first written, kept as the reference: each
    class read as a product-wide member mask, its translation targets
    gathered in a set, and the action laws checked in place."""
    group, space = pa.group, pa.space
    size = space.size
    relation = pa.lifted_orbits

    classes = references.classes(relation)
    action_rows = []
    for g in group.elements():
        row = []
        for c, members in enumerate(classes):
            targets = set()
            for p in iter_bits(members):
                h, x = divmod(p, size)
                targets.add(relation.class_id[group.mul[g][h] * size + x])
            if len(targets) > 1:
                raise AxiomViolation(
                    f"translation by {g} is not well defined on class {c}",
                    (g, c) + tuple(sorted(targets)),
                )
            row.append(targets.pop())
        action_rows.append(tuple(row))

    embedding = tuple(
        relation.class_id[group.identity * size + x] for x in space.points()
    )
    if len(set(embedding)) != size:
        dup = [
            (x, y)
            for x in range(size)
            for y in range(x + 1, size)
            if embedding[x] == embedding[y]
        ]
        raise AxiomViolation("identity-slice embedding is not injective", tuple(dup))

    e = group.identity
    if action_rows and action_rows[e] != tuple(range(len(classes))):
        raise AxiomViolation("identity translation is not the identity")
    for g in group.elements():
        for h in group.elements():
            gh = group.mul[g][h]
            for c in range(len(classes)):
                if action_rows[g][action_rows[h][c]] != action_rows[gh][c]:
                    raise AxiomViolation("translations do not compose", (g, h, c))

    quotient = topology.quotient(pa.product, relation)
    return Globalization(pa, relation, quotient, tuple(action_rows), embedding)


def _outcome(construct, pa):
    try:
        return construct(pa)
    except PactopError as exc:
        return type(exc), str(exc), exc.witness


def test_build_matches_the_class_mask_reference(family, s3_family):
    mutants = [m for _, m in mutant_family(family, 400, seed=1)]
    returned = 0
    for pa in [*family, *s3_family, *mutants]:
        expected = _outcome(build_by_class_masks, pa)
        assert _outcome(build, pa) == expected, pa
        returned += isinstance(expected, Globalization)
    assert returned == 353 + 94 + 11


@pytest.mark.parametrize(
    "change, paths",
    [
        (references.merge_two, {"translation": 36, "injective": 154, "built": 5}),
        (references.split_two, {"translation": 112, "injective": 0, "built": 83}),
    ],
)
def test_build_matches_the_reference_on_changed_classes(change, paths):
    # Each valid gluing relation with seeded classes merged or split,
    # injected as the cached table ``build`` reads: a relation that
    # translations may not respect, or one that glues the identity
    # slice, so both raising paths of ``build`` are compared with the
    # reference.
    rng = random.Random(0)
    seen = {"translation": 0, "injective": 0, "built": 0}
    for pa in induced_family(4, 3):
        if not validate(pa).ok:
            continue
        rel = pa.lifted_orbits
        if rel.num_classes < 2:
            continue
        pa = references.fresh(pa)
        changed = vars(pa)["lifted_orbits"] = EqRel(rel.size, change(rel, rng))
        expected = _outcome(build_by_class_masks, pa)
        assert _outcome(build, pa) == expected, (pa, changed)
        if isinstance(expected, Globalization):
            seen["built"] += 1
        else:
            seen["injective" if "injective" in expected[1] else "translation"] += 1
    assert seen == paths


def test_build_checks_the_translations_on_the_quotient(monkeypatch):
    # The action laws and continuity are read from the total-action
    # check on the quotient; a quotient on which the swap is not
    # continuous must be refused.
    sierpinski = FinTop(2, (0, 0b10, 0b11))
    monkeypatch.setattr(topology, "quotient", lambda t, e: sierpinski)
    with pytest.raises(NotAnAction, match=r"^row of element 1 is not continuous$") as info:
        build(SWAP)
    assert info.value.witness == (1,)


def test_least_members_match_class_masks(valid_family, valid_s3_family):
    for pa in [*valid_family, *valid_s3_family]:
        for rel in (pa.orbit_relation, pa.lifted_orbits):
            least = tuple(min(iter_bits(m)) for m in references.classes(rel))
            assert rel.least == least, pa


def test_quotient_topology_against_oracle(valid_globs):
    for pa, glob in valid_globs:
        expected = oracles.quotient_opens_oracle(
            glob.product.size, glob.product.opens, glob.relation.class_id
        )
        assert set(glob.topology.opens) == expected


def test_translation_rows_form_action(valid_globs):
    for pa, glob in valid_globs:
        group = pa.group
        n = glob.num_classes
        assert glob.action[group.identity] == tuple(range(n))
        for g in group.elements():
            assert sorted(glob.action[g]) == list(range(n))
            for h in group.elements():
                gh = group.mul[g][h]
                for c in range(n):
                    assert glob.action[g][glob.action[h][c]] == glob.action[gh][c]


def test_embedding_report_on_family(valid_globs):
    for pa, glob in valid_globs:
        assert embedding_report(glob).ok


def test_embedding_image_open_conditional():
    glob = build(example_k3())
    rep = embedding_report(glob)
    assert rep.ok
    statuses = {c.name: c.status for c in rep.checks}
    name = "embedded image open (definedness graph open)"
    assert name in statuses
    assert statuses[name] in (PASS, NA)


def test_hat_relation_exact_equality(valid_globs):
    for pa, glob in valid_globs:
        assert hat_relation_report(glob).ok


def test_effros_flags_agree_on_discrete(valid_family):
    for pa in valid_family:
        rep = effros_report(pa)
        assert rep.ok
        if pa.space == discrete(pa.space.size):
            agreement = [
                c
                for c in rep.checks
                if c.name == "three conditions agree on a discrete carrier"
            ]
            assert agreement and agreement[0].status == PASS
        else:
            assert all(
                c.status in (INFO, NA) for c in rep.checks
            ), [c.name for c in rep.checks]


def _partitions(size: int):
    # class-id rows in restricted growth form: each label at most one
    # more than the largest before it
    for labels in itertools.product(range(size), repeat=size):
        if all(c <= max(labels[:x], default=-1) + 1 for x, c in enumerate(labels)):
            yield labels


def test_relation_open_in_the_square_exactly_when_every_class_is_open():
    # On every topology on at most 4 points and every partition of its
    # points: N(x) x N(y) inside R at each (x, y) in R takes N(x) into the
    # class of x at y = x, and the converse is immediate.
    pairs = 0
    for size in range(5):
        for t in topology.all_topologies(size):
            square = topology.product(t, t)
            for labels in _partitions(size):
                rel = mask_of(
                    x * size + y for x in range(size) for y in range(size)
                    if labels[x] == labels[y]
                )
                classes = references.classes(EqRel(size, labels))
                assert topology.is_open(square, rel) == all(
                    topology.is_open(t, c) for c in classes
                ), (t, labels)
                pairs += 1
    assert pairs == 5480


def test_effros_frozen_failure():
    # The failing branch no group table reaches: on a discrete carrier
    # every orbit is open and the orbit quotient is discrete.  C1 on two
    # discrete points, its orbit quotient replaced by the indiscrete
    # topology on its two classes.
    pa = PartialAction(cyclic(1), discrete(2), (0b11,), ((0, 1),))
    vars(pa)["orbit_quotient"] = FinTop.from_neighborhoods([0b11, 0b11])
    rep = effros_report(pa)
    assert [(c.status, c.witness) for c in rep.checks] == [
        (INFO, (True,)), (INFO, (True,)), (INFO, (False,)),
        (FAIL, (True, True, False)),
    ]


def test_homeomorphic_translations_frozen_failure():
    # The failing branch build never reaches: its total action is checked
    # continuous and invertible.  C2 fixing each point of the space whose
    # opens are {}, {0, 1} and {0, 1, 2}, its translation by 1 replaced
    # by the swap of classes 0 and 2, which is not continuous.
    space = FinTop.from_neighborhoods([0b011, 0b011, 0b111])
    pa = PartialAction(cyclic(2), space, (0b111, 0b111), ((0, 1, 2), (0, 1, 2)))
    glob = build(pa)
    moved = Globalization(glob.source, glob.relation, glob.topology,
                          (glob.action[0], (2, 1, 0)), glob.embedding)
    rep = embedding_report(moved)
    assert [(c.status, c.witness) for c in rep.checks] == [
        (PASS, ()), (PASS, ()), (FAIL, ((1, 0), (1, 2))), (PASS, ()),
        (FAIL, (1,)), (FAIL, (("map", 1, 0), ("map", 1, 2))),
    ]
    assert rep.checks[4].name == "every translation is a homeomorphism of the quotient"


def test_effros_report_matches_the_square_reference(family, s3_family, changed_family):
    # Read on neighborhood pairs, "orbit relation open in the square"
    # must give the square's report, or raise as it does, on valid,
    # invalid and ill-formed tables alike.  Where the orbits form a
    # partition the flag equals "every orbit open"; where they do not,
    # the orbit quotient raises, so a fresh copy with that quotient set
    # to the carrier shows the flag on its own.
    kinds: dict = {}
    for pa in [*family, *s3_family, *changed_family]:
        expected = references.outcome(references.effros_report, pa)
        assert references.outcome(effros_report, pa) == expected, pa
        if isinstance(expected, tuple) and expected[0] is AxiomViolation:
            pa = references.fresh(pa)
            vars(pa)["orbit_quotient"] = pa.space
            expected = references.effros_report(pa)
            assert effros_report(pa) == expected, pa
            flags = tuple(c.witness[0] for c in expected.checks[:2])
            kind = ("no partition", flags[0] == flags[1])
        elif isinstance(expected, tuple):
            kind = expected[0].__name__
        else:  # the square flag and the discrete-carrier verdict
            kind = (expected.checks[0].witness[0], expected.checks[-1].status)
        kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds == {
        (True, PASS): 220, (True, NA): 126, (False, NA): 867,
        ("no partition", True): 554, ("no partition", False): 49, "KeyError": 231,
    }


def test_quotient_separation_matches_the_pairwise_reference(
    valid_globs, valid_s3_family
):
    # the envelope and orbit quotients of every valid sweep instance
    seen: dict = {}
    for pa, glob in [*valid_globs, *((pa, build(pa)) for pa in valid_s3_family)]:
        for t in (glob.topology, pa.orbit_quotient):
            flags = separation(t)
            assert flags == references.separation(t), (pa, t)
            seen[flags] = seen.get(flags, 0) + 1
    assert seen == {
        SeparationFlags(True, True, True): 215,
        SeparationFlags(True, False, False): 376,
        SeparationFlags(False, False, False): 239,
    }


def test_lifted_orbit_count_matches_classes(valid_globs):
    # the gluing classes and the lifted orbits are the same partition,
    # so counting either way agrees
    for pa, glob in valid_globs:
        assert glob.num_classes == len(references.classes(glob.relation))


def test_embedding_injective_and_identity_slice(valid_globs):
    for pa, glob in valid_globs:
        size = pa.space.size
        e = pa.group.identity
        seen = set()
        for x in pa.space.points():
            c = glob.embedding[x]
            assert c not in seen
            seen.add(c)
            assert glob.relation.class_id[e * size + x] == c


RESTRICTION = "restriction to the image reproduces the original action"


def restriction_by_induced(glob):
    """The restriction check as it was first written: rebuild the partial
    action the translations induce on the image with ``induced`` and
    compare it with the source through the embedding.  ``induced`` must
    not raise here: ``build`` only returns tables that form an action."""
    pa = glob.source
    group, space = pa.group, pa.space
    image = mask_of(glob.embedding)
    ind = induced(group, glob.topology, glob.action, image)
    positions = {c: i for i, c in enumerate(iter_bits(image))}
    emb = [positions[glob.embedding[x]] for x in space.points()]
    bad: list[tuple] = []
    if not is_homeomorphism(emb, space, space.full, ind.space, ind.space.full):
        bad.append(("space",))
    for g in group.elements():
        if mask_of(emb[x] for x in iter_bits(pa.dom[g])) != ind.dom[g]:
            bad.append(("dom", g))
        for x in iter_bits(pa.dom[group.inv[g]]):
            if ind.maps[g][emb[x]] != emb[pa.act(g, x)]:
                bad.append(("map", g, x))
    return (FAIL if bad else PASS), tuple(bad)


def _restriction_check(glob):
    [check] = [c for c in embedding_report(glob).checks if c.name == RESTRICTION]
    return check.status, check.witness


def _built(instances):
    globs = []
    for pa in instances:
        try:
            globs.append(build(pa))
        except AxiomViolation:
            pass
    return globs


def test_restriction_check_matches_induced_reference(family, s3_family):
    sources = {
        "family": _built(family),
        "s3": _built(s3_family),
        "mutants": _built(m for _, m in mutant_family(family, 400, seed=1)),
    }
    assert {k: len(v) for k, v in sources.items()} == {
        "family": 353, "s3": 94, "mutants": 11,
    }
    for globs in sources.values():
        for glob in globs:
            assert _restriction_check(glob) == restriction_by_induced(glob), glob

    # Every other injective embedding of the carrier into the classes of
    # each family envelope: the failing side of the check.
    kinds = {"space": 0, "dom": 0, "map": 0}
    count = failed = 0
    for glob in sources["family"]:
        for e in itertools.permutations(range(glob.num_classes), glob.source.space.size):
            if e == glob.embedding:
                continue
            moved = Globalization(glob.source, glob.relation, glob.topology, glob.action, e)
            status, witness = restriction_by_induced(moved)
            assert _restriction_check(moved) == (status, witness), (glob, e)
            count += 1
            failed += status == FAIL
            for w in witness:
                kinds[w[0]] += 1
    assert (count, failed) == (1534, 1216)
    assert kinds == {"space": 992, "dom": 312, "map": 2652}


def test_envelope_is_the_saturation_of_the_total_action(monkeypatch):
    # Uniqueness of the enveloping action (Abadie 2003): when a partial
    # action is the restriction of a total action on Y to X, the class
    # of (g, x) corresponds to g.x in the saturation G.X, equivariantly;
    # the quotient topology is the subspace topology of G.X when X is
    # open in Y, and finer than it otherwise.  Every sweep instance is
    # such a restriction, so record Y and its table at each total action
    # the sweep generators accept, and each carrier they restrict it to;
    # every restriction passes through the maps step, whether or not its
    # action turns out to be new, and its action is built here.
    records = []
    checked = []

    def checking(group, space, rows):
        check_total_action(group, space, rows)
        checked.append((space, rows))

    def recording(group, rows, pos):
        space, checked_rows = checked[-1]
        assert checked_rows is rows
        records.append((group, space, rows, mask_of(pos)))
        return restricted_maps(group, rows, pos)

    check_total_action = instances.check_total_action
    restricted_maps = instances._restricted_maps
    monkeypatch.setattr(instances, "check_total_action", checking)
    monkeypatch.setattr(instances, "_restricted_maps", recording)
    induced_family(4, 3)
    instances.induced_instances([(klein_four(), (1, 2))], 3)
    instances.induced_instances([(symmetric3(), (1, 3))], 3)
    monkeypatch.undo()

    valid = open_carriers = finer_only = 0
    for group, space, rows, carrier in records:
        pa = induced(group, space, rows, carrier)
        if not validate(pa).ok:
            continue
        valid += 1
        is_open, finer = references.check_saturation(space, rows, carrier, build(pa))
        open_carriers += is_open
        finer_only += finer
    assert (len(records), valid, open_carriers, finer_only) == (2684, 2552, 1520, 252)


def test_enveloping_relation_matches_the_mask_reference(
    family, s3_family, changed_family
):
    # The engine's gluing relation, ``lifted_orbits``, against both
    # references: the mask gluing rows, and the orbit relation of the
    # lifted action built as a table.  The same EqRel, or the same
    # exception type, message and witness: KeyError on a domain point
    # with no image, AxiomViolation on a table whose gluing rows are not
    # an equivalence.
    kinds = {"glued": 0, KeyError: 0, AxiomViolation: 0}
    for pa in [*family, *s3_family, *changed_family]:
        expected = references.outcome(references.enveloping_relation, pa)
        assert references.outcome(references.lifted_orbits, pa) == expected, pa
        got = references.outcome(attrgetter("lifted_orbits"), references.fresh(pa))
        assert got == expected, pa
        kinds["glued" if isinstance(expected, EqRel) else expected[0]] += 1
    assert kinds == {"glued": 513, KeyError: 231, AxiomViolation: 1303}


@pytest.mark.parametrize(
    "change, failed",
    [(references.merge_two, 401), (references.split_two, 363)],
)
def test_hat_relation_matches_the_reference_on_changed_lifted_classes(
    valid_family, valid_s3_family, change, failed
):
    # A built envelope whose record holds the lifted orbit relation with
    # seeded classes merged or split, as an envelope built elsewhere
    # might: the check must fail at the first pair on which the record's
    # relation and the mask gluing relation differ.
    rng = random.Random(0)
    seen = 0
    for pa in [*valid_family, *valid_s3_family]:
        glob = build(pa)
        lifted = pa.lifted_orbits
        if lifted.num_classes < 2:
            continue
        changed = EqRel(lifted.size, change(lifted, rng))
        report = hat_relation_report(Globalization(
            pa, changed, glob.topology, glob.action, glob.embedding))
        first = references.first_disagreement(changed, references.enveloping_relation(pa))
        assert [(c.name, c.status, c.witness) for c in report.checks] == [
            ("gluing relation equals lifted orbit relation",
             FAIL if first else PASS, first or ()),
            ("class count", INFO, (changed.num_classes,)),
        ], pa
        seen += not report.ok
    assert seen == failed

from __future__ import annotations

import random

import pytest

import pactop.relations as relations
import pactop.selector as selector
import references
from pactop import EqRel, build, from_relation, normalized_selector
from pactop.relations import iter_bits
from references import from_masks


def from_blocks(size: int, blocks) -> EqRel:
    """Build an EqRel from disjoint blocks covering ``range(size)``."""
    cid = [-1] * size
    for i, block in enumerate(blocks):
        for x in block:
            if cid[x] != -1:
                raise ValueError(f"point {x} appears in two blocks")
            cid[x] = i
    if -1 in cid:
        raise ValueError(f"point {cid.index(-1)} not covered by any block")
    return EqRel(size, tuple(cid))


def test_class_ids_canonical():
    # first-appearance order: relabeling input ids leaves equality intact
    a = EqRel(4, (0, 1, 0, 1))
    b = EqRel(4, (5, 2, 5, 2))
    assert a == b
    assert a.num_classes == 2
    assert references.classes(a) == (0b0101, 0b1010)


@pytest.mark.parametrize("label", [1.0, True, "1", None])
def test_class_ids_are_ints(label):
    # 1.0 and True used to pass as the id 1
    with pytest.raises(ValueError) as caught:
        EqRel(2, (0, label))
    assert str(caught.value) == f"class_id[1] = {label!r} is not an int"


def test_num_classes_is_kept_apart_from_equality():
    # the cached class count and least members live outside the fields,
    # so reading them on one of two equal relations changes neither
    # equality nor hashing
    a, b = EqRel(4, (0, 1, 0, 2)), EqRel(4, (7, 5, 7, 6))
    assert a.num_classes == 3
    assert a.least == (0, 1, 3)
    assert a == b and hash(a) == hash(b)
    assert b.num_classes == 3
    assert b.least == (0, 1, 3)
    assert "least" in vars(a) and "least" not in vars(EqRel(4, (0, 1, 0, 2)))


def least_by_class_masks(rel: EqRel) -> tuple[int, ...]:
    return tuple(min(iter_bits(mask)) for mask in references.classes(rel))


def test_least_matches_class_masks_on_random_relations():
    rng = random.Random(3)
    for _ in range(500):
        size = rng.randint(0, 16)
        rel = EqRel(size, tuple(rng.randrange(size) for _ in range(size)))
        assert rel.least == least_by_class_masks(rel), rel
        assert rel.num_classes == len(rel.least)


def test_same_and_class_mask():
    rel = from_blocks(5, [[0, 3], [1], [2, 4]])
    assert rel.class_id[0] == rel.class_id[3]
    assert rel.class_id[0] != rel.class_id[1]
    assert references.classes(rel)[rel.class_id[2]] == 0b10100


def test_disagreements_match_the_scans_they_replace_on_random_labels():
    # Seeded label pairs on up to 7 points from 3 labels, so that equal
    # and different partitions both show, and seeded maps into a
    # relation on up to 5 points for the reductions' first 8 failures.
    rng = random.Random(0)
    equal = failed = 0
    for _ in range(2000):
        n, m = rng.randint(0, 7), rng.randint(1, 5)
        a = EqRel(n, tuple(rng.randrange(3) for _ in range(n)))
        b = EqRel(n, tuple(rng.randrange(3) for _ in range(n)))
        first = next(relations.disagreements(a.class_id, b.class_id), None)
        assert first == references.first_disagreement(a, b), (a, b)
        equal += first is None
        target = EqRel(m, tuple(rng.randrange(3) for _ in range(m)))
        f = [rng.randrange(m) for _ in range(n)]
        bad = selector._reduction_failures(a, target, f)
        assert bad == references.reduction_failures(a, target, f), (a, target, f)
        failed += bool(bad)
    assert (equal, failed) == (727, 1305)


@pytest.mark.parametrize(
    "change, kinds",
    [
        (references.merge_two, {"differ": 1105, "fail": 1408}),
        (references.split_two, {"differ": 640, "fail": 528}),
    ],
)
def test_disagreements_match_the_scans_they_replace_on_changed_relations(
    valid_family, valid_s3_family, change, kinds
):
    # The lifted classes, carrier orbits and envelope classes of every
    # valid instance, each with two seeded classes merged or split as the
    # lift-orbit-relation and bireducibility failure tests change them:
    # the first pair on which each differs from its change, and the
    # first 8 failures of both reductions with either side changed.
    rng = random.Random(0)
    seen = {"differ": 0, "fail": 0}
    for pa in [*valid_family, *valid_s3_family]:
        glob, sel = build(pa), normalized_selector(pa)
        carrier, envelope = pa.orbit_relation, references.envelope_classes(glob)
        back = [sel.image[p] % pa.space.size for p in glob.relation.least]
        new = []
        for rel in (pa.lifted_orbits, carrier, envelope):
            other = rel
            if rel.num_classes > 1:
                other = EqRel(rel.size, change(rel, rng))
                scan = relations.disagreements(rel.class_id, other.class_id)
                first = next(scan, None)
                assert first == references.first_disagreement(rel, other), pa
                seen["differ"] += first is not None
            new.append(other)
        _, new_carrier, new_envelope = new
        for args in [
            (new_carrier, envelope, glob.embedding),
            (carrier, new_envelope, glob.embedding),
            (envelope, new_carrier, back),
            (new_envelope, carrier, back),
        ]:
            bad = selector._reduction_failures(*args)
            assert bad == references.reduction_failures(*args), pa
            seen["fail"] += bool(bad)
    assert seen == kinds


def test_from_blocks_must_partition():
    with pytest.raises(ValueError):
        from_blocks(3, [[0, 1], [1, 2]])
    with pytest.raises(ValueError):
        from_blocks(3, [[0, 1]])


def test_from_relation_builds_partition():
    rel = from_relation(4, ((0, 2), (1, 3), (2, 0), (3, 1, 1)))
    assert rel.num_classes == 2
    assert rel.class_id == (0, 1, 0, 1)


def test_from_relation_rejects_non_symmetric():
    with pytest.raises(ValueError):
        from_relation(2, ((0, 1), (1,)))


def test_from_relation_rejects_non_transitive():
    with pytest.raises(ValueError):
        from_relation(3, ((0, 1), (0, 1, 2), (1, 2)))


def test_from_relation_rejects_non_reflexive():
    with pytest.raises(ValueError):
        from_relation(2, ((), ()))


@pytest.mark.parametrize(
    "rows, point",
    [
        (((0, 1, 2), (0, 1)), 0),
        (((-1,), (0, 1)), 0),
        (((0, 1), (2,)), 1),
        (((), (0, 1, 2)), 1),
        (((0, True), (0, 1)), 0),
        (((0,), (1.0,)), 1),
        (((0, 1), (1, True)), 1),
    ],
)
def test_from_relation_rejects_rows_outside_the_points(rows, point):
    # a member past the last point would index past the labels, and a
    # negative one would read them from the end; the range is checked
    # before reflexivity, so ((), (0, 1, 2)) names point 1 rather than
    # the reflexivity failure at point 0.  True read as point 1, in a
    # class's first row or a later one that a set compares equal, and
    # 1.0 raised a bare TypeError
    with pytest.raises(ValueError, match=rf"^row of {point} is not within range\(2\)$"):
        from_relation(2, rows)


@pytest.mark.parametrize("size, rows", [(3, [(0,), (1,)]), (2, [(0,), (1,), (2,)])])
def test_from_relation_rejects_a_wrong_row_count(size, rows):
    # a short table used to fail with a bare IndexError, a long one only
    # after every axiom check passed, in EqRel
    message = rf"^{len(rows)} rows given for {size} points$"
    with pytest.raises(ValueError, match=message):
        from_relation(size, rows)


@pytest.mark.parametrize("rows, message", [
    (5, "rows for 2 points are not a table (int)"),
    ((row for row in [[0], [1]]), "rows for 2 points are not a table (generator)"),
    ([[0], 5], "row of 1 is not a collection of points (int)"),
    ([None, [1]], "row of 0 is not a collection of points (NoneType)"),
])
def test_from_relation_refuses_tables_that_are_not_tables(rows, message):
    # len() of the table, or iterating a row, raised a bare TypeError
    with pytest.raises(ValueError) as caught:
        from_relation(2, rows)
    assert type(caught.value) is ValueError
    assert str(caught.value) == message


@pytest.mark.parametrize("class_id", [5, None, (0,), (0, 1, 2)])
def test_class_ids_must_be_one_per_point(class_id):
    # len() of an int or None raised a bare TypeError
    with pytest.raises(ValueError) as caught:
        EqRel(2, class_id)
    assert type(caught.value) is ValueError
    assert str(caught.value) == "class_id must have one entry per point"


def bits_by_scan(mask: int):
    """Lowest-bit scan, one position at a time: the reference for
    ``iter_bits``, which reads narrow masks from a table."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def test_iter_bits_matches_the_scan():
    # every mask on both sides of the table edge at 2^12, then seeded
    # masks up to 8,064 bits wide, some made sparse by and-ing draws
    for mask in range(1 << 14):
        assert iter_bits(mask) == tuple(bits_by_scan(mask)), mask
    rng = random.Random(14)
    for _ in range(400):
        width = rng.randint(1, 8064)
        mask = rng.getrandbits(width)
        for _ in range(rng.randrange(8)):
            mask &= rng.getrandbits(width)
        bits = iter_bits(mask)
        assert type(bits) is tuple
        assert bits == tuple(bits_by_scan(mask)), mask


@pytest.mark.parametrize("mask", [-1, -2, -(1 << 12), -(1 << 100)])
def test_iter_bits_rejects_negative_masks(mask):
    # a negative mask has infinitely many set bits; the old generator
    # yielded forever on it
    with pytest.raises(ValueError, match="negative mask"):
        iter_bits(mask)


def scan_relation(size: int, related) -> EqRel:
    """Pair-by-pair axiom scan over an n x n table, witnesses in
    lexicographic order: the reference ``from_relation`` must match."""
    table = [[bool(related(x, y)) for y in range(size)] for x in range(size)]
    for x in range(size):
        if not table[x][x]:
            raise ValueError(f"not reflexive at {x}")
    for x in range(size):
        for y in range(size):
            if table[x][y] != table[y][x]:
                raise ValueError(f"not symmetric at ({x}, {y})")
    for x in range(size):
        for y in range(size):
            if not table[x][y]:
                continue
            for z in range(size):
                if table[y][z] and not table[x][z]:
                    raise ValueError(f"not transitive at ({x}, {y}, {z})")
    cid = [-1] * size
    nxt = 0
    for x in range(size):
        if cid[x] == -1:
            for y in range(size):
                if table[x][y]:
                    cid[y] = nxt
            nxt += 1
    return EqRel(size, tuple(cid))


def _outcome(build, size, arg):
    try:
        return build(size, arg)
    except ValueError as exc:
        return str(exc)


def _row_tables():
    # Every table on <= 3 points, then seeded perturbations of random
    # partitions of 4-6 points, which reach longer transitivity witnesses.
    for size in range(4):
        for flat in range(1 << (size * size)):
            yield tuple((flat >> (x * size)) & ((1 << size) - 1) for x in range(size))
    rng = random.Random(5)
    for _ in range(2000):
        size = rng.randint(4, 6)
        cid = [rng.randrange(size) for _ in range(size)]
        rows = [sum(1 << y for y in range(size) if cid[y] == cid[x]) for x in range(size)]
        for _ in range(rng.randint(0, 2)):
            x, y = rng.randrange(size), rng.randrange(size)
            rows[x] ^= 1 << y
            if x != y and rng.random() < 0.75:  # keep it symmetric
                rows[y] ^= 1 << x
        yield tuple(rows)


def test_from_relation_matches_pair_scan():
    # The mask reference, then the label builder on each table's members
    # in increasing order, and on the members in decreasing order with
    # the least one listed twice: the same EqRel or the same error text.
    tables = list(_row_tables())
    assert len(tables) == 1 + 2 + 16 + 512 + 2000
    refused = 0
    for rows in tables:
        size = len(rows)
        expected = _outcome(scan_relation, size, lambda x, y: (rows[x] >> y) & 1)
        assert _outcome(from_masks, size, rows) == expected, rows
        labels = [iter_bits(mask) for mask in rows]
        assert _outcome(from_relation, size, labels) == expected, rows
        repeated = [row[::-1] + row[:1] for row in labels]
        assert _outcome(from_relation, size, repeated) == expected, rows
        refused += isinstance(expected, str)
    assert refused == 1613


def test_valid_sweeps_never_reach_the_mask_scan(
    monkeypatch, valid_family, valid_s3_family
):
    # The label check accepts every equivalence, so on valid instances
    # the gluing (lifted orbit), orbit, orbit-of-the-lift and
    # envelope-orbit relations never fall back to the mask scan.
    from pactop import (
        bireducibility_report, build, lifted_action, normalized_selector,
        orbit_equivalence,
    )

    def refuse(size, rows):
        raise AssertionError(f"mask scan reached on {size} points")

    monkeypatch.setattr(relations, "_scan", refuse)
    for pa in [*valid_family, *valid_s3_family]:
        pa = references.fresh(pa)
        pa.lifted_orbits
        orbit_equivalence(pa)
        orbit_equivalence(lifted_action(pa))
        bireducibility_report(build(pa), normalized_selector(pa))


def test_empty_relation():
    rel = EqRel(0, ())
    assert rel.num_classes == 0
    assert references.classes(rel) == ()

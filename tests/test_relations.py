from __future__ import annotations

import pytest

from pactop import EqRel, from_relation


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
    assert a.classes() == (0b0101, 0b1010)


def test_same_and_class_mask():
    rel = from_blocks(5, [[0, 3], [1], [2, 4]])
    assert rel.same(0, 3)
    assert not rel.same(0, 1)
    assert rel.classes()[rel.class_of(2)] == 0b10100


def test_from_blocks_must_partition():
    with pytest.raises(ValueError):
        from_blocks(3, [[0, 1], [1, 2]])
    with pytest.raises(ValueError):
        from_blocks(3, [[0, 1]])


def test_from_relation_builds_partition():
    rel = from_relation(4, lambda x, y: x % 2 == y % 2)
    assert rel.num_classes == 2
    assert rel.same(0, 2) and rel.same(1, 3)
    assert not rel.same(0, 1)


def test_from_relation_rejects_non_symmetric():
    with pytest.raises(ValueError):
        from_relation(2, lambda x, y: x <= y)


def test_from_relation_rejects_non_transitive():
    related = {(0, 1), (1, 0), (1, 2), (2, 1)}
    with pytest.raises(ValueError):
        from_relation(3, lambda x, y: x == y or (x, y) in related)


def test_from_relation_rejects_non_reflexive():
    with pytest.raises(ValueError):
        from_relation(2, lambda x, y: False)


def test_empty_relation():
    rel = EqRel(0, ())
    assert rel.num_classes == 0
    assert rel.classes() == ()

from __future__ import annotations

import pytest

from gspaces import compose, group_of
from pactop import cyclic, groups, make_group
from pactop.errors import (
    InvalidOrder,
    LimitExceeded,
    NoIdentity,
    NoInverse,
    NotAssociative,
)


def test_cyclic_tables():
    for k in range(1, 6):
        g = cyclic(k)
        assert g.order == k
        assert g.identity == 0
        for a in range(k):
            for b in range(k):
                assert g.mul[a][b] == (a + b) % k
            assert g.mul[a][g.inv[a]] == 0
            assert g.mul[g.inv[a]][a] == 0
    # the table built from the formula is the one make_group verifies
    for k in range(1, 65):
        assert cyclic(k) == make_group([[(a + b) % k for b in range(k)] for a in range(k)])


def test_cyclic_does_not_scan_its_own_table(monkeypatch):
    def refuse(table):
        raise AssertionError("cyclic scanned its own table")

    monkeypatch.setattr(groups, "make_group", refuse)
    assert cyclic(256).mul[255][1] == 0


def test_cyclic_rejects_bad_order():
    with pytest.raises(InvalidOrder):
        cyclic(0)
    with pytest.raises(InvalidOrder):
        cyclic(-2)


def test_booleans_are_not_group_integers():
    # JSON true and false are ints to Python; a table holding them would
    # serialize as booleans that the document parser refuses
    for k in (True, False):
        with pytest.raises(InvalidOrder):
            cyclic(k)
    for table in ([[0, True], [True, False]], [[False]]):
        with pytest.raises(ValueError, match="out of range"):
            make_group(table)
    # nor are floats, strings or ints outside the order
    for v in (-1, 2, True, 1.0, 100.0, "0"):
        with pytest.raises(ValueError) as caught:
            make_group([[0, v], [1, 0]])
        assert type(caught.value) is ValueError
        assert str(caught.value) == f"entry (0, 1) = {v!r} out of range"


@pytest.mark.parametrize("table, error, message", [
    ([], InvalidOrder, "group order must be at least 1"),
    ([[0, 1], [1]], ValueError, "row 1 must have 2 entries"),
    # len() of an int raised a bare TypeError
    (7, ValueError, "table must be a sequence of rows"),
    ([[0, 1], 5], ValueError, "row 1 must have 2 entries"),
])
def test_make_group_refuses_a_table_of_no_shape(table, error, message):
    with pytest.raises(error) as caught:
        make_group(table)
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_group_order_limit():
    # both kinds refuse before building or scanning a table: 257 rows of
    # length one would otherwise fail the shape check
    for build in (lambda: cyclic(257), lambda: make_group([[0]] * 257)):
        with pytest.raises(LimitExceeded) as exc:
            build()
        assert (exc.value.limit, exc.value.size) == ("group order", 257)
    assert "257 group order exceed the 256 allowed" in str(exc.value)


def test_make_group_klein_four():
    table = (
        (0, 1, 2, 3),
        (1, 0, 3, 2),
        (2, 3, 0, 1),
        (3, 2, 1, 0),
    )
    g = make_group(table)
    assert g.identity == 0
    assert g.inv == (0, 1, 2, 3)
    for a in range(4):
        assert g.mul[a][a] == 0


def test_make_group_nonabelian_s3():
    # permutations of 3 letters indexed 0..5: e, (01), (02), (12), (012), (021)
    perms = [
        (0, 1, 2),
        (1, 0, 2),
        (2, 1, 0),
        (0, 2, 1),
        (1, 2, 0),
        (2, 0, 1),
    ]
    g = group_of(perms, compose)
    assert g.order == 6
    assert g.mul[1][2] != g.mul[2][1]
    for a in range(6):
        assert g.mul[a][g.inv[a]] == g.identity


def test_make_group_rejects_no_identity():
    # constant rows: no column acts as a two-sided identity
    with pytest.raises(NoIdentity):
        make_group(((0, 0), (1, 1)))


def test_make_group_rejects_non_associative():
    # row-0 identity but (1*1)*2 = 2 while 1*(1*2) = 1; associativity
    # is checked before inverses, so this is the reported failure
    table = (
        (0, 1, 2),
        (1, 0, 0),
        (2, 2, 1),
    )
    with pytest.raises(NotAssociative) as exc_info:
        make_group(table)
    assert len(exc_info.value.witness) == 3


def test_make_group_rejects_missing_inverse():
    # associative monoid with an absorbing element, not a group
    table = (
        (0, 1),
        (1, 1),
    )
    with pytest.raises(NoInverse) as caught:
        make_group(table)
    assert str(caught.value) == "element 1 has no inverse"
    assert caught.value.witness == (1,)


def test_make_group_witnesses():
    try:
        make_group(((0, 0), (1, 1)))
    except NoIdentity as exc:
        assert isinstance(exc.witness, tuple)

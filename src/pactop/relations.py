"""Equivalence relations on dense point ranges, stored as class-id tables;
``disagreements``, the pair scan between two labellings; and
``iter_bits``, the bit-position reader every other module imports
through topology.  Masks below 2^12 read their positions from a table
built once at import; wider masks are scanned one bit at a time."""

from __future__ import annotations

import functools
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain

from .errors import has_entries, in_range
from .record import Record


def _canonical(class_id: Iterable[int]) -> tuple[int, ...]:
    # Relabel class ids by order of first appearance so that equal
    # partitions compare equal as tuples.
    seen: dict[int, int] = {}
    out = []
    for c in class_id:
        if c not in seen:
            seen[c] = len(seen)
        out.append(seen[c])
    return tuple(out)


def _bit_table(width: int) -> list[tuple[int, ...]]:
    # Entry m holds the set bit positions of m: each doubling step
    # appends bit b to every entry built so far.
    table: list[tuple[int, ...]] = [()]
    for b in range(width):
        table += [t + (b,) for t in table]
    return table


# 2^12 entries take about 0.4 MB and under 2 ms to build; 2^16 would take
# 7.4 MB, a large share of a small run's memory.
_BITS = _bit_table(12)
_TABLE_SIZE = len(_BITS)


def iter_bits(mask: int) -> tuple[int, ...]:
    """The set bit positions of ``mask`` in increasing order, as a tuple.
    Raises ValueError on a negative mask, which has infinitely many."""
    if 0 <= mask < _TABLE_SIZE:
        return _BITS[mask]
    if mask < 0:
        raise ValueError(f"negative mask {mask} has no finite set of bits")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


# the type of a class id and of a row member: bool and float are refused
_INT = {int}


class EqRel(Record):
    """Equivalence relation on ``range(size)``.

    ``class_id[x]`` is the class of point ``x``; ids are normalized to
    first-appearance order, so two EqRel values are equal exactly when
    they induce the same partition; ``least[c]``, cached outside the
    fields, is where id ``c`` first appears.
    """

    _fields = ("size", "class_id")
    size: int
    class_id: tuple[int, ...]

    def __init__(self, size: int, class_id: Sequence[int]):
        if not has_entries(class_id, size):
            raise ValueError("class_id must have one entry per point")
        # an id is a label of any size, so only the type half of
        # errors.in_range applies: True and 1.0 would pass for the id 1
        if not {*map(type, class_id)} <= _INT:
            x = next(x for x, c in enumerate(class_id) if type(c) is not int)
            raise ValueError(f"class_id[{x}] = {class_id[x]!r} is not an int")
        self._set("size", size)
        self._set("class_id", _canonical(class_id))

    @functools.cached_property
    def least(self) -> tuple[int, ...]:
        least: list[int] = []
        for x, c in enumerate(self.class_id):
            if c == len(least):
                least.append(x)
        return tuple(least)

    @functools.cached_property
    def num_classes(self) -> int:
        return len(self.least)


def disagreements(a: Sequence[int], b: Sequence[int]) -> Iterator[tuple[int, int]]:
    """The pairs (x, y) of points on which the labellings ``a`` and ``b``
    disagree, one giving x and y the same label and the other not, in
    lexicographic order; lazily, so a caller reads only what it needs."""
    points = range(len(a))
    return (
        (x, y) for x in points for y in points if (a[x] == a[y]) != (b[x] == b[y])
    )


def from_relation(size: int, rows: Sequence[Sequence[int]]) -> EqRel:
    """Build an EqRel from per-point label rows, checking the axioms.

    ``rows[p]`` lists the points related to ``p``, within ``range(size)``,
    in any order and possibly more than once.  Each point not yet
    labelled gives the members of its row a fresh label; they must all
    be unlabelled.  The rows are then exactly the classes, so the
    relation is an equivalence, when every point is labelled and its row
    holds exactly the points that carry its label.

    Raises ValueError naming both counts unless there are ``size`` rows
    (naming the type when ``rows`` has no ``len()``), then the first
    point whose row is not iterable or holds a member that is not a
    point (``errors.in_range``), then the lexicographically first
    witnessing point, pair or triple if the relation is not reflexive,
    symmetric and transitive.  The witness is read from member masks,
    built only when the label check fails.
    """
    if not has_entries(rows, size):
        if not hasattr(rows, "__len__"):
            raise ValueError(f"rows for {size} points are not a table "
                             f"({type(rows).__name__})")
        raise ValueError(f"{len(rows)} rows given for {size} points")
    # in_range on every member, at C speed: each is an int, and the first
    # row of a class is bounded by its least and greatest members, every
    # other row equals such a set.  True and 1.0 equal 1 in a set, so the
    # types are read from every row.
    try:
        typed = {*map(type, chain.from_iterable(rows))} <= _INT
    except TypeError:  # a row that is not iterable, an int say
        typed = False
    if not typed:
        return _scan(size, rows)
    label = [-1] * size
    classes: list[set[int]] = []  # the points carrying each label
    for p, row in enumerate(rows):
        if label[p] < 0:
            members = set(row)
            if not members or min(members) < 0 or max(members) >= size:
                return _scan(size, rows)
            c = len(classes)
            for q in members:
                if label[q] >= 0:
                    return _scan(size, rows)
                label[q] = c
            classes.append(members)
    for p, row in enumerate(rows):
        c = label[p]
        if c < 0 or set(row) != classes[c]:
            return _scan(size, rows)
    return EqRel(size, tuple(label))


def _scan(size: int, label_rows: Sequence[Sequence[int]]):  # raises, never returns
    # Check the members, then scan the axioms on member masks, in the
    # witness order ``from_relation`` documents.  ``from_relation`` calls
    # it only on rows its label pass refused, and that pass accepts every
    # equivalence on points, so one of these checks fails.
    for x, row in enumerate(label_rows):
        try:
            inside = all(in_range(q, size) for q in row)
        except TypeError:  # in_range raises none: the row is not iterable
            raise ValueError(f"row of {x} is not a collection of points "
                             f"({type(row).__name__})") from None
        if not inside:
            raise ValueError(f"row of {x} is not within range({size})")
    rows = [sum(1 << q for q in set(row)) for row in label_rows]
    for x in range(size):
        if not (rows[x] >> x) & 1:
            raise ValueError(f"not reflexive at {x}")
    columns = [0] * size
    for x in range(size):
        for y in iter_bits(rows[x]):
            columns[y] |= 1 << x
    for x in range(size):
        diff = rows[x] ^ columns[x]
        if diff:
            y = (diff & -diff).bit_length() - 1
            raise ValueError(f"not symmetric at ({x}, {y})")
    for x in range(size):
        for y in iter_bits(rows[x]):
            extra = rows[y] & ~rows[x]
            if extra:
                z = (extra & -extra).bit_length() - 1
                raise ValueError(f"not transitive at ({x}, {y}, {z})")

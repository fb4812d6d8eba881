"""Equivalence relations on dense point ranges, stored as class-id tables,
and the bitmask iterator every other module imports through topology."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


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


def iter_bits(mask: int):
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class EqRel:
    """Equivalence relation on ``range(size)``.

    ``class_id[x]`` is the class of point ``x``; ids are normalized to
    first-appearance order, so two EqRel values are equal exactly when
    they induce the same partition.
    """

    size: int
    class_id: tuple[int, ...]

    def __post_init__(self):
        if len(self.class_id) != self.size:
            raise ValueError("class_id length must equal size")
        object.__setattr__(self, "class_id", _canonical(self.class_id))

    @property
    def num_classes(self) -> int:
        return len(set(self.class_id))

    def same(self, x: int, y: int) -> bool:
        return self.class_id[x] == self.class_id[y]

    def class_of(self, x: int) -> int:
        return self.class_id[x]

    def classes(self) -> tuple[int, ...]:
        """Bitmask of members per class, indexed by class id."""
        masks = [0] * self.num_classes
        for x, c in enumerate(self.class_id):
            masks[c] |= 1 << x
        return tuple(masks)


def from_relation(size: int, rows: Sequence[int]) -> EqRel:
    """Build an EqRel from per-point rows, checking the axioms.

    ``rows[x]`` is the bitmask of the points related to ``x``, within
    ``range(size)``.  Raises ValueError naming the lexicographically
    first witnessing point, pair or triple if the relation is not
    reflexive, symmetric and transitive.
    """
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
            raise ValueError(f"not symmetric at ({x}, {next(iter_bits(diff))})")
    for x in range(size):
        for y in iter_bits(rows[x]):
            extra = rows[y] & ~rows[x]
            if extra:
                raise ValueError(f"not transitive at ({x}, {y}, {next(iter_bits(extra))})")
    # Related points now share their row, so the rows label the classes.
    return EqRel(size, tuple(rows))

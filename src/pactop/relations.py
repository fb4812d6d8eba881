"""Equivalence relations on dense point ranges, stored as class-id tables."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable


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


def from_relation(size: int, related: Callable[[int, int], bool]) -> EqRel:
    """Build an EqRel from a relation predicate, checking the axioms.

    Raises ValueError naming the witnessing pair or triple if ``related``
    is not reflexive, symmetric and transitive on ``range(size)``.
    """
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

"""Finite groups as explicit multiplication tables."""

from __future__ import annotations

from .errors import (
    InvalidOrder, LimitExceeded, NoIdentity, NoInverse, NotAssociative, has_entries,
    in_range,
)
from .record import Record

# Largest group order accepted: make_group's associativity scan is
# cubic in the order, so a short document could otherwise run for hours.
GROUP_ORDER_LIMIT = 256


class FiniteGroup(Record):
    """Group on elements ``0..order-1``: ``mul`` is its Cayley table,
    ``identity`` its identity and ``inv[g]`` the inverse of g.

    The constructor stores the tables unchecked.  That they form a group
    is the contract ``make_group`` (which checks a table from outside)
    and ``cyclic`` (which builds one from the formula) meet, and the
    one ``globalize.build`` relies on."""

    order: int
    mul: tuple[tuple[int, ...], ...]
    identity: int
    inv: tuple[int, ...]

    def elements(self) -> range:
        return range(self.order)


def make_group(table: list[list[int]] | tuple[tuple[int, ...], ...]) -> FiniteGroup:
    """Validate a Cayley table and wrap it as a FiniteGroup.

    Checks run in order: shape, identity, associativity, inverses.  Each
    failure names its witness: NoIdentity, NotAssociative with the triple
    (g, h, k), NoInverse with the element.  An order past
    ``GROUP_ORDER_LIMIT`` raises LimitExceeded before any check.
    """
    try:
        n = len(table)
    except TypeError:
        raise ValueError("table must be a sequence of rows") from None
    if n == 0:
        raise InvalidOrder("group order must be at least 1")
    if n > GROUP_ORDER_LIMIT:
        raise LimitExceeded("group order", n, GROUP_ORDER_LIMIT)
    for g, row in enumerate(table):
        if not has_entries(row, n):
            raise ValueError(f"row {g} must have {n} entries")
    rows = tuple(tuple(row) for row in table)
    for g, row in enumerate(rows):
        for h, v in enumerate(row):
            if not in_range(v, n):
                raise ValueError(f"entry ({g}, {h}) = {v!r} out of range")

    identity = -1
    for e in range(n):
        if all(rows[e][g] == g and rows[g][e] == g for g in range(n)):
            identity = e
            break
    if identity == -1:
        raise NoIdentity("no two-sided identity element")

    # Exhaustive: n^3 triples, fine for desk-scale orders.
    for g in range(n):
        for h in range(n):
            gh = rows[g][h]
            for k in range(n):
                if rows[gh][k] != rows[g][rows[h][k]]:
                    raise NotAssociative(
                        f"(g*h)*k != g*(h*k) at ({g}, {h}, {k})", (g, h, k)
                    )

    # In a finite associative table with an identity, g*h = e already
    # gives h*g = e: k -> g*k is onto (g*(h*k) = k), so one-to-one, and
    # g*(h*g) = g = g*e.
    inv = []
    for g, row in enumerate(rows):
        if identity not in row:
            raise NoInverse(f"element {g} has no inverse", (g,))
        inv.append(row.index(identity))

    return FiniteGroup(n, rows, identity, tuple(inv))


def cyclic(k: int) -> FiniteGroup:
    """The cyclic group of order ``k`` with addition mod k, built from
    the formula: identity 0, the inverse of g is -g mod k."""
    if type(k) is not int or k < 1:
        raise InvalidOrder(f"order must be a positive integer, got {k!r}")
    if k > GROUP_ORDER_LIMIT:
        raise LimitExceeded("group order", k, GROUP_ORDER_LIMIT)
    table = tuple(tuple((g + h) % k for h in range(k)) for g in range(k))
    return FiniteGroup(k, table, 0, tuple(-g % k for g in range(k)))

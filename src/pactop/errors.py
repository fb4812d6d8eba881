"""Exception taxonomy for the engine; ``in_range``, the one test every
point, element, table entry and point set (an int index or bitmask)
passes; ``has_entries``, the one test every table of them passes; and
``short_count``, the form a printed count takes.  A value that fails
``in_range`` or ``has_entries`` gets its caller's typed error.

Every exception carries a ``witness`` tuple pinpointing the offending
element, pair or triple, so callers can report exactly what broke.
"""

from __future__ import annotations


def in_range(value: object, bound: int) -> bool:
    """Whether ``value`` is an int, not a bool, with ``0 <= value < bound``
    (a size or order for an index, ``1 << size`` for a set)."""
    return type(value) is int and 0 <= value < bound


def has_entries(table: object, n: int) -> bool:
    """Whether ``table`` has ``n`` entries: ``len(table) == n``, and
    False for a value with no ``len()``, an int say."""
    try:
        return len(table) == n
    except TypeError:
        return False


def short_count(n: int) -> int | str:
    """``n`` below 2^64; from 2^64 on, "at least 2^k" with 2^k <= n, its
    power of two, rather than hundreds of digits (past 4,300 digits
    ``int.__repr__`` raises ValueError)."""
    return n if n < 1 << 64 else f"at least 2^{n.bit_length() - 1}"


class PactopError(Exception):
    """Base class; ``witness`` holds the offending indices, if any."""

    def __init__(self, message: str, witness: tuple = ()):
        super().__init__(message)
        self.witness = witness


class NotAssociative(PactopError):
    """Multiplication table fails associativity at the witness triple."""


class NoIdentity(PactopError):
    """Multiplication table has no two-sided identity element."""


class NoInverse(PactopError):
    """Witness element has no inverse in the multiplication table."""


class InvalidOrder(PactopError):
    """Requested group order is not a positive integer."""


class InvalidSubset(PactopError):
    """A set argument contains points outside the carrier."""


class NotAnAction(PactopError):
    """A claimed total action breaks an action or continuity axiom."""


class AxiomViolation(PactopError):
    """A construction needed a valid partial action and did not get one."""


class InvalidOpenSet(PactopError):
    """A transform was asked to localize on the empty group part."""


class NotOpen(PactopError):
    """The open-set fast path received a non-open argument set."""


class ParseError(PactopError):
    """Input document is not syntactically valid JSON."""


class SchemaError(PactopError):
    """Input document is valid JSON but violates the action schema.

    ``witness`` holds a JSON-pointer-ish path such as ``("/maps/1/v",)``.
    """


class LimitExceeded(PactopError):
    """An enumeration would pass one of the engine's size limits.

    ``limit`` names what is counted and ``size`` is the count that hit
    the limit; for a family built up step by step (open sets) it is the
    count reached when the limit tripped, so a lower bound.  The message
    and witness give the count as ``short_count`` does.
    """

    def __init__(self, limit: str, size: int, bound: int):
        shown = short_count(size)
        text = f"{shown:,}" if type(shown) is int else shown
        super().__init__(
            f"size limit hit: {text} {limit} exceed the {bound:,} allowed",
            (limit, shown),
        )
        self.limit = limit
        self.size = size

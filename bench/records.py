"""Plain records passed between the benchmark's processes.

This module imports nothing from pactop, so the parent process can read
what its children send without loading the engine itself.
"""

from __future__ import annotations

from typing import NamedTuple


class Tables(NamedTuple):
    """A partial action as plain data: group table, space, domains, maps."""

    mul: tuple
    size: int
    opens: tuple
    dom: tuple
    maps: tuple


class Rung(NamedTuple):
    """One ladder document."""

    name: str
    core: str  # "small" or "large" for a core rung, "" for a reach rung
    gx: int  # |G| * |X|
    document: str  # canonical JSON action document

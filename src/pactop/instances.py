"""Instance families for exhaustive sweeps and mutation testing.

The sweep family collects every partial action induced by restricting a
continuous total action of a small group to an arbitrary subset of a
small carrier, deduplicated, across all topologies on the carrier.
Mutants are built from valid instances by edits that provably break an
axiom by construction, so rejection tests never consult the validator
to decide what counts as invalid.
"""

from __future__ import annotations

import itertools
import random
from typing import Sequence

from . import topology as topo
from .errors import NotAnAction
from .groups import FiniteGroup, cyclic
from .paction import PartialAction, induced
from .topology import FinTop


def _generated_rows(
    group: FiniteGroup, gens: Sequence[int], images: Sequence[tuple[int, ...]],
    size: int,
) -> list[tuple[int, ...]]:
    # Rows of the action in which each generator acts as its image,
    # found by walking out from the identity; ``induced`` rejects them
    # when the images break a relation of the group.
    rows = {group.identity: tuple(range(size))}
    frontier = [group.identity]
    while frontier:
        g = frontier.pop()
        for s, img in zip(gens, images):
            h = group.mul[s][g]
            if h not in rows:
                rows[h] = tuple(img[y] for y in rows[g])
                frontier.append(h)
    return [rows[g] for g in group.elements()]


def induced_instances(
    groups: Sequence[tuple[FiniteGroup, Sequence[int]]], max_points: int
) -> list[PartialAction]:
    """Every partial action induced from a continuous total action of
    one of ``groups`` on at most ``max_points`` points, over every
    carrier subset, deduplicated.  Each group comes with elements that
    generate it, and each choice of homeomorphisms for them to act as
    is tried."""
    seen: set[PartialAction] = set()
    out: list[PartialAction] = []
    for size in range(1, max_points + 1):
        for space in topo.all_topologies(size):
            homeos = topo.homeomorphisms(space)
            for group, gens in groups:
                for images in itertools.product(homeos, repeat=len(gens)):
                    rows = _generated_rows(group, gens, images, size)
                    for carrier in range(1 << size):
                        try:
                            pa = induced(group, space, rows, carrier)
                        except NotAnAction:  # the images break a relation
                            break
                        if pa not in seen:
                            seen.add(pa)
                            out.append(pa)
    return out


def induced_family(max_group: int = 4, max_points: int = 3) -> list[PartialAction]:
    """``induced_instances`` on the cyclic groups of order at most
    ``max_group``, each generated by 1 (the trivial one by nothing)."""
    return induced_instances(
        [(cyclic(k), (1,) if k > 1 else ()) for k in range(1, max_group + 1)],
        max_points,
    )


def _remap_mutant(pa: PartialAction, rng: random.Random) -> PartialAction | None:
    # Redirect one defined entry to a different point.  The mutated map
    # either collides (not injective) or misses dom[g] (not onto), so a
    # bijection axiom fails; on the identity row the identity axiom
    # fails.  Needs a second point to redirect to.
    if pa.space.size < 2:
        return None
    defined = [
        (g, x)
        for g in pa.group.elements()
        for x in pa.space.points()
        if pa.maps[g][x] >= 0
    ]
    if not defined:
        return None
    g, x = rng.choice(defined)
    old = pa.maps[g][x]
    new = rng.choice([y for y in pa.space.points() if y != old])
    maps = list(pa.maps)
    row = list(maps[g])
    row[x] = new
    maps[g] = tuple(row)
    return PartialAction(pa.group, pa.space, pa.dom, tuple(maps))


def _identity_gap_mutant(pa: PartialAction, rng: random.Random) -> PartialAction | None:
    # Remove one point from the identity domain (and its map entry).
    # The identity must act everywhere, so both formulations reject.
    if pa.space.size == 0:
        return None
    e = pa.group.identity
    p = rng.choice(list(pa.space.points()))
    dom = list(pa.dom)
    dom[e] &= ~(1 << p)
    maps = list(pa.maps)
    row = list(maps[e])
    row[p] = -1
    maps[e] = tuple(row)
    return PartialAction(pa.group, pa.space, tuple(dom), tuple(maps))


def _non_open_domain_mutant(
    pa: PartialAction, rng: random.Random
) -> PartialAction | None:
    # Replace one domain with a non-open subset, rebuilding the inverse
    # row's definedness pattern so the table stays well-formed.  The
    # open-domain requirement fails by construction; only possible on a
    # non-discrete space.
    space = pa.space
    bad_sets = [
        m for m in range(1 << space.size) if not topo.is_open(space, m)
    ]
    if not bad_sets:
        return None
    g = rng.choice(list(pa.group.elements()))
    gi = pa.group.inv[g]
    target = rng.choice(bad_sets)
    dom = list(pa.dom)
    dom[g] = target
    maps = list(pa.maps)
    row = list(maps[gi])
    for x in space.points():
        if (target >> x) & 1:
            if row[x] < 0:
                row[x] = x
        else:
            row[x] = -1
    maps[gi] = tuple(row)
    return PartialAction(pa.group, space, tuple(dom), tuple(maps))


_MUTATORS = (
    ("remap", _remap_mutant),
    ("identity-gap", _identity_gap_mutant),
    ("non-open-domain", _non_open_domain_mutant),
)


def mutant_family(
    instances: list[PartialAction], count: int = 200, seed: int = 0
) -> list[tuple[str, PartialAction]]:
    """Draw ``count`` invalid instances by mutating members of
    ``instances``; each is labeled with the mutation kind.  Every
    mutator needs a point, so at least one instance must have one."""
    if not any(pa.space.size for pa in instances):
        raise ValueError("mutant_family needs an instance with at least one point")
    rng = random.Random(seed)
    out: list[tuple[str, PartialAction]] = []
    while len(out) < count:
        pa = rng.choice(instances)
        kind, fn = _MUTATORS[rng.randrange(len(_MUTATORS))]
        mutant = fn(pa, rng)
        if mutant is not None:
            out.append((kind, mutant))
    return out


def example_k3() -> PartialAction:
    """The bundled two-point instance: a one-point open piece moved by
    every rotation, a closed basepoint only the identity touches."""
    group = cyclic(3)
    space = FinTop(2, (0, 0b10, 0b11))
    dom = (0b11, 0b10, 0b10)
    maps = ((0, 1), (-1, 1), (-1, 1))
    return PartialAction(group, space, dom, maps)

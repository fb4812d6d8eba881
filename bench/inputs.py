"""Workload inputs, generated from a seed with the public pactop API.

Instances travel between processes as plain tables (``Tables``), never as
engine objects, so that whatever the engine caches on an object while the
inputs are generated cannot reach the process that measures it.
"""

from __future__ import annotations

import itertools
import json
import random

import pactop
from pactop.cli import ActionSpec, serialize
from records import Rung, Tables


def tables_of(pa) -> Tables:
    return Tables(pa.group.mul, pa.space.size, pa.space.opens, pa.dom, pa.maps)


class FromTables:
    """Turns ``Tables`` back into engine objects, sharing one group object
    per table as a sweep over generated instances would."""

    def __init__(self):
        self._groups = {}

    def __call__(self, t: Tables):
        group = self._groups.get(t.mul)
        if group is None:
            group = self._groups[t.mul] = pactop.make_group(t.mul)
        return pactop.PartialAction(
            group, pactop.FinTop(t.size, t.opens), t.dom, t.maps
        )


# -- groups beyond the cyclic ones -------------------------------------------

def klein_four():
    """Z2 x Z2; element g is the bit pair of g, product is xor."""
    return pactop.make_group([[g ^ h for h in range(4)] for g in range(4)])


_S3_PERMS = tuple(itertools.permutations(range(3)))


def symmetric3():
    """S3 as permutations of {0, 1, 2}; g*h is 'apply h, then g', so its
    natural action on three points is a left action."""
    idx = {p: i for i, p in enumerate(_S3_PERMS)}
    return pactop.make_group(
        [[idx[tuple(g[h[x]] for x in range(3))] for h in _S3_PERMS] for g in _S3_PERMS]
    )


def _generators(group) -> list[int]:
    gens, reached = [], 1 << group.identity
    for g in group.elements():
        if not (reached >> g) & 1:
            gens.append(g)
            reached = _closure(group, gens)
    return gens


def _closure(group, gens) -> int:
    reached, frontier = 1 << group.identity, [group.identity]
    while frontier:
        g = frontier.pop()
        for s in gens:
            h = group.mul[s][g]
            if not (reached >> h) & 1:
                reached |= 1 << h
                frontier.append(h)
    return reached


def total_actions(group, space) -> list[list[tuple[int, ...]]]:
    """Every continuous total action of ``group`` on ``space``: each
    assignment of self-homeomorphisms to a generating set that extends to
    a homomorphism."""
    homeos = pactop.homeomorphisms(space)
    gens = _generators(group)
    ident = tuple(space.points())
    out = []
    for images in itertools.product(homeos, repeat=len(gens)):
        rows = {group.identity: ident}
        frontier = [group.identity]
        ok = True
        while frontier and ok:
            g = frontier.pop()
            for s, img in zip(gens, images):
                h = group.mul[s][g]
                row = tuple(img[y] for y in rows[g])
                if h not in rows:
                    rows[h] = row
                    frontier.append(h)
                elif rows[h] != row:
                    ok = False
                    break
        if ok and all(
            rows[group.mul[g][h]] == tuple(rows[g][y] for y in rows[h])
            for g in group.elements()
            for h in group.elements()
        ):
            out.append([rows[g] for g in group.elements()])
    return out


def induced_group_family(group, max_points: int) -> list:
    """``instances.induced_family`` for one arbitrary group: every action
    induced from a continuous total action on at most ``max_points``
    points, over every carrier subset, deduplicated."""
    seen, out = set(), []
    for size in range(1, max_points + 1):
        for space in pactop.all_topologies(size):
            for rows in total_actions(group, space):
                for carrier in range(1 << size):
                    pa = pactop.induced(group, space, rows, carrier)
                    if pa not in seen:
                        seen.add(pa)
                        out.append(pa)
    return out


# -- family-sweep and ideal-sweep ----------------------------------------------

MUTANTS = 300


def family_inputs(seed: int) -> dict:
    """Every valid member of ``induced_family(4, 3)``, of the same
    construction for the Klein four-group on at most 3 points and for S3
    on at most 2 points, plus seeded mutants of those valid instances;
    all in a seeded order."""
    rng = random.Random(seed)
    parts = {
        "cyclic": pactop.induced_family(4, 3),
        "klein4": induced_group_family(klein_four(), 3),
        "s3": induced_group_family(symmetric3(), 2),
    }
    valid, counts = [], {}
    for name, members in parts.items():
        ok = [pa for pa in members if pactop.validate(pa).ok]
        counts[name] = len(ok)
        valid.extend(ok)
    mutants = pactop.mutant_family(valid, count=MUTANTS, seed=seed)
    rng.shuffle(valid)
    return {
        "valid": [tables_of(pa) for pa in valid],
        "mutants": [(kind, tables_of(pa)) for kind, pa in mutants],
        "valid_counts": counts,
    }


def ideal_inputs(seed: int) -> dict:
    """Every valid member of ``induced_family(4, 3)`` in a seeded order;
    the sweep takes every pair set of each."""
    valid = [pa for pa in pactop.induced_family(4, 3) if pactop.validate(pa).ok]
    random.Random(seed).shuffle(valid)
    return {"valid": [tables_of(pa) for pa in valid], "valid_counts": {"cyclic": len(valid)}}


# -- report-ladder ---------------------------------------------------------------

def _relabel(space, rows, perm):
    """Move a total action along the point bijection ``perm``."""
    inv = [0] * len(perm)
    for x, y in enumerate(perm):
        inv[y] = x
    moved = pactop.FinTop(
        space.size,
        tuple(pactop.topology.mask_of(perm[x] for x in pactop.topology.iter_bits(u))
              for u in space.opens),
    )
    new_rows = [tuple(perm[row[inv[y]]] for y in range(len(perm))) for row in rows]
    return moved, new_rows


def _regular_rows(group):
    """Left regular action: g moves point h to g*h."""
    return [tuple(group.mul[g][h] for h in group.elements()) for g in group.elements()]


def _cycle_rows(k: int, n: int):
    """C_k on n points, rotating consecutive blocks of k points."""
    return [tuple((x // k) * k + (x % k + g) % k for x in range(n)) for g in range(k)]


def _sierpinski_copies(m: int):
    """m disjoint Sierpinski spaces; copy i has closed point 2i and open
    point 2i+1."""
    gens = [g for i in range(m) for g in (0b10 << 2 * i, 0b11 << 2 * i)]
    return pactop.make_topology(2 * m, gens)


def _copy_rows(shift_of, group, m: int):
    """Permute the m Sierpinski copies: g sends copy i to copy shift_of(g, i)."""
    return [
        tuple(2 * shift_of(g, x // 2) + x % 2 for x in range(2 * m))
        for g in group.elements()
    ]


def _rung(name, core, group, space, rows, drop, rng) -> Rung:
    """A seeded relabeling of ``rows`` on ``space``, induced on every point
    but ``drop`` (None keeps the full carrier)."""
    perm = list(range(space.size))
    rng.shuffle(perm)
    space, rows = _relabel(space, rows, perm)
    carrier = space.full if drop is None else space.full & ~(1 << perm[drop])
    pa = pactop.induced(group, space, rows, carrier)
    names = tuple(f"x{i}" for i in range(pa.space.size))
    doc = json.dumps(serialize(ActionSpec(name, names, pa)), sort_keys=True)
    return Rung(name, core, group.order * pa.space.size, doc)


def ladder_inputs(seed: int, example: str) -> list[Rung]:
    """Rungs of growing |G|*|X|.  Core rungs are decided at the seed and
    timed; reach rungs probe past the current walls under a budget.  The
    seed relabels points and picks which point a "minus one" rung drops."""
    rng = random.Random(seed)
    c = pactop.cyclic
    k4, s3 = klein_four(), symmetric3()
    disc = pactop.discrete
    rungs = [Rung("example48", "small", 6, example)]

    def add(name, core, group, space, rows, drop):
        rungs.append(_rung(name, core, group, space, rows, drop, rng))

    add("C2 on 4 points", "small", c(2), disc(4), _cycle_rows(2, 4), None)
    add("C2 on 2 Sierpinski copies", "small", c(2), _sierpinski_copies(2),
        _copy_rows(lambda g, i: (i + g) % 2, c(2), 2), None)
    add("C4 on 4 points minus one", "small", c(4), disc(4), _cycle_rows(4, 4), rng.randrange(4))
    add("K4 on 4 points minus one", "small", k4, disc(4), _regular_rows(k4), rng.randrange(4))
    add("S3 on 3 points minus one", "small", s3, disc(3), [list(p) for p in _S3_PERMS],
        rng.randrange(3))
    add("C4 on 2 Sierpinski copies", "large", c(4), _sierpinski_copies(2),
        _copy_rows(lambda g, i: (i + g) % 2, c(4), 2), None)
    add("C4 on 4 points", "large", c(4), disc(4), _cycle_rows(4, 4), None)
    add("K4 on 4 points", "large", k4, disc(4), _regular_rows(k4), None)
    add("S3 on 3 points", "large", s3, disc(3), [list(p) for p in _S3_PERMS], None)
    # reach rungs, beyond the walls at the time the ladder was defined
    add("C3 on 6 points minus one", "", c(3), disc(6), _cycle_rows(3, 6), rng.randrange(6))
    add("C5 on 5 points minus one", "", c(5), disc(5), _cycle_rows(5, 5), rng.randrange(5))
    add("C6 on 4 points", "", c(6), disc(4), [_cycle_rows(2, 4)[g % 2] for g in range(6)],
        None)
    add("S3 on 4 points", "", s3, disc(4), [list(p) + [3] for p in _S3_PERMS], None)
    add("C4 on 8 points minus one", "", c(4), disc(8), _cycle_rows(4, 8), rng.randrange(8))
    add("S3 on 3 Sierpinski copies minus one open point", "", s3, _sierpinski_copies(3),
        _copy_rows(lambda g, i: _S3_PERMS[g][i], s3, 3), 2 * rng.randrange(3) + 1)
    add("C6 on 6 points minus one", "", c(6), disc(6), _cycle_rows(6, 6), rng.randrange(6))
    add("C8 on 8 points minus one", "", c(8), disc(8), _cycle_rows(8, 8), rng.randrange(8))
    add("C16 on 4 points", "", c(16), disc(4), [_cycle_rows(4, 4)[g % 4] for g in range(16)],
        None)
    add("C64 on 4 points", "", c(64), disc(4), [_cycle_rows(4, 4)[g % 4] for g in range(64)],
        None)
    return rungs

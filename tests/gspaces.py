"""The groups and G-spaces the tests build.  Each global action is a
union of coset spaces G/H (``pactop.instances.coset_rows``); a topology
made from subsets closed under it is invariant, so the action is
continuous by construction, and its restriction to a carrier a partial
action."""

from __future__ import annotations

import itertools
import operator
import random

from pactop import PartialAction, cyclic, discrete, induced, make_group, make_topology
from pactop.instances import coset_rows


def group_of(elements, product):
    """The group on ``elements``, numbered in list order, under ``product``."""
    index = {a: n for n, a in enumerate(elements)}
    return make_group([[index[product(a, b)] for b in elements] for a in elements])


def compose(p, q):
    """Permutations as tuples, q applied first."""
    return tuple(p[i] for i in q)


def quaternion(a, b):
    """Hamilton's product of integer quaternions (w, x, y, z)."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    )


def closure(gens, product):
    """The group the generators generate, in sorted order."""
    out = set(gens)
    frontier = list(gens)
    while frontier:
        a = frontier.pop()
        for s in gens:
            b = product(s, a)
            if b not in out:
                out.add(b)
                frontier.append(b)
    return sorted(out)


def klein_four():
    """Z2 x Z2 with xor as product; elements 1 and 2 generate it."""
    return group_of(range(4), operator.xor)


def symmetric3():
    """S3 as the permutations of {0, 1, 2} in lexicographic order, g*h
    applying h first; the transposition 1 and the 3-cycle 3 generate it."""
    return group_of(list(itertools.permutations(range(3))), compose)


def _even(p):
    return sum(p[i] > p[j] for i, j in itertools.combinations(range(len(p)), 2)) % 2 == 0


def midsize_groups():
    """(name, elements, product, subgroup generators) for D4, Q8, A4 and
    S4.  Q8 lists its units with the identity fifth, so code that takes
    element 0 for the identity shows."""
    r, s = (1, 2, 3, 0), (0, 3, 2, 1)
    s4 = list(itertools.permutations(range(4)))
    one, i, j, k = [tuple(int(n == m) for m in range(4)) for n in range(4)]
    minus = tuple(-c for c in one)
    q8 = [i, j, k, minus, one, quaternion(minus, i), quaternion(minus, j),
          quaternion(minus, k)]
    return [
        ("D4", closure([r, s], compose), compose,
         [[(0, 1, 2, 3)], [s], [compose(r, r)], [r]]),
        ("Q8", q8, quaternion, [[one], [minus], [i], [j]]),
        ("A4", [p for p in s4 if _even(p)], compose,
         [[(0, 1, 2, 3)], [(0, 2, 3, 1)], [(1, 0, 3, 2), (2, 3, 0, 1)], [(1, 0, 3, 2)]]),
        ("S4", s4, compose,
         [[(0, 1, 2, 3)], [(0, 2, 1, 3), (0, 1, 3, 2)], [(1, 2, 0, 3), (0, 2, 3, 1)],
          [(1, 0, 3, 2), (2, 3, 0, 1)]]),
    ]


def midsize_instances(count: int = 24, seed: int = 17):
    """``count`` seeded restrictions, the four groups in turn: (space,
    rows, carrier, partial action) each, on 8 to 28 points."""
    rng = random.Random(seed)
    made = [
        (group_of(elements, product),
         [[elements.index(h) for h in closure(gens, product)] for gens in subs])
        for _, elements, product, subs in midsize_groups()
    ]
    out = []
    while len(out) < count:
        group, subs = made[len(out) % len(made)]
        rows = coset_rows(group, [sub for sub in subs if rng.random() < 0.5])
        size = len(rows[0])
        if not 8 <= size <= 28:
            continue
        gens = []
        for _ in range(rng.randint(1, 3)):
            subset = [y for y in range(size) if rng.random() < 0.3]
            gens += [sum(1 << rows[g][y] for y in subset) for g in group.elements()]
        space = make_topology(size, gens)
        carrier = sum(1 << y for y in range(size) if rng.random() < 0.7)
        if not carrier:
            continue
        out.append((space, rows, carrier, induced(group, space, rows, carrier)))
    return out


def rotation(k: int, n: int):
    """C_k rotating each block of k consecutive points out of n discrete
    points (n a multiple of k), restricted to every point but point 0:
    (space, rows, carrier, partial action)."""
    space = discrete(n)
    rows = coset_rows(cyclic(k), [[0]] * (n // k))
    carrier = space.full & ~1
    return space, rows, carrier, induced(cyclic(k), space, rows, carrier)


def blanked(pa):
    """Every element but the identity loses its image of point 0 and
    keeps its domain: several elements then fail at one point."""
    e = pa.group.identity
    maps = tuple(row if g == e else (-1,) + row[1:] for g, row in enumerate(pa.maps))
    return PartialAction(pa.group, pa.space, pa.dom, maps)

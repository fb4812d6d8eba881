"""Instance families for exhaustive sweeps and mutation testing.

The sweep family collects every partial action induced by restricting a
continuous total action of a small group to an arbitrary subset of a
small carrier, across all topologies on the carrier, deduplicated on
the restricted tables so that each distinct member is constructed once;
``check_total_action`` accepts each total action first, ``induced``
builds one such restriction, and ``coset_rows`` a total action on coset
spaces.  Mutants are built from valid instances by edits that provably
break an axiom by construction, so rejection tests never consult the
validator to decide what counts as invalid.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Sequence

from . import topology as topo
from .errors import InvalidSubset, NotAnAction, has_entries, in_range
from .groups import FiniteGroup, cyclic
from .paction import PartialAction
from .topology import FinTop, iter_bits, mask_of


def check_total_action(
    group: FiniteGroup, space: FinTop, u: Sequence[Sequence[int]]
) -> None:
    """Raise NotAnAction unless the rows ``u`` form a continuous action:
    permutations, the identity row fixing every point, composition.
    The rows' shape is checked on every call, their laws once per table
    while it stays among the last few checked."""
    n, size = group.order, space.size
    points = list(range(size))
    if not has_entries(u, n):
        raise NotAnAction("action table needs one row per group element")
    rows = []
    for g in range(n):
        row = u[g]  # by index: u may map elements to rows
        try:
            # by index too, as the laws and the restriction read it: the
            # values of a dict row, not its keys
            values = tuple([row[x] for x in points])
        except (LookupError, TypeError):  # a point missing, or a row with no []
            values = None
        # in_range on every value, at C speed: all ints, sorting to range
        # (True and 1.0 would sort as 1, a str not at all)
        if not (has_entries(row, size) and values is not None
                and {*map(type, values)} <= {int} and sorted(values) == points):
            raise NotAnAction(f"row of element {g} is not a permutation", (g,))
        rows.append(values)
    _checked_laws(group, space, tuple(rows))


# The sweeps restrict one total action to every carrier in turn, so the
# repeats of a table are consecutive and a few entries catch them.  An
# entry keeps its space alive, and the masks of discrete(16384) alone
# take about 16 MB.  A failing table is not stored: it raises again.
@functools.lru_cache(maxsize=4)
def _checked_laws(
    group: FiniteGroup, space: FinTop, u: tuple[tuple[int, ...], ...]
) -> None:
    # the identity, composition and continuity of the permutation rows u
    size = space.size
    if u[group.identity] != tuple(range(size)):
        raise NotAnAction("identity row is not the identity map", (group.identity,))
    for g in group.elements():
        row_g = u[g]
        for h, gh in enumerate(group.mul[g]):
            row_h, row_gh = u[h], u[gh]
            for y in range(size):
                if row_g[row_h[y]] != row_gh[y]:
                    raise NotAnAction(
                        f"rows do not compose at ({g}, {h}, {y})", (g, h, y)
                    )
    for g in group.elements():
        if not topo._is_monotone(u[g], space, space):
            raise NotAnAction(f"row of element {g} is not continuous", (g,))


def _cut(carrier: int) -> dict[int, int]:
    # The dense index of each point of ``carrier``, in sorted order.
    return {p: i for i, p in enumerate(iter_bits(carrier))}


def _restricted_maps(
    group: FiniteGroup, u: Sequence[Sequence[int]], pos: dict[int, int]
) -> tuple[tuple[int, ...], ...]:
    # The maps of the restriction of the checked total action ``u`` to
    # the carrier ``pos`` indexes: g sends p into the carrier exactly
    # when p lies in u_{g^-1}(carrier).
    return tuple([tuple([pos.get(u[g][p], -1) for p in pos]) for g in group.elements()])


def _restrict(
    group: FiniteGroup, sub: FinTop, maps: tuple[tuple[int, ...], ...]
) -> PartialAction:
    # The restriction with ``maps`` on ``sub``, the subspace over its
    # carrier: maps[g] is defined on dom[g^-1], so dom[g] is where
    # maps[g^-1] is defined.
    dom = tuple(
        mask_of(i for i, y in enumerate(maps[gi]) if y >= 0) for gi in group.inv
    )
    return PartialAction(group, sub, dom, maps)


def induced(
    group: FiniteGroup, space: FinTop, u: Sequence[Sequence[int]], carrier: int
) -> PartialAction:
    """Restrict a continuous total action to an arbitrary carrier subset.

    The result lives on the subspace over ``carrier`` (densely
    reindexed); element ``g`` maps onto carrier ∩ u_g(carrier).
    """
    check_total_action(group, space, u)
    if not in_range(carrier, 1 << space.size):
        raise InvalidSubset("carrier is not within the point range", (carrier,))
    return _restrict(
        group, topo.subspace(space, carrier), _restricted_maps(group, u, _cut(carrier))
    )


def _refuse_non_element(group: FiniteGroup, what: str, s: object) -> None:
    if not in_range(s, group.order):
        raise ValueError(
            f"{what} {s!r} is not an element of the group of order {group.order}"
        )


def coset_rows(
    group: FiniteGroup, subgroups: Sequence[Sequence[int]]
) -> list[list[int]]:
    """Rows of ``group`` acting on the disjoint union of its coset spaces
    G/H, one per listed subgroup H, each numbering its cosets by their
    least elements.  A list that is not a subgroup raises ValueError
    naming an element outside the group, the missing identity, or the
    first product that leaves the list."""
    rows: list[list[int]] = [[] for _ in group.elements()]
    for sub in subgroups:
        for h in sub:
            _refuse_non_element(group, "subgroup member", h)
        members = set(sub)
        if group.identity not in members:
            raise ValueError(
                f"subgroup {tuple(sub)} lacks the identity {group.identity}"
            )
        for h, k in itertools.product(sub, repeat=2):
            if group.mul[h][k] not in members:
                raise ValueError(
                    f"subgroup {tuple(sub)} is not closed: "
                    f"{h} * {k} = {group.mul[h][k]} is not in it"
                )
        least = [a for a in group.elements() if a == min(group.mul[a][h] for h in sub)]
        where = {group.mul[a][h]: n for n, a in enumerate(least) for h in sub}
        base = len(rows[0])
        for mul_g, row in zip(group.mul, rows):
            row += [base + where[mul_g[a]] for a in least]
    return rows


def _cayley_walk(group: FiniteGroup, gens: Sequence[int]) -> list[tuple[int, int, int]]:
    # The walk out from the identity along ``gens``, as (element, the
    # element it is reached from, generator index) in the order found.
    # Refuses a generator outside the group, and a set that does not
    # generate it, naming the first element the walk misses.
    for s in gens:
        _refuse_non_element(group, "generator", s)
    reached = {group.identity}
    steps = []
    frontier = [group.identity]
    while frontier:
        g = frontier.pop()
        for i, s in enumerate(gens):
            h = group.mul[s][g]
            if h not in reached:
                reached.add(h)
                steps.append((h, g, i))
                frontier.append(h)
    for g in group.elements():
        if g not in reached:
            raise ValueError(
                f"generators {tuple(gens)} do not generate the group: "
                f"the walk from the identity misses element {g}"
            )
    return steps


def _generated_rows(
    group: FiniteGroup, steps: list[tuple[int, int, int]],
    images: Sequence[tuple[int, ...]], size: int,
) -> list[tuple[int, ...]]:
    # Rows of the action in which each generator acts as its image,
    # along the walk ``steps``; ``check_total_action`` rejects them when
    # the images break a relation of the group.  A generator the walk
    # reaches another way (the identity, or one listed twice) is not
    # read here, so the caller compares its row with its image.
    rows = {group.identity: tuple(range(size))}
    for h, g, i in steps:
        rows[h] = tuple(images[i][y] for y in rows[g])
    return [rows[g] for g in group.elements()]


def _check_count(name: str, value: int) -> None:
    if type(value) is not int or value < 0:  # True would pass as 1
        raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")


def induced_instances(
    groups: Sequence[tuple[FiniteGroup, Sequence[int]]], max_points: int
) -> list[PartialAction]:
    """Every partial action induced from a continuous total action of
    one of ``groups`` on at most ``max_points`` points, over every
    carrier subset, deduplicated.  Each group comes with elements that
    generate it, and each choice of homeomorphisms for them to act as
    is tried; a generator outside its group, or a set that does not
    generate it, raises ValueError, as does a ``max_points`` that is
    not a nonnegative int.  A choice under which some generator's row
    is not its image is skipped unchecked.  Each total action is
    checked once, each carrier's subspace built once per space, and
    each distinct member constructed once, from new restricted tables."""
    _check_count("max_points", max_points)
    walks = [(group, gens, _cayley_walk(group, gens)) for group, gens in groups]
    seen: set[tuple] = set()  # (group, sub, maps), which fix dom and so the action
    out: list[PartialAction] = []
    for size in range(1, max_points + 1):
        for space in topo.all_topologies(size):
            homeos = topo.homeomorphisms(space)
            subs = [(topo.subspace(space, c), _cut(c)) for c in range(1 << size)]
            for group, gens, steps in walks:
                for images in itertools.product(homeos, repeat=len(gens)):
                    rows = _generated_rows(group, steps, images, size)
                    if any(rows[s] != img for s, img in zip(gens, images)):
                        continue
                    try:
                        check_total_action(group, space, rows)
                    except NotAnAction:  # the images break a relation
                        continue
                    for sub, pos in subs:
                        key = (group, sub, _restricted_maps(group, rows, pos))
                        if key not in seen:
                            seen.add(key)
                            out.append(_restrict(*key))
    return out


def induced_family(max_group: int = 4, max_points: int = 3) -> list[PartialAction]:
    """``induced_instances`` on the cyclic groups of order at most
    ``max_group``, each generated by 1 (the trivial one by nothing)."""
    _check_count("max_group", max_group)
    return induced_instances(
        [(cyclic(k), (1,) if k > 1 else ()) for k in range(1, max_group + 1)],
        max_points,
    )


def _remap_mutant(pa: PartialAction, rng) -> PartialAction | None:
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


def _identity_gap_mutant(pa: PartialAction, rng) -> PartialAction | None:
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


def _non_open_domain_mutant(pa: PartialAction, rng) -> PartialAction | None:
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


# each takes a valid action and a random.Random, and returns None when
# the action has no mutant of its kind
_MUTATORS = (
    ("remap", _remap_mutant),
    ("identity-gap", _identity_gap_mutant),
    ("non-open-domain", _non_open_domain_mutant),
)


def mutant_family(
    instances: list[PartialAction], count: int = 200, seed: int = 0
) -> list[tuple[str, PartialAction]]:
    """Draw ``count`` (a nonnegative int) invalid instances by mutating
    members of ``instances``; each is labeled with the mutation kind.
    Every mutator needs a point, so one instance must have one."""
    _check_count("count", count)
    if not any(pa.space.size for pa in instances):
        raise ValueError("mutant_family needs an instance with at least one point")
    import random  # here, not at the top: no command draws mutants

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

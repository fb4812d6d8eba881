"""Partial actions of finite groups on finite topological spaces.

A partial action stores, for every group element ``g``, the open set
``dom[g]`` it maps onto and a point table ``maps[g]`` holding the
partial map whose domain is ``dom[inv(g)]`` (entries ``-1`` mean
undefined).  ``validate`` checks the pair-style axioms and the
bijection-style axioms independently and reports both verdicts; they
must agree on every well-formed table.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Sequence

from . import topology as topo
from .errors import AxiomViolation, InvalidSubset, NotAnAction, has_entries, in_range
from .groups import FiniteGroup
from .record import Record
from .relations import EqRel, from_relation
from .reports import Report, ReportBuilder
from .topology import FinTop, iter_bits, mask_of


class PartialAction(Record):
    """Tables for a candidate partial action; validity is checked by
    ``validate``, never assumed by the constructor."""

    group: FiniteGroup
    space: FinTop
    dom: tuple[int, ...]
    maps: tuple[tuple[int, ...], ...]

    def __init__(self, group: FiniteGroup, space: FinTop, dom: tuple[int, ...],
                 maps: tuple[tuple[int, ...], ...]):
        n = group.order
        size = space.size
        if not (has_entries(dom, n) and has_entries(maps, n)):
            raise ValueError("dom and maps must have one entry per group element")
        for g, mask in enumerate(dom):
            if not in_range(mask, 1 << size):
                raise ValueError(f"dom[{g}] outside the carrier")
        for g, row in enumerate(maps):
            if not has_entries(row, size):
                raise ValueError(f"maps[{g}] must have one entry per point")
            for x, y in enumerate(row):
                # a point, or the undefined mark: y + 1 is then the int 0
                if not (in_range(y, size) or y == -1 and in_range(y + 1, 1)):
                    raise ValueError(f"maps[{g}][{x}] = {y!r} out of range")
        self._set("group", group)
        self._set("space", space)
        self._set("dom", dom)
        self._set("maps", maps)

    def act(self, g: int, x: int) -> int:
        y = self.maps[g][x]
        if y < 0:
            raise KeyError(f"element {g} does not act on point {x}")
        return y

    # Derived tables, each computed on first read and kept on the
    # action.  ``acting``, ``graph``, ``product`` and ``graph_open`` read
    # only ``dom`` and the space, so ``validate`` may read them on any
    # tables; the others call ``act`` and raise KeyError on ill-formed
    # tables.

    @functools.cached_property
    def acting(self) -> tuple[int, ...]:
        """Per point x, the bitmask of the g with x in dom[inv(g)]."""
        dom, inv = self.dom, self.group.inv
        return tuple(
            mask_of(g for g in self.group.elements() if (dom[inv[g]] >> x) & 1)
            for x in self.space.points()
        )

    @functools.cached_property
    def orbits(self) -> tuple[int, ...]:
        """Per point x, the bitmask of its images g.x."""
        return tuple(
            mask_of(self.act(g, x) for g in iter_bits(acting))
            for x, acting in enumerate(self.acting)
        )

    @functools.cached_property
    def preimages(self) -> tuple[tuple[int, ...], ...]:
        """Per element g and point y, the bitmask of the x with g.x = y."""
        rows = [[0] * self.space.size for _ in self.group.elements()]
        for x, acting in enumerate(self.acting):
            for g in iter_bits(acting):
                rows[g][self.act(g, x)] |= 1 << x
        return tuple(map(tuple, rows))

    @functools.cached_property
    def settled(self) -> tuple[bool, ...]:
        """Per point x, whether the orbit of each point y in the orbit
        of x covers the orbit of x.  Each such y then meets every nonempty
        subset of that orbit, so at x a set is in the meager-translate
        ideal exactly when it is empty, and the verdict cannot differ
        between class members (always so on a valid action)."""
        orbits = self.orbits
        return tuple(all(orbits[y] & o == o for y in iter_bits(o)) for o in orbits)

    @functools.cached_property
    def sections(self) -> tuple[tuple[int, int, int, bool], ...]:
        """Per point x, the packed row ``vaught.ideal_section_set`` reads:
        x, ``1 << x``, ``orbits[x] << (x * size)`` (the orbit as row x of
        the square of the carrier, which is also the orbit of (x, x)
        under ``pair_action``) and ``settled[x]``.  ``orbits`` is read
        first, so ill-formed tables raise its KeyError."""
        size, orbits = self.space.size, self.orbits
        return tuple(
            (x, 1 << x, o << (x * size), s)
            for x, (o, s) in enumerate(zip(orbits, self.settled))
        )

    @functools.cached_property
    def graph(self) -> int:
        """The definedness graph {(g, x) : x in dom[inv(g)]} as a set of
        product points."""
        out = 0
        for g in self.group.elements():
            out |= self.dom[self.group.inv[g]] << (g * self.space.size)
        return out

    @functools.cached_property
    def product(self) -> FinTop:
        """The group-indexed product of the space with the discrete group."""
        return topo.product_with_discrete(self.space, self.group.order)

    @functools.cached_property
    def graph_open(self) -> bool:
        """Whether ``graph`` is open in ``product``: the group is
        discrete, so exactly when each slice, a domain, is open."""
        return all(topo.is_open(self.space, d) for d in self.dom)

    @functools.cached_property
    def orbit_relation(self) -> EqRel:
        """``orbit_equivalence(self)``."""
        return orbit_equivalence(self)

    @functools.cached_property
    def orbit_quotient(self) -> FinTop:
        """The quotient of the space by ``orbit_relation``."""
        return topo.quotient(self.space, self.orbit_relation)

    @functools.cached_property
    def lifted_orbits(self) -> EqRel:
        """The gluing relation of the enveloping space, (g, x) ~ (h, y)
        when inv(h)*g carries x to y: the orbit relation of
        ``lifted_action(self)``, read by its formula with no |G|²·|X|
        table.  The row of (g, x) lists (g*k, inv(k).x) for each k with x
        in dom(k); AxiomViolation names a broken axiom."""
        group, size, inv = self.group, self.space.size, self.group.inv
        # moves[x] holds (k, inv(k).x) for each k with x in dom(k), listed
        # by increasing h = 0*k: a missing image raises KeyError at the
        # first (x, h) of the pair condition at g = 0.
        first = group.mul[inv[0]]
        moves = [[(k, self.act(inv[k], x)) for k in first if (self.dom[k] >> x) & 1]
                 for x in self.space.points()]
        rows = [[mul_g[k] * size + y for k, y in xmoves]
                for mul_g in group.mul for xmoves in moves]
        try:
            return from_relation(group.order * size, rows)
        except ValueError as exc:
            raise AxiomViolation(f"gluing relation is not an equivalence: {exc}") from exc


def _check_point(pa: PartialAction, x: int) -> None:
    # a negative index would silently read the last point's row, and
    # True would read point 1
    if not in_range(x, pa.space.size):
        raise InvalidSubset("point is not within the carrier", (x,))


def acting_set(pa: PartialAction, x: int) -> int:
    """Bitmask of group elements defined at ``x`` (those with x in
    dom[inv(g)])."""
    _check_point(pa, x)
    return pa.acting[x]


def stabilizer(pa: PartialAction, x: int) -> int:
    _check_point(pa, x)
    out = 0
    for g in iter_bits(pa.acting[x]):
        if pa.act(g, x) == x:
            out |= 1 << g
    return out


def orbit(pa: PartialAction, x: int) -> int:
    _check_point(pa, x)
    return pa.orbits[x]


def orbit_equivalence(pa: PartialAction) -> EqRel:
    """The reachability relation; on a valid partial action it is an
    equivalence, otherwise AxiomViolation names the broken axiom.

    The row of x is column x of ``maps``: its defined entries are the
    images g.x.  That reading needs each map defined exactly on
    dom[inv(g)]; otherwise the rows are read from ``orbits``, which
    raises KeyError where a domain point has no image.
    """
    inv = pa.group.inv
    if all(_defined(row) == pa.dom[inv[g]] for g, row in enumerate(pa.maps)):
        rows = [[y for y in column if y >= 0] for column in zip(*pa.maps)]
    else:
        rows = [iter_bits(o) for o in pa.orbits]
    try:
        return from_relation(pa.space.size, rows)
    except ValueError as exc:
        raise AxiomViolation(f"orbit relation is not an equivalence: {exc}") from exc


def _defined(row: Sequence[int]) -> int:
    # The mask of the points where ``row`` is defined, parsed as one
    # binary literal: linear in the row length, however wide.
    return int("0" + "".join(["0" if y < 0 else "1" for y in reversed(row)]), 2)


def well_formedness(pa: PartialAction) -> Report:
    """Whether each map is defined exactly on dom[inv(g)]; the other
    checks of ``validate`` and every table that calls ``act`` assume it."""
    rb = ReportBuilder("well-formedness")
    ok = True
    for g in pa.group.elements():
        expected = pa.dom[pa.group.inv[g]]
        actual = _defined(pa.maps[g])
        if actual != expected:
            bad = tuple(iter_bits(actual ^ expected))
            rb.check(f"map of element {g} defined exactly on dom(inv(g))",
                     False, (g,) + bad)
            ok = False
    rb.check("tables well-formed", ok)
    return rb.build()


def _pair_axioms(pa: PartialAction) -> Report:
    # On well-formed tables maps[g][x] == y >= 0 says exactly that g is
    # defined at x and moves it to y.
    rb = ReportBuilder("pair-axioms")
    group, size, maps = pa.group, pa.space.size, pa.maps
    mul, inv = group.mul, group.inv

    ident = maps[group.identity]
    bad = [x for x in range(size) if ident[x] != x]
    rb.check("identity acts everywhere as the identity", not bad, tuple(bad))

    bad_undo = []
    for g in group.elements():
        back = maps[inv[g]]
        for x, y in enumerate(maps[g]):
            if y >= 0 and back[y] != x:
                bad_undo.append((g, x))
    rb.check("inverse undoes every defined move", not bad_undo, tuple(bad_undo))

    bad_comp = []
    for g in group.elements():
        row_g, mul_g = maps[g], mul[g]
        for h in group.elements():
            row_gh = maps[mul_g[h]]
            for x, y in enumerate(maps[h]):
                if y >= 0:
                    z = row_g[y]
                    if z >= 0 and row_gh[x] != z:
                        bad_comp.append((g, h, x))
    rb.check(
        "composed moves extend to the product element", not bad_comp, tuple(bad_comp)
    )
    return rb.build()


def _bijection_axioms(pa: PartialAction) -> Report:
    # validate runs it only on well-formed tables, where maps[g] is
    # defined exactly on dom[inv[g]].
    rb = ReportBuilder("bijection-axioms")
    group, size, maps, dom = pa.group, pa.space.size, pa.maps, pa.dom
    mul, inv, e = group.mul, group.inv, group.identity

    bad_bij = []
    for g in group.elements():
        row, range_g = maps[g], dom[g]
        seen: dict[int, int] = {}
        image = 0
        for x in iter_bits(dom[inv[g]]):
            y = row[x]
            if y in seen:
                bad_bij.append((g, seen[y], x))
            seen[y] = x
            image |= 1 << y
        if image != range_g:
            bad_bij.append((g,) + iter_bits(image ^ range_g))
    rb.check("each map is a bijection onto its range set", not bad_bij, tuple(bad_bij))

    ident = maps[e]
    id_ok = dom[e] == pa.space.full and all(ident[x] == x for x in range(size))
    rb.check("identity element has full domain and identity map", id_ok)

    bad_ranges = []
    for g in group.elements():
        row, src_g, range_g, mul_g = maps[g], dom[inv[g]], dom[g], mul[g]
        for h in group.elements():
            img = 0
            for x in iter_bits(src_g & dom[h]):
                img |= 1 << row[x]
            if img != range_g & dom[mul_g[h]]:
                bad_ranges.append((g, h))
    rb.check(
        "maps carry domain intersections onto range intersections",
        not bad_ranges,
        tuple(bad_ranges),
    )

    bad_comp = []
    for g in group.elements():
        row_g, mul_g = maps[g], mul[g]
        for h in group.elements():
            gh = mul_g[h]
            row_h, row_gh = maps[h], maps[gh]
            for x in iter_bits(dom[inv[h]] & dom[inv[gh]]):
                y = row_h[x]
                if row_g[y] < 0 or row_g[y] != row_gh[x]:
                    bad_comp.append((g, h, x))
    rb.check(
        "composition agrees with the product element on its region",
        not bad_comp,
        tuple(bad_comp),
    )
    return rb.build()


def _topological(pa: PartialAction, algebra_ok: bool) -> Report:
    rb = ReportBuilder("topological")
    group, space = pa.group, pa.space

    graph_open = pa.graph_open
    bad_open = () if graph_open else tuple(
        g for g in group.elements() if not topo.is_open(space, pa.dom[g])
    )
    rb.check("every domain set is open", graph_open, bad_open)

    if not algebra_ok:
        rb.na("each map is a homeomorphism between its domains",
              "skipped: maps are not bijections between the domain sets")
    else:
        bad_homeo = [
            g for g in group.elements()
            if not topo.is_homeomorphism(
                pa.maps[g], space, pa.dom[group.inv[g]], space, pa.dom[g])
        ]
        rb.check(
            "each map is a homeomorphism between its domains",
            not bad_homeo,
            tuple(bad_homeo),
        )

    rb.info("definedness graph open in the product", (graph_open,))
    rb.info(
        "definedness graph is a countable intersection of opens",
        (graph_open,),
        "finite carrier: such intersections collapse to opens",
    )
    return rb.build()


def validate(pa: PartialAction) -> Report:
    """Full validation report.

    Sections: table well-formedness, the pair-style axioms, the
    bijection-style axioms, topological conditions, and an agreement
    check between the two axiom formulations.  Violations are collected
    with witnesses; nothing raises.
    """
    rb = ReportBuilder("partial-action-validation")
    if not rb.section(well_formedness(pa)).ok:
        rb.na("pair-axioms", "skipped: tables ill-formed")
        rb.na("bijection-axioms", "skipped: tables ill-formed")
        rb.na("formulations agree", "skipped: tables ill-formed")
        rb.section(_topological(pa, algebra_ok=False))
        return rb.build()

    pair = rb.section(_pair_axioms(pa))
    bij = rb.section(_bijection_axioms(pa))
    rb.section(_topological(pa, algebra_ok=bij.ok))
    rb.check(
        "both axiom formulations give the same verdict",
        pair.ok == bij.ok,
        (pair.ok, bij.ok),
        "disagreement would mean an engine bug",
    )
    return rb.build()


def check_total_action(
    group: FiniteGroup, space: FinTop, u: Sequence[Sequence[int]]
) -> None:
    """Raise NotAnAction unless the rows ``u`` form a continuous action:
    permutations, the identity row fixing every point, composition."""
    n, size = group.order, space.size
    if not has_entries(u, n):
        raise NotAnAction("action table needs one row per group element")
    for g in range(n):
        row = u[g]
        # in_range on every entry, at C speed: all ints, sorting to range
        # (True and 1.0 would sort as 1, a str not at all)
        if not (has_entries(row, size) and {*map(type, row)} <= {int}
                and sorted(row) == list(range(size))):
            raise NotAnAction(f"row of element {g} is not a permutation", (g,))
    if tuple(u[group.identity]) != tuple(range(size)):
        raise NotAnAction("identity row is not the identity map", (group.identity,))
    for g in range(n):
        for h in range(n):
            gh = group.mul[g][h]
            for y in range(size):
                if u[g][u[h][y]] != u[gh][y]:
                    raise NotAnAction(
                        f"rows do not compose at ({g}, {h}, {y})", (g, h, y)
                    )
    for g in range(n):
        if not topo._is_monotone(u[g], space, space):
            raise NotAnAction(f"row of element {g} is not continuous", (g,))


def orbit_consistency_report(pa: PartialAction) -> Report:
    """Orbit bookkeeping facts used throughout the engine: translation
    of acting sets along moves, openness and continuity of the class
    map, and closure of acting sets under stabilizer right-shifts."""
    rb = ReportBuilder("orbit-consistency")
    group = pa.group

    bad_translate = []
    for g in group.elements():
        gi = group.inv[g]
        for x in iter_bits(pa.dom[g]):
            moved = pa.act(gi, x)
            shifted = mask_of(group.mul[h][g] for h in iter_bits(pa.acting[x]))
            if shifted != pa.acting[moved]:
                bad_translate.append((g, x))
    rb.check(
        "acting set translates along each move", not bad_translate, tuple(bad_translate)
    )

    cmap, q = pa.orbit_relation.class_id, pa.orbit_quotient
    rb.check("class map continuous", topo.is_continuous(cmap, pa.space, q))
    rb.check("class map open", topo.is_open_map(cmap, pa.space, q))

    bad_closure = []
    for x in pa.space.points():
        gx = pa.acting[x]
        st = stabilizer(pa, x)
        for g in iter_bits(gx):
            gi = group.inv[g]
            for h in group.elements():
                if (st >> group.mul[gi][h]) & 1 and not (gx >> h) & 1:
                    bad_closure.append((x, g, h))
    rb.check(
        "acting set absorbs stabilizer right-shifts",
        not bad_closure,
        tuple(bad_closure),
    )
    return rb.build()


def _slice_action(
    pa: PartialAction, space: FinTop, copies: int, move: Callable[[int, int], int]
) -> PartialAction:
    """Act on ``space``, which holds ``copies`` copies of the carrier
    (point x of copy j at ``j * size + x``): ``g`` acts on each copy as
    on the carrier and sends copy j to copy ``move(g, j)``.  No engine
    path calls it or the lifted and pair actions it builds."""
    group, size = pa.group, pa.space.size
    dom, maps = [], []
    for g in group.elements():
        mask = 0
        for j in range(copies):
            mask |= pa.dom[g] << (j * size)
        dom.append(mask)
        moves = [(x, pa.act(g, x)) for x in iter_bits(pa.dom[group.inv[g]])]
        row = [-1] * (copies * size)
        for j in range(copies):
            src, dst = j * size, move(g, j) * size
            for x, y in moves:
                row[src + x] = dst + y
        maps.append(tuple(row))
    return PartialAction(group, space, tuple(dom), tuple(maps))


def lifted_action(pa: PartialAction) -> PartialAction:
    """Lift to the group-indexed product: ``g`` sends (h, x) to
    (h * inv(g), g.x) on the slices where the original action is
    defined.  Its orbits, ``PartialAction.lifted_orbits``, present the
    enveloping space.  No engine path calls it: that table is read by its
    formula.  It is kept for the benchmark's traced spans and the tests'
    reference forms."""
    mul, inv = pa.group.mul, pa.group.inv
    return _slice_action(pa, pa.product, pa.group.order, lambda g, h: mul[h][inv[g]])


@functools.lru_cache(maxsize=64)
def pair_action(pa: PartialAction) -> PartialAction:
    """Act on ordered pairs through the second coordinate only; the
    first coordinate just comes along for the ride.

    Memoized.  No engine path calls it: the orbit of (x, x) is row x
    of ``PartialAction.sections``.  It is kept for the benchmark's
    traced spans and the tests' reference forms."""
    prod = topo.product(pa.space, pa.space)
    return _slice_action(pa, prod, pa.space.size, lambda g, x: x)

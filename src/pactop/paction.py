"""Partial actions of finite groups on finite topological spaces.

A partial action stores, for every group element ``g``, the open set
``dom[g]`` it maps onto and a point table ``maps[g]`` holding the
partial map whose domain is ``dom[inv(g)]`` (entries ``-1`` mean
undefined).  ``validate`` checks the pair-style axioms and the
bijection-style axioms and reports both verdicts; they must agree on
every well-formed table.  The two composition clauses read the same
entries, so one scan of the tables decides both.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Sequence
from operator import countOf

from . import topology as topo
from .errors import AxiomViolation, InvalidSubset, has_entries, in_range
from .groups import FiniteGroup
from .record import Record, cached
from .relations import EqRel, from_relation
from .reports import Report, ReportBuilder
from .topology import FinTop, image_of, iter_bits


class PartialAction(Record):
    """Tables for a candidate partial action; validity is checked by
    ``validate``, never assumed by the constructor.  ``dom`` and each row
    of ``maps`` may be any sequence; they are stored as tuples."""

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
        # stored as tuples, so an action given lists compares and hashes
        # as the same action given tuples
        self._set("dom", tuple(dom))
        self._set("maps", tuple(map(tuple, maps)))

    def act(self, g: int, x: int) -> int:
        y = self.maps[g][x]
        if y < 0:
            raise KeyError(f"element {g} does not act on point {x}")
        return y

    # Derived tables, each computed on first read and kept on the
    # action.  ``acting``, ``graph`` and ``graph_open`` read only ``dom``
    # and the space, so ``validate`` may read them on any tables;
    # ``moves`` calls ``act``, the others read it, and all of them raise
    # KeyError on ill-formed tables.  None holds the group-indexed
    # product: each reader takes N(x) in slice g as the neighbourhood of
    # (g, x).

    @cached
    def acting(self) -> tuple[int, ...]:
        """Per point x, the bitmask of the g with x in dom[inv(g)]: the
        domains transposed, in one pass over their points."""
        dom, inv = self.dom, self.group.inv
        out = [0] * self.space.size
        for g in self.group.elements():
            bit = 1 << g
            for x in iter_bits(dom[inv[g]]):
                out[x] |= bit
        return tuple(out)

    @cached
    def moves(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per point x, the pairs (g, g.x) for each g acting at x, listed
        by increasing h for g = inv(h)*0: the order in which the gluing
        relation's first row, that of element 0, meets them, so a missing
        image raises the KeyError that relation raises."""
        inv = self.group.inv
        order = [inv[k] for k in self.group.mul[inv[0]]]
        return tuple(
            tuple([(g, self.act(g, x)) for g in order if (acting >> g) & 1])
            for x, acting in enumerate(self.acting)
        )

    @cached
    def orbits(self) -> tuple[int, ...]:
        """Per point x, the bitmask of its images g.x."""
        out = []
        for xmoves in self.moves:
            orbit = 0
            for _, y in xmoves:
                orbit |= 1 << y
            out.append(orbit)
        return tuple(out)

    @cached
    def preimages(self) -> tuple[tuple[int, ...], ...]:
        """Per element g and point y, the bitmask of the x with g.x = y."""
        rows = [[0] * self.space.size for _ in self.group.elements()]
        for x, xmoves in enumerate(self.moves):
            for g, y in xmoves:
                rows[g][y] |= 1 << x
        return tuple(map(tuple, rows))

    @cached
    def sections(self) -> tuple[tuple[int, int, int, bool], ...]:
        """Per point x, the packed row ``vaught.ideal_section_set`` reads:
        x, ``1 << x``, ``orbits[x] << (x * size)`` (the orbit as row x of
        the square of the carrier, which is also the orbit of (x, x)
        under ``pair_action``) and whether x is settled: whether the
        orbit of each y in the orbit of x covers the orbit of x.  Each
        such y then meets every nonempty subset of that orbit, so at x a
        set is in the meager-translate ideal exactly when it is empty,
        and the verdict cannot differ between class members (always so
        on a valid action).  ``orbits`` is read first, so ill-formed
        tables raise its KeyError."""
        size, orbits = self.space.size, self.orbits
        return tuple(
            (x, 1 << x, o << (x * size), all(orbits[y] & o == o for y in iter_bits(o)))
            for x, o in enumerate(orbits)
        )

    @cached
    def graph(self) -> int:
        """The definedness graph {(g, x) : x in dom[inv(g)]} as a set of
        product points."""
        out = 0
        for g in self.group.elements():
            out |= self.dom[self.group.inv[g]] << (g * self.space.size)
        return out

    @cached
    def graph_open(self) -> bool:
        """Whether ``graph`` is open in the group-indexed product: the
        group is discrete, so exactly when each slice, a domain, is open."""
        return all(topo.is_open(self.space, d) for d in self.dom)

    @cached
    def orbit_relation(self) -> EqRel:
        """``orbit_equivalence(self)``."""
        return orbit_equivalence(self)

    @cached
    def orbit_quotient(self) -> FinTop:
        """The quotient of the space by ``orbit_relation``."""
        return topo.quotient(self.space, self.orbit_relation)

    @cached
    def lifted_orbits(self) -> EqRel:
        """The gluing relation of the enveloping space, (g, x) ~ (h, y)
        when inv(h)*g carries x to y: the orbit relation of
        ``lifted_action(self)``, read by its formula with no |G|²·|X|
        table.  The row of (g, x) lists (g*inv(h), h.x) for each (h, h.x)
        in ``moves[x]``; AxiomViolation names a broken axiom."""
        group, size, inv = self.group, self.space.size, self.group.inv
        rows = [[mul_g[inv[h]] * size + y for h, y in xmoves]
                for mul_g in group.mul for xmoves in self.moves]
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
    for g, y in pa.moves[x]:
        if y == x:
            out |= 1 << g
    return out


def orbit(pa: PartialAction, x: int) -> int:
    _check_point(pa, x)
    return pa.orbits[x]


def orbit_equivalence(pa: PartialAction) -> EqRel:
    """The reachability relation; on a valid partial action it is an
    equivalence, otherwise AxiomViolation names the broken axiom.

    The row of x is ``orbits[x]``, the images g.x, which raises
    KeyError where a domain point has no image.
    """
    try:
        return from_relation(pa.space.size, [iter_bits(o) for o in pa.orbits])
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
    size = pa.space.size
    for g in pa.group.elements():
        row, expected = pa.maps[g], pa.dom[pa.group.inv[g]]
        # -1 is the one undefined mark: the row is defined exactly on
        # ``expected`` when it holds none there and as many as are left
        if (countOf(row, -1) + expected.bit_count() == size
                and -1 not in map(row.__getitem__, iter_bits(expected))):
            continue
        actual = _defined(row)
        if actual != expected:
            bad = tuple(iter_bits(actual ^ expected))
            rb.check(f"map of element {g} defined exactly on dom(inv(g))",
                     False, (g,) + bad)
            ok = False
    rb.check("tables well-formed", ok)
    return rb.build()


# The failing (g, h, x) of the two composition axioms, in that order.
Scan = tuple[tuple[tuple[int, int, int], ...], tuple[tuple[int, int, int], ...]]


def _composition_scan(pa: PartialAction) -> Scan:
    """Both formulations' composition clauses, from one read of z =
    g.(h.x) and w = (gh).x at each (g, h, x) with h defined at x: the
    pair form fails where z is defined and w differs, the bijection form
    where w is defined and z differs.  On well-formed tables, the only
    ones ``validate`` scans, maps[g][x] >= 0 says exactly that g is
    defined at x, so these are the pair form's loop over every move of h
    and the bijection form's loop over dom(inv h) & dom(inv gh)."""
    maps, mul = pa.maps, pa.group.mul
    pair, bij = [], []
    for g, row_g in enumerate(maps):
        mul_g = mul[g]
        for h, row_h in enumerate(maps):
            row_gh = maps[mul_g[h]]
            for x, y in enumerate(row_h):
                if y >= 0:
                    z, w = row_g[y], row_gh[x]
                    if z != w:
                        if z >= 0:
                            pair.append((g, h, x))
                        if w >= 0:
                            bij.append((g, h, x))
    return tuple(pair), tuple(bij)


def _pair_axioms(pa: PartialAction, scan: Scan) -> Report:
    # On well-formed tables maps[g][x] == y >= 0 says exactly that g is
    # defined at x and moves it to y.
    rb = ReportBuilder("pair-axioms")
    group, size, maps, inv = pa.group, pa.space.size, pa.maps, pa.group.inv

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

    rb.check("composed moves extend to the product element", not scan[0], scan[0])
    return rb.build()


def _bijection_axioms(pa: PartialAction, scan: Scan) -> Report:
    # validate runs it only on well-formed tables, where maps[g] is
    # defined exactly on dom[inv[g]].
    rb = ReportBuilder("bijection-axioms")
    group, size, maps, dom = pa.group, pa.space.size, pa.maps, pa.dom
    mul, inv, e = group.mul, group.inv, group.identity

    bad_bij = []
    for g in group.elements():
        row, src, range_g = maps[g], dom[inv[g]], dom[g]
        image = image_of(row, src)
        # a bijection onto its range exactly when the image is the range
        # and as large as the source; only a map that fails is walked,
        # for the pairs of points it sends to one
        if image == range_g and image.bit_count() == src.bit_count():
            continue
        seen: dict[int, int] = {}
        for x in iter_bits(src):
            y = row[x]
            if y in seen:
                bad_bij.append((g, seen[y], x))
            seen[y] = x
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
            if image_of(row, src_g & dom[h]) != range_g & dom[mul_g[h]]:
                bad_ranges.append((g, h))
    rb.check(
        "maps carry domain intersections onto range intersections",
        not bad_ranges,
        tuple(bad_ranges),
    )

    rb.check(
        "composition agrees with the product element on its region", not scan[1], scan[1]
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
        # the bijection section has passed, so each map is a bijection
        # of dom[inv(g)] onto dom[g]: only the neighbourhoods are left
        bad_homeo = [
            g for g in group.elements()
            if not topo._carries_nbrs(
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

    scan = _composition_scan(pa)
    pair = rb.section(_pair_axioms(pa, scan))
    bij = rb.section(_bijection_axioms(pa, scan))
    rb.section(_topological(pa, algebra_ok=bij.ok))
    rb.check(
        "both axiom formulations give the same verdict",
        pair.ok == bij.ok,
        (pair.ok, bij.ok),
        "disagreement would mean an engine bug",
    )
    return rb.build()


def orbit_consistency_report(pa: PartialAction) -> Report:
    """Orbit bookkeeping facts used throughout the engine: translation
    of acting sets along moves, openness and continuity of the class
    map, and closure of acting sets under stabilizer right-shifts.

    Each clause is decided by one image per point and element, and its
    witnesses are listed only where that image fails.  The right shift
    by g, h to h*g, is column g of the group table.  The absorb clause
    reads the group table as a group, the ``FiniteGroup`` contract: the
    h with inv(g)*h in the stabilizer St are the g*s for s in St, so at
    x the clause holds exactly when each right shift by an s in St
    keeps the acting set, and the h failing for g are those of
    ``image_of(mul[g], St)`` outside it."""
    rb = ReportBuilder("orbit-consistency")
    group, acting = pa.group, pa.acting
    mul, inv = group.mul, group.inv
    columns = tuple(zip(*mul))

    bad_translate = []
    for g in group.elements():
        gi, column = inv[g], columns[g]
        for x in iter_bits(pa.dom[g]):
            if acting[pa.act(gi, x)] != image_of(column, acting[x]):
                bad_translate.append((g, x))
    rb.check(
        "acting set translates along each move", not bad_translate, tuple(bad_translate)
    )

    cmap, q = pa.orbit_relation.class_id, pa.orbit_quotient
    rb.check("class map continuous", topo.is_continuous(cmap, pa.space, q))
    rb.check("class map open", topo.is_open_map(cmap, pa.space, q))

    bad_closure = []
    for x, gx in enumerate(acting):
        st = stabilizer(pa, x)
        if all(image_of(columns[s], gx) == gx for s in iter_bits(st)):
            continue
        for g in iter_bits(gx):
            bad_closure += [(x, g, h) for h in iter_bits(image_of(mul[g], st) & ~gx)]
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
    prod = topo.product_with_discrete(pa.space, pa.group.order)
    return _slice_action(pa, prod, pa.group.order, lambda g, h: mul[h][inv[g]])


@functools.lru_cache(maxsize=64)
def pair_action(pa: PartialAction) -> PartialAction:
    """Act on ordered pairs through the second coordinate only; the
    first coordinate just comes along for the ride.

    Memoized.  No engine path calls it: the orbit of (x, x) is row x
    of ``PartialAction.sections``.  It is kept for the benchmark's
    traced spans and the tests' reference forms."""
    prod = topo.product(pa.space, pa.space)
    return _slice_action(pa, prod, pa.space.size, lambda g, x: x)

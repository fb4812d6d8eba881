"""Category transforms along a partial action.

For a point set A and a nonempty piece V of the group, the wide
transform collects points whose V-translates land in A non-meagerly,
the tight transform those whose translates land in A comeagerly, both
measured inside the acting part V ∩ {g : g defined at x}.  Meagerness is
always delegated to the topology module so the finite-scale collapse
(meager = empty on a discrete group) is never hard-coded here.
"""

from __future__ import annotations

from . import topology as topo
from .errors import AxiomViolation, InvalidOpenSet, InvalidSubset, NotOpen
from .paction import PartialAction, pair_action
from .reports import Report, ReportBuilder
from .topology import iter_bits, mask_of


def _check_args(pa: PartialAction, a: int, v: int) -> None:
    if a < 0 or a > pa.space.full:
        raise InvalidSubset("point set is not within the carrier", (a,))
    if v < 0 or v >= (1 << pa.group.order):
        raise InvalidSubset("group part is not within the group", (v,))
    if v == 0:
        raise InvalidOpenSet(
            "group part must be a nonempty open set; on a discrete group "
            "that means any nonempty subset"
        )


def _transform(pa: PartialAction, a: int, v: int, keep) -> int:
    # Points x where keep(group topology, hits, vx) holds: vx is the
    # acting part of V at x, hits the g in it that carry x into A.
    _check_args(pa, a, v)
    group_top = topo.discrete(pa.group.order)
    out = 0
    for x in pa.space.points():
        vx = v & pa.acting[x]
        hits = mask_of(g for g in iter_bits(vx) if (a >> pa.act(g, x)) & 1)
        if keep(group_top, hits, vx):
            out |= 1 << x
    return out


def delta_transform(pa: PartialAction, a: int, v: int) -> int:
    """Points x where the set of g in V acting on x into A is
    non-meager in the acting part of V at x."""
    return _transform(
        pa, a, v, lambda top, hits, vx: not topo.is_meager_in(top, hits, vx)
    )


def star_transform(pa: PartialAction, a: int, v: int) -> int:
    """Points x where the set of g in V acting on x into A is comeager
    in the acting part of V at x; vacuously true when that part is
    empty."""
    return _transform(
        pa, a, v, lambda top, hits, vx: topo.is_meager_in(top, vx & ~hits, vx)
    )


def _partitions_upto3(points: tuple[int, ...]):
    """Unordered partitions of the given points into at most 3
    nonempty blocks, as tuples of bitmasks; the empty tuple for no
    points."""
    if not points:
        yield ()
        return
    first, rest = points[0], points[1:]
    for sub in _partitions_upto3(rest):
        if len(sub) < 3:
            yield sub + (1 << first,)
        for i in range(len(sub)):
            yield sub[:i] + (sub[i] | (1 << first),) + sub[i + 1:]


def transform_identities_report(pa: PartialAction) -> Report:
    """Exhaustive check of the transform identities over every point
    set and every nonempty group part: complement duality, union
    splitting of the wide transform, intersection splitting of the
    tight transform, and the decomposition of the wide transform over
    sub-parts.

    The decomposition must discard vacuous tight members: a point whose
    acting set misses a sub-part entirely sits in the tight transform
    by the empty-subspace convention without witnessing anything, so
    each tight term is intersected with the matching wide term, which
    removes exactly those points (the separate containment check pins
    that down).  For everywhere-defined actions the intersection is a
    no-op and the decomposition reduces to the plain union.
    """
    rb = ReportBuilder("transform-identities")
    size = pa.space.size
    full = pa.space.full
    order = pa.group.order
    parts = [v for v in range(1, 1 << order)]

    delta: dict[tuple[int, int], int] = {}
    star: dict[tuple[int, int], int] = {}
    for a in range(1 << size):
        for v in parts:
            delta[a, v] = delta_transform(pa, a, v)
            star[a, v] = star_transform(pa, a, v)

    bad_dual = [
        (a, v)
        for a in range(1 << size)
        for v in parts
        if full & ~delta[a, v] != star[full & ~a, v]
    ]
    rb.check("complement duality", not bad_dual, tuple(bad_dual[:8]))

    bad_union = []
    bad_inter = []
    for a in range(1 << size):
        for blocks in _partitions_upto3(tuple(iter_bits(a))):
            for v in parts:
                joined = 0
                for b in blocks:
                    joined |= delta[b, v]
                if joined != delta[a, v]:
                    bad_union.append((a, v, blocks))
                meet = full
                for b in blocks:
                    meet &= star[full & ~b, v]
                if blocks and meet != star[full & ~a, v]:
                    bad_inter.append((a, v, blocks))
    for a in range(1 << size):
        for b in range(1 << size):
            for v in parts:
                if star[a, v] & star[b, v] != star[a & b, v]:
                    bad_inter.append((a, b, v))
    rb.check("wide transform splits over unions", not bad_union, tuple(bad_union[:8]))
    rb.check(
        "tight transform splits over intersections",
        not bad_inter,
        tuple(bad_inter[:8]),
    )

    # Per part v, the points whose acting set misses v.
    allowed = {
        v: mask_of(x for x in pa.space.points() if v & pa.acting[x] == 0)
        for v in parts
    }
    bad_vac = [
        (a, v)
        for a in range(1 << size)
        for v in parts
        if star[a, v] & ~delta[a, v] & ~allowed[v]
    ]
    rb.check(
        "tight exceeds wide only where the group part misses the acting set",
        not bad_vac,
        tuple(bad_vac[:8]),
    )

    bad_basis = []
    for a in range(1 << size):
        for v in parts:
            acc = 0
            u = v
            while True:
                if u:
                    acc |= star[a, u] & delta[a, u]
                if u == 0:
                    break
                u = (u - 1) & v
            if acc != delta[a, v]:
                bad_basis.append((a, v))
    rb.check(
        "wide transform is the union of non-vacuous tight transforms over sub-parts",
        not bad_basis,
        tuple(bad_basis[:8]),
    )
    rb.info(
        "combinations checked",
        (len(delta), len(parts)),
        "point sets times group parts, both transforms",
    )
    return rb.build()


def open_case(pa: PartialAction, a: int, v: int) -> Report:
    """For open A the wide transform has a direct union formula and is
    itself open; evaluates the formula and cross-checks the transform."""
    _check_args(pa, a, v)
    if not topo.is_open(pa.space, a):
        raise NotOpen("the direct formula needs an open point set", (a,))
    formula = 0
    for g in iter_bits(v):
        gi = pa.group.inv[g]
        for x in iter_bits(pa.dom[gi]):
            if (a >> pa.act(g, x)) & 1:
                formula |= 1 << x
    rb = ReportBuilder("open-case-transform")
    rb.check(
        "direct formula agrees with the wide transform",
        formula == delta_transform(pa, a, v),
        (a, v, formula),
    )
    rb.check("transform of an open set is open", topo.is_open(pa.space, formula))
    return rb.build()


def ideal_member(pa: PartialAction, x: int, s: int) -> bool:
    """Whether s belongs to the meager-translate ideal of the class of
    x; the verdict is computed for every class member and must agree."""
    orb = pa.orbits[x]
    if s & ~orb:
        raise InvalidSubset("set must sit inside the orbit", (s, orb))
    group_top = topo.discrete(pa.group.order)
    verdicts = []
    for y in iter_bits(orb):
        gy = pa.acting[y]
        hits = mask_of(g for g in iter_bits(gy) if (s >> pa.act(g, y)) & 1)
        verdicts.append(topo.is_meager_in(group_top, hits, gy))
    if len(set(verdicts)) > 1:
        raise AxiomViolation(
            "ideal membership differs between class representatives", (x, s)
        )
    return verdicts[0]


def ideal_section_set(pa: PartialAction, pairs: int) -> int:
    """Points whose orbit section of the pair set is ideal-small.

    Computed from the ideal definition, then cross-checked against the
    tight transform of the complement under the pair action evaluated on
    the diagonal; a mismatch raises since it would mean an engine bug.
    """
    size = pa.space.size
    if pairs < 0 or pairs >= 1 << (size * size):
        raise InvalidSubset("pair set is not within the square carrier", (pairs,))
    out = 0
    for x in pa.space.points():
        section = mask_of(
            y for y in iter_bits(pa.orbits[x]) if (pairs >> (x * size + y)) & 1
        )
        if ideal_member(pa, x, section):
            out |= 1 << x

    if size:
        beta = pair_action(pa)
        complement = beta.space.full & ~pairs
        tight = star_transform(beta, complement, (1 << pa.group.order) - 1)
        dual = mask_of(
            x for x in pa.space.points() if (tight >> (x * size + x)) & 1
        )
        if dual != out:
            raise AxiomViolation(
                "ideal sections disagree with the diagonal tight transform",
                (pairs, out, dual),
            )
    return out

"""Category transforms along a partial action.

For a point set A and a nonempty piece V of the group, the wide
transform collects points whose V-translates land in A non-meagerly,
the tight transform those whose translates land in A comeagerly, both
measured inside the acting part V ∩ {g : g defined at x}.  The group is
discrete, so meagerness there collapses to emptiness; the collapse is
stated once, at the two rules over a hits row below, and the tests
check both transforms against the meagerness definition.  Over the
whole group the two rules reduce to orbit-table readings, stated in
the same place; the ideal machinery reads those.
"""

from __future__ import annotations

from . import topology as topo
from .errors import (
    AxiomViolation, InvalidOpenSet, InvalidSubset, LimitExceeded, NotOpen,
)
from .paction import PartialAction, orbit, pair_action
from .reports import Report, ReportBuilder
from .topology import iter_bits, mask_of

# Most (point set, group part) combinations the identity suite tabulates
TRANSFORM_LIMIT = 1 << 20


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


def _hits(pa: PartialAction, a: int) -> list[int]:
    # Per point x, the g defined at x that carry x into A.
    row = [0] * pa.space.size
    for x, acting in enumerate(pa.acting):
        for g in iter_bits(acting):
            if (a >> pa.act(g, x)) & 1:
                row[x] |= 1 << g
    return row


# In the discrete group a set of elements is meager in a part exactly
# when it is empty, every element being an open point.  So x is in the
# wide transform when some hit lies in V, and in the tight transform
# when every element of V defined at x is a hit.  Over the whole group
# V = G no row is needed: some element defined at x is a hit exactly
# when the orbit of x meets A, and every one is exactly when the orbit
# of x lies inside A.
def _wide(row: list[int], v: int) -> int:
    return mask_of(x for x, hits in enumerate(row) if hits & v)


def _tight(pa: PartialAction, row: list[int], v: int) -> int:
    return mask_of(x for x, hits in enumerate(row) if v & pa.acting[x] & ~hits == 0)


def delta_transform(pa: PartialAction, a: int, v: int) -> int:
    """Points x where the set of g in V acting on x into A is
    non-meager in the acting part of V at x."""
    _check_args(pa, a, v)
    return _wide(_hits(pa, a), v)


def star_transform(pa: PartialAction, a: int, v: int) -> int:
    """Points x where the set of g in V acting on x into A is comeager
    in the acting part of V at x; vacuously true when that part is
    empty."""
    _check_args(pa, a, v)
    return _tight(pa, _hits(pa, a), v)


def transform_identities_report(pa: PartialAction) -> Report:
    """Exhaustive check of the transform identities over every point
    set and every nonempty group part: complement duality, union
    splitting of the wide transform, intersection splitting of the
    tight transform, and the decomposition of the wide transform over
    sub-parts.

    The splitting and decomposition checks are exact reductions that
    still read every table entry: delta splits over every partition iff
    delta(empty) = empty and delta(A) = delta(A - x) | delta({x}) for the
    lowest x in A; star splits over every intersection iff star(A) =
    star(A + x) & star(X - x) for the lowest x outside each A != X; the
    union over sub-parts is a subset-sum (zeta) transform, |G| * 2^|G|
    steps per A.

    The decomposition must discard vacuous tight members: a point whose
    acting set misses a sub-part entirely sits in the tight transform
    by the empty-subspace convention without witnessing anything, so
    each tight term is intersected with the matching wide term, which
    removes exactly those points (the separate containment check pins
    that down).  For everywhere-defined actions the intersection is a
    no-op and the decomposition reduces to the plain union.
    """
    size = pa.space.size
    full = pa.space.full
    order = pa.group.order
    parts = range(1, 1 << order)
    count = (1 << size) * ((1 << order) - 1)
    if count > TRANSFORM_LIMIT:
        raise LimitExceeded("transform combinations", count, TRANSFORM_LIMIT)
    rb = ReportBuilder("transform-identities")

    # delta[a][v] and star[a][v]; the empty part v = 0 reads 0 in both
    delta, star = [], []
    for a in range(1 << size):
        row = _hits(pa, a)
        delta.append([0] + [_wide(row, v) for v in parts])
        star.append([0] + [_tight(pa, row, v) for v in parts])

    bad_dual = [
        (a, v)
        for a in range(1 << size)
        for v in parts
        if full & ~delta[a][v] != star[full & ~a][v]
    ]
    rb.check("complement duality", not bad_dual, tuple(bad_dual[:8]))

    bad_union = []
    bad_inter = []
    for a in range(1 << size):
        low = a & -a  # lowest point in A; 0 for the empty set
        out = ~a & (a + 1)  # lowest point outside A
        for v in parts:
            joined = delta[a ^ low][v] | delta[low][v] if a else 0
            if delta[a][v] != joined:
                bad_union.append((a, v))
            if a != full and star[a][v] != star[a | out][v] & star[full ^ out][v]:
                bad_inter.append((a, v))
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
        if star[a][v] & ~delta[a][v] & ~allowed[v]
    ]
    rb.check(
        "tight exceeds wide only where the group part misses the acting set",
        not bad_vac,
        tuple(bad_vac[:8]),
    )

    bad_basis = []
    for a in range(1 << size):
        acc = [s & d for s, d in zip(star[a], delta[a])]
        for i in range(order):
            bit = 1 << i
            for u in parts:
                if u & bit:
                    acc[u] |= acc[u ^ bit]
        bad_basis.extend((a, v) for v in parts if acc[v] != delta[a][v])
    rb.check(
        "wide transform is the union of non-vacuous tight transforms over sub-parts",
        not bad_basis,
        tuple(bad_basis[:8]),
    )
    rb.info(
        "combinations checked",
        (count, len(parts)),
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
    orb = orbit(pa, x)
    if s & ~orb:
        raise InvalidSubset("set must sit inside the orbit", (s, orb))
    # no translate of y lands in s exactly where the orbit of y misses s
    wide = mask_of(y for y in iter_bits(orb) if pa.orbits[y] & s)
    if wide not in (0, orb):
        raise AxiomViolation(
            "ideal membership differs between class representatives", (x, s)
        )
    return wide == 0


def ideal_section_set(pa: PartialAction, pairs: int) -> int:
    """Points whose orbit section of the pair set is ideal-small.

    Computed from the ideal definition on each section, the row of x in
    the pair set cut down to the orbit of x, then cross-checked against
    the tight transform of the complement under the pair action, read on
    the diagonal over the whole group: (x, x) is in it exactly when its
    pair-action orbit misses the pair set.  A mismatch raises since it
    would mean an engine bug.
    """
    size = pa.space.size
    if pairs < 0 or pairs >= 1 << (size * size):
        raise InvalidSubset("pair set is not within the square carrier", (pairs,))
    row = (1 << size) - 1
    out = 0
    for x in pa.space.points():
        if ideal_member(pa, x, (pairs >> (x * size)) & row & pa.orbits[x]):
            out |= 1 << x

    if size:
        beta = pair_action(pa)
        dual = mask_of(
            x for x in pa.space.points() if beta.orbits[x * size + x] & pairs == 0
        )
        if dual != out:
            raise AxiomViolation(
                "ideal sections disagree with the diagonal tight transform",
                (pairs, out, dual),
            )
    return out

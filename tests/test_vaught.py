from __future__ import annotations

import dataclasses
import random
from collections import Counter

import pytest

import oracles
import references
from gspaces import midsize_instances
from pactop import paction, topology, vaught
from pactop import (
    PartialAction,
    acting_set,
    cyclic,
    delta_transform,
    discrete,
    example_k3,
    ideal_member,
    induced_family,
    ideal_section_set,
    mutant_family,
    open_case,
    pair_action,
    star_transform,
    transform_identities_report,
    validate,
)
from pactop.errors import AxiomViolation, InvalidOpenSet, InvalidSubset, NotOpen
from pactop.reports import FAIL, INFO, PASS
from pactop.topology import iter_bits, mask_of

SWAP = PartialAction(cyclic(2), discrete(2), (0b11, 0b11), ((0, 1), (1, 0)))
K3 = example_k3()
FULL_G2 = 0b11
FULL_G3 = 0b111


def test_swap_transforms_frozen():
    # translating either point hits {0} through exactly one group element,
    # never a meager set of them, and never all of them
    assert delta_transform(SWAP, 0b01, FULL_G2) == 0b11
    assert star_transform(SWAP, 0b01, FULL_G2) == 0
    assert delta_transform(SWAP, 0b11, FULL_G2) == 0b11
    assert star_transform(SWAP, 0b11, FULL_G2) == 0b11
    assert delta_transform(SWAP, 0, FULL_G2) == 0
    assert star_transform(SWAP, 0, FULL_G2) == 0


def test_vacuous_tight_transform_frozen():
    # only the identity acts on x0, so the part {1} misses its acting
    # set and the tight transform holds vacuously there
    assert star_transform(K3, 0, 0b010) == 0b01
    assert delta_transform(K3, 0, 0b010) == 0
    assert star_transform(K3, 0b01, FULL_G3) == 0b01
    assert delta_transform(K3, 0b01, FULL_G3) == 0b01
    assert star_transform(K3, 0, FULL_G3) == 0


def test_transforms_match_oracle(family):
    # the transforms state the meagerness collapse of the discrete group;
    # the oracle derives meagerness from the group's open sets
    for pa in family:
        full = pa.space.full
        for a in range(full + 1):
            for v in range(1, 1 << pa.group.order):
                assert delta_transform(pa, a, v) == oracles.delta_oracle(pa, a, v)
                assert star_transform(pa, a, v) == oracles.star_oracle(pa, a, v)


def test_whole_group_transforms_read_the_orbit_table(family):
    # over V = G the preimage rules reduce to the orbit table
    for pa in family:
        gfull = (1 << pa.group.order) - 1
        for a in range(pa.space.full + 1):
            meets = mask_of(x for x, orb in enumerate(pa.orbits) if orb & a)
            inside = mask_of(x for x, orb in enumerate(pa.orbits) if orb & ~a == 0)
            assert delta_transform(pa, a, gfull) == meets, (pa, a)
            assert star_transform(pa, a, gfull) == inside, (pa, a)


def test_monotone_in_both_arguments():
    for pa in (SWAP, K3):
        full = pa.space.full
        gfull = (1 << pa.group.order) - 1
        for a in range(full + 1):
            for b in range(full + 1):
                if a & ~b:
                    continue
                for v in range(1, gfull + 1):
                    assert delta_transform(pa, a, v) & ~delta_transform(pa, b, v) == 0
                    assert star_transform(pa, a, v) & ~star_transform(pa, b, v) == 0
        for v in range(1, gfull + 1):
            for w in range(1, gfull + 1):
                if v & ~w:
                    continue
                for a in range(full + 1):
                    assert delta_transform(pa, a, v) & ~delta_transform(pa, a, w) == 0


def test_tight_exceeds_wide_only_vacuously(family3):
    for pa in family3:
        gfull = (1 << pa.group.order) - 1
        for a in range(pa.space.full + 1):
            for v in range(1, gfull + 1):
                extra = star_transform(pa, a, v) & ~delta_transform(pa, a, v)
                for x in range(pa.space.size):
                    if (extra >> x) & 1:
                        assert v & acting_set(pa, x) == 0


def test_identities_report_on_representatives(valid_family):
    rot = PartialAction(
        cyclic(3), discrete(3), (0b111,) * 3, ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    )
    picks = [SWAP, K3, rot, valid_family[0], valid_family[-1]]
    for pa in picks:
        rep = transform_identities_report(pa)
        assert rep.ok, rep.failures()


UNION = "wide transform splits over unions"
INTER = "tight transform splits over intersections"
BASIS = "wide transform is the union of non-vacuous tight transforms over sub-parts"
VACUOUS = "tight exceeds wide only where the group part misses the acting set"


def _partitions_upto3(points):
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


def plane_tables(pa) -> tuple[list[int], list[int]]:
    """The report's bit-plane tables, built through ``vaught._planes``."""
    return vaught._planes(pa, *vaught._layout(pa.space.size, pa.group.order))


def plane_rows(pa) -> tuple[list[list[int]], list[list[int]]]:
    """The report's tables as rows of point masks, ``rows[A][V]``."""
    return tuple(references.planes_to_rows(pa, t) for t in plane_tables(pa))


def scan_identities(pa) -> dict[str, bool]:
    """Verdicts of the three checks the reductions replace, by direct
    enumeration: every partition of A into at most 3 blocks, every pair
    (A, B) and every sub-part of every group part.  Reads the report's
    tables through ``vaught._planes``, so a patched table reaches both."""
    size, full = pa.space.size, pa.space.full
    parts = range(1, 1 << pa.group.order)
    delta, star = plane_rows(pa)
    union = inter = basis = True
    for a in range(1 << size):
        for blocks in _partitions_upto3(tuple(iter_bits(a))):
            for v in parts:
                joined, meet = 0, full
                for b in blocks:
                    joined |= delta[b][v]
                    meet &= star[full & ~b][v]
                union &= joined == delta[a][v]
                inter &= not blocks or meet == star[full & ~a][v]
        for b in range(1 << size):
            for v in parts:
                inter &= star[a][v] & star[b][v] == star[a & b][v]
        for v in parts:
            acc = 0
            u = v
            while u:
                acc |= star[a][u] & delta[a][u]
                u = (u - 1) & v
            basis &= acc == delta[a][v]
    return {UNION: union, INTER: inter, BASIS: basis}


def reference_checks(pa, delta, star) -> list[tuple[str, str, tuple]]:
    """The five checks of ``transform_identities_report`` as entry-by-entry
    loops over the tables: (name, status, witness) each, the witnesses
    the first 8 failing (A, V) in order."""
    size, full, order = pa.space.size, pa.space.full, pa.group.order
    parts = range(1, 1 << order)
    out = []

    def check(name, bad):
        out.append((name, PASS if not bad else FAIL, tuple(bad[:8])))

    check("complement duality", [
        (a, v) for a in range(1 << size) for v in parts
        if full & ~delta[a][v] != star[full & ~a][v]
    ])
    bad_union, bad_inter = [], []
    for a in range(1 << size):
        low = a & -a
        out_a = ~a & (a + 1)
        for v in parts:
            joined = delta[a ^ low][v] | delta[low][v] if a else 0
            if delta[a][v] != joined:
                bad_union.append((a, v))
            if a != full and star[a][v] != star[a | out_a][v] & star[full ^ out_a][v]:
                bad_inter.append((a, v))
    check(UNION, bad_union)
    check(INTER, bad_inter)
    allowed = {
        v: mask_of(x for x in pa.space.points() if v & pa.acting[x] == 0) for v in parts
    }
    check(VACUOUS, [
        (a, v) for a in range(1 << size) for v in parts
        if star[a][v] & ~delta[a][v] & ~allowed[v]
    ])
    bad_basis = []
    for a in range(1 << size):
        acc = [s & d for s, d in zip(star[a], delta[a])]
        for i in range(order):
            bit = 1 << i
            for u in parts:
                if u & bit:
                    acc[u] |= acc[u ^ bit]
        bad_basis.extend((a, v) for v in parts if acc[v] != delta[a][v])
    check(BASIS, bad_basis)
    return out


def _verdicts(rep) -> dict[str, bool]:
    return {c.name: c.status == PASS for c in rep.checks if c.name in (UNION, INTER, BASIS)}


def _checks(rep) -> list[tuple[str, str, tuple]]:
    return [(c.name, c.status, c.witness) for c in rep.checks if c.status != INFO]


def test_reductions_match_scans_on_family(valid_family, valid_s3_family):
    for pa in valid_family + valid_s3_family:
        assert _verdicts(transform_identities_report(pa)) == scan_identities(pa), pa


def test_reductions_match_scans_on_broken_tables(
    valid_family, valid_s3_family, monkeypatch
):
    # Each table has one cell (A, V, x) of delta or star flipped: 2,000
    # draws from the family, then 300 from S3 on 3 points, whose parts
    # fill 64-cell planes.  The report and the scans read every table
    # through ``_planes``, so patching it reaches both.
    rng = random.Random(11)
    true = {}  # the true tables, keyed by instance
    broken = {}  # the cell to flip, keyed by the table
    planes = vaught._planes

    def broken_planes(pa, cells, lacks):
        if pa not in true:
            true[pa] = planes(pa, cells, lacks)
        out = {"delta": list(true[pa][0]), "star": list(true[pa][1])}
        for (kind, a), cell in broken.items():
            out[kind][a] ^= cell
        return out["delta"], out["star"]

    monkeypatch.setattr(vaught, "_planes", broken_planes)
    for count, instances in [(2000, valid_family), (300, valid_s3_family)]:
        nonempty = [pa for pa in instances if pa.space.size]
        fails = Counter()
        for _ in range(count):
            pa = rng.choice(nonempty)
            kind = rng.choice(("delta", "star"))
            a = rng.randrange(1 << pa.space.size)
            v = rng.randrange(1, 1 << pa.group.order)
            x = rng.randrange(pa.space.size)
            broken.clear()
            broken[kind, a] = 1 << (x * (1 << pa.group.order) + v)
            rep = transform_identities_report(pa)
            got = _verdicts(rep)
            assert got == scan_identities(pa), (pa, kind, a, v, x)
            assert _checks(rep) == reference_checks(pa, *plane_rows(pa)), (
                pa, kind, a, v, x
            )
            fails.update(name for name, ok in got.items() if not ok)
        assert all(fails[name] for name in (UNION, INTER, BASIS)), fails


def test_identities_report_matches_the_row_reference(family, s3_family):
    # every check's status and witness, the info line, or what is raised
    for pa in family + s3_family:
        expected = references.outcome(references.transform_identities_report, pa)
        assert references.outcome(transform_identities_report, pa) == expected, pa


def hits_row(pa, a: int) -> list[int]:
    """Per point x, the g defined at x that carry x into A."""
    row = [0] * pa.space.size
    for x, acting in enumerate(pa.acting):
        for g in iter_bits(acting):
            if (a >> pa.act(g, x)) & 1:
                row[x] |= 1 << g
    return row


def wide_by_hits(row: list[int], v: int) -> int:
    return mask_of(x for x, hits in enumerate(row) if hits & v)


def tight_by_hits(pa, row: list[int], v: int) -> int:
    return mask_of(x for x, hits in enumerate(row) if v & pa.acting[x] & ~hits == 0)


def test_tables_match_the_hits_rows(family, s3_family):
    # the report's tables against the per-point definition, cell by
    # cell: x is wide when some hit lies in V, tight when every g in V
    # defined at x hits; the empty part holds no wide and every tight x
    for pa in family + s3_family:
        delta, star = plane_tables(pa)
        width = 1 << pa.group.order
        for a in range(1 << pa.space.size):
            row = hits_row(pa, a)
            for x in pa.space.points():
                for v in range(width):
                    cell = x * width + v
                    wide = (wide_by_hits(row, v) >> x) & 1 if v else 0
                    tight = (tight_by_hits(pa, row, v) >> x) & 1 if v else 1
                    assert (delta[a] >> cell) & 1 == wide, (pa, a, v, x)
                    assert (star[a] >> cell) & 1 == tight, (pa, a, v, x)
            assert delta[a] >> (pa.space.size * width) == 0, (pa, a)
            assert star[a] >> (pa.space.size * width) == 0, (pa, a)


def test_identities_report_at_the_limit():
    # C16 rotating 4 discrete points: 16 * (2**16 - 1) = 1,048,560
    # combinations, the largest table TRANSFORM_LIMIT admits
    rot = PartialAction(
        cyclic(16),
        discrete(4),
        (0b1111,) * 16,
        tuple(tuple((x + g) % 4 for x in range(4)) for g in range(16)),
    )
    rep = transform_identities_report(rot)
    assert rep.ok, rep.failures()
    info = rep.checks[-1]
    assert info.witness == (1_048_560, 2 ** 16 - 1)
    assert info.witness[0] <= vaught.TRANSFORM_LIMIT


def test_argument_validation():
    with pytest.raises(InvalidSubset):
        delta_transform(SWAP, 0b100, FULL_G2)
    with pytest.raises(InvalidSubset):
        star_transform(SWAP, 0b01, 0b100)
    with pytest.raises(InvalidOpenSet):
        delta_transform(SWAP, 0b01, 0)


def test_open_case_formula():
    rep = open_case(K3, 0b10, FULL_G3)
    assert rep.ok
    rep = open_case(K3, 0b11, FULL_G3)
    assert rep.ok
    with pytest.raises(NotOpen):
        open_case(K3, 0b01, FULL_G3)


def test_open_case_across_family(valid_family):
    for pa in valid_family[::5]:
        gfull = (1 << pa.group.order) - 1
        for a in pa.space.opens:
            assert open_case(pa, a, gfull).ok


def test_ideal_member_frozen():
    assert ideal_member(SWAP, 0, 0) is True
    assert ideal_member(SWAP, 0, 0b11) is False
    assert ideal_member(SWAP, 0, 0b10) is False
    assert ideal_member(K3, 0, 0b01) is False
    with pytest.raises(InvalidSubset):
        ideal_member(K3, 0, 0b10)


def test_ideal_member_class_invariance(valid_family):
    # the verdict is recomputed at every class member inside the call;
    # a disagreement raises, so a clean sweep is the invariance check
    for pa in valid_family[::7]:
        for x in pa.space.points():
            ideal_member(pa, x, 0)


def test_ideal_section_set_frozen():
    full_square = (1 << 4) - 1
    assert ideal_section_set(SWAP, full_square) == 0
    assert ideal_section_set(SWAP, 0) == 0b11
    assert ideal_section_set(SWAP, 0b1001) == 0
    assert ideal_section_set(K3, 0b0001) == 0b10
    with pytest.raises(InvalidSubset):
        ideal_section_set(SWAP, 1 << 4)


def test_ideal_member_rejects_points_outside_the_carrier():
    for x in (-1, SWAP.space.size, 1.0, True, "0"):
        with pytest.raises(InvalidSubset, match="not within the carrier") as exc:
            ideal_member(SWAP, x, 0)
        assert exc.value.witness == (x,)


def section_set_by_transforms(pa, pairs: int) -> int:
    """``ideal_section_set`` through the general transforms: each section
    collected point by point and judged by the wide transform over the
    whole group, then checked against the diagonal of the tight
    transform of the complement under the pair action."""
    size = pa.space.size
    gfull = (1 << pa.group.order) - 1
    out = 0
    for x in pa.space.points():
        orb = pa.orbits[x]
        section = mask_of(y for y in iter_bits(orb) if (pairs >> (x * size + y)) & 1)
        if delta_transform(pa, section, gfull) & orb == 0:
            out |= 1 << x
    if size:
        beta = pair_action(pa)
        tight = star_transform(beta, beta.space.full & ~pairs, gfull)
        dual = mask_of(x for x in pa.space.points() if (tight >> (x * size + x)) & 1)
        assert dual == out, (pa, pairs)
    return out


def test_section_set_matches_the_transforms(valid_family):
    three = []
    for pa in valid_family:
        if pa.space.size == 3:
            three.append(pa)
            continue
        for pairs in range(1 << (pa.space.size ** 2)):
            assert ideal_section_set(pa, pairs) == section_set_by_transforms(pa, pairs)
    rng = random.Random(7)
    for _ in range(2000):
        pa = rng.choice(three)
        pairs = rng.randrange(1 << 9)
        assert ideal_section_set(pa, pairs) == section_set_by_transforms(pa, pairs), (
            pa, pairs
        )


def test_section_set_matches_the_transforms_on_s3(s3_family):
    # non-abelian: every pair set of every S3 instance on <= 3 points
    for pa in s3_family:
        for pairs in range(1 << pa.space.size ** 2):
            assert ideal_section_set(pa, pairs) == section_set_by_transforms(pa, pairs), (
                pa, pairs
            )


def test_section_set_matches_the_transforms_on_midsize():
    # D4, Q8 (its identity listed fifth), A4 and S4: 20 seeded pair sets
    # per valid instance, each filling a seeded half of the rows at
    # density 1/4, so that both verdicts show at many points
    rng = random.Random(19)
    verdicts = Counter()
    for _, _, _, pa in midsize_instances():
        if not validate(pa).ok:
            continue
        size = pa.space.size
        for _ in range(20):
            pairs = 0
            for x in pa.space.points():
                if rng.random() < 0.5:
                    bits = rng.getrandbits(size) & rng.getrandbits(size)
                    pairs |= bits << (x * size)
            small = ideal_section_set(pa, pairs)
            assert small == section_set_by_transforms(pa, pairs), (pa, pairs)
            verdicts["small"] += bin(small).count("1")
            verdicts["large"] += size - bin(small).count("1")
        verdicts["instances"] += 1
    assert verdicts["instances"] == 14
    assert verdicts["small"] and verdicts["large"], verdicts


def test_section_cross_check_fires():
    # C2 on two discrete points, element 1 moving point 0 to 1 and
    # defined nowhere else, the identity defined nowhere: the orbit of 0
    # is {1}, whose own orbit is empty, so 0 is unsettled and
    # ``ideal_member`` calls its section {1} small, while (0, 0) has
    # the pair (0, 1) in its pair-action orbit
    pa = PartialAction(cyclic(2), discrete(2), (0, 0b01), ((-1, -1), (1, -1)))
    with pytest.raises(AxiomViolation, match="diagonal tight transform") as exc:
        ideal_section_set(pa, 0b0010)
    assert exc.value.witness == (0b0010, 0b11, 0b10)


def test_section_rows_are_the_diagonal_pair_orbits(
    valid_family, s3_family, changed_family
):
    # row x of the square is the pair-action orbit of (x, x), on every
    # table whose orbits can be read; the pair action raises KeyError
    # exactly where ``orbits`` does
    unread = 0
    for pa in valid_family + s3_family + changed_family:
        try:
            pa.orbits
        except KeyError:
            with pytest.raises(KeyError):
                pair_action(pa)
            unread += 1
            continue
        size, orbits = pa.space.size, pair_action(pa).orbits
        assert [row for _, _, row, _ in pa.sections] == [
            orbits[x * size + x] for x in pa.space.points()
        ], pa
    assert unread == 231


def test_settled_tables(valid_family, s3_family):
    for pa in valid_family + s3_family:
        assert all(pa.settled), pa


def test_ideal_sweep_builds_no_pair_action(monkeypatch):
    # every pair set of every valid induced instance on <= 2 points, on
    # fresh copies so that no table is already held
    instances = [pa for pa in induced_family(4, 2) if validate(pa).ok]
    want = [
        [section_set_by_transforms(pa, pairs) for pairs in range(1 << pa.space.size ** 2)]
        for pa in instances
    ]

    def refuse(*args):
        raise AssertionError("the ideal sweep built a pair action")

    monkeypatch.setattr(paction, "pair_action", refuse)
    monkeypatch.setattr(topology, "product", refuse)
    calls = 0
    for pa, results in zip(instances, want):
        for pairs, small in enumerate(results):
            assert ideal_section_set(dataclasses.replace(pa), pairs) == small, (pa, pairs)
            calls += 1
    assert calls == 336


def section_set_by_members(pa, pairs: int) -> int:
    """``ideal_section_set`` as it read before the settled and diagonal
    tables: ``ideal_member`` at every point, and the pair action looked
    up on every call."""
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


def _outcome(fn, pa, pairs):
    try:
        return fn(pa, pairs)
    except Exception as exc:
        return type(exc), getattr(exc, "witness", exc.args)


def test_section_set_matches_members_on_mutants():
    # on invalid actions the orbits need not partition the carrier, so
    # some points are unsettled and ideal_member judges them; both forms
    # must agree there on every pair set, raised witnesses included
    cyclic_valid = [pa for pa in induced_family(4, 3) if validate(pa).ok]
    unsettled = Counter()
    for _, pa in mutant_family(cyclic_valid, count=400, seed=1):
        settled = all(pa.settled)
        unsettled["mutants"] += not settled
        for pairs in range(1 << pa.space.size ** 2):
            want = _outcome(section_set_by_members, pa, pairs)
            assert _outcome(ideal_section_set, pa, pairs) == want, (pa, pairs)
            if not settled:
                unsettled[want[0].__name__ if isinstance(want, tuple) else "returned"] += 1
    # the fallback is reached, and on both of its outcomes
    assert unsettled["mutants"] == 119
    assert unsettled["AxiomViolation"] and unsettled["returned"], unsettled

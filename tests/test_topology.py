from __future__ import annotations

import itertools
import random
import re

import pytest

import oracles
import references
from pactop import (
    EqRel,
    FinTop,
    SeparationFlags,
    all_topologies,
    borel_algebra,
    cyclic,
    discrete,
    homeomorphisms,
    induced,
    is_borel,
    is_continuous,
    is_homeomorphism,
    is_meager_in,
    is_open,
    is_open_map,
    make_topology,
    minimal_neighborhoods,
    product,
    product_with_discrete,
    quotient,
    separation,
    subspace,
    transform_identities_report,
)
from pactop.errors import InvalidSubset, LimitExceeded
from pactop.topology import iter_bits, mask_of, topology_with_opens

SIERPINSKI = FinTop(2, (0, 0b10, 0b11))
# -1, the bound 1 << 2 of a set of the two-point carrier, and values
# that are no int, each with the name a message gives it: an int in hex
NOT_SETS_OF_TWO_POINTS = [
    (-1, "-0x1"), (0b100, "0x4"), (True, "True"), (1.0, "1.0"), (100.0, "100.0"),
    ("0", "'0'"),
]


def indiscrete(size):
    """The space whose only open sets are empty and the whole carrier."""
    return FinTop.from_neighborhoods([(1 << size) - 1] * size)


def both_point_spaces():
    return [t for t in all_topologies(2)]


def built_spaces():
    """Spaces made by the constructions, each from neighborhoods."""
    square = product(SIERPINSKI, SIERPINSKI)
    return [
        discrete(4),
        indiscrete(3),
        square,
        product_with_discrete(SIERPINSKI, 2),
        subspace(square, 0b1110),
        quotient(product(SIERPINSKI, indiscrete(2)), EqRel(4, (0, 1, 1, 2))),
        make_topology(4, [0b0011, 0b0110, 0b1000]),
    ]


def small_spaces():
    out = []
    for size in (0, 1, 2, 3):
        if size == 0:
            out.append(FinTop(0, (0,)))
        else:
            out.extend(all_topologies(size))
    return out + built_spaces()


def test_fintop_normalizes_and_requires_bounds():
    t = FinTop(2, (0b11, 0, 0b10, 0b10))
    assert t.opens == (0, 0b10, 0b11)
    with pytest.raises(ValueError):
        FinTop(2, (0, 0b100, 0b11))
    with pytest.raises(ValueError):
        FinTop(2, (0b10, 0b11))
    # a float past the carrier used to fail while its hex was formatted,
    # and True to pass as the set {0}, even next to 1
    for u, name in NOT_SETS_OF_TWO_POINTS:
        for family in ((0, u, 0b11), (0, 1, u, 0b11)):
            with pytest.raises(ValueError) as caught:
                FinTop(2, family)
            assert type(caught.value) is ValueError
            assert str(caught.value) == f"member {name} outside the carrier"


def test_counts_of_labeled_topologies():
    assert len(all_topologies(1)) == 1
    assert len(all_topologies(2)) == 4
    assert len(all_topologies(3)) == 29


def test_all_topologies_members_are_topologies():
    for t in small_spaces():
        assert topology_with_opens(t.size, t.opens) == t


def test_minimal_neighborhoods_match_definition():
    for t in small_spaces():
        nbrs = minimal_neighborhoods(t)
        for x in t.points():
            acc = t.full
            for u in t.opens:
                if (u >> x) & 1:
                    acc &= u
            assert nbrs[x] == acc
        # the opens are exactly the sets holding each member's neighborhood
        assert t.opens == tuple(
            s for s in range(1 << t.size)
            if all(nbrs[x] & ~s == 0 for x in iter_bits(s))
        )


def test_is_open_against_open_sets():
    for t in small_spaces():
        fam = set(t.opens)
        for a in range(1 << t.size):
            assert is_open(t, a) == (a in fam)


def test_subset_arguments_validated():
    with pytest.raises(InvalidSubset):
        is_open(SIERPINSKI, 0b100)
    with pytest.raises(InvalidSubset):
        is_meager_in(SIERPINSKI, 0b01, 0b100)
    with pytest.raises(InvalidSubset):
        is_meager_in(SIERPINSKI, 0b11, 0b01)
    # a negative source set used to fail with a bare IndexError, and a
    # negative target set to read as a plain "not a homeomorphism"
    ident = (0, 1, 2)
    for s, d in ((-1, 0b111), (0b111, -1), (0b1000, 0b111), (0b111, 0b1000)):
        with pytest.raises(InvalidSubset):
            is_homeomorphism(ident, discrete(3), s, discrete(3), d)
    # each set argument names the refused set and keeps it as the witness;
    # True used to read as {0}, and 100.0 to fail while its hex was formatted
    t = SIERPINSKI
    for mask, name in NOT_SETS_OF_TWO_POINTS:
        for call, message, witness in (
            (lambda: is_open(t, mask), f"set {name} is not within the point range",
             (mask,)),
            (lambda: is_borel(t, mask), f"set {name} is not within the point range",
             (mask,)),
            (lambda: subspace(t, mask),
             f"subspace carrier {name} is not within the point range", (mask,)),
            (lambda: is_meager_in(t, 0, mask),
             f"subspace {name} is not within the point range", (mask,)),
            (lambda: is_meager_in(t, mask, 0b11),
             f"set {name} is not contained in the subspace", (mask, 0b11)),
            (lambda: is_homeomorphism((0, 1), t, mask, t, 0b11),
             f"source set {name} is not within the point range", (mask,)),
            (lambda: is_homeomorphism((0, 1), t, 0b11, t, mask),
             f"target set {name} is not within the point range", (mask,)),
            (lambda: make_topology(2, [mask]),
             f"generator {name} not within the point range", (mask,)),
        ):
            with pytest.raises(InvalidSubset) as caught:
                call()
            assert (str(caught.value), caught.value.witness) == (message, witness)


@pytest.mark.parametrize("f, s", [((0,), 0b111), ({0: 0}, 0b11), ((0, 1), 0b101)])
def test_homeomorphism_refuses_a_map_that_leaves_a_point_unmapped(f, s):
    # like is_continuous and is_open_map refuse a map of the wrong
    # length; these raised a bare IndexError or KeyError
    with pytest.raises(ValueError) as caught:
        is_homeomorphism(f, discrete(3), s, discrete(3), s)
    assert type(caught.value) is ValueError
    assert str(caught.value) == "map leaves a point of the source set unmapped"
    # a map defined on s alone is enough
    assert is_homeomorphism({0: 0, 2: 2}, discrete(3), 0b101, discrete(3), 0b101)


@pytest.mark.parametrize("f", [(0, 5), (0, -1), (0, 1.0), (0, True), 5, None],
                         ids=lambda f: repr(f[1]) if isinstance(f, tuple) else f"map {f!r}")
def test_map_values_must_be_points_of_the_target(f):
    # 5 raised a bare IndexError, -1 a negative shift count, 1.0 a bare
    # TypeError, an open-map check named the image set 0x20, and True
    # passed as point 1; a map with no len() or no [] raised a bare
    # TypeError
    d = discrete(2)
    if isinstance(f, tuple):
        message = f"map sends point 1 to {f[1]!r}, not a point of the target"
        homeomorphism_message = message
    else:
        message = "map length does not match the source carrier"
        homeomorphism_message = "map leaves a point of the source set unmapped"
    for call, expected in [
        (lambda: is_continuous(f, d, d), message),
        (lambda: is_open_map(f, d, d), message),
        (lambda: is_homeomorphism(f, d, 0b11, d, 0b11), homeomorphism_message),
    ]:
        with pytest.raises(ValueError) as caught:
            call()
        assert type(caught.value) is ValueError
        assert str(caught.value) == expected


def test_meager_against_oracle():
    for t in small_spaces():
        for s in range(1 << t.size):
            for a in range(1 << t.size):
                if a & ~s:
                    continue
                assert is_meager_in(t, a, s) == oracles.meager_in_oracle(
                    t.size, t.opens, a, s
                )


def test_meager_degenerate_conventions():
    # empty set is meager in the empty subspace and in any subspace
    assert is_meager_in(SIERPINSKI, 0, 0)
    assert is_meager_in(SIERPINSKI, 0, 0b11)
    # a discrete subspace has no nonempty meager subsets
    d = discrete(3)
    for s in range(1, 8):
        for a in range(1, 8):
            if a & ~s == 0:
                assert not is_meager_in(d, a, s)
    # the closed point of the two-point connected space is nowhere dense
    assert is_meager_in(SIERPINSKI, 0b01, 0b11)
    assert not is_meager_in(SIERPINSKI, 0b10, 0b11)


def test_separation_flags():
    assert separation(discrete(3)) == SeparationFlags(True, True, True)
    assert separation(indiscrete(2)) == SeparationFlags(False, False, False)
    assert separation(SIERPINSKI) == SeparationFlags(True, False, False)
    assert separation(indiscrete(1)) == SeparationFlags(True, True, True)


def test_separation_matches_the_pairwise_reference():
    # every topology on at most 4 points: 390, reaching each flag
    # combination a finite space has
    seen: dict = {}
    for size in range(5):
        for t in all_topologies(size):
            flags = separation(t)
            assert flags == references.separation(t), t
            seen[flags] = seen.get(flags, 0) + 1
    assert seen == {
        SeparationFlags(True, True, True): 5,
        SeparationFlags(True, False, False): 238,
        SeparationFlags(False, False, False): 147,
    }


def test_separation_t2_implies_t1_implies_t0():
    for t in small_spaces():
        flags = separation(t)
        if flags.t2:
            assert flags.t1
        if flags.t1:
            assert flags.t0


def test_subspace_traces():
    for t in small_spaces():
        for s in range(1 << t.size):
            sub = subspace(t, s)
            points = list(iter_bits(s))
            traces = oracles.subspace_opens_oracle(t.opens, s)
            reindexed = {
                mask_of(points.index(x) for x in iter_bits(u)) for u in traces
            }
            assert set(sub.opens) == reindexed


def test_product_with_discrete_is_slicewise():
    t = SIERPINSKI
    p = product_with_discrete(t, 3)
    assert p.size == 6
    assert len(p.opens) == len(t.opens) ** 3
    for u in p.opens:
        for j in range(3):
            slice_mask = (u >> (j * t.size)) & t.full
            assert slice_mask in set(t.opens)


def test_product_against_rectangle_oracle():
    spaces = [t for t in all_topologies(2)]
    for a in spaces:
        for b in spaces:
            p = product(a, b)
            expected = oracles.product_opens_oracle(
                a.size, a.opens, b.size, b.opens
            )
            assert set(p.opens) == expected


@pytest.mark.parametrize("call, message", [
    (lambda: product_with_discrete(SIERPINSKI, 0),
     "the discrete factor needs at least one point"),
    (lambda: quotient(SIERPINSKI, EqRel(3, (0, 0, 1))),
     "relation carrier does not match the space"),
], ids=["empty discrete factor", "relation of another size"])
def test_constructions_refuse_inputs_of_no_size(call, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert type(caught.value) is ValueError
    assert str(caught.value) == message


def test_quotient_against_oracle():
    for t in small_spaces():
        if t.size == 0:
            continue
        rel = EqRel(t.size, tuple(x % 2 for x in t.points()))
        q = quotient(t, rel)
        assert set(q.opens) == oracles.quotient_opens_oracle(
            t.size, t.opens, rel.class_id
        )


def test_quotient_by_identity_relation():
    for t in small_spaces():
        rel = EqRel(t.size, tuple(range(t.size)))
        q = quotient(t, rel)
        assert q == t


def test_borel_against_brute_closure():
    for t in small_spaces():
        fam = borel_algebra(t)
        expected = oracles.borel_oracle(t.size, t.opens)
        assert fam == tuple(sorted(expected))
        for a in range(1 << t.size):
            assert is_borel(t, a) == (a in expected)


def test_borel_atoms_partition_blocks():
    for t in small_spaces():
        atoms = t.atoms
        assert sum(atoms) == t.full
        joined = 0
        for a in atoms:
            assert a
            assert joined & a == 0
            joined |= a


def test_continuity_and_openness_of_maps():
    s = SIERPINSKI
    d = discrete(2)
    ident = [0, 1]
    swap = [1, 0]
    to_open = [1, 1]
    to_closed = [0, 0]
    assert is_continuous(ident, s, s)
    assert is_open_map(ident, s, s)
    assert is_continuous(swap, d, d)
    # swapping the open and closed point is not continuous on its own
    assert not is_continuous(swap, s, s)
    # collapsing onto the open point keeps opens open; onto the closed
    # point it does not
    assert is_continuous(to_open, s, s)
    assert is_open_map(to_open, s, s)
    assert is_continuous(to_closed, s, s)
    assert not is_open_map(to_closed, s, s)
    # identity from discrete refines any topology, open only if equal
    assert is_continuous(ident, d, s)
    assert not is_open_map(ident, d, s)
    # every map between small spaces, against the definitions on opens
    spaces = both_point_spaces() + built_spaces()
    for src in spaces:
        src_opens = set(src.opens)
        for dst in spaces:
            dst_opens = set(dst.opens)
            for f in itertools.product(range(dst.size), repeat=src.size):
                assert is_continuous(f, src, dst) == all(
                    mask_of(x for x in src.points() if (u >> f[x]) & 1) in src_opens
                    for u in dst_opens
                )
                assert is_open_map(f, src, dst) == all(
                    mask_of(f[x] for x in iter_bits(u)) in dst_opens for u in src_opens
                )


def test_homeomorphism_on_ambient_labels_matches_reindexed_subspaces():
    # every bijection between equal-size subsets of two topologies on at
    # most 3 points, against continuity and openness on the subspaces
    spaces = [t for size in range(4) for t in all_topologies(size)]
    subs = {(t, s): subspace(t, s) for t in spaces for s in range(1 << t.size)}
    checked = failed = 0
    for src in spaces:
        for dst in spaces:
            for s in range(1 << src.size):
                for d in range(1 << dst.size):
                    if s.bit_count() != d.bit_count():
                        continue
                    pos = {p: i for i, p in enumerate(iter_bits(d))}
                    for image in itertools.permutations(iter_bits(d)):
                        f = [-1] * src.size
                        for x, y in zip(iter_bits(s), image):
                            f[x] = y
                        g = [pos[y] for y in image]
                        expected = is_continuous(g, subs[src, s], subs[dst, d]) and (
                            is_open_map(g, subs[src, s], subs[dst, d]))
                        assert is_homeomorphism(f, src, s, dst, d) == expected, (
                            src, s, dst, d, image)
                        checked += 1
                        failed += not expected
    assert checked > failed > 0
    # a map that is not a bijection onto d is none, open and continuous or not
    assert not is_homeomorphism([0, 0], indiscrete(2), 0b11, indiscrete(1), 0b1)
    assert not is_homeomorphism([1, 0], discrete(2), 0b11, discrete(2), 0b01)


def test_make_topology_closes_generators():
    t = make_topology(3, [0b011, 0b110])
    assert set(t.opens) == {0, 0b010, 0b011, 0b110, 0b111}
    assert make_topology(3, []) == indiscrete(3)
    idem = make_topology(t.size, t.opens)
    assert idem == t


def test_homeomorphisms_against_oracle():
    for t in small_spaces():
        assert sorted(homeomorphisms(t)) == sorted(
            oracles.homeomorphisms_oracle(t.size, t.opens)
        )


def oracle_families():
    """All 70 families on at most 3 points that hold the empty set and
    the carrier, then 2,000 seeded ones on 4 points."""
    rng = random.Random(20)
    for size in range(4):
        full = (1 << size) - 1
        middle = range(1, full)
        for pick in range(1 << len(middle)):
            yield size, {0, full} | {u for i, u in enumerate(middle) if pick >> i & 1}
    for _ in range(2000):
        yield 4, {0, 0b1111} | {u for u in range(1, 0b1111) if rng.random() < 0.5}


def test_topology_with_opens_against_oracle():
    counts = [0, 0]
    for size, fam in oracle_families():
        verdict = oracles.is_topology_oracle(size, fam)
        try:
            t = topology_with_opens(size, fam)
        except ValueError as exc:
            # a member and a set whose union is no member
            u, n = (int(w, 16) for w in re.fullmatch(
                r"union of (0x[0-9a-f]+) and (0x[0-9a-f]+) missing", str(exc)).groups())
            assert u in fam and u | n not in fam, (size, fam, exc)
            assert not verdict, (size, fam)
        else:
            assert verdict and t == FinTop(size, fam), (size, fam)
        counts[verdict] += 1
    assert counts == [1987, 83]  # 29 topologies on 3 points, 48 sampled on 4


def test_topology_with_opens_reasons():
    assert topology_with_opens(2, [0, 0b01, 0b10, 0b11]) == discrete(2)
    with pytest.raises(ValueError, match="^missing the empty set$"):
        topology_with_opens(2, [0b11])
    with pytest.raises(ValueError, match="^missing the full carrier$"):
        topology_with_opens(2, [0, 0b01])
    with pytest.raises(ValueError, match="^member 0x4 outside the carrier$"):
        topology_with_opens(2, [0, 0b100, 0b11])
    with pytest.raises(ValueError, match="^union of 0x1 and 0x2 missing$"):
        topology_with_opens(3, [0, 0b001, 0b010, 0b111])


@pytest.mark.parametrize("call", [
    lambda: FinTop(-1, [0]),
    lambda: all_topologies(-1),
    lambda: make_topology(-1, []),
    lambda: topology_with_opens(-1, [0]),
    lambda: discrete(-1),
], ids=["FinTop", "all_topologies", "make_topology", "topology_with_opens", "discrete"])
def test_negative_sizes_are_refused(call):
    with pytest.raises(ValueError, match="^size must be nonnegative$"):
        call()


def test_size_limits_name_the_limit_and_size():
    with pytest.raises(LimitExceeded) as exc:
        discrete(21).opens
    assert (exc.value.limit, exc.value.size) == ("open sets", 2 ** 21)
    assert "2,097,152 open sets" in str(exc.value)
    with pytest.raises(LimitExceeded) as exc:
        borel_algebra(discrete(17))
    assert (exc.value.limit, exc.value.size) == ("Borel atoms", 17)
    with pytest.raises(LimitExceeded) as exc:
        all_topologies(5)
    assert exc.value.size == 5
    for order in (25, 64):  # 2**64 - 1 group parts overflow a range's len()
        pa = induced(cyclic(order), discrete(1), [(0,)] * order, 1)
        with pytest.raises(LimitExceeded) as exc:
            transform_identities_report(pa)
        assert exc.value.limit == "transform combinations"
        assert exc.value.size == 2 * (2 ** order - 1)

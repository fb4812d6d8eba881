"""The coset-space builder and property sweeps on it.

``coset_rows`` builds a group's action on a union of its coset spaces.
Each sweep runs on C2, C3, C4, Klein four, S3, D4 and Q8 (its identity
listed fifth) in turn, and draws one to three subgroups with at most 10
points in all, and a seed for the subsets whose translates generate an
invariant topology and for the carrier; the restriction is the partial
action.  The sweeps add to the fixed ones and replace none, and
``derandomize=True`` keeps each run the same.
"""

from __future__ import annotations

import itertools
import json
import random
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import references
from gspaces import blanked, closure, group_of, klein_four, midsize_groups, symmetric3
from pactop import (
    PartialAction,
    build,
    cli,
    cyclic,
    effros_report,
    induced,
    make_topology,
    normalized_selector,
    orbit_equivalence,
    orbit_homeomorphism_report,
    validate,
)
from pactop.instances import coset_rows
from pactop.reports import Report
from pactop.topology import mask_of

GROUPS = {
    "C2": cyclic(2), "C3": cyclic(3), "C4": cyclic(4), "K4": klein_four(),
    "S3": symmetric3(),
    **{name: group_of(elements, product)
       for name, elements, product, _ in midsize_groups() if name in ("D4", "Q8")},
}


def subgroups(group):
    """Every subgroup of ``group``, as sorted element tuples; each group
    here has only subgroups generated by two elements."""
    def mul(a, b):
        return group.mul[a][b]
    return sorted({
        tuple(closure([group.identity, a, b], mul))
        for a, b in itertools.combinations_with_replacement(group.elements(), 2)
    })


SUBGROUPS = {name: subgroups(group) for name, group in GROUPS.items()}


@st.composite
def gspaces(draw, name):
    """(subgroups, space, rows, carrier, partial action) for the group
    ``GROUPS[name]``."""
    group, chosen, size = GROUPS[name], [], 0
    for _ in range(draw(st.integers(1, 3))):
        fits = [h for h in SUBGROUPS[name] if size + group.order // len(h) <= 10]
        if not fits:
            break
        chosen.append(draw(st.sampled_from(fits)))
        size += group.order // len(chosen[-1])
    rows = coset_rows(group, chosen)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    translates = []
    for _ in range(rng.randint(1, 3)):
        subset = [y for y in range(size) if rng.random() < 0.3]
        translates += [mask_of(rows[g][y] for y in subset) for g in group.elements()]
    space = make_topology(size, translates)
    carrier = mask_of(y for y in range(size) if rng.random() < 0.7) or 1
    return chosen, space, rows, carrier, induced(group, space, rows, carrier)


def changed(pa, seed):
    """The instance, its blanked copy and two seeded one-entry edits."""
    return [pa, blanked(pa), *references.one_entry_edits([pa], 2, seed)]


# Each property runs on every group in turn, so that Q8, the one group
# whose identity is not element 0, is always drawn.
EACH_GROUP = pytest.mark.parametrize("name", GROUPS)
SWEEP = settings(max_examples=15, deadline=None, derandomize=True)


@pytest.mark.parametrize(
    "sub, message",
    [
        ([1], "subgroup (1,) lacks the identity 0"),
        ([1, 3], "subgroup (1, 3) lacks the identity 0"),
        ([0, 5], "subgroup member 5 is not an element of the group of order 4"),
        ([0, 1], "subgroup (0, 1) is not closed: 1 * 1 = 2 is not in it"),
        *[([0, h], f"subgroup member {h!r} is not an element of the group of order 4")
          for h in (-1, 4, True, 1.0, 100.0, "0")],
    ],
)
def test_coset_rows_refuses_a_non_subgroup(sub, message):
    # [1] used to build the regular action, the coset [1, 3] the space
    # C4/{0, 2}, and [0, 5] raised a bare IndexError
    with pytest.raises(ValueError) as caught:
        coset_rows(cyclic(4), [sub])
    assert type(caught.value) is ValueError
    assert str(caught.value) == message


@EACH_GROUP
@SWEEP
@given(data=st.data())
def test_coset_spaces_are_numbered_by_least_element(name, data):
    # g sends the point of the coset aH to the point of gaH, and each
    # space numbers its cosets in the order of their least elements
    group = GROUPS[name]
    chosen, _, rows, _, _ = data.draw(gspaces(name))
    base = 0
    for sub in chosen:
        cosets = sorted(
            {frozenset(group.mul[a][h] for h in sub) for a in group.elements()}, key=min
        )
        point = {a: base + m for m, c in enumerate(cosets) for a in c}
        for g in group.elements():
            assert rows[g][base:base + len(cosets)] == [
                point[group.mul[g][min(c)]] for c in cosets
            ]
        base += len(cosets)
    assert base == len(rows[0])


@EACH_GROUP
@SWEEP
@given(data=st.data())
def test_validate_never_raises_and_valid_instances_are_the_saturation(name, data):
    _, space, rows, carrier, pa = data.draw(gspaces(name))
    for edit in changed(pa, data.draw(st.integers(0, 255))):
        validate(edit)
    # one entry that is no point or set: the constructor refuses it with
    # a ValueError, or else validate reports on it
    g = data.draw(st.integers(0, pa.group.order - 1))
    value = data.draw(st.sampled_from([True, 1.0, "0"]))
    dom, maps = list(pa.dom), [list(row) for row in pa.maps]
    if data.draw(st.booleans()):
        dom[g] = value
    else:
        maps[g][data.draw(st.integers(0, pa.space.size - 1))] = value
    try:
        edit = PartialAction(pa.group, pa.space, tuple(dom), tuple(map(tuple, maps)))
    except ValueError:
        pass
    else:
        assert isinstance(validate(edit), Report)
    if validate(pa).ok:
        references.check_saturation(space, rows, carrier, build(pa))


@EACH_GROUP
@SWEEP
@given(data=st.data())
def test_relations_match_their_references(name, data):
    pa = data.draw(gspaces(name))[-1]
    seed = data.draw(st.integers(0, 255))
    for edit in changed(pa, seed):
        for check, reference in (
            (attrgetter("lifted_orbits"), references.enveloping_relation),
            (orbit_equivalence, references.orbit_equivalence),
            (normalized_selector,
             references.on_lifted_relation(references.normalized_selector)),
            (orbit_homeomorphism_report,
             references.on_lifted_relation(references.orbit_homeomorphism_report)),
            (effros_report, references.effros_report),
        ):
            expected = references.outcome(reference, edit)
            assert references.outcome(check, edit) == expected, (check, edit)
    # The lift built as a table reads its missing entries element by
    # element, the gluing rows point by point: they name the same entry
    # unless several are missing, as on the blanked copy.
    for edit in [pa, *references.one_entry_edits([pa], 2, seed)]:
        expected = references.outcome(references.lifted_orbits, edit)
        assert references.outcome(attrgetter("lifted_orbits"), edit) == expected, edit


@EACH_GROUP
@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data())
def test_report_ends_in_a_verdict_or_a_named_limit(name, data):
    pa = data.draw(gspaces(name))[-1]
    spec = cli.ActionSpec("", tuple(f"p{x}" for x in pa.space.points()), pa)
    args = cli._build_parser().parse_args(["report", "doc.json"])
    out, reports = cli._run(spec, args)
    text, ok = cli._render(spec.label, "report", out, reports, "json")
    assert text == references.report_json(spec.label, "report", out, reports)
    assert ok or any(
        check.name.startswith("size limit hit") or check.witness
        for rep in reports for _, check in rep.failures()
    ), pa


@EACH_GROUP
@SWEEP
@given(data=st.data())
def test_parse_serialize_round_trip(name, data):
    pa = data.draw(gspaces(name))[-1]
    spec = cli.ActionSpec("t", tuple(f"p{x}" for x in pa.space.points()), pa)
    assert cli.parse(json.dumps(cli.serialize(spec))) == spec

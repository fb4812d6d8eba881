"""The engine's immutable records behave as the frozen dataclasses they
replaced: equality and hashing by fields within one class, the same
repr text, no assignment or deletion, cached tables kept beside the
fields, and the constructors' own checks and messages.  The reference
for equality, hashing and repr is a frozen dataclass with the same
name and fields, built here."""

from __future__ import annotations

import dataclasses
import re

import pytest

from pactop import (
    BorelReport,
    Check,
    EqRel,
    FiniteGroup,
    FinTop,
    Globalization,
    PartialAction,
    Report,
    SelectorMap,
    SeparationFlags,
    build,
    cyclic,
    discrete,
    normalized_selector,
    separation,
    transversal_topology,
)
from pactop.cli import ActionSpec, _Command
from pactop.record import Record


def swap() -> PartialAction:
    """C2 swapping the two points of a discrete space."""
    return PartialAction(cyclic(2), discrete(2), (3, 3), ((0, 1), (1, 0)))


def glob() -> Globalization:
    return build(swap())


# one builder per record class; each call builds a new, equal record
BUILDERS = {
    FinTop: lambda: FinTop(2, [0, 1, 3]),
    SeparationFlags: lambda: separation(FinTop(2, [0, 1, 3])),
    EqRel: lambda: EqRel(3, (5, 5, 2)),
    FiniteGroup: lambda: cyclic(3),
    Check: lambda: Check("c", "fail", (1, 2), "d"),
    Report: lambda: Report("r", (Check("c", "pass"),), (Report("s"),)),
    PartialAction: swap,
    Globalization: glob,
    SelectorMap: lambda: normalized_selector(swap()),
    BorelReport: lambda: transversal_topology(glob(), normalized_selector(swap())),
    ActionSpec: lambda: ActionSpec("t", ("a", "b"), swap()),
    _Command: lambda: _Command("h", {"x", "y"}, (("--f", {"default": "1"}),)),
}
CLASSES = list(BUILDERS)


def fields(record: Record) -> dict:
    return {f: getattr(record, f) for f in record._fields}


def dataclass_of(record: Record):
    """The frozen dataclass ``record`` would have been, same values."""
    cls = dataclasses.make_dataclass(
        type(record).__qualname__, record._fields, frozen=True)
    return cls(**fields(record))


def test_every_record_class_is_covered():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    engine = {c for c in subclasses(Record) if c.__module__.startswith("pactop.")}
    assert engine == set(CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equal_fields_give_equal_records_and_hashes(cls):
    a, b = BUILDERS[cls](), BUILDERS[cls]()
    assert a is not b and type(a) is cls
    assert a == b and not a != b
    reference = dataclass_of(a)
    if cls is _Command:  # a set field: unhashable, as the dataclass was
        for value in (a, reference):
            with pytest.raises(TypeError):
                hash(value)
    else:
        assert hash(a) == hash(b) == hash(reference)
        assert len({a, b}) == 1


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_a_record_of_another_class_is_not_equal(cls):
    a = BUILDERS[cls]()
    twin_cls = type(cls.__name__, (Record,), {"_fields": cls._fields})
    twin = twin_cls.__new__(twin_cls)
    vars(twin).update(fields(a))
    assert a != twin and twin != a
    assert a != dataclass_of(a) and a != tuple(fields(a).values())
    for name in a._fields:  # one field changed: unequal
        changed = cls.__new__(cls)
        vars(changed).update(fields(a), **{name: object()})
        assert a != changed and changed != a


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    a = BUILDERS[cls]()
    before = fields(a)
    for name in (*a._fields, "other"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(a, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(a, name)
    assert fields(a) == before and a == BUILDERS[cls]()


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_repr_is_the_dataclass_repr(cls):
    a = BUILDERS[cls]()
    assert repr(a) == repr(dataclass_of(a))


def test_repr_texts():
    assert repr(FinTop(2, [0, 1, 3])) == "FinTop(size=2, nbrs=(1, 3))"
    assert repr(EqRel(3, (5, 5, 2))) == "EqRel(size=3, class_id=(0, 0, 1))"
    assert repr(SeparationFlags(True, False, False)) == (
        "SeparationFlags(t0=True, t1=False, t2=False)")
    assert repr(Report("r", (Check("c", "pass"),))) == (
        "Report(name='r', checks=(Check(name='c', status='pass', witness=(), "
        "detail=''),), sections=())")
    assert repr(SelectorMap(2, (0, 0))) == "SelectorMap(size=2, image=(0, 0))"
    assert repr(_Command("h", {"x"})) == "_Command(help='h', stages={'x'}, options=())"


@pytest.mark.parametrize("cls", [c for c in CLASSES if c is not FinTop],
                         ids=lambda c: c.__name__)
def test_constructors_take_their_fields_by_keyword(cls):
    a = BUILDERS[cls]()
    assert cls(**fields(a)) == a
    assert cls(*fields(a).values()) == a


def test_constructor_defaults():
    assert fields(Check("c", "pass")) == {
        "name": "c", "status": "pass", "witness": (), "detail": ""}
    assert fields(Report("r")) == {"name": "r", "checks": (), "sections": ()}
    assert _Command("h", set()).options == ()
    assert FinTop(size=2, opens=[0, 1, 3]) == FinTop.from_neighborhoods((1, 3))


def test_cached_tables_are_computed_once_and_kept_beside_the_fields():
    pa, t, rel = swap(), FinTop(3, [0, 1, 3, 7]), EqRel(3, (1, 1, 0))
    cached = ((pa, "orbits"), (pa, "lifted_orbits"), (t, "opens"), (rel, "least"))
    for record, name in cached:
        assert name not in vars(record)
        first = getattr(record, name)
        assert vars(record)[name] is first and getattr(record, name) is first
        # the cached table takes no part in equality, hashing or repr
        fresh = type(record)(**fields(record)) if record is not t else FinTop(3, t.opens)
        assert name not in vars(fresh)
        assert record == fresh and hash(record) == hash(fresh)
        assert repr(record) == repr(fresh)
    assert pa.orbits == (3, 3) and t.opens == (0, 1, 3, 7) and rel.least == (0, 2)
    # the swap's lift glues (0, 0) to (1, 1) and (0, 1) to (1, 0)
    assert pa.lifted_orbits == EqRel(4, (0, 1, 1, 0))


def message(text: str) -> str:
    return "^" + re.escape(text) + "$"


@pytest.mark.parametrize("build, text", [
    (lambda: FinTop(2, [1, 3]), "missing the empty set"),
    (lambda: FinTop(2, [0, 1]), "missing the full carrier"),
    (lambda: FinTop(2, [0, 3, 8]), "member 0x8 outside the carrier"),
    (lambda: FinTop(2, [0, 3, True]), "member True outside the carrier"),
    (lambda: FinTop(-1, [0]), "size must be nonnegative"),
    (lambda: EqRel(2, (0,)), "class_id must have one entry per point"),
    (lambda: EqRel(2, None), "class_id must have one entry per point"),
    (lambda: EqRel(2, (0, True)), "class_id[1] = True is not an int"),
    (lambda: PartialAction(cyclic(2), discrete(2), (3,), ((0, 1), (1, 0))),
     "dom and maps must have one entry per group element"),
    (lambda: PartialAction(cyclic(2), discrete(2), (3, 4), ((0, 1), (1, 0))),
     "dom[1] outside the carrier"),
    (lambda: PartialAction(cyclic(2), discrete(2), (3, 3), ((0, 1), (1,))),
     "maps[1] must have one entry per point"),
    (lambda: PartialAction(cyclic(2), discrete(2), (3, 3), ((0, 1), (1, 2))),
     "maps[1][1] = 2 out of range"),
    (lambda: PartialAction(cyclic(2), discrete(2), (3, 3), ((0, 1), (1, -1.0))),
     "maps[1][1] = -1.0 out of range"),
    (lambda: SelectorMap(2, (0,)), "image must assign a value to every point"),
    pytest.param(lambda: SelectorMap(2, 5), "image must assign a value to every point",
                 id="image-not-a-table"),
    (lambda: SelectorMap(2, (0, 2)), "image[1] = 2 out of range"),
    (lambda: SelectorMap(2, (1, 0)), "not idempotent at 0"),
    (lambda: ActionSpec("t", ("a",), swap()), "1 point names for a carrier of 2 points"),
    (lambda: ActionSpec("t", 5, swap()),
     "point names for a carrier of 2 points are not a table (int)"),
])
def test_constructor_errors(build, text):
    with pytest.raises(ValueError, match=message(text)):
        build()


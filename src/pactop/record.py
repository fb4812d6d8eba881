"""``Record``, the base of the engine's immutable value classes.

A subclass declares its fields once, as annotated class attributes:
``_fields`` is read from the class's own annotations, in order.
Records of one class compare and hash by those fields, print as
``Name(field=value, ...)``, and refuse assignment and deletion.  They
keep a ``__dict__``, so the tables a ``cached`` method derives live
beside the fields and take no part in equality.  A copy is made by
calling the constructor.

``cached`` is ``functools.cached_property`` without its lock: before
Python 3.12 every first read of a table took a per-property ``RLock``,
about 6,900 of them in one pass over the benchmark's family sweep.  On
3.12 and later the two behave alike.

``Record.__init__`` takes the fields by position, then by keyword, and
writes each with ``self._set(name, value)`` in declaration order.
``_set`` is ``object.__setattr__``: CPython then keeps the fields in the
instance's inline value array.  Writing ``self.__dict__`` directly
builds a dict, which halves the construction, but on CPython 3.11 a
loop of field reads ran about four times as slow on it; only ``Check``
and ``Report``, built by the thousand and read a few times each, write
it.  ``Report`` also stores ``ok`` there, computed once (by ``Report`` or
by ``ReportBuilder``); it is not a field, so equality, hashing and the repr ignore it.

A record keeps its own ``__init__`` when it checks its arguments
(``PartialAction``, ``FinTop``, ``EqRel``, ``SelectorMap``,
``ActionSpec``), when a field has a default (``Check``, ``Report``),
or when the sweeps build it in their inner loops: the
generic constructor took about 1.1 us against 0.4 us for a hand-written
one (CPython 3.11).

The standard library's generated classes behave the same, but importing
their module loads ``inspect`` and ``ast``, and each decorated class
compiles its generated methods at import: together more than a third
of the time ``import pactop`` took.
"""

from __future__ import annotations

from operator import attrgetter


class cached:
    """A table derived from a record: computed on first read and kept in
    the instance ``__dict__``, which later reads find before this
    (non-data) descriptor.  A computation that raises stores nothing."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, record, owner=None):
        if record is None:
            return self
        value = record.__dict__[self.name] = self.func(record)
        return value


class Record:
    _set = object.__setattr__

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        name, fields = type(self).__qualname__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields, {len(args)} given")
        for field, value in zip(fields, args):
            self._set(field, value)
        for field in fields[len(args):]:
            if field not in kwargs:
                raise TypeError(f"{name}() missing field {field!r}")
            self._set(field, kwargs.pop(field))
        if kwargs:
            field = next(iter(kwargs))
            if field in fields:
                raise TypeError(f"{name}() got field {field!r} twice")
            raise TypeError(f"{name}() has no field {field!r}")

    def __eq__(self, other):
        if type(other) is type(self):
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

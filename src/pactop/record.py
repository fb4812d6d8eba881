"""``Record``, the base of the engine's immutable value classes.

A subclass names its fields in ``_fields`` and writes them in its own
``__init__``.  Records of one class compare and hash by those fields,
print as ``Name(field=value, ...)``, and refuse assignment and deletion.
They keep a ``__dict__``, so ``functools.cached_property`` tables live
beside the fields and take no part in equality.  A copy is made by
calling the constructor.

``__init__`` writes a field with ``self._set(name, value)``, which is
``object.__setattr__``: CPython then keeps the fields in the instance's
inline value array.  Writing ``self.__dict__`` directly builds a dict,
which halves the construction, but on CPython 3.11 a loop of field
reads ran about four times as slow on it; only ``Check`` and
``Report``, built by the thousand and read a few times each, write it.

The standard library's generated classes behave the same, but importing
their module loads ``inspect`` and ``ast``, and each decorated class
compiles its generated methods at import: together more than a third
of the time ``import pactop`` took.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    _fields: tuple[str, ...] = ()
    _set = object.__setattr__

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._key = attrgetter(*cls._fields)

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

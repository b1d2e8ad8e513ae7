"""The base of the package's immutable value classes.

A subclass names its fields in ``__slots__`` and sets them in its own
``__init__`` with ``_set``.  When some slots hold data derived from the
others, ``_fields`` names the ones that equality, hashing and the repr
read; it defaults to ``__slots__``.  The base gives each subclass:

- equality with instances of the same class, and a hash, on its fields;
- the repr ``Name(field=value, ...)``;
- an ``AttributeError`` on any assignment or deletion after ``__init__``;
- copies and pickles that bypass that refusal.

Hand-written classes cost a fresh process far less than generated ones:
the standard library's generator imports ``inspect`` and compiles each
class's methods with ``exec`` when the module is imported.
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" not in cls.__dict__:
            cls._fields = cls.__slots__
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        """Fill a copied or unpickled instance from (None, {slot: value}),
        the state that the default reduction gives a slotted object."""
        for name, value in state[1].items():
            _set(self, name, value)

"""Base classes for plain value classes: field-wise `==` and a repr over the
names in `_fields`; other attributes (memos) take no part in either."""

from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ()
    _fields: tuple = ()
    __hash__ = None  # mutable, and == is field-wise

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls._fields:
            cls._values = staticmethod(attrgetter(*cls._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({shown})"


class Frozen(Record):
    """A Record that hashes its `_fields` and refuses attribute assignment."""

    __slots__ = ()

    def _init(self, *values):
        """Set the slots, in `__slots__` order; only `__init__` calls this."""
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __hash__(self):
        return hash(self._values(self))

    def __reduce__(self):  # copy and pickle rebuild through __init__, not by assignment
        return self.__class__, tuple(getattr(self, f) for f in self._fields)

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

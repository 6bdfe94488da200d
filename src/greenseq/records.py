"""Bases of the package's slotted record classes.

Plain immutable values are `typing.NamedTuple`s. Records that validate their
fields, keep lookup tables, or leave fields out of `==` are classes with
`__slots__` and their own `__init__`, built on these bases. Such a record
names its constructor fields once, in `_fields`, and lists `_compared` only
when `==` reads fewer of them. `Record` derives `__repr__` from `_fields` and
`__eq__` and `__hash__` from `_compared`; the hash is that of the tuple of the
compared values. A frozen record sets its slots in order with `_init`, through
the slot descriptors its class collects once, and rejects any later
assignment; a mutable one assigns its fields as usual and sets
`__hash__ = None`.
"""

import operator


class Record:
    """`repr`, `==` and `hash` from the field names a subclass lists."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _compared: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "__slots__" in cls.__dict__:  # else the base's setters serve
            # the `__set__` of each slot the class declares, in order
            cls._setters = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)
        if "_fields" not in cls.__dict__:
            return
        if "_compared" not in cls.__dict__:
            cls._compared = cls._fields
        get = operator.attrgetter(*cls._compared)
        # the compared values as a tuple, also for a single field
        cls._key = staticmethod(get if len(cls._compared) > 1 else lambda record: (get(record),))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({shown})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return self is other or key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))


class FrozenRecord(Record):
    """A record whose fields cannot be assigned or deleted once built."""

    __slots__ = ()

    def _init(self, *values) -> None:
        """Set the slots, in `__slots__` order, to `values`."""
        for setter, value in zip(self._setters, values):
            setter(self, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

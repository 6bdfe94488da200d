"""Bases of the package's slotted record classes.

Plain immutable values are `typing.NamedTuple`s. Records that validate their
fields, keep lookup tables, or leave fields out of `==` are classes with
`__slots__` and their own `__init__`, `__eq__` and `__hash__`, built on these
bases. A frozen record sets its fields with `object.__setattr__` in
`__init__` and rejects any later assignment.
"""


class Record:
    """A repr that names the fields listed in `_repr_fields`."""

    __slots__ = ()
    _repr_fields: tuple[str, ...] = ()

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._repr_fields)
        return f"{type(self).__name__}({shown})"


class FrozenRecord(Record):
    """A record whose fields cannot be assigned or deleted once built."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

"""Immutable records: the common base of the package's value classes.

A record names its fields in the class attribute ``_fields`` and keeps
them in ``__slots__``; its own ``__init__`` sets each one once, through
``object.__setattr__``, and any later assignment or deletion raises
AttributeError.  ``==`` and ``hash`` compare the fields when both sides
have the same class, and ``repr`` lists them.  No method is generated
when a record class is defined, so defining one costs only its class
body, and no module that would generate them is imported.
"""

from __future__ import annotations


class Record:
    """Base of an immutable value class; see the module docstring."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields
        )
        return f"{type(self).__name__}({fields})"

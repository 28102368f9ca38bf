"""Immutable records: the common base of the package's value classes.

A record names its fields once, in the class attribute ``_fields``, and
keeps them in ``__slots__``.  ``Record.__init__`` binds its positional
and keyword arguments to those fields as a function with that parameter
list would: the last ``len(_defaults)`` fields take the values of the
class attribute ``_defaults`` when omitted, and too many positional
arguments, an unknown keyword, a field given twice or a missing field
raise TypeError.  Each field is set once, through ``object.__setattr__``;
any later assignment or deletion raises AttributeError.  A record that
checks its input does so in its own ``__init__`` and then calls
``super().__init__``.  ``==`` and ``hash`` compare the fields when both
sides have the same class, and ``repr`` lists them.  No method is
generated when a record class is defined, so defining one costs only its
class body, and no module that would generate them is imported.
"""

from __future__ import annotations

_put = object.__setattr__


class Record:
    """Base of an immutable value class; see the module docstring."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    # values of the last len(_defaults) fields when they are omitted
    _defaults: tuple = ()

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if not kwargs and len(args) == len(fields):
            for name, value in zip(fields, args):
                _put(self, name, value)
            return
        cls = type(self).__name__
        if len(args) > len(fields):
            raise TypeError(
                f"{cls}() takes {len(fields)} arguments, {len(args)} given"
            )
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields:
                raise TypeError(f"{cls}() got an unexpected keyword argument {name!r}")
            if name in values:
                raise TypeError(f"{cls}() got multiple values for argument {name!r}")
            values[name] = value
        first_default = len(fields) - len(self._defaults)
        for i, name in enumerate(fields):
            if name in values:
                _put(self, name, values[name])
            elif i >= first_default:
                _put(self, name, self._defaults[i - first_default])
            else:
                raise TypeError(f"{cls}() missing required argument {name!r}")

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

"""The base of the records that check their fields when constructed.

The package's plain records are named tuples. A record that validates, or
that defines ``len()``, is a ``Record``: read-only ``__slots__`` whose
subclass ``__init__`` checks its arguments once and passes them, in slot
order, to ``Record.__init__``.
"""

from __future__ import annotations


class Record:
    """Read-only slots, compared and hashed by value within one class, shown by field."""

    __slots__ = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a read-only record")

    def __delattr__(self, name) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a read-only record")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through the checking constructor, not setattr.
        return type(self), self._values()

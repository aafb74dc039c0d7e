"""The base of the package's immutable value classes.

A value is its fields.  A subclass names them in ``_fields``, in the order
of its constructor's parameters, and sets them in its ``__init__``, by
``_set`` or by ``object.__setattr__``.  Two values are equal when they
are of one class and their field tuples are equal, a value hashes as its
field tuple, its repr lists the fields by name, and assigning or deleting
an attribute raises AttributeError.  A subclass holds its fields in
``__slots__`` unless it has a ``cached_property``, which writes to the
instance ``__dict__`` directly.  Copies and pickles are rebuilt from the
fields by the constructor.
"""

from __future__ import annotations


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values):
        """Set the fields, in ``_fields`` order, on a new instance."""
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._key()

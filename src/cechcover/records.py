"""Base classes for the package's value types.

A value type names its fields in the class attribute ``_fields`` and sets
them in its own ``__init__``.  ``Record`` compares and prints instances
field by field and leaves them unhashable, like a mutable dataclass;
``Frozen`` also hashes them field by field and refuses attribute
assignment, like a frozen dataclass.  A frozen ``__init__`` writes its
fields into ``self.__dict__``, which is also where ``cached_property``
stores its values, so both work under the guard.

Both are plain classes: defining a subclass generates and executes no
code, which keeps ``import cechcover.cli`` cheap (the ``dataclasses``
module alone imports ``inspect``, ``ast``, ``dis`` and ``tokenize``).
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """Field-wise ``==`` and ``repr`` over ``_fields``; not hashable."""

    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls._fields:
            cls._values = staticmethod(attrgetter(*cls._fields))

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"


class Frozen(Record):
    """A Record that is hashed field-wise and read-only after ``__init__``."""

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

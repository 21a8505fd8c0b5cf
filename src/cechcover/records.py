"""The base class of the package's value types.

A value type declares its fields once, in ``_fields``, and the default of
any field that has one in ``_defaults``::

    class DegreeCheck(Frozen):
        _fields = ("degree", "ok", "witness")
        _defaults = {"witness": None}

The constructor fills the fields in order from the positional arguments,
then the keyword arguments, then ``_defaults``; a surplus argument, an
unknown field, a field given twice and a field left without a value each
raise TypeError.  A type that checks its arguments or derives a field
keeps its own ``__init__``, which calls ``super().__init__`` with the
fields.  ``_replace(**changes)`` builds a changed copy through the type's
constructor, which must take every field by name, so its checks run again.

Instances compare, hash and print field by field and refuse attribute
assignment and deletion, like a frozen dataclass.  The fields live in
``self.__dict__``, where ``cached_property`` also stores its values, so
both work under the guard.  Defining a subclass generates and executes no
code, which keeps ``import cechcover.cli`` cheap (the ``dataclasses``
module alone imports ``inspect``, ``ast``, ``dis`` and ``tokenize``).
"""

from __future__ import annotations

from operator import attrgetter


class Frozen:
    """Fields from ``_fields``; field-wise ``==``, ``hash`` and ``repr``;
    read-only after construction."""

    _fields: tuple = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._values = staticmethod(attrgetter(*cls._fields) if cls._fields else lambda _: ())

    def __init__(self, *args, **kwargs):
        fields, name = self._fields, type(self).__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name} takes {len(fields)} fields, got {len(args)} arguments")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key in values:
                raise TypeError(f"{name} got field {key!r} twice")
            if key not in fields:
                raise TypeError(f"{name} has no field {key!r}")
            values[key] = value
        if len(values) < len(fields):
            for key in fields:
                if key not in values:
                    if key not in self._defaults:
                        raise TypeError(f"{name} needs field {key!r}")
                    values[key] = self._defaults[key]
        self.__dict__.update(values)

    def _replace(self, **changes):
        """A copy with ``changes`` applied, built by the constructor."""
        return type(self)(**{**{key: getattr(self, key) for key in self._fields}, **changes})

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

"""Frozen records: the small immutable value classes of the package.

A subclass names its fields in ``__slots__`` and the defaults of trailing
fields in ``_defaults``.  A record is built from positional or keyword
arguments, equals only a record of the same type with equal fields, hashes
as the tuple of its fields, refuses assignment, and prints as
``Name(field=value, ...)``.  The classes are written out, not generated by
a decorator, so that a cold ``tmf3`` process imports no class generator and
no ``inspect``: that import cost more than most commands' own work.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    _defaults = {}

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)

    @classmethod
    def _bind(cls, args, kwargs):
        """All field values, from a call with keywords or with defaults."""
        fields = cls.__slots__
        rest = fields[len(args):]
        if len(args) > len(fields) or not kwargs.keys() <= set(rest):
            raise TypeError(f"{cls.__name__}() takes the fields {fields}, "
                            f"got {len(args)} positional and {sorted(kwargs)}")
        values = {**cls._defaults, **kwargs}
        try:
            return args + tuple(values[name] for name in rest)
        except KeyError as missing:
            raise TypeError(f"{cls.__name__}() missing field "
                            f"{missing.args[0]!r}") from None

    def _astuple(self):
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} "
                             f"of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} "
                             f"of a frozen {type(self).__name__}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

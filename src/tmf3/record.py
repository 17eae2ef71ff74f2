"""Frozen records: the small immutable value classes of the package.

``record(name, fields, defaults)`` is a ``collections.namedtuple`` whose
instances equal only instances of their own type: ``Num(2)`` equals neither
``(2,)`` nor ``Ident(2)``, in either operand order.  A record is built from
positional or keyword arguments, hashes as the tuple of its fields, refuses
assignment, and prints as ``Name(field=value, ...)``.  ``collections`` is
loaded before the package runs; a class generator such as ``dataclasses``
would import ``inspect``, which cost a cold ``tmf3`` process more than most
commands' own work.
"""

from __future__ import annotations

from collections import namedtuple


def record(name, fields, defaults=()):
    """A namedtuple class whose instances equal only their own type."""
    cls = namedtuple(name, fields, defaults=defaults)
    cls.__eq__ = lambda self, other: (type(other) is type(self)
                                      and tuple.__eq__(self, other))
    cls.__ne__ = lambda self, other: not cls.__eq__(self, other)
    cls.__hash__ = tuple.__hash__
    return cls

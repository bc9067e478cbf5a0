"""Frozen value records, the base of the package's result types.

A record's fields are its __init__ parameters, in order; the subclass's
__init__ checks them and stores them in self.__dict__.  The base gives a
Name(field=value, ...) repr, equality within one class, the hash of the
field tuple, no assignment or deletion, and __match_args__.  It is plain
Python on purpose: the standard library's generated record classes import
inspect and ast, which cost more than most one-shot commands.
"""

from __future__ import annotations


class Record:
    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls.__match_args__ = code.co_varnames[1 : code.co_argcount]

    def _astuple(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self.__match_args__))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

"""Immutable records: the base class of fuzzmin's value types (expression
nodes, statements, feature sets, reports, graph stats, trace steps and
generator parameters).

A subclass lists its fields as annotations in its body, and a field's
default as the class attribute, as in a dataclass body:

    class BisimReport(Record):
        ok: bool
        condition: int | None = None

An instance takes its fields positionally or by keyword and keeps them in
its `__dict__`, in field order.  It behaves as a frozen dataclass does:
assignment and deletion raise `AttributeError`; it equals only an instance
of the same class with equal fields, is hashed on its fields, and its repr
names each field.  A class may define `__post_init__(self)` to check its
fields once they are set.

Records are not dataclasses because `@dataclass` generates each method
from source text and runs it through `exec` when the class is created, at
every import: for fuzzmin's 27 record classes that was about 160 `exec`
calls plus the `dataclasses` and `inspect` imports, most of the start-up
time of `fuzzmin.cli`.  `Record` builds its methods once, here, and reads a
subclass's fields in `__init_subclass__`.
"""

from __future__ import annotations

_set = object.__setattr__  # past `Record.__setattr__`


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()  # per class, in declaration order
    _defaults: dict = {}  # per class, {field: default}
    __post_init__ = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__dict__.get("__annotations__", ()))
        cls._fields = cls._fields + own
        cls._defaults = {**cls._defaults,
                         **{name: cls.__dict__[name] for name in own if name in cls.__dict__}}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        # one attribute at a time, as a dataclass does: a new dict, or any
        # read of `self.__dict__`, would make each later field read slower
        for name, value in zip(fields, args):
            _set(self, name, value)
        if self.__post_init__ is not None:
            self.__post_init__()

    def _bind(self, args: tuple, kwargs: dict) -> list:
        """The field values, in order, from a call that names a field,
        leaves one to its default or passes too many; TypeError on a bad
        call."""
        kind, fields = type(self).__name__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{kind} takes {len(fields)} fields but {len(args)} were given")
        for name in kwargs:
            if name not in fields:
                raise TypeError(f"{kind} has no field {name!r}")
            if name in fields[:len(args)]:
                raise TypeError(f"{kind} got field {name!r} twice")
        values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
        missing = [name for name in fields if name not in values]
        if missing:
            raise TypeError(f"{kind} is missing fields {missing}")
        return [values[name] for name in fields]

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

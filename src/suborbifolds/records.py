"""Record classes: named, typed fields with the methods a record needs.

``record`` gives a class with annotated fields the behaviour
``dataclasses.dataclass`` gave the package's value classes: an
``__init__`` taking the fields in declaration order, with their
defaults, that then calls ``__post_init__`` when the class has one;
equality between instances of one class on all their fields; a hash of
the tuple of the fields; the repr ``Name(field=value!r, ...)``; and
fields that cannot be set or deleted (``FrozenInstanceError``). Every
record is frozen; a default is one value shared by every instance, and a
record with a list or dict field is unhashable.

The methods are functions shared by every record, which read the class's
field list; building a class generates no code, so importing the package
costs no ``exec``. A class keeps any of ``__init__``, ``__eq__``,
``__hash__`` and ``__repr__`` it defines itself, as with ``dataclass``.
Records built in hot loops define their own ``__init__``, which is
compiled with their module and stores each field with ``set_field``;
that is faster than the shared ``__init__``, which binds arguments by
name. ``functools.cached_property`` writes to the instance ``__dict__``,
past ``__setattr__``, so it works on frozen records.
"""
from __future__ import annotations

from operator import attrgetter

_MISSING = object()

# Stores a field from a record's own __init__, past a frozen record's
# __setattr__. Writing to the instance __dict__ is quicker once, but it
# moves CPython 3.11's inline attribute values into a dict, and every later
# read of a field is then about twice as slow. The shared __init__ takes
# that trade: it serves records that are built and read a few times per
# call, and one dict update keeps it as fast as dataclass's generated code.
set_field = object.__setattr__


class FrozenInstanceError(AttributeError):
    """A field of a frozen record was set or deleted."""


class _Spec:
    """A record class's fields: their names in order, the defaults of those
    that have one, whether the class has a ``__post_init__``, and a function
    from an instance to the tuple of its fields."""

    __slots__ = ("names", "defaults", "post_init", "key")

    def __init__(self, names, defaults, post_init):
        self.names = names
        self.defaults = defaults
        self.post_init = post_init
        if len(names) == 1:
            get = attrgetter(names[0])
            self.key = lambda obj: (get(obj),)
        else:
            self.key = attrgetter(*names)

    def bind(self, cls, args, kwargs) -> list:
        """The field values, in order, for a call with these arguments."""
        names = self.names
        if len(args) > len(names):
            raise TypeError(f"{cls.__qualname__}.__init__() takes {len(names) + 1} "
                            f"positional arguments but {len(args) + 1} were given")
        values, missing = list(args), []
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in self.defaults:
                values.append(self.defaults[name])
            else:
                missing.append(name)
        for name in kwargs:
            problem = ("got multiple values for argument" if name in names
                       else "got an unexpected keyword argument")
            raise TypeError(f"{cls.__qualname__}.__init__() {problem} {name!r}")
        if missing:
            raise TypeError(f"{cls.__qualname__}.__init__() missing required "
                            f"arguments: {', '.join(map(repr, missing))}")
        return values


def _init(self, *args, **kwargs):
    spec = self._record_spec
    if kwargs or len(args) != len(spec.names):
        args = spec.bind(self.__class__, args, kwargs)
    self.__dict__.update(zip(spec.names, args))
    if spec.post_init:
        self.__post_init__()


def _eq(self, other):
    if other.__class__ is self.__class__:
        key = self._record_spec.key
        return key(self) == key(other)
    return NotImplemented


def _hash(self):
    return hash(self._record_spec.key(self))


def _repr(self):
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._record_spec.names)
    return f"{self.__class__.__qualname__}({fields})"


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def record(cls):
    """Make ``cls`` a frozen record class; use as ``@record``."""
    own = cls.__dict__
    names, defaults = [], {}
    for name in own.get("__annotations__", {}):
        value = own.get(name, _MISSING)
        if value is not _MISSING:
            defaults[name] = value
        names.append(name)
    cls._record_spec = _Spec(tuple(names), defaults, hasattr(cls, "__post_init__"))
    methods = {"__init__": _init, "__repr__": _repr, "__eq__": _eq}
    for name, method in methods.items():
        if name not in own:
            setattr(cls, name, method)
    # A class body that defines __eq__ alone gets __hash__ = None from Python;
    # that is not a hash of its own.
    if own.get("__hash__") is None:
        cls.__hash__ = _hash
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    return cls


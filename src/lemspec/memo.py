"""Frozen records, and derived data kept on the object it is derived from.

``record`` makes a class an immutable record of its annotated fields, like
``dataclasses.dataclass(frozen=True)`` but without generating source: its
methods are closures over the field names, so importing lemspec neither
imports ``dataclasses`` nor calls ``exec``.  Instances keep a ``__dict__``,
which is where ``per_object`` and ``functools.cached_property`` put the
data derived from them, and where ``preset`` puts an answer of a
``per_object`` function that a builder knows by construction.
"""

from __future__ import annotations

import functools
from operator import attrgetter

# A field's class-level marker: the field has no default, takes part in
# ``==``, and is left out of ``hash``.
UNHASHED = object()

_setattr = object.__setattr__


def _fields_of(names: tuple[str, ...]):
    """``obj -> tuple of obj's values for names``, in that order."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(*names)
        return lambda obj: (get(obj),)
    return lambda obj: ()


def record(cls=None, *, eq: bool = True):
    """Make ``cls`` a frozen record of its annotated fields, in order.

    The methods behave as ``dataclass(frozen=True, eq=eq)`` would make them:
    ``__init__`` takes fields by position or keyword, and a field's class
    attribute is its default; ``repr`` reads ``Name(field=value, ...)``;
    ``==`` holds between instances of the same class with equal fields;
    ``hash`` is the hash of the tuple of the hashed fields, so set and dict
    orders match the dataclass ones; assigning or deleting an attribute
    raises ``AttributeError``.  With ``eq=False``, equality and hashing stay
    by identity.  Annotations are read unevaluated from the class body.
    """
    if cls is None:
        return lambda c: record(c, eq=eq)
    names = tuple(cls.__dict__.get("__annotations__", {}))
    fields = frozenset(names)
    defaults = {}
    hashed = []
    for name in names:
        if cls.__dict__.get(name) is UNHASHED:
            delattr(cls, name)
            continue
        hashed.append(name)
        if name in cls.__dict__:
            defaults[name] = cls.__dict__[name]
    values_of = _fields_of(names)
    n = len(names)

    # Fields are set one by one, as the dataclass does, rather than through
    # ``self.__dict__``: touching ``__dict__`` would make Python 3.11+ store
    # the instance's attributes in a dict, which is slower to read.
    def __init__(self, *args, **kwargs):
        if len(args) == n and not kwargs:
            for name, value in zip(names, args):
                _setattr(self, name, value)
            return
        given = dict(zip(names, args))
        unknown = kwargs.keys() - (fields - given.keys())
        if len(args) > n or unknown:
            raise TypeError(
                f"{cls.__name__}() takes {n} arguments; got {len(args)} positional "
                f"and unexpected or repeated keywords {sorted(unknown)}"
            )
        values = {**defaults, **given, **kwargs}
        if len(values) < n:
            raise TypeError(f"{cls.__name__}() missing arguments {sorted(fields - values.keys())}")
        for name in names:
            _setattr(self, name, values[name])

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in zip(names, values_of(self)))
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    cls.__init__ = __init__
    cls.__repr__ = __repr__
    cls.__setattr__ = __setattr__
    cls.__delattr__ = __delattr__
    if eq:
        hashed_of = _fields_of(tuple(hashed))

        def __eq__(self, other):
            if other.__class__ is not self.__class__:
                return NotImplemented
            return self is other or values_of(self) == values_of(other)

        def __hash__(self):
            return hash(hashed_of(self))

        cls.__eq__ = __eq__
        cls.__hash__ = __hash__
    return cls


def per_object(fn):
    """Memoise ``fn(obj, *args)`` on ``obj``: computed once, freed with ``obj``.

    Values live in the dict ``obj._memo``, keyed ``(wrapper, *args)``, so no
    cache key hashes ``obj`` and nothing outlives it.  A hit is one
    attribute read and one dict probe; the first call on ``obj`` makes the
    dict, past a record's ``__setattr__``, which raises.
    """

    @functools.wraps(fn)
    def wrapper(obj, *args):
        try:
            return obj._memo[(wrapper, *args)]
        except AttributeError:
            _setattr(obj, "_memo", {})
        except KeyError:
            pass
        value = obj._memo[(wrapper, *args)] = fn(obj, *args)
        return value

    return wrapper


def preset(fn, obj, value, *args) -> None:
    """Keep ``value`` as the answer of the ``per_object`` function ``fn`` on
    ``obj`` and ``args``, for a builder that knows it by construction."""
    obj.__dict__.setdefault("_memo", {})[(fn, *args)] = value


def release(*objs) -> None:
    """Drop the derived data kept on each object (``None`` is skipped).

    Derived data points back at its object (an ideal at its ring), so a kept
    memo is a reference cycle that only a full garbage collection frees.
    """
    for obj in objs:
        if obj is not None:
            obj.__dict__.pop("_memo", None)

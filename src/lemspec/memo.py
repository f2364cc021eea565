"""Derived data kept on the object it is derived from."""

from __future__ import annotations

import functools


def per_object(fn):
    """Memoise ``fn(obj, *args)`` on ``obj``: computed once, freed with ``obj``.

    Values live in ``obj.__dict__``, which a frozen dataclass without slots
    still has, so no cache key hashes ``obj`` and nothing outlives it.
    """

    @functools.wraps(fn)
    def wrapper(obj, *args):
        memo = obj.__dict__.setdefault("_memo", {})
        key = (wrapper, *args)
        try:
            return memo[key]
        except KeyError:
            value = memo[key] = fn(obj, *args)
            return value

    return wrapper


def release(*objs) -> None:
    """Drop the derived data kept on each object (``None`` is skipped).

    Derived data points back at its object (an ideal at its ring), so a kept
    memo is a reference cycle that only a full garbage collection frees.
    """
    for obj in objs:
        if obj is not None:
            obj.__dict__.pop("_memo", None)

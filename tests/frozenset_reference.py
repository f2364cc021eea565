"""Point sets as frozensets, from the definitions, for the reference tests.

lemspec keeps every set of points as an int mask (``spectra``).  The forms
here keep them as frozensets of points and call no ``spectra`` code, so a
test that compares the two does not check the mask code against itself:

- V(x) is read from ``leq``, and V*(x) from colon inclusion, with (x : e)
  read by ``colon_set`` from ``le_modules.colon_sets``;
- the closure of Y is the intersection of the closed sets that contain Y;
- a family is ordered by (size, positions in ascending order).

``Space.mask`` and ``Space.set`` translate between the two forms by the
positions of the points, bit k for ``points[k]``.  ``plant`` changes
entries of an instance's variety table, for the planted-fault tests.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from lemspec.le_modules import LeModuleInstance, colon_sets, spectrum, submodule_elements
from lemspec.memo import preset


def colon_set(mod: LeModuleInstance, x: int) -> frozenset[int]:
    """(x : e), read from ``le_modules.colon_sets``."""
    return colon_sets(mod)[x]


def canonical(points: tuple, sets: Iterable[frozenset]) -> tuple[frozenset, ...]:
    """Deduplicate and sort subsets by (size, member positions ascending)."""
    pos = {p: k for k, p in enumerate(points)}
    return tuple(sorted(set(sets), key=lambda s: (len(s), sorted(pos[p] for p in s))))


def to_set(points: tuple, mask: int) -> frozenset:
    return frozenset(p for k, p in enumerate(points) if mask >> k & 1)


def plant(table, mod: LeModuleInstance, changed: dict[int, int]) -> None:
    """Keep ``table(mod)``, a per-instance table such as ``spectra.varieties``
    or ``spectra.variety_stars``, with entry x replaced by ``changed[x]``,
    on ``mod`` alone, until ``mod`` is released."""
    preset(table, mod, tuple(changed.get(x, value) for x, value in enumerate(table(mod))))


class Space:
    """A finite space: its points and its closed sets, as frozensets."""

    def __init__(self, points: tuple, closed: Iterable[frozenset]):
        self.points = tuple(points)
        self.closed = tuple(closed)
        self._pos = {p: k for k, p in enumerate(self.points)}

    @classmethod
    def of(cls, top) -> Space:
        """The frozenset form of a ``spectra.SpectrumTopology``."""
        return cls(top.points, (to_set(top.points, c) for c in top.closed_sets))

    def mask(self, ys: Iterable) -> int:
        return sum(1 << self._pos[p] for p in set(ys))

    def set(self, mask: int) -> frozenset:
        return to_set(self.points, mask)

    def closure(self, ys: Iterable) -> frozenset:
        target = frozenset(ys)
        out = frozenset(self.points)
        for c in self.closed:
            if target <= c:
                out &= c
        return out

    def is_closed(self, ys: Iterable) -> bool:
        return frozenset(ys) in self.closed

    def is_irreducible(self, ys: Iterable) -> bool:
        """Not covered by two closed sets unless one of them suffices."""
        target = frozenset(ys)
        return all(
            not target <= (c1 | c2) or target <= c1 or target <= c2
            for c1, c2 in itertools.combinations_with_replacement(self.closed, 2)
        )


class ModuleSets(Space):
    """V and V* of every element of an instance, its colon fibers, and its
    star topology.

    ``v`` and ``vs`` are lists indexed by lattice element, so a test can
    plant a changed variety in them; the closed sets are taken first, from
    the true V*.  ``fibers`` maps each colon set of a point to the points
    that share it.
    """

    def __init__(self, mod: LeModuleInstance):
        points = spectrum(mod)
        leq = mod.lattice.leq
        colons = {p: colon_set(mod, p) for p in points}
        size = mod.lattice.size
        self.mod = mod
        self.fibers = {c: frozenset(p for p in points if colons[p] == c) for c in colons.values()}
        self.v = [frozenset(p for p in points if leq[x][p]) for x in range(size)]
        self.vs = [
            frozenset(p for p in points if colon_set(mod, x) <= colons[p]) for x in range(size)
        ]
        super().__init__(points, canonical(points, (self.vs[n] for n in submodule_elements(mod))))

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
``uncovered_open`` is T5.3's cover clause, which ``verify`` leaves to the
definition of the colon, as a scan.  ``MapSets`` is the natural map psi in
the same form, for the clauses of P4.1, P5.1 and T4.3, which ``verify``
leaves to L2.1 and the onto lemma.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from lemspec.le_modules import (
    LeModuleInstance,
    colon_sets,
    ideal_action,
    scalar_classes,
    spectrum,
    submodule_elements,
)
from lemspec.memo import preset
from lemspec.natural_map import NaturalMap
from lemspec.rings import all_ideals, spec_ring


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


def uncovered_open(mod: LeModuleInstance) -> frozenset | None:
    """The first open set, the complement of a closed set of the star
    family in its order, that is not a union of basic opens X_r, or None.
    X_r reads r only through re, so one scalar per class of equal action
    rows (``scalar_classes``) gives every basic open."""
    ref = ModuleSets(mod)
    full, top = frozenset(ref.points), mod.lattice.top
    basics = [full - ref.v[mod.action[r][top]] for r in scalar_classes(mod)]
    for closed in ref.closed:
        opened = full - closed
        if frozenset().union(*(b for b in basics if b <= opened)) != opened:
            return opened
    return None


class MapSets:
    """The natural map psi of a module that is not degenerate, from the
    definitions.

    psi(p) is the image of (p:e) under the quotient's projection, a set of
    elements of R/Ann; the ring points are the member sets of the
    quotient's primes, and V(I-bar) and D_r-bar are frozensets of them.  No
    fiber mask of ``NaturalMap`` is read, and no ``spectra`` code is called.
    """

    def __init__(self, nm: NaturalMap):
        mod, ann = nm.instance, nm.annihilator_ideal.members
        self.nm = nm
        self.sets = ModuleSets(mod)
        self.primes = frozenset(q.members for q in spec_ring(nm.quotient).points)
        self.psi = {p: self.bar(colon_set(mod, p)) for p in self.sets.points}
        # The ideals I containing Ann, by their members: the I-bar are the
        # ideals of R/Ann.
        self.above_ann = {i.sorted_members(): i for i in all_ideals(mod.ring) if ann <= i.members}

    def bar(self, members) -> frozenset[int]:
        """The image of a set of scalars in R/Ann."""
        return frozenset(self.nm.projection[r] for r in members)

    def variety(self, members) -> frozenset:
        """V(I-bar): the quotient's primes that hold the image of I."""
        target = self.bar(members)
        return frozenset(q for q in self.primes if target <= q)

    def preimage(self, targets: frozenset) -> frozenset:
        return frozenset(p for p, q in self.psi.items() if q in targets)

    def image(self, ys: Iterable) -> frozenset:
        return frozenset(map(self.psi.__getitem__, ys))

    def witnesses(self) -> dict[str, object]:
        """The first failure of each clause set, or None where it holds:

        - "psi": a point whose image is not the prime of R/Ann that
          ``NaturalMap.image_of`` gives;
        - "P4.1": the members of an ideal I containing Ann with
          psi^-1(V(I-bar)) != V(Ie);
        - "P5.1": a scalar r with psi^-1(D_r-bar) != X_r;
        - "T4.3": a submodule element n such that V*(n) does not map onto
          V((n:e)-bar), or its complement onto the complement.
        """
        mod, sets, primes = self.nm.instance, self.sets, self.primes
        leq, top, full = mod.lattice.leq, mod.lattice.top, frozenset(sets.points)

        def psi_fails(p) -> bool:
            return self.psi[p] != self.nm.image_of(p).members

        def continuity_fails(members: tuple[int, ...]) -> bool:
            ie = ideal_action(mod, self.above_ann[members])
            return self.preimage(self.variety(members)) != sets.v[ie]

        def dr_fails(r: int) -> bool:
            x_r = frozenset(p for p in full if not leq[mod.action[r][top]][p])
            return self.preimage(primes - self.variety({r})) != x_r

        def images_fail(n: int) -> bool:
            target = self.variety(colon_set(mod, n))
            vs = sets.vs[n]
            return self.image(vs) != target or self.image(full - vs) != primes - target

        def first(items: Iterable, fails) -> object:
            return next((x for x in items if fails(x)), None)

        return {
            "psi": first(sets.points, psi_fails),
            "P4.1": first(self.above_ann, continuity_fails),
            "P5.1": first(range(mod.ring.order), dr_fails),
            "T4.3": first(submodule_elements(mod), images_fail),
        }

    def is_homeomorphism(self) -> bool:
        """psi is a bijection onto the quotient's primes, the preimage of
        each closed set V(I-bar) is closed, and the image of each closed
        set of ``ModuleSets`` is closed."""
        if len(set(self.psi.values())) != len(self.psi) or set(self.psi.values()) != self.primes:
            return False
        ring_closed = set(map(self.variety, self.above_ann))
        closed = set(self.sets.closed)
        return all(self.preimage(c) in closed for c in ring_closed) and all(
            self.image(c) in ring_closed for c in closed
        )

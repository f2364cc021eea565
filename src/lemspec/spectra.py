"""Closed-set topologies on the prime spectrum of a lattice-enriched module.

Three closed-set families exist on the point set: plain varieties, colon
varieties, and varieties of ideal actions.  The colon and ideal-action
families always satisfy the topology axioms and coincide, by L2.1, so the
one family is computed from the colon varieties; the plain family is a
topology only for "top" instances.

A set of points has one representation: an int mask in which bit k stands
for ``points[k]`` of its space, the module spectrum in index order or the
ring spectrum in canonical order.  Unions, intersections and complements
are ``|``, ``&`` and ``^``.  ``decode`` is the one way from a mask back to
points, for output.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Iterable, NamedTuple

from .errors import EmptyFamily, NotTopLeModule, TopologyAxiomViolation
from .lattices import elements
from .le_modules import (
    LeModuleInstance,
    colon_fibers,
    colon_sets,
    spectrum,
    submodule_elements,
)
from .memo import per_object, record
from .rings import FiniteRing, all_ideals, spec_ring, variety_ring


@record(eq=False)
class SpectrumTopology:
    """A finite point set with a canonical family of closed subsets.

    Each closed set is an int mask: bit k stands for ``points[k]``.
    ``label`` is one of "quasi", "star", "prime" for module spectra, or
    "ring" for the Zariski topology on a ring spectrum.
    """

    points: tuple
    closed_sets: tuple[int, ...]
    label: str

    @property
    def full(self) -> int:
        """The mask of every point."""
        return (1 << len(self.points)) - 1


class Topologies(NamedTuple):
    star: SpectrumTopology
    prime: SpectrumTopology
    quasi: SpectrumTopology | None


def decode(points: tuple, mask: int) -> tuple:
    """The points of a mask, in point order."""
    return tuple(map(points.__getitem__, elements(mask)))


def canonical_family(points: tuple, sets: Iterable[int]) -> tuple[int, ...]:
    """Deduplicate and sort masks by (size, member positions ascending).

    Of two masks of one size, the one that holds the lowest bit at which
    they differ comes first: it is the greater when bit 0 is read as the
    most significant digit.
    """
    width = f"0{len(points)}b"

    def key(s: int):
        return s.bit_count(), -int(format(s, width)[::-1], 2)

    return tuple(sorted(set(sets), key=key))


def _validate_family(top: SpectrumTopology) -> None:
    label, sets = top.label, top.closed_sets
    family = set(sets)
    if 0 not in family:
        raise TopologyAxiomViolation(f"{label}: empty set missing")
    if top.full not in family:
        raise TopologyAxiomViolation(f"{label}: full point set missing")
    for a, b in itertools.combinations_with_replacement(sets, 2):
        if a | b not in family:
            raise TopologyAxiomViolation(f"{label}: not closed under union")
        if a & b not in family:
            raise TopologyAxiomViolation(f"{label}: not closed under intersection")


@per_object
def varieties(mod: LeModuleInstance) -> tuple[int, ...]:
    """V(x), the primes above x, for every lattice element x: bit k of V(x)
    is set for each x below the k-th point.  Meant for submodule elements."""
    table = [0] * mod.lattice.size
    for k, p in enumerate(spectrum(mod)):
        for x in elements(mod.lattice.down[p]):
            table[x] |= 1 << k
    return tuple(table)


@per_object
def variety_stars(mod: LeModuleInstance) -> tuple[int, ...]:
    """V*(x), the primes whose colon ideal contains (x:e), for every
    lattice element x: the union of the colon fibers, which are disjoint,
    above (x:e), computed once per distinct colon set."""
    colons = colon_sets(mod)
    fibers = colon_fibers(mod).items()
    by_colon = {cx: sum(m for c, m in fibers if cx <= c) for cx in set(colons)}
    return tuple(map(by_colon.__getitem__, colons))


@per_object
def quasi_family(mod: LeModuleInstance) -> tuple[int, ...]:
    v = varieties(mod)
    return canonical_family(spectrum(mod), map(v.__getitem__, submodule_elements(mod)))


@per_object
def star_family(mod: LeModuleInstance) -> tuple[int, ...]:
    vs = variety_stars(mod)
    return canonical_family(spectrum(mod), map(vs.__getitem__, submodule_elements(mod)))


@per_object
def is_top_le_module(mod: LeModuleInstance) -> bool:
    """The plain variety family is closed under pairwise unions."""
    family = set(quasi_family(mod))
    pairs = itertools.combinations_with_replacement(quasi_family(mod), 2)
    return all(a | b in family for a, b in pairs)


@per_object
def build_topologies(mod: LeModuleInstance) -> Topologies:
    """Construct the always-defined topologies, plus the quasi one if it exists.

    The colon-variety and ideal-action families are one family, by L2.1
    (``verify._check_families_identical``), so the prime topology has the
    star one's closed sets, and the topology axioms are checked on that one
    family once; a failure would be an implementation bug.
    """
    points = spectrum(mod)
    star = SpectrumTopology(points, star_family(mod), "star")
    _validate_family(star)
    prime = SpectrumTopology(points, star.closed_sets, "prime")
    quasi = None
    if is_top_le_module(mod):
        quasi = SpectrumTopology(points, quasi_family(mod), "quasi")
        _validate_family(quasi)
    return Topologies(star, prime, quasi)


def quasi_topology(mod: LeModuleInstance) -> SpectrumTopology:
    """The plain-variety topology; raises unless the instance is top."""
    if not is_top_le_module(mod):
        raise NotTopLeModule(f"{mod.name}: the plain variety family is not a topology")
    return build_topologies(mod).quasi


@per_object
def ring_space(ring: FiniteRing) -> SpectrumTopology:
    """The Zariski topology on the prime spectrum of a ring."""
    points = spec_ring(ring).points
    closed = canonical_family(points, (variety_ring(ring, i) for i in all_ideals(ring)))
    space = SpectrumTopology(points, closed, "ring")
    _validate_family(space)
    return space


def closure(top: SpectrumTopology, y: int) -> int:
    """Smallest closed superset."""
    return functools.reduce(operator.and_, (c for c in top.closed_sets if not y & ~c), top.full)


@per_object
def closures_by_point(top: SpectrumTopology) -> dict[object, int]:
    """p -> cl{p} for every point, in point order, computed once per space."""
    return {p: closure(top, 1 << k) for k, p in enumerate(top.points)}


def is_irreducible(top: SpectrumTopology, y: int) -> bool:
    """Nonempty, and not covered by two closed sets unless one suffices."""
    if not y:
        raise EmptyFamily("irreducibility is undefined for the empty set")
    pairs = itertools.combinations_with_replacement(top.closed_sets, 2)
    return not any(not y & ~(c1 | c2) and y & ~c1 and y & ~c2 for c1, c2 in pairs)


def point_closures(top: SpectrumTopology) -> tuple[int, ...]:
    """The irreducible closed sets: on a finite space, the point closures."""
    return canonical_family(top.points, closures_by_point(top).values())


def irreducible_components(top: SpectrumTopology) -> tuple[int, ...]:
    """Maximal irreducible closed subsets, via maximal point closures."""
    cls = point_closures(top)
    maximal = (c for c in cls if not any(c != d and c | d == d for d in cls))
    return canonical_family(top.points, maximal)


def generic_points(top: SpectrumTopology, y: int) -> tuple:
    """Points whose closure is exactly y (y should be closed), in point order.

    Such points lie in y, as p lies in cl{p}.  On a finite space a closed set
    has one exactly when it is irreducible, that is, a point closure.
    """
    if not y:
        raise EmptyFamily("generic points are undefined for the empty set")
    return tuple(p for p, c in closures_by_point(top).items() if c == y)


QUASI_COMPACT_NOTE = "finite space: quasi-compactness holds automatically"


@record
class SpaceProperties:
    is_t0: bool
    is_t1: bool
    is_connected: bool
    is_quasi_compact: bool
    is_spectral: bool
    note: str = QUASI_COMPACT_NOTE


@per_object
def point_set_properties(top: SpectrumTopology) -> SpaceProperties:
    """T0, T1, connectedness, quasi-compactness, and spectrality flags.

    Two points are indistinguishable iff their closures are equal, so T0 is
    "the point closures are distinct"; {p} is closed iff cl{p} = {p}, which
    is T1.  Spectral means T0 plus quasi-compact with an intersection-stable
    basis of quasi-compact opens plus generic points for irreducible closed
    sets; on a finite space only T0 can fail, since every irreducible closed
    set is a point closure cl{p}, which has p as a generic point.
    """
    full = top.full
    family = set(top.closed_sets)
    cls = closures_by_point(top)
    t0 = len(set(cls.values())) == len(cls)
    t1 = all(c == 1 << k for k, c in enumerate(cls.values()))
    connected = bool(full) and not any(c and c != full and full ^ c in family for c in family)
    return SpaceProperties(t0, t1, connected, True, t0)


@per_object
def colon_fibers_at_most_one(mod: LeModuleInstance) -> bool:
    """No two points share a colon ideal: the colon fibers, which are
    nonempty and partition the spectrum, are as many as the points.  Each
    fiber is that of a ring prime, as the colon ideal of a point is (L2.1)."""
    return len(colon_fibers(mod)) == len(spectrum(mod))


def specialization_pairs(top: SpectrumTopology) -> tuple[tuple, ...]:
    """Ordered pairs (p, q), p != q, with q in the closure of {p}."""
    cls = closures_by_point(top)
    return tuple((p, q) for p, c in cls.items() for q in decode(top.points, c) if q != p)

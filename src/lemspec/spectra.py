"""Closed-set topologies on the prime spectrum of a lattice-enriched module.

Three closed-set families exist on the point set: plain varieties, colon
varieties, and varieties of ideal actions.  The colon and ideal-action
families always satisfy the topology axioms and coincide; the plain family
is a topology only for "top" instances.  Everything here is finite, so
spaces are kept as canonical tuples of frozensets and compared literally.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .errors import EmptyFamily, NotTopLeModule, TopologyAxiomViolation
from .lattices import meet_all
from .le_modules import (
    LeModuleInstance,
    colon_fibers,
    colon_set,
    ideal_action,
    is_prime_submodule_element,
    spectrum,
    submodule_elements,
)
from .memo import per_object
from .rings import (
    FiniteRing,
    Ideal,
    all_ideals,
    ideal_intersect,
    ideal_product,
    is_prime_ideal,
    spec_ring,
    variety_ring,
)


@dataclass(frozen=True, eq=False)
class SpectrumTopology:
    """A finite point set with a canonical family of closed subsets.

    ``label`` is one of "quasi", "star", "prime" for module spectra, or
    "ring" for the Zariski topology on a ring spectrum.
    """

    points: tuple
    closed_sets: tuple[frozenset, ...]
    label: str

    def positions(self) -> dict:
        return {p: k for k, p in enumerate(self.points)}

    def point_set(self) -> frozenset:
        return frozenset(self.points)


class Topologies(NamedTuple):
    star: SpectrumTopology
    prime: SpectrumTopology
    quasi: SpectrumTopology | None


def canonical_family(points: tuple, sets: Iterable[frozenset]) -> tuple[frozenset, ...]:
    """Deduplicate and sort subsets by (size, member positions)."""
    pos = {p: k for k, p in enumerate(points)}

    def key(s: frozenset):
        return (len(s), sorted(pos[p] for p in s))

    return tuple(sorted(set(sets), key=key))


def _validate_family(points: tuple, sets: tuple[frozenset, ...], label: str) -> None:
    universe = frozenset(points)
    family = set(sets)
    if frozenset() not in family:
        raise TopologyAxiomViolation(f"{label}: empty set missing")
    if universe not in family:
        raise TopologyAxiomViolation(f"{label}: full point set missing")
    for a, b in itertools.combinations_with_replacement(sets, 2):
        if a | b not in family:
            raise TopologyAxiomViolation(f"{label}: not closed under union")
        if a & b not in family:
            raise TopologyAxiomViolation(f"{label}: not closed under intersection")


@per_object
def variety(mod: LeModuleInstance, x: int) -> frozenset[int]:
    """Primes above x.  Meant for submodule elements, defined for any x."""
    leq = mod.lattice.leq
    return frozenset(p for p in spectrum(mod) if leq[x][p])


@per_object
def variety_star(mod: LeModuleInstance, x: int) -> frozenset[int]:
    """Primes whose colon ideal contains the colon ideal of x."""
    cx = colon_set(mod, x)
    return frozenset(p for p in spectrum(mod) if cx <= colon_set(mod, p))


@per_object
def quasi_family(mod: LeModuleInstance) -> tuple[frozenset, ...]:
    points = spectrum(mod)
    return canonical_family(points, (variety(mod, n) for n in submodule_elements(mod)))


@per_object
def star_family(mod: LeModuleInstance) -> tuple[frozenset, ...]:
    points = spectrum(mod)
    return canonical_family(
        points, (variety_star(mod, n) for n in submodule_elements(mod))
    )


@per_object
def prime_family(mod: LeModuleInstance) -> tuple[frozenset, ...]:
    points = spectrum(mod)
    return canonical_family(
        points, (variety(mod, ideal_action(mod, i)) for i in all_ideals(mod.ring))
    )


@per_object
def is_top_le_module(mod: LeModuleInstance) -> bool:
    """The plain variety family is closed under pairwise unions."""
    family = set(quasi_family(mod))
    for a, b in itertools.combinations_with_replacement(quasi_family(mod), 2):
        if a | b not in family:
            return False
    return True


@per_object
def build_topologies(mod: LeModuleInstance) -> Topologies:
    """Construct the always-defined topologies, plus the quasi one if it exists.

    The colon-variety and ideal-action families are asserted equal; a
    mismatch would be an implementation bug.
    """
    points = spectrum(mod)
    star = SpectrumTopology(points, star_family(mod), "star")
    prime = SpectrumTopology(points, prime_family(mod), "prime")
    _validate_family(points, star.closed_sets, "star")
    _validate_family(points, prime.closed_sets, "prime")
    if star.closed_sets != prime.closed_sets:
        raise TopologyAxiomViolation("star and prime closed-set families differ")
    quasi = None
    if is_top_le_module(mod):
        quasi = SpectrumTopology(points, quasi_family(mod), "quasi")
        _validate_family(points, quasi.closed_sets, "quasi")
    return Topologies(star, prime, quasi)


def quasi_topology(mod: LeModuleInstance) -> SpectrumTopology:
    """The plain-variety topology; raises unless the instance is top."""
    if not is_top_le_module(mod):
        raise NotTopLeModule(f"{mod.name}: plain varieties are not union-closed")
    return build_topologies(mod).quasi


def union_intersection_check(mod: LeModuleInstance, i: Ideal, j: Ideal) -> bool:
    """V(Ie) u V(Je) = V((I n J)e) = V((IJ)e), and the colon-variety analogue."""
    ie, je = ideal_action(mod, i), ideal_action(mod, j)
    ke = ideal_action(mod, ideal_intersect(i, j))
    pe = ideal_action(mod, ideal_product(i, j))
    u = variety(mod, ie) | variety(mod, je)
    if not (u == variety(mod, ke) == variety(mod, pe)):
        return False
    us = variety_star(mod, ie) | variety_star(mod, je)
    return us == variety_star(mod, ke) == variety_star(mod, pe)


def vstar_decomposition_check(mod: LeModuleInstance, n: int) -> bool:
    """V*(n) agrees with the colon-fiber union, V*((n:e)e), and V((n:e)e)."""
    cn = Ideal(mod.ring, colon_set(mod, n))
    ce = ideal_action(mod, cn)
    vs = variety_star(mod, n)
    fibers = colon_fibers(mod)
    union = frozenset(
        p
        for prime in spec_ring(mod.ring).points
        if cn.members <= prime.members
        for p in fibers.get(prime.members, ())
    )
    return vs == union == variety_star(mod, ce) == variety(mod, ce)


@per_object
def basic_open(mod: LeModuleInstance, r: int) -> frozenset[int]:
    """X_r: the complement of the variety of r acting on the top."""
    points = frozenset(spectrum(mod))
    return points - variety(mod, mod.action[r][mod.lattice.top])


@dataclass(frozen=True)
class BasisReport:
    """Outcome of the basis identities for the open sets {X_r}."""

    pair_identity_ok: bool
    pair_witness: tuple | None
    ideal_identity_ok: bool
    ideal_witness: tuple | None
    covers_ok: bool
    cover_witness: tuple | None

    @property
    def ok(self) -> bool:
        return self.pair_identity_ok and self.ideal_identity_ok and self.covers_ok


@per_object
def basis_checks(mod: LeModuleInstance) -> BasisReport:
    """X_rs = X_r n X_s; V*(Ie) = intersection of V*(ae); opens are unions of X_r."""
    ring = mod.ring
    pair_ok, pair_wit = True, None
    for r, s in itertools.product(range(ring.order), repeat=2):
        if basic_open(mod, ring.mul[r][s]) != basic_open(mod, r) & basic_open(mod, s):
            pair_ok, pair_wit = False, (r, s)
            break

    ideal_ok, ideal_wit = True, None
    points = frozenset(spectrum(mod))
    for i in all_ideals(ring):
        vs = variety_star(mod, ideal_action(mod, i))
        inter = points
        for a in sorted(i.members):
            inter &= variety_star(mod, mod.action[a][mod.lattice.top])
        if vs != inter:
            ideal_ok, ideal_wit = False, (i.sorted_members(),)
            break

    basics = [basic_open(mod, r) for r in range(ring.order)]
    covers_ok, cover_wit = True, None
    for closed in star_family(mod):
        u = points - closed
        union = frozenset().union(*(b for b in basics if b <= u)) if u else frozenset()
        if union != u:
            covers_ok, cover_wit = False, (tuple(sorted(u)),)
            break
    return BasisReport(pair_ok, pair_wit, ideal_ok, ideal_wit, covers_ok, cover_wit)


@per_object
def ring_space(ring: FiniteRing) -> SpectrumTopology:
    """The Zariski topology on the prime spectrum of a ring."""
    points = spec_ring(ring).points
    closed = canonical_family(points, (variety_ring(ring, i) for i in all_ideals(ring)))
    space = SpectrumTopology(points, closed, "ring")
    _validate_family(points, closed, "ring")
    return space


def closure(top: SpectrumTopology, y: Iterable) -> frozenset:
    """Smallest closed superset."""
    target = frozenset(y)
    acc = top.point_set()
    for c in top.closed_sets:
        if target <= c:
            acc &= c
    return acc


def is_closed(top: SpectrumTopology, y: Iterable) -> bool:
    return frozenset(y) in set(top.closed_sets)


def open_sets(top: SpectrumTopology) -> tuple[frozenset, ...]:
    universe = top.point_set()
    return canonical_family(top.points, (universe - c for c in top.closed_sets))


def im_meet(mod: LeModuleInstance, y: Iterable[int]) -> int:
    """Lattice meet of a nonempty set of points."""
    points = list(y)
    if not points:
        raise EmptyFamily("meet over no points is undefined")
    return meet_all(mod.lattice, points)


def is_irreducible(top: SpectrumTopology, y: Iterable) -> bool:
    """Nonempty, and not covered by two closed sets unless one suffices."""
    target = frozenset(y)
    if not target:
        raise EmptyFamily("irreducibility is undefined for the empty set")
    for c1, c2 in itertools.combinations_with_replacement(top.closed_sets, 2):
        if target <= (c1 | c2) and not (target <= c1 or target <= c2):
            return False
    return True


def point_closures(top: SpectrumTopology) -> tuple[frozenset, ...]:
    """The irreducible closed sets: on a finite space, the point closures."""
    return canonical_family(top.points, (closure(top, [p]) for p in top.points))


def irreducible_components(top: SpectrumTopology) -> tuple[frozenset, ...]:
    """Maximal irreducible closed subsets, via maximal point closures."""
    cls = point_closures(top)
    return canonical_family(
        top.points, (c for c in cls if not any(c < d for d in cls))
    )


def generic_points(top: SpectrumTopology, y: Iterable) -> tuple:
    """Points whose closure is exactly y (y should be closed)."""
    target = frozenset(y)
    if not target:
        raise EmptyFamily("generic points are undefined for the empty set")
    pos = top.positions()
    out = [p for p in target if closure(top, [p]) == target]
    return tuple(sorted(out, key=pos.__getitem__))


QUASI_COMPACT_NOTE = "finite space: quasi-compactness holds automatically"


@dataclass(frozen=True)
class SpaceProperties:
    is_t0: bool
    is_t1: bool
    is_connected: bool
    is_quasi_compact: bool
    is_spectral: bool
    note: str = QUASI_COMPACT_NOTE


def point_set_properties(top: SpectrumTopology) -> SpaceProperties:
    """T0, T1, connectedness, quasi-compactness, and spectrality flags.

    Spectral means T0 plus quasi-compact with an intersection-stable basis
    of quasi-compact opens plus generic points for irreducible closed sets;
    on a finite space only T0 can fail, since every irreducible closed set
    is a point closure cl{p}, which has p as a generic point.
    """
    pts = top.point_set()
    family = set(top.closed_sets)
    cls = {p: closure(top, [p]) for p in top.points}
    t0 = all(
        cls[p] != cls[q] for p, q in itertools.combinations(top.points, 2)
    )
    t1 = all(frozenset([p]) in family for p in top.points)
    connected = bool(pts) and not any(
        c and c != pts and (pts - c) in family for c in family
    )
    return SpaceProperties(t0, t1, connected, True, t0)


def phi_and_t1_check(mod: LeModuleInstance) -> bool:
    """T1 holds exactly when colon ideals are maximal in their family and
    every colon fiber is a singleton."""
    points = spectrum(mod)
    family = set(build_topologies(mod).star.closed_sets)
    t1 = all(frozenset([p]) in family for p in points)
    fibers = colon_fibers(mod)
    maximal = all(not any(c < q for q in fibers) for c in fibers)
    fibers_small = all(len(f) <= 1 for f in fibers.values())
    return t1 == (maximal and fibers_small)


@dataclass(frozen=True)
class ImplicationCheck:
    name: str
    hypothesis: bool
    conclusion: bool

    @property
    def holds(self) -> bool:
        return (not self.hypothesis) or self.conclusion


def irreducibility_criteria(mod: LeModuleInstance, y: Iterable[int]) -> tuple[ImplicationCheck, ...]:
    """Evaluate each sufficient or necessary condition for y irreducible."""
    target = frozenset(y)
    if not target:
        raise EmptyFamily("criteria are undefined for the empty set")
    tops = build_topologies(mod)
    irr = is_irreducible(tops.star, target)
    meet = im_meet(mod, target)
    meet_colon = colon_set(mod, meet)
    colon_prime = is_prime_ideal(mod.ring, meet_colon)
    lat = mod.lattice
    chain = all(
        lat.leq[a][b] or lat.leq[b][a] for a, b in itertools.combinations(target, 2)
    )
    fibers = colon_fibers(mod)
    fiber_primes = [
        pr for pr in spec_ring(mod.ring).points
        if frozenset(fibers.get(pr.members, ())) == target
    ]
    is_fiber = bool(fiber_primes)
    fiber_maximal = any(
        not any(pr.members < i.members for i in all_ideals(mod.ring) if i.is_proper())
        for pr in fiber_primes
    )
    witness_fiber = colon_prime and meet_colon in fibers
    return (
        ImplicationCheck(
            "meet-prime-implies-irreducible",
            is_prime_submodule_element(mod, meet),
            irr,
        ),
        ImplicationCheck("irreducible-implies-colon-of-meet-prime", irr, colon_prime),
        ImplicationCheck("chain-implies-irreducible", chain, irr),
        ImplicationCheck("colon-fiber-implies-irreducible", is_fiber, irr),
        ImplicationCheck(
            "colon-fiber-of-maximal-ideal-closed-irreducible",
            is_fiber and fiber_maximal,
            irr and is_closed(tops.star, target),
        ),
        ImplicationCheck(
            "prime-colon-meet-with-nonempty-fiber-implies-irreducible",
            colon_prime and witness_fiber,
            irr,
        ),
    )


def specialization_pairs(top: SpectrumTopology) -> tuple[tuple, ...]:
    """Ordered pairs (p, q), p != q, with q in the closure of {p}."""
    out = []
    for p in top.points:
        c = closure(top, [p])
        for q in top.points:
            if q != p and q in c:
                out.append((p, q))
    return tuple(out)

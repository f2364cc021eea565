"""Finite commutative rings with identity, given by Cayley tables.

Elements are the indices 0..order-1; ``add`` and ``mul`` are full tables.
``make_ring`` validates tables given from outside exhaustively and reports
the first failing cell, so a bad table is caught at build time rather than
deep inside a spectrum computation.  ``make_zn``, ``product_ring`` and
``quotient_ring`` build rings that are valid by construction, unchecked.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import AxiomViolation, EmptyFamily, ImproperIdeal, ZeroRing
from .memo import per_object

Table = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class FiniteRing:
    """A finite commutative ring with 1, as validated operation tables."""

    order: int
    add: Table
    mul: Table
    zero: int
    one: int
    name: str = "R"
    element_names: tuple[str, ...] | None = None

    def element_name(self, x: int) -> str:
        if self.element_names is not None:
            return self.element_names[x]
        return str(x)

    def neg(self, x: int) -> int:
        for y in range(self.order):
            if self.add[x][y] == self.zero:
                return y
        raise AxiomViolation("add-inverse", (x,))


@dataclass(frozen=True)
class Ideal:
    """A subset of a ring, kept as a frozenset of element indices.

    The ring takes part in equality but not in the hash, so set and dict
    lookups never hash its tables.
    """

    ring: FiniteRing = field(hash=False)
    members: frozenset[int]

    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def is_proper(self) -> bool:
        return len(self.members) < self.ring.order

    def __contains__(self, x: int) -> bool:
        return x in self.members

    def __le__(self, other: "Ideal") -> bool:
        return self.members <= other.members


@dataclass(frozen=True)
class RingSpectrum:
    """All prime ideals of a ring, in canonical order."""

    ring: FiniteRing
    points: tuple[Ideal, ...]


def _freeze(table: Sequence[Sequence[int]]) -> Table:
    return tuple(tuple(int(v) for v in row) for row in table)


def _check_table_shape(table: Table, order: int, label: str) -> None:
    if len(table) != order:
        raise ValueError(f"{label} table must have {order} rows, got {len(table)}")
    for i, row in enumerate(table):
        if len(row) != order:
            raise ValueError(f"{label} table row {i} must have {order} entries")
        for v in row:
            if not 0 <= v < order:
                raise ValueError(f"{label} table entry {v} at row {i} out of range")


def make_ring(
    order: int,
    add: Sequence[Sequence[int]],
    mul: Sequence[Sequence[int]],
    name: str = "R",
    element_names: Sequence[str] | None = None,
) -> FiniteRing:
    """Validate the tables and build a ring; raises on the first bad cell."""
    if order < 1:
        raise ValueError("order must be positive")
    if order == 1:
        raise ZeroRing("the one-element ring is rejected")
    add_t = _freeze(add)
    mul_t = _freeze(mul)
    _check_table_shape(add_t, order, "add")
    _check_table_shape(mul_t, order, "mul")

    rng = range(order)
    zero = next((e for e in rng if all(add_t[e][x] == x for x in rng)), None)
    if zero is None:
        raise AxiomViolation("add-identity", ())
    one = next((u for u in rng if all(mul_t[u][x] == x for x in rng)), None)
    if one is None:
        raise AxiomViolation("mul-identity", ())
    if zero == one:
        raise AxiomViolation("zero-ne-one", (zero,))

    for a, b in itertools.product(rng, repeat=2):
        if add_t[a][b] != add_t[b][a]:
            raise AxiomViolation("add-comm", (a, b))
        if mul_t[a][b] != mul_t[b][a]:
            raise AxiomViolation("mul-comm", (a, b))
    for a in rng:
        if all(add_t[a][b] != zero for b in rng):
            raise AxiomViolation("add-inverse", (a,))
    for a, b, c in itertools.product(rng, repeat=3):
        if add_t[add_t[a][b]][c] != add_t[a][add_t[b][c]]:
            raise AxiomViolation("add-assoc", (a, b, c))
        if mul_t[mul_t[a][b]][c] != mul_t[a][mul_t[b][c]]:
            raise AxiomViolation("mul-assoc", (a, b, c))
        if mul_t[a][add_t[b][c]] != add_t[mul_t[a][b]][mul_t[a][c]]:
            raise AxiomViolation("distributive", (a, b, c))

    names = tuple(element_names) if element_names is not None else None
    if names is not None and len(names) != order:
        raise ValueError("element_names length must equal order")
    return FiniteRing(order, add_t, mul_t, zero, one, name, names)


def make_zn(n: int) -> FiniteRing:
    """The ring of integers mod n, n >= 2."""
    if n < 2:
        raise ZeroRing("Z_n needs n >= 2")
    rng = range(n)
    add = tuple(tuple((a + b) % n for b in rng) for a in rng)
    mul = tuple(tuple((a * b) % n for b in rng) for a in rng)
    return FiniteRing(n, add, mul, 0, 1, f"Z{n}")


def product_ring(r1: FiniteRing, r2: FiniteRing) -> FiniteRing:
    """Componentwise product; index (a, b) is encoded as a * r2.order + b."""
    n2 = r2.order
    pairs = tuple(itertools.product(range(r1.order), range(n2)))

    def enc(a: int, b: int) -> int:
        return a * n2 + b

    def table(t1: Table, t2: Table) -> Table:
        return tuple(
            tuple(enc(t1[a1][a2], t2[b1][b2]) for a2, b2 in pairs) for a1, b1 in pairs
        )

    add, mul = table(r1.add, r2.add), table(r1.mul, r2.mul)
    zero, one = enc(r1.zero, r2.zero), enc(r1.one, r2.one)
    names = tuple(f"({r1.element_name(a)},{r2.element_name(b)})" for a, b in pairs)
    return FiniteRing(len(pairs), add, mul, zero, one, f"{r1.name}x{r2.name}", names)


def is_ideal(ring: FiniteRing, subset: Iterable[int]) -> bool:
    """Nonempty, additively closed, and absorbs ring multiplication."""
    s = frozenset(subset)
    if ring.zero not in s:
        return False
    for a in s:
        for b in s:
            if ring.add[a][b] not in s:
                return False
        for r in range(ring.order):
            if ring.mul[r][a] not in s:
                return False
    return True


def principal_ideal(ring: FiniteRing, r: int) -> Ideal:
    """The ideal rR = {r*s : s in R}."""
    return Ideal(ring, frozenset(ring.mul[r][s] for s in range(ring.order)))


def _additive_closure(ring: FiniteRing, seed: frozenset[int]) -> frozenset[int]:
    members = set(seed)
    members.add(ring.zero)
    frontier = list(members)
    while frontier:
        a = frontier.pop()
        for b in list(members):
            c = ring.add[a][b]
            if c not in members:
                members.add(c)
                frontier.append(c)
    return frozenset(members)


def ideal_from_generators(ring: FiniteRing, gens: Iterable[int]) -> Ideal:
    """Smallest ideal containing the generators."""
    products = frozenset(ring.mul[r][g] for g in gens for r in range(ring.order))
    return Ideal(ring, _additive_closure(ring, products))


def ideal_sum(i: Ideal, j: Ideal) -> Ideal:
    ring = i.ring
    return Ideal(ring, frozenset(ring.add[a][b] for a in i.members for b in j.members))


def ideal_product(i: Ideal, j: Ideal) -> Ideal:
    ring = i.ring
    products = frozenset(ring.mul[a][b] for a in i.members for b in j.members)
    return Ideal(ring, _additive_closure(ring, products))


def ideal_intersect(i: Ideal, j: Ideal) -> Ideal:
    return Ideal(i.ring, i.members & j.members)


def ideal_sort_key(i: Ideal) -> tuple:
    return (len(i.members), i.sorted_members())


@per_object
def all_ideals(ring: FiniteRing) -> tuple[Ideal, ...]:
    """Every ideal, found by closing the principal ideals under ideal sum."""
    principals = [principal_ideal(ring, r) for r in range(ring.order)]
    known: set[frozenset[int]] = {p.members for p in principals}
    known.add(frozenset({ring.zero}))
    frontier = list(known)
    while frontier:
        base = frontier.pop()
        for p in principals:
            s = frozenset(ring.add[a][b] for a in base for b in p.members)
            if s not in known:
                known.add(s)
                frontier.append(s)
    ideals = [Ideal(ring, m) for m in known]
    ideals.sort(key=ideal_sort_key)
    return tuple(ideals)


def is_prime_ideal(ring: FiniteRing, i: Ideal | frozenset[int]) -> bool:
    """Proper, and ab in I forces a in I or b in I."""
    members = i.members if isinstance(i, Ideal) else frozenset(i)
    if len(members) >= ring.order:
        return False
    outside = [a for a in range(ring.order) if a not in members]
    for a in outside:
        for b in outside:
            if ring.mul[a][b] in members:
                return False
    return True


@per_object
def spec_ring(ring: FiniteRing) -> RingSpectrum:
    """All prime ideals in canonical (size, members) order."""
    points = tuple(i for i in all_ideals(ring) if is_prime_ideal(ring, i))
    return RingSpectrum(ring, points)


def variety_ring(ring: FiniteRing, i: Ideal) -> frozenset[Ideal]:
    """Primes containing the ideal."""
    return frozenset(p for p in spec_ring(ring).points if i.members <= p.members)


def basic_open_ring(ring: FiniteRing, r: int) -> frozenset[Ideal]:
    """Primes avoiding r, i.e. the complement of the variety of rR."""
    return frozenset(p for p in spec_ring(ring).points if r not in p.members)


def quotient_ring(ring: FiniteRing, i: Ideal) -> tuple[FiniteRing, tuple[int, ...]]:
    """Quotient by a proper ideal; returns (quotient, projection table).

    Cosets are indexed by their minimal representative, in increasing
    order, so the construction is canonical.
    """
    if not i.is_proper():
        raise ImproperIdeal("cannot quotient by the whole ring")
    if not is_ideal(ring, i.members):
        raise ValueError("quotient requires an ideal")
    coset_of: dict[int, frozenset[int]] = {}
    for r in range(ring.order):
        coset_of[r] = frozenset(ring.add[r][a] for a in i.members)
    reps = sorted({min(c) for c in coset_of.values()})
    index_of_rep = {rep: k for k, rep in enumerate(reps)}
    projection = tuple(index_of_rep[min(coset_of[r])] for r in range(ring.order))
    add = tuple(tuple(projection[ring.add[a][b]] for b in reps) for a in reps)
    mul = tuple(tuple(projection[ring.mul[a][b]] for b in reps) for a in reps)
    names = tuple(f"[{ring.element_name(rep)}]" for rep in reps)
    zero, one = projection[ring.zero], projection[ring.one]
    return FiniteRing(len(reps), add, mul, zero, one, f"{ring.name}/I", names), projection


def push_ideal(i: Ideal, projection: tuple[int, ...], target: FiniteRing) -> Ideal:
    """Image of an ideal under a surjective projection."""
    return Ideal(target, frozenset(projection[r] for r in i.members))


def idempotents(ring: FiniteRing) -> frozenset[int]:
    return frozenset(x for x in range(ring.order) if ring.mul[x][x] == x)


def minimal_primes(ring: FiniteRing) -> tuple[Ideal, ...]:
    """Primes with no strictly smaller prime, in canonical order."""
    points = spec_ring(ring).points
    out = [
        p
        for p in points
        if not any(q.members < p.members for q in points)
    ]
    return tuple(sorted(out, key=ideal_sort_key))


def maximal_ideals(ring: FiniteRing) -> tuple[Ideal, ...]:
    proper = [i for i in all_ideals(ring) if i.is_proper()]
    out = [i for i in proper if not any(i.members < j.members for j in proper)]
    return tuple(sorted(out, key=ideal_sort_key))


def intersect_primes(ring: FiniteRing, primes: Iterable[Ideal]) -> Ideal:
    """Intersection of a nonempty family of primes."""
    family = list(primes)
    if not family:
        raise EmptyFamily("intersection over no primes is undefined")
    members = frozenset(range(ring.order))
    for p in family:
        members &= p.members
    return Ideal(ring, members)

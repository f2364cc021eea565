"""Lattice-enriched modules: a complete lattice carrying a commutative
monoid and a ring action, with the compatibility laws checked cell by cell.

The lattice top plays the role of the distinguished element e; the monoid
zero ``zero_m`` need not be the lattice bottom a priori, but the laws force
the bottom in valid instances.  Element indices refer to the lattice.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .errors import AxiomViolation, EmptyFamily, NotPrimeIdeal
from .lattices import FiniteBoundedLattice
from .memo import per_object
from .rings import FiniteRing, Ideal, is_ideal, is_prime_ideal

IntTable = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class LeModuleInstance:
    """A validated lattice-enriched module over a finite ring.

    ``add[x][y]`` is the monoid sum; ``action[r][m]`` the scalar action.
    ``element_labels`` is display-only.
    """

    ring: FiniteRing
    lattice: FiniteBoundedLattice
    add: IntTable
    zero_m: int
    action: IntTable
    name: str = "M"
    element_labels: tuple[str, ...] | None = None

    @property
    def top(self) -> int:
        return self.lattice.top

    def label(self, m: int) -> str:
        if self.element_labels is not None:
            return self.element_labels[m]
        return str(m)


def _freeze(table) -> IntTable:
    return tuple(tuple(int(v) for v in row) for row in table)


def make_le_module(
    ring: FiniteRing,
    lattice: FiniteBoundedLattice,
    add,
    zero_m: int,
    action,
    name: str = "M",
    element_labels=None,
) -> LeModuleInstance:
    """Check every law on every cell; raises AxiomViolation with a witness.

    Axiom tags: "monoid" for the commutative-monoid laws, "S" for sum
    distributing over joins, "M1".."M5" for the action laws.
    """
    n = lattice.size
    add_t = _freeze(add)
    act_t = _freeze(action)
    if len(add_t) != n or any(len(row) != n for row in add_t):
        raise ValueError(f"add must be a {n}x{n} table")
    if len(act_t) != ring.order or any(len(row) != n for row in act_t):
        raise ValueError(f"action must be a {ring.order}x{n} table")
    for row in itertools.chain(add_t, act_t):
        for v in row:
            if not 0 <= v < n:
                raise ValueError(f"table entry {v} out of range")
    if not 0 <= zero_m < n:
        raise ValueError("zero_m out of range")

    rng = range(n)
    for x in rng:
        if add_t[zero_m][x] != x:
            raise AxiomViolation("monoid", (zero_m, x), "identity fails")
    for x, y in itertools.product(rng, repeat=2):
        if add_t[x][y] != add_t[y][x]:
            raise AxiomViolation("monoid", (x, y), "commutativity fails")
    for x, y, z in itertools.product(rng, repeat=3):
        if add_t[add_t[x][y]][z] != add_t[x][add_t[y][z]]:
            raise AxiomViolation("monoid", (x, y, z), "associativity fails")

    jt = lattice.join_table
    for m, x, y in itertools.product(rng, repeat=3):
        if add_t[m][jt[x][y]] != jt[add_t[m][x]][add_t[m][y]]:
            raise AxiomViolation("S", (m, x, y))

    rr = range(ring.order)
    for r in rr:
        for x, y in itertools.product(rng, repeat=2):
            if act_t[r][add_t[x][y]] != add_t[act_t[r][x]][act_t[r][y]]:
                raise AxiomViolation("M1", (r, x, y))
    for r1, r2 in itertools.product(rr, repeat=2):
        s = ring.add[r1][r2]
        p = ring.mul[r1][r2]
        for m in rng:
            if not lattice.leq[act_t[s][m]][add_t[act_t[r1][m]][act_t[r2][m]]]:
                raise AxiomViolation("M2", (r1, r2, m))
            if act_t[p][m] != act_t[r1][act_t[r2][m]]:
                raise AxiomViolation("M3", (r1, r2, m))
    for m in rng:
        if act_t[ring.one][m] != m:
            raise AxiomViolation("M4", (ring.one, m), "1*m != m")
        if act_t[ring.zero][m] != zero_m:
            raise AxiomViolation("M4", (ring.zero, m), "0_R*m != 0_M")
    for r in rr:
        if act_t[r][zero_m] != zero_m:
            raise AxiomViolation("M4", (r, zero_m), "r*0_M != 0_M")
    for r in rr:
        for x, y in itertools.product(rng, repeat=2):
            if act_t[r][jt[x][y]] != jt[act_t[r][x]][act_t[r][y]]:
                raise AxiomViolation("M5", (r, x, y))

    labels = tuple(element_labels) if element_labels is not None else None
    if labels is not None and len(labels) != n:
        raise ValueError("element_labels length must equal lattice size")
    return LeModuleInstance(ring, lattice, add_t, zero_m, act_t, name, labels)


def is_submodule_element(mod: LeModuleInstance, n: int) -> bool:
    """n + n <= n and r n <= n for every scalar r."""
    lat = mod.lattice
    if not lat.leq[mod.add[n][n]][n]:
        return False
    return all(lat.leq[mod.action[r][n]][n] for r in range(mod.ring.order))


@per_object
def submodule_elements(mod: LeModuleInstance) -> tuple[int, ...]:
    return tuple(
        n for n in range(mod.lattice.size) if is_submodule_element(mod, n)
    )


def _additive_join_closure(mod: LeModuleInstance, seed: Iterable[int]) -> int:
    """Join of the closure of the seed under the monoid sum."""
    members = set(seed)
    frontier = list(members)
    while frontier:
        a = frontier.pop()
        for b in list(members):
            c = mod.add[a][b]
            if c not in members:
                members.add(c)
                frontier.append(c)
    from .lattices import join_all

    return join_all(mod.lattice, sorted(members))


def sum_submodule_elements(mod: LeModuleInstance, family: Iterable[int]) -> int:
    """Smallest submodule element above every finite sum from the family."""
    seed = list(family)
    if not seed:
        raise EmptyFamily("sum over the empty family is undefined")
    return _additive_join_closure(mod, seed)


@per_object
def colon_set(mod: LeModuleInstance, x: int) -> frozenset[int]:
    """Scalars sending the top below x; an ideal when x is a submodule element."""
    top = mod.lattice.top
    return frozenset(
        r for r in range(mod.ring.order) if mod.lattice.leq[mod.action[r][top]][x]
    )


@per_object
def colon(mod: LeModuleInstance, n: int) -> Ideal:
    """The colon ideal (n : e) of a submodule element."""
    members = colon_set(mod, n)
    ideal = Ideal(mod.ring, members)
    if not is_ideal(mod.ring, members):
        raise AxiomViolation("colon-ideal", (n,), "colon set is not an ideal")
    return ideal


def annihilator(mod: LeModuleInstance) -> Ideal:
    """(0_M : e)."""
    return colon(mod, mod.zero_m)


@per_object
def ideal_action(mod: LeModuleInstance, ideal: Ideal) -> int:
    """The submodule element generated by {a*e : a in I}."""
    top = mod.lattice.top
    seed = {mod.action[a][top] for a in ideal.members}
    seed.add(mod.zero_m)
    return _additive_join_closure(mod, sorted(seed))


def galois_adjunction_check(mod: LeModuleInstance, ideal: Ideal, n: int) -> bool:
    """Ie <= n holds exactly when I is inside (n : e)."""
    lhs = mod.lattice.leq[ideal_action(mod, ideal)][n]
    rhs = ideal.members <= colon_set(mod, n)
    return lhs == rhs


def is_prime_submodule_element(mod: LeModuleInstance, p: int) -> bool:
    """Proper submodule element p with: r n <= p forces r e <= p or n <= p.

    The quantifier runs over every lattice element n, not just submodule
    elements.
    """
    lat = mod.lattice
    if p == lat.top or not is_submodule_element(mod, p):
        return False
    cp = colon_set(mod, p)
    for r in range(mod.ring.order):
        if r in cp:
            continue
        for n in range(lat.size):
            if lat.leq[mod.action[r][n]][p] and not lat.leq[n][p]:
                return False
    return True


@per_object
def spectrum(mod: LeModuleInstance) -> tuple[int, ...]:
    """All prime submodule elements, in index order."""
    return tuple(
        p for p in range(mod.lattice.size) if is_prime_submodule_element(mod, p)
    )


@per_object
def colon_fibers(mod: LeModuleInstance) -> dict[frozenset[int], tuple[int, ...]]:
    """Spectrum points grouped by colon set, each group in spectrum order."""
    fibers: dict[frozenset[int], tuple[int, ...]] = {}
    for p in spectrum(mod):
        c = colon_set(mod, p)
        fibers[c] = fibers.get(c, ()) + (p,)
    return fibers


def spectrum_at(mod: LeModuleInstance, prime: Ideal) -> tuple[int, ...]:
    """Primes of the module whose colon ideal is the given ring prime."""
    if not is_prime_ideal(mod.ring, prime):
        raise NotPrimeIdeal(f"{sorted(prime.members)} is not prime in {mod.ring.name}")
    return colon_fibers(mod).get(prime.members, ())

"""Finite bounded lattices, held as the up-set and down-set of each element.

Bit b of ``up[a]`` is set when a <= b, and of ``down[a]`` when b <= a; the
join of a and b is the element whose up-set is ``up[a] & up[b]``, the meet
likewise.  ``make_lattice`` validates an order table in the order poset
axioms, bounds, binary lub/glb, so an antichain of two maximal elements
reports a missing top rather than a missing join.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Callable, Hashable, Iterable, Mapping, Sequence, TypeVar

from .errors import EmptyFamily, NotALattice, NotAPoset, Unbounded
from .memo import per_object, record

IntTable = tuple[tuple[int, ...], ...]
G = TypeVar("G")
S = TypeVar("S", bound=Hashable)


@record
class FiniteBoundedLattice:
    """A finite lattice: the up-set and the down-set of each element, as masks."""

    size: int
    top: int
    bottom: int
    up: tuple[int, ...]
    down: tuple[int, ...]

    @functools.cached_property
    def by_up(self) -> dict[int, int]:
        """The element with each up-set."""
        return {mask: a for a, mask in enumerate(self.up)}

    @functools.cached_property
    def by_down(self) -> dict[int, int]:
        """The element with each down-set."""
        return {mask: a for a, mask in enumerate(self.down)}

    @functools.cached_property
    def leq(self) -> tuple[tuple[bool, ...], ...]:
        """The order as a table, leq[a][b] for a <= b, built on first use."""
        width = f"0{self.size}b"
        return tuple(tuple(map("1".__eq__, reversed(format(u, width)))) for u in self.up)

    def le(self, a: int, b: int) -> bool:
        return self.up[a] >> b & 1 == 1

    def join(self, a: int, b: int) -> int:
        return self.by_up[self.up[a] & self.up[b]]

    def meet(self, a: int, b: int) -> int:
        return self.by_down[self.down[a] & self.down[b]]

    def covers(self) -> tuple[tuple[int, int], ...]:
        """Pairs (a, b) with a < b and nothing strictly between, in order:
        the b are the elements of a's strict up-set S above no other of S."""
        strict = [u ^ 1 << a for a, u in enumerate(self.up)]
        out = []
        for a, s in enumerate(strict):
            above = functools.reduce(operator.or_, map(strict.__getitem__, elements(s)), 0)
            out += ((a, b) for b in elements(s & ~above))
        return tuple(out)


def elements(mask: int) -> list[int]:
    """The indices of the set bits of a mask, in increasing order."""
    # Read backwards, bin(mask) has bit k as its k-th character.
    return list(itertools.compress(itertools.count(), map("1".__eq__, reversed(bin(mask)))))


def make_lattice(size: int, leq: Sequence[Sequence[bool]]) -> FiniteBoundedLattice:
    """Validate the order table and return its lattice; raises on the first
    law that fails, with the witness a cell-by-cell scan would name."""
    if size < 1:
        raise ValueError("size must be positive")
    if len(leq) != size or any(len(row) != size for row in leq):
        raise ValueError(f"leq must be a {size}x{size} table")

    rng = range(size)
    # The lowest set bit of a mask is the first witness a scan would meet.
    bits = [1 << x for x in rng]
    up = tuple(sum(itertools.compress(bits, row)) for row in leq)
    down = tuple(sum(itertools.compress(bits, col)) for col in zip(*leq))
    for a in rng:
        if not up[a] >> a & 1:
            raise NotAPoset("reflexivity", (a,))
    for a in rng:
        both = up[a] & down[a] & ~(1 << a)
        if both:
            raise NotAPoset("antisymmetry", (a, elements(both)[0]))
    for a, row in enumerate(leq):
        if functools.reduce(operator.or_, itertools.compress(up, row), 0) & ~up[a]:
            b = next(b for b in itertools.compress(rng, row) if up[b] & ~up[a])
            raise NotAPoset("transitivity", (a, b, elements(up[b] & ~up[a])[0]))

    full = (1 << size) - 1
    top = next((t for t in rng if down[t] == full), None)
    if top is None:
        raise Unbounded("no greatest element")
    bottom = next((b for b in rng if up[b] == full), None)
    if bottom is None:
        raise Unbounded("no least element")

    # In a poset, u is the least upper bound of a and b exactly when the
    # elements above u are those above both.  A finite poset with a least
    # element in which every pair has a join is a lattice (Davey and
    # Priestley, Introduction to Lattices and Order, 2nd ed., 2002, ch. 2),
    # so only joins are looked for, by building the join table that the
    # lattice keeps; ``join_rows`` names the first bound missing.
    lat = FiniteBoundedLattice(size, top, bottom, up, down)
    join_rows(lat)
    return lat


def lattice_of_sets(sets: Sequence[frozenset[int]]) -> FiniteBoundedLattice:
    """The lattice of distinct ideals or submodules under inclusion,
    unchecked; its join is their sum (``rings._ideal_sum``), for ideals and
    submodules alike.  With holders[x] the mask of the sets holding x, the
    sets above A are the AND of holders[x] over x in A, and those below A
    hold nothing outside A."""
    full = (1 << len(sets)) - 1
    holders: dict[int, int] = {}
    for k, s in enumerate(sets):
        for x in s:
            holders[x] = holders.get(x, 0) | 1 << k
    every, get = holders.keys(), holders.__getitem__
    up = tuple(functools.reduce(operator.and_, map(get, s), full) for s in sets)
    down = tuple(full ^ functools.reduce(operator.or_, map(get, every - s), 0) for s in sets)
    return FiniteBoundedLattice(len(sets), down.index(full), up.index(full), up, down)


@per_object
def join_rows(lat: FiniteBoundedLattice) -> IntTable:
    """The join as a table, kept on the lattice.  It is symmetric, so row a
    copies its entries b < a from the rows before it, in one C call, and
    looks up only b >= a.  Where a join is missing (an order that is not a
    lattice, or a hand-built lattice), the rows are scanned in order, joins
    before meets at each cell, and NotALattice names the first bound
    missing."""
    lub, up = lat.by_up.__getitem__, lat.up
    rows: list[tuple[int, ...]] = []
    try:
        for a, ua in enumerate(up):
            row = list(map(operator.itemgetter(a), rows))
            row += map(lub, map(ua.__and__, up[a:]))
            rows.append(tuple(row))
    except KeyError:
        down = lat.down
        ups, downs = set(up), set(down)
        for a, b in itertools.product(range(lat.size), repeat=2):
            if up[a] & up[b] not in ups:
                raise NotALattice("least upper bound", (a, b)) from None
            if down[a] & down[b] not in downs:
                raise NotALattice("greatest lower bound", (a, b)) from None
    return tuple(rows)


def join_all(lat: FiniteBoundedLattice, elems: Iterable[int]) -> int:
    """Join of a nonempty family: the element above exactly what is above all."""
    ups = list(map(lat.up.__getitem__, elems))
    if not ups:
        raise EmptyFamily("join over the empty family is undefined")
    return lat.by_up[functools.reduce(operator.and_, ups)]


def meet_all(lat: FiniteBoundedLattice, elems: Iterable[int]) -> int:
    """Meet of a nonempty family: the element below exactly what is below all."""
    downs = list(map(lat.down.__getitem__, elems))
    if not downs:
        raise EmptyFamily("meet over the empty family is undefined")
    return lat.by_down[functools.reduce(operator.and_, downs)]


def generated(
    generators: Mapping[G, S], combine: Callable[[S, S], S]
) -> dict[S, tuple[G, ...]]:
    """Every state of a nonempty family of generators, with a family reaching it.

    ``generators`` maps each generator to the state of its one-element family,
    and ``combine(s, t)`` is the state of the family with state s extended by
    a generator with state t.  The singleton states are closed under
    combining with one more generator, breadth first and in generator order,
    so each state maps to the first, and a shortest, generating tuple found.
    """
    found: dict[S, tuple[G, ...]] = {}
    for g, s in generators.items():
        found.setdefault(s, (g,))
    work = list(found)
    for state in work:
        family = found[state]
        for g, s in generators.items():
            t = combine(state, s)
            if t not in found:
                found[t] = family + (g,)
                work.append(t)
    return found


def chain_lattice(n: int) -> FiniteBoundedLattice:
    """The n-element chain 0 < 1 < ... < n-1."""
    return make_lattice(n, [[a <= b for b in range(n)] for a in range(n)])

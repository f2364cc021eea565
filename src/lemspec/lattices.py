"""Finite bounded lattices from an order table.

``leq`` is a boolean matrix over 0..size-1.  Validation runs in the order
poset axioms, then bounds, then binary lub/glb, so an antichain of two
maximal elements reports a missing top rather than a missing join.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Mapping, Sequence, TypeVar

from .errors import EmptyFamily, NotALattice, NotAPoset, Unbounded
from .memo import record

BoolTable = tuple[tuple[bool, ...], ...]
IntTable = tuple[tuple[int, ...], ...]
G = TypeVar("G")
S = TypeVar("S", bound=Hashable)


@record
class FiniteBoundedLattice:
    """A finite lattice with precomputed join and meet tables."""

    size: int
    leq: BoolTable
    top: int
    bottom: int
    join_table: IntTable
    meet_table: IntTable

    def le(self, a: int, b: int) -> bool:
        return self.leq[a][b]

    def join(self, a: int, b: int) -> int:
        return self.join_table[a][b]

    def meet(self, a: int, b: int) -> int:
        return self.meet_table[a][b]

    def covers(self) -> tuple[tuple[int, int], ...]:
        """Pairs (a, b) with a < b and nothing strictly between."""
        out = []
        for a, b in itertools.product(range(self.size), repeat=2):
            if a == b or not self.leq[a][b]:
                continue
            between = any(
                z != a and z != b and self.leq[a][z] and self.leq[z][b]
                for z in range(self.size)
            )
            if not between:
                out.append((a, b))
        return tuple(out)


def make_lattice(size: int, leq: Sequence[Sequence[bool]]) -> FiniteBoundedLattice:
    """Validate the order table and precompute join/meet tables."""
    if size < 1:
        raise ValueError("size must be positive")
    table: BoolTable = tuple(tuple(map(bool, row)) for row in leq)
    if len(table) != size or any(len(row) != size for row in table):
        raise ValueError(f"leq must be a {size}x{size} table")

    rng = range(size)
    # up[a] and down[a] are bitmasks of the elements above and below a; the
    # lowest set bit of a nonzero mask is the first witness a scan over
    # increasing indices would meet.
    bits = [1 << x for x in rng]
    up = [sum(itertools.compress(bits, row)) for row in table]
    down = [sum(itertools.compress(bits, col)) for col in zip(*table)]
    for a in rng:
        if not table[a][a]:
            raise NotAPoset("reflexivity", (a,))
    for a in rng:
        both = up[a] & down[a] & ~(1 << a)
        if both:
            raise NotAPoset("antisymmetry", (a, _lowest(both)))
    for a in rng:
        for b in itertools.compress(rng, table[a]):
            if up[b] & ~up[a]:
                raise NotAPoset("transitivity", (a, b, _lowest(up[b] & ~up[a])))

    full = (1 << size) - 1
    top = next((t for t in rng if down[t] == full), None)
    if top is None:
        raise Unbounded("no greatest element")
    bottom = next((b for b in rng if up[b] == full), None)
    if bottom is None:
        raise Unbounded("no least element")

    # In a poset, u is the least upper bound of a and b exactly when the
    # elements above u are those above both; antisymmetry makes u unique.
    # Both tables are symmetric, so row a copies its entries b < a from the
    # rows before it, in one C call, and looks up only b >= a.  Those rows
    # had every bound, so row a is what a full lookup would give, and a
    # missing bound is first met at the same (a, b).
    lub = {mask: u for u, mask in enumerate(up)}
    glb = {mask: l for l, mask in enumerate(down)}
    join_rows: list[tuple[int, ...]] = []
    meet_rows: list[tuple[int, ...]] = []
    for a in rng:
        before, ua, da = itemgetter(a), up[a], down[a]
        jrow = list(map(before, join_rows))
        jrow += [lub.get(ua & mask) for mask in up[a:]]
        mrow = list(map(before, meet_rows))
        mrow += [glb.get(da & mask) for mask in down[a:]]
        if None in jrow or None in mrow:
            b = min(row.index(None) for row in (jrow, mrow) if None in row)
            kind = "least upper bound" if jrow[b] is None else "greatest lower bound"
            raise NotALattice(kind, (a, b))
        join_rows.append(tuple(jrow))
        meet_rows.append(tuple(mrow))
    return FiniteBoundedLattice(size, table, top, bottom, tuple(join_rows), tuple(meet_rows))


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def join_all(lat: FiniteBoundedLattice, elems: Iterable[int]) -> int:
    """Join of a nonempty family."""
    it = iter(elems)
    try:
        acc = next(it)
    except StopIteration:
        raise EmptyFamily("join over the empty family is undefined") from None
    for x in it:
        acc = lat.join_table[acc][x]
    return acc


def meet_all(lat: FiniteBoundedLattice, elems: Iterable[int]) -> int:
    """Meet of a nonempty family."""
    it = iter(elems)
    try:
        acc = next(it)
    except StopIteration:
        raise EmptyFamily("meet over the empty family is undefined") from None
    for x in it:
        acc = lat.meet_table[acc][x]
    return acc


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

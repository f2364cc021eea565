"""Law checks over operation tables, one row at a time.

A law over the cells (a, b, c) of finite tables is checked, for a fixed
(a, b), as one comparison of two rows over c.  ``gathers`` builds, once per
table, callables that produce such a row in one C call, and
``first_failure`` finds, in a row that failed, the cell and the law that a
cell-by-cell scan meets first, so a rejected table reports the same witness
as the plain triple loop.

When the values of one index at which a law holds are closed under a
table's operation, the law holds on every cell once it holds where that
index is a generator of the table.  ``generators`` picks such a set G and
``first_bad`` or ``first_bad_pair`` checks there, so a valid table costs
n·|G| rows instead of n².  The closure arguments, and when the generators
also name the first failing cell, are in the docstring of ``generators``.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter, ne
from typing import Callable, Iterable, Sequence

Pair = tuple[int, int]
Rows = Callable[[int, int], tuple]


def freeze(table: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    """The table as a tuple of tuples of ints; one already so is returned
    as it is, checked in C, and any other is converted entry by entry."""
    if type(table) is tuple and set(map(type, table)) <= {tuple}:
        if set(map(type, chain.from_iterable(table))) == {int}:
            return table
    return tuple(tuple(map(int, row)) for row in table)


def gather(idx: Sequence[int]) -> Callable[[Sequence[int]], tuple]:
    """``gather(idx)(row) == tuple(row[i] for i in idx)``, for nonempty idx."""
    if len(idx) == 1:
        # itemgetter with one index returns the item itself, not a 1-tuple.
        i = idx[0]
        return lambda row: (row[i],)
    return itemgetter(*idx)


def gathers(table: Sequence[Sequence[int]]) -> list[Callable[[Sequence[int]], tuple]]:
    """``g[t](row) == tuple(row[i] for i in table[t])`` for each row index t."""
    return [gather(idx) for idx in table]


def first_failure(*laws: tuple[Sequence, Sequence]) -> tuple[int, int]:
    """(cell, law index) where a cell-by-cell scan of one row first fails.

    Each law is a pair of rows that must be equal, given in the order in
    which the scan checks the laws at one cell; at least one pair differs.
    """
    return min(
        (next(c for c, (x, y) in enumerate(zip(lhs, rhs)) if x != y), k)
        for k, (lhs, rhs) in enumerate(laws)
        if lhs != rhs
    )


def generators(table: Sequence[Sequence[int]]) -> list[int]:
    """Indices G from which x ↦ table[g][x], g in G, reaches every index.

    G is greedy in index order: each index not yet reached becomes the next
    generator, and the reached set grows incrementally, so each reached
    element meets each generator once, O(n·|G|) in all, and only the
    generators' rows are read.  An identity gets no special treatment; an
    element that no product reaches, such as the zero of a monoid whose
    sums only grow, is a generator like any other.  The callers' tables are
    commutative, so table[g][x] is x∘g below.

    Why checking a law only at b in G is exact (write x∘y = table[x][y]):

    - Associativity (Light's test; Clifford and Preston, The Algebraic
      Theory of Semigroups I, 1961).  The b with (a∘b)∘c = a∘(b∘c) for all
      a, c are closed under ∘: for two such b, b',
      (a∘(b∘b'))∘c = ((a∘b)∘b')∘c = (a∘b)∘(b'∘c) = a∘(b∘(b'∘c))
      = a∘((b∘b')∘c).  Every index is a product of generators, so the law
      holds at every b once it holds at each generator.
    - Distributivity a(b+c) = ab + ac, once + is associative: for two good
      b, b', a((b+b')+c) = a(b+(b'+c)) = ab + (ab' + ac) = (ab + ab') + ac
      = a(b+b') + ac.  The action law r(m+y) = rm + ry (M1) is the same
      argument with m in place of b.
    - Associativity of a commutative multiplication, once it distributes
      over +: for two good b, b', (a(b+b'))c = (ab)c + (ab')c
      = a(bc) + a(b'c) = a((b+b')c).
    - m + (x ∨ y) = (m+x) ∨ (m+y) (axiom S), once + is associative: for
      two good m, m', (m+m') + (x ∨ y) = m + ((m'+x) ∨ (m'+y))
      = ((m+m')+x) ∨ ((m+m')+y).  No law of ∨ is used, so the join table
      need not be a lattice join.

    Each argument uses only laws that the caller has already checked on
    every cell, never one checked later.

    When the scan at the generators alone names the first failing cell:
    each index outside G was reached from smaller generators before the
    loop came to it, so it is a product of generators smaller than itself.
    When the indices at which a law holds are closed, the least index at
    which it fails is therefore a generator.  For M1 and action-add they
    are closed at each fixed scalar r, the pair's first index; for S the
    generator index m is itself the pair's first index.  Either way,
    scanning G in increasing order meets the same first failing pair as
    scanning every index, so these need no rescan (``first_bad``).
    Associativity is closed only over all a at once, and a comes first in
    its pairs, so a failed generator row is rescanned in full
    (``first_bad_pair``), as the ring laws are.
    """
    n = len(table)
    reached = [False] * n
    done: list[int] = []  # reached indices, each combined with every generator so far
    gens: list[int] = []
    for g in range(n):
        if reached[g]:
            continue
        gens.append(g)
        reached[g] = True
        new = [g]
        for x in done:
            y = table[g][x]
            if not reached[y]:
                reached[y] = True
                new.append(y)
        for x in new:  # grows while it is walked
            for h in gens:
                y = table[h][x]
                if not reached[y]:
                    reached[y] = True
                    new.append(y)
        done += new
    return gens


def first_bad(rows: Rows, pairs: Iterable[Pair]) -> Pair | None:
    """The first pair whose two rows ``rows(i, j)`` differ, or None."""
    return next((p for p in pairs if ne(*rows(*p))), None)


def first_bad_pair(rows: Rows, at_generators: Iterable[Pair], everywhere: Iterable[Pair]) -> Pair | None:
    """The first pair of ``everywhere`` whose rows differ, or None.

    ``at_generators`` are the pairs whose one index ranges over
    ``generators`` of a table the law is closed under, so the law holds on
    every pair when it holds on these.  Only if one of them fails is
    ``everywhere`` scanned, in its own order, to name the first witness.
    """
    if first_bad(rows, at_generators) is None:
        return None
    return first_bad(rows, everywhere)

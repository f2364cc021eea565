"""Law checks over operation tables, one row at a time.

A law over the cells (a, b, c) of finite tables is checked, for a fixed
(a, b), as one comparison of two rows over c.  ``gathers`` builds, once per
table, callables that produce such a row in one C call, and
``first_failure`` finds, in a row that failed, the cell and the law that a
cell-by-cell scan meets first, so a rejected table reports the same witness
as the plain triple loop.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Sequence


def _gather_one(i: int) -> Callable[[Sequence[int]], tuple]:
    # itemgetter with one index returns the item itself, not a 1-tuple.
    return lambda row: (row[i],)


def gathers(table: Sequence[Sequence[int]]) -> list[Callable[[Sequence[int]], tuple]]:
    """``g[t](row) == tuple(row[i] for i in table[t])`` for each row index t."""
    return [itemgetter(*idx) if len(idx) != 1 else _gather_one(idx[0]) for idx in table]


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

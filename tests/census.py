"""The census: every le-module on a lattice of at most six elements.

The lattices are one per isomorphism class, 1, 1, 1, 2, 5 and 15 of sizes
1 to 6, and the rings are Z2, Z3, Z4 and Z2xZ2.  A module is a pair of a
sum table and an action table on the representative lattice; two such
pairs that a lattice automorphism carries one to the other are both kept.
That gives 5,177 modules, every one accepted by ``make_le_module``.

The search prunes by the laws themselves, not by ``make_le_module``:

- 0_M is the bottom b.  M4 and M5 make each action row a join-endomorphism
  f with f(0_M) = 0_M, so (-1)b <= 0_M, and b + (-1)b <= b + 0_M = b by S;
  M2 at 1 + (-1) gives 0_M <= b + (-1)b.
- Each translation x -> m + x is a join-endomorphism (S) that sends b to m;
  the rows are chosen so that they commute, and kept when they associate.
- r -> the action row of r is a monoid map from (R, *) (M3, M4) into the
  join-endomorphisms that fix b (M5, M4) and preserve + (M1); rows are
  chosen one scalar at a time, and each law at (r, s) is checked as soon
  as the rows it reads are chosen, M2 with them.

The lattices are labelled so that a < b gives a lower index than b: the
bottom is 0, the top n - 1.
"""

from __future__ import annotations

import functools
import itertools

from lemspec.errors import NotALattice
from lemspec.lattices import FiniteBoundedLattice, join_rows, make_lattice
from lemspec.le_modules import LeModuleInstance, make_le_module
from lemspec.rings import FiniteRing, make_zn, product_ring

IntTable = tuple[tuple[int, ...], ...]


def small_lattices(n: int) -> list[FiniteBoundedLattice]:
    """One lattice of size n per isomorphism class, each the first of its
    class in the order of the strict order relations on 1..n-2 (as bit
    masks over the pairs a < b) that extend the index order."""
    if n == 1:
        return [make_lattice(1, [[True]])]
    mid = range(1, n - 1)
    pairs = list(itertools.combinations(mid, 2))
    seen, out = set(), []
    for bits in range(1 << len(pairs)):
        rel = {p for k, p in enumerate(pairs) if bits >> k & 1}
        triples = itertools.combinations(mid, 3)
        if any({(a, b), (b, c)} <= rel and (a, c) not in rel for a, b, c in triples):
            continue
        leq = [[a in (0, b) or b == n - 1 or (a, b) in rel for b in range(n)] for a in range(n)]
        try:
            lat = make_lattice(n, leq)
        except NotALattice:
            continue
        perms = ((0, *p, n - 1) for p in itertools.permutations(mid))
        key = min(tuple(tuple(leq[s[a]][s[b]] for b in range(n)) for a in range(n)) for s in perms)
        if key not in seen:
            seen.add(key)
            out.append(lat)
    return out


def join_endomorphisms(lat: FiniteBoundedLattice) -> list[tuple[int, ...]]:
    """Every map f with f(a v b) = f(a) v f(b), in lexicographic order.
    The join of a and b has an index at least theirs, so each pair is
    checked when its join is given its value: f(a) v f(b) = f(c) for the
    a < b < c that join to c, and f(a) <= f(c) for the a below c."""
    n, jt = lat.size, join_rows(lat)
    pairs = [[(a, b) for a in range(c) for b in range(a + 1, c) if jt[a][b] == c] for c in range(n)]
    below = [[a for a in range(c) if jt[a][c] == c] for c in range(n)]
    out, f = [], []

    def grow() -> None:
        c = len(f)
        if c == n:
            out.append(tuple(f))
            return
        for v in range(n):
            if all(jt[f[a]][v] == v for a in below[c]) and all(
                jt[f[a]][f[b]] == v for a, b in pairs[c]
            ):
                f.append(v)
                grow()
                f.pop()

    grow()
    return out


def sums(lat: FiniteBoundedLattice, endos: list[tuple[int, ...]]) -> list[IntTable]:
    """Every commutative and associative sum with the bottom as its zero
    whose translations are join-endomorphisms."""
    n, b = lat.size, lat.bottom
    by_zero: dict[int, list[tuple[int, ...]]] = {}
    for f in endos:
        by_zero.setdefault(f[b], []).append(f)
    rows: list = [None] * n
    rows[b] = tuple(range(n))
    out = []

    def grow(m: int) -> None:
        if m == n:
            t = tuple(rows)
            # (x + y) + z = x + (y + z), a row at a time.
            pairs = itertools.product(range(n), repeat=2)
            if all(t[t[x][y]] == tuple(map(t[x].__getitem__, t[y])) for x, y in pairs):
                out.append(t)
            return
        if m == b:
            return grow(m + 1)
        for f in by_zero.get(m, ()):
            if all(f[x] == rows[x][m] for x in range(m) if x != b):
                rows[m] = f
                grow(m + 1)
        rows[m] = None

    grow(0)
    return out


def action_rows(lat: FiniteBoundedLattice, add: IntTable,
                endos: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The join-endomorphisms that fix the bottom and preserve the sum."""
    b, rng = lat.bottom, range(lat.size)
    return [f for f in endos if f[b] == b and all(
        f[add[x][y]] == add[f[x]][f[y]] for x in rng for y in rng)]


def actions(ring: FiniteRing, lat: FiniteBoundedLattice, add: IntTable,
            cands: list[tuple[int, ...]]) -> list[IntTable]:
    """Every action of the ring by rows from ``action_rows``, with M2 and
    M3 at every pair of scalars."""
    n, b, le = lat.size, lat.bottom, lat.le
    rng = range(n)
    rows = {ring.zero: (b,) * n, ring.one: tuple(rng)}
    free = [r for r in range(ring.order) if r not in rows]
    # The laws at (r, s) read the rows of r, s, rs and r + s, so they are
    # checked at the step that chooses the last of these: step 0 for the
    # fixed rows, and those of a later step that read no other free row
    # prune its candidates once, before the search.
    step = dict.fromkeys(rows, 0) | {r: k for k, r in enumerate(free, 1)}
    due: list[list[tuple[int, int]]] = [[] for _ in range(len(free) + 1)]
    own: list[list[tuple[int, int]]] = [[] for _ in range(len(free) + 1)]
    for r, s in itertools.product(range(ring.order), repeat=2):
        read = (r, s, ring.mul[r][s], ring.add[r][s])
        k = max(map(step.__getitem__, read))
        if all(step[x] in (0, k) for x in read):
            own[k].append((r, s))
        else:
            due[k].append((r, s))

    def lawful(pairs: list[tuple[int, int]]) -> bool:
        for r, s in pairs:
            fr, fs = rows[r], rows[s]
            if rows[ring.mul[r][s]] != tuple(map(fr.__getitem__, fs)):
                return False
            plus = rows[ring.add[r][s]]
            if not all(le(plus[m], add[fr[m]][fs[m]]) for m in rng):
                return False
        return True

    if not lawful(own[0]):
        return []
    options: list[list[tuple[int, ...]]] = [[]]
    for k, r in enumerate(free, 1):
        options.append([])
        for f in cands:
            rows[r] = f
            if lawful(own[k]):
                options[k].append(f)
        del rows[r]
    out = []

    def grow(k: int) -> None:
        if k > len(free):
            out.append(tuple(rows[r] for r in range(ring.order)))
            return
        for f in options[k]:
            rows[free[k - 1]] = f
            if lawful(due[k]):
                grow(k + 1)
        del rows[free[k - 1]]

    grow(1)
    return out


RINGS = (make_zn(2), make_zn(3), make_zn(4), product_ring(make_zn(2), make_zn(2)))


@functools.cache
def census_tables() -> tuple[tuple[FiniteRing, FiniteBoundedLattice, IntTable, IntTable, str], ...]:
    """(ring, lattice, sum, action, name) for every module of the census,
    by lattice, then sum, then ring, then action."""
    out = []
    lattices = [lat for n in range(1, 7) for lat in small_lattices(n)]
    for i, lat in enumerate(lattices):
        endos = join_endomorphisms(lat)
        for j, add in enumerate(sums(lat, endos)):
            cands = action_rows(lat, add, endos)
            for ring in RINGS:
                for k, act in enumerate(actions(ring, lat, add, cands)):
                    out.append((ring, lat, add, act, f"census-L{i}-S{j}-{ring.name}-A{k}"))
    return tuple(out)


@functools.cache
def census() -> tuple[LeModuleInstance, ...]:
    """The census as instances, each accepted by ``make_le_module``, which
    raises on a module that breaks a law.  They are built once per session,
    so each test that reads one releases its derived data after use
    (``memo.release``): no memo entry and no planted table reaches another
    test."""
    return tuple(
        make_le_module(ring, lat, add, lat.bottom, act, name)
        for ring, lat, add, act, name in census_tables()
    )

"""Lattice-enriched modules: a complete lattice carrying a commutative
monoid and a ring action, with the compatibility laws checked exactly: those
with three free indices through the additive generators, and S and M5, when
the sum is the join, through the laws they then reduce to.  The tables pass
one shape-and-range gate, ``rings.check_table_shape``, and a sum whose table
is the join table that ``make_lattice`` keeps needs no commutativity or
associativity scan.  Prime elements are found with masks of preimages under
each scalar's row.

The lattice top plays the role of the distinguished element e; the monoid
zero ``zero_m`` need not be the lattice bottom a priori, but the laws force
the bottom in valid instances.  Element indices refer to the lattice.
"""

from __future__ import annotations

import itertools
from operator import getitem
from typing import Iterable

from .errors import AxiomViolation
from .lattices import FiniteBoundedLattice, elements, join_all, join_rows
from .memo import per_object, record
from .rings import FiniteRing, Ideal, LazyRows, all_ideals, check_table_shape, ideal_table
from .rowscan import first_bad, first_bad_pair, first_failure, freeze, gathers, generators

IntTable = tuple[tuple[int, ...], ...]


@record
class LeModuleInstance:
    """A validated lattice-enriched module over a finite ring.

    ``add[x][y]`` is the monoid sum, ``LazyRows`` on a built module;
    ``action[r][m]`` the scalar action.  ``element_labels`` is display-only.
    """

    ring: FiniteRing
    lattice: FiniteBoundedLattice
    add: IntTable | LazyRows
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


def make_le_module(
    ring: FiniteRing,
    lattice: FiniteBoundedLattice,
    add,
    zero_m: int,
    action,
    name: str = "M",
    element_labels=None,
) -> LeModuleInstance:
    """Check every law exactly; a violation raises AxiomViolation with the
    cell that a cell-by-cell scan of the laws, in order, meets first.

    Axiom tags: "monoid" for the commutative-monoid laws, "S" for sum
    distributing over joins, "M1".."M5" for the action laws.

    The sum is the join exactly when it equals ``join_rows(lattice)``, whose
    cell (a, b) is the element with up-set U(a) & U(b), U(x) = ``up[x]``:
    then U is one-to-one (by ``make_lattice``, or on a hand-built lattice by
    the identity row, checked first) and U(a + b) = U(a) & U(b), so + is
    idempotent, commutative and associative, as & is.  A hand-built lattice
    with a missing join has no join table: ``join_rows`` raises
    NotALattice at the cell that ``make_lattice`` would name."""
    n = lattice.size
    add_t = freeze(add)
    act_t = freeze(action)
    check_table_shape(add_t, n, n, "add")
    check_table_shape(act_t, ring.order, n, "action")
    if not 0 <= zero_m < n:
        raise ValueError("zero_m out of range")

    # Each law is checked a row at a time over its last index; the witness of
    # a failed row is the first failing cell, as a loop over the indices in
    # the order of the tuple would find it.
    rng = range(n)
    identity = tuple(rng)
    if add_t[zero_m] != identity:
        x = first_failure((add_t[zero_m], identity))[0]
        raise AxiomViolation("monoid", (zero_m, x), "identity fails")
    # A sum that is the join, written ∘, is idempotent, commutative and
    # associative: then m∘(x∘y) = (m∘x)∘(m∘y), which is S, and M5,
    # r(x∘y) = rx∘ry, is M1.  Other sums are scanned against the join table.
    # A law whose good values of one index are closed under + is checked at
    # the additive generators only: associativity by Light's test, then S
    # and M1, whose closure arguments use associativity alone and which
    # first fail at a generator (see ``rowscan.generators``).  M5 keeps its
    # full scan: reducing it would need generators of the join.
    add_get = gathers(add_t)
    jt = join_rows(lattice)
    join_is_sum = add_t == jt
    if not join_is_sum:
        add_cols = tuple(zip(*add_t))
        for x in rng:
            if add_t[x] != add_cols[x]:
                y = first_failure((add_t[x], add_cols[x]))[0]
                raise AxiomViolation("monoid", (x, y), "commutativity fails")
    gens = generators(add_t)
    if not join_is_sum:

        def assoc(x: int, y: int) -> tuple[tuple, tuple]:
            # (x+y)+z against x+(y+z)
            return add_t[add_t[x][y]], add_get[y](add_t[x])

        bad = first_bad_pair(assoc, itertools.product(rng, gens), itertools.product(rng, repeat=2))
        if bad is not None:
            z = first_failure(assoc(*bad))[0]
            raise AxiomViolation("monoid", (*bad, z), "associativity fails")
        join_get = gathers(jt)

        def s_law(m: int, x: int) -> tuple[tuple, tuple]:
            # m + (x v y) against (m+x) v (m+y)
            return join_get[x](add_t[m]), add_get[m](jt[add_t[m][x]])

        bad = first_bad(s_law, itertools.product(gens, rng))
        if bad is not None:
            raise AxiomViolation("S", (*bad, first_failure(s_law(*bad))[0]))

    rr = range(ring.order)
    act_get = gathers(act_t)

    def m1(r: int, x: int) -> tuple[tuple, tuple]:
        # r(x+y) against rx + ry
        return add_get[x](act_t[r]), act_get[r](add_t[act_t[r][x]])

    bad = first_bad(m1, itertools.product(rr, gens))
    if bad is not None:
        raise AxiomViolation("M1", (*bad, first_failure(m1(*bad))[0]))
    # M2 holds at m when (r1+r2)m <= r1m + r2m: character r1m + r2m of the
    # up-set of (r1+r2)m, as a string of bits from bit 0, is "1".  M3 holds
    # when (r1r2)m = r1(r2m).  ``below`` is a list: tuple(map(...)) would be
    # resized after it is built, and every such tuple freed would stay on
    # the interpreter's tuple free list, up to 2000 of each size.
    up_bits = [format(u, f"0{n}b")[::-1] for u in lattice.up]
    up_rows = [get(up_bits) for get in act_get]
    holds = ["1"] * n
    for r1 in rr:
        sum_rows = act_get[r1](add_t)
        r1_plus, r1_times = ring.add[r1], ring.mul[r1]
        for r2 in rr:
            s = r1_plus[r2]
            p = r1_times[r2]
            below = list(map(getitem, up_rows[s], map(getitem, sum_rows, act_t[r2])))
            scaled = act_get[r2](act_t[r1])
            if below != holds or act_t[p] != scaled:
                m, law = first_failure((below, holds), (act_t[p], scaled))
                raise AxiomViolation(("M2", "M3")[law], (r1, r2, m))
    for m in rng:
        if act_t[ring.one][m] != m:
            raise AxiomViolation("M4", (ring.one, m), "1*m != m")
        if act_t[ring.zero][m] != zero_m:
            raise AxiomViolation("M4", (ring.zero, m), "0_R*m != 0_M")
    for r in rr:
        if act_t[r][zero_m] != zero_m:
            raise AxiomViolation("M4", (r, zero_m), "r*0_M != 0_M")
    if not join_is_sum:
        for r, x in itertools.product(rr, rng):
            # r(x v y) against rx v ry
            lhs, rhs = join_get[x](act_t[r]), act_get[r](jt[act_t[r][x]])
            if lhs != rhs:
                raise AxiomViolation("M5", (r, x, first_failure((lhs, rhs))[0]))

    labels = tuple(element_labels) if element_labels is not None else None
    if labels is not None and len(labels) != n:
        raise ValueError("element_labels length must equal lattice size")
    return LeModuleInstance(ring, lattice, add_t, zero_m, act_t, name, labels)


@per_object
def scalar_classes(mod: LeModuleInstance) -> tuple[int, ...]:
    """The least scalar of each class of scalars with equal action rows.

    The representatives come in increasing order.  A loop over scalars that
    reads r only through its row ``mod.action[r]`` gets the same answer
    over these; so does one that reads rs only through (rs)m = r(sm), by M3,
    which every instance satisfies (built modules by construction, explicit
    ones as ``make_le_module`` checks it).

    The first failure is also the same.  Say a test of a pair (r, s)
    depends only on the classes A of r and B of s.  No pair of (A, B) comes
    before (min A, min B) in ``itertools.product`` order, nor, for a test
    symmetric in r and s, before that pair sorted in
    ``combinations_with_replacement`` order.  So the full scan fails first
    at such a pair of least members, and the representatives, scanned in
    the same order, fail first at the same (r, s).  Keeping any other
    member of a class could name a later pair.
    """
    first: dict[tuple[int, ...], int] = {}
    for r, row in enumerate(mod.action):
        first.setdefault(row, r)
    return tuple(first.values())


def is_submodule_element(mod: LeModuleInstance, n: int) -> bool:
    """n + n <= n and r n <= n for every scalar r."""
    below = mod.lattice.down[n]
    if not below >> mod.add[n][n] & 1:
        return False
    return all(below >> mod.action[r][n] & 1 for r in scalar_classes(mod))


@per_object
def submodule_elements(mod: LeModuleInstance) -> tuple[int, ...]:
    return tuple(
        n for n in range(mod.lattice.size) if is_submodule_element(mod, n)
    )


def sum_submodule_elements(mod: LeModuleInstance, family: Iterable[int]) -> int:
    """The join of every finite sum from a nonempty family: s, the join of
    the family, then s + s until it stops.  0_M is the bottom and + is
    monotone (S), so a <= a + a and s rises; by S, s + s joins the pairwise
    sums of what s joins, so the k-th s joins every sum of up to 2^k terms."""
    s, add = join_all(mod.lattice, family), mod.add
    while add[s][s] != s:
        s = add[s][s]
    return s


@per_object
def colon_sets(mod: LeModuleInstance) -> tuple[frozenset[int], ...]:
    """(x : e) for every lattice element x: the scalars sending the top
    below x, an ideal when x is a submodule element.  It reads r only
    through re, so the scalars are grouped by re, and elements with the
    same re values below them share one frozenset."""
    top = mod.lattice.top
    by_re: dict[int, list[int]] = {}
    for r, row in enumerate(mod.action):
        by_re.setdefault(row[top], []).append(r)
    values = sum(1 << re for re in by_re)
    keys = [below & values for below in mod.lattice.down]
    chain = itertools.chain.from_iterable
    shared = {key: frozenset(chain(map(by_re.get, elements(key)))) for key in set(keys)}
    return tuple(map(shared.__getitem__, keys))


def colon(mod: LeModuleInstance, n: int) -> Ideal:
    """The colon ideal (n : e) of a submodule element, from ``colon_sets``.

    It is an ideal by a theorem, so it is not re-checked.  Since 0_M is the
    bottom, 0_R e = 0_M <= n.  By M2 and + monotone (axiom S),
    (r+s)e <= re + se <= n + n <= n; a nonempty subset of a finite group
    closed under + is a subgroup.  By M3 and the action monotone (M5),
    (tr)e = t(re) <= tn <= n.
    """
    return Ideal(mod.ring, colon_sets(mod)[n])


def annihilator(mod: LeModuleInstance) -> Ideal:
    """(0_M : e)."""
    return colon(mod, mod.zero_m)


@per_object
def ideal_actions(mod: LeModuleInstance) -> tuple[int, ...]:
    """Ie for each ideal I of ``all_ideals``, in that order: the submodule
    element generated by {a*e : a in I}, which holds 0e = 0_M."""
    col = [row[mod.lattice.top] for row in mod.action]
    members = (i.members for i in all_ideals(mod.ring))
    return tuple(sum_submodule_elements(mod, set(map(col.__getitem__, m))) for m in members)


def ideal_action(mod: LeModuleInstance, ideal: Ideal) -> int:
    """Ie for an ideal I of the ring, read from ``ideal_actions``."""
    return ideal_actions(mod)[ideal_table(mod.ring)[1][ideal.members]]


@per_object
def spectrum(mod: LeModuleInstance) -> tuple[int, ...]:
    """All prime submodule elements, in index order.

    For a scalar r outside (p : e), that is with re not below p, p fails
    at r exactly when some n with rn <= p is not below p.  Those n are the
    preimage of the down-set of p under r's row: the disjoint union, over
    x <= p, of pre[x] = {n : rn = x}.  With sets as masks, that is one sum
    over the elements below p, and p fails when it leaves the mask of p's
    down-set.  The test reads r only through its row, so one scalar per
    class (``scalar_classes``) is enough.
    """
    lat, top = mod.lattice, mod.lattice.top
    down = lat.down
    bits = [1 << x for x in range(lat.size)]
    rows = []  # (re, pre.__getitem__), one per scalar class
    for r in scalar_classes(mod):
        row = mod.action[r]
        pre = [0] * lat.size
        for bit, x in zip(bits, row):
            pre[x] |= bit
        rows.append((row[top], pre.__getitem__))
    points = []
    for p in submodule_elements(mod):
        below = elements(down[p])
        if p != top and all(down[p] >> re & 1 or not sum(map(pre, below)) & ~down[p] for re, pre in rows):
            points.append(p)
    return tuple(points)


@per_object
def colon_fibers(mod: LeModuleInstance) -> dict[frozenset[int], int]:
    """Spectrum points grouped by colon set, each group a mask with bit k
    for the k-th point of ``spectrum``: the fibers of the natural map."""
    colons = colon_sets(mod)
    fibers: dict[frozenset[int], int] = {}
    for k, p in enumerate(spectrum(mod)):
        fibers[colons[p]] = fibers.get(colons[p], 0) | 1 << k
    return fibers

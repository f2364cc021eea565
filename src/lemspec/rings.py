"""Finite commutative rings with identity, given by Cayley tables.

Elements are the indices 0..order-1; ``add`` and ``mul`` are tables of
rows, given in full or, for Z_n, built a row at a time (``LazyRows``).
``make_ring`` validates tables given from outside exactly and reports the
first failing cell, so a bad table is caught at build time rather than deep
inside a spectrum computation.  Associativity and distributivity are checked
at additive generators only, n²·|G| cells instead of n³, which is exact by
the closure arguments in ``rowscan.generators``.  ``make_zn``,
``product_ring`` and ``quotient_ring`` build rings that are valid by
construction, unchecked.

Ideals are held by index into one table per ring, ``ideal_table``, which
also gives each ideal's generators and the index of each rR; a product of
ideals sums the (ab)R over their generators a and b.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from collections.abc import Callable, Iterable, Sequence

from .errors import AxiomViolation, ImproperIdeal, ZeroRing
from .lattices import generated
from .memo import UNHASHED, per_object, preset, record
from .rowscan import first_bad_pair, first_failure, freeze, gather, gathers, generators

Table = tuple[tuple[int, ...], ...]


@record
class FiniteRing:
    """A finite commutative ring with 1, as validated operation tables."""

    order: int
    add: Table | LazyRows
    mul: Table | LazyRows
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


@record
class Ideal:
    """A subset of a ring, kept as a frozenset of element indices.

    The ring takes part in equality but not in the hash, so set and dict
    lookups never hash its tables.
    """

    ring: FiniteRing = UNHASHED
    members: frozenset[int]

    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def is_proper(self) -> bool:
        return len(self.members) < self.ring.order

    def __contains__(self, x: int) -> bool:
        return x in self.members

    def __le__(self, other: "Ideal") -> bool:
        return self.members <= other.members


@record
class RingSpectrum:
    """All prime ideals of a ring, in canonical order."""

    ring: FiniteRing
    points: tuple[Ideal, ...]


def check_table_shape(table: Table, rows: int | None, cols: int, label: str,
                      entry: str = "{label} table entry {v} at row {i} out of range") -> None:
    """``rows`` rows of ``cols`` entries, each below ``cols`` (with ``rows``
    None, the entries only), checked whole as sets, and rescanned row by row
    only on a failure, so that the message names the first bad row."""
    if rows is not None and len(table) != rows:
        raise ValueError(f"{label} table must have {rows} rows, got {len(table)}")
    if (rows is None or set(map(len, table)) <= {cols}) and set().union(*table).issubset(range(cols)):
        return
    for i, row in enumerate(table):
        if rows is not None and len(row) != cols:
            raise ValueError(f"{label} table row {i} must have {cols} entries")
        v = next((v for v in row if v not in range(cols)), None)
        if v is not None:
            raise ValueError(entry.format(label=label, v=v, i=i))


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
    add_t = freeze(add)
    mul_t = freeze(mul)
    check_table_shape(add_t, order, order, "add")
    check_table_shape(mul_t, order, order, "mul")

    rng = range(order)
    identity = tuple(rng)
    zero = next((e for e in rng if add_t[e] == identity), None)
    if zero is None:
        raise AxiomViolation("add-identity", ())
    one = next((u for u in rng if mul_t[u] == identity), None)
    if one is None:
        raise AxiomViolation("mul-identity", ())
    if zero == one:
        raise AxiomViolation("zero-ne-one", (zero,))

    # Each law is checked a row at a time; a failed row is rescanned for the
    # first failing cell, so the witness is the one a triple loop over
    # (a, b, c), with the laws in the order below at each cell, would find.
    add_cols, mul_cols = tuple(zip(*add_t)), tuple(zip(*mul_t))
    for a in rng:
        if (add_t[a], mul_t[a]) != (add_cols[a], mul_cols[a]):
            b, law = first_failure((add_t[a], add_cols[a]), (mul_t[a], mul_cols[a]))
            raise AxiomViolation(("add-comm", "mul-comm")[law], (a, b))
    for a in rng:
        if zero not in add_t[a]:
            raise AxiomViolation("add-inverse", (a,))
    add_get, mul_get = gathers(add_t), gathers(mul_t)

    def laws(a: int, b: int) -> tuple[tuple, tuple]:
        add_a, mul_a = add_t[a], mul_t[a]
        # Over c: (a+b)+c, (ab)c, a(b+c) against a+(b+c), a(bc), ab+ac.
        lhs = (add_t[add_a[b]], mul_t[mul_a[b]], add_get[b](mul_a))
        rhs = (add_get[b](add_a), mul_get[b](mul_a), mul_get[a](add_t[mul_a[b]]))
        return lhs, rhs

    # Rows at each additive generator b prove all three laws at every b:
    # Light's test gives add-assoc, after which the b where distributivity
    # holds are closed under +, and then, with commutativity checked above,
    # so are those where mul-assoc holds (see ``rowscan.generators``).
    at_gens = itertools.product(rng, generators(add_t))
    bad = first_bad_pair(laws, at_gens, itertools.product(rng, repeat=2))
    if bad is not None:
        c, law = first_failure(*zip(*laws(*bad)))
        raise AxiomViolation(("add-assoc", "mul-assoc", "distributive")[law], (*bad, c))

    names = tuple(element_names) if element_names is not None else None
    if names is not None and len(names) != order:
        raise ValueError("element_names length must equal order")
    return FiniteRing(order, add_t, mul_t, zero, one, name, names)


class LazyRows(Sequence):
    """The rows of Z_n's + or * or of a built le-module's sum, each built by
    ``row(a)`` on its first read and then kept, so a reader of a few rows
    never pays for n².  It equals the tuple of its rows, as a full table."""

    def __init__(self, n: int, row: Callable[[int], tuple[int, ...]]):
        self._rows, self._row = [None] * n, row

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, a: int) -> tuple[int, ...]:
        row = self._rows[a]
        if row is None:
            row = self._rows[a] = self._row(a)
        return row

    def __eq__(self, other) -> bool:
        return tuple(self) == other

    def __hash__(self) -> int:
        return hash(tuple(self))


def make_zn(n: int) -> FiniteRing:
    """The ring of integers mod n, n >= 2, with its ideal table, primality
    and idempotents.

    The ideals of Z_n are the dZ_n for the divisors d of n, rZ_n is
    gcd(r, n)Z_n, and dZ_n is prime exactly when d is prime (for d = n, the
    zero ideal is prime exactly when n is).  They are kept on the ring as
    the answers of ``ideal_table`` and ``is_prime_ideal``, so no ideal of
    Z_n is searched for; every other ring, quotients included, takes the
    generic search.  The tables are ``LazyRows``, as these readers need no
    row and the ideal-lattice action needs one per divisor.
    """
    if n < 2:
        raise ZeroRing("Z_n needs n >= 2")
    if n > sys.maxsize:
        # Its elements are indices, so a larger order is bad input, not a
        # fault of lemspec.
        raise ValueError(f"Z_n needs n <= {sys.maxsize}, the largest index; got {n}")
    # Row a of + is 0..n-1 rotated left by a; row a of * counts up in steps
    # of a, reduced mod n, with period n/gcd(a, n).  Both depend on a only
    # mod n, so a negative index reads row n + a.  Both hold rng's own ints,
    # so past 256 the rows share n int objects, not one per entry.
    rng = tuple(range(n))

    def mul_row(a: int) -> tuple[int, ...]:
        g = math.gcd(a, n)
        return tuple(map(rng.__getitem__, map(n.__rmod__, map(a.__mul__, range(n // g))))) * g

    add = LazyRows(n, lambda a: rng[a:] + rng[:a])
    ring = FiniteRing(n, add, LazyRows(n, mul_row), 0, 1, f"Z{n}")
    # Descending d gives ascending size n/d, the canonical order.
    divisors = [d for d in range(n, 0, -1) if n % d == 0]
    ideals = tuple(Ideal(ring, frozenset(rng[::d])) for d in divisors)
    for d, ideal in zip(divisors, ideals):
        prime = d > 1 and all(d % k for k in range(2, math.isqrt(d) + 1))
        preset(_is_prime, ring, prime, ideal.members)
    at = {d: k for k, d in enumerate(divisors)}
    index = {i.members: k for k, i in enumerate(ideals)}
    gens = tuple((d % n,) for d in divisors)
    preset(ideal_table, ring, (ideals, index, gens, tuple(at[math.gcd(r, n)] for r in rng)))
    preset(idempotents, ring, frozenset(x for x in rng if x * x % n == x))
    return ring


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
    """Holds 0, is additively closed, and absorbs ring multiplication.

    Tested a row at a time: a + S and aR (the ring is commutative) lie in S
    for each a in S.
    """
    s = frozenset(subset)
    if ring.zero not in s:
        return False
    in_s = gather(sorted(s))
    return all(s.issuperset(in_s(ring.add[a])) and s.issuperset(ring.mul[a]) for a in s)


def principal_ideal(ring: FiniteRing, r: int) -> Ideal:
    """The ideal rR = {r*s : s in R}."""
    return Ideal(ring, frozenset(ring.mul[r]))


def _ideal_sum(add: Table, i: frozenset[int], p: frozenset[int]) -> frozenset[int]:
    """I + P for ideals, or submodules, I and P.

    I + P is the union of the cosets b + I over b in P; a b already in the
    sum adds nothing, as its coset is there.  The sum is symmetric, so the
    larger of the two is I, and is the sum when it holds the other.  Past
    that test I has two members or more, as an I of one member is {0} and
    holds P, so ``coset`` gives a tuple.
    """
    if len(p) > len(i):
        i, p = p, i
    if p <= i:
        return i
    coset, total = operator.itemgetter(*i), set(i)
    for b in p:
        if b not in total:
            total.update(coset(add[b]))
    return frozenset(total)


def sub_objects(
    add: Table, cyclic: Sequence[frozenset[int]]
) -> dict[frozenset[int], tuple[int, ...]]:
    """Every sum of the cyclic sub-objects ``cyclic[g]``, the ideals rR or the
    submodules Rg, in canonical order (by size, then members), each with the
    first family of generators that reaches it.

    Every ideal or submodule is the sum of the cyclic ones of its members, so
    these are all of them.  Each distinct cyclic set is keyed by its least g.
    """
    least: dict[frozenset[int], int] = {}
    for g, c in enumerate(cyclic):
        least.setdefault(c, g)
    found = generated({g: c for c, g in least.items()}, functools.partial(_ideal_sum, add))
    return {s: found[s] for s in sorted(found, key=lambda s: (len(s), sorted(s)))}


def ideal_product(i: Ideal, j: Ideal) -> Ideal:
    """IJ for ideals I and J: the sum of the (ab)R over the generators a of
    I and b of J in ``ideal_table``; over a principal ideal ring, one lookup.

    This is exact.  With I = Σ aR and J = Σ bR, each xy with x in I and y
    in J is a sum of terms (ra)(sb) = (rs)(ab), so IJ lies inside Σ (ab)R;
    and each (ab)R lies in IJ, as IJ is an ideal (Atiyah–Macdonald, ch. 1).
    """
    ring = i.ring
    ideals, index, gens, principal = ideal_table(ring)
    mul, gj = ring.mul, gens[index[j.members]]
    first, *rest = {principal[mul[a][b]] for a in gens[index[i.members]] for b in gj}
    product = ideals[first].members
    for k in rest:
        product = _ideal_sum(ring.add, product, ideals[k].members)
    return ideals[index[product]]


@per_object
def ideal_table(ring: FiniteRing) -> tuple:
    """Every ideal in canonical order, the index of each member set, a tuple
    of elements generating each ideal, and the index of rR for each r.

    The ideals are the sums of the principal ideals (``sub_objects``); the
    family that first reaches an ideal generates it.
    """
    principals = [frozenset(row) for row in ring.mul]
    found = sub_objects(ring.add, principals)
    index = {m: k for k, m in enumerate(found)}
    ideals = tuple(Ideal(ring, m) for m in found)
    return ideals, index, tuple(found.values()), tuple(map(index.__getitem__, principals))


def all_ideals(ring: FiniteRing) -> tuple[Ideal, ...]:
    """Every ideal, in canonical order (see ``ideal_table``)."""
    return ideal_table(ring)[0]


def is_prime_ideal(ring: FiniteRing, i: Ideal | frozenset[int]) -> bool:
    """Proper, and ab in I forces a in I or b in I.

    Each member set is scanned once per ring: the spectrum, the natural map
    and several statements ask about the same colon ideals.
    """
    return _is_prime(ring, i.members if isinstance(i, Ideal) else frozenset(i))


@per_object
def _is_prime(ring: FiniteRing, members: frozenset[int]) -> bool:
    if len(members) >= ring.order:
        return False
    outside = [a for a in range(ring.order) if a not in members]
    times_outside = gather(outside)
    return all(members.isdisjoint(times_outside(ring.mul[a])) for a in outside)


@per_object
def spec_ring(ring: FiniteRing) -> RingSpectrum:
    """All prime ideals in canonical (size, members) order."""
    points = tuple(i for i in all_ideals(ring) if is_prime_ideal(ring, i))
    return RingSpectrum(ring, points)


def variety_ring(ring: FiniteRing, i: Ideal) -> int:
    """Primes containing the ideal, as a mask: bit k for ``spec_ring``'s k-th."""
    return sum(1 << k for k, p in enumerate(spec_ring(ring).points) if i.members <= p.members)


def quotient_ring(ring: FiniteRing, i: Ideal) -> tuple[FiniteRing, tuple[int, ...]]:
    """Quotient by a proper ideal; returns (quotient, projection table).

    Cosets are indexed by their minimal representative, in increasing
    order, so the construction is canonical.  R/0 is R itself, with the
    identity projection.
    """
    if i.members == {ring.zero}:
        return ring, tuple(range(ring.order))
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


@per_object
def idempotents(ring: FiniteRing) -> frozenset[int]:
    return frozenset(x for x in range(ring.order) if ring.mul[x][x] == x)


def minimal_primes(ring: FiniteRing) -> tuple[Ideal, ...]:
    """Primes with no strictly smaller prime: all, as each is maximal."""
    return spec_ring(ring).points


def maximal_ideals(ring: FiniteRing) -> tuple[Ideal, ...]:
    """Maximal ideals, in canonical order: the primes.  A maximal ideal is
    prime, and a prime P of a finite commutative ring is maximal, as R/P is
    a finite domain, so a field."""
    return spec_ring(ring).points

"""The row-at-a-time law scans and the table reader against plain references.

Each reference below is the cell-by-cell loop the fast code must agree
with: the same exception type, the same law and the same witness on a bad
table, and the same join and meet tables on a good lattice.  Inputs are
seeded one-cell and symmetric two-cell mutants of small valid tables, whose
first failures land on every law; sizes 1 and 2 are included, because with
one index ``itemgetter`` returns an item instead of a tuple.  A lattice
keeps its order as masks; the join and meet tables that the references
read are built here from its ``join`` and ``meet``.
"""

import itertools
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lemspec import instances, le_modules, rowscan
from lemspec.errors import (
    AxiomViolation,
    ModuleAxiomViolation,
    NotALattice,
    NotAPoset,
    ParseError,
    Unbounded,
)
from lemspec.instances import (
    _check_classical_module,
    build_instance,
    catalog,
    cyclic_module_tables,
    mod_scaled_cyclic_tables,
    parse_descriptor,
    product_module_tables,
)
from lemspec.lattices import FiniteBoundedLattice, chain_lattice, join_rows, make_lattice
from lemspec.le_modules import make_le_module
from lemspec.rings import make_ring, make_zn, product_ring
from lemspec.rowscan import generators

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402


def replace(record, **changes):
    """``record`` rebuilt through its constructor with ``changes``; the
    derived data memoised on ``record`` is not carried over."""
    fields = {name: getattr(record, name) for name in type(record).__annotations__}
    return type(record)(**{**fields, **changes})


# --- references: the cell-by-cell scans ------------------------------------


def ref_ring(order, add, mul):
    rng = range(order)
    zero = next((e for e in rng if all(add[e][x] == x for x in rng)), None)
    if zero is None:
        raise AxiomViolation("add-identity", ())
    one = next((u for u in rng if all(mul[u][x] == x for x in rng)), None)
    if one is None:
        raise AxiomViolation("mul-identity", ())
    if zero == one:
        raise AxiomViolation("zero-ne-one", (zero,))
    for a, b in itertools.product(rng, repeat=2):
        if add[a][b] != add[b][a]:
            raise AxiomViolation("add-comm", (a, b))
        if mul[a][b] != mul[b][a]:
            raise AxiomViolation("mul-comm", (a, b))
    for a in rng:
        if all(add[a][b] != zero for b in rng):
            raise AxiomViolation("add-inverse", (a,))
    for a, b, c in itertools.product(rng, repeat=3):
        if add[add[a][b]][c] != add[a][add[b][c]]:
            raise AxiomViolation("add-assoc", (a, b, c))
        if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
            raise AxiomViolation("mul-assoc", (a, b, c))
        if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
            raise AxiomViolation("distributive", (a, b, c))
    return zero, one


def join_table(lat):
    return tuple(tuple(lat.join(a, b) for b in range(lat.size)) for a in range(lat.size))


def meet_table(lat):
    return tuple(tuple(lat.meet(a, b) for b in range(lat.size)) for a in range(lat.size))


def ref_lattice(size, leq):
    rng = range(size)
    for a in rng:
        if not leq[a][a]:
            raise NotAPoset("reflexivity", (a,))
    for a, b in itertools.product(rng, repeat=2):
        if a != b and leq[a][b] and leq[b][a]:
            raise NotAPoset("antisymmetry", (a, b))
    for a, b, c in itertools.product(rng, repeat=3):
        if leq[a][b] and leq[b][c] and not leq[a][c]:
            raise NotAPoset("transitivity", (a, b, c))
    tops = [t for t in rng if all(leq[x][t] for x in rng)]
    if not tops:
        raise Unbounded("no greatest element")
    bottoms = [b for b in rng if all(leq[b][x] for x in rng)]
    if not bottoms:
        raise Unbounded("no least element")

    def bound(a, b, upper):
        if upper:
            cands = [x for x in rng if leq[a][x] and leq[b][x]]
            return next((u for u in cands if all(leq[u][x] for x in cands)), None)
        cands = [x for x in rng if leq[x][a] and leq[x][b]]
        return next((l for l in cands if all(leq[x][l] for x in cands)), None)

    join, meet = [], []
    for a in rng:
        jrow, mrow = [], []
        for b in rng:
            u = bound(a, b, True)
            if u is None:
                raise NotALattice("least upper bound", (a, b))
            l = bound(a, b, False)
            if l is None:
                raise NotALattice("greatest lower bound", (a, b))
            jrow.append(u)
            mrow.append(l)
        join.append(tuple(jrow))
        meet.append(tuple(mrow))
    return tops[0], bottoms[0], tuple(join), tuple(meet)


def ref_le_module(ring, lattice, add, zero_m, act):
    rng = range(lattice.size)
    for x in rng:
        if add[zero_m][x] != x:
            raise AxiomViolation("monoid", (zero_m, x), "identity fails")
    for x, y in itertools.product(rng, repeat=2):
        if add[x][y] != add[y][x]:
            raise AxiomViolation("monoid", (x, y), "commutativity fails")
    for x, y, z in itertools.product(rng, repeat=3):
        if add[add[x][y]][z] != add[x][add[y][z]]:
            raise AxiomViolation("monoid", (x, y, z), "associativity fails")
    jt = join_table(lattice)
    for m, x, y in itertools.product(rng, repeat=3):
        if add[m][jt[x][y]] != jt[add[m][x]][add[m][y]]:
            raise AxiomViolation("S", (m, x, y))
    rr = range(ring.order)
    for r in rr:
        for x, y in itertools.product(rng, repeat=2):
            if act[r][add[x][y]] != add[act[r][x]][act[r][y]]:
                raise AxiomViolation("M1", (r, x, y))
    for r1, r2 in itertools.product(rr, repeat=2):
        s = ring.add[r1][r2]
        p = ring.mul[r1][r2]
        for m in rng:
            if not lattice.leq[act[s][m]][add[act[r1][m]][act[r2][m]]]:
                raise AxiomViolation("M2", (r1, r2, m))
            if act[p][m] != act[r1][act[r2][m]]:
                raise AxiomViolation("M3", (r1, r2, m))
    for m in rng:
        if act[ring.one][m] != m:
            raise AxiomViolation("M4", (ring.one, m), "1*m != m")
        if act[ring.zero][m] != zero_m:
            raise AxiomViolation("M4", (ring.zero, m), "0_R*m != 0_M")
    for r in rr:
        if act[r][zero_m] != zero_m:
            raise AxiomViolation("M4", (r, zero_m), "r*0_M != 0_M")
    for r in rr:
        for x, y in itertools.product(rng, repeat=2):
            if act[r][jt[x][y]] != jt[act[r][x]][act[r][y]]:
                raise AxiomViolation("M5", (r, x, y))


def sum_is_lub(up, add):
    """The least-upper-bound certificate ``make_le_module`` once read
    before it compared the sum with the join table: U is one-to-one and
    U(a + b) = U(a) & U(b), where U(x) = ``up[x]``.  Kept as the reference
    for that comparison."""
    return len(set(up)) == len(up) and all(
        tuple(map(ua.__and__, up)) == tuple(up[v] for v in row) for ua, row in zip(up, add)
    )


def ref_classical(ring, size, zero, add, action):
    rng = range(size)
    for x in rng:
        if add[zero][x] != x:
            raise ModuleAxiomViolation("group-identity", (zero, x))
    for x, y in itertools.product(rng, repeat=2):
        if add[x][y] != add[y][x]:
            raise ModuleAxiomViolation("group-comm", (x, y))
    for x, y, z in itertools.product(rng, repeat=3):
        if add[add[x][y]][z] != add[x][add[y][z]]:
            raise ModuleAxiomViolation("group-assoc", (x, y, z))
    for x in rng:
        if all(add[x][y] != zero for y in rng):
            raise ModuleAxiomViolation("group-inverse", (x,))
    for r in range(ring.order):
        for x, y in itertools.product(rng, repeat=2):
            if action[r][add[x][y]] != add[action[r][x]][action[r][y]]:
                raise ModuleAxiomViolation("action-add", (r, x, y))
    for r, s in itertools.product(range(ring.order), repeat=2):
        for x in rng:
            if action[ring.add[r][s]][x] != add[action[r][x]][action[s][x]]:
                raise ModuleAxiomViolation("scalar-add", (r, s, x))
            if action[ring.mul[r][s]][x] != action[r][action[s][x]]:
                raise ModuleAxiomViolation("scalar-mul", (r, s, x))
    for x in rng:
        if action[ring.one][x] != x:
            raise ModuleAxiomViolation("unit-action", (x,))


def ref_tokenize(text):
    """Token texts and, in a parallel list, the line of each token."""
    texts, lines = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        for ch in "(),;":
            line = line.replace(ch, f" {ch} ")
        words = line.split()
        texts += words
        lines += [lineno] * len(words)
    return texts, lines


class RefParser:
    """The descriptor reader token by token, tables included."""

    def __init__(self, text):
        self.texts, self.lines = ref_tokenize(text)
        self.pos = 0

    def peek(self):
        return self.texts[self.pos] if self.pos < len(self.texts) else None

    def next(self, field):
        if self.pos >= len(self.texts):
            last = self.lines[-1] if self.lines else None
            raise ParseError("unexpected end of input", line=last, field=field)
        self.pos += 1
        return self.texts[self.pos - 1], self.lines[self.pos - 1]

    def expect(self, text, field):
        got, line = self.next(field)
        if got != text:
            raise ParseError(f"expected '{text}', got '{got}'", line, field)

    def integer(self, field):
        text, line = self.next(field)
        try:
            return int(text)
        except ValueError:
            raise ParseError(f"expected integer, got '{text}'", line, field) from None

    def table(self, field, *stop_words):
        rows, current = [], []
        while True:
            text = self.peek()
            if text is None or text in stop_words:
                break
            _, line = self.next(field)
            if text == ";":
                if not current:
                    raise ParseError("empty table row", line, field)
                rows.append(tuple(current))
                current = []
                continue
            try:
                current.append(int(text))
            except ValueError:
                raise ParseError(
                    f"expected integer or ';', got '{text}'", line, field
                ) from None
        if current:
            rows.append(tuple(current))
        if not rows:
            line = self.lines[self.pos] if self.peek() is not None else None
            raise ParseError("empty table", line, field)
        return tuple(rows)

    def ring(self):
        form, line = self.next("ring")
        if form == "zn":
            return instances.ZnSpec(self.integer("ring"))
        if form == "product":
            self.expect("(", "ring")
            left = self.ring()
            self.expect(",", "ring")
            right = self.ring()
            self.expect(")", "ring")
            return instances.ProductSpec(left, right)
        if form == "explicit":
            self.expect("order", "ring")
            order = self.integer("ring")
            self.expect("add", "ring")
            add = self.table("add", "mul")
            self.expect("mul", "ring")
            mul = self.table("mul", "module", "name", ")", ",")
            return instances.ExplicitRingSpec(order, add, mul)
        raise ParseError(f"unknown ring form '{form}'", line, "ring")

    def module(self):
        form, line = self.next("module")
        if form == "ideal-lattice":
            return instances.IdealLatticeSpec()
        if form not in ("submodule-lattice", "explicit"):
            raise ParseError(f"unknown module form '{form}'", line, "module")
        self.expect("size", "module")
        size = self.integer("module")
        self.expect("zero", "module")
        zero = self.integer("module")
        if form == "explicit":
            self.expect("leq", "module")
            leq = self.table("leq", "add")
        self.expect("add", "module")
        add = self.table("add", "action")
        self.expect("action", "module")
        action = self.table("action", "name", "ring")
        if form == "explicit":
            return instances.ExplicitModuleSpec(size, zero, leq, add, action)
        return instances.SubmoduleLatticeSpec(size, zero, add, action)


def ref_parse_descriptor(text):
    parser = RefParser(text)
    parts = {}
    while parser.peek() is not None:
        key, line = parser.next("descriptor")
        if key not in ("name", "ring", "module"):
            raise ParseError(f"unknown keyword '{key}'", line, "descriptor")
        if key in parts:
            raise ParseError(f"duplicate '{key}'", line, key)
        parts[key] = parser.next("name")[0] if key == "name" else getattr(parser, key)()
    for key in ("name", "ring", "module"):
        if key not in parts:
            raise ParseError(f"missing '{key}'", field=key)
    return instances.InstanceDescriptor(parts["name"], parts["ring"], parts["module"])


# --- comparison helpers ----------------------------------------------------


def outcome(fn, *args):
    """What a call returned, or the type and the fields of what it raised."""
    try:
        return ("ok", fn(*args))
    except AxiomViolation as exc:
        return ("AxiomViolation", exc.axiom, exc.witness, str(exc))
    except ModuleAxiomViolation as exc:
        return ("ModuleAxiomViolation", exc.law, exc.witness)
    except NotAPoset as exc:
        return ("NotAPoset", exc.law, exc.witness)
    except NotALattice as exc:
        return ("NotALattice", exc.kind, exc.pair)
    except (Unbounded, ParseError) as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "line", None))


def thaw(table):
    return [list(row) for row in table]


def freeze(table):
    return tuple(tuple(row) for row in table)


def mutants(table, values, rng, count, symmetric=False):
    """Copies of a table with one cell, or one cell and its mirror image, changed."""
    rows, cols = len(table), len(table[0])
    out = []
    for _ in range(count):
        t = thaw(table)
        a, b = rng.randrange(rows), rng.randrange(cols)
        v = rng.choice([x for x in values if x != t[a][b]] or values)
        t[a][b] = v
        if symmetric and b < rows and a < cols:
            t[b][a] = v
        out.append(freeze(t))
    return out


def seen_failures(results):
    return {r[1] for r in results if r[0] != "ok"}


# --- generators ----------------------------------------------------------------


def reached(table, gens):
    """Every index that x -> table[g][x], g in gens, reaches from gens."""
    seen = set(gens)
    work = list(gens)
    for x in work:
        for g in gens:
            y = table[g][x]
            if y not in seen:
                seen.add(y)
                work.append(y)
    return seen


def test_generators_reach_every_index():
    assert generators(((0,),)) == [0]
    for n in range(2, 40):
        assert generators(make_zn(n).add) == [0, 1]
    for k in range(1, 6):
        bits = range(2**k)
        xor = [[a ^ b for b in bits] for a in bits]
        gens = generators(xor)
        assert len(gens) <= k + 1 and reached(xor, gens) == set(bits)
    rng = random.Random("magmas")
    magmas = [[[(2 * x + y + 1) % n for y in range(n)] for x in range(n)] for n in (5, 8, 12)]
    for n in (1, 2, 3, 7, 16):  # random tables, with no law at all
        magmas.append([[rng.randrange(n) for _ in range(n)] for _ in range(n)])
    for table in magmas:
        gens = generators(table)
        assert gens == sorted(gens) and reached(table, gens) == set(range(len(table)))
        # Greedy in index order: each generator is missed by the ones before it.
        assert all(g not in reached(table, gens[:i]) for i, g in enumerate(gens))
    # A zero that no sum reaches, as in a join, is a generator too.
    assert generators(join_table(chain_lattice(4))) == [0, 1, 2, 3]


def test_freeze_keeps_int_tables_and_converts_the_rest():
    table = ((0, 1), (1, 300))
    assert rowscan.freeze(table) is table
    for other in ([[0, 1], [1, 300]], ((0, 1), [1, 300]), ((False, True), (1, 300)), ((0, 1.0), (1, 300))):
        frozen = rowscan.freeze(other)
        assert frozen == table and {type(v) for row in frozen for v in row} == {int}
        assert type(frozen) is tuple and {type(row) for row in frozen} == {tuple}
    assert rowscan.freeze(()) == () and rowscan.freeze(((),)) == ((),)


# --- rings -------------------------------------------------------------------


def ring_outcome_new(order, add, mul):
    ring = make_ring(order, add, mul)
    return ring.zero, ring.one


def ring_bases():
    """(seed, ring): Z2..Z12, whose additive generators are 0 and 1, and
    products whose additive groups are not cyclic."""
    z = make_zn
    out = [(f"ring:{n}", z(n)) for n in range(2, 13)]
    products = [
        product_ring(z(2), z(2)),
        product_ring(z(2), z(4)),
        product_ring(product_ring(z(2), z(2)), z(2)),
        product_ring(z(3), z(3)),
    ]
    return out + [(f"ring:{r.name}", r) for r in products]


def test_ring_scan_matches_reference():
    results = []
    off_generators = 0
    for seed, base in ring_bases():
        n = base.order
        rng = random.Random(seed)
        cases = [(base.add, base.mul)]
        for sym in (False, True):
            cases += [(t, base.mul) for t in mutants(base.add, range(n), rng, 40, sym)]
            cases += [(base.add, t) for t in mutants(base.mul, range(n), rng, 40, sym)]
        for add, mul in cases:
            expected = outcome(ref_ring, n, add, mul)
            assert outcome(ring_outcome_new, n, add, mul) == expected, (add, mul)
            results.append(expected)
            if expected[0] != "ok" and len(expected[2]) == 3:
                off_generators += expected[2][1] not in generators(add)
        assert results[-len(cases)][0] == "ok"
    assert {
        "add-identity", "mul-identity", "add-comm", "mul-comm",
        "add-assoc", "mul-assoc", "distributive",
    } <= seen_failures(results)
    # Witnesses whose b is no additive generator: only the full rescan names them.
    assert off_generators > 0


# --- lattices ------------------------------------------------------------------


def lattice_outcome_new(size, leq):
    lat = make_lattice(size, leq)
    return lat.top, lat.bottom, join_table(lat), meet_table(lat)


def small_orders():
    """leq tables of small bounded lattices, sizes 1 to 8."""
    out = [[[a <= b for b in range(n)] for a in range(n)] for n in (1, 2, 3, 5)]
    for k in (2, 3):  # Boolean lattices
        subsets = range(2**k)
        out.append([[a & b == a for b in subsets] for a in subsets])
    diamond = {(0, 1), (0, 2), (0, 3), (0, 4), (1, 4), (2, 4), (3, 4)}
    pentagon = {(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 4), (3, 4)}
    for rel in (diamond, pentagon):
        out.append([[a == b or (a, b) in rel for b in range(5)] for a in range(5)])
    for d in catalog():
        if d.name.endswith("-ideal-lattice"):
            lat = build_instance(d).lattice
            out.append(thaw(lat.leq))
    return [freeze(t) for t in out]


def line_mutants(table, rng, count):
    """Copies with two or three cells of one row, or of one column, flipped.

    Several failures in one line make a row scan pick among witnesses.
    """
    n = len(table)
    out = []
    for _ in range(count):
        t = thaw(table)
        k = rng.randrange(n)
        for j in rng.sample(range(n), min(n, rng.choice((2, 3)))):
            a, b = (k, j) if rng.random() < 0.5 else (j, k)
            t[a][b] = not t[a][b]
        out.append(freeze(t))
    return out


def bowtie():
    """A bounded poset whose row 0 lacks a meet at column 1 and a join at column 2.

    0 = a, 1 = b2, 2 = b1, 3 = bottom, 4, 5 = the two maximal lower bounds
    of a and b2, 6, 7 = the two minimal upper bounds of a and b1, 8 = top.
    """
    below = {(4, 0), (5, 0), (4, 1), (5, 1), (0, 6), (0, 7), (2, 6), (2, 7)}
    below |= {(3, x) for x in range(9)} | {(x, 8) for x in range(9)}
    below |= {(x, x) for x in range(9)} | {(l, u) for l in (4, 5) for u in (6, 7)}
    return freeze([[(a, b) in below for b in range(9)] for a in range(9)])


def test_lattice_scan_matches_reference():
    rng = random.Random("lattices")
    results = [outcome(ref_lattice, 9, bowtie())]
    assert results[0] == ("NotALattice", "greatest lower bound", (0, 1))
    assert outcome(lattice_outcome_new, 9, bowtie()) == results[0]
    for leq in small_orders():
        size = len(leq)
        expected = outcome(ref_lattice, size, leq)
        assert expected[0] == "ok"
        assert outcome(lattice_outcome_new, size, leq) == expected
        bad_tables = mutants(leq, (False, True), rng, 60)
        bad_tables += mutants(leq, (False, True), rng, 60, symmetric=True)
        bad_tables += line_mutants(leq, rng, 60) if size > 1 else []
        for bad in bad_tables:
            expected = outcome(ref_lattice, size, bad)
            assert outcome(lattice_outcome_new, size, bad) == expected, bad
            results.append(expected)
    kinds = {r[0] for r in results}
    laws = seen_failures(results)
    assert {"ok", "NotAPoset", "Unbounded", "NotALattice"} <= kinds
    assert {"reflexivity", "antisymmetry", "transitivity"} <= laws


@st.composite
def orders(draw):
    """An order table on up to 8 elements: the reflexive and transitive
    closure of random pairs a < b, often with a least and a greatest
    element added, and sometimes with one cell flipped."""
    n = draw(st.integers(1, 8))
    index = st.integers(0, n - 1)
    pairs = draw(st.sets(st.tuples(index, index).filter(lambda p: p[0] < p[1]), max_size=12))
    if draw(st.booleans()):
        pairs |= {(0, b) for b in range(1, n)} | {(a, n - 1) for a in range(n - 1)}
    leq = [[a == b or (a, b) in pairs for b in range(n)] for a in range(n)]
    for k, a, b in itertools.product(range(n), repeat=3):
        leq[a][b] = leq[a][b] or (leq[a][k] and leq[k][b])
    if draw(st.booleans()):
        a, b = draw(index), draw(index)
        leq[a][b] = not leq[a][b]
    return freeze(leq)


@settings(max_examples=400, deadline=None)
@given(orders())
def test_lattice_scan_matches_reference_on_random_orders(leq):
    size = len(leq)
    assert outcome(lattice_outcome_new, size, leq) == outcome(ref_lattice, size, leq)


# --- le-modules ------------------------------------------------------------------


def min_non_generator(gens):
    """The least index that is no generator, or a bound above every index."""
    return next((i for i, g in enumerate(gens) if i != g), len(gens))


def grid_module(k1, k2):
    """The grid of a k1-chain and a k2-chain over Z2, with truncated sums.

    (i, j) is index i * k2 + j and (i, j) + (i', j') is (min(i + i', k1 - 1),
    min(j + j', k2 - 1)); 1 acts as the identity and 0 sends all to 0.  Its
    additive generators are 0, 1 and, if k1 > 1, k2, so most indices are none.
    """
    pts = list(itertools.product(range(k1), range(k2)))
    n = len(pts)
    lat = make_lattice(n, [[a[0] <= b[0] and a[1] <= b[1] for b in pts] for a in pts])
    add = freeze(
        [[min(a[0] + b[0], k1 - 1) * k2 + min(a[1] + b[1], k2 - 1) for b in pts] for a in pts]
    )
    return make_zn(2), lat, add, 0, ((0,) * n, tuple(range(n)))


def top_sum_module(lat, ring, scalars):
    """The lattice with x + 0 = x and every other sum the top, over ``ring``.

    This sum is not the join once there are three elements, and S holds:
    for m and x v y nonzero both sides are the top.  An action row that
    keeps nonzero elements nonzero and the top fixed keeps +, whether or
    not it keeps the join.  ``scalars`` maps each scalar other than 0 and 1
    to its row.
    """
    n = lat.size
    add = tuple(
        tuple(x if y == lat.bottom else y if x == lat.bottom else lat.top for y in range(n))
        for x in range(n)
    )
    action = [scalars.get(r, tuple(range(n))) for r in range(ring.order)]
    action[ring.zero] = (lat.bottom,) * n
    return ring, lat, add, lat.bottom, tuple(action)


def le_module_cases():
    """(ring, lattice, add, zero, action) of valid le-modules, sizes 1 and 2 included."""
    z2 = make_zn(2)
    cases = [
        (z2, chain_lattice(1), ((0,),), 0, ((0,), (0,))),
        (z2, chain_lattice(2), ((0, 1), (1, 1)), 0, ((0, 0), (0, 1))),
    ]
    for d in catalog():
        mod = build_instance(d)
        cases.append((mod.ring, mod.lattice, mod.add, mod.zero_m, mod.action))
    cases += [grid_module(1, 6), grid_module(3, 3), grid_module(2, 4)]
    # Sums that are not the join, over Z3 with 2 acting as the identity.
    for n in (4, 5):
        cases.append(top_sum_module(chain_lattice(n), make_zn(3), {}))
    return cases


def le_module_outcome_new(ring, lattice, add, zero_m, action):
    make_le_module(ring, lattice, add, zero_m, action)


def test_le_module_scan_matches_reference(monkeypatch):
    rng = random.Random("le-modules")
    results = []
    assoc_off_generators = s_after_non_generator = 0
    m5_as_m1 = 0
    certified = fell_back = 0
    verdicts = []  # what the join-table certificate said, per call
    real = le_modules.join_rows

    class Recorded(tuple):
        """A join table that records each ``add == table`` comparison: as a
        subclass of tuple, its ``__eq__`` is tried before the sum's."""

        def __eq__(self, other):
            verdicts.append(tuple.__eq__(self, other))
            return verdicts[-1]

        __hash__ = tuple.__hash__

    monkeypatch.setattr(le_modules, "join_rows", lambda lat: Recorded(real(lat)))
    for ring, lat, add, zero, action in le_module_cases():
        n = lat.size
        cases = [(add, action)]
        for sym in (False, True):
            cases += [(a, action) for a in mutants(add, range(n), rng, 25, sym)]
        cases += [(add, a) for a in mutants(action, range(n), rng, 50)]
        cases = [(lat, a, b) for a, b in cases]
        # The lattice's own join as the sum, where the sum is another: its
        # action may break M5, which the join-sum reports as M1.  And the
        # sum under the chain order of the indices, whose join it is not
        # (on the 3 x 3 grid, S fails first at the generator 3, past the
        # non-generator 2).
        if add != join_table(lat):
            cases.append((lat, join_table(lat), action))
        if n > 2:
            cases.append((chain_lattice(n), add, action))
        for case_lat, bad_add, bad_act in cases:
            jt = join_table(case_lat)
            expected = outcome(ref_le_module, ring, case_lat, bad_add, zero, bad_act)
            verdicts.clear()
            got = outcome(le_module_outcome_new, ring, case_lat, bad_add, zero, bad_act)
            assert got == expected, (case_lat, bad_add, bad_act)
            results.append(expected)
            # Past the identity row, the certificate says whether the sum
            # is the join; only a sum that is not is scanned for S and M5.
            is_join = bad_add == jt
            if bad_add[zero] != tuple(range(n)):
                assert verdicts == []
            else:
                assert verdicts == [is_join]
                certified += is_join
                fell_back += not is_join
            # S and M1 fail first at a generator: the generators below an
            # index generate it, and their good values are closed under +.
            # Associativity's are not, so it can fail first off them.
            gens = generators(bad_add)
            if expected[1] == "monoid" and len(expected[2]) == 3:
                assoc_off_generators += expected[2][1] not in gens
            elif expected[1] in ("S", "M1"):
                at = expected[2][0 if expected[1] == "S" else 1]
                assert at in gens, expected
                s_after_non_generator += expected[1] == "S" and at > min_non_generator(gens)
            # Where the sum is the join, S holds and M5, then the same law
            # as M1, is not scanned.
            if is_join:
                assert expected[1] not in ("S", "M5"), expected
                if expected[1] == "M1":
                    r, x, y = expected[2]
                    assert bad_act[r][jt[x][y]] != jt[bad_act[r][x]][bad_act[r][y]]
                    m5_as_m1 += 1
        assert results[-len(cases)] == ("ok", None)
    # M5 first: ``test_m5_is_scanned_where_the_sum_is_not_the_join``.
    assert {"monoid", "S", "M1", "M2", "M3", "M4"} <= seen_failures(results)
    # Only the full rescan names these associativity witnesses.
    assert assoc_off_generators > 0
    assert s_after_non_generator > 0
    # An action that breaks M5 on a join-sum instance is reported at M1.
    assert m5_as_m1 > 0
    assert certified > 0 and fell_back > 0, (certified, fell_back)


def test_m5_is_scanned_where_the_sum_is_not_the_join():
    """The top sum on a chain over Z3, with 2 acting by a row that keeps the
    sum but not the join; both rows swap two middle elements."""
    cases = [
        (chain_lattice(4), (0, 2, 1, 3), (2, 1, 2)),
        (chain_lattice(5), (0, 1, 3, 2, 4), (2, 2, 3)),
    ]
    for lat, row, witness in cases:
        ring, lat, add, zero, action = top_sum_module(lat, make_zn(3), {2: row})
        expected = outcome(ref_le_module, ring, lat, add, zero, action)
        assert expected[:3] == ("AxiomViolation", "M5", witness)
        assert outcome(le_module_outcome_new, ring, lat, add, zero, action) == expected
        # With the join as the sum, the same row breaks M1 instead.
        jt = join_table(lat)
        expected = outcome(ref_le_module, ring, lat, jt, zero, action)
        assert expected[:2] == ("AxiomViolation", "M1")
        assert outcome(le_module_outcome_new, ring, lat, jt, zero, action) == expected


# --- classical modules -------------------------------------------------------


def classical_cases():
    out = [(make_zn(2), 1, 0, ((0,),), ((0,), (0,)))]  # the zero module
    for n in range(2, 9):
        out.append((make_zn(n), *cyclic_module_tables(n)))
    z2, z4 = cyclic_module_tables(2), cyclic_module_tables(4)
    out.append((make_zn(2), *product_module_tables(z2, z2)))
    out.append((make_zn(4), *product_module_tables(mod_scaled_cyclic_tables(2, 4), z4)))
    out.append((make_zn(6), *mod_scaled_cyclic_tables(3, 6)))
    z3 = cyclic_module_tables(3)
    out.append((make_zn(3), *product_module_tables(z3, z3)))
    return out


def relabelled(ring, name):
    """The ring with element a renamed ``name[a]``: an isomorphic ring."""
    old = sorted(range(ring.order), key=name.__getitem__)  # old[name[a]] == a

    def table(t):
        return tuple(tuple(name[t[old[x]][old[y]]] for y in range(ring.order)) for x in range(ring.order))

    add, mul = table(ring.add), table(ring.mul)
    make_ring(ring.order, add, mul)  # raises if it is no ring
    return replace(ring, add=add, mul=mul, zero=name[ring.zero], one=name[ring.one])


def test_classical_module_scan_matches_reference():
    rng = random.Random("classical")
    results = []
    assoc_off_generators = scalar_off_generators = 0
    for ring, size, zero, add, action in classical_cases():
        assert outcome(ref_classical, ring, size, zero, add, action) == ("ok", None)
        got = outcome(_check_classical_module, ring, size, zero, add, action)
        assert got == ("ok", None)
        cases = [(a, action) for a in mutants(add, range(size), rng, 30)]
        cases += [(a, action) for a in mutants(add, range(size), rng, 30, symmetric=True)]
        cases += [(add, a) for a in mutants(action, range(size), rng, 40)]
        cases = [(ring, a, b) for a, b in cases]
        # The ring with its elements renamed, so that a row can fail first
        # at scalar-add or scalar-mul.  It is still a ring: the scalar laws
        # are checked at its additive generators on the strength of the
        # ring laws, so a ring table with one cell changed is no input.
        for _ in range(40):
            cases.append((relabelled(ring, rng.sample(range(ring.order), ring.order)), add, action))
        for bad_ring, bad_add, bad_act in cases:
            expected = outcome(ref_classical, bad_ring, size, zero, bad_add, bad_act)
            got = outcome(_check_classical_module, bad_ring, size, zero, bad_add, bad_act)
            assert got == expected, (bad_ring, bad_add, bad_act)
            results.append(expected)
            gens = generators(bad_add)
            if expected[1] == "group-assoc":
                assoc_off_generators += expected[2][1] not in gens
            elif expected[1] == "action-add":
                assert expected[2][1] in gens, expected
            elif expected[1] in ("scalar-add", "scalar-mul"):
                scalar_off_generators += expected[2][1] not in generators(bad_ring.add)
    assert {
        "group-identity", "group-comm", "group-assoc", "action-add",
        "scalar-add", "scalar-mul", "unit-action",
    } <= seen_failures(results)
    assert assoc_off_generators > 0
    # Scalar-law witnesses whose s is no additive generator of the ring:
    # only the full rescan names these.
    assert scalar_off_generators > 0


def test_tables_past_256_elements_are_judged_by_value():
    """Explicit F2^5 (374 subspaces), valid and with a broken monoid
    identity or commutativity, from the parser, whose tables share one int
    object per entry text, and as copies with a fresh int in every cell."""
    size, leq, add, action = workloads.subspace_tables(2, 5)
    identity_broken = [row[:] for row in add]
    identity_broken[0][300] = 301
    comm_broken = [row[:] for row in add]
    comm_broken[257][300] = 0 if comm_broken[257][300] else 1
    expected = [
        ("ok", None),
        ("AxiomViolation", "monoid", (0, 300)),
        ("AxiomViolation", "monoid", (257, 300)),
    ]
    for table, law in zip((add, identity_broken, comm_broken), expected):
        text = workloads.explicit_module_descriptor("F2^5", 2, size, leq, table, action)
        spec = parse_descriptor(text).module
        fresh = [tuple(tuple(int(str(v)) for v in row) for row in t) for t in (spec.add, spec.action)]
        entries = [v for row in spec.add + spec.action for v in row]
        assert len({id(v) for v in entries}) == len(set(entries)) == size
        assert len({id(v) for row in fresh[0] for v in row}) > size
        args = (make_zn(2), make_lattice(size, spec.leq))
        parsed = outcome(le_module_outcome_new, *args, spec.add, 0, spec.action)
        assert parsed[: len(law)] == law
        assert outcome(le_module_outcome_new, *args, fresh[0], 0, fresh[1]) == parsed


def test_a_hand_built_order_that_is_no_poset_is_not_certified():
    # 0 <= 1 <= 0: both elements have the same up-set, so U(a) & U(b) is
    # U(a + b) for any sum at all, and only U being one-to-one keeps this
    # noncommutative join-sum from passing the certificate.
    add = ((0, 1), (0, 1))
    lat = FiniteBoundedLattice(2, 1, 0, (0b11, 0b11), (0b11, 0b11))
    expected = outcome(ref_le_module, make_zn(2), lat, add, 0, ((0, 0), (0, 1)))
    assert expected[:3] == ("AxiomViolation", "monoid", (0, 1))
    assert outcome(le_module_outcome_new, make_zn(2), lat, add, 0, ((0, 0), (0, 1))) == expected


def test_join_table_certificate_matches_the_least_upper_bound_one():
    """``add == join_rows(lattice)`` says what ``sum_is_lub`` says: on the
    lattice of every ``le_module_cases`` instance and on the chain order of
    its indices, for its own sum, the join and one- and two-cell mutants."""
    rng = random.Random("certificate")
    verdicts = []
    for ring, lat, add, zero, action in le_module_cases():
        n = lat.size
        sums = [add, join_table(lat), *mutants(add, range(n), rng, 20)]
        sums += mutants(add, range(n), rng, 20, symmetric=True)
        for case_lat in [lat, chain_lattice(n)] if n > 2 else [lat]:
            for table in sums:
                verdicts.append(sum_is_lub(case_lat.up, table))
                assert (table == join_rows(case_lat)) == verdicts[-1], (case_lat, table)
    assert True in verdicts and False in verdicts
    # A hand-built order whose up-sets repeat, so U is not one-to-one.  Its
    # join table, ((1, 1), (1, 1)), has no identity row, which
    # make_le_module checks first; every sum with one gets "no" from both.
    lat = FiniteBoundedLattice(2, 1, 0, (0b11, 0b11), (0b11, 0b11))
    assert join_rows(lat) == ((1, 1), (1, 1))
    for table in itertools.product(itertools.product(range(2), repeat=2), repeat=2):
        if (0, 1) in table:
            assert table != join_rows(lat) and not sum_is_lub(lat.up, table)


def test_action_laws_name_witnesses_past_the_first_generators():
    """M1 and action-add failing first at a later generator, or at 0 alone.

    On the 3 x 3 grid and on Z3 x Z3 the generators are 0, 1 and 3, and 1
    acts by (i, j) -> (h(i), j) with h = (0, 1, 1): additive along j, so the
    rows x = 0, 1, 2 hold, but not along i.  On the 3-chain with truncated
    sums, 0 acts by (1, 2, 2), so r(x + y) = rx + ry fails only at x = y = 0:
    the zero is a generator like any other, and r0 = 0 (M4, checked after
    M1) may not be assumed.
    """
    ring, lat, add, zero, action = grid_module(3, 3)
    bent = (action[0], tuple((i // 3 > 0) * 3 + i % 3 for i in range(9)))
    cases = [(ring, lat, add, zero, bent, ("AxiomViolation", "M1", (1, 3, 3)))]
    ring, lat, add, zero, action = grid_module(1, 3)
    cases.append((ring, lat, add, zero, ((1, 2, 2), action[1]), ("AxiomViolation", "M1", (0, 0, 0))))
    for ring, lat, add, zero, act, (kind, law, witness) in cases:
        expected = outcome(ref_le_module, ring, lat, add, zero, act)
        assert expected[:3] == (kind, law, witness)
        assert outcome(le_module_outcome_new, ring, lat, add, zero, act) == expected

    z3 = cyclic_module_tables(3)
    size, zero, add, action = product_module_tables(z3, z3)
    bent = (action[0], tuple((i // 3 > 0) * 3 + i % 3 for i in range(9)), action[2])
    expected = outcome(ref_classical, make_zn(3), size, zero, add, bent)
    assert expected == ("ModuleAxiomViolation", "action-add", (1, 3, 3))
    assert outcome(_check_classical_module, make_zn(3), size, zero, add, bent) == expected


def test_classical_module_rejects_misshapen_tables():
    z2 = make_zn(2)
    add, action = ((0, 1), (1, 0)), ((0, 0), (0, 1))
    bad = [
        (add, action[:1], "action table must have 2 rows, got 1"),
        (((0, 1, 1), (1, 0, 0)), action, "add table row 0 must have 2 entries"),
        (((0, 1), (1, -1)), action, "add table entry -1 at row 1 out of range"),
        (add, ((0, 0), (0, 2)), "action table entry 2 at row 1 out of range"),
    ]
    for bad_add, bad_act, message in bad:
        with pytest.raises(ValueError, match=message):
            _check_classical_module(z2, 2, 0, bad_add, bad_act)


# --- the table gate ------------------------------------------------------------


def ref_gate(table, rows, cols, label):
    """The per-row loop that ``rings.check_table_shape`` must agree with."""
    if len(table) != rows:
        raise ValueError(f"{label} table must have {rows} rows, got {len(table)}")
    for i, row in enumerate(table):
        if len(row) != cols:
            raise ValueError(f"{label} table row {i} must have {cols} entries")
        for v in row:
            if not 0 <= v < cols:
                raise ValueError(f"{label} table entry {v} at row {i} out of range")


def ref_leq_gate(leq):
    for i, row in enumerate(leq):
        for v in row:
            if v not in (0, 1):
                raise ValueError(f"leq entry {v} at row {i} must be 0 or 1")


def first_message(*checks):
    """The text of the first ValueError that the calls ``(fn, *args)`` raise, or None."""
    for fn, *args in checks:
        try:
            fn(*args)
        except ValueError as exc:
            return str(exc)
    return None


def bent_rows(table, cols, rng, entries=None):
    """A copy of ``table`` with one to three rows bent, each cut short, made
    long, or given an entry from ``entries`` (by default a negative one or
    one of ``cols`` or more); with ``entries`` given, only that, and
    otherwise, now and then, one row left out as well."""
    t = thaw(table)
    for i in rng.sample(range(len(t)), min(len(t), rng.randint(1, 3))):
        kind = "entry" if entries else rng.choice(("short", "long", "entry", "entry"))
        if kind == "short":
            del t[i][rng.randrange(len(t[i])):]
        elif kind == "long":
            t[i].append(rng.randrange(cols))
        else:
            bad = entries or (-1, -rng.randint(2, 9), cols, cols + rng.randrange(1, 300))
            t[i][rng.randrange(len(t[i]))] = rng.choice(bad)
    if not entries and rng.random() < 0.15:
        del t[rng.randrange(len(t))]
    return freeze(t)


def test_table_gate_matches_a_per_row_loop():
    """Every explicit table passes one gate, ``rings.check_table_shape``,
    which checks row lengths and distinct values whole: on tables with one
    to three bad rows it raises the text of a per-row loop, which names the
    first bad row, through each of its four callers."""
    rng = random.Random("gate")
    seen = set()

    def compare(got, *checks):
        expected = first_message(*checks)
        assert expected is not None and got == expected, (got, expected)
        if expected.startswith("leq"):
            seen.add(f"leq {expected.split()[2]}")
        elif "rows, got" in expected:
            seen.add("missing row")
        elif "entries" in expected:
            seen.add("row length")
        else:
            seen.add("negative entry" if " -" in expected else "large entry")

    for _, base in ring_bases():
        n, add, mul = base.order, tuple(base.add), tuple(base.mul)
        for _ in range(20):
            bad_add, bad_mul = add, bent_rows(mul, n, rng)
            if rng.random() < 0.5:
                bad_add = bent_rows(add, n, rng)
            got = first_message((make_ring, n, bad_add, bad_mul))
            compare(got, (ref_gate, bad_add, n, n, "add"), (ref_gate, bad_mul, n, n, "mul"))
    for ring, lat, add, zero, action in le_module_cases():
        n = lat.size
        for _ in range(10):
            bad_add, bad_act = bent_rows(add, n, rng), action
            if rng.random() < 0.5:
                bad_add, bad_act = add, bent_rows(action, n, rng)
            got = first_message((make_le_module, ring, lat, bad_add, zero, bad_act))
            compare(got, (ref_gate, bad_add, n, n, "add"), (ref_gate, bad_act, ring.order, n, "action"))
    for ring, size, zero, add, action in classical_cases():
        for _ in range(10):
            bad_add, bad_act = bent_rows(add, size, rng), bent_rows(action, size, rng)
            if rng.random() < 0.5:
                bad_add = add
            got = first_message((_check_classical_module, ring, size, zero, bad_add, bad_act))
            compare(got, (ref_gate, bad_add, size, size, "add"), (ref_gate, bad_act, ring.order, size, "action"))
    for p, k in ((2, 2), (2, 3), (3, 2)):
        size, leq, add, action = workloads.subspace_tables(p, k)
        tables = freeze(leq), freeze(add), freeze(action)
        for _ in range(15):
            bad = list(tables)
            bad[0] = bent_rows(tables[0], 2, rng, (2, 7))
            if rng.random() < 0.5:  # the leq is good; the module's gate speaks
                j = 1 + rng.randrange(2)
                bad[0], bad[j] = tables[0], bent_rows(tables[j], size, rng)
            spec = instances.ExplicitModuleSpec(size, 0, *bad)
            got = first_message((build_instance, instances.InstanceDescriptor("F", instances.ZnSpec(p), spec)))
            checks = [(ref_leq_gate, bad[0]), (ref_gate, bad[1], size, size, "add")]
            compare(got, *checks, (ref_gate, bad[2], p, size, "action"))
    assert seen == {"leq 2", "leq 7", "missing row", "row length", "negative entry", "large entry"}


# --- descriptor tables ----------------------------------------------------------


def fuzzed_descriptors(rng, count):
    """Explicit descriptors with tables bent at random: bad tokens, stray ';', gaps."""
    base = [
        "name f\nring explicit order 2 add 0 1 ; 1 0 mul 0 0 ; 0 1\nmodule ideal-lattice\n",
        "name g\nring product ( explicit order 2 add 0 1 ; 1 0 mul 0 0 ; 0 1 , zn 3 )\n"
        "module ideal-lattice\n",
        "name h\nring zn 2\nmodule explicit size 3 zero 0\n  leq 1 1 1 ; 0 1 1 ; 0 0 1\n"
        "  add 0 1 2 ; 1 2 2 ; 2 2 2\n  action 0 0 0 ; 0 1 2\n",
        "name k\nring zn 2\nmodule submodule-lattice size 2 zero 0\n"
        "  add 0 1 ; 1 0 # comment ; 7\n  action 0 0 ; 0 1 ;\n",
    ]
    # Tables with no rows, before a keyword and at the end of the input.
    base += [
        "name e\nring explicit order 2 add mul 0 0 ; 0 1\nmodule ideal-lattice\n",
        "name e\nring zn 2\nmodule submodule-lattice size 2 zero 0 add 0 1 ; 1 0 action\n",
    ]
    # Rows across lines, with comments between rows and at a row's end,
    # tabs, ';' with no spaces around it, and trailing ';'.
    base += [
        "name r\nring explicit order 3\n  add 0 1 2 ;\n  1 2 0 ; # between rows\n"
        "  # a whole line\n  2 0\n 1 # at a row's end\n  mul 0 0 0 ;\t0 1 2 ;\n\t0 2 1\n"
        "module ideal-lattice\n",
        "name s\nring zn 2\nmodule explicit size 2 zero 0 leq 1 1;0 1; add 0 1;1 1;\n"
        "action 0 0;0 1;\n",
    ]
    # A long table with one entry a non-ASCII digit (Arabic-Indic seven).
    n = 12
    add = " ; ".join(" ".join(str((x + y) % n) for y in range(n)) for x in range(n))
    add = add.replace(" 7 ", " \u0667 ", 1)
    mul = " ;\n".join(" ".join(str(x * y % n) for y in range(n)) for x in range(n))
    base.append(
        f"name z\nring explicit order {n}\n add {add}\n"
        f" mul {mul}\nmodule ideal-lattice\n"
    )
    noise = [";", "; ;", "x", "1.5", "-3", "+2", "1_0", "(", ")", ",", "2;", "\u0663"]
    noise += ["xmul", "mulx", "action1", "2action", "mul(", ")name"]
    noise += ["", "\n", "\n;\n", "# c\n", "\t"]
    out = list(base)
    for _ in range(count):
        words = rng.choice(base).split(" ")
        for _ in range(rng.randrange(1, 4)):
            i = rng.randrange(len(words))
            if rng.random() < 0.5:
                words.insert(i, rng.choice(noise))
            else:
                del words[i]
        out.append(" ".join(words))
    return out


def test_table_reader_matches_per_token_reference():
    rng = random.Random("descriptors")
    kinds = set()
    for text in fuzzed_descriptors(rng, 600):
        expected = outcome(ref_parse_descriptor, text)
        assert outcome(parse_descriptor, text) == expected, text
        kinds.add("ok" if expected[0] == "ok" else expected[1].split(" in field")[0])
    assert {"ok", "empty table row", "empty table"} <= kinds
    assert any(k.startswith("expected integer or ';'") for k in kinds)


def test_only_comments_and_other_line_ends_send_the_text_through_splitlines():
    """The parser cuts comments and rejoins lines only in text holding "#"
    or a line boundary of ``str.splitlines`` other than "\n"; other text
    already reads as that pass would leave it.  Line numbers agree with the
    per-token reference under every line boundary that ``str.splitlines``
    knows, so none is missing from the parser's list."""
    others = {c for c in map(chr, range(sys.maxunicode + 1)) if len(f"a{c}b".splitlines()) > 1}
    base = ["name x", "ring zn 2", "module explicit size 2 zero 0", "leq 1 1 ; 0 1", "add 0 1 ; 1 1"]
    for tail in (["action 0 0 ; 0 1"], ["action 0 0 ; 0 q"], ["action 0 0 ;", "; 0 1"], []):
        for end in sorted(others | {"\r\n"}):
            for last in ("", end, end + end):
                text = end.join(base + tail) + last
                assert outcome(parse_descriptor, text) == outcome(ref_parse_descriptor, text), text


"""Instance construction: ideal lattices, submodule lattices, explicit
tables, a text descriptor format, and the built-in catalog.

Descriptors are small line-oriented files:

    name Z6-ideal-lattice
    ring zn 6
    module ideal-lattice

Rings are ``zn N``, ``product ( RING , RING )``, or ``explicit order N
add TABLE mul TABLE``; modules are ``ideal-lattice``, ``submodule-lattice
size N zero Z add TABLE action TABLE``, or ``explicit size N zero Z leq
TABLE add TABLE action TABLE``.  A TABLE runs to the next keyword; its rows
of integers end at ``;`` and may span lines.  ``#`` starts a comment.
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache
from operator import getitem
from typing import NamedTuple, Sequence, Union

from .errors import ModuleAxiomViolation, ParseError
from .le_modules import LeModuleInstance, make_le_module
from .lattices import join_rows, lattice_of_sets, make_lattice
from .memo import record
from .rings import (
    FiniteRing,
    check_table_shape,
    ideal_table,
    make_ring,
    make_zn,
    product_ring,
    sub_objects,
)
from .rowscan import first_bad, first_bad_pair, first_failure, freeze, gather, gathers, generators

IntTable = tuple[tuple[int, ...], ...]


@record
class ZnSpec:
    n: int


@record
class ProductSpec:
    left: "RingSpec"
    right: "RingSpec"


@record
class ExplicitRingSpec:
    order: int
    add: IntTable
    mul: IntTable


RingSpec = Union[ZnSpec, ProductSpec, ExplicitRingSpec]


@record
class IdealLatticeSpec:
    pass


@record
class SubmoduleLatticeSpec:
    size: int
    zero: int
    add: IntTable
    action: IntTable


@record
class ExplicitModuleSpec:
    size: int
    zero: int
    leq: IntTable
    add: IntTable
    action: IntTable


ModuleSpec = Union[IdealLatticeSpec, SubmoduleLatticeSpec, ExplicitModuleSpec]


@record
class InstanceDescriptor:
    name: str
    ring: RingSpec
    module: ModuleSpec


def build_ring(spec: RingSpec) -> FiniteRing:
    if isinstance(spec, ZnSpec):
        return make_zn(spec.n)
    if isinstance(spec, ProductSpec):
        return product_ring(build_ring(spec.left), build_ring(spec.right))
    return make_ring(spec.order, spec.add, spec.mul)


def ideal_lattice_le_module(ring: FiniteRing, name: str) -> LeModuleInstance:
    """The lattice of all ideals, with ideal sum and elementwise action."""
    return _lattice_le_module(ring, ring.mul, list(ideal_table(ring)[1]), name)


def _lattice_le_module(
    ring: FiniteRing, act: IntTable, sets: Sequence[frozenset[int]], name: str
) -> LeModuleInstance:
    """The le-module of the ideals or submodules ``sets``, in canonical
    order, of a ring or module with action table ``act``, unchecked.

    I + J is the least ideal (submodule) holding I and J, so the sum is the
    lattice join and the zero ideal (submodule) is the bottom; a join is a
    commutative monoid with the bottom as identity that distributes over
    joins (S).  rI = {rx : x in I} is an ideal (submodule), and
    r(I + J) = rI + rJ (M1, M5), (r + s)I <= rI + sI (M2), (rs)I = r(sI)
    (M3), 1I = I, 0I = 0 and r0 = 0 (M4) hold element by element.  So the
    laws that make_le_module scans for hold by construction.

    Row r of the action holds, for each lattice element m, the index of
    rI = {act[r][x] : x in I}, I = ``sets[m]``.  The row of r depends only
    on rR: if rR = sR then s = rt and r = su for some t, u, so
    sI = r(tI) <= rI and rI = s(uI) <= sI.  So each distinct row is
    computed once, and scalars with the same rR, by its index in the ring's
    ``ideal_table``, share it.
    """
    index = {s: k for k, s in enumerate(sets)}
    members = [sorted(s) for s in sets]
    picks = [gather(m) for m in members]
    principal = ideal_table(ring)[3]
    rows: dict[int, tuple[int, ...]] = {}
    for r, k in enumerate(principal):
        if k not in rows:
            row = act[r]
            rows[k] = tuple(index[frozenset(g(row))] for g in picks)
    action = tuple(map(rows.__getitem__, principal))
    labels = tuple("{" + ",".join(map(str, m)) + "}" for m in members)
    lattice = lattice_of_sets(sets)
    return LeModuleInstance(ring, lattice, join_rows(lattice), lattice.bottom, action, name, labels)


def _check_classical_module(
    ring: FiniteRing, size: int, zero: int, add: IntTable, action: IntTable
) -> None:
    """Check the module laws a row at a time; raises on the first bad cell.

    The witness is the one a loop over the indices of the witness tuple, in
    order, would find first.  Scalar-add and scalar-mul are checked at the
    ring's additive generators s, reading r+s and rs from row s, and at every
    (r, s) only on a failure: given action-add and associativity, the good s
    for scalar-add are closed under +, (r+(s+s'))x = (rx + sx) + s'x =
    rx + (s+s')x, and so are those for scalar-mul, (r(s+s'))x = r(sx) +
    r(s'x) = r((s+s')x)."""
    check_table_shape(add, size, size, "add")
    check_table_shape(action, ring.order, size, "action")
    if not 0 <= zero < size:
        raise ValueError("zero out of range")

    rng = range(size)
    identity = tuple(rng)
    if add[zero] != identity:
        x = first_failure((add[zero], identity))[0]
        raise ModuleAxiomViolation("group-identity", (zero, x))
    add_cols = tuple(zip(*add))
    for x in rng:
        if add[x] != add_cols[x]:
            y = first_failure((add[x], add_cols[x]))[0]
            raise ModuleAxiomViolation("group-comm", (x, y))
    # group-assoc by Light's test and action-add by closure under + given
    # associativity, both at the additive generators only, as in
    # make_le_module; action-add fails first at a generator.
    add_get = gathers(add)
    gens = generators(add)

    def assoc(x: int, y: int) -> tuple[tuple, tuple]:
        return add[add[x][y]], add_get[y](add[x])

    bad = first_bad_pair(assoc, itertools.product(rng, gens), itertools.product(rng, repeat=2))
    if bad is not None:
        raise ModuleAxiomViolation("group-assoc", (*bad, first_failure(assoc(*bad))[0]))
    for x in rng:
        if zero not in add[x]:
            raise ModuleAxiomViolation("group-inverse", (x,))
    rr = range(ring.order)
    act_get = gathers(action)

    def action_add(r: int, x: int) -> tuple[tuple, tuple]:
        # r(x+y) against rx + ry
        return add_get[x](action[r]), act_get[r](add[action[r][x]])

    bad = first_bad(action_add, itertools.product(rr, gens))
    if bad is not None:
        raise ModuleAxiomViolation("action-add", (*bad, first_failure(action_add(*bad))[0]))

    def scalar_laws(r: int, s: int) -> tuple[tuple, tuple]:
        # (r+s)x, (rs)x against rx + sx, r(sx); lists, as in the M2 scan.
        summed = list(map(getitem, act_get[r](add), action[s]))
        lhs = (list(action[ring.add[s][r]]), action[ring.mul[s][r]])
        return lhs, (summed, act_get[s](action[r]))

    at_gens = itertools.product(rr, generators(ring.add))
    bad = first_bad_pair(scalar_laws, at_gens, itertools.product(rr, repeat=2))
    if bad is not None:
        x, law = first_failure(*zip(*scalar_laws(*bad)))
        raise ModuleAxiomViolation(("scalar-add", "scalar-mul")[law], (*bad, x))
    if action[ring.one] != identity:
        x = first_failure((action[ring.one], identity))[0]
        raise ModuleAxiomViolation("unit-action", (x,))


def submodule_lattice_le_module(
    ring: FiniteRing,
    size: int,
    zero: int,
    add: Sequence[Sequence[int]],
    action: Sequence[Sequence[int]],
    name: str,
) -> LeModuleInstance:
    """The lattice of submodules of a finite classical module."""
    add_t, act_t = freeze(add), freeze(action)
    _check_classical_module(ring, size, zero, add_t, act_t)

    # The submodules are the sums of the cyclic submodules Rg, the columns
    # of the action; R0 = {0} is one of them.
    cyclic = [frozenset(column) for column in zip(*act_t)]
    return _lattice_le_module(ring, act_t, list(sub_objects(add_t, cyclic)), name)


def build_instance(desc: InstanceDescriptor) -> LeModuleInstance:
    ring = build_ring(desc.ring)
    mod = desc.module
    if isinstance(mod, IdealLatticeSpec):
        return ideal_lattice_le_module(ring, desc.name)
    if isinstance(mod, SubmoduleLatticeSpec):
        return submodule_lattice_le_module(
            ring, mod.size, mod.zero, mod.add, mod.action, desc.name
        )
    check_table_shape(mod.leq, None, 2, "leq", "leq entry {v} at row {i} must be 0 or 1")
    lattice = make_lattice(mod.size, mod.leq)
    return make_le_module(ring, lattice, mod.add, mod.zero, mod.action, desc.name)


def cyclic_module_tables(n: int) -> tuple[int, int, IntTable, IntTable]:
    """Z_n as a module over Z_n: (size, zero, add, action)."""
    add = tuple(tuple((x + y) % n for y in range(n)) for x in range(n))
    action = tuple(tuple((r * x) % n for x in range(n)) for r in range(n))
    return n, 0, add, action


def product_module_tables(
    a: tuple[int, int, IntTable, IntTable], b: tuple[int, int, IntTable, IntTable]
) -> tuple[int, int, IntTable, IntTable]:
    """Componentwise product of two modules over the same ring."""
    (s1, z1, add1, act1) = a
    (s2, z2, add2, act2) = b
    if len(act1) != len(act2):
        raise ValueError("modules must share the scalar ring")
    size = s1 * s2

    def enc(x: int, y: int) -> int:
        return x * s2 + y

    add = tuple(
        tuple(
            enc(add1[x1][x2], add2[y1][y2])
            for x2 in range(s1)
            for y2 in range(s2)
        )
        for x1 in range(s1)
        for y1 in range(s2)
    )
    action = tuple(
        tuple(enc(act1[r][x], act2[r][y]) for x in range(s1) for y in range(s2))
        for r in range(len(act1))
    )
    return size, enc(z1, z2), add, action


def mod_scaled_cyclic_tables(n: int, ring_order: int) -> tuple[int, int, IntTable, IntTable]:
    """Z_n as a module over Z_m when n divides m."""
    if ring_order % n != 0:
        raise ValueError("module modulus must divide the ring modulus")
    add = tuple(tuple((x + y) % n for y in range(n)) for x in range(n))
    action = tuple(tuple((r * x) % n for x in range(n)) for r in range(ring_order))
    return n, 0, add, action


_CHAIN3_MODULE = ExplicitModuleSpec(
    size=3,
    zero=0,
    leq=((1, 1, 1), (0, 1, 1), (0, 0, 1)),
    add=((0, 1, 2), (1, 2, 2), (2, 2, 2)),
    action=((0, 0, 0), (0, 1, 2)),
)


def _submodule_spec(tables: tuple[int, int, IntTable, IntTable]) -> SubmoduleLatticeSpec:
    size, zero, add, action = tables
    return SubmoduleLatticeSpec(size, zero, add, action)


@lru_cache(maxsize=None)
def catalog() -> tuple[InstanceDescriptor, ...]:
    """The built-in deterministic instance set."""
    entries: list[InstanceDescriptor] = []
    for n in (2, 3, 4, 5, 6, 8, 9, 12, 30):
        entries.append(
            InstanceDescriptor(f"Z{n}-ideal-lattice", ZnSpec(n), IdealLatticeSpec())
        )
    entries.append(
        InstanceDescriptor(
            "Z2xZ3-ideal-lattice", ProductSpec(ZnSpec(2), ZnSpec(3)), IdealLatticeSpec()
        )
    )
    entries.append(
        InstanceDescriptor(
            "Z2xZ2-ideal-lattice", ProductSpec(ZnSpec(2), ZnSpec(2)), IdealLatticeSpec()
        )
    )
    z2 = cyclic_module_tables(2)
    z4 = cyclic_module_tables(4)
    z6 = cyclic_module_tables(6)
    entries.append(
        InstanceDescriptor(
            "Z2xZ2-over-Z2-submodules",
            ZnSpec(2),
            _submodule_spec(product_module_tables(z2, z2)),
        )
    )
    entries.append(
        InstanceDescriptor("Z4-over-Z4-submodules", ZnSpec(4), _submodule_spec(z4))
    )
    entries.append(
        InstanceDescriptor("Z6-over-Z6-submodules", ZnSpec(6), _submodule_spec(z6))
    )
    z2_over_z4 = mod_scaled_cyclic_tables(2, 4)
    entries.append(
        InstanceDescriptor(
            "Z2xZ4-over-Z4-submodules",
            ZnSpec(4),
            _submodule_spec(product_module_tables(z2_over_z4, z4)),
        )
    )
    entries.append(
        InstanceDescriptor("three-chain-over-Z2", ZnSpec(2), _CHAIN3_MODULE)
    )
    return tuple(entries)


def catalog_names() -> tuple[str, ...]:
    return tuple(d.name for d in catalog())


def find_descriptor(name: str) -> InstanceDescriptor | None:
    for d in catalog():
        if d.name == name:
            return d
    return None


# --- descriptor text format ---------------------------------------------


class _Token(NamedTuple):
    text: str
    at: int  # offset in the parser's text


_WORD = re.compile(r"\s*(\S+)")


def _find_token(text: str, word: str, start: int, end: int) -> int:
    """The offset of the first ``word`` in ``text[start:end]`` that stands
    as a whole token, between spaces or the ends of ``text``, or -1."""
    at = text.find(word, start, end)
    while at >= 0 and not (
        (at == 0 or text[at - 1].isspace())
        and (at + len(word) == len(text) or text[at + len(word)].isspace())
    ):
        at = text.find(word, at + 1, end)
    return at


class _Ints(dict):
    """Token text to ``int(text)``, each distinct text converted once."""

    def __missing__(self, text: str) -> int:
        value = self[text] = int(text)
        return value


class _Parser:
    """A cursor over the descriptor text, with comments cut off and each of
    ``(),;`` spaced apart, so that a token is a run of non-space characters.
    Each line ends in one newline, so a token's line is a count of the
    newlines before it, taken only for an error.  A pass that would change
    nothing is skipped.
    """

    def __init__(self, text: str):
        # "#", or a line boundary of str.splitlines other than "\n"
        if any(map(text.__contains__, "#\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")):
            text = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
        for ch in "(),;":
            if ch in text:
                text = text.replace(ch, f" {ch} ")
        self.text = text
        self.pos = 0
        self.ints = _Ints()

    def line(self, at: int) -> int:
        return self.text.count("\n", 0, at) + 1

    def at_end(self) -> bool:
        return _WORD.match(self.text, self.pos) is None

    def next(self, field: str) -> _Token:
        word = _WORD.match(self.text, self.pos)
        if word is None:  # the line is that of the last token
            raise ParseError("unexpected end of input", self.line(len(self.text.rstrip())), field)
        self.pos = word.end()
        return _Token(word[1], word.start(1))

    def expect(self, text: str, field: str) -> _Token:
        tok = self.next(field)
        if tok.text != text:
            raise ParseError(f"expected '{text}', got '{tok.text}'", self.line(tok.at), field)
        return tok

    def integer(self, field: str) -> int:
        tok = self.next(field)
        try:
            return int(tok.text)
        except ValueError:
            raise ParseError(f"expected integer, got '{tok.text}'", self.line(tok.at), field) from None

    def table(self, field: str, *stop_words: str) -> IntTable:
        """Rows of integers separated by ';', up to the next stop word.

        Rows may span lines, and a ';' may end the last one.  Each row is
        converted from its own text, through the parser's ``ints``, so equal
        entries of all the tables share one int object.
        """
        text, at = self.text, self.pos
        # The table ends at the earliest stop word.  Each word is found by a
        # scan for the literal, far faster than a regex alternation of the
        # words, which is tried at every character.  Each scan ends where
        # the one before found its word: that word follows a space, so no
        # whole token before it is cut short.
        end, stopped = len(text), False
        for word in stop_words:
            found = _find_token(text, word, at, end)
            if found >= 0:
                end, stopped = found, True
        to_int = self.ints.__getitem__
        rows = []
        for piece in text[at:end].split(";"):
            try:
                row = tuple(map(to_int, piece.split()))
            except ValueError:
                # The entries before the bad one are in ``ints`` now.
                bad = next(w for w in _WORD.finditer(piece) if w[1] not in self.ints)
                raise ParseError(
                    f"expected integer or ';', got '{bad[1]}'", self.line(at + bad.start(1)), field
                ) from None
            if row:
                rows.append(row)
            elif at + len(piece) < end:  # a ';' ends this empty row
                raise ParseError("empty table row", self.line(at + len(piece)), field)
            at += len(piece) + 1
        if not rows:
            raise ParseError("empty table", self.line(end) if stopped else None, field)
        self.pos = end
        return tuple(rows)

    def ring(self) -> RingSpec:
        tok = self.next("ring")
        if tok.text == "zn":
            return ZnSpec(self.integer("ring"))
        if tok.text == "product":
            self.expect("(", "ring")
            left = self.ring()
            self.expect(",", "ring")
            right = self.ring()
            self.expect(")", "ring")
            return ProductSpec(left, right)
        if tok.text == "explicit":
            self.expect("order", "ring")
            order = self.integer("ring")
            self.expect("add", "ring")
            add = self.table("add", "mul")
            self.expect("mul", "ring")
            mul = self.table("mul", "module", "name", ")", ",")
            return ExplicitRingSpec(order, add, mul)
        raise ParseError(f"unknown ring form '{tok.text}'", self.line(tok.at), "ring")

    def module(self) -> ModuleSpec:
        tok = self.next("module")
        if tok.text == "ideal-lattice":
            return IdealLatticeSpec()
        if tok.text == "submodule-lattice":
            self.expect("size", "module")
            size = self.integer("module")
            self.expect("zero", "module")
            zero = self.integer("module")
            self.expect("add", "module")
            add = self.table("add", "action")
            self.expect("action", "module")
            action = self.table("action", "name", "ring")
            return SubmoduleLatticeSpec(size, zero, add, action)
        if tok.text == "explicit":
            self.expect("size", "module")
            size = self.integer("module")
            self.expect("zero", "module")
            zero = self.integer("module")
            self.expect("leq", "module")
            leq = self.table("leq", "add")
            self.expect("add", "module")
            add = self.table("add", "action")
            self.expect("action", "module")
            action = self.table("action", "name", "ring")
            return ExplicitModuleSpec(size, zero, leq, add, action)
        raise ParseError(f"unknown module form '{tok.text}'", self.line(tok.at), "module")


def parse_descriptor(text: str) -> InstanceDescriptor:
    """Parse descriptor text; raises ParseError with a line number."""
    parser = _Parser(text)
    name: str | None = None
    ring: RingSpec | None = None
    module: ModuleSpec | None = None
    while not parser.at_end():
        tok = parser.next("descriptor")
        if tok.text == "name":
            if name is not None:
                raise ParseError("duplicate 'name'", parser.line(tok.at), "name")
            name = parser.next("name").text
        elif tok.text == "ring":
            if ring is not None:
                raise ParseError("duplicate 'ring'", parser.line(tok.at), "ring")
            ring = parser.ring()
        elif tok.text == "module":
            if module is not None:
                raise ParseError("duplicate 'module'", parser.line(tok.at), "module")
            module = parser.module()
        else:
            raise ParseError(f"unknown keyword '{tok.text}'", parser.line(tok.at), "descriptor")
    if name is None:
        raise ParseError("missing 'name'", field="name")
    if ring is None:
        raise ParseError("missing 'ring'", field="ring")
    if module is None:
        raise ParseError("missing 'module'", field="module")
    return InstanceDescriptor(name, ring, module)


def _format_table(table: IntTable) -> str:
    return " ; ".join(" ".join(str(v) for v in row) for row in table)


def _format_ring(spec: RingSpec) -> str:
    if isinstance(spec, ZnSpec):
        return f"zn {spec.n}"
    if isinstance(spec, ProductSpec):
        return f"product ( {_format_ring(spec.left)} , {_format_ring(spec.right)} )"
    return (
        f"explicit order {spec.order} add {_format_table(spec.add)} "
        f"mul {_format_table(spec.mul)}"
    )


def _format_module(spec: ModuleSpec) -> str:
    if isinstance(spec, IdealLatticeSpec):
        return "ideal-lattice"
    if isinstance(spec, SubmoduleLatticeSpec):
        return (
            f"submodule-lattice size {spec.size} zero {spec.zero} "
            f"add {_format_table(spec.add)} action {_format_table(spec.action)}"
        )
    return (
        f"explicit size {spec.size} zero {spec.zero} leq {_format_table(spec.leq)} "
        f"add {_format_table(spec.add)} action {_format_table(spec.action)}"
    )


def format_descriptor(desc: InstanceDescriptor) -> str:
    return (
        f"name {desc.name}\n"
        f"ring {_format_ring(desc.ring)}\n"
        f"module {_format_module(desc.module)}\n"
    )

"""Workload definitions, descriptor generation and independently computed facts.

Nothing here imports lemspec: the descriptor text is written from tables
this module builds itself, and the expected facts (lattice sizes, spectrum
sizes, closed-set counts) come from elementary number theory and from a
small brute-force enumerator of submodules, never from the program under
test.

An operation is one ``lemspec verify <input> --format structured`` or one
``lemspec validate <file>`` call.  ``make_plan`` turns a workload name and a
seed into the list of operations of one pass; the seed fixes the order of
the operations and, on ``validate-explicit``, the mutated cells.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import asdict, dataclass, field
from pathlib import Path

# The 16 built-in instances.  Listed here rather than read from the program
# so that a renamed or dropped catalog entry shows up as a failed operation.
CATALOG = (
    "Z2-ideal-lattice",
    "Z3-ideal-lattice",
    "Z4-ideal-lattice",
    "Z5-ideal-lattice",
    "Z6-ideal-lattice",
    "Z8-ideal-lattice",
    "Z9-ideal-lattice",
    "Z12-ideal-lattice",
    "Z30-ideal-lattice",
    "Z2xZ3-ideal-lattice",
    "Z2xZ2-ideal-lattice",
    "Z2xZ2-over-Z2-submodules",
    "Z4-over-Z4-submodules",
    "Z6-over-Z6-submodules",
    "Z2xZ4-over-Z4-submodules",
    "three-chain-over-Z2",
)

# Ideal lattices of Z_n: big rings, few lattice elements, at most 3 points.
# Z32 is a prime power (connected spectrum); Z42 has three prime factors.
RING_LADDER = (32, 36, 42, 45)

# Submodule lattices of (Z_m)^k over Z_m: small rings, many points.
POINT_LADDER = ((4, 2), (5, 2), (7, 2), (2, 3))

# Explicit-table descriptors: subspace lattices of F_p^k given by their
# leq/add/action tables, and Z_n given by explicit ring tables.
EXPLICIT_SUBSPACES = ((3, 3), (2, 4), (7, 3))
EXPLICIT_RINGS = (60, 120)

# One mutated copy per kind and per valid file.  Each mutation changes one
# cell and provably makes the named law the first one the validator hits
# (see _mutate_module and _mutate_ring); ``expect`` is what the error
# message must contain.
MODULE_MUTATIONS = (
    ("reflexivity", ("reflexivity",)),
    ("antisymmetry", ("antisymmetry",)),
    ("monoid-identity", ("axiom monoid", "identity")),
    ("monoid-commutativity", ("axiom monoid", "commutativity")),
)
RING_MUTATIONS = (
    ("add-comm", ("axiom add-comm",)),
    ("mul-comm", ("axiom mul-comm",)),
)

WORKLOADS = ("catalog", "ring-ladder", "point-ladder", "validate-explicit")


@dataclass
class Operation:
    """One CLI call of a pass, with what its output must show."""

    command: str  # "verify" or "validate"
    target: str  # catalog name or descriptor path relative to the checkout
    instance: str
    expect_rc: int = 0
    # Facts the output must match; keys are read by checks.py.
    facts: dict = field(default_factory=dict)
    # Ask the worker for the lattice, spectrum and closed-set sizes too.
    probe: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


# --- elementary facts ------------------------------------------------------


def factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def num_divisors(n: int) -> int:
    count = 1
    for e in factorize(n).values():
        count *= e + 1
    return count


def num_prime_factors(n: int) -> int:
    return len(factorize(n))


def gaussian_binomial(k: int, j: int, q: int) -> int:
    num = den = 1
    for i in range(j):
        num *= q ** (k - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def subspace_count(p: int, k: int) -> int:
    return sum(gaussian_binomial(k, j, p) for j in range(k + 1))


# --- modules (Z_m)^k, enumerated by brute force ------------------------------


def power_module(m: int, k: int):
    """(Z_m)^k as tables: (elements, add, action), element 0 is the zero vector."""
    elems = list(itertools.product(range(m), repeat=k))
    index = {e: i for i, e in enumerate(elems)}
    add = [
        [index[tuple((a + b) % m for a, b in zip(x, y))] for y in elems]
        for x in elems
    ]
    action = [[index[tuple((r * a) % m for a in x)] for x in elems] for r in range(m)]
    return elems, add, action


def submodules(m: int, k: int) -> list[frozenset[int]]:
    """All submodules of (Z_m)^k, sorted by size and then members."""
    elems, add, action = power_module(m, k)
    found = {frozenset({0})}
    frontier = [frozenset({0})]
    while frontier:
        base = frontier.pop()
        for g in range(len(elems)):
            if g not in base:
                # The submodule generated by a submodule B and g is B + R g.
                grown = frozenset(add[b][action[r][g]] for b in base for r in range(m))
                if grown not in found:
                    found.add(grown)
                    frontier.append(grown)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def power_module_spectrum(m: int, k: int) -> tuple[int, int, int]:
    """(lattice size, points, closed sets) of (Z_m)^k over Z_m, by brute force.

    Points are the classical prime submodules: proper N such that r*x in N
    forces x in N or r*M inside N.  The closed sets are the V*(N), the
    points whose colon ideal contains the colon ideal of N.
    """
    elems, _, action = power_module(m, k)
    whole = frozenset(range(len(elems)))
    subs = submodules(m, k)

    def colon(n: frozenset[int]) -> frozenset[int]:
        return frozenset(r for r in range(m) if all(action[r][x] in n for x in whole))

    primes = [
        n
        for n in subs
        if n != whole
        and not any(
            r not in colon(n) and any(action[r][x] in n and x not in n for x in whole)
            for r in range(m)
        )
    ]
    closed = {
        frozenset(i for i, p in enumerate(primes) if colon(n) <= colon(p)) for n in subs
    }
    return len(subs), len(primes), len(closed)


# --- descriptor text ---------------------------------------------------------


def _table(rows) -> str:
    return " ; ".join(" ".join(str(int(v)) for v in row) for row in rows)


def zn_descriptor(n: int) -> str:
    return f"name Z{n}-ideal-lattice\nring zn {n}\nmodule ideal-lattice\n"


def power_module_descriptor(m: int, k: int) -> str:
    elems, add, action = power_module(m, k)
    return (
        f"name Z{m}^{k}-over-Z{m}-submodules\n"
        f"ring zn {m}\n"
        f"module submodule-lattice size {len(elems)} zero 0\n"
        f"  add {_table(add)}\n"
        f"  action {_table(action)}\n"
    )


def subspace_tables(p: int, k: int):
    """leq, add and action tables of the subspace lattice of F_p^k."""
    subs = submodules(p, k)
    size = len(subs)
    leq = [[int(a <= b) for b in subs] for a in subs]
    uppers = [{c for c in range(size) if leq[a][c]} for a in range(size)]
    # The sum of two subspaces is the smallest one containing both; subs is
    # sorted by size, so that is the first common upper bound.
    sums = [[min(uppers[a] & uppers[b]) for b in range(size)] for a in range(size)]
    # Over a field r*V is V for r != 0 and the zero subspace for r = 0.
    action = [[0] * size] + [list(range(size)) for _ in range(1, p)]
    return size, leq, sums, action


def explicit_module_descriptor(name: str, p: int, size, leq, add, action) -> str:
    return (
        f"name {name}\n"
        f"ring zn {p}\n"
        f"module explicit size {size} zero 0\n"
        f"  leq {_table(leq)}\n"
        f"  add {_table(add)}\n"
        f"  action {_table(action)}\n"
    )


def explicit_ring_descriptor(name: str, n: int, add, mul) -> str:
    return (
        f"name {name}\n"
        f"ring explicit order {n}\n"
        f"  add {_table(add)}\n"
        f"  mul {_table(mul)}\n"
        f"module ideal-lattice\n"
    )


def _mutate_module(kind: str, size: int, leq, add, rng: random.Random):
    """Change one cell so that ``kind`` is the first law the validator breaks.

    The lattice laws are checked in the order reflexivity, antisymmetry,
    transitivity, and the module's monoid laws in the order identity,
    commutativity, after the lattice is accepted.  Index 0 is the zero
    subspace and the monoid zero.
    """
    leq = [row[:] for row in leq]
    add = [row[:] for row in add]
    if kind == "reflexivity":
        a = rng.randrange(size)
        leq[a][a] = 0
    elif kind == "antisymmetry":
        a, b = rng.choice([(a, b) for a in range(size) for b in range(size) if a != b and leq[a][b]])
        leq[b][a] = 1
    elif kind == "monoid-identity":
        x = rng.randrange(size)
        add[0][x] = rng.choice([v for v in range(size) if v != x])
    else:
        x, y = rng.sample(range(1, size), 2)
        add[x][y] = rng.choice([v for v in range(size) if v != add[x][y]])
    return leq, add


def _mutate_ring(kind: str, n: int, add, mul, rng: random.Random):
    """Change one off-diagonal cell so that commutativity of add or mul fails.

    For add the row of 0 is kept, and for mul the row of 1, so the zero and
    the one are still found; the identity laws precede commutativity.
    """
    add = [row[:] for row in add]
    mul = [row[:] for row in mul]
    table, keep = (add, 0) if kind == "add-comm" else (mul, 1)
    a = rng.choice([r for r in range(n) if r != keep])
    b = rng.choice([c for c in range(n) if c != a])
    table[a][b] = rng.choice([v for v in range(n) if v != table[a][b]])
    return add, mul


def _zn_facts(n: int) -> dict:
    omega = num_prime_factors(n)
    return {
        "kind": "zn",
        "lattice_size": num_divisors(n),
        "submodule_elements": num_divisors(n),
        "points": omega,
        "closed_sets": 2**omega,
        "connected": omega == 1,
    }


def _power_facts(m: int, k: int) -> dict:
    if factorize(m) == {m: 1}:
        # F_p^k over F_p: every proper subspace is prime and every proper
        # colon ideal is 0, so the closed sets are the empty set and X.
        size, points, closed = subspace_count(m, k), subspace_count(m, k) - 1, 2
    else:
        size, points, closed = power_module_spectrum(m, k)
    return {
        "kind": "power",
        "lattice_size": size,
        "submodule_elements": size,
        "points": points,
        "closed_sets": closed,
    }


def make_plan(workload: str, seed: int, outdir: Path, root: Path) -> list[Operation]:
    """Write the workload's descriptor files and return one pass's operations."""
    rng = random.Random(f"{workload}:{seed}")
    outdir.mkdir(parents=True, exist_ok=True)
    ops: list[Operation] = []

    def write(name: str, text: str) -> str:
        path = outdir / f"{name}.lem"
        path.write_text(text)
        return str(path.relative_to(root))

    if workload == "catalog":
        for name in CATALOG:
            facts = {"kind": "catalog"}
            if name.endswith("-ideal-lattice") and name[1:].split("-")[0].isdigit():
                facts = _zn_facts(int(name[1:].split("-")[0]))
            ops.append(Operation("verify", name, name, facts=facts))
    elif workload == "ring-ladder":
        for n in RING_LADDER:
            path = write(f"Z{n}-ideal-lattice", zn_descriptor(n))
            ops.append(
                Operation("verify", path, f"Z{n}-ideal-lattice", facts=_zn_facts(n), probe=True)
            )
    elif workload == "point-ladder":
        for m, k in POINT_LADDER:
            name = f"Z{m}^{k}-over-Z{m}-submodules"
            path = write(name, power_module_descriptor(m, k))
            ops.append(Operation("verify", path, name, facts=_power_facts(m, k), probe=True))
    elif workload == "validate-explicit":
        for p, k in EXPLICIT_SUBSPACES:
            name = f"F{p}^{k}-explicit"
            size, leq, add, action = subspace_tables(p, k)
            facts = _power_facts(p, k)
            path = write(name, explicit_module_descriptor(name, p, size, leq, add, action))
            ops.append(Operation("validate", path, name, facts=facts))
            for kind, expect in MODULE_MUTATIONS:
                bad_leq, bad_add = _mutate_module(kind, size, leq, add, rng)
                bad = f"{name}-{kind}"
                text = explicit_module_descriptor(bad, p, size, bad_leq, bad_add, action)
                ops.append(
                    Operation("validate", write(bad, text), bad, 2, {"kind": "reject", "names": list(expect)})
                )
        for n in EXPLICIT_RINGS:
            name = f"Z{n}-explicit-ring"
            add = [[(a + b) % n for b in range(n)] for a in range(n)]
            mul = [[(a * b) % n for b in range(n)] for a in range(n)]
            path = write(name, explicit_ring_descriptor(name, n, add, mul))
            ops.append(Operation("validate", path, name, facts=_zn_facts(n)))
            for kind, expect in RING_MUTATIONS:
                bad_add, bad_mul = _mutate_ring(kind, n, add, mul, rng)
                bad = f"{name}-{kind}"
                text = explicit_ring_descriptor(bad, n, bad_add, bad_mul)
                ops.append(
                    Operation("validate", write(bad, text), bad, 2, {"kind": "reject", "names": list(expect)})
                )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops

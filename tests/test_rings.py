"""Ring construction, validation, and ideal arithmetic.

Expected ideal lists below were frozen from an exhaustive powerset scan;
the scan itself is repeated here for Z6 as an independent oracle.
"""

import itertools

import pytest
from hypothesis import given, strategies as st
from shared_instances import annihilated_descriptor

from lemspec import verify
from lemspec.errors import AxiomViolation, ImproperIdeal, ZeroRing
from lemspec.instances import (
    ProductSpec,
    build_instance,
    build_ring,
    catalog,
    mod_scaled_cyclic_tables,
    parse_descriptor,
    submodule_lattice_le_module,
)
from lemspec.natural_map import build_natural_map
from lemspec.rings import (
    Ideal,
    all_ideals,
    idempotents,
    ideal_product,
    is_ideal,
    is_prime_ideal,
    make_ring,
    make_zn,
    maximal_ideals,
    minimal_primes,
    principal_ideal,
    product_ring,
    push_ideal,
    quotient_ring,
    spec_ring,
)
from lemspec.rowscan import generators

Z6 = make_zn(6)
Z4 = make_zn(4)


def brute_ideals(ring):
    """Oracle: scan every subset containing 0."""
    rest = [x for x in range(ring.order) if x != ring.zero]
    found = []
    for k in range(len(rest) + 1):
        for combo in itertools.combinations(rest, k):
            members = frozenset((ring.zero,) + combo)
            if is_ideal(ring, members):
                found.append(members)
    return sorted(found, key=lambda m: (len(m), tuple(sorted(m))))


def test_zn_tables():
    assert Z6.order == 6
    assert Z6.add[4][5] == 3
    assert Z6.mul[4][5] == 2
    assert Z6.zero == 0 and Z6.one == 1
    assert Z6.neg(2) == 4
    assert Z6.element_name(3) == "3"


def test_built_rings_pass_full_validation():
    """Rings lemspec builds itself skip the axiom scan; check them against it."""
    rings = [make_zn(n) for n in range(2, 31)]
    rings += [build_ring(d.ring) for d in catalog() if isinstance(d.ring, ProductSpec)]
    for n in range(2, 31):
        zn = make_zn(n)
        divisors = [d for d in range(2, n) if n % d == 0]
        rings += [quotient_ring(zn, principal_ideal(zn, d))[0] for d in divisors]
    # Z2 over Z4 has annihilator 2Z4, so its reduced ring is a real quotient.
    z2_over_z4 = build_natural_map(
        submodule_lattice_le_module(Z4, *mod_scaled_cyclic_tables(2, 4), "Z2-over-Z4")
    )
    assert z2_over_z4.annihilator_ideal.sorted_members() == (0, 2)
    rings.append(z2_over_z4.quotient)
    assert len(rings) == 29 + 2 + 52 + 1
    for r in rings:
        assert make_ring(r.order, r.add, r.mul, r.name, r.element_names) == r, r.name


def test_zn_verify_builds_no_add_row_and_a_mul_row_per_divisor(monkeypatch):
    """Every statement on the Z2520 ideal lattice reads Z_n's tables a row
    at a time: no row of + and at most one row of * per ideal, d(2520) =
    48, so no reader brings back the n² tables."""
    rings = []

    def build(desc):
        mod = build_instance(desc)
        rings.append(mod.ring)
        return mod

    monkeypatch.setattr(verify, "build_instance", build)
    desc = parse_descriptor("name Z2520-ideal-lattice\nring zn 2520\nmodule ideal-lattice\n")
    report = verify.run_all([desc])
    assert {r.verdict for r in report.results} == {verify.VERIFIED}
    (ring,) = rings
    assert sum(row is not None for row in ring.add._rows) == 0
    assert sum(row is not None for row in ring.mul._rows) <= 48


def test_zn_submodule_lattice_builds_no_add_row_past_the_generators():
    """The classical module laws of Z6^2 over Z840 check scalar-add and
    scalar-mul at Z840's additive generators, 0 and 1, reading rows s of
    the ring's tables, so building it builds no other row of +."""
    ring = build_instance(annihilated_descriptor(6, 6, 840)).ring
    assert generators(ring.add) == [0, 1]
    assert sum(row is not None for row in ring.add._rows) <= 2


def test_quotient_by_zero_is_the_ring_itself():
    quotient, projection = quotient_ring(Z6, Ideal(Z6, frozenset({0})))
    assert quotient is Z6
    assert projection == tuple(range(6))
    # Every catalog instance has annihilator 0, so R/Ann is R.
    for d in catalog():
        mod = build_instance(d)
        assert build_natural_map(mod).quotient is mod.ring, d.name


def test_make_ring_rejects_zero_ring():
    with pytest.raises(ZeroRing):
        make_zn(1)


def test_make_ring_rejects_bad_shapes():
    with pytest.raises(ValueError):
        make_ring(2, ((0, 1),), ((0, 0), (0, 1)))
    with pytest.raises(ValueError):
        make_ring(2, ((0, 1), (1, 9)), ((0, 0), (0, 1)))


@pytest.mark.parametrize(
    "add,mul,axiom",
    [
        # no element acts as an additive identity
        (((1, 1), (1, 0)), ((0, 0), (0, 1)), "add-identity"),
        # no element acts as a multiplicative identity
        (((0, 1), (1, 0)), ((0, 0), (0, 0)), "mul-identity"),
        # the additive and multiplicative identities coincide
        (((0, 0), (0, 1)), ((0, 0), (0, 1)), "zero-ne-one"),
        # additive inverse of 1 missing (N-like table)
        (((0, 1), (1, 1)), ((0, 0), (0, 1)), "add-inverse"),
    ],
)
def test_make_ring_names_broken_axiom(add, mul, axiom):
    with pytest.raises(AxiomViolation) as err:
        make_ring(2, add, mul)
    assert err.value.axiom == axiom


def test_make_ring_rejects_noncommutative_mul():
    # identity row intact, mul[2][3] != mul[3][2]
    add = tuple(tuple((a + b) % 4 for b in range(4)) for a in range(4))
    mul = ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 0, 1), (0, 3, 2, 1))
    with pytest.raises(AxiomViolation) as err:
        make_ring(4, add, mul)
    assert err.value.axiom == "mul-comm"
    assert err.value.witness == (2, 3)


def test_all_ideals_z6_matches_brute_scan():
    expected = brute_ideals(Z6)
    assert [i.members for i in all_ideals(Z6)] == expected
    assert [i.sorted_members() for i in all_ideals(Z6)] == [
        (0,),
        (0, 3),
        (0, 2, 4),
        (0, 1, 2, 3, 4, 5),
    ]


def test_all_ideals_matches_brute_scan_with_a_non_principal_ideal():
    # F2[x, y]/(x, y)^2: a + bx + cy is index a + 2b + 4c, and the maximal
    # ideal (x, y) is no principal ideal, so sums of ideals must build it.
    els = range(8)
    mul = [
        [(a & b & 1) | ((a & 1) * (b & 6) ^ (b & 1) * (a & 6)) for b in els] for a in els
    ]
    ring = make_ring(8, [[a ^ b for b in els] for a in els], mul)
    ideals = [i.members for i in all_ideals(ring)]
    assert ideals == brute_ideals(ring)
    assert frozenset({0, 2, 4, 6}) in ideals
    assert all(principal_ideal(ring, r).members != {0, 2, 4, 6} for r in els)


@pytest.mark.parametrize(
    "n,count", [(2, 2), (3, 2), (4, 3), (6, 4), (8, 4), (12, 6), (30, 8)]
)
def test_ideal_counts(n, count):
    assert len(all_ideals(make_zn(n))) == count


def test_principal_ideals_z6():
    assert principal_ideal(Z6, 2).sorted_members() == (0, 2, 4)
    assert principal_ideal(Z6, 3).sorted_members() == (0, 3)
    assert principal_ideal(Z6, 5).sorted_members() == (0, 1, 2, 3, 4, 5)


def test_ideal_arithmetic_z6():
    i2 = principal_ideal(Z6, 2)
    i3 = principal_ideal(Z6, 3)
    assert ideal_product(i2, i3).sorted_members() == (0,)
    assert i2.members & i3.members == {0}


def test_ideal_ordering_and_membership():
    i2 = principal_ideal(Z6, 2)
    assert 4 in i2 and 3 not in i2
    assert Ideal(Z6, frozenset({0})) <= i2
    assert not (i2 <= Ideal(Z6, frozenset({0})))
    assert i2.is_proper()
    assert not Ideal(Z6, frozenset(range(6))).is_proper()


def test_spec_ring_z6():
    assert [p.sorted_members() for p in spec_ring(Z6).points] == [
        (0, 3),
        (0, 2, 4),
    ]
    assert [p.sorted_members() for p in spec_ring(Z4).points] == [(0, 2)]


def test_is_prime_ideal():
    assert is_prime_ideal(Z6, frozenset({0, 3}))
    assert not is_prime_ideal(Z6, frozenset({0}))  # 2*3 = 0
    assert not is_prime_ideal(Z6, frozenset(range(6)))  # not proper


def test_idempotents():
    assert sorted(idempotents(Z6)) == [0, 1, 3, 4]
    assert sorted(idempotents(Z4)) == [0, 1]
    assert sorted(idempotents(make_zn(30))) == [0, 1, 6, 10, 15, 16, 21, 25]


def test_quotient_ring_z6_mod_3():
    q, proj = quotient_ring(Z6, principal_ideal(Z6, 3))
    assert q.order == 3
    assert proj == (0, 1, 2, 0, 1, 2)
    # the quotient is Z3 up to the induced representatives
    assert q.add[1][2] == 0
    assert q.mul[2][2] == 1


def test_quotient_by_whole_ring_rejected():
    with pytest.raises(ImproperIdeal):
        quotient_ring(Z6, Ideal(Z6, frozenset(range(6))))


def test_push_ideal():
    q, proj = quotient_ring(Z6, principal_ideal(Z6, 3))
    moved = push_ideal(principal_ideal(Z6, 2), proj, q)
    assert moved.ring is q
    assert moved.members == frozenset(proj[x] for x in (0, 2, 4))


def test_minimal_and_maximal_primes():
    prims = [(0, 3), (0, 2, 4)]
    assert [p.sorted_members() for p in minimal_primes(Z6)] == prims
    assert [p.sorted_members() for p in maximal_ideals(Z6)] == prims


def test_product_ring_z2_z3_is_z6_in_disguise():
    prod = product_ring(make_zn(2), make_zn(3))
    assert prod.order == 6
    assert prod.element_name(prod.one) == "(1,1)"
    # oracle: brute search for a ring isomorphism onto Z6
    found = False
    for perm in itertools.permutations(range(6)):
        if perm[prod.zero] != 0 or perm[prod.one] != 1:
            continue
        if all(
            perm[prod.add[a][b]] == Z6.add[perm[a]][perm[b]]
            and perm[prod.mul[a][b]] == Z6.mul[perm[a]][perm[b]]
            for a in range(6)
            for b in range(6)
        ):
            found = True
            break
    assert found


@given(st.integers(min_value=2, max_value=24))
def test_zn_always_validates(n):
    ring = make_zn(n)
    assert ring.order == n

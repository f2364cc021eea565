"""Ring construction, validation, and ideal arithmetic.

Expected ideal lists below were frozen from an exhaustive powerset scan;
the scan itself is repeated here for Z6 as an independent oracle.
"""

import itertools

import pytest
from hypothesis import given, strategies as st

from lemspec.errors import AxiomViolation, EmptyFamily, ImproperIdeal, ZeroRing
from lemspec.instances import ProductSpec, build_instance, build_ring, catalog
from lemspec.natural_map import build_natural_map
from lemspec.rings import (
    Ideal,
    all_ideals,
    idempotents,
    ideal_from_generators,
    ideal_intersect,
    ideal_product,
    ideal_sum,
    intersect_primes,
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
    maps = [build_natural_map(build_instance(d)) for d in catalog()]
    rings += [nm.quotient for nm in maps if not nm.degenerate]
    assert len(rings) == 29 + 2 + 16
    for r in rings:
        assert make_ring(r.order, r.add, r.mul, r.name, r.element_names) == r, r.name


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
    assert ideal_sum(i2, i3).sorted_members() == (0, 1, 2, 3, 4, 5)
    assert ideal_product(i2, i3).sorted_members() == (0,)
    assert ideal_intersect(i2, i3).sorted_members() == (0,)
    assert ideal_from_generators(Z6, (2, 3)).sorted_members() == (0, 1, 2, 3, 4, 5)


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


def test_intersect_primes():
    met = intersect_primes(Z6, spec_ring(Z6).points)
    assert met.sorted_members() == (0,)
    with pytest.raises(EmptyFamily):
        intersect_primes(Z6, ())


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


@given(st.integers(min_value=2, max_value=12), st.data())
def test_generated_ideals_are_ideals(n, data):
    ring = make_zn(n)
    gens = data.draw(
        st.lists(st.integers(min_value=0, max_value=n - 1), max_size=3)
    )
    ideal = ideal_from_generators(ring, gens)
    assert is_ideal(ring, ideal.members)
    assert all(g in ideal for g in gens)

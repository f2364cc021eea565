"""Le-module validation and the colon/action machinery.

The Z6 ideal-lattice instance is small enough to check everything
exhaustively; expected values were frozen from an independent scan.
"""

import itertools

import pytest
from frozenset_reference import colon_set
from shared_instances import _ladder_instances
from test_ideal_index_reference import galois_adjunction_check

from lemspec.errors import AxiomViolation, EmptyFamily, NotALattice
from lemspec.instances import build_instance, catalog, ideal_lattice_le_module
from lemspec.lattices import FiniteBoundedLattice, chain_lattice, make_lattice
from lemspec.le_modules import (
    annihilator,
    colon,
    colon_fibers,
    ideal_action,
    is_submodule_element,
    make_le_module,
    scalar_classes,
    spectrum,
    sum_submodule_elements,
    submodule_elements,
)
from lemspec.rings import Ideal, all_ideals, make_zn, principal_ideal

Z2 = make_zn(2)
Z4 = make_zn(4)
CH3 = chain_lattice(3)
CH3_ADD = ((0, 1, 2), (1, 2, 2), (2, 2, 2))
Z2_ACTION = ((0, 0, 0), (0, 1, 2))


def test_valid_module_builds():
    mod = make_le_module(Z2, CH3, CH3_ADD, 0, Z2_ACTION)
    assert mod.top == 2
    assert mod.zero_m == 0


def test_monoid_identity_violation():
    bad_add = ((1, 1, 2), (1, 2, 2), (2, 2, 2))
    with pytest.raises(AxiomViolation) as err:
        make_le_module(Z2, CH3, bad_add, 0, Z2_ACTION)
    assert err.value.axiom == "monoid"


def test_s_violation():
    # valid monoid (Z2 plus an absorbing top) that fails join distributivity
    bad_add = ((0, 1, 2), (1, 0, 2), (2, 2, 2))
    with pytest.raises(AxiomViolation) as err:
        make_le_module(Z2, CH3, bad_add, 0, Z2_ACTION)
    assert err.value.axiom == "S"


def test_m1_violation():
    action = ((0, 0, 0), (0, 1, 2), (0, 0, 2), (0, 1, 2))
    with pytest.raises(AxiomViolation) as err:
        make_le_module(Z4, CH3, CH3_ADD, 0, action)
    assert err.value.axiom == "M1"


def test_m3_violation():
    # every nonzero scalar acts as the identity; (2*2)m = 0 but 2(2m) = m
    action = ((0, 0, 0), (0, 1, 2), (0, 1, 2), (0, 1, 2))
    with pytest.raises(AxiomViolation) as err:
        make_le_module(Z4, CH3, CH3_ADD, 0, action)
    assert err.value.axiom == "M3"
    assert err.value.witness == (2, 2, 1)


def test_m4_violation():
    # idempotent non-identity action for the unit scalar
    action = ((0, 0, 0), (0, 2, 2))
    with pytest.raises(AxiomViolation) as err:
        make_le_module(Z2, CH3, CH3_ADD, 0, action)
    assert err.value.axiom == "M4"


def test_a_hand_built_lattice_with_a_missing_join_is_not_a_lattice():
    # 0 < 1, 2 < 3, 4 < 5: 1 and 2 have the two minimal upper bounds 3 and
    # 4.  max is a commutative, associative sum with 0 as its zero, so only
    # the lattice can be at fault, at the cell make_lattice's scan names.
    above = ({0, 1, 2, 3, 4, 5}, {1, 3, 4, 5}, {2, 3, 4, 5}, {3, 5}, {4, 5}, {5})
    leq = [[b in above[a] for b in range(6)] for a in range(6)]
    up = tuple(sum(1 << b for b in s) for s in above)
    down = tuple(sum(1 << a for a in range(6) if b in above[a]) for b in range(6))
    lat = FiniteBoundedLattice(6, 5, 0, up, down)
    add = [[max(a, b) for b in range(6)] for a in range(6)]
    with pytest.raises(NotALattice) as built:
        make_lattice(6, leq)
    with pytest.raises(NotALattice) as err:
        make_le_module(Z2, lat, add, 0, (tuple([0] * 6), tuple(range(6))))
    assert (err.value.kind, err.value.pair) == ("least upper bound", (1, 2))
    assert (built.value.kind, built.value.pair) == ("least upper bound", (1, 2))


def test_submodule_elements_z6(z6_module):
    assert submodule_elements(z6_module) == (0, 1, 2, 3)
    assert all(is_submodule_element(z6_module, n) for n in range(4))
    assert [z6_module.label(n) for n in submodule_elements(z6_module)] == [
        "{0}",
        "{0,3}",
        "{0,2,4}",
        "{0,1,2,3,4,5}",
    ]


def test_submodule_elements_three_chain():
    mod = build_instance(
        next(d for d in catalog() if d.name == "three-chain-over-Z2")
    )
    # the middle element has 1+1 = top, so it is not a submodule element
    assert submodule_elements(mod) == (0, 2)
    assert not is_submodule_element(mod, 1)


def test_sum_submodule_elements(z6_module):
    assert sum_submodule_elements(z6_module, [1, 2]) == 3
    assert sum_submodule_elements(z6_module, [1]) == 1
    with pytest.raises(EmptyFamily):
        sum_submodule_elements(z6_module, [])


def test_colon_ideals_z6(z6_module):
    assert colon(z6_module, 0).sorted_members() == (0,)
    assert colon(z6_module, 1).sorted_members() == (0, 3)
    assert colon(z6_module, 2).sorted_members() == (0, 2, 4)
    assert colon(z6_module, 3).sorted_members() == (0, 1, 2, 3, 4, 5)
    assert annihilator(z6_module).sorted_members() == (0,)


def test_colon_set_matches_definition(z6_module):
    mod = z6_module
    e = mod.top
    for x in range(mod.lattice.size):
        expected = frozenset(
            r
            for r in range(mod.ring.order)
            if mod.lattice.le(mod.action[r][e], x)
        )
        assert colon_set(mod, x) == expected


def test_ideal_action_z6(z6_module):
    ring = z6_module.ring
    assert ideal_action(z6_module, principal_ideal(ring, 2)) == 2
    assert ideal_action(z6_module, principal_ideal(ring, 3)) == 1
    assert ideal_action(z6_module, Ideal(ring, frozenset({0}))) == 0
    assert ideal_action(z6_module, Ideal(ring, frozenset(range(6)))) == 3


def test_galois_adjunction_exhaustive(z6_module, klein_module):
    for mod in (z6_module, klein_module):
        for ideal in all_ideals(mod.ring):
            for n in range(mod.lattice.size):
                assert galois_adjunction_check(mod, ideal, n)


def test_prime_elements_z6(z6_module):
    assert spectrum(z6_module) == (1, 2)  # 0 is not prime, 3 not proper


def test_prime_quantifies_over_all_lattice_elements(z6_module):
    # the defining test ranges over every lattice element, not only
    # submodule elements
    mod = z6_module
    for p in spectrum(mod):
        cp = colon_set(mod, p)
        for r in range(mod.ring.order):
            if r in cp:
                continue
            for n in range(mod.lattice.size):
                rn = mod.action[r][n]
                if mod.lattice.le(rn, p):
                    assert mod.lattice.le(n, p)


SPECTRUM_SIZES = {
    "Z2-ideal-lattice": 1,
    "Z3-ideal-lattice": 1,
    "Z4-ideal-lattice": 1,
    "Z5-ideal-lattice": 1,
    "Z6-ideal-lattice": 2,
    "Z8-ideal-lattice": 1,
    "Z9-ideal-lattice": 1,
    "Z12-ideal-lattice": 2,
    "Z30-ideal-lattice": 3,
    "Z2xZ3-ideal-lattice": 2,
    "Z2xZ2-ideal-lattice": 2,
    "Z2xZ2-over-Z2-submodules": 4,
    "Z4-over-Z4-submodules": 1,
    "Z6-over-Z6-submodules": 2,
    "Z2xZ4-over-Z4-submodules": 4,
    "three-chain-over-Z2": 1,
}


def test_spectrum_sizes_across_catalog(all_instances):
    got = {mod.name: len(spectrum(mod)) for mod in all_instances}
    assert got == SPECTRUM_SIZES


def test_spectrum_at(z6_module):
    # The points at a ring prime P, those with colon ideal P, are P's colon
    # fiber, a mask over the spectrum (1, 2); a non-prime ideal has none.
    ring = z6_module.ring
    fibers = colon_fibers(z6_module)
    assert fibers[principal_ideal(ring, 3).members] == 0b01
    assert fibers[principal_ideal(ring, 2).members] == 0b10
    assert frozenset({0}) not in fibers


def test_klein_points_share_colon(klein_module):
    # four primes, one colon ideal: the map to ring primes collapses
    mod = klein_module
    points = spectrum(mod)
    assert len(points) == 4
    colons = {colon(mod, p).members for p in points}
    assert len(colons) == 1


@pytest.mark.parametrize("n", [*range(2, 61), 840])
def test_scalar_classes_of_zn_are_its_divisors(n):
    # rZn is dZn for d = gcd(r, n), so the classes of Zn's ideal lattice are
    # the d(n) divisors d of n, each the least scalar with gcd(r, n) = d;
    # n itself stands for r = 0.
    mod = ideal_lattice_le_module(make_zn(n), f"Z{n}")
    divisors = [d for d in range(1, n) if n % d == 0]
    assert scalar_classes(mod) == (0, *divisors)
    assert len(scalar_classes(mod)) == {840: 32}.get(n, len(divisors) + 1)


def test_scalar_classes_are_least_and_increasing(all_instances):
    for mod in all_instances:
        reps = scalar_classes(mod)
        assert list(reps) == sorted(reps), mod.name
        rows = [mod.action[r] for r in reps]
        assert len(set(rows)) == len(rows), mod.name
        for r, row in enumerate(mod.action):
            least = next(s for s in range(mod.ring.order) if mod.action[s] == row)
            assert least in reps and least <= r, (mod.name, r)


def test_sum_of_two_submodule_elements_is_their_sum_in_the_table():
    # n + l is a submodule element above every finite sum of n and l, so the
    # family scans read the sum of two submodule elements from ``add``.
    for mod in [build_instance(d) for d in catalog()] + _ladder_instances():
        submods = submodule_elements(mod)
        for n, l in itertools.product(submods, repeat=2):
            assert mod.add[n][l] == sum_submodule_elements(mod, (n, l)), (mod.name, n, l)

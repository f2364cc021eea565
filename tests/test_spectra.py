"""Closed-set families, point-set properties, and irreducibility.

Brute-force re-derivations (maximal irreducible subsets, closure as the
smallest closed superset) act as oracles for the production functions.
Sets of points are int masks, bit k for the k-th point of the space.
"""

import itertools

import pytest
from frozenset_reference import ModuleSets, Space, canonical, uncovered_open
from hypothesis import given, strategies as st

from lemspec.errors import EmptyFamily, NotTopLeModule
from lemspec.lattices import meet_all
from lemspec.le_modules import colon, ideal_action, ideal_actions, spectrum
from lemspec.rings import all_ideals, make_zn, principal_ideal, variety_ring
from lemspec.spectra import (
    QUASI_COMPACT_NOTE,
    build_topologies,
    canonical_family,
    closure,
    colon_fibers_at_most_one,
    decode,
    generic_points,
    irreducible_components,
    is_irreducible,
    is_top_le_module,
    point_closures,
    point_set_properties,
    quasi_topology,
    ring_space,
    specialization_pairs,
    varieties,
    variety_stars,
)
from test_ideal_index_reference import union_intersection_check
from test_scalar_class_reference import ref_basis_witnesses
from test_scan_reference import irreducibility_criteria, reference_decomposition

NOT_TOP = {"Z2xZ2-over-Z2-submodules", "Z2xZ4-over-Z4-submodules"}


def _subset_masks(top):
    """Every subset of the points, as a mask, by size."""
    n = len(top.points)
    for k in range(n + 1):
        for combo in itertools.combinations(range(n), k):
            yield sum(1 << i for i in combo)


def _positions(y: int) -> list[int]:
    return [k for k in range(y.bit_length()) if y >> k & 1]


def brute_components(top):
    """Oracle: maximal irreducible subsets by direct search."""
    irr = []
    for y in _subset_masks(top):
        if y and is_irreducible(top, y) and closure(top, y) in top.closed_sets and y == closure(top, y):
            irr.append(y)
    maximal = [y for y in irr if not any(y != z and y | z == z for z in irr)]
    return sorted(maximal, key=_positions)


def test_canonical_family_dedupes_and_sorts():
    points = (5, 7, 9)
    fam = canonical_family(points, [0b010, 0b000, 0b010, 0b011])
    assert fam == (0b000, 0b010, 0b011)


# Families over 65 to 200 points, so the masks span several machine words,
# with equal-sized sets that differ only in their lowest bits.
_FAMILIES = st.integers(65, 200).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.one_of(
                st.integers(0, (1 << n) - 1),
                st.integers(0, 3).map(lambda low: low | (1 << n - 1)),
                st.sets(st.integers(0, n - 1), max_size=4).map(lambda ks: sum(1 << k for k in ks)),
            ),
            max_size=40,
        ),
    )
)


@given(_FAMILIES)
def test_canonical_family_orders_big_masks_by_size_then_positions(case):
    n, masks = case
    points = tuple(range(100, 100 + n))
    space = Space(points, ())
    got = canonical_family(points, masks)
    assert tuple(map(space.set, got)) == canonical(points, map(space.set, masks))


@given(_FAMILIES)
def test_decode_lists_the_points_of_a_mask_in_point_order(case):
    n, masks = case
    points = tuple(range(100, 100 + n))
    space = Space(points, ())
    for mask in masks:
        assert decode(points, mask) == tuple(p for p in points if p in space.set(mask))


def ideal_action_family(mod) -> tuple[int, ...]:
    """The V(Ie) over the ideals I, in the canonical order."""
    v = varieties(mod)
    return canonical_family(spectrum(mod), map(v.__getitem__, ideal_actions(mod)))


def test_star_and_prime_families_agree(all_instances):
    # build_topologies gives the prime topology the star one's closed sets,
    # by T3.5's argument; the ideal-action family is built here apart.
    for mod in all_instances:
        tops = build_topologies(mod)
        assert tops.star.closed_sets == tops.prime.closed_sets == ideal_action_family(mod)


def test_top_flags(all_instances):
    for mod in all_instances:
        assert is_top_le_module(mod) == (mod.name not in NOT_TOP)


def test_quasi_topology_matches_star_on_top_instances(z6_module):
    tops = build_topologies(z6_module)
    assert tops.quasi is not None
    assert set(tops.quasi.closed_sets) <= set(tops.star.closed_sets)


def test_quasi_topology_rejected_for_non_top(klein_module):
    assert build_topologies(klein_module).quasi is None
    with pytest.raises(NotTopLeModule):
        quasi_topology(klein_module)


def test_z6_star_topology_is_discrete(z6_module):
    top = build_topologies(z6_module).star
    assert top.points == (1, 2)
    assert top.closed_sets == (0b00, 0b01, 0b10, 0b11)


def test_klein_topology_is_indiscrete(klein_module):
    top = build_topologies(klein_module).star
    assert len(top.points) == 4
    assert top.closed_sets == (0, top.full)


def test_variety_identities_exhaustive(all_instances):
    for mod in all_instances:
        ref = ModuleSets(mod)
        for x in range(mod.lattice.size):
            assert varieties(mod)[x] == ref.mask(ref.v[x])
            assert variety_stars(mod)[x] == ref.mask(ref.vs[x])
        assert reference_decomposition(ref) is None, mod.name
        assert varieties(mod)[0] == ref.mask(spectrum(mod))  # V(0_M) is everything
        assert variety_stars(mod)[mod.top] == 0  # proper points only


def test_union_intersection_exhaustive(z6_module, klein_module):
    for mod in (z6_module, klein_module):
        for i, j in itertools.product(all_ideals(mod.ring), repeat=2):
            assert union_intersection_check(mod, i, j)


def test_basic_open_complements_variety(z6_module):
    # X_r, the complement of V(re), is that of V*(re) too (P3.1).
    mod = z6_module
    full = build_topologies(mod).star.full
    for r in range(mod.ring.order):
        re = mod.action[r][mod.top]
        assert full ^ varieties(mod)[re] == full & ~variety_stars(mod)[re]


def test_basis_checks_hold_everywhere(all_instances):
    for mod in all_instances:
        assert ref_basis_witnesses(mod) == (None, None, None), mod.name
        assert uncovered_open(mod) is None, mod.name


def test_closure_is_smallest_closed_superset(all_instances):
    for mod in all_instances:
        top = build_topologies(mod).star
        for y in _subset_masks(top):
            want = [c for c in top.closed_sets if y | c == c]
            assert closure(top, y) == min(want, key=int.bit_count)


def test_point_closures_z6(z6_module):
    top = build_topologies(z6_module).star
    assert point_closures(top) == (0b01, 0b10)


def test_closure_of_point_is_variety_star_of_it(all_instances):
    for mod in all_instances:
        top = build_topologies(mod).star
        for k, p in enumerate(top.points):
            assert closure(top, 1 << k) == variety_stars(mod)[p]


def test_irreducible_needs_nonempty(z6_module):
    top = build_topologies(z6_module).star
    with pytest.raises(EmptyFamily):
        is_irreducible(top, 0)


def test_components_match_brute_force(all_instances):
    for mod in all_instances:
        top = build_topologies(mod).star
        assert sorted(irreducible_components(top), key=_positions) == brute_components(top)


def test_irreducible_closed_sets_are_point_closures(all_instances):
    for mod in all_instances:
        top = build_topologies(mod).star
        got = set(point_closures(top))
        assert got == {closure(top, 1 << k) for k in range(len(top.points))}


def test_generic_points(z6_module, klein_module):
    top6 = build_topologies(z6_module).star
    assert generic_points(top6, 0b01) == (1,)
    topk = build_topologies(klein_module).star
    # indiscrete: every point is generic for the whole space
    assert generic_points(topk, topk.full) == topk.points


def test_component_counts(all_instances):
    expected = {
        "Z6-ideal-lattice": 2,
        "Z12-ideal-lattice": 2,
        "Z30-ideal-lattice": 3,
        "Z2xZ2-over-Z2-submodules": 1,
        "Z4-ideal-lattice": 1,
    }
    for mod in all_instances:
        if mod.name in expected:
            top = build_topologies(mod).star
            assert len(irreducible_components(top)) == expected[mod.name]


def test_point_set_properties_z6(z6_module):
    props = point_set_properties(build_topologies(z6_module).star)
    assert props.is_t0 and props.is_t1
    assert not props.is_connected
    assert props.is_quasi_compact and props.is_spectral
    assert props.note == QUASI_COMPACT_NOTE


def test_point_set_properties_klein(klein_module):
    props = point_set_properties(build_topologies(klein_module).star)
    assert not props.is_t0 and not props.is_t1
    assert props.is_connected
    assert not props.is_spectral


def test_specialization_pairs(z6_module, klein_module):
    assert specialization_pairs(build_topologies(z6_module).star) == ()
    pairs = specialization_pairs(build_topologies(klein_module).star)
    assert len(pairs) == 12  # indiscrete on 4 points


def test_meet_all_of_points_z6(z6_module):
    assert meet_all(z6_module.lattice, [1, 2]) == 0
    assert meet_all(z6_module.lattice, [1]) == 1
    with pytest.raises(EmptyFamily):
        meet_all(z6_module.lattice, [])


def test_irreducibility_criteria_hold_on_all_subsets(z6_module, klein_module):
    for mod in (z6_module, klein_module):
        pts = spectrum(mod)
        ref = ModuleSets(mod)
        for k in range(1, len(pts) + 1):
            for combo in itertools.combinations(pts, k):
                for check in irreducibility_criteria(ref, combo):
                    assert check.holds, (mod.name, combo, check.name)


def phi_and_t1_check(mod) -> bool:
    """T1 holds exactly when colon ideals are maximal in their family and
    every colon fiber is a singleton.  The first clause always holds: the
    colon ideal of a point is prime (L2.1), and a prime P of a finite
    commutative ring is maximal, as R/P is a finite domain, so a field.
    P6.2 settles the rest through its per-point closed-point clause."""
    t1 = point_set_properties(build_topologies(mod).star).is_t1
    return t1 == colon_fibers_at_most_one(mod)


def test_phi_t1_equivalence(all_instances):
    for mod in all_instances:
        assert phi_and_t1_check(mod)


def test_ring_space_and_basic_opens():
    z6 = make_zn(6)
    space = ring_space(z6)
    assert len(space.points) == 2
    # D_r, the complement of the variety of rR: all primes for a unit, none for 0.
    d = [space.full ^ variety_ring(z6, principal_ideal(z6, r)) for r in range(6)]
    assert d[1] == d[5] == space.full
    assert d[0] == 0

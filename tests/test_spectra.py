"""Closed-set families, point-set properties, and irreducibility.

Brute-force re-derivations (maximal irreducible subsets, closure as the
smallest closed superset) act as oracles for the production functions.
"""

import itertools

import pytest

from lemspec.errors import EmptyFamily, NotTopLeModule
from lemspec.le_modules import colon, ideal_action, spectrum
from lemspec.rings import all_ideals, basic_open_ring, make_zn
from lemspec.spectra import (
    QUASI_COMPACT_NOTE,
    basic_open,
    basis_checks,
    build_topologies,
    canonical_family,
    closure,
    generic_points,
    im_meet,
    irreducibility_criteria,
    irreducible_components,
    is_closed,
    is_irreducible,
    is_top_le_module,
    open_sets,
    phi_and_t1_check,
    point_closures,
    point_set_properties,
    quasi_topology,
    ring_space,
    specialization_pairs,
    union_intersection_check,
    variety,
    variety_star,
    vstar_decomposition_check,
)

NOT_TOP = {"Z2xZ2-over-Z2-submodules", "Z2xZ4-over-Z4-submodules"}


def brute_components(top):
    """Oracle: maximal irreducible subsets by direct search."""
    points = list(top.points)
    irr = []
    for k in range(1, len(points) + 1):
        for combo in itertools.combinations(points, k):
            if is_irreducible(top, combo) and is_closed(top, closure(top, combo)) and frozenset(combo) == closure(top, combo):
                irr.append(frozenset(combo))
    maximal = [y for y in irr if not any(y < z for z in irr)]
    return sorted(maximal, key=lambda s: sorted(s))


def test_canonical_family_dedupes_and_sorts():
    points = (5, 7, 9)
    fam = canonical_family(
        points, [frozenset({7}), frozenset(), frozenset({7}), frozenset({5, 7})]
    )
    assert fam == (frozenset(), frozenset({7}), frozenset({5, 7}))


def test_star_and_prime_families_agree(all_instances):
    for mod in all_instances:
        tops = build_topologies(mod)
        assert tops.star.closed_sets == tops.prime.closed_sets


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
    assert set(top.closed_sets) == {
        frozenset(),
        frozenset({1}),
        frozenset({2}),
        frozenset({1, 2}),
    }


def test_klein_topology_is_indiscrete(klein_module):
    top = build_topologies(klein_module).star
    assert len(top.points) == 4
    assert set(top.closed_sets) == {frozenset(), frozenset(top.points)}


def test_variety_identities_exhaustive(all_instances):
    for mod in all_instances:
        points = frozenset(spectrum(mod))
        for x in range(mod.lattice.size):
            vs = variety_star(mod, x)
            assert vs <= points
            assert vstar_decomposition_check(mod, x)
        assert variety(mod, 0) == points  # V(0_M) is everything
        assert variety_star(mod, mod.top) == frozenset()  # proper points only


def test_union_intersection_exhaustive(z6_module, klein_module):
    for mod in (z6_module, klein_module):
        for i, j in itertools.product(all_ideals(mod.ring), repeat=2):
            assert union_intersection_check(mod, i, j)


def test_basic_open_complements_variety(z6_module):
    mod = z6_module
    for r in range(mod.ring.order):
        re = mod.action[r][mod.top]
        assert basic_open(mod, r) == frozenset(spectrum(mod)) - variety_star(
            mod, re
        )


def test_basis_checks_hold_everywhere(all_instances):
    for mod in all_instances:
        report = basis_checks(mod)
        assert report.ok, (mod.name, report)


def test_open_sets_are_complements(z6_module):
    top = build_topologies(z6_module).star
    pts = frozenset(top.points)
    assert set(open_sets(top)) == {pts - c for c in top.closed_sets}


def test_closure_is_smallest_closed_superset(all_instances):
    for mod in all_instances:
        top = build_topologies(mod).star
        for k in range(len(top.points) + 1):
            for combo in itertools.combinations(top.points, k):
                got = closure(top, combo)
                want = [
                    c
                    for c in top.closed_sets
                    if frozenset(combo) <= c
                ]
                assert got == min(want, key=len)


def test_point_closures_z6(z6_module):
    top = build_topologies(z6_module).star
    assert point_closures(top) == (frozenset({1}), frozenset({2}))


def test_closure_of_point_is_variety_star_of_it(all_instances):
    for mod in all_instances:
        top = build_topologies(mod).star
        for p in top.points:
            assert closure(top, [p]) == variety_star(mod, p)


def test_irreducible_needs_nonempty(z6_module):
    top = build_topologies(z6_module).star
    with pytest.raises(EmptyFamily):
        is_irreducible(top, [])


def test_components_match_brute_force(all_instances):
    for mod in all_instances:
        top = build_topologies(mod).star
        assert sorted(
            irreducible_components(top), key=sorted
        ) == brute_components(top)


def test_irreducible_closed_sets_are_point_closures(all_instances):
    for mod in all_instances:
        top = build_topologies(mod).star
        got = set(point_closures(top))
        assert got == {closure(top, [p]) for p in top.points}


def test_generic_points(z6_module, klein_module):
    top6 = build_topologies(z6_module).star
    assert generic_points(top6, [1]) == (1,)
    topk = build_topologies(klein_module).star
    # indiscrete: every point is generic for the whole space
    assert generic_points(topk, topk.points) == topk.points


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


def test_im_meet_z6(z6_module):
    assert im_meet(z6_module, [1, 2]) == 0
    assert im_meet(z6_module, [1]) == 1
    with pytest.raises(EmptyFamily):
        im_meet(z6_module, [])


def test_irreducibility_criteria_hold_on_all_subsets(z6_module, klein_module):
    for mod in (z6_module, klein_module):
        pts = spectrum(mod)
        for k in range(1, len(pts) + 1):
            for combo in itertools.combinations(pts, k):
                for check in irreducibility_criteria(mod, combo):
                    assert check.holds, (mod.name, combo, check.name)


def test_phi_t1_equivalence(all_instances):
    for mod in all_instances:
        assert phi_and_t1_check(mod)


def test_ring_space_and_basic_opens():
    z6 = make_zn(6)
    space = ring_space(z6)
    assert len(space.points) == 2
    assert basic_open_ring(z6, 1) == frozenset(space.points)
    assert basic_open_ring(z6, 0) == frozenset()

"""The ideal loop of L2.1, by index, against the per-pair loop.

lemspec reads ideals by index into ``rings.ideal_table``: ``ideal_actions``
holds Ie for each ideal, and L2.1 tests I inside (n:e) on I's generators.
The references here are the loops over pairs of ``Ideal`` records, with
Ie from the submodule elements that {ae : a in I} generates and IJ as the
additive closure of the products.  Planted failures check that the index
loop names the same first (I, n), not only the same verdict.  T3.5's
ideal-pair clause follows from L2.1 and is not scanned; its per-pair loop
(``ref_ideal_pair``) is kept here.
P6.2 settles its colon clauses by a theorem; the scans it no longer runs
are kept here, as are the pairwise scans that ``rings.minimal_primes`` and
``rings.maximal_ideals`` ran, and P6.5's prime and maximal colon filters.
"""

import itertools

import pytest
from frozenset_reference import ModuleSets, colon_set
from shared_instances import DESCRIPTORS, _ladder_instances
from test_ideal_reference import ref_ideal_product

from lemspec import spectra, verify
from lemspec.instances import build_instance
from lemspec.le_modules import (
    LeModuleInstance,
    colon_fibers,
    ideal_action,
    ideal_actions,
    spectrum,
    submodule_elements,
    sum_submodule_elements,
)
from lemspec.memo import preset, release
from lemspec.natural_map import build_natural_map
from lemspec.rings import Ideal, all_ideals, maximal_ideals, minimal_primes, spec_ring

CHECKS = {s.sid: s.check for s in verify.STATEMENTS}


def _instances() -> list[LeModuleInstance]:
    return [build_instance(d) for d in DESCRIPTORS.values()] + _ladder_instances()


def ref_ideal_action(mod: LeModuleInstance, members: frozenset[int]) -> int:
    """Ie: the submodule element generated by {ae : a in I}."""
    top = mod.lattice.top
    return sum_submodule_elements(mod, {mod.zero_m} | {mod.action[a][top] for a in members})


def galois_adjunction_check(mod: LeModuleInstance, ideal: Ideal, n: int) -> bool:
    """Ie <= n holds exactly when I is inside (n : e)."""
    lhs = mod.lattice.leq[ideal_action(mod, ideal)][n]
    rhs = ideal.members <= colon_set(mod, n)
    return lhs == rhs


def union_intersection_check(mod: LeModuleInstance, i: Ideal, j: Ideal) -> bool:
    """V(Ie) u V(Je) = V((I n J)e) = V((IJ)e), and the colon-variety analogue."""
    v, vs = spectra.varieties(mod), spectra.variety_stars(mod)
    product = Ideal(mod.ring, ref_ideal_product(mod.ring, i.members, j.members))
    ie, je = ideal_action(mod, i), ideal_action(mod, j)
    ke, pe = ideal_action(mod, Ideal(mod.ring, i.members & j.members)), ideal_action(mod, product)
    u = v[ie] | v[je]
    if not (u == v[ke] == v[pe]):
        return False
    us = vs[ie] | vs[je]
    return us == vs[ke] == vs[pe]


def ref_adjunction(mod: LeModuleInstance) -> tuple:
    """L2.1's outcome, one (ideal, submodule element) pair at a time."""
    ideals, submods = all_ideals(mod.ring), submodule_elements(mod)
    for i in ideals:
        for n in submods:
            if not galois_adjunction_check(mod, i, n):
                return verify.FALSIFIED, f"I={i.sorted_members()}, n={mod.label(n)}", None
    return verify.VERIFIED, None, f"ideals={len(ideals)} submods={len(submods)}"


def ref_ideal_pair(mod: LeModuleInstance) -> tuple[Ideal, Ideal] | None:
    """T3.5's ideal clause: the first pair I <= J at which it fails."""
    for i, j in itertools.combinations_with_replacement(all_ideals(mod.ring), 2):
        if not union_intersection_check(mod, i, j):
            return i, j
    return None


def test_index_loops_match_the_per_pair_loops():
    for mod in _instances():
        ideals = all_ideals(mod.ring)
        assert ideal_actions(mod) == tuple(ref_ideal_action(mod, i.members) for i in ideals)
        assert CHECKS["L2.1"](mod) == ref_adjunction(mod), mod.name
        assert ref_ideal_pair(mod) is None, mod.name
        assert CHECKS["T3.5"](mod)[:2] == (verify.VERIFIED, None), mod.name
        release(mod, mod.ring)


# Ideal and submodule lattices whose plants fail first at several pairs,
# and F2[x, y]/(x, y)^2, whose ideal (x, y) has two generators.
PLANTED = (
    "Z12-ideal-lattice",
    "Z30-ideal-lattice",
    "Z2xZ4-over-Z4-submodules",
    "F2xy-ideal-lattice",
)


@pytest.mark.parametrize("name", PLANTED)
def test_planted_adjunction_failures_name_the_reference_pair(name):
    # Ie of one ideal is replaced by another submodule element, read alike
    # by the index loop and the reference.
    mod = build_instance(DESCRIPTORS[name])
    true_actions, submods = ideal_actions(mod), submodule_elements(mod)
    witnesses = set()
    for k, x in itertools.product(range(len(true_actions)), submods):
        if x == true_actions[k]:
            continue
        preset(ideal_actions, mod, true_actions[:k] + (x,) + true_actions[k + 1 :])
        expected = ref_adjunction(mod)
        assert expected[0] == verify.FALSIFIED
        assert CHECKS["L2.1"](mod) == expected, (name, k, x)
        witnesses.add(expected[1])
    release(mod)
    assert len(witnesses) > 1, witnesses


def test_colon_inclusion_is_the_colon_fiber():
    # P6.2 and phi_and_t1_check take these scans as settled: the colon ideal
    # of a point is prime, so maximal, and two colon ideals of points are
    # equal or incomparable.
    # The engine's fibers, as masks, are the reference's, grouped from
    # ``colon_set`` point by point.
    for mod in _instances():
        ref = ModuleSets(mod)
        masks = colon_fibers(mod)
        assert {c: ref.set(m) for c, m in masks.items()} == ref.fibers, mod.name
        for p in spectrum(mod):
            cp = colon_set(mod, p)
            assert sum(m for c, m in masks.items() if cp <= c) == masks[cp], (mod.name, p)
            assert sum(m for c, m in masks.items() if cp >= c) == masks[cp], (mod.name, p)
            assert not any(cp < c for c in ref.fibers), (mod.name, p)
        release(mod, mod.ring)


def ref_minimal_primes(ring):
    points = spec_ring(ring).points
    return tuple(p for p in points if not any(q.members < p.members for q in points))


def ref_maximal_ideals(ring):
    proper = [i for i in all_ideals(ring) if i.is_proper()]
    return tuple(i for i in proper if not any(i.members < j.members for j in proper))


@pytest.mark.parametrize("name", sorted(DESCRIPTORS))
def test_primes_are_the_minimal_primes_and_the_maximal_ideals(name):
    # In a finite commutative ring every prime is maximal, hence minimal.
    mod = build_instance(DESCRIPTORS[name])
    nm = build_natural_map(mod)
    for ring in (mod.ring, nm.quotient):
        if ring is not None:
            expected = spec_ring(ring).points
            assert ref_minimal_primes(ring) == ref_maximal_ideals(ring) == expected, (name, ring.name)
            assert minimal_primes(ring) == maximal_ideals(ring) == expected
    # P6.5 no longer skips the colon fibers of non-primes, nor tests for
    # maximal ones: every point's colon ideal is a maximal ideal.
    maximal = {m.members for m in ref_maximal_ideals(mod.ring)}
    assert set(colon_fibers(mod)) <= maximal, name
    release(mod, mod.ring, nm.quotient)

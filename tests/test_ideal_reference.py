"""The ideal helpers of ``lemspec.rings`` against element-by-element scans.

``is_ideal``, ``is_prime_ideal`` and ``principal_ideal`` work a table row
at a time, ``ideal_product`` sums the principal ideals of products of
generators from ``ideal_table``, and ``make_zn`` builds its rows from
ranges and hands over its ideal table and the primality of its ideals.
The references here test one element, or one pair of elements, at a time,
or search the ideals of the same tables as a ring built by ``make_ring``,
which hands nothing over.
"""

import random

import pytest
from shared_instances import _f2_xy

from lemspec import rings
from lemspec.rings import (
    FiniteRing,
    all_ideals,
    ideal_product,
    ideal_table,
    is_ideal,
    is_prime_ideal,
    make_ring,
    make_zn,
    principal_ideal,
    product_ring,
)


def ref_is_ideal(ring: FiniteRing, s: frozenset[int]) -> bool:
    if ring.zero not in s:
        return False
    for a in s:
        for b in s:
            if ring.add[a][b] not in s:
                return False
        for r in range(ring.order):
            if ring.mul[r][a] not in s:
                return False
    return True


def ref_is_prime_ideal(ring: FiniteRing, s: frozenset[int]) -> bool:
    if len(s) >= ring.order:
        return False
    outside = [a for a in range(ring.order) if a not in s]
    return not any(ring.mul[a][b] in s for a in outside for b in outside)


def ref_principal_ideal(ring: FiniteRing, r: int) -> frozenset[int]:
    return frozenset(ring.mul[r][s] for s in range(ring.order))


def ref_ideal_product(ring: FiniteRing, i: frozenset[int], j: frozenset[int]) -> frozenset[int]:
    """The additive closure of {ab : a in I, b in J}."""
    closed = {ring.zero} | {ring.mul[a][b] for a in i for b in j}
    todo = list(closed)
    while todo:
        a = todo.pop()
        for b in list(closed):
            c = ring.add[a][b]
            if c not in closed:
                closed.add(c)
                todo.append(c)
    return frozenset(closed)


def _rings() -> list[FiniteRing]:
    z = make_zn
    return [
        *(z(n) for n in range(2, 121)),
        product_ring(z(2), z(4)),
        product_ring(product_ring(z(2), z(2)), z(2)),
        product_ring(z(3), z(6)),
        product_ring(z(4), z(6)),
        _f2_xy(),
    ]


RINGS = _rings()


def _subsets(ring: FiniteRing) -> list[frozenset[int]]:
    """Every ideal, and non-ideals: random subsets with and without 0, a
    subset without 0, {0}, and one-element subsets and complements, where a
    row gather picks a single index."""
    n = ring.order
    rng = random.Random(n)
    everything = frozenset(range(n))
    nonzero = everything - {ring.zero}
    out = [i.members for i in all_ideals(ring)]
    out += [frozenset({ring.zero}), nonzero, frozenset({ring.one}), everything - {ring.one}]
    for _ in range(8):
        pick = frozenset(rng.sample(range(n), rng.randint(1, n)))
        out += [pick, pick | {ring.zero}, pick - {ring.zero}]
    return [s for s in out if s]


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_ideal_tests_match_the_element_scans(ring):
    for s in _subsets(ring):
        assert is_ideal(ring, s) == ref_is_ideal(ring, s), sorted(s)
        assert is_prime_ideal(ring, s) == ref_is_prime_ideal(ring, s), sorted(s)
    for r in range(ring.order):
        assert principal_ideal(ring, r).members == ref_principal_ideal(ring, r)


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_ideal_product_matches_the_additive_closure_of_products(ring):
    ideals = all_ideals(ring)
    for i in ideals:
        for j in ideals:
            got = ideal_product(i, j).members
            assert got == ref_ideal_product(ring, i.members, j.members), (i, j)


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_ideal_table_indexes_and_generates_each_ideal(ring):
    ideals, index, gens, principal = ideal_table(ring)
    assert index == {i.members: k for k, i in enumerate(ideals)}
    one = frozenset({ring.one})
    for i, g in zip(ideals, gens):
        # The additive closure of the aR over the generators a.
        spans = frozenset().union(*(ref_principal_ideal(ring, a) for a in g))
        assert i.members == ref_ideal_product(ring, one, spans), g
    assert principal == tuple(index[ref_principal_ideal(ring, r)] for r in range(ring.order))


def test_a_non_principal_ideal_takes_two_generators():
    ideals, index, gens, _ = ideal_table(_f2_xy())
    # (x, y) = {0, x, y, x + y} is generated by x and y, and (x, y)^2 = 0.
    k = index[frozenset({0, 2, 4, 6})]
    assert gens[k] == (2, 4)
    assert ideal_product(ideals[k], ideals[k]).members == {0}


@pytest.mark.parametrize("n", [*range(2, 121), 840])
def test_zn_hands_over_the_ideals_the_generic_search_finds(monkeypatch, n):
    ring = make_zn(n)
    searched = make_ring(n, ring.add, ring.mul)
    expected = [(i.members, is_prime_ideal(searched, i)) for i in all_ideals(searched)]
    # The handed-over answers are read without any search.
    monkeypatch.setattr(rings, "generated", None)
    monkeypatch.setattr(rings, "gather", None)
    assert [(i.members, is_prime_ideal(ring, i)) for i in all_ideals(ring)] == expected
    assert all(i.ring is ring for i in all_ideals(ring))
    assert ideal_table(ring)[1:] == ideal_table(searched)[1:]


def test_zn_tables_are_the_residues():
    for n in (*range(2, 121), 840):
        ring = make_zn(n)
        rng = range(n)
        assert ring.add == tuple(tuple((a + b) % n for b in rng) for a in rng), n
        assert ring.mul == tuple(tuple((a * b) % n for b in rng) for a in rng), n

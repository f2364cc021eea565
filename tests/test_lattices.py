import itertools
import math

import pytest
from hypothesis import given, strategies as st

from lemspec.errors import EmptyFamily, NotALattice, NotAPoset, Unbounded
from lemspec.lattices import chain_lattice, generated, join_all, join_rows, make_lattice, meet_all


def leq_from_pairs(size, pairs):
    rows = [[False] * size for _ in range(size)]
    for a in range(size):
        rows[a][a] = True
    for a, b in pairs:
        rows[a][b] = True
    return tuple(tuple(row) for row in rows)


def test_chain_lattice():
    ch = chain_lattice(4)
    assert ch.size == 4
    assert ch.bottom == 0 and ch.top == 3
    assert ch.join(1, 2) == 2
    assert ch.meet(1, 2) == 1
    assert ch.le(0, 3) and not ch.le(3, 0)


def test_covers_of_diamond():
    # 0 < a,b < 3 with a,b incomparable
    leq = leq_from_pairs(4, [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)])
    lat = make_lattice(4, leq)
    assert set(lat.covers()) == {(0, 1), (0, 2), (1, 3), (2, 3)}
    assert lat.join(1, 2) == 3
    assert lat.meet(1, 2) == 0


def test_reflexivity_violation():
    leq = [[True, True], [False, False]]
    with pytest.raises(NotAPoset) as err:
        make_lattice(2, leq)
    assert err.value.law == "reflexivity"


def test_antisymmetry_violation():
    leq = [[True, True], [True, True]]
    with pytest.raises(NotAPoset) as err:
        make_lattice(2, leq)
    assert err.value.law == "antisymmetry"


def test_transitivity_violation():
    leq = leq_from_pairs(3, [(0, 1), (1, 2)])
    with pytest.raises(NotAPoset) as err:
        make_lattice(3, leq)
    assert err.value.law == "transitivity"


def test_unbounded_antichain():
    with pytest.raises(Unbounded):
        make_lattice(2, leq_from_pairs(2, []))


def test_bounded_poset_without_joins():
    # 0 < a,b < c,d < 1: the pair (a,b) has two minimal upper bounds
    pairs = [(0, b) for b in range(1, 6)]
    for mid in (1, 2):
        pairs += [(mid, 3), (mid, 4), (mid, 5)]
    for up in (3, 4):
        pairs.append((up, 5))
    with pytest.raises(NotALattice) as err:
        make_lattice(6, leq_from_pairs(6, pairs))
    assert err.value.kind == "least upper bound"
    assert err.value.pair == (1, 2)


def test_join_all_meet_all():
    ch = chain_lattice(5)
    assert join_all(ch, [1, 3, 2]) == 3
    assert meet_all(ch, [1, 3, 2]) == 1
    with pytest.raises(EmptyFamily):
        join_all(ch, [])
    with pytest.raises(EmptyFamily):
        meet_all(ch, [])


DIAMOND = make_lattice(
    4, leq_from_pairs(4, [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)])
)


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=6))
def test_join_all_is_least_upper_bound(elems):
    j = join_all(DIAMOND, elems)
    assert all(DIAMOND.le(x, j) for x in elems)
    for candidate in range(DIAMOND.size):
        if all(DIAMOND.le(x, candidate) for x in elems):
            assert DIAMOND.le(j, candidate)


@given(
    st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=6),
    st.randoms(),
)
def test_join_all_order_independent(elems, rng):
    shuffled = list(elems)
    rng.shuffle(shuffled)
    assert join_all(DIAMOND, shuffled) == join_all(DIAMOND, elems)
    assert meet_all(DIAMOND, shuffled) == meet_all(DIAMOND, elems)


def test_tables_match_pairwise_ops():
    # join_rows fills its rows below the diagonal from the rows before.
    for lat in (DIAMOND, chain_lattice(5)):
        rows = join_rows(lat)
        for a, b in itertools.product(range(lat.size), repeat=2):
            assert rows[a][b] == lat.join(a, b) == lat.join(b, a)
            assert lat.le(a, lat.join(a, b)) and lat.le(lat.meet(a, b), a)


def test_generated_names_a_first_shortest_family():
    # Subsets of {1, 2, 4} under union, as bitmasks: every nonempty one, each
    # reached first by its members in generator order.
    found = generated({g: g for g in (1, 2, 4)}, lambda a, b: a | b)
    assert list(found.items()) == [
        (1, (1,)), (2, (2,)), (4, (4,)),
        (3, (1, 2)), (5, (1, 4)), (6, (2, 4)), (7, (1, 2, 4)),
    ]
    # Generators with one state share it; the first one names it.
    assert generated({"a": 0, "b": 0}, max) == {0: ("a",)}
    assert generated({}, max) == {}


@given(st.lists(st.integers(0, 11), min_size=1, max_size=4))
def test_generated_is_the_closure_under_the_operation(seed):
    # Sums mod 12 of the seed: the subgroup the seed generates.
    found = generated({g: g for g in seed}, lambda a, b: (a + b) % 12)
    step = 12
    for g in seed:
        step = math.gcd(step, g)
    assert set(found) == set(range(0, 12, step))
    for state, family in found.items():
        assert sum(family) % 12 == state

"""``memo.record`` against ``dataclasses.dataclass(frozen=True)``, and the
import graph it keeps small.

Each field shape lemspec uses is declared twice, once per decorator, and
the two versions must agree on equality, exact hash values, repr, frozen
attributes and constructor errors.  Hash values matter beyond ``==``: they
fix set and dict iteration orders, and with them the report bytes.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import subprocess
import sys

import pytest

import lemspec
from lemspec.lattices import chain_lattice, join_rows
from lemspec.memo import UNHASHED, per_object, preset, record, release


def shapes(decorate, unhashed, by_identity):
    """The five record shapes lemspec uses, built by one decorator."""

    @decorate
    class Empty:
        pass

    @decorate
    class One:
        n: int

    @decorate
    class Several:
        size: int
        rows: tuple
        name: str = "M"
        labels: tuple | None = None

    @decorate
    class Unhashed:
        ring: tuple = unhashed
        members: frozenset

    @by_identity
    class Identity:
        points: tuple
        label: str

    return Empty, One, Several, Unhashed, Identity


NEW = shapes(record, UNHASHED, record(eq=False))
OLD = shapes(
    dataclasses.dataclass(frozen=True),
    dataclasses.field(hash=False),
    dataclasses.dataclass(frozen=True, eq=False),
)

# Per shape: the (args, kwargs) to build instances from, with repeats and
# near-misses so that equal and unequal pairs both occur.
ARGS = (
    [((), {})] * 2,
    [((3,), {}), ((3,), {}), ((), {"n": 4}), ((None,), {})],
    [
        ((2, ((0, 1), (1, 1))), {}),
        ((2,), {"rows": ((0, 1), (1, 1))}),
        ((2, ((0, 1), (1, 1)), "M", None), {}),
        ((2, ((0, 1), (1, 1))), {"labels": ("0", "1")}),
        ((), {"size": 1, "rows": ((0,),), "name": "N"}),
    ],
    [
        (((0, 1),), {"members": frozenset({0})}),
        (((0, 1), frozenset({0})), {}),
        (((1, 0), frozenset({0})), {}),
        (((0, 1), frozenset({0, 1})), {}),
    ],
    [(((0, 1), "star"), {}), (((0, 1), "star"), {}), ((), {"points": (), "label": "ring"})],
)


@pytest.mark.parametrize("index", range(len(ARGS)))
def test_record_matches_frozen_dataclass(index):
    new_cls, old_cls = NEW[index], OLD[index]
    built = [(new_cls(*a, **k), old_cls(*a, **k)) for a, k in ARGS[index]]
    by_identity = old_cls.__hash__ is object.__hash__
    for new, old in built:
        # Both classes are local to ``shapes``, so their qualnames agree.
        assert repr(new) == repr(old)
        assert hash(new) == (object.__hash__(new) if by_identity else hash(old))
        assert new.__eq__(object()) is old.__eq__(object()) is NotImplemented
        assert new != old and old != new and new != 0
        for name in ("n", "size", "ring", "points", "_other"):
            for obj in (new, old):
                with pytest.raises(AttributeError):
                    setattr(obj, name, 1)
                with pytest.raises(AttributeError):
                    delattr(obj, name)
    for (a_new, a_old), (b_new, b_old) in zip(built, built[1:] + built[:1]):
        assert (a_new == b_new) is (a_old == b_old)
        assert (a_new != b_new) is (a_old != b_old)
        assert (a_new == a_new) is (a_old == a_old) is True
    if not by_identity:
        # Equal hashes and equal equality give equal set orders.
        assert [repr(x) for x in {new for new, _ in built}] == [
            repr(x) for x in {old for _, old in built}
        ]


@pytest.mark.parametrize("index", range(len(ARGS)))
def test_record_constructor_errors_match_frozen_dataclass(index):
    new_cls, old_cls = NEW[index], OLD[index]
    names = list(old_cls.__dataclass_fields__)
    bad = [((None,) * (len(names) + 1), {}), ((), {"unknown": 1})]
    if names:
        bad.append(((None,) * len(names), {names[0]: None}))
        bad.append(((), {}))
    for args, kwargs in bad:
        with pytest.raises(TypeError):
            old_cls(*args, **kwargs)
        with pytest.raises(TypeError):
            new_cls(*args, **kwargs)


def test_record_unhashed_field_is_compared_but_not_hashed():
    unhashed_new, unhashed_old = NEW[3], OLD[3]
    assert "ring" not in vars(unhashed_new) and "ring" not in vars(unhashed_old)
    a = unhashed_new((0, 1), frozenset({0}))
    b = unhashed_new((1, 0), frozenset({0}))
    assert hash(a) == hash(b) == hash((frozenset({0}),))
    assert a != b


def test_record_defaults_stay_class_attributes():
    several = NEW[2]
    assert several.name == "M" and several.labels is None
    assert several(1, ()).name == "M"


@record
class Derived:
    size: int

    @functools.cached_property
    def doubled(self):
        return 2 * self.size


@per_object
def tripled(obj):
    return 3 * obj.size


def test_derived_data_lands_in_dict():
    x = Derived(5)
    assert x.doubled == 10 and tripled(x) == 15 and tripled(x) == 15
    assert x.__dict__["doubled"] == 10
    assert list(x.__dict__["_memo"].values()) == [15]
    assert x == Derived(5) and hash(x) == hash((5,))


@per_object
def scaled(obj, k):
    return k * obj.size


def test_preset_answers_stand_until_released():
    x = Derived(5)
    preset(tripled, x, -1)
    preset(scaled, x, -2, 4)
    assert (tripled(x), scaled(x, 4), scaled(x, 5)) == (-1, -2, 25)
    assert x == Derived(5) and hash(x) == hash((5,))
    release(x)
    assert (tripled(x), scaled(x, 4)) == (15, 20)


def test_first_call_makes_the_memo_past_the_frozen_setattr():
    x = Derived(5)
    assert "_memo" not in x.__dict__
    with pytest.raises(AttributeError):
        x._memo = {}
    assert tripled(x) == 15
    assert x.__dict__["_memo"] == {(tripled,): 15}


def test_preset_and_release_decide_when_fn_runs():
    calls = []

    @per_object
    def counted(obj, k):
        calls.append(k)
        return k + obj.size

    x = Derived(5)
    preset(counted, x, -1, 3)
    assert counted(x, 3) == -1 and calls == []
    assert counted(x, 4) == counted(x, 4) == 9 and calls == [4]
    release(x)
    assert counted(x, 3) == 8 and calls == [4, 3]


def test_memo_sits_beside_cached_properties():
    lat = chain_lattice(3)
    by_up = lat.by_up

    @per_object
    def top_by_up(lattice):
        return lattice.by_up[lattice.up[lattice.top]]

    assert top_by_up(lat) == lat.top
    by_down = lat.by_down
    assert lat.__dict__["by_up"] is by_up and lat.__dict__["by_down"] is by_down
    # make_lattice keeps the join table it built as join_rows's answer.
    assert lat.__dict__["_memo"] == {(join_rows,): join_rows(lat), (top_by_up,): lat.top}
    release(lat)
    assert "_memo" not in lat.__dict__
    assert lat.by_up is by_up and lat.by_down is by_down
    assert top_by_up(lat) == lat.top


def test_import_loads_neither_dataclasses_nor_inspect():
    src = os.path.dirname(os.path.dirname(lemspec.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import sys, lemspec, lemspec.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"

"""The submodule and prime tests and the colon sets against loops over
every scalar.

lemspec scans one scalar per class of equal action rows
(``le_modules.scalar_classes``).  The references here are the plain loops
over every scalar of the ring, in the same order.  The scalar clauses of
P3.1 and T3.5 and T5.3's pair, ideal and cover clauses follow from L2.1
and the definitions and are not scanned; their references are kept here,
for ``test_scan_reference``.  P5.1 is not scanned either; its reference is
``frozenset_reference.MapSets``.
"""

import itertools

import pytest
from frozenset_reference import colon_set, plant
from shared_instances import ANNIHILATED

from lemspec import spectra, verify
from lemspec.instances import (
    IdealLatticeSpec,
    InstanceDescriptor,
    ProductSpec,
    ZnSpec,
    build_instance,
    catalog,
)
from lemspec.le_modules import (
    LeModuleInstance,
    colon_sets,
    ideal_action,
    is_submodule_element,
    spectrum,
    submodule_elements,
)
from lemspec.memo import release
from lemspec.rings import all_ideals


def ref_is_submodule_element(mod: LeModuleInstance, n: int) -> bool:
    lat = mod.lattice
    if not lat.leq[mod.add[n][n]][n]:
        return False
    return all(lat.leq[mod.action[r][n]][n] for r in range(mod.ring.order))


def ref_is_prime_submodule_element(mod: LeModuleInstance, p: int) -> bool:
    lat = mod.lattice
    if p == lat.top or not ref_is_submodule_element(mod, p):
        return False
    cp = colon_set(mod, p)
    for r in range(mod.ring.order):
        if r in cp:
            continue
        for n in range(lat.size):
            if lat.leq[mod.action[r][n]][p] and not lat.leq[n][p]:
                return False
    return True


def ref_colon_set(mod: LeModuleInstance, x: int) -> frozenset[int]:
    """(x : e) as a scan over every scalar."""
    top = mod.lattice.top
    return frozenset(r for r in range(mod.ring.order) if mod.lattice.leq[mod.action[r][top]][x])


def ref_scalar_action_variety(mod: LeModuleInstance) -> int | None:
    """P3.1's last clause: the first r with V(re) != V*(re)."""
    top = mod.lattice.top
    for r in range(mod.ring.order):
        re = mod.action[r][top]
        if spectra.varieties(mod)[re] != spectra.variety_stars(mod)[re]:
            return r
    return None


def ref_scalar_union(mod: LeModuleInstance) -> tuple[int, int] | None:
    """T3.5's scalar clause: the first r <= s with V*(re) u V*(se) != V*((rs)e)."""
    top = mod.lattice.top
    vs = spectra.variety_stars(mod)
    for r, s in itertools.combinations_with_replacement(range(mod.ring.order), 2):
        re, se = mod.action[r][top], mod.action[s][top]
        rse = mod.action[mod.ring.mul[r][s]][top]
        if vs[re] | vs[se] != vs[rse]:
            return r, s
    return None


def ref_basis_witnesses(mod: LeModuleInstance) -> tuple:
    """T5.3's (pair, ideal, cover) witnesses, each None when its clause holds."""
    ring, top = mod.ring, mod.lattice.top
    points = spectrum(mod)
    full = (1 << len(points)) - 1

    def basic(r: int) -> int:
        return full ^ spectra.varieties(mod)[mod.action[r][top]]

    pair = None
    for r, s in itertools.product(range(ring.order), repeat=2):
        if basic(ring.mul[r][s]) != basic(r) & basic(s):
            pair = (r, s)
            break
    ideal = None
    for i in all_ideals(ring):
        inter = full
        for a in sorted(i.members):
            inter &= spectra.variety_stars(mod)[mod.action[a][top]]
        if spectra.variety_stars(mod)[ideal_action(mod, i)] != inter:
            ideal = (i.sorted_members(),)
            break
    basics = [basic(r) for r in range(ring.order)]
    cover = None
    for closed in spectra.star_family(mod):
        u = full ^ closed
        union = 0
        for b in basics:
            if b | u == u:
                union |= b
        if union != u:
            cover = (tuple(p for k, p in enumerate(points) if u >> k & 1),)
            break
    return pair, ideal, cover


def _ideal_lattice(name: str, ring) -> InstanceDescriptor:
    return InstanceDescriptor(name, ring, IdealLatticeSpec())


EXTRA = (
    *(_ideal_lattice(f"Z{n}-ideal-lattice", ZnSpec(n)) for n in (*range(32, 46), 60)),
    _ideal_lattice("Z4xZ6-ideal-lattice", ProductSpec(ZnSpec(4), ZnSpec(6))),
    _ideal_lattice(
        "Z2xZ2xZ9-ideal-lattice",
        ProductSpec(ProductSpec(ZnSpec(2), ZnSpec(2)), ZnSpec(9)),
    ),
)
DESCRIPTORS = {d.name: d for d in (*catalog(), *EXTRA)}
CHECKS = {s.sid: s.check for s in verify.STATEMENTS}


@pytest.mark.parametrize("name", sorted(DESCRIPTORS))
def test_class_scans_match_the_scalar_by_scalar_loops(name):
    mod = build_instance(DESCRIPTORS[name])
    elements = range(mod.lattice.size)
    assert [is_submodule_element(mod, n) for n in elements] == [
        ref_is_submodule_element(mod, n) for n in elements
    ]
    assert [p in spectrum(mod) for p in elements] == [
        ref_is_prime_submodule_element(mod, p) for p in elements
    ]
    assert submodule_elements(mod) == tuple(n for n in elements if ref_is_submodule_element(mod, n))
    assert spectrum(mod) == tuple(p for p in elements if ref_is_prime_submodule_element(mod, p))
    assert ref_basis_witnesses(mod)[2] is None, name
    for sid in ("P3.1", "T3.5", "T5.3"):
        assert CHECKS[sid](mod)[:2] == (verify.VERIFIED, None), (name, sid)
    release(mod, mod.ring)


# Z6^2 over Z12, whose annihilator is {0, 6}, besides.
COLON_INPUTS = {**DESCRIPTORS, ANNIHILATED[0].name: ANNIHILATED[0]}


@pytest.mark.parametrize("name", sorted(COLON_INPUTS))
def test_colon_sets_match_the_scalar_by_scalar_scan(name):
    mod = build_instance(COLON_INPUTS[name])
    for x in range(mod.lattice.size):
        assert colon_set(mod, x) == ref_colon_set(mod, x), (name, x)
    # Equal colon sets are one object, so each is hashed once.
    first: dict[frozenset[int], frozenset[int]] = {}
    for x, c in enumerate(colon_sets(mod)):
        assert first.setdefault(c, c) is c, (name, x)
    release(mod, mod.ring)


def test_colon_sets_of_a_ring_in_the_thousands_match_the_scan():
    mod = build_instance(_ideal_lattice("Z5040-ideal-lattice", ZnSpec(5040)))
    for x in submodule_elements(mod):
        assert colon_set(mod, x) == ref_colon_set(mod, x), x
    release(mod, mod.ring)


def _planted(name: str):
    """Fresh copies of the instance, one per value x = re, with V(x) and
    V*(x) changed by one point (the first, bit 0).

    The changed varieties are still functions of re, so the class scans stay
    exact, but the identities that read V(re) or V*(re) now fail.  The
    topologies are built first, from the true varieties.
    """
    probe = build_instance(DESCRIPTORS[name])
    targets = sorted({row[probe.lattice.top] for row in probe.action})
    for planted in targets:
        mod = build_instance(DESCRIPTORS[name])
        spectra.build_topologies(mod)
        plant(spectra.varieties, mod, {planted: spectra.varieties(mod)[planted] ^ 1})
        plant(spectra.variety_stars, mod, {planted: spectra.variety_stars(mod)[planted] ^ 1})
        yield mod
        release(mod)


@pytest.mark.parametrize("name", ["Z36-ideal-lattice"])
def test_planted_failures_name_the_first_uncovered_open(name):
    # Planting V(x) changes the basic opens X_r with re = x, while the open
    # sets are the complements of the true V*.  On Z36 no plant leaves an
    # open set that is not a union of basic opens, so T5.3, which leaves its
    # cover clause to the definition of the colon and scans no open set,
    # agrees with the reference.
    for mod in _planted(name):
        assert ref_basis_witnesses(mod)[2] is None
        assert CHECKS["T5.3"](mod) == (verify.VERIFIED, None, None)

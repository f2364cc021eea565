"""The mask prime test and the colon ideals against their definitions.

``le_modules.spectrum`` finds primes by preimage masks, and ``colon`` does
not check that (n : e) is an ideal, because a theorem says it is.  The
references here are the definition of a prime submodule element, looped over
every scalar and every element, and ``rings.is_ideal`` itself.  They run on
instances beyond the catalog: the benchmark ladders, (Z4)^3, the grid
modules, explicit subspace lattices and power modules renumbered at random.
The same instances check the two steps of the lemma that makes the natural
map onto (``natural_map.build_natural_map``).
"""

import random
import sys
from pathlib import Path

import pytest
from frozenset_reference import colon_set
from test_validation_reference import grid_module

from lemspec.instances import (
    build_instance,
    catalog,
    cyclic_module_tables,
    ideal_lattice_le_module,
    product_module_tables,
    submodule_lattice_le_module,
)
from lemspec.lattices import make_lattice
from lemspec.le_modules import (
    LeModuleInstance,
    annihilator,
    colon,
    ideal_action,
    is_prime_submodule_element,
    make_le_module,
    spectrum,
    submodule_elements,
)
from lemspec.memo import release
from lemspec.natural_map import build_natural_map
from lemspec.rings import is_ideal, make_zn, maximal_ideals, spec_ring

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402


def ref_is_prime(mod: LeModuleInstance, p: int) -> bool:
    """p is proper and a submodule element, and rn <= p forces re <= p or n <= p."""
    leq, act, top = mod.lattice.leq, mod.action, mod.lattice.top
    scalars, elements = range(mod.ring.order), range(mod.lattice.size)
    if p == top or not leq[mod.add[p][p]][p]:
        return False
    if not all(leq[act[r][p]][p] for r in scalars):
        return False
    return all(
        leq[act[r][top]][p] or leq[n][p]
        for r in scalars
        for n in elements
        if leq[act[r][n]][p]
    )


def _power(m: int, k: int) -> LeModuleInstance:
    tables = cyclic_module_tables(m)
    power = tables
    for _ in range(k - 1):
        power = product_module_tables(power, tables)
    return submodule_lattice_le_module(make_zn(m), *power, f"Z{m}^{k}")


def _explicit(p: int, k: int) -> LeModuleInstance:
    size, leq, add, action = workloads.subspace_tables(p, k)
    return make_le_module(make_zn(p), make_lattice(size, leq), add, 0, action, f"F{p}^{k}")


def _grid(k1: int, k2: int) -> LeModuleInstance:
    return make_le_module(*grid_module(k1, k2), f"grid{k1}x{k2}")


def _shuffled(m: int, k: int) -> LeModuleInstance:
    """(Z_m)^k with its elements renumbered at random, so that index order
    no longer extends the lattice order."""
    mod = _power(m, k)
    n = mod.lattice.size
    new = list(range(n))
    random.Random(f"shuffle{m}^{k}").shuffle(new)
    old = sorted(range(n), key=new.__getitem__)  # old[new[x]] == x
    leq = [[mod.lattice.leq[a][b] for b in old] for a in old]
    add = [[new[mod.add[a][b]] for b in old] for a in old]
    action = [[new[row[a]] for a in old] for row in mod.action]
    return make_le_module(mod.ring, make_lattice(n, leq), add, new[mod.zero_m], action, f"Z{m}^{k}-shuffled")


POINT_LADDER = {f"Z{m}^{k}": (_power, m, k) for m, k in workloads.POINT_LADDER}
GRIDS = {f"grid{k1}x{k2}": (_grid, k1, k2) for k1, k2 in ((1, 6), (3, 3), (2, 4))}
PRIME_CASES = {
    **POINT_LADDER,
    "Z4^3": (_power, 4, 3),
    **GRIDS,
    "F2^4-explicit": (_explicit, 2, 4),
    "F3^3-explicit": (_explicit, 3, 3),
    "Z4^2-shuffled": (_shuffled, 4, 2),
    "Z4^3-shuffled": (_shuffled, 4, 3),
    # Here some scalar sends an element below a non-prime p and one not
    # below it to the same element: a test that kept one preimage per
    # element would call p prime.
    "Z6^2-shuffled": (_shuffled, 6, 2),
    "Z9^2-shuffled": (_shuffled, 9, 2),
}


@pytest.mark.parametrize("name", sorted(PRIME_CASES))
def test_mask_primes_match_the_definition(name):
    build, *args = PRIME_CASES[name]
    mod = build(*args)
    elements = range(mod.lattice.size)
    expected = tuple(p for p in elements if ref_is_prime(mod, p))
    assert spectrum(mod) == expected
    assert [is_prime_submodule_element(mod, p) for p in elements] == [p in expected for p in elements]
    release(mod)


def _colon_instances():
    yield from (build_instance(d) for d in catalog())
    yield from (ideal_lattice_le_module(make_zn(n), f"Z{n}") for n in workloads.RING_LADDER)
    for build, *args in (*POINT_LADDER.values(), *GRIDS.values()):
        yield build(*args)


def test_colon_of_a_submodule_element_is_an_ideal():
    # colon() trusts the theorem; is_ideal checks every law on each one.
    count = 0
    for mod in _colon_instances():
        for n in submodule_elements(mod):
            assert is_ideal(mod.ring, colon_set(mod, n)), (mod.name, n)
            assert colon(mod, n).members == colon_set(mod, n)
        release(mod)
        count += 1
    assert count == 16 + 4 + 4 + 3  # the catalog, both ladders, the grids


def _lemma_instances():
    yield from (build_instance(d) for d in catalog())
    yield from (ideal_lattice_le_module(make_zn(n), f"Z{n}") for n in workloads.RING_LADDER)
    for build, *args in PRIME_CASES.values():
        yield build(*args)


def test_maximal_proper_submodule_elements_are_prime():
    # Step (a): the le-module laws make a maximal proper submodule element prime.
    for mod in _lemma_instances():
        leq, top = mod.lattice.leq, mod.lattice.top
        proper = [n for n in submodule_elements(mod) if n != top]
        maximal = [n for n in proper if not any(leq[n][m] for m in proper if m != n)]
        assert maximal, mod.name
        assert set(maximal) <= set(spectrum(mod)), (mod.name, maximal)
        release(mod)


def test_maximal_ideals_over_the_annihilator_act_properly():
    # Step (b): Pe != e for each maximal ideal P containing Ann, so by step
    # (c) every prime of R/Ann is the image of a point.
    for mod in _lemma_instances():
        ann = annihilator(mod).members
        over = [m for m in maximal_ideals(mod.ring) if ann <= m.members]
        assert over, mod.name
        for m in over:
            assert ideal_action(mod, m) != mod.lattice.top, (mod.name, m.sorted_members())
        nm = build_natural_map(mod)
        assert set(nm.images()) == set(spec_ring(nm.quotient).points), mod.name
        release(mod)

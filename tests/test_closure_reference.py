"""Properties read from the point-closure table against their definitions.

``spectra.closures_by_point`` computes cl{p} once per space, and T0, T1,
generic points, specialization, C6.3 and T6.6 are read from that table.  The
references here are the definitions, on frozensets (``frozenset_reference``):
the closure of each point as an intersection of closed sets, pairwise
comparisons, membership in the closed-set family, and an irreducibility
scan.  They call no ``spectra`` code, and the star family they read is
checked against V* from colon inclusion.  They run on the catalog, both
benchmark ladders, three power modules, the instances of the prime
reference and the census of small le-modules (``census``), on every
topology each one has.
"""

import itertools
import sys
from pathlib import Path

import pytest
from census import census
from frozenset_reference import ModuleSets, Space, canonical
from shared_instances import _ladder_instances
from test_prime_reference import PRIME_CASES

from lemspec import natural_map as nmap
from lemspec import spectra, verify
from lemspec.instances import build_instance, catalog, parse_descriptor
from lemspec.memo import release
from lemspec.rings import minimal_primes
from lemspec.spectra import SpectrumTopology

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

POWER_MODULES = ((2, 4), (4, 3), (3, 3))


def ref_is_t0(space: Space) -> bool:
    return all(
        space.closure([p]) != space.closure([q])
        for p, q in itertools.combinations(space.points, 2)
    )


def ref_is_t1(space: Space) -> bool:
    return all(frozenset([p]) in space.closed for p in space.points)


def ref_generic_points(space: Space, y) -> tuple:
    target = frozenset(y)
    return tuple(p for p in space.points if p in target and space.closure([p]) == target)


def ref_specialization_pairs(space: Space) -> tuple:
    out = []
    for p in space.points:
        c = space.closure([p])
        out.extend((p, q) for q in space.points if q != p and q in c)
    return tuple(out)


def ref_components(space: Space) -> tuple:
    """The maximal point closures, in the canonical order."""
    cls = {space.closure([p]) for p in space.points}
    return canonical(space.points, (c for c in cls if not any(c < d for d in cls)))


def ref_vstar_irreducible(mod) -> tuple:
    """C6.3 with an O(|family|^2) irreducibility scan for each point."""
    ref = ModuleSets(mod)
    for p in ref.points:
        vp = ref.vs[p]
        if not ref.is_closed(vp):
            return verify.FALSIFIED, f"p={mod.label(p)}", "not closed"
        if not ref.is_irreducible(vp):
            return verify.FALSIFIED, f"p={mod.label(p)}", "not irreducible"
    return verify.VERIFIED, None, None


def ref_component_minimal_prime_bijection(nm) -> bool:
    """T6.6 with a generic-point search for every point closure and component."""
    space = ModuleSets(nm.instance)
    star_closed = {space.vs[p] for p in space.points}
    for y in {space.closure([p]) for p in space.points}:
        if y not in star_closed or not ref_generic_points(space, y):
            return False
    images = []
    for comp in ref_components(space):
        gens = ref_generic_points(space, comp)
        if not gens:
            return False
        imgs = {nm.image_of(p) for p in gens}
        if len(imgs) != 1:
            return False
        images.append(next(iter(imgs)))
    if len(set(images)) != len(images):
        return False
    return set(images) == set(minimal_primes(nm.quotient))


def _power_module(m: int, k: int):
    return build_instance(parse_descriptor(workloads.power_module_descriptor(m, k)))


def _instances():
    yield from (build_instance(d) for d in catalog())
    yield from _ladder_instances()
    for m, k in POWER_MODULES:
        yield _power_module(m, k)
    for build, *args in PRIME_CASES.values():
        yield build(*args)
    yield from census()


def _spaces(mod) -> list[SpectrumTopology]:
    tops = spectra.build_topologies(mod)
    spaces = [tops.star, tops.prime]
    if tops.quasi is not None:
        spaces.append(tops.quasi)
    nm = nmap.build_natural_map(mod)
    if not nm.degenerate:
        spaces.append(spectra.ring_space(nm.quotient))
    return spaces


def _check_space(top: SpectrumTopology) -> None:
    space = Space.of(top)
    props = spectra.point_set_properties(top)
    assert props.is_t0 == ref_is_t0(space)
    assert props.is_t1 == ref_is_t1(space)
    assert spectra.specialization_pairs(top) == ref_specialization_pairs(space)
    closures = canonical(space.points, (space.closure([p]) for p in space.points))
    assert tuple(map(space.set, spectra.point_closures(top))) == closures
    assert tuple(map(space.set, spectra.irreducible_components(top))) == ref_components(space)
    for y in top.closed_sets[1:]:
        assert spectra.generic_points(top, y) == ref_generic_points(space, space.set(y)), y


def test_table_reads_match_the_definitions():
    count = 0
    for mod in _instances():
        star = Space.of(spectra.build_topologies(mod).star)
        assert star.closed == ModuleSets(mod).closed, mod.name
        for top in _spaces(mod):
            _check_space(top)
        c63 = next(s.check for s in verify.STATEMENTS if s.sid == "C6.3")
        assert c63(mod) == ref_vstar_irreducible(mod), mod.name
        nm = nmap.build_natural_map(mod)
        if not nm.degenerate:
            got = nmap.component_minimal_prime_bijection(nm)
            assert got == ref_component_minimal_prime_bijection(nm), mod.name
        release(mod, mod.ring, nm.quotient)
        count += 1
    assert count == 16 + 8 + len(POWER_MODULES) + len(PRIME_CASES) + 5177


# Two points with one closure: the indiscrete space, neither T0 nor T1.
INDISCRETE = SpectrumTopology((0, 1), (0b00, 0b11), "hand")
# The Sierpinski space: T0, but {1} is not closed, so not T1.
SIERPINSKI = SpectrumTopology((0, 1), (0b00, 0b01, 0b11), "hand")


@pytest.mark.parametrize(
    "top, t0, t1, pairs, generic",
    [
        (INDISCRETE, False, False, ((0, 1), (1, 0)), (0, 1)),
        (SIERPINSKI, True, False, ((1, 0),), (1,)),
    ],
    ids=["indiscrete", "sierpinski"],
)
def test_hand_built_spaces(top, t0, t1, pairs, generic):
    props = spectra.point_set_properties(top)
    space = Space.of(top)
    assert (props.is_t0, props.is_t1, props.is_spectral) == (t0, t1, t0)
    assert (ref_is_t0(space), ref_is_t1(space)) == (t0, t1)
    assert spectra.specialization_pairs(top) == ref_specialization_pairs(space) == pairs
    # The whole space is the one component, with these generic points.
    assert spectra.irreducible_components(top) == (0b11,)
    assert spectra.generic_points(top, 0b11) == generic
    _check_space(top)


@pytest.mark.parametrize(
    "descs, bound",
    [(None, 52), ([parse_descriptor(workloads.power_module_descriptor(2, 5))], 374)],
    ids=["catalog", "F2^5"],
)
def test_run_all_computes_each_point_closure_once(descs, bound, monkeypatch):
    # One space per topology asked for and one per reduced ring; each point
    # of each space has its closure computed once.
    calls = []
    real = spectra.closure

    def counted(top, y):
        calls.append((top, y))  # spaces hash by identity; the list keeps them alive
        return real(top, y)

    monkeypatch.setattr(spectra, "closure", counted)
    verify.run_all(descs)
    assert all(y.bit_count() == 1 for _, y in calls)
    assert len(set(calls)) == len(calls)
    assert len(calls) <= bound

import pytest
from shared_instances import ANNIHILATED

from lemspec import natural_map, spectra
from lemspec.errors import InternalError
from lemspec.instances import (
    ExplicitModuleSpec,
    InstanceDescriptor,
    ZnSpec,
    build_instance,
    catalog,
    find_descriptor,
)
from lemspec.le_modules import colon, spectrum
from lemspec.natural_map import (
    build_natural_map,
    component_minimal_prime_bijection,
    connectedness_equivalence,
    continuity_check,
    dr_preimage_check,
    homeomorphism_check,
    injectivity_battery,
    is_multiplication_le_module,
    spectral_battery,
    surjectivity_and_openclosed,
)
from lemspec.memo import per_object, release
from lemspec.rings import push_ideal, spec_ring
from lemspec.verify import FALSIFIED, STATEMENTS, run_all

NON_MULT = {"Z2xZ2-over-Z2-submodules", "Z2xZ4-over-Z4-submodules"}

DEGENERATE = InstanceDescriptor(
    name="point-over-Z2",
    ring=ZnSpec(2),
    module=ExplicitModuleSpec(
        size=1, zero=0, leq=((1,),), add=((0,),), action=((0,), (0,))
    ),
)


def test_psi_table_z6(z6_module):
    nm = build_natural_map(z6_module)
    assert not nm.degenerate
    assert nm.annihilator_ideal.sorted_members() == (0,)
    assert nm.quotient.order == 6
    assert nm.image_of(1).sorted_members() == (0, 3)
    assert nm.image_of(2).sorted_members() == (0, 2, 4)
    with pytest.raises(KeyError):
        nm.image_of(0)


@pytest.mark.parametrize("desc", [*catalog(), *ANNIHILATED], ids=lambda d: d.name)
def test_map_table_and_fibers_match_the_per_point_and_per_prime_scans(desc):
    # The map pushes each colon fiber's ideal once and keeps only the fibers;
    # the references push every point's and compare every image with every
    # ring prime.
    mod = build_instance(desc)
    nm = build_natural_map(mod)
    images = [push_ideal(colon(mod, p), nm.projection, nm.quotient) for p in spectrum(mod)]
    assert tuple(map(nm.image_of, spectrum(mod))) == nm.images() == tuple(images)
    assert nm.fibers == tuple(
        sum(1 << k for k, img in enumerate(images) if img == prime)
        for prime in spec_ring(nm.quotient).points
    )
    if desc in ANNIHILATED:
        assert nm.quotient.order < mod.ring.order
    release(mod, mod.ring, nm.quotient)


def test_preimage_z6(z6_module):
    # Masks: bit j for the j-th prime of the reduced ring, bit k for the
    # k-th point of the spectrum (1, 2).
    nm = build_natural_map(z6_module)
    j = spec_ring(nm.quotient).points.index(nm.image_of(1))
    assert nm.preimage(1 << j) == 0b01
    assert nm.preimage(0) == 0
    assert nm.image(0b01) == 1 << j
    assert nm.image(0b11) == 0b11


def test_image_and_preimage_read_the_map_point_by_point(all_instances):
    # Over every set of points (bit k for the k-th point) and of ring primes
    # (bit j for the j-th prime of the reduced ring): the image holds the
    # image of each point, and the preimage the points whose image it holds.
    # Klein's four points all map to one prime, so a mask that meets a fiber
    # without covering it is among those checked.
    for mod in all_instances:
        nm = build_natural_map(mod)
        if nm.degenerate:
            continue
        primes = spec_ring(nm.quotient).points
        image_bit = [1 << primes.index(img) for img in nm.images()]
        for points in range(1 << len(image_bit)):
            bits = [b for k, b in enumerate(image_bit) if points >> k & 1]
            assert nm.image(points) == sum(set(bits)), (mod.name, points)
        for targets in range(1 << len(primes)):
            want = sum(1 << k for k, b in enumerate(image_bit) if targets & b)
            assert nm.preimage(targets) == want, (mod.name, targets)


def test_injectivity_battery_z6(z6_module):
    report = injectivity_battery(build_natural_map(z6_module))
    assert report.names == (
        "psi-injective",
        "vstar-separated",
        "colon-fibers-at-most-one",
    )
    assert report.values == (True, True, True)
    assert report.equivalent


def test_injectivity_battery_klein(klein_module):
    report = injectivity_battery(build_natural_map(klein_module))
    assert report.values == (False, False, False)
    assert report.equivalent


def test_continuity_everywhere(all_instances):
    for mod in all_instances:
        assert continuity_check(build_natural_map(mod)), mod.name


def test_dr_preimages(z6_module, klein_module):
    for mod in (z6_module, klein_module):
        nm = build_natural_map(mod)
        for r in range(mod.ring.order):
            assert dr_preimage_check(nm, r), (mod.name, r)


def test_openclosed_everywhere(all_instances):
    for mod in all_instances:
        nm = build_natural_map(mod)
        # The map is onto: every prime of R/Ann is the image of a point.
        assert set(nm.images()) == set(spec_ring(nm.quotient).points), mod.name
        assert surjectivity_and_openclosed(nm).ok, mod.name


def test_connectedness_z4():
    mod = build_instance(find_descriptor("Z4-ideal-lattice"))
    report = connectedness_equivalence(build_natural_map(mod))
    assert report.clauses.values == (True, True, True)
    assert report.ok


def test_connectedness_z6(z6_module):
    report = connectedness_equivalence(build_natural_map(z6_module))
    assert report.clauses.values == (False, False, False)
    assert report.clauses.equivalent
    assert report.ok


def test_connectedness_everywhere(all_instances):
    for mod in all_instances:
        assert connectedness_equivalence(build_natural_map(mod)).ok, mod.name


def test_component_bijection_everywhere(all_instances):
    for mod in all_instances:
        assert component_minimal_prime_bijection(
            build_natural_map(mod)
        ), mod.name


def test_spectral_battery_z6(z6_module):
    report = spectral_battery(build_natural_map(z6_module))
    assert report.values == (True,) * 6
    assert report.equivalent


def test_spectral_battery_klein(klein_module):
    report = spectral_battery(build_natural_map(klein_module))
    assert report.values == (False,) * 6
    assert report.equivalent


def test_homeomorphism_check_everywhere(all_instances):
    for mod in all_instances:
        assert homeomorphism_check(build_natural_map(mod)), mod.name


def test_psi_checks_run_once_per_map(monkeypatch):
    # T4.3, P4.1 and T7.1 all ask for continuity and open/closed images; both
    # checks push ideals into R/Ann, so a repeated run would push again.
    # P4.2 and T7.1 both ask for the injectivity battery, which scans the
    # colon fibers.
    mod = build_instance(find_descriptor("Z6-ideal-lattice"))
    nm = build_natural_map(mod)
    assert nm.is_injective()
    pushes, scans = [], []
    real_push, real_scan = natural_map.push_ideal, natural_map.colon_fibers_at_most_one

    def counted_push(*args):
        pushes.append(args)
        return real_push(*args)

    def counted_scan(m):
        scans.append(m)
        return real_scan(m)

    monkeypatch.setattr(natural_map, "push_ideal", counted_push)
    monkeypatch.setattr(natural_map, "colon_fibers_at_most_one", counted_scan)
    assert homeomorphism_check(nm)
    assert pushes
    first = len(pushes)
    assert continuity_check(nm) and surjectivity_and_openclosed(nm).ok
    assert injectivity_battery(nm).equivalent
    assert homeomorphism_check(nm) and spectral_battery(nm).values[-1]
    assert len(pushes) == first
    assert len(scans) == 1


def test_multiplication_flags(all_instances):
    for mod in all_instances:
        assert is_multiplication_le_module(mod) == (mod.name not in NON_MULT)


def test_multiplication_spectral(all_instances):
    # T7.2 reads the battery's "spectral" clause once the multiplication
    # hypothesis holds.
    for mod in all_instances:
        nm = build_natural_map(mod)
        if mod.name not in NON_MULT:
            assert spectral_battery(nm)["spectral"], mod.name
    verdicts = {r.instance: (r.verdict, r.detail) for r in run_all().for_statement("T7.2")}
    assert {name for name, v in verdicts.items() if v[0] != "verified"} == NON_MULT
    for name in NON_MULT:
        assert verdicts[name] == ("hypothesis-not-met", "multiplication=False surjective=True")


def test_image_closed_criterion(z6_module, klein_module):
    # T7.3 compares the battery's "spectral" and "psi-injective" clauses.
    report = spectral_battery(build_natural_map(z6_module))
    assert report["spectral"] and report["psi-injective"]
    report = spectral_battery(build_natural_map(klein_module))
    assert not report["spectral"] and not report["psi-injective"]
    results = run_all([find_descriptor(m.name) for m in (z6_module, klein_module)])
    assert [(r.verdict, r.detail) for r in results.for_statement("T7.3")] == [
        ("verified", "spectral=True injective=True"),
        ("verified", "spectral=False injective=False"),
    ]


def test_finite_spec_criterion(all_instances):
    # T7.4 compares the battery's "spectral" and "colon-fibers-at-most-one".
    for mod in all_instances:
        report = spectral_battery(build_natural_map(mod))
        assert report["spectral"] == report["colon-fibers-at-most-one"], mod.name
        assert report["colon-fibers-at-most-one"] == spectra.colon_fibers_at_most_one(mod)


def test_degenerate_map():
    mod = build_instance(DEGENERATE)
    nm = build_natural_map(mod)
    assert nm.degenerate
    assert nm.images() == ()
    assert nm.quotient is None and nm.projection is None
    with pytest.raises(InternalError):
        continuity_check(nm)
    with pytest.raises(InternalError):
        spectral_battery(nm)
    # psi is onto, so the degenerate module is the one with an empty spectrum.
    finite_spec = next(s.check for s in STATEMENTS if s.sid == "T7.4")
    assert finite_spec(mod) == ("hypothesis-not-met", None, "empty spectrum")


def test_criteria_read_the_spectral_battery(monkeypatch, z6_module):
    # A planted battery whose "spectral" clause disagrees with the others:
    # T7.3 and T7.4 must report it, naming the battery's values.
    names = spectral_battery(build_natural_map(z6_module)).names
    planted = natural_map.EquivalenceReport(names, (False, True, True, True, True, True))
    monkeypatch.setattr(natural_map, "spectral_battery", lambda nm: planted)
    checks = {s.sid: s.check for s in STATEMENTS}
    assert checks["T7.3"](z6_module) == (FALSIFIED, "spectral=False injective=True", None)
    assert checks["T7.4"](z6_module) == (
        FALSIFIED,
        "spectral=False colon-fibers-at-most-one=True",
        None,
    )
    assert checks["T7.2"](z6_module) == (FALSIFIED, "spectrum not spectral", None)


def test_spectrality_scans_run_once_per_run(monkeypatch):
    # T7.4 reads the colon-fiber clause that P4.2 computed, and T7.2 checks
    # the multiplication hypothesis once.
    counts = {"fibers": 0, "multiplication": 0}
    real_fibers = spectra.colon_fibers_at_most_one.__wrapped__
    real_mult = natural_map.is_multiplication_le_module

    def fibers(mod):
        counts["fibers"] += 1
        return real_fibers(mod)

    def multiplication(mod):
        counts["multiplication"] += 1
        return real_mult(mod)

    # One memoised function for both callers, P6.2 (spectra) and the battery.
    shared = per_object(fibers)
    monkeypatch.setattr(spectra, "colon_fibers_at_most_one", shared)
    monkeypatch.setattr(natural_map, "colon_fibers_at_most_one", shared)
    monkeypatch.setattr(natural_map, "is_multiplication_le_module", multiplication)
    report = run_all([find_descriptor("Z6-ideal-lattice")])
    assert report.counts()["falsified"] == 0
    assert counts == {"fibers": 1, "multiplication": 1}

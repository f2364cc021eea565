"""The map from a module spectrum to the spectrum of the reduced ring.

Each prime element p goes to the image of its colon ideal in R/Ann.  The
map is always continuous; injectivity, surjectivity, openness, and the
induced equivalences (connectedness, spectrality, components) are checked
clause by clause so truth-vector comparisons stay visible in reports.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import EmptySpectrum, InternalError
from .le_modules import (
    LeModuleInstance,
    annihilator,
    colon,
    colon_fibers,
    ideal_action,
    spectrum,
    submodule_elements,
)
from .memo import per_object
from .rings import (
    FiniteRing,
    Ideal,
    all_ideals,
    basic_open_ring,
    idempotents,
    is_prime_ideal,
    maximal_ideals,
    minimal_primes,
    push_ideal,
    quotient_ring,
    spec_ring,
    variety_ring,
)
from .spectra import (
    basic_open,
    build_topologies,
    generic_points,
    irreducible_components,
    is_closed,
    point_closures,
    point_set_properties,
    ring_space,
    variety_star,
)


@dataclass(frozen=True)
class NaturalMap:
    """The colon-ideal map into the spectrum of the reduced ring.

    When the annihilator is the whole ring the module collapses and there
    is no reduced ring; ``degenerate`` marks that case and ``table`` is
    empty.
    """

    instance: LeModuleInstance
    annihilator_ideal: Ideal
    degenerate: bool
    quotient: FiniteRing | None
    projection: tuple[int, ...] | None
    table: tuple[tuple[int, Ideal], ...]

    def image_of(self, p: int) -> Ideal:
        for q, img in self.table:
            if q == p:
                return img
        raise KeyError(f"{p} is not a spectrum point")

    def images(self) -> tuple[Ideal, ...]:
        return tuple(img for _, img in self.table)

    def is_injective(self) -> bool:
        imgs = self.images()
        return len(set(imgs)) == len(imgs)

    def is_surjective(self) -> bool:
        if self.degenerate:
            return False
        return set(self.images()) == set(spec_ring(self.quotient).points)

    def is_bijective(self) -> bool:
        return self.is_injective() and self.is_surjective()

    def preimage(self, targets: frozenset[Ideal]) -> frozenset[int]:
        return frozenset(p for p, img in self.table if img in targets)


def _require_map(nm: NaturalMap) -> None:
    if nm.degenerate:
        raise ValueError("the module is degenerate: no reduced ring exists")


@per_object
def build_natural_map(mod: LeModuleInstance) -> NaturalMap:
    """Quotient by the annihilator and tabulate p -> image of (p:e)."""
    ann = annihilator(mod)
    if not ann.is_proper():
        return NaturalMap(mod, ann, True, None, None, ())
    quotient, projection = quotient_ring(mod.ring, ann)
    rows = []
    for p in spectrum(mod):
        img = push_ideal(colon(mod, p), projection, quotient)
        if not is_prime_ideal(quotient, img):
            raise InternalError(f"image of colon of point {p} is not prime")
        rows.append((p, img))
    return NaturalMap(mod, ann, False, quotient, projection, tuple(rows))


def continuity_check(nm: NaturalMap) -> bool:
    """Preimages of ring varieties match varieties of ideal actions,
    for every ideal containing the annihilator."""
    _require_map(nm)
    mod = nm.instance
    ok = True
    for i in all_ideals(mod.ring):
        if not nm.annihilator_ideal.members <= i.members:
            continue
        ibar = push_ideal(i, nm.projection, nm.quotient)
        pre = nm.preimage(variety_ring(nm.quotient, ibar))
        direct = frozenset(
            p for p in spectrum(mod)
            if mod.lattice.leq[ideal_action(mod, i)][p]
        )
        if pre != direct:
            ok = False
            break
    return ok


@dataclass(frozen=True)
class EquivalenceReport:
    """Named boolean clauses that are expected to agree."""

    names: tuple[str, ...]
    values: tuple[bool, ...]

    @property
    def equivalent(self) -> bool:
        return len(set(self.values)) <= 1

    @property
    def all_true(self) -> bool:
        return all(self.values)


def injectivity_battery(nm: NaturalMap) -> EquivalenceReport:
    """Injectivity, colon-variety separation, and fiber size agree."""
    _require_map(nm)
    mod = nm.instance
    points = spectrum(mod)
    separated = all(
        variety_star(mod, p) != variety_star(mod, q) or p == q
        for p, q in itertools.combinations(points, 2)
    )
    return EquivalenceReport(
        ("psi-injective", "vstar-separated", "colon-fibers-at-most-one"),
        (nm.is_injective(), separated, _fibers_at_most_one(mod)),
    )


def _fibers_at_most_one(mod: LeModuleInstance) -> bool:
    """No ring prime is the colon ideal of two spectrum points."""
    fibers = colon_fibers(mod)
    return all(len(fibers.get(p.members, ())) <= 1 for p in spec_ring(mod.ring).points)


@dataclass(frozen=True)
class OpenClosedReport:
    surjective: bool
    closed_image_ok: bool | None
    open_image_ok: bool | None

    @property
    def ok(self) -> bool:
        if not self.surjective:
            return True
        return bool(self.closed_image_ok and self.open_image_ok)


def surjectivity_and_openclosed(nm: NaturalMap) -> OpenClosedReport:
    """When onto, images of colon varieties and their complements are the
    ring varieties and their complements."""
    _require_map(nm)
    if not nm.is_surjective():
        return OpenClosedReport(False, None, None)
    mod = nm.instance
    points = frozenset(spectrum(mod))
    ring_points = frozenset(spec_ring(nm.quotient).points)
    closed_ok = True
    open_ok = True
    for n in submodule_elements(mod):
        nbar = push_ideal(colon(mod, n), nm.projection, nm.quotient)
        target = variety_ring(nm.quotient, nbar)
        vs = variety_star(mod, n)
        if frozenset(nm.image_of(p) for p in vs) != target:
            closed_ok = False
        if frozenset(nm.image_of(p) for p in points - vs) != ring_points - target:
            open_ok = False
    return OpenClosedReport(True, closed_ok, open_ok)


def homeomorphism_check(nm: NaturalMap) -> bool:
    """The map is bijective exactly when it is a homeomorphism.

    A non-bijective map is never a homeomorphism, so the only content is
    that a bijective map is continuous with open and closed images.
    """
    _require_map(nm)
    if not nm.is_bijective():
        return True
    oc = surjectivity_and_openclosed(nm)
    return continuity_check(nm) and oc.ok


@dataclass(frozen=True)
class ConnectednessReport:
    hypothesis_met: bool
    clauses: EquivalenceReport | None
    consequent_applies: bool
    consequent_ok: bool | None

    @property
    def ok(self) -> bool:
        if not self.hypothesis_met:
            return True
        if not self.clauses.equivalent:
            return False
        if self.consequent_applies and not self.consequent_ok:
            return False
        return True


def connectedness_equivalence(nm: NaturalMap) -> ConnectednessReport:
    """For onto maps: module spectrum connected, ring spectrum connected,
    and only trivial idempotents are one statement."""
    _require_map(nm)
    if not nm.is_surjective():
        return ConnectednessReport(False, None, False, None)
    mod = nm.instance
    m_conn = point_set_properties(build_topologies(mod).star).is_connected
    r_conn = point_set_properties(ring_space(nm.quotient)).is_connected
    trivial = idempotents(nm.quotient) == frozenset(
        {nm.quotient.zero, nm.quotient.one}
    )
    clauses = EquivalenceReport(
        ("module-spectrum-connected", "ring-spectrum-connected", "idempotents-trivial"),
        (m_conn, r_conn, trivial),
    )
    quasi_local = len(maximal_ideals(mod.ring)) == 1
    ann_prime = is_prime_ideal(mod.ring, nm.annihilator_ideal)
    applies = quasi_local or ann_prime
    consequent = (m_conn and r_conn) if applies else None
    return ConnectednessReport(True, clauses, applies, consequent)


def component_minimal_prime_bijection(nm: NaturalMap) -> bool:
    """Components map bijectively onto minimal primes of the reduced ring,
    and every irreducible closed set has a generic point."""
    _require_map(nm)
    if not nm.is_surjective():
        return True
    mod = nm.instance
    space = build_topologies(mod).star
    star_closed = {variety_star(mod, p) for p in spectrum(mod)}
    for y in point_closures(space):
        if y not in star_closed:
            return False
        if not generic_points(space, y):
            return False
    images = []
    for comp in irreducible_components(space):
        gens = generic_points(space, comp)
        if not gens:
            return False
        imgs = {nm.image_of(p) for p in gens}
        if len(imgs) != 1:
            return False
        images.append(next(iter(imgs)))
    if len(set(images)) != len(images):
        return False
    return set(images) == set(minimal_primes(nm.quotient))


def spectral_battery(nm: NaturalMap) -> EquivalenceReport:
    """The six equivalent faces of spectrality under a surjective map."""
    _require_map(nm)
    mod = nm.instance
    props = point_set_properties(build_topologies(mod).star)
    inj = injectivity_battery(nm)
    # A finite space homeomorphic to Spec(R/Ann) has as many points, so onto psi
    # is bijective, and T4.3 checks that a bijective psi is a homeomorphism.
    homeo = nm.is_bijective() and homeomorphism_check(nm)
    return EquivalenceReport(
        (
            "spectral",
            "t0",
            "vstar-separated",
            "colon-fibers-at-most-one",
            "psi-injective",
            "homeomorphic",
        ),
        (
            props.is_spectral,
            props.is_t0,
            inj.values[1],
            inj.values[2],
            inj.values[0],
            homeo,
        ),
    )


def is_multiplication_le_module(mod: LeModuleInstance) -> bool:
    """Every submodule element equals the action of its colon ideal."""
    return all(
        ideal_action(mod, colon(mod, n)) == n for n in submodule_elements(mod)
    )


def multiplication_spectral_check(nm: NaturalMap) -> bool:
    """Multiplication instances with onto maps must have spectral spectra."""
    _require_map(nm)
    if not is_multiplication_le_module(nm.instance):
        raise ValueError("requires a multiplication instance")
    if not nm.is_surjective():
        raise ValueError("requires a surjective map")
    return point_set_properties(build_topologies(nm.instance).star).is_spectral


@dataclass(frozen=True)
class ImageClosedReport:
    image_closed: bool
    spectral: bool | None
    injective: bool | None

    @property
    def ok(self) -> bool:
        if not self.image_closed:
            return True
        return self.spectral == self.injective


def image_closed_criterion(nm: NaturalMap) -> ImageClosedReport:
    """With a closed image, spectral is the same as injective."""
    _require_map(nm)
    image = frozenset(nm.images())
    if not is_closed(ring_space(nm.quotient), image):
        return ImageClosedReport(False, None, None)
    props = point_set_properties(build_topologies(nm.instance).star)
    return ImageClosedReport(True, props.is_spectral, nm.is_injective())


def finite_spec_criterion(mod: LeModuleInstance) -> bool:
    """Nonempty finite spectra: spectral equals all colon fibers small."""
    points = spectrum(mod)
    if not points:
        raise EmptySpectrum(f"{mod.name} has no prime elements")
    spectral = point_set_properties(build_topologies(mod).star).is_spectral
    return spectral == _fibers_at_most_one(mod)


def dr_preimage_check(nm: NaturalMap, r: int) -> bool:
    """Preimage of a ring basic open is the module basic open; the image
    sits inside it, exactly when onto."""
    _require_map(nm)
    mod = nm.instance
    rbar = nm.projection[r]
    d = basic_open_ring(nm.quotient, rbar)
    xr = basic_open(mod, r)
    if nm.preimage(d) != xr:
        return False
    image = frozenset(nm.image_of(p) for p in xr)
    if not image <= d:
        return False
    if nm.is_surjective() and image != d:
        return False
    return True

"""The map from a module spectrum to the spectrum of the reduced ring.

Each prime element p goes to the image of its colon ideal in R/Ann, so
the map is kept as its colon fibers, one mask of points per prime of R/Ann
(``NaturalMap.fibers``).  The map is onto whenever the module is not
degenerate (see ``build_natural_map``), and that is asserted once, where
it is built.  Continuity, injectivity, openness, and the induced
equivalences (connectedness, spectrality, components) are checked clause
by clause so truth-vector comparisons stay visible in reports.  Each map
has one spectrality battery (``spectral_battery``), kept on the map: P4.2
reports the three clauses it takes from ``injectivity_battery``, T7.1 all
six, and T7.2, T7.3 and T7.4 read the clauses they restate.  Sets of
points are int masks (``spectra``), those of the reduced ring in
``spec_ring`` order.
"""

from __future__ import annotations

import bisect

from .errors import InternalError
from .le_modules import (
    LeModuleInstance,
    annihilator,
    colon_fibers,
    colon_sets,
    ideal_actions,
    spectrum,
    submodule_elements,
)
from .memo import per_object, record
from .rings import (
    FiniteRing,
    Ideal,
    all_ideals,
    basic_open_ring,
    ideal_table,
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
    all_points,
    basic_open,
    build_topologies,
    closures_by_point,
    colon_fibers_at_most_one,
    generic_points,
    irreducible_components,
    point_set_properties,
    ring_space,
    varieties,
    variety_stars,
)


@record
class NaturalMap:
    """The colon-ideal map into the spectrum of the reduced ring.

    ``fibers`` holds, for each prime of the reduced ring in ``spec_ring``
    order, the mask of the points that map to it: a colon fiber.  When the
    annihilator is the whole ring the module collapses and there is no
    reduced ring; ``degenerate`` marks that case and ``fibers`` is empty.
    """

    instance: LeModuleInstance
    annihilator_ideal: Ideal
    degenerate: bool
    quotient: FiniteRing | None
    projection: tuple[int, ...] | None
    fibers: tuple[int, ...]

    def image_of(self, p: int) -> Ideal:
        """The image of a point; KeyError for any other element."""
        points = spectrum(self.instance)
        k = bisect.bisect_left(points, p)
        if points[k : k + 1] != (p,):
            raise KeyError(p)
        j = next(j for j, m in enumerate(self.fibers) if m >> k & 1)
        return spec_ring(self.quotient).points[j]

    def images(self) -> tuple[Ideal, ...]:
        return tuple(map(self.image_of, spectrum(self.instance)))

    def is_injective(self) -> bool:
        return all(m.bit_count() == 1 for m in self.fibers)

    def preimage(self, targets: int) -> int:
        """The points over the ring primes of a mask."""
        return sum(m for j, m in enumerate(self.fibers) if targets >> j & 1)

    def image(self, points: int) -> int:
        """The ring primes over which a mask of points has a point."""
        return sum(1 << j for j, m in enumerate(self.fibers) if m & points)


def _require_map(nm: NaturalMap) -> None:
    if nm.degenerate:
        raise InternalError("the module is degenerate: no reduced ring exists")


@per_object
def build_natural_map(mod: LeModuleInstance) -> NaturalMap:
    """Quotient by the annihilator and map each colon fiber to the image of
    its colon ideal.

    The map is onto.  Ann = R exactly when e = 1e <= 0_M, the one-element
    module; that is the degenerate case, with no reduced ring.  Otherwise
    every prime of R/Ann is P/Ann for a maximal ideal P containing Ann (a
    prime of a finite ring is maximal), and P is the colon of a point:

    (a) A maximal proper submodule element p is prime.  Meets of submodule
        elements are submodule elements, so any set has a least submodule
        element above it.  Above p and n it is the join of the finite sums
        of p and the sn: by S that join absorbs its own sums, and by M5, M1
        and M3 its scalar multiples (rp <= p and r(sn) = (rs)n).  Suppose
        rn <= p and n is not below p.  That least element is then e, so by
        M5, M1 and M3, re is a join of sums of rp and s(rn), each <= p, and
        re <= p.
    (b) Pe != e.  For ideals I and J, a(Je) <= (IJ)e for each a in I (by
        M5, M1 and M3 again), so Ie = Je = e gives (IJ)e = e, and if Pe = e
        then P^k e = e for every k.  In a finite ring P^k stabilises at an
        idempotent ideal, which is εR for an idempotent ε (R is a product of
        local rings with nilpotent maximal ideals); 1 - ε is not in P, as ε
        is.  Then (1 - ε)e = (1 - ε)((εR)e) <= (0)e = 0_M, so 1 - ε is in
        Ann, which lies inside P: a contradiction.
    (c) Take a maximal proper submodule element p >= Pe.  It is prime by
        (a), and P lies inside (p:e), which is proper as e is not below p,
        so (p:e) = P.

    This is the finite le-module case of the classical result for finitely
    generated modules: C.-P. Lu, Houston J. Math. 25 (1999), and
    R. L. McCasland, M. E. Moore and P. F. Smith, Comm. Algebra 25 (1997).
    It settles the "onto psi" hypotheses of T4.3, T4.5, P5.1, T5.4, T6.6,
    T7.1 and T7.2, and T7.3's "closed image", as the image is the whole
    ring spectrum, which is closed.  A map that is not onto is a fault of
    lemspec and raises InternalError.
    """
    ann = annihilator(mod)
    if not ann.is_proper():
        return NaturalMap(mod, ann, True, None, None, ())
    quotient, projection = quotient_ring(mod.ring, ann)
    fibers = dict.fromkeys(spec_ring(quotient).points, 0)
    for c, mask in colon_fibers(mod).items():
        img = push_ideal(Ideal(mod.ring, c), projection, quotient)
        if img not in fibers:
            raise InternalError(f"image of colon ideal {sorted(c)} is not prime")
        fibers[img] |= mask
    if not all(fibers.values()):
        raise InternalError("psi is not onto")
    return NaturalMap(mod, ann, False, quotient, projection, tuple(fibers.values()))


@per_object
def continuity_check(nm: NaturalMap) -> bool:
    """Preimages of ring varieties match varieties of ideal actions,
    for every ideal containing the annihilator."""
    _require_map(nm)
    mod, ann = nm.instance, nm.annihilator_ideal.members
    v = varieties(mod)
    return all(
        nm.preimage(variety_ring(nm.quotient, push_ideal(i, nm.projection, nm.quotient)))
        == v[ie]
        for i, ie in zip(all_ideals(mod.ring), ideal_actions(mod))
        if ann <= i.members
    )


@record
class EquivalenceReport:
    """Named boolean clauses that are expected to agree."""

    names: tuple[str, ...]
    values: tuple[bool, ...]

    @property
    def equivalent(self) -> bool:
        return len(set(self.values)) <= 1

    def __getitem__(self, name: str) -> bool:
        return self.values[self.names.index(name)]


@per_object
def injectivity_battery(nm: NaturalMap) -> EquivalenceReport:
    """Injectivity, colon-variety separation, and fiber size agree."""
    _require_map(nm)
    mod = nm.instance
    points = spectrum(mod)
    separated = len(set(map(variety_stars(mod).__getitem__, points))) == len(points)
    return EquivalenceReport(
        ("psi-injective", "vstar-separated", "colon-fibers-at-most-one"),
        (nm.is_injective(), separated, colon_fibers_at_most_one(mod)),
    )


@record
class OpenClosedReport:
    closed_image_ok: bool
    open_image_ok: bool

    @property
    def ok(self) -> bool:
        return self.closed_image_ok and self.open_image_ok


@per_object
def surjectivity_and_openclosed(nm: NaturalMap) -> OpenClosedReport:
    """Images of colon varieties and their complements are the ring
    varieties and their complements (the map is onto).

    The image of a set of points is the set of images of the colon fibers
    it meets (``NaturalMap.image``), exactly, as psi is constant on a fiber.
    """
    _require_map(nm)
    mod = nm.instance
    full, ring_full = all_points(mod), (1 << len(nm.fibers)) - 1
    vs, colons = variety_stars(mod), colon_sets(mod)
    closed_ok = open_ok = True
    for n in submodule_elements(mod):
        target = variety_ring(nm.quotient, push_ideal(Ideal(mod.ring, colons[n]), nm.projection, nm.quotient))
        closed_ok &= nm.image(vs[n]) == target
        open_ok &= nm.image(full ^ vs[n]) == ring_full ^ target
    return OpenClosedReport(closed_ok, open_ok)


def homeomorphism_check(nm: NaturalMap) -> bool:
    """The map is bijective exactly when it is a homeomorphism.

    It is onto, so bijective means injective.  A non-bijective map is never
    a homeomorphism, so the only content is that a bijective map is
    continuous with open and closed images.
    """
    _require_map(nm)
    if not nm.is_injective():
        return True
    oc = surjectivity_and_openclosed(nm)
    return continuity_check(nm) and oc.ok


@record
class ConnectednessReport:
    clauses: EquivalenceReport
    consequent_applies: bool
    consequent_ok: bool | None

    @property
    def ok(self) -> bool:
        if not self.clauses.equivalent:
            return False
        return not (self.consequent_applies and not self.consequent_ok)


def connectedness_equivalence(nm: NaturalMap) -> ConnectednessReport:
    """Module spectrum connected, ring spectrum connected, and only trivial
    idempotents are one statement."""
    _require_map(nm)
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
    return ConnectednessReport(clauses, applies, consequent)


def component_minimal_prime_bijection(nm: NaturalMap) -> bool:
    """Components map bijectively onto minimal primes of the reduced ring,
    and every irreducible closed set has a generic point."""
    _require_map(nm)
    mod = nm.instance
    space = build_topologies(mod).star
    star_closed = set(map(variety_stars(mod).__getitem__, spectrum(mod)))
    if not set(closures_by_point(space).values()) <= star_closed:
        return False
    # Finite space: cl{p} has generic point p, and a component is a maximal cl{p}.
    images = []
    for comp in irreducible_components(space):
        imgs = {nm.image_of(p) for p in generic_points(space, comp)}
        if len(imgs) != 1:
            return False
        images.append(next(iter(imgs)))
    if len(set(images)) != len(images):
        return False
    return set(images) == set(minimal_primes(nm.quotient))


@per_object
def spectral_battery(nm: NaturalMap) -> EquivalenceReport:
    """The six equivalent faces of spectrality (the map is onto).

    Three clauses are read from ``injectivity_battery``, so P4.2 and this
    battery share one computation of them.
    """
    _require_map(nm)
    props = point_set_properties(build_topologies(nm.instance).star)
    inj = injectivity_battery(nm)
    # A finite space homeomorphic to Spec(R/Ann) has as many points, so onto psi
    # is injective, and T4.3 checks that a bijective psi is a homeomorphism.
    homeo = nm.is_injective() and homeomorphism_check(nm)
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
            inj["vstar-separated"],
            inj["colon-fibers-at-most-one"],
            inj["psi-injective"],
            homeo,
        ),
    )


def is_multiplication_le_module(mod: LeModuleInstance) -> bool:
    """Every submodule element equals the action of its colon ideal."""
    colons, actions, index = colon_sets(mod), ideal_actions(mod), ideal_table(mod.ring)[1]
    return all(actions[index[colons[n]]] == n for n in submodule_elements(mod))


def dr_preimage_check(nm: NaturalMap, r: int) -> bool:
    """Preimage of a ring basic open is the module basic open.

    The image clauses follow: the image of the preimage of D is D n im psi,
    which is D, as the map is onto.
    """
    _require_map(nm)
    d = basic_open_ring(nm.quotient, nm.projection[r])
    return nm.preimage(d) == basic_open(nm.instance, r)

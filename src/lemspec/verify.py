"""Statement-by-statement verification over concrete instances.

Each registered statement is checked on each instance and classified as
verified, falsified (with a witness), hypothesis-not-met, or not-applicable.
Every check is exhaustive, unless a theorem fixes its answer.  Three
checks are scanned on every instance, and most of the topology follows
from them:

- L2.1's two clauses, "Ie <= n iff I lies in (n:e)" and "the colon ideal
  of every point is a proper prime" (``_check_adjunction``);
- P6.2's per-point loop, "cl{p} = V*(p) is p's colon fiber"
  (``_check_point_closures``);
- the check that the colon-variety family is closed under unions and
  intersections, in ``spectra.build_topologies``.

P3.1, T3.5's family clauses, T5.3, T5.4's base clause, P6.1, C6.3, P6.4
and P6.5 follow from these, the definitions and one fact about primes
(Atiyah-Macdonald 1.11), so none of them is scanned; nor are P4.1, P5.1
and T4.3, which follow from L2.1, the definition of the colon and the
onto lemma that ``natural_map.build_natural_map`` enforces.  The docstring
of each check gives the argument, and README has a table of what is
scanned and what is argued.  Sets of points are the int masks of
``spectra`` (point k of the spectrum is bit k), used as they come: the
scans combine them with & and |, and nothing is decoded.  The loop over
ideals (L2.1) runs over indices into the ring's ``rings.ideal_table``, in
its order, reading Ie from ``le_modules.ideal_actions``.
Serialization omits timing so repeated runs are byte-identical.
"""

from __future__ import annotations

import functools
import time
from json.encoder import encode_basestring_ascii as json_string
from typing import Callable, Sequence

from . import natural_map as nmap
from . import spectra
from .instances import InstanceDescriptor, build_instance, catalog
from .memo import record, release
from .le_modules import (
    LeModuleInstance,
    colon_fibers,
    colon_sets,
    ideal_actions,
    spectrum,
    submodule_elements,
)
from .rings import all_ideals, ideal_table, is_prime_ideal

VERIFIED = "verified"
FALSIFIED = "falsified"
HYPOTHESIS_NOT_MET = "hypothesis-not-met"
NOT_APPLICABLE = "not-applicable"

Outcome = tuple[str, str | None, str | None]


def _closures(mod: LeModuleInstance) -> dict[int, int]:
    """p -> cl{p} in the star topology, for each point p.

    Y is irreducible iff cl Y is, and the irreducible closed sets of a
    finite space are its point closures, the values of this table.
    """
    return spectra.closures_by_point(spectra.build_topologies(mod).star)


def _fmt_clauses(report: nmap.EquivalenceReport) -> str:
    return " ".join(
        f"{name}={value}" for name, value in zip(report.names, report.values)
    )


def _check_adjunction(mod: LeModuleInstance) -> Outcome:
    """Ie <= n reads one up-set mask per ideal, and I lies inside the ideal
    (n:e) (``le_modules.colon_sets``) exactly when its generators do."""
    ideals, gens = all_ideals(mod.ring), ideal_table(mod.ring)[2]
    submods, colons = submodule_elements(mod), colon_sets(mod)
    for i, g, ie in zip(ideals, gens, ideal_actions(mod)):
        above = mod.lattice.up[ie]
        for n in submods:
            if above >> n & 1 != colons[n].issuperset(g):
                return FALSIFIED, f"I={i.sorted_members()}, n={mod.label(n)}", None
    for p in spectrum(mod):
        if not is_prime_ideal(mod.ring, colons[p]):
            return FALSIFIED, f"p={mod.label(p)}", None
    return VERIFIED, None, f"ideals={len(ideals)} submods={len(submods)}"


def _check_variety_identities(mod: LeModuleInstance) -> Outcome:
    """P3.1 holds on every instance by the definitions and L2.1's two
    clauses, which are checked on every instance: (a) Ie <= n iff I lies in
    (n:e), for every submodule element n, points included; (b) the colon
    ideal P = (q:e) of every point q is a proper prime.  Nothing is scanned.

    Let q be a point.  0_M and e: 0_M is the bottom, so V(0_M) = X, and
    (0_M:e) = Ann lies in every (q:e), so V*(0_M) = X; points are proper, so
    V(e) = {}, and 1 lies in (e:e) but not in the proper P, so V*(e) = {}.
    Pairs: (n ^ l : e) = (n:e) n (l:e), and a prime holds a finite
    intersection of ideals iff it holds one of them (Atiyah-Macdonald 1.11),
    so V*(n) u V*(l) = V*(n ^ l) by (b).  A prime above n is above n ^ l; V*
    is read from the colon set; and points with one V* lie in each other's
    V*, so have one colon ideal.  Sums of families n_i: by S, x <= y gives
    y + z = (x + z) v (y + z), and 0_M is the bottom, so for a point p above
    every n_i, n_i <= sum n_i <= p + ... + p <= p: n V(n_i) = V(sum n_i).
    With c_n = (n:e)e, every (n:e) in (q:e) gives every c_n <= q (L2.1), so
    sum c_n <= q and (sum c_n : e) lies in (q:e); and back, as c_n <= sum c_n,
    (n:e) lies in (c_n:e), inside (sum c_n : e): n V*(n_i) = V*(sum c_n).
    Scalar action: re <= q iff r is in P, by the definition of the colon;
    r is in (re:e), and each t in (re:e) has te <= re, so (re:e) lies in P
    iff re <= q: V*(re) = V(re).  Ideal action: by (a), q is in V(Ie) iff
    I lies in P; I lies in (Ie:e) by (a), and Ie <= q puts (Ie:e) inside P,
    so V*(Ie) = V(Ie).  Decomposition: with I = (n:e), (a) gives
    V*(n) = V((n:e)e), which is V*((n:e)e) by the ideal-action identity."""
    return VERIFIED, None, None


def _check_families_identical(mod: LeModuleInstance) -> Outcome:
    """``spectra.build_topologies`` checks that the colon-variety family is
    closed under unions and intersections (``_validate_family``).  The
    other clauses hold on every instance by L2.1's clauses (a) and (b)
    (``_check_variety_identities``) and are not scanned; the detail says
    whether the instance is top, where the finer-topology clause applies.

    One family: V*(n) = V((n:e)e) and V(Ie) = V*(Ie) (decomposition and
    ideal action), so each V*(n) is a V(Ie), and each V(Ie) is V*(n) for the
    submodule element n = Ie.  Finer topology: V*(n) = V((n:e)e) is the
    plain variety of the submodule element (n:e)e, so the colon family lies
    inside the plain one.  Unions of varieties of actions: let q be a point
    and P = (q:e).  By (b), (rs)e <= q iff rs is in P iff r or s is in P,
    so V*(re) u V*(se) = V*((rs)e), as V* is V on re.  By (a) and (b),
    (I n J)e <= q iff I n J lies in P iff IJ does iff I or J does, as
    IJ lies in I n J and P is prime (Atiyah-Macdonald, ch. 1), so
    V(Ie) u V(Je) = V((I n J)e) = V((IJ)e), and so for V*, which is V on
    ideal actions."""
    spectra.build_topologies(mod)
    if spectra.is_top_le_module(mod):
        return VERIFIED, None, "top instance: finer-topology clause checked"
    return VERIFIED, None, "not a top instance: finer-topology clause vacuous"


def _on_map(check: Callable[[nmap.NaturalMap], Outcome]) -> Callable[[LeModuleInstance], Outcome]:
    """A statement about the natural map, which a degenerate module lacks."""

    @functools.wraps(check)
    def run(mod: LeModuleInstance) -> Outcome:
        nm = nmap.build_natural_map(mod)
        if nm.degenerate:
            return NOT_APPLICABLE, None, "degenerate: no reduced ring"
        return check(nm)

    return run


@_on_map
def _check_continuity(nm: nmap.NaturalMap) -> Outcome:
    """P4.1 holds on every instance by L2.1's clause (a)
    (``_check_variety_identities``) and the definition of psi; no preimage
    is computed.  Let I contain Ann and p be a point.  psi(p) is the image
    (p:e)/Ann of the colon ideal, and Ann lies in (p:e), as (Ann)e = 0_M <= p,
    so I-bar lies in psi(p) iff I lies in (p:e), which holds iff Ie <= p by
    (a).  So the preimage of V(I-bar) is V(Ie)."""
    return VERIFIED, None, None


@_on_map
def _check_injectivity(nm: nmap.NaturalMap) -> Outcome:
    rep = nmap.injectivity_battery(nm)
    if rep.equivalent:
        return VERIFIED, None, _fmt_clauses(rep)
    return FALSIFIED, _fmt_clauses(rep), None


@_on_map
def _check_openclosed(nm: nmap.NaturalMap) -> Outcome:
    """T4.3 holds on every instance by the definition of V*, P4.1 and the
    onto lemma that ``build_natural_map`` enforces; no image is computed.
    Let n be a submodule element.  V*(n) holds the points whose colon ideal
    contains (n:e), so it is a union of colon fibers, which are the fibers
    of psi, and each fiber is nonempty, as psi is onto.  So psi(V*(n)) is
    the set of primes P/Ann of R/Ann with P containing (n:e), which is
    V((n:e)/Ann), and the complement of V*(n), the union of the other
    fibers, maps onto the complement of V((n:e)/Ann).  A bijective psi is
    then continuous (P4.1, as V(Ie) = V*(Ie) is closed) and closed, so a
    homeomorphism; T7.1's "homeomorphic" clause is "psi-injective"
    (``spectral_battery``)."""
    return VERIFIED, None, None


@_on_map
def _check_connectedness(nm: nmap.NaturalMap) -> Outcome:
    rep = nmap.connectedness_equivalence(nm)
    if rep.ok:
        return VERIFIED, None, _fmt_clauses(rep.clauses)
    return FALSIFIED, _fmt_clauses(rep.clauses), None


@_on_map
def _check_dr(nm: nmap.NaturalMap) -> Outcome:
    """P5.1 holds on every instance by the definitions of psi and X_r and
    the onto lemma; no preimage is computed.  Let p be a point.  Ann lies
    in (p:e), so r-bar lies outside psi(p) = (p:e)/Ann iff r lies outside
    (p:e), iff re is not below p, which is the definition of X_r: the
    preimage of D_r-bar is X_r.  The image of X_r is then D_r-bar n im psi,
    which is D_r-bar, as psi is onto (``build_natural_map``)."""
    return VERIFIED, None, None


def _check_basis(mod: LeModuleInstance) -> Outcome:
    """T5.3 holds on every instance by the definition of the colon and
    L2.1's clauses (a) and (b) (``_check_variety_identities``); nothing is
    scanned.  Let q be a point and P = (q:e); q is in X_r iff re is not
    below q iff r is not in P.  So by (b) X_rs = X_r n X_s.  q is in V*(Ie)
    iff I lies in P, by the ideal-action identity and (a), iff every a of I
    is in P iff every ae <= q, so V*(Ie) is the intersection of the
    V*(ae), as V* is V on ae.  Cover: q is outside V*(n) iff some a in
    (n:e) is not in P, that is q is in X_a; so the complement of V*(n) is
    the union of the X_a over a in (n:e)."""
    return VERIFIED, None, None


@_on_map
def _check_quasi_compact_base(nm: nmap.NaturalMap) -> Outcome:
    """The opens are closed under intersection, as ``build_topologies``
    checks that their complements are closed under union
    (``_validate_family``); they are unions of basic opens (``_check_basis``);
    and a finite space is quasi-compact."""
    spectra.build_topologies(nm.instance)
    return VERIFIED, None, spectra.QUASI_COMPACT_NOTE


def _check_point_sets(mod: LeModuleInstance) -> Outcome:
    """P6.1 and P6.4, which are about every nonempty set Y of points, hold
    on every instance by L2.1's clause (b) (``_check_variety_identities``)
    and P6.2's per-point loop, cl{p} = V*(p), so no set of points is
    scanned.  Let m be the meet of Y.  By the definition of the colon,
    (m:e) = n (p:e) over p in Y.  Let q be a point.  (q:e) is prime, and a
    prime that holds a finite intersection of ideals holds one of them
    (Atiyah-Macdonald 1.11), so q is in V*(m) iff (p:e) lies in (q:e) for
    some p in Y: V*(m) = u V*(p) = u cl{p} = cl Y.  That is P6.1; with it,
    "Y closed iff V*(m) = Y" is the definition of a closed set.  P6.4: if m
    is a point, cl Y = V*(m) = cl{m}, which is irreducible.  If Y is
    irreducible, cl Y = cl{q} for a point q (``_closures``), and q lies in
    cl{p} for some p in Y, so cl{p} = cl Y = V*(p) holds every p' of Y:
    each (p':e) holds (p:e), and (m:e) = (p:e) is prime."""
    return VERIFIED, None, None


def _check_point_closures(mod: LeModuleInstance) -> Outcome:
    """The colon ideal of a point is prime (L2.1), so maximal, as the ring
    is finite: the q whose colon ideal contains (p:e) are p's colon fiber,
    and (p:e) is maximal among the colon ideals.  The T1 clause, "T1 iff
    every colon fiber has one point", is not checked apart: the loop
    requires cl{p} = {p} exactly when p's colon fiber is {p}, T1 is "every
    cl{p} = {p}", and every colon fiber is the fiber of some point."""
    points = spectrum(mod)
    closures = _closures(mod)
    fibers, colons = colon_fibers(mod), colon_sets(mod)
    star = spectra.variety_stars(mod)
    # The points q with one V*(q), as a mask for each distinct V*(q).
    by_star: dict[int, int] = {}
    for k, q in enumerate(points):
        by_star[star[q]] = by_star.get(star[q], 0) | 1 << k
    for k, p in enumerate(points):
        closure = closures[p]
        if closure != star[p]:
            return FALSIFIED, f"p={mod.label(p)}", "closure-formula"
        # The q whose colon ideal contains (p:e), the colon fiber of p, and
        # those with V*(q) inside V*(p), a union of disjoint masks.
        colon_incl = fibers[colons[p]]
        vs_incl = sum(m for s, m in by_star.items() if not s & ~star[p])
        # The first q at which "q in cl{p}", the colon inclusion and the V*
        # inclusion are not all equal.
        bad = (closure ^ colon_incl) | (colon_incl ^ vs_incl)
        if bad:
            q = points[(bad & -bad).bit_length() - 1]
            return FALSIFIED, f"p={mod.label(p)}, q={mod.label(q)}", "specialization"
        if (closure == 1 << k) != (colon_incl.bit_count() == 1):
            return FALSIFIED, f"p={mod.label(p)}", "closed-point-criterion"
    return VERIFIED, None, None


def _check_vstar_irreducible(mod: LeModuleInstance) -> Outcome:
    """P6.2's per-point loop checks V*(p) = cl{p} at every point p, so
    nothing is scanned here.  A closure is closed once the closed sets are
    closed under intersection, which ``build_topologies`` checks
    (``_validate_family``), and a point closure is irreducible: if cl{p}
    lies in the union of two closed sets, p lies in one, which then holds
    cl{p}."""
    spectra.build_topologies(mod)
    return VERIFIED, None, None


def _check_irreducible_families(mod: LeModuleInstance) -> Outcome:
    """P6.5 holds on every instance by L2.1 and P6.2, so nothing is
    scanned.  Colon fibers: P6.2's per-point loop checks that cl{p} is p's
    colon fiber, so a colon fiber F is cl{p} for each p in F: closed and
    irreducible (``_check_vstar_irreducible``).  Every colon fiber is that
    of a maximal ideal, as a point's colon ideal is prime (L2.1), hence
    maximal, the ring being finite.  Chains: for points p <= q, (p:e) lies
    inside (q:e), so cl{q} = V*(q) lies inside V*(p) = cl{p}, and the union
    of the point closures along a chain is the closure of its least point,
    which is irreducible.  Meets: (m:e) is the intersection of the (p:e)
    over p in Y, so a prime (m:e) holds some (p:e) (Atiyah-Macdonald 1.11),
    and lies inside it, as m <= p.  So (m:e) = (p:e) lies in every (p':e),
    p' in Y, and cl Y = V*(m) = cl{p} (``_check_point_sets``), which is
    irreducible."""
    spectra.build_topologies(mod)
    return VERIFIED, None, None


@_on_map
def _check_generic_points(nm: nmap.NaturalMap) -> Outcome:
    if nmap.component_minimal_prime_bijection(nm):
        comps = spectra.irreducible_components(spectra.build_topologies(nm.instance).star)
        return VERIFIED, None, f"components={len(comps)}"
    return FALSIFIED, "component/minimal-prime correspondence", None


@_on_map
def _check_spectral_battery(nm: nmap.NaturalMap) -> Outcome:
    rep = nmap.spectral_battery(nm)
    if rep.equivalent:
        return VERIFIED, None, _fmt_clauses(rep)
    return FALSIFIED, _fmt_clauses(rep), None


@_on_map
def _check_multiplication_spectral(nm: nmap.NaturalMap) -> Outcome:
    # The map is onto, so only the multiplication hypothesis can fail.
    if not nmap.is_multiplication_le_module(nm.instance):
        return HYPOTHESIS_NOT_MET, None, "multiplication=False surjective=True"
    if nmap.spectral_battery(nm)["spectral"]:
        return VERIFIED, None, None
    return FALSIFIED, "spectrum not spectral", None


@_on_map
def _check_image_closed(nm: nmap.NaturalMap) -> Outcome:
    """The image of psi is the whole ring spectrum (``build_natural_map``),
    which is closed, so the criterion compares T7.1's "spectral" and
    "psi-injective" clauses."""
    rep = nmap.spectral_battery(nm)
    spectral, injective = rep["spectral"], rep["psi-injective"]
    clauses = f"spectral={spectral} injective={injective}"
    if spectral == injective:
        return VERIFIED, None, clauses
    return FALSIFIED, clauses, None


def _check_finite_spec(mod: LeModuleInstance) -> Outcome:
    """T7.1's "spectral" against its "colon-fibers-at-most-one".  As psi is
    onto, the spectrum is empty exactly when the module is degenerate."""
    nm = nmap.build_natural_map(mod)
    if nm.degenerate:
        return HYPOTHESIS_NOT_MET, None, "empty spectrum"
    rep = nmap.spectral_battery(nm)
    spectral, small = rep["spectral"], rep["colon-fibers-at-most-one"]
    if spectral == small:
        return VERIFIED, None, None
    return FALSIFIED, f"spectral={spectral} colon-fibers-at-most-one={small}", None


@record
class Statement:
    sid: str
    title: str
    claim: str
    check: Callable[[LeModuleInstance], Outcome]


# The claims keep the paper's hypotheses "onto psi" (T4.3, T4.5, P5.1, T5.4,
# T6.6, T7.1, T7.2) and "closed image" (T7.3).  Both hold on every module
# with a reduced ring, by the lemma in ``natural_map.build_natural_map``, so
# those checks test the conclusions alone.  P4.2, T7.1, T7.2, T7.3 and T7.4
# read one spectrality battery per map (``natural_map.spectral_battery``).
STATEMENTS: tuple[Statement, ...] = (
    Statement(
        "L2.1",
        "ideal-action adjunction",
        "Ie <= n iff I inside (n:e); (p:e) is prime for every spectrum point p",
        _check_adjunction,
    ),
    Statement(
        "P3.1",
        "variety identities",
        "V*(0)=X=V(0); V*(e)=0=V(e); intersections via sums; unions via meets; "
        "colon-equality transfer; V*(n)=V*((n:e)e)=V((n:e)e); V(Ie)=V*(Ie)",
        _check_variety_identities,
    ),
    Statement(
        "T3.5",
        "closed-set families coincide",
        "colon-variety family equals ideal-action family; both union/intersection "
        "stable; plain family finer when union-closed",
        _check_families_identical,
    ),
    Statement(
        "P4.1",
        "natural map continuity",
        "preimage of ring variety of I-bar equals variety of Ie for I containing Ann",
        _check_continuity,
    ),
    Statement(
        "P4.2",
        "injectivity battery",
        "psi injective iff colon varieties separate points iff colon fibers small",
        _check_injectivity,
    ),
    Statement(
        "T4.3",
        "open and closed images",
        "onto psi maps colon varieties onto ring varieties and complements onto "
        "complements; bijective iff homeomorphism",
        _check_openclosed,
    ),
    Statement(
        "T4.5",
        "connectedness equivalence",
        "onto psi: module spectrum connected iff ring spectrum connected iff "
        "idempotents trivial; quasi-local or prime annihilator forces connected",
        _check_connectedness,
    ),
    Statement(
        "P5.1",
        "basic-open preimages",
        "preimage of D_rbar equals X_r; image of X_r inside D_rbar, equal when onto",
        _check_dr,
    ),
    Statement(
        "T5.3",
        "basic opens form a base",
        "X_rs = X_r n X_s; V*(Ie) equals the intersection of V*(ae); every open "
        "set is a union of basic opens",
        _check_basis,
    ),
    Statement(
        "T5.4",
        "quasi-compact base",
        "onto psi: each X_r and the whole space quasi-compact; quasi-compact opens "
        "intersection-stable and a base",
        _check_quasi_compact_base,
    ),
    Statement(
        "P6.1",
        "closure formula",
        "closure of Y is V*(meet of Y); Y closed iff V*(meet of Y) = Y",
        _check_point_sets,
    ),
    Statement(
        "P6.2",
        "point closures and T1",
        "closure{p}=V*(p); specialization via colon inclusion; closed points and "
        "T1 via maximal colon plus singleton fibers",
        _check_point_closures,
    ),
    Statement(
        "C6.3",
        "point varieties irreducible",
        "V*(p) is an irreducible closed set for every point p",
        _check_vstar_irreducible,
    ),
    Statement(
        "P6.4",
        "irreducibility vs primality",
        "prime meet forces irreducible; irreducible forces prime colon of meet",
        _check_point_sets,
    ),
    Statement(
        "P6.5",
        "irreducible families",
        "chains irreducible; colon fibers irreducible, closed for maximal ideals; "
        "prime colon of meet with nonempty fiber forces irreducible",
        _check_irreducible_families,
    ),
    Statement(
        "T6.6",
        "generic points and components",
        "onto psi: irreducible closed sets are point varieties with generic "
        "points; components match minimal primes bijectively",
        _check_generic_points,
    ),
    Statement(
        "T7.1",
        "spectrality battery",
        "onto psi: spectral iff T0 iff separated iff small fibers iff injective "
        "iff homeomorphic",
        _check_spectral_battery,
    ),
    Statement(
        "T7.2",
        "multiplication instances spectral",
        "multiplication instance with onto psi has a spectral spectrum",
        _check_multiplication_spectral,
    ),
    Statement(
        "T7.3",
        "closed-image criterion",
        "closed image: spectral iff injective",
        _check_image_closed,
    ),
    Statement(
        "T7.4",
        "finite-spectrum criterion",
        "nonempty finite spectrum: spectral iff every colon fiber has at most one point",
        _check_finite_spec,
    ),
)


@record
class StatementResult:
    statement: str
    instance: str
    verdict: str
    witness: str | None
    detail: str | None
    seconds: float


@record
class VerificationReport:
    results: tuple[StatementResult, ...]

    def counts(self) -> dict[str, int]:
        out = {VERIFIED: 0, FALSIFIED: 0, HYPOTHESIS_NOT_MET: 0, NOT_APPLICABLE: 0}
        for r in self.results:
            out[r.verdict] += 1
        return out

    def falsified(self) -> tuple[StatementResult, ...]:
        return tuple(r for r in self.results if r.verdict == FALSIFIED)

    def for_statement(self, sid: str) -> tuple[StatementResult, ...]:
        return tuple(r for r in self.results if r.statement == sid)


def run_all(descriptors: Sequence[InstanceDescriptor] | None = None) -> VerificationReport:
    """Check every statement on every instance, catalog by default."""
    if descriptors is None:
        descriptors = catalog()
    results = []
    for desc in descriptors:
        mod = build_instance(desc)
        for stmt in STATEMENTS:
            started = time.perf_counter()
            verdict, witness, detail = stmt.check(mod)
            elapsed = time.perf_counter() - started
            results.append(
                StatementResult(stmt.sid, desc.name, verdict, witness, detail, elapsed)
            )
        release(mod, mod.ring, nmap.build_natural_map(mod).quotient)
    return VerificationReport(tuple(results))


# The statements never change, so their block is encoded once.
_STATEMENTS_JSON = "[" + ",".join(
    f"""
    {{
      "claim": {json_string(s.claim)},
      "id": {json_string(s.sid)},
      "title": {json_string(s.title)}
    }}"""
    for s in STATEMENTS
) + "\n  ]"


def serialize_report(report: VerificationReport) -> str:
    """Deterministic JSON; timing is deliberately omitted.

    The bytes are those of ``json.dumps(payload, sort_keys=True, indent=2)``
    and a newline, for the payload of ``statements`` (id, title, claim),
    ``results`` (statement, instance, verdict, witness, detail) and
    ``summary`` (the counts), written from a fixed template.
    """
    results = ",".join(
        f"""
    {{
      "detail": {'null' if r.detail is None else json_string(r.detail)},
      "instance": {json_string(r.instance)},
      "statement": {json_string(r.statement)},
      "verdict": {json_string(r.verdict)},
      "witness": {'null' if r.witness is None else json_string(r.witness)}
    }}"""
        for r in report.results
    )
    results = f"[{results}\n  ]" if results else "[]"
    summary = ",\n".join(f"    {json_string(k)}: {v}" for k, v in sorted(report.counts().items()))
    return (
        f'{{\n  "results": {results},\n  "statements": {_STATEMENTS_JSON},\n'
        f'  "summary": {{\n{summary}\n  }}\n}}\n'
    )


def render_text(report: VerificationReport) -> str:
    lines = []
    width = max((len(r.instance) for r in report.results), default=0)
    for r in report.results:
        line = f"{r.instance:<{width}}  {r.statement:<5} {r.verdict}"
        if r.witness:
            line += f"  witness: {r.witness}"
        if r.detail:
            line += f"  [{r.detail}]"
        lines.append(line)
    counts = report.counts()
    lines.append("")
    lines.append(
        "summary: "
        + " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    )
    return "\n".join(lines) + "\n"

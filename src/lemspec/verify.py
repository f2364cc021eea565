"""Statement-by-statement verification over concrete instances.

Each registered statement is checked on each instance and classified as
verified, falsified (with the first counterexample in scan order),
hypothesis-not-met, or not-applicable.  Serialization omits timing so
repeated runs are byte-identical.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from . import natural_map as nmap
from . import spectra
from .errors import EmptySpectrum
from .instances import InstanceDescriptor, build_instance, catalog
from .memo import release
from .le_modules import (
    LeModuleInstance,
    colon,
    colon_fibers,
    colon_set,
    galois_adjunction_check,
    ideal_action,
    is_prime_submodule_element,
    spectrum,
    submodule_elements,
    sum_submodule_elements,
)
from .rings import all_ideals, is_prime_ideal

VERIFIED = "verified"
FALSIFIED = "falsified"
HYPOTHESIS_NOT_MET = "hypothesis-not-met"
NOT_APPLICABLE = "not-applicable"

Outcome = tuple[str, str | None, str | None]


def _subsets(items: tuple[int, ...], cap: int) -> tuple[tuple[int, ...], ...]:
    """Nonempty subsets of items; above cap only those of size 1, 2, 3 and all."""
    if len(items) > cap:
        sizes: Iterable[int] = (1, 2, 3, len(items))
    else:
        sizes = range(1, len(items) + 1)
    return tuple(c for k in sizes for c in itertools.combinations(items, k))


def point_subsets(mod: LeModuleInstance, cap: int = 12) -> tuple[tuple[int, ...], ...]:
    return _subsets(spectrum(mod), cap)


def submod_families(mod: LeModuleInstance, cap: int = 10) -> tuple[tuple[int, ...], ...]:
    return _subsets(submodule_elements(mod), cap)


def _coverage(scanned: tuple, items: tuple, what: str) -> str | None:
    """None for a scan of every nonempty subset, else how much was scanned."""
    total = 2 ** len(items) - 1
    if len(scanned) == total:
        return None
    return f"sampled: {len(scanned)} of {total} {what}"


def _fmt_clauses(report: nmap.EquivalenceReport) -> str:
    return " ".join(
        f"{name}={value}" for name, value in zip(report.names, report.values)
    )


def _check_adjunction(mod: LeModuleInstance) -> Outcome:
    ideals, submods = all_ideals(mod.ring), submodule_elements(mod)
    for i in ideals:
        for n in submods:
            if not galois_adjunction_check(mod, i, n):
                return (
                    FALSIFIED,
                    f"I={i.sorted_members()}, n={mod.label(n)}",
                    None,
                )
    for p in spectrum(mod):
        if not is_prime_ideal(mod.ring, colon(mod, p)):
            return FALSIFIED, f"p={mod.label(p)}", None
    return VERIFIED, None, f"ideals={len(ideals)} submods={len(submods)}"


def _check_variety_identities(mod: LeModuleInstance) -> Outcome:
    pts = frozenset(spectrum(mod))
    v, vs = spectra.variety, spectra.variety_star
    if not (vs(mod, mod.zero_m) == pts == v(mod, mod.zero_m)):
        return FALSIFIED, "n=0_M", None
    top = mod.lattice.top
    if not (vs(mod, top) == frozenset() == v(mod, top)):
        return FALSIFIED, "n=e", None
    families = submod_families(mod)
    for fam in families:
        inter_star = pts
        inter_plain = pts
        for n in fam:
            inter_star &= vs(mod, n)
            inter_plain &= v(mod, n)
        colon_sum = sum_submodule_elements(
            mod, [ideal_action(mod, colon(mod, n)) for n in fam]
        )
        if inter_star != vs(mod, colon_sum):
            return FALSIFIED, f"family={[mod.label(n) for n in fam]}", "colon-sum"
        if inter_plain != v(mod, sum_submodule_elements(mod, fam)):
            return FALSIFIED, f"family={[mod.label(n) for n in fam]}", "plain-sum"
    meet = mod.lattice.meet_table
    for n, l in itertools.combinations_with_replacement(submodule_elements(mod), 2):
        if vs(mod, n) | vs(mod, l) != vs(mod, meet[n][l]):
            return FALSIFIED, f"n={mod.label(n)}, l={mod.label(l)}", "star-union"
        if not (v(mod, n) | v(mod, l)) <= v(mod, meet[n][l]):
            return FALSIFIED, f"n={mod.label(n)}, l={mod.label(l)}", "plain-union"
        same_colon = colon_set(mod, n) == colon_set(mod, l)
        if same_colon and vs(mod, n) != vs(mod, l):
            return FALSIFIED, f"n={mod.label(n)}, l={mod.label(l)}", "colon-transfer"
        both_prime = is_prime_submodule_element(mod, n) and is_prime_submodule_element(
            mod, l
        )
        if both_prime and vs(mod, n) == vs(mod, l) and not same_colon:
            return FALSIFIED, f"n={mod.label(n)}, l={mod.label(l)}", "prime-converse"
    for n in submodule_elements(mod):
        if not spectra.vstar_decomposition_check(mod, n):
            return FALSIFIED, f"n={mod.label(n)}", "decomposition"
    for i in all_ideals(mod.ring):
        ie = ideal_action(mod, i)
        if v(mod, ie) != vs(mod, ie):
            return FALSIFIED, f"I={i.sorted_members()}", "ideal-action-variety"
    for r in range(mod.ring.order):
        re = mod.action[r][top]
        if v(mod, re) != vs(mod, re):
            return FALSIFIED, f"r={r}", "scalar-action-variety"
    return VERIFIED, None, _coverage(families, submodule_elements(mod), "submodule families")


def _check_families_identical(mod: LeModuleInstance) -> Outcome:
    if spectra.star_family(mod) != spectra.prime_family(mod):
        return FALSIFIED, "closed-set families differ", None
    for i, j in itertools.combinations_with_replacement(all_ideals(mod.ring), 2):
        if not spectra.union_intersection_check(mod, i, j):
            return (
                FALSIFIED,
                f"I={i.sorted_members()}, J={j.sorted_members()}",
                None,
            )
    top = mod.lattice.top
    vs = spectra.variety_star
    for r, s in itertools.combinations_with_replacement(range(mod.ring.order), 2):
        re, se = mod.action[r][top], mod.action[s][top]
        rse = mod.action[mod.ring.mul[r][s]][top]
        if vs(mod, re) | vs(mod, se) != vs(mod, rse):
            return FALSIFIED, f"r={r}, s={s}", "scalar-union"
    is_top = spectra.is_top_le_module(mod)
    if is_top:
        if not set(spectra.star_family(mod)) <= set(spectra.quasi_family(mod)):
            return FALSIFIED, "star family not inside quasi family", None
        return VERIFIED, None, "top instance: finer-topology clause checked"
    return VERIFIED, None, "not a top instance: finer-topology clause vacuous"


def _check_continuity(mod: LeModuleInstance) -> Outcome:
    nm = nmap.build_natural_map(mod)
    if nm.degenerate:
        return NOT_APPLICABLE, None, "degenerate: no reduced ring"
    if nmap.continuity_check(nm):
        return VERIFIED, None, None
    return FALSIFIED, "preimage identity failed", None


def _check_injectivity(mod: LeModuleInstance) -> Outcome:
    nm = nmap.build_natural_map(mod)
    if nm.degenerate:
        return NOT_APPLICABLE, None, "degenerate: no reduced ring"
    rep = nmap.injectivity_battery(nm)
    if rep.equivalent:
        return VERIFIED, None, _fmt_clauses(rep)
    return FALSIFIED, _fmt_clauses(rep), None


def _check_openclosed(mod: LeModuleInstance) -> Outcome:
    nm = nmap.build_natural_map(mod)
    if nm.degenerate:
        return NOT_APPLICABLE, None, "degenerate: no reduced ring"
    if not nmap.homeomorphism_check(nm):
        return FALSIFIED, "bijective but not a homeomorphism", None
    rep = nmap.surjectivity_and_openclosed(nm)
    if not rep.surjective:
        return (
            HYPOTHESIS_NOT_MET,
            None,
            "psi not surjective; bijective<->homeomorphism clause checked",
        )
    if rep.ok:
        return VERIFIED, None, None
    return (
        FALSIFIED,
        f"closed_image_ok={rep.closed_image_ok} open_image_ok={rep.open_image_ok}",
        None,
    )


def _check_connectedness(mod: LeModuleInstance) -> Outcome:
    nm = nmap.build_natural_map(mod)
    if nm.degenerate:
        return NOT_APPLICABLE, None, "degenerate: no reduced ring"
    rep = nmap.connectedness_equivalence(nm)
    if not rep.hypothesis_met:
        return HYPOTHESIS_NOT_MET, None, "psi not surjective"
    if rep.ok:
        return VERIFIED, None, _fmt_clauses(rep.clauses)
    return FALSIFIED, _fmt_clauses(rep.clauses), None


def _check_dr(mod: LeModuleInstance) -> Outcome:
    nm = nmap.build_natural_map(mod)
    if nm.degenerate:
        return NOT_APPLICABLE, None, "degenerate: no reduced ring"
    for r in range(mod.ring.order):
        if not nmap.dr_preimage_check(nm, r):
            return FALSIFIED, f"r={r}", None
    return VERIFIED, None, None


def _check_basis(mod: LeModuleInstance) -> Outcome:
    rep = spectra.basis_checks(mod)
    if rep.ok:
        return VERIFIED, None, None
    witness = rep.pair_witness or rep.ideal_witness or rep.cover_witness
    return FALSIFIED, str(witness), None


def _check_quasi_compact_base(mod: LeModuleInstance) -> Outcome:
    nm = nmap.build_natural_map(mod)
    if nm.degenerate:
        return NOT_APPLICABLE, None, "degenerate: no reduced ring"
    if not nm.is_surjective():
        return HYPOTHESIS_NOT_MET, None, "psi not surjective"
    opens = set(spectra.open_sets(spectra.build_topologies(mod).star))
    for a, b in itertools.combinations_with_replacement(sorted(opens, key=sorted), 2):
        if a & b not in opens:
            return FALSIFIED, "intersection not open", None
    if not spectra.basis_checks(mod).covers_ok:
        return FALSIFIED, "basic opens do not cover", None
    return VERIFIED, None, spectra.QUASI_COMPACT_NOTE


def _check_closure_formula(mod: LeModuleInstance) -> Outcome:
    top = spectra.build_topologies(mod).star
    closed = set(top.closed_sets)
    subsets = point_subsets(mod)
    for ys in subsets:
        y = frozenset(ys)
        vs = spectra.variety_star(mod, spectra.im_meet(mod, ys))
        if vs != spectra.closure(top, y):
            return FALSIFIED, f"Y={[mod.label(p) for p in ys]}", None
        if (y in closed) != (vs == y):
            return FALSIFIED, f"Y={[mod.label(p) for p in ys]}", "closed-iff"
    return VERIFIED, None, _coverage(subsets, spectrum(mod), "point subsets")


def _check_point_closures(mod: LeModuleInstance) -> Outcome:
    top = spectra.build_topologies(mod).star
    family = set(top.closed_sets)
    points = spectrum(mod)
    colons = {p: colon_set(mod, p) for p in points}
    fibers = colon_fibers(mod)
    for p in points:
        if spectra.closure(top, [p]) != spectra.variety_star(mod, p):
            return FALSIFIED, f"p={mod.label(p)}", "closure-formula"
        for q in points:
            in_closure = q in spectra.closure(top, [p])
            colon_incl = colons[p] <= colons[q]
            vs_incl = spectra.variety_star(mod, q) <= spectra.variety_star(mod, p)
            if not (in_closure == colon_incl == vs_incl):
                return FALSIFIED, f"p={mod.label(p)}, q={mod.label(q)}", "specialization"
        singleton_closed = frozenset([p]) in family
        maximal = not any(colons[p] < c for c in fibers)
        fiber_one = len(fibers[colons[p]]) == 1
        if singleton_closed != (maximal and fiber_one):
            return FALSIFIED, f"p={mod.label(p)}", "closed-point-criterion"
    if not spectra.phi_and_t1_check(mod):
        return FALSIFIED, "T1 criterion", None
    return VERIFIED, None, None


def _check_vstar_irreducible(mod: LeModuleInstance) -> Outcome:
    top = spectra.build_topologies(mod).star
    for p in spectrum(mod):
        vp = spectra.variety_star(mod, p)
        if not spectra.is_closed(top, vp):
            return FALSIFIED, f"p={mod.label(p)}", "not closed"
        if not spectra.is_irreducible(top, vp):
            return FALSIFIED, f"p={mod.label(p)}", "not irreducible"
    return VERIFIED, None, None


def _criteria_outcome(mod: LeModuleInstance, wanted: tuple[str, ...]) -> Outcome:
    subsets = point_subsets(mod)
    for ys in subsets:
        for check in spectra.irreducibility_criteria(mod, ys):
            if check.name in wanted and not check.holds:
                return (
                    FALSIFIED,
                    f"Y={[mod.label(p) for p in ys]}",
                    check.name,
                )
    return VERIFIED, None, _coverage(subsets, spectrum(mod), "point subsets")


def _check_irreducible_prime(mod: LeModuleInstance) -> Outcome:
    return _criteria_outcome(
        mod,
        ("meet-prime-implies-irreducible", "irreducible-implies-colon-of-meet-prime"),
    )


def _check_irreducible_families(mod: LeModuleInstance) -> Outcome:
    return _criteria_outcome(
        mod,
        (
            "chain-implies-irreducible",
            "colon-fiber-implies-irreducible",
            "colon-fiber-of-maximal-ideal-closed-irreducible",
            "prime-colon-meet-with-nonempty-fiber-implies-irreducible",
        ),
    )


def _check_generic_points(mod: LeModuleInstance) -> Outcome:
    nm = nmap.build_natural_map(mod)
    if nm.degenerate:
        return NOT_APPLICABLE, None, "degenerate: no reduced ring"
    if not nm.is_surjective():
        return HYPOTHESIS_NOT_MET, None, "psi not surjective"
    if nmap.component_minimal_prime_bijection(nm):
        comps = spectra.irreducible_components(spectra.build_topologies(mod).star)
        return VERIFIED, None, f"components={len(comps)}"
    return FALSIFIED, "component/minimal-prime correspondence", None


def _check_spectral_battery(mod: LeModuleInstance) -> Outcome:
    nm = nmap.build_natural_map(mod)
    if nm.degenerate:
        return NOT_APPLICABLE, None, "degenerate: no reduced ring"
    if not nm.is_surjective():
        return HYPOTHESIS_NOT_MET, None, "psi not surjective"
    rep = nmap.spectral_battery(nm)
    if rep.equivalent:
        return VERIFIED, None, _fmt_clauses(rep)
    return FALSIFIED, _fmt_clauses(rep), None


def _check_multiplication_spectral(mod: LeModuleInstance) -> Outcome:
    nm = nmap.build_natural_map(mod)
    if nm.degenerate:
        return NOT_APPLICABLE, None, "degenerate: no reduced ring"
    mult = nmap.is_multiplication_le_module(mod)
    surj = nm.is_surjective()
    if not (mult and surj):
        return (
            HYPOTHESIS_NOT_MET,
            None,
            f"multiplication={mult} surjective={surj}",
        )
    if nmap.multiplication_spectral_check(nm):
        return VERIFIED, None, None
    return FALSIFIED, "spectrum not spectral", None


def _check_image_closed(mod: LeModuleInstance) -> Outcome:
    nm = nmap.build_natural_map(mod)
    if nm.degenerate:
        return NOT_APPLICABLE, None, "degenerate: no reduced ring"
    rep = nmap.image_closed_criterion(nm)
    if not rep.image_closed:
        return HYPOTHESIS_NOT_MET, None, "image not closed"
    if rep.ok:
        return VERIFIED, None, f"spectral={rep.spectral} injective={rep.injective}"
    return FALSIFIED, f"spectral={rep.spectral} injective={rep.injective}", None


def _check_finite_spec(mod: LeModuleInstance) -> Outcome:
    try:
        ok = nmap.finite_spec_criterion(mod)
    except EmptySpectrum:
        return HYPOTHESIS_NOT_MET, None, "empty spectrum"
    if ok:
        return VERIFIED, None, None
    return FALSIFIED, "spectral<->small-fibers failed", None


@dataclass(frozen=True)
class Statement:
    sid: str
    title: str
    claim: str
    check: Callable[[LeModuleInstance], Outcome]


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
        _check_closure_formula,
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
        _check_irreducible_prime,
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


@dataclass(frozen=True)
class StatementResult:
    statement: str
    instance: str
    verdict: str
    witness: str | None
    detail: str | None
    seconds: float


@dataclass(frozen=True)
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


def serialize_report(report: VerificationReport) -> str:
    """Deterministic JSON; timing is deliberately omitted."""
    payload = {
        "statements": [
            {"id": s.sid, "title": s.title, "claim": s.claim} for s in STATEMENTS
        ],
        "results": [
            {
                "statement": r.statement,
                "instance": r.instance,
                "verdict": r.verdict,
                "witness": r.witness,
                "detail": r.detail,
            }
            for r in report.results
        ],
        "summary": report.counts(),
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


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

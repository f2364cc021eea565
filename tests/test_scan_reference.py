"""The clauses that ``verify`` leaves to an argument, against brute force.

``verify`` leaves P3.1 to the definitions and L2.1, T3.5's family clauses
and T5.3 to L2.1, P6.1, P6.4 and P6.5 to L2.1 and P6.2, and P4.1, P5.1 and
T4.3 to L2.1 and the onto lemma, so it scans no family, no set of points,
no pair of submodule elements and no preimage or image under psi.  The
references here list every nonempty subset of points or of submodule
elements instead, so they run only where 2^k subsets are few.  They keep
their point sets as frozensets (``frozenset_reference``) and call no
``spectra`` code.  The clauses about Ie and re are checked here too,
through these references and the per-scalar and per-ideal-pair loops of
``test_scalar_class_reference`` and ``test_ideal_index_reference``.  The
instances are the catalog, the ladders, two odd modules and the census of
every le-module on a lattice of at most six elements (``census``).
"""

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

import pytest
from census import census
from frozenset_reference import MapSets, ModuleSets, colon_set
from shared_instances import ANNIHILATED, DESCRIPTORS, _ladder_instances
from test_ideal_index_reference import ref_ideal_pair
from test_scalar_class_reference import (
    EXTRA,
    ref_basis_witnesses,
    ref_scalar_action_variety,
    ref_scalar_union,
)

from lemspec import spectra, verify
from lemspec.errors import EmptyFamily
from lemspec.instances import (
    build_instance,
    catalog,
    mod_scaled_cyclic_tables,
    submodule_lattice_le_module,
)
from lemspec.lattices import generated, join_all, make_lattice, meet_all
from lemspec.le_modules import (
    LeModuleInstance,
    colon,
    ideal_action,
    ideal_actions,
    make_le_module,
    spectrum,
    submodule_elements,
    sum_submodule_elements,
)
from lemspec.memo import release
from lemspec.natural_map import build_natural_map
from lemspec.rings import all_ideals, is_prime_ideal, make_zn, spec_ring

SUBSET_STATEMENTS = ("P3.1", "P6.1", "P6.4", "P6.5")


def _subsets(items: tuple[int, ...]) -> list[tuple[int, ...]]:
    return [c for k in range(1, len(items) + 1) for c in itertools.combinations(items, k)]


@dataclass(frozen=True)
class ImplicationCheck:
    name: str
    hypothesis: bool
    conclusion: bool

    @property
    def holds(self) -> bool:
        return (not self.hypothesis) or self.conclusion


def irreducibility_criteria(
    ref: ModuleSets, y: Iterable[int]
) -> tuple[ImplicationCheck, ...]:
    """Evaluate each sufficient or necessary condition for y irreducible."""
    mod = ref.mod
    target = frozenset(y)
    if not target:
        raise EmptyFamily("criteria are undefined for the empty set")
    irr = ref.is_irreducible(target)
    meet = meet_all(mod.lattice, target)
    meet_colon = colon_set(mod, meet)
    colon_prime = is_prime_ideal(mod.ring, meet_colon)
    lat = mod.lattice
    chain = all(
        lat.leq[a][b] or lat.leq[b][a] for a, b in itertools.combinations(target, 2)
    )
    fibers = ref.fibers
    fiber_primes = [pr for pr in spec_ring(mod.ring).points if fibers.get(pr.members) == target]
    is_fiber = bool(fiber_primes)
    fiber_maximal = any(
        not any(pr.members < i.members for i in all_ideals(mod.ring) if i.is_proper())
        for pr in fiber_primes
    )
    witness_fiber = colon_prime and meet_colon in fibers
    return (
        ImplicationCheck(
            "meet-prime-implies-irreducible",
            meet in spectrum(mod),
            irr,
        ),
        ImplicationCheck("irreducible-implies-colon-of-meet-prime", irr, colon_prime),
        ImplicationCheck("chain-implies-irreducible", chain, irr),
        ImplicationCheck("colon-fiber-implies-irreducible", is_fiber, irr),
        ImplicationCheck(
            "colon-fiber-of-maximal-ideal-closed-irreducible",
            is_fiber and fiber_maximal,
            irr and ref.is_closed(target),
        ),
        ImplicationCheck(
            "prime-colon-meet-with-nonempty-fiber-implies-irreducible",
            colon_prime and witness_fiber,
            irr,
        ),
    )


CRITERIA = {
    "P6.4": (
        "meet-prime-implies-irreducible",
        "irreducible-implies-colon-of-meet-prime",
    ),
    "P6.5": (
        "chain-implies-irreducible",
        "colon-fiber-implies-irreducible",
        "colon-fiber-of-maximal-ideal-closed-irreducible",
        "prime-colon-meet-with-nonempty-fiber-implies-irreducible",
    ),
}


def family_states(ref: ModuleSets) -> Iterator[tuple[tuple[int, ...], tuple]]:
    """Each nonempty family of submodule elements with its state (n V*(n),
    n V(n), sum of (n:e)e, sum of n), straight from the family.

    c_n = (n:e)e is computed once per n, and the sum of the c_n once per
    distinct set of them, as a sum reads only the set of its family.
    """
    mod = ref.mod
    submods = submodule_elements(mod)
    c = {n: ideal_action(mod, colon(mod, n)) for n in submods}
    colon_sums: dict[frozenset[int], int] = {}
    for fam in _subsets(submods):
        inter_star = inter_plain = frozenset(ref.points)
        for n in fam:
            inter_star &= ref.vs[n]
            inter_plain &= ref.v[n]
        cs = frozenset(map(c.__getitem__, fam))
        if cs not in colon_sums:
            colon_sums[cs] = sum_submodule_elements(mod, cs)
        yield fam, (inter_star, inter_plain, colon_sums[cs], sum_submodule_elements(mod, fam))


def point_state(ref: ModuleSets, ys: tuple[int, ...]) -> tuple:
    """(meet of Y, closure of Y), the closure as the least closed superset."""
    return meet_all(ref.mod.lattice, ys), ref.closure(ys)


def _is_chain(mod: LeModuleInstance, ys: tuple[int, ...]) -> bool:
    leq = mod.lattice.leq
    return all(leq[a][b] or leq[b][a] for a, b in itertools.combinations(ys, 2))


def _failing_family(ref: ModuleSets) -> tuple[int, ...] | None:
    """The first family that breaks a sum clause of P3.1, or None."""
    for fam, (inter_star, inter_plain, colon_sum, plain_sum) in family_states(ref):
        if inter_star != ref.vs[colon_sum] or inter_plain != ref.v[plain_sum]:
            return fam
    return None


def _closure_fails(ref: ModuleSets, ys: tuple[int, ...]) -> bool:
    y = frozenset(ys)
    vs = ref.vs[meet_all(ref.mod.lattice, ys)]
    return vs != ref.closure(y) or ref.is_closed(y) != (vs == y)


def point_set_fails(ref: ModuleSets, ys: tuple[int, ...]) -> bool:
    """Whether Y breaks P6.1's closure formula or a criterion of P6.4 or P6.5."""
    names = CRITERIA["P6.4"] + CRITERIA["P6.5"]
    return _closure_fails(ref, ys) or any(
        check.name in names and not check.holds for check in irreducibility_criteria(ref, ys)
    )


def reference_verdict(mod: LeModuleInstance, sid: str) -> str:
    """The verdict of a subset statement's subset clauses, subset by subset."""
    ref = ModuleSets(mod)
    if sid == "P3.1":
        failed = _failing_family(ref) is not None
    elif sid == "P6.1":
        failed = any(_closure_fails(ref, ys) for ys in _subsets(spectrum(mod)))
    else:
        failed = any(
            check.name in CRITERIA[sid] and not check.holds
            for ys in _subsets(spectrum(mod))
            for check in irreducibility_criteria(ref, ys)
        )
    return verify.FALSIFIED if failed else verify.VERIFIED


def _z2_over_z4() -> LeModuleInstance:
    return submodule_lattice_le_module(
        make_zn(4), *mod_scaled_cyclic_tables(2, 4), "Z2-over-Z4"
    )


def _sum_above_join() -> LeModuleInstance:
    """0 < a, b < c < 1 over Z2 with a + b = 1: a sum that is not the join."""
    up = {0: {0, 1, 2, 3, 4}, 1: {1, 3, 4}, 2: {2, 3, 4}, 3: {3, 4}, 4: {4}}
    lattice = make_lattice(5, [[b in up[a] for b in range(5)] for a in range(5)])
    add = [[4] * 5 for _ in range(5)]
    for x in range(5):
        add[0][x] = add[x][0] = x
    add[1][1], add[2][2] = 1, 2
    action = [[0] * 5, list(range(5))]
    return make_le_module(make_zn(2), lattice, add, 0, action, "sum-above-join")


@pytest.fixture(scope="module")
def instances():
    extra = [_z2_over_z4(), _sum_above_join()]
    mods = [build_instance(d) for d in catalog()] + _ladder_instances() + extra + [*census()]
    yield mods
    for mod in mods:
        release(mod)


def _small(mods, points: int, submods: int):
    return [
        mod
        for mod in mods
        if len(spectrum(mod)) <= points and len(submodule_elements(mod)) <= submods
    ]


def test_verdicts_match_the_subset_by_subset_scan(instances):
    checks = {s.sid: s.check for s in verify.STATEMENTS}
    small = _small(instances, 12, 10)
    # The catalog, six ladder instances, two more and the census.
    assert len(small) == 16 + 6 + 2 + 5177
    for mod in small:
        for sid in SUBSET_STATEMENTS:
            verdict, _, detail = checks[sid](mod)
            assert verdict == reference_verdict(mod, sid), (mod.name, sid)
            assert detail is None, (mod.name, sid)


def test_no_family_breaks_a_sum_clause_on_any_instance(instances):
    # P3.1 leaves n V(n_i) = V(sum n_i) and n V*(n_i) = V*(sum (n_i:e)e) to
    # the definitions (``verify._check_variety_identities``).  The argument
    # uses S, not that + is the join: in three-chain-over-Z2, 1 + 1 = e lies
    # above 1, and in sum-above-join, a + b = e lies above a v b = c.
    small = {mod.name: mod for mod in _small(instances, 16, 16)}
    odd = small["sum-above-join"]
    assert odd.add[1][2] == 4 != odd.lattice.join(1, 2) == 3
    assert {1, 2} <= set(submodule_elements(odd))
    chain = small["three-chain-over-Z2"]
    assert chain.add[1][1] == 2 != chain.lattice.join(1, 1)
    for mod in small.values():
        assert _failing_family(ModuleSets(mod)) is None, mod.name


def ref_sum_submodule_elements(mod: LeModuleInstance, family: tuple[int, ...]) -> int:
    """The join of every finite sum from the family, as a closure: the
    family closed under adding one more member, then joined."""
    add = mod.add
    return join_all(mod.lattice, generated({a: a for a in family}, lambda a, b: add[a][b]))


def test_sum_fixed_point_matches_the_sum_closure(instances):
    # ``sum_submodule_elements`` doubles the join of the family until it
    # stops; the closure adds one member at a time.  Every family of at most
    # three lattice elements, submodule elements or not.
    more = [build_instance(d) for d in EXTRA]
    for mod in [*instances, *more]:
        for k in (1, 2, 3):
            for fam in itertools.combinations(range(mod.lattice.size), k):
                want = ref_sum_submodule_elements(mod, fam)
                assert sum_submodule_elements(mod, fam) == want, (mod.name, fam)
    for mod in more:
        release(mod, mod.ring)


def test_no_psi_clause_fails_on_any_instance(instances):
    # P4.1, P5.1 and T4.3 follow from L2.1 and the onto lemma
    # (``verify._check_continuity``, ``_check_dr`` and ``_check_openclosed``),
    # so verify computes no preimage or image; ``MapSets`` does, on frozensets.
    for mod in instances:
        nm = build_natural_map(mod)
        if not nm.degenerate:
            ref = MapSets(nm)
            assert set(ref.witnesses().values()) == {None}, mod.name
            assert ref.is_homeomorphism() == nm.is_injective(), mod.name


def test_no_point_set_breaks_a_state_clause_on_any_instance(instances):
    # P6.1, P6.4 and P6.5's clause on the meet of Y follow from L2.1 and
    # P6.2 (``verify._check_point_sets``), so no set of points is scanned.
    for mod in _small(instances, 16, 1000):
        ref = ModuleSets(mod)
        subsets = _subsets(spectrum(mod))
        for ys in subsets:
            assert not point_set_fails(ref, ys), (mod.name, ys)
        # P6.5 does not scan chains: the meet of a chain is its least point,
        # and its closure is that point's closure, which is irreducible.
        closures = {p: point_state(ref, (p,))[1] for p in spectrum(mod)}
        for ys in filter(lambda ys: _is_chain(mod, ys), subsets):
            least, closure = point_state(ref, ys)
            assert least in ys and closure == closures[least], (mod.name, ys)


def ref_chain_states(mod: LeModuleInstance) -> dict:
    """(least element, union of point closures) over each nonempty chain of
    points, grown from the top of the lattice down: a chain is its least
    point p alone or p below a chain of points above p."""
    leq = mod.lattice.leq
    ref = ModuleSets(mod)
    closures = {p: ref.closure([p]) for p in spectrum(mod)}
    by_least: dict[int, dict[frozenset, tuple[int, ...]]] = {}
    for p in sorted(closures, key=lambda p: -sum(row[p] for row in leq)):
        mine = {closures[p]: (p,)}
        for q, chains in by_least.items():
            if leq[p][q]:
                for union, chain in chains.items():
                    mine.setdefault(closures[p] | union, (p, *chain))
        by_least[p] = mine
    return {(p, u): chain for p, mine in by_least.items() for u, chain in mine.items()}


def test_every_chain_union_is_the_closure_of_its_least_point(instances):
    for mod in instances:
        top = spectra.build_topologies(mod).star
        ref = ModuleSets(mod)
        for (least, union), chain in ref_chain_states(mod).items():
            assert chain[0] == least, (mod.name, chain)
            assert ref.mask(union) == spectra.closure(top, ref.mask([least])), (mod.name, chain)


def test_irreducible_iff_closure_is_a_point_closure(instances):
    for mod in _small(instances, 12, 1000):
        top = spectra.build_topologies(mod).star
        ref = ModuleSets(mod)
        cls = set(spectra.point_closures(top))
        for ys in map(ref.mask, _subsets(spectrum(mod))):
            irr = spectra.is_irreducible(top, ys)
            assert (spectra.closure(top, ys) in cls) == irr, (mod.name, ys)


PAIR_CLAUSES = ("star-union", "plain-union", "colon-transfer", "prime-converse")


def reference_pairs(ref: ModuleSets) -> tuple | None:
    """P3.1's four pair clauses over every pair of submodule elements, on
    frozensets: the loop that P3.1 ran before it went over colon classes."""
    mod, v, vs = ref.mod, ref.v, ref.vs
    for n, l in itertools.combinations_with_replacement(submodule_elements(mod), 2):
        witness = f"n={mod.label(n)}, l={mod.label(l)}"
        m = meet_all(mod.lattice, (n, l))
        if vs[n] | vs[l] != vs[m]:
            return verify.FALSIFIED, witness, "star-union"
        if not (v[n] | v[l]) <= v[m]:
            return verify.FALSIFIED, witness, "plain-union"
        same_colon = colon_set(mod, n) == colon_set(mod, l)
        if same_colon and vs[n] != vs[l]:
            return verify.FALSIFIED, witness, "colon-transfer"
        both_prime = n in spectrum(mod) and l in spectrum(mod)
        if both_prime and vs[n] == vs[l] and not same_colon:
            return verify.FALSIFIED, witness, "prime-converse"
    return None


def reference_bounds(ref: ModuleSets) -> str | None:
    """P3.1's clauses on 0_M and e, on frozensets: V*(0_M) = X = V(0_M) and
    V*(e) = {} = V(e)."""
    mod, full = ref.mod, frozenset(ref.points)
    if not ref.vs[mod.zero_m] == full == ref.v[mod.zero_m]:
        return "n=0_M"
    if ref.vs[mod.top] or ref.v[mod.top]:
        return "n=e"
    return None


def test_no_pair_clause_fails_on_any_instance(instances):
    # P3.1 leaves its clauses on 0_M, e and pairs to L2.1 and the
    # definitions (``verify._check_variety_identities``), which settle them
    # on every instance.
    check = next(s.check for s in verify.STATEMENTS if s.sid == "P3.1")
    for mod in instances:
        ref = ModuleSets(mod)
        assert reference_bounds(ref) is None, mod.name
        assert reference_pairs(ref) is None, mod.name
        assert check(mod)[0] == verify.VERIFIED, mod.name


def reference_decomposition(ref: ModuleSets) -> str | None:
    """P3.1's "decomposition" clause as the claim states it, on frozensets:
    V*(n), the union of the colon fibers at the ring primes that contain
    (n:e), V*((n:e)e) and V((n:e)e) agree for every submodule element n."""
    mod, primes = ref.mod, spec_ring(ref.mod.ring).points
    for n in submodule_elements(mod):
        cn = colon_set(mod, n)
        union = frozenset().union(*(ref.fibers.get(pr.members, ()) for pr in primes if cn <= pr.members))
        ce = ideal_action(mod, colon(mod, n))
        if not ref.vs[n] == union == ref.vs[ce] == ref.v[ce]:
            return f"n={mod.label(n)}"
    return None


def test_no_decomposition_clause_fails_on_any_instance(instances):
    # P3.1 compares V*(n) with V*((n:e)e) and V((n:e)e) and leaves the
    # fiber union to the definitions: V*(n) is the union of the fibers at
    # the colon sets that contain (n:e), and every colon set of a point is
    # a prime (L2.1), so both unions run over the same fibers.
    check = next(s.check for s in verify.STATEMENTS if s.sid == "P3.1")
    for mod in instances:
        ref = ModuleSets(mod)
        assert all(is_prime_ideal(mod.ring, c) for c in ref.fibers), mod.name
        assert reference_decomposition(ref) is None, mod.name
        assert check(mod)[0] == verify.VERIFIED, mod.name


def reference_ideal_action_variety(ref: ModuleSets) -> str | None:
    """P3.1's "ideal-action-variety" clause on frozensets: the first ideal
    I with V(Ie) != V*(Ie)."""
    mod = ref.mod
    for i in all_ideals(mod.ring):
        ie = ideal_action(mod, i)
        if ref.v[ie] != ref.vs[ie]:
            return f"I={i.sorted_members()}"
    return None


def reference_families(ref: ModuleSets) -> str | None:
    """T3.5's family clauses on frozensets: the colon-variety family is the
    family of the V(Ie) over the ideals I, and, when the plain family is
    closed under unions (a top instance), it lies inside the plain one."""
    mod = ref.mod
    star = set(ref.closed)
    if star != {ref.v[ie] for ie in ideal_actions(mod)}:
        return "star family is not the ideal-action family"
    plain = {ref.v[n] for n in submodule_elements(mod)}
    top = all(a | b in plain for a, b in itertools.combinations_with_replacement(plain, 2))
    if top and not star <= plain:
        return "star family not inside quasi family"
    return None


def test_no_action_clause_fails_on_any_instance(instances):
    # L2.1's two clauses, checked on every instance, settle P3.1's
    # decomposition, ideal-action and scalar-action clauses, T3.5's family
    # clauses and ideal and scalar pairs, and T5.3
    # (``verify._check_variety_identities``), so none of them is scanned.
    # F2[x, y]/(x, y)^2 has a non-principal ideal; Z6^2 over Z12 has
    # annihilator {0, 6}.
    more = [build_instance(d) for d in (*EXTRA, DESCRIPTORS["F2xy-ideal-lattice"], ANNIHILATED[0])]
    checks = {s.sid: s.check for s in verify.STATEMENTS}
    for mod in [*instances, *more]:
        ref = ModuleSets(mod)
        assert reference_decomposition(ref) is None, mod.name
        assert reference_ideal_action_variety(ref) is None, mod.name
        assert ref_scalar_action_variety(mod) is None, mod.name
        assert ref_ideal_pair(mod) is None, mod.name
        assert ref_scalar_union(mod) is None, mod.name
        assert ref_basis_witnesses(mod) == (None, None, None), mod.name
        assert reference_families(ref) is None, mod.name
        for sid in ("L2.1", "P3.1", "T3.5", "T5.3"):
            assert checks[sid](mod)[0] == verify.VERIFIED, (mod.name, sid)
    for mod in more:
        release(mod, mod.ring)


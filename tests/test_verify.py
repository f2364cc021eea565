"""The statement registry and the catalog-wide verification sweep.

The expected verdict counts were frozen after an oracle run: the two
hypothesis-not-met cells are the multiplication criterion on the two
instances that are not multiplication le-modules.
"""

import itertools
import json
import random

import pytest
from frozenset_reference import ModuleSets, colon_set, plant
from hypothesis import given, strategies as st
from shared_instances import ANNIHILATED
from test_scan_reference import _subsets, point_set_fails

from lemspec import spectra, verify
from lemspec.instances import (
    ExplicitModuleSpec,
    InstanceDescriptor,
    SubmoduleLatticeSpec,
    ZnSpec,
    build_instance,
    catalog,
    cyclic_module_tables,
    find_descriptor,
    product_module_tables,
    submodule_lattice_le_module,
)
from lemspec.le_modules import spectrum
from lemspec.memo import release
from lemspec.rings import make_zn
from lemspec.verify import (
    STATEMENTS,
    StatementResult,
    VerificationReport,
    render_text,
    run_all,
    serialize_report,
)

EXPECTED_IDS = (
    "L2.1",
    "P3.1",
    "T3.5",
    "P4.1",
    "P4.2",
    "T4.3",
    "T4.5",
    "P5.1",
    "T5.3",
    "T5.4",
    "P6.1",
    "P6.2",
    "C6.3",
    "P6.4",
    "P6.5",
    "T6.6",
    "T7.1",
    "T7.2",
    "T7.3",
    "T7.4",
)


@pytest.fixture(scope="module")
def full_report():
    return run_all()


def test_statement_registry():
    assert tuple(s.sid for s in STATEMENTS) == EXPECTED_IDS
    assert all(s.title and s.claim for s in STATEMENTS)


def test_full_catalog_counts(full_report):
    assert full_report.counts() == {
        "verified": 318,
        "falsified": 0,
        "hypothesis-not-met": 2,
        "not-applicable": 0,
    }
    assert not full_report.falsified()


def test_result_grid_is_complete(full_report):
    names = {d.name for d in catalog()}
    seen = {(r.statement, r.instance) for r in full_report.results}
    assert len(seen) == len(STATEMENTS) * len(names)
    assert {r.instance for r in full_report.results} == names


def test_hypothesis_not_met_cells(full_report):
    rows = [
        (r.statement, r.instance, r.detail)
        for r in full_report.results
        if r.verdict == "hypothesis-not-met"
    ]
    assert sorted(rows) == [
        (
            "T7.2",
            "Z2xZ2-over-Z2-submodules",
            "multiplication=False surjective=True",
        ),
        (
            "T7.2",
            "Z2xZ4-over-Z4-submodules",
            "multiplication=False surjective=True",
        ),
    ]


def test_serialization_is_deterministic(full_report):
    blob1 = serialize_report(full_report)
    blob2 = serialize_report(run_all())
    assert blob1 == blob2
    assert blob1.endswith("\n")


def test_serialized_shape(full_report):
    payload = json.loads(serialize_report(full_report))
    assert sorted(payload.keys()) == ["results", "statements", "summary"]
    assert payload["summary"]["falsified"] == 0
    row = payload["results"][0]
    assert sorted(row.keys()) == [
        "detail",
        "instance",
        "statement",
        "verdict",
        "witness",
    ]
    # timing is deliberately excluded so reports stay byte-comparable
    assert "seconds" not in json.dumps(payload)


def reference_serialization(report: VerificationReport) -> str:
    """The report as ``json.dumps`` writes it; ``serialize_report`` must
    give the same bytes from its template."""
    payload = {
        "statements": [{"id": s.sid, "title": s.title, "claim": s.claim} for s in STATEMENTS],
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


def test_serializer_matches_json_dumps_on_catalog_reports(full_report):
    reports = [full_report, VerificationReport(())]
    reports += [
        VerificationReport(tuple(r for r in full_report.results if r.instance == d.name))
        for d in catalog()
    ]
    for report in reports:
        assert serialize_report(report) == reference_serialization(report)


# Any code point, lone surrogates included, and the characters JSON escapes.
_TEXT = st.text(
    st.one_of(
        st.characters(exclude_categories=()),
        st.sampled_from('"\\/\x00\x08\t\n\x1f\x7f\x80\u2028\ud800\ufeff\u00e9\U0001f600'),
    )
)
_RESULTS = st.builds(
    StatementResult,
    statement=_TEXT,
    instance=_TEXT,
    verdict=st.sampled_from(sorted(VerificationReport(()).counts())),
    witness=st.none() | _TEXT,
    detail=st.none() | _TEXT,
    seconds=st.floats(min_value=0, max_value=10),
)


@given(st.lists(_RESULTS, max_size=4))
def test_serializer_matches_json_dumps_on_arbitrary_text(results):
    report = VerificationReport(tuple(results))
    assert serialize_report(report) == reference_serialization(report)


def test_render_text(full_report):
    text = render_text(full_report)
    assert "L2.1" in text
    assert "verified" in text
    for d in catalog():
        assert d.name in text


def test_for_statement(full_report):
    rows = full_report.for_statement("T7.2")
    assert len(rows) == len(catalog())
    assert all(r.statement == "T7.2" for r in rows)


def test_degenerate_instance_verdicts():
    deg = InstanceDescriptor(
        name="point-over-Z2",
        ring=ZnSpec(2),
        module=ExplicitModuleSpec(
            size=1, zero=0, leq=((1,),), add=((0,),), action=((0,), (0,))
        ),
    )
    report = run_all([deg])
    assert report.counts() == {
        "verified": 9,
        "falsified": 0,
        "hypothesis-not-met": 1,
        "not-applicable": 10,
    }
    hnm = [r for r in report.results if r.verdict == "hypothesis-not-met"]
    assert hnm[0].statement == "T7.4"
    assert hnm[0].detail == "empty spectrum"
    na = {r.statement for r in report.results if r.verdict == "not-applicable"}
    assert "P4.1" in na and "T7.1" in na


def test_run_all_subset():
    report = run_all([find_descriptor("Z4-ideal-lattice")])
    assert report.counts()["falsified"] == 0
    assert {r.instance for r in report.results} == {"Z4-ideal-lattice"}


def test_run_all_empty_list_gives_empty_report():
    report = run_all([])
    assert report.results == ()
    assert report.counts() == {
        "verified": 0,
        "falsified": 0,
        "hypothesis-not-met": 0,
        "not-applicable": 0,
    }


def _results(desc):
    report = run_all([desc])
    assert report.counts()["falsified"] == 0
    return {r.statement: r for r in report.results}


def test_subset_scans_are_exhaustive():
    z2, z4 = cyclic_module_tables(2), cyclic_module_tables(4)
    # Z4^2 over Z4 has 15 submodule elements, F2^3 over Z2 15 points.  P6.1
    # and P6.4 scan no point set: L2.1 and P6.2 settle them
    # (``verify._check_point_sets``), so they are verified with no detail.
    z4_squared = InstanceDescriptor(
        "Z4^2-over-Z4",
        ZnSpec(4),
        SubmoduleLatticeSpec(*product_module_tables(z4, z4)),
    )
    f2_cubed = InstanceDescriptor(
        "F2^3-over-Z2",
        ZnSpec(2),
        SubmoduleLatticeSpec(
            *product_module_tables(product_module_tables(z2, z2), z2)
        ),
    )
    for desc in (z4_squared, f2_cubed):
        results = _results(desc)
        for sid in ("P6.1", "P6.4"):
            assert (results[sid].verdict, results[sid].detail) == ("verified", None)
    # F2^4 over Z2: 66 points, 2^66 - 1 point subsets.
    f2_fourth = InstanceDescriptor(
        "F2^4-over-Z2",
        ZnSpec(2),
        SubmoduleLatticeSpec(
            *product_module_tables(
                product_module_tables(product_module_tables(z2, z2), z2), z2
            )
        ),
    )
    report = run_all([f2_fourth])
    assert report.counts()["falsified"] == 0
    assert "sampled" not in render_text(report)


def _power_module(m: int, k: int):
    tables = cyclic_module_tables(m)
    power = tables
    for _ in range(k - 1):
        power = product_module_tables(power, tables)
    return submodule_lattice_le_module(make_zn(m), *power, f"Z{m}^{k}")


@pytest.mark.parametrize(
    "make",
    [
        lambda: build_instance(find_descriptor("Z6-ideal-lattice")),
        lambda: _power_module(2, 4),
        lambda: build_instance(ANNIHILATED[0]),
    ],
    ids=["Z6", "F2^4/Z2", "Z6^2/Z12"],
)
def test_module_memo_holds_no_per_element_entries(make):
    # Derived data of a module is one table per function, read by index:
    # after every statement, each memo key is (fn,), never (fn, element).
    mod = make()
    for stmt in STATEMENTS:
        stmt.check(mod)
    assert len(STATEMENTS) == 20
    assert [key for key in mod._memo if len(key) != 1] == []


@pytest.mark.parametrize("m, k", [(2, 4), (4, 3)])
def test_no_point_set_of_a_larger_instance_breaks_a_state_clause(m, k):
    # P6.1, P6.4 and P6.5's clause on the meet of Y are not scanned
    # (``verify._check_point_sets``).  (Z4)^3 has 15 points, so every set of
    # points is checked; F2^4 has 66, so a seeded sample of sets of at most
    # six points is checked instead.  ``verify`` itself never samples.
    mod = _power_module(m, k)
    ref = ModuleSets(mod)
    points = spectrum(mod)
    if len(points) <= 16:
        sets = _subsets(points)
    else:
        rng = random.Random(0)
        sets = [tuple(sorted(rng.sample(points, rng.randint(1, 6)))) for _ in range(2000)]
    for ys in sets:
        assert not point_set_fails(ref, ys), ys
    release(mod)


def _reference_point_closures(ref: ModuleSets) -> tuple:
    """P6.2's point clauses, one frozenset comparison per pair of points."""
    mod, points = ref.mod, ref.points
    colons = {p: colon_set(mod, p) for p in points}
    fibers = ref.fibers
    for p in points:
        if ref.closure([p]) != ref.vs[p]:
            return verify.FALSIFIED, f"p={mod.label(p)}", "closure-formula"
        for q in points:
            in_closure = q in ref.closure([p])
            colon_incl = colons[p] <= colons[q]
            vs_incl = ref.vs[q] <= ref.vs[p]
            if not (in_closure == colon_incl == vs_incl):
                return verify.FALSIFIED, f"p={mod.label(p)}, q={mod.label(q)}", "specialization"
        singleton_closed = ref.is_closed([p])
        maximal = not any(colons[p] < c for c in fibers)
        if singleton_closed != (maximal and len(fibers[colons[p]]) == 1):
            return verify.FALSIFIED, f"p={mod.label(p)}", "closed-point-criterion"
    return None


def test_planted_point_failures_name_the_reference_witness():
    # V*(x) is changed by one point, for each point x and each point flipped:
    # one bit of the mask, and one member of the reference's frozenset.  The
    # topology is built first, from the true varieties.
    check = next(s.check for s in STATEMENTS if s.sid == "P6.2")
    details = set()
    for name in ("Z30-ideal-lattice", "Z2xZ2-over-Z2-submodules", "Z2xZ4-over-Z4-submodules"):
        probe = build_instance(find_descriptor(name))
        for planted, flipped in itertools.product(spectrum(probe), repeat=2):
            mod = build_instance(find_descriptor(name))
            spectra.build_topologies(mod)
            ref = ModuleSets(mod)
            flip = ref.mask([flipped])
            plant(spectra.variety_stars, mod, {planted: spectra.variety_stars(mod)[planted] ^ flip})
            ref.vs[planted] ^= {flipped}
            expected = _reference_point_closures(ref)
            assert expected is not None
            assert check(mod) == expected, (name, planted, flipped)
            details.add(expected[2])
            release(mod)
    # Where colon ideals differ, a changed V*(q) breaks the specialization
    # clause at an earlier p before the closure formula at q.
    assert details == {"closure-formula", "specialization"}


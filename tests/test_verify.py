"""The statement registry and the catalog-wide verification sweep.

The expected verdict counts were frozen after an oracle run: the two
hypothesis-not-met cells are the multiplication criterion on the two
instances that are not multiplication le-modules.
"""

import json

import pytest

from lemspec.instances import (
    ExplicitModuleSpec,
    InstanceDescriptor,
    SubmoduleLatticeSpec,
    ZnSpec,
    catalog,
    cyclic_module_tables,
    find_descriptor,
    product_module_tables,
)
from lemspec.verify import (
    STATEMENTS,
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


def _details(desc, sids):
    report = run_all([desc])
    assert report.counts()["falsified"] == 0
    return {r.statement: r.detail for r in report.results if r.statement in sids}


def test_subset_scans_are_exhaustive():
    z2, z4 = cyclic_module_tables(2), cyclic_module_tables(4)
    subset_sids = ("P3.1", "P6.1", "P6.4", "P6.5")
    none = dict.fromkeys(subset_sids)
    # Z4^2 over Z4 has 15 submodule elements, F2^3 over Z2 15 points: both
    # were sampled when subsets were listed one by one.
    z4_squared = InstanceDescriptor(
        "Z4^2-over-Z4",
        ZnSpec(4),
        SubmoduleLatticeSpec(*product_module_tables(z4, z4)),
    )
    assert _details(z4_squared, subset_sids) == none
    f2_cubed = InstanceDescriptor(
        "F2^3-over-Z2",
        ZnSpec(2),
        SubmoduleLatticeSpec(
            *product_module_tables(product_module_tables(z2, z2), z2)
        ),
    )
    assert _details(f2_cubed, subset_sids) == none
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

"""Acceptance suite: one test per criterion, one line printed per run.

Each test prints "criterion N: PASS (...)" on success; pytest -v adds the
matching pass/fail line per test.  Runtime budgets are asserted where the
criterion pins one.
"""

import itertools
import json
import random
import time

import pytest
from frozenset_reference import ModuleSets

from lemspec.cli import main
from lemspec.errors import AxiomViolation
from lemspec.instances import build_instance, catalog, find_descriptor
from lemspec.lattices import make_lattice
from lemspec.le_modules import make_le_module, spectrum
from lemspec.natural_map import (
    build_natural_map,
    component_minimal_prime_bijection,
    connectedness_equivalence,
    continuity_check,
    dr_preimage_check,
    injectivity_battery,
    spectral_battery,
    surjectivity_and_openclosed,
)
from lemspec.rings import all_ideals
from lemspec.spectra import (
    build_topologies,
    closure,
    generic_points,
    irreducible_components,
    is_irreducible,
    point_closures,
    point_set_properties,
    uncovered_open,
)
from lemspec.verify import run_all, serialize_report
from test_ideal_index_reference import galois_adjunction_check, union_intersection_check
from test_scalar_class_reference import ref_basis_witnesses
from test_scan_reference import reference_decomposition
from test_spectra import phi_and_t1_check

ALL = tuple(build_instance(d) for d in catalog())


def timed(budget):
    class _Timer:
        def __enter__(self):
            self.start = time.perf_counter()
            return self

        def __exit__(self, *exc):
            self.seconds = time.perf_counter() - self.start
            if exc[0] is None:
                assert self.seconds < budget, f"over budget: {self.seconds:.2f}s"
            return False

    return _Timer()


def test_criterion_1_axiom_gate():
    with timed(5.0) as t:
        for mod in ALL:
            # rebuilding through the validator must succeed
            make_le_module(
                mod.ring, mod.lattice, mod.add, mod.zero_m, mod.action
            )
        mod = build_instance(find_descriptor("Z6-ideal-lattice"))
        rng = random.Random(20250825)
        violated, skipped = 0, 0
        for _ in range(60):
            table_name = rng.choice(("add", "action"))
            table = [list(row) for row in getattr(mod, table_name)]
            i = rng.randrange(len(table))
            j = rng.randrange(len(table[0]))
            old = table[i][j]
            table[i][j] = rng.choice(
                [v for v in range(mod.lattice.size) if v != old]
            )
            frozen = tuple(tuple(row) for row in table)
            add = frozen if table_name == "add" else mod.add
            action = frozen if table_name == "action" else mod.action
            try:
                make_le_module(mod.ring, mod.lattice, add, mod.zero_m, action)
            except AxiomViolation as err:
                assert err.axiom in {"monoid", "S", "M1", "M2", "M3", "M4", "M5"}
                violated += 1
            else:
                skipped += 1
        assert violated + skipped == 60
        assert violated >= 50, f"only {violated} mutations tripped the gate"
    print(
        f"criterion 1: PASS ({t.seconds:.2f}s, "
        f"{violated} violations, {skipped} skipped)"
    )


def test_criterion_2_galois_adjunction():
    with timed(10.0) as t:
        checked = 0
        for mod in ALL:
            for ideal in all_ideals(mod.ring):
                for n in range(mod.lattice.size):
                    assert galois_adjunction_check(mod, ideal, n), (mod.name, n)
                    checked += 1
    print(f"criterion 2: PASS ({t.seconds:.2f}s, {checked} pairs)")


def test_criterion_3_topology_identities():
    with timed(30.0) as t:
        for mod in ALL:
            tops = build_topologies(mod)
            assert tops.star.closed_sets == tops.prime.closed_sets, mod.name
            assert reference_decomposition(ModuleSets(mod)) is None, mod.name
            for i, j in itertools.product(all_ideals(mod.ring), repeat=2):
                assert union_intersection_check(mod, i, j), mod.name
        report = run_all()
        for sid in ("P3.1", "T3.5"):
            assert all(
                r.verdict == "verified" for r in report.for_statement(sid)
            ), sid
    print(f"criterion 3: PASS ({t.seconds:.2f}s)")


def test_criterion_4_basis():
    with timed(30.0) as t:
        for mod in ALL:
            assert ref_basis_witnesses(mod) == (None, None, None), mod.name
            assert uncovered_open(mod) is None, mod.name
    print(f"criterion 4: PASS ({t.seconds:.2f}s)")


def test_criterion_5_natural_map_identities():
    with timed(30.0) as t:
        for mod in ALL:
            nm = build_natural_map(mod)
            assert continuity_check(nm), mod.name
            for r in range(mod.ring.order):
                assert dr_preimage_check(nm, r), (mod.name, r)
            oc = surjectivity_and_openclosed(nm)
            assert oc.closed_image_ok and oc.open_image_ok, mod.name
    print(f"criterion 5: PASS ({t.seconds:.2f}s)")


def test_criterion_6_equivalence_batteries():
    with timed(60.0) as t:
        for mod in ALL:
            nm = build_natural_map(mod)
            assert injectivity_battery(nm).equivalent, mod.name
            assert connectedness_equivalence(nm).ok, mod.name
            assert spectral_battery(nm).equivalent, mod.name
            assert phi_and_t1_check(mod), mod.name
        report = run_all()
        counts = report.counts()
        assert counts["falsified"] == 0
        # Every catalog spectrum is nonempty, so T7.4's hypothesis holds.
        assert {r.verdict for r in report.for_statement("T7.4")} == {"verified"}
        hnm = [
            (r.statement, r.instance)
            for r in report.results
            if r.verdict == "hypothesis-not-met"
        ]
    print(
        f"criterion 6: PASS ({t.seconds:.2f}s, "
        f"falsified=0, hypothesis-not-met={len(hnm)}: {hnm})"
    )


def _nonempty_masks(top):
    """Every nonempty set of points, as a mask (bit k for the k-th point)."""
    return range(1, top.full + 1)


def brute_components(top):
    found = [y for y in _nonempty_masks(top) if y in top.closed_sets and is_irreducible(top, y)]
    return {y for y in found if not any(y != z and y | z == z for z in found)}


def test_criterion_7_generic_points_and_components():
    with timed(30.0) as t:
        for mod in ALL:
            top = build_topologies(mod).star
            if not top.points:
                continue
            closures = set(point_closures(top))
            for y in _nonempty_masks(top):
                if y in top.closed_sets and is_irreducible(top, y):
                    assert y in closures, (mod.name, bin(y))
            for comp in irreducible_components(top):
                assert generic_points(top, comp), (mod.name, bin(comp))
            assert component_minimal_prime_bijection(
                build_natural_map(mod)
            ), mod.name
            assert len(top.points) <= 12
            assert set(irreducible_components(top)) == brute_components(top)
    print(f"criterion 7: PASS ({t.seconds:.2f}s)")


def test_criterion_8_concrete_spectra():
    expected = {
        "Z4-ideal-lattice": 1,
        "Z6-ideal-lattice": 2,
        "Z12-ideal-lattice": 2,
        "Z30-ideal-lattice": 3,
    }
    with timed(10.0) as t:
        for name, size in expected.items():
            mod = build_instance(find_descriptor(name))
            assert len(spectrum(mod)) == size, name
        z6 = build_instance(find_descriptor("Z6-ideal-lattice"))
        top6 = build_topologies(z6).star
        assert len(top6.closed_sets) == 2 ** len(top6.points)  # discrete
        props6 = point_set_properties(top6)
        assert not props6.is_connected
        z4 = build_instance(find_descriptor("Z4-ideal-lattice"))
        props4 = point_set_properties(build_topologies(z4).star)
        assert props4.is_connected and props4.is_spectral
    print(f"criterion 8: PASS ({t.seconds:.2f}s)")


def test_criterion_9_determinism(tmp_path):
    with timed(120.0) as t:
        blob1 = serialize_report(run_all())
        blob2 = serialize_report(run_all())
        assert blob1 == blob2
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert (
            main(["verify", "--format", "structured", "--out", str(first)])
            == 0
        )
        assert (
            main(["verify", "--format", "structured", "--out", str(second)])
            == 0
        )
        assert first.read_bytes() == second.read_bytes()
        assert json.loads(blob1)["summary"]["falsified"] == 0
    print(f"criterion 9: PASS ({t.seconds:.2f}s, byte-identical reports)")

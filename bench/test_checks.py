"""Tests for the benchmark's own checks and generated inputs.

Run from the root of the repository:

    python3 -m pytest bench/test_checks.py -q

Each check is shown to accept the program's real output and to reject a
doctored copy of it.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from lemspec import cli  # noqa: E402


def cli_result(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(), "error": None}


@pytest.fixture(scope="module")
def zn_case(tmp_path_factory):
    path = tmp_path_factory.mktemp("zn") / "Z12.lem"
    path.write_text(workloads.zn_descriptor(12))
    op = workloads.Operation(
        "verify", str(path), "Z12-ideal-lattice", facts=workloads._zn_facts(12), probe=True
    ).to_dict()
    res = cli_result(["verify", str(path), "--format", "structured"])
    res["probe"] = {
        "validate": cli_result(["validate", str(path)]),
        "topology": cli_result(["topology", str(path), "--format", "structured"]),
    }
    return op, res


def doctored(res: dict, **changes) -> dict:
    return {**json.loads(json.dumps(res)), **changes}


def test_real_verify_output_passes(zn_case):
    op, res = zn_case
    assert checks.check_operation(op, res) == []


def test_flipped_verdict_is_rejected(zn_case):
    op, res = zn_case
    report = json.loads(res["stdout"])
    report["results"][3]["verdict"] = "falsified"
    problems = checks.check_operation(op, doctored(res, stdout=json.dumps(report)))
    assert any("falsified" in p for p in problems)


def test_false_spectrality_clause_is_rejected(zn_case):
    op, res = zn_case
    text = res["stdout"].replace("homeomorphic=True", "homeomorphic=False")
    assert text != res["stdout"]
    problems = checks.check_operation(op, doctored(res, stdout=text))
    assert any("T7.1" in p for p in problems)


def test_wrong_connectedness_is_rejected(zn_case):
    op, res = zn_case
    text = res["stdout"].replace("module-spectrum-connected=False", "module-spectrum-connected=True")
    problems = checks.check_operation(op, doctored(res, stdout=text))
    assert any("T4.5" in p for p in problems)


def test_wrong_spectrum_size_is_rejected(zn_case):
    op, res = zn_case
    bad = doctored(res)
    bad["probe"]["validate"]["stdout"] = bad["probe"]["validate"]["stdout"].replace(
        "spectrum points: 2", "spectrum points: 3"
    )
    problems = checks.check_operation(op, bad)
    assert any("points" in p for p in problems)


def test_wrong_closed_set_count_is_rejected(zn_case):
    op, res = zn_case
    bad = doctored(res)
    top = json.loads(bad["probe"]["topology"]["stdout"])
    top["closed_sets"].pop()
    bad["probe"]["topology"]["stdout"] = json.dumps(top)
    problems = checks.check_operation(op, bad)
    assert any("closed_sets" in p for p in problems)


def test_missing_statement_is_rejected(zn_case):
    op, res = zn_case
    report = json.loads(res["stdout"])
    del report["results"][0]
    problems = checks.check_operation(op, doctored(res, stdout=json.dumps(report)))
    assert problems


def test_unexpected_exit_code_is_rejected(zn_case):
    op, res = zn_case
    assert checks.check_operation(op, doctored(res, rc=3))


def reject_op(path: Path, expect) -> dict:
    return workloads.Operation(
        "validate", str(path), path.stem, 2, {"kind": "reject", "names": list(expect)}
    ).to_dict()


@pytest.mark.parametrize("seed", range(8))
def test_every_module_mutation_breaks_its_law(tmp_path, seed):
    rng = random.Random(seed)
    size, leq, add, action = workloads.subspace_tables(3, 2)
    for kind, expect in workloads.MODULE_MUTATIONS:
        bad_leq, bad_add = workloads._mutate_module(kind, size, leq, add, rng)
        path = tmp_path / f"{kind}.lem"
        path.write_text(workloads.explicit_module_descriptor(kind, 3, size, bad_leq, bad_add, action))
        res = cli_result(["validate", str(path)])
        assert checks.check_operation(reject_op(path, expect), res) == [], res


@pytest.mark.parametrize("seed", range(8))
def test_every_ring_mutation_breaks_its_law(tmp_path, seed):
    rng = random.Random(seed)
    n = 6
    add = [[(a + b) % n for b in range(n)] for a in range(n)]
    mul = [[(a * b) % n for b in range(n)] for a in range(n)]
    for kind, expect in workloads.RING_MUTATIONS:
        bad_add, bad_mul = workloads._mutate_ring(kind, n, add, mul, rng)
        path = tmp_path / f"{kind}.lem"
        path.write_text(workloads.explicit_ring_descriptor(kind, n, bad_add, bad_mul))
        res = cli_result(["validate", str(path)])
        assert checks.check_operation(reject_op(path, expect), res) == [], res


def test_accepted_mutant_is_rejected(tmp_path):
    size, leq, add, action = workloads.subspace_tables(2, 2)
    path = tmp_path / "valid.lem"
    path.write_text(workloads.explicit_module_descriptor("valid", 2, size, leq, add, action))
    res = cli_result(["validate", str(path)])
    assert res["rc"] == 0
    op = reject_op(path, ("antisymmetry",))
    assert checks.check_operation(op, res)


def test_mutant_naming_another_law_is_rejected(tmp_path):
    size, leq, add, action = workloads.subspace_tables(2, 2)
    bad_leq, _ = workloads._mutate_module("reflexivity", size, leq, add, random.Random(0))
    path = tmp_path / "bad.lem"
    path.write_text(workloads.explicit_module_descriptor("bad", 2, size, bad_leq, add, action))
    res = cli_result(["validate", str(path)])
    problems = checks.check_operation(reject_op(path, ("antisymmetry",)), res)
    assert problems


def test_valid_explicit_file_passes_and_wrong_size_is_rejected(tmp_path):
    size, leq, add, action = workloads.subspace_tables(3, 2)
    path = tmp_path / "F3^2.lem"
    path.write_text(workloads.explicit_module_descriptor("F3^2", 3, size, leq, add, action))
    op = workloads.Operation("validate", str(path), "F3^2", facts=workloads._power_facts(3, 2)).to_dict()
    res = cli_result(["validate", str(path)])
    assert checks.check_operation(op, res) == []
    bad = doctored(res, stdout=res["stdout"].replace(f"lattice size: {size}", f"lattice size: {size + 1}"))
    problems = checks.check_operation(op, bad)
    assert problems


def test_changed_report_bytes_are_caught(zn_case):
    _, res = zn_case
    first = [checks.output_digest(res)]
    same = [checks.output_digest(doctored(res))]
    changed = [checks.output_digest(doctored(res, stdout=res["stdout"] + " "))]
    assert checks.check_identical(first, same) == []
    assert checks.check_identical(first, changed) == [0]


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (2, 4)])
def test_subspace_formula_matches_enumeration(p, k):
    size = workloads.subspace_count(p, k)
    assert workloads.power_module_spectrum(p, k) == (size, size - 1, 2)


def test_plan_depends_only_on_seed(tmp_path):
    a = [op.to_dict() for op in workloads.make_plan("validate-explicit", 3, tmp_path / "a", tmp_path)]
    texts_a = {p.name: p.read_text() for p in (tmp_path / "a").iterdir()}
    b = [op.to_dict() for op in workloads.make_plan("validate-explicit", 3, tmp_path / "b", tmp_path)]
    texts_b = {p.name: p.read_text() for p in (tmp_path / "b").iterdir()}
    strip = lambda ops: [{**op, "target": Path(op["target"]).name} for op in ops]  # noqa: E731
    assert strip(a) == strip(b) and texts_a == texts_b
    c = workloads.make_plan("validate-explicit", 4, tmp_path / "c", tmp_path)
    assert [op.instance for op in c] != [op["instance"] for op in a]

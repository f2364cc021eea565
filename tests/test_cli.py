import hashlib
import json

import pytest

from lemspec.cli import main

M3_DESCRIPTOR = """\
name broken-scalars
ring zn 4
module explicit size 3 zero 0
  leq 1 1 1 ; 0 1 1 ; 0 0 1
  add 0 1 2 ; 1 2 2 ; 2 2 2
  action 0 0 0 ; 0 1 2 ; 0 1 2 ; 0 1 2
"""

BAD_POSET_DESCRIPTOR = """\
name not-a-poset
ring zn 2
module explicit size 2 zero 0
  leq 1 1 ; 1 1
  add 0 1 ; 1 1
  action 0 0 ; 0 1
"""


def test_catalog_list(capsys):
    assert main(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    assert "Z6-ideal-lattice" in out
    assert len(out.strip().splitlines()) == 16


def test_validate_catalog_instance(capsys):
    assert main(["validate", "Z6-ideal-lattice"]) == 0
    out = capsys.readouterr().out
    assert "instance: Z6-ideal-lattice" in out
    assert "spectrum points: 2" in out
    assert "valid" in out


def test_spec_text(capsys):
    assert main(["spec", "Z6-ideal-lattice"]) == 0
    out = capsys.readouterr().out
    assert "point {0,3}" in out
    assert "injective=True surjective=True" in out


def test_spec_structured(capsys):
    assert main(["spec", "Z6-ideal-lattice", "--format", "structured"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["annihilator"] == [0]
    assert payload["quotient_order"] == 6
    assert [p["label"] for p in payload["points"]] == ["{0,3}", "{0,2,4}"]


def test_topology_star(capsys):
    assert (
        main(["topology", "Z6-ideal-lattice", "--format", "structured"]) == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["properties"]["t0"] is True
    assert payload["properties"]["connected"] is False
    assert len(payload["closed_sets"]) == 4


def test_topology_quasi_on_top_instance(capsys):
    assert main(["topology", "Z6-ideal-lattice", "--which", "quasi"]) == 0
    assert "quasi" in capsys.readouterr().out


def test_topology_quasi_rejected(capsys):
    code = main(["topology", "Z2xZ2-over-Z2-submodules", "--which", "quasi"])
    assert code == 1
    assert "not a topology" in capsys.readouterr().err


def test_verify_single_instance(capsys):
    assert main(["verify", "Z4-ideal-lattice"]) == 0
    out = capsys.readouterr().out
    assert "Z4-ideal-lattice" in out
    assert "falsified=0" in out


def test_verify_structured_deterministic(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(["verify", "--format", "structured", "--out", str(first)]) == 0
    assert main(["verify", "--format", "structured", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    payload = json.loads(first.read_text())
    assert payload["summary"]["falsified"] == 0


def test_verify_catalog_report_bytes_are_pinned(capsys):
    # Changes only in a change that means to change the report: update the
    # digest together with the verdicts, witnesses or details it pins.
    assert main(["verify", "--format", "structured"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "60a0fc42f0ae89e9cb86e7cff3e433c7972f76922bd18c00cf28b78f8300382f"


def test_export_dot_lattice(capsys):
    assert main(["export-dot", "Z6-ideal-lattice"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert "rankdir=BT" in out
    assert out.count("->") == 4  # Hasse edges of the ideal lattice


def test_export_dot_z4_chain(capsys):
    assert main(["export-dot", "Z4-ideal-lattice"]) == 0
    out = capsys.readouterr().out
    assert out.count("[label=") == 3
    assert out.count("->") == 2


def test_export_dot_specialization(capsys):
    assert (
        main(
            [
                "export-dot",
                "Z2xZ2-over-Z2-submodules",
                "--target",
                "specialization",
            ]
        )
        == 0
    )
    assert capsys.readouterr().out.count("->") == 12


def test_file_descriptor_round_trip(tmp_path, capsys):
    path = tmp_path / "demo.lem"
    path.write_text("name demo\nring zn 6\nmodule ideal-lattice\n")
    assert main(["validate", str(path)]) == 0
    assert "instance: demo" in capsys.readouterr().out


def test_axiom_violation_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.lem"
    path.write_text(M3_DESCRIPTOR)
    assert main(["validate", str(path)]) == 2
    assert "M3" in capsys.readouterr().err


def test_bad_poset_exit_code(tmp_path, capsys):
    path = tmp_path / "poset.lem"
    path.write_text(BAD_POSET_DESCRIPTOR)
    assert main(["validate", str(path)]) == 2
    assert "antisymmetry" in capsys.readouterr().err


def test_unknown_input_exit_code(capsys):
    assert main(["validate", "no-such-instance"]) == 1
    assert "neither a catalog name nor a file" in capsys.readouterr().err


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "mangled.lem"
    path.write_text("name x\nring zn two\nmodule ideal-lattice\n")
    assert main(["validate", str(path)]) == 1
    assert "expected integer" in capsys.readouterr().err


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "list.txt"
    assert main(["catalog", "list", "--out", str(target)]) == 0
    assert "Z30-ideal-lattice" in target.read_text()

import hashlib
import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

from lemspec import natural_map, spectra
from lemspec.cli import COMMANDS, main, parse_args

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

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


ZN_REPORT_DIGESTS = {
    32: "f5f9349329d6c047d9e0577d8682ad53302a71ff14e80cc46bac9cfc270c85da",
    36: "d2f342f0ff734dbe023785623a5d6880c4b2a10864375e0eae24b28c54f8c661",
    42: "f68df0870b4a87d23b4854bb174b12954c1875eb51c2bc7b6aa9014c04d44a24",
    45: "a234b8e7c612cb8ca737749582ca501bb6f968e0f11abc8cb3e2dfc2df1c8ff4",
    210: "6b90656e8342f0b877437e302aa89f54af26cd249e3203c926aecb9dbeb605ae",
    840: "1d4667c421e2c33ec9b61c046581803c34823dc4821688aef0ecf3f478e4b799",
    1680: "5ef7526a6eae42694c4a00faf4c501d7c055d10dc257f405f60751caac7f5a1f",
}


@pytest.mark.parametrize("n", sorted(ZN_REPORT_DIGESTS))
def test_verify_zn_report_bytes_are_pinned(n, tmp_path, capsys):
    # Rings beyond the catalog, where scalars fall into few classes of equal
    # action rows; the digests were taken from scans over every scalar, and
    # for Z840 and Z1680 from ideals found by the generic search.
    path = tmp_path / f"Z{n}.lem"
    path.write_text(f"name Z{n}-ideal-lattice\nring zn {n}\nmodule ideal-lattice\n")
    assert main(["verify", str(path), "--format", "structured"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == ZN_REPORT_DIGESTS[n]


POWER_MODULE_DIGESTS = {
    (2, 4): "062c89728621177ae9830fd2d9f6fc0be1478698868731b92c552e5ae4d70f92",
    (4, 3): "5fec11a6881af93d2ad9f09c377745f64d29d799526e63e192e887fef15de5b2",
}


@pytest.mark.parametrize("m, k", sorted(POWER_MODULE_DIGESTS))
def test_verify_power_module_report_bytes_are_pinned(m, k, tmp_path, capsys):
    # Submodule lattices of (Z_m)^k with tens of points, where the point and
    # family scans dominate; the digests were taken from scans over frozensets.
    path = tmp_path / f"Z{m}^{k}.lem"
    path.write_text(workloads.power_module_descriptor(m, k))
    assert main(["verify", str(path), "--format", "structured"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == POWER_MODULE_DIGESTS[m, k]


POWER_MODULE_TOPOLOGY_DIGESTS = {
    (2, 4, "star"): "e17a6f9db3f3f9b9491505a783308045345cb8f45dc2d5c61f6bf6656fd2e2ff",
    (2, 4, "prime"): "06df4bab388cba045d078b3367458edd8a3347092db4153d370988d53e06d7ee",
    (2, 4, "specialization"): "f9d22881db71bec3e715eab6122e9a8f0fbce5047e69a524723c4ad85fb13045",
    (4, 3, "star"): "1066955b5e3bb0ec9b894dcde727366a2eb767af0a5205f13ac7baf339f79986",
    (4, 3, "prime"): "0b725c611efd22bbb208ccb6675a2fe23df7a2f3f0dd8a23136fbf57e35f9cb5",
    (4, 3, "specialization"): "3a7708c39a63054b174d3da24534064bb5f3aaea6e319112f6f15f6a37635fa3",
}


@pytest.mark.parametrize("m, k, which", sorted(POWER_MODULE_TOPOLOGY_DIGESTS))
def test_power_module_topology_bytes_are_pinned(m, k, which, tmp_path, capsys):
    # The point-set properties and the specialization edges are read from the
    # point closures; the digests were taken from a closure call per point.
    path = tmp_path / f"Z{m}^{k}.lem"
    path.write_text(workloads.power_module_descriptor(m, k))
    if which == "specialization":
        argv = ["export-dot", str(path), "--target", "specialization"]
    else:
        argv = ["topology", str(path), "--which", which, "--format", "structured"]
    assert main(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == POWER_MODULE_TOPOLOGY_DIGESTS[m, k, which]


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


def test_leq_entry_other_than_0_or_1_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "flags.lem"
    path.write_text(
        "name odd-flags\nring zn 2\nmodule explicit size 3 zero 0\n"
        "  leq 1 7 1 ; 0 1 1 ; 0 0 -3\n"
        "  add 0 1 2 ; 1 2 2 ; 2 2 2\n  action 0 0 0 ; 0 1 2\n"
    )
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == "error: leq entry 7 at row 0 must be 0 or 1\n"
    # An entry just past the flags, in a later row.
    path.write_text(path.read_text().replace("leq 1 7 1 ; 0 1 1 ; 0 0 -3", "leq 1 1 1 ; 0 1 2 ; 0 0 1"))
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == "error: leq entry 2 at row 1 must be 0 or 1\n"


def _table(rows) -> str:
    return " ; ".join(" ".join(str(int(v)) for v in row) for row in rows)


def _f3_cubed_tables():
    """leq, add and action of the subspace lattice of F3^3, subspaces by (size, members)."""
    vectors = list(itertools.product(range(3), repeat=3))
    index = {v: i for i, v in enumerate(vectors)}

    def plus(x, y):
        return index[tuple((a + b) % 3 for a, b in zip(vectors[x], vectors[y]))]

    def span(gens):
        members = {0}
        for g in gens:
            multiples = {index[tuple(r * a % 3 for a in vectors[g])] for r in range(3)}
            members = {plus(b, m) for b in members for m in multiples}
        return frozenset(members)

    subs = sorted(
        {span(pair) for pair in itertools.combinations_with_replacement(range(27), 2)}
        | {span(range(27))},
        key=lambda s: (len(s), sorted(s)),
    )
    at = {s: i for i, s in enumerate(subs)}
    size = len(subs)
    leq = [[int(a <= b) for b in subs] for a in subs]
    add = [[at[span(a | b)] for b in subs] for a in subs]
    action = [[0] * size] + [list(range(size))] * 2
    return size, leq, add, action


def _validate_cases():
    """Explicit F3^3 and Z12, and one mutant per mutation kind the benchmark uses."""
    size, leq, add, action = _f3_cubed_tables()

    def module(name, leq=leq, add=add):
        return (
            f"name {name}\nring zn 3\nmodule explicit size {size} zero 0\n"
            f"  leq {_table(leq)}\n  add {_table(add)}\n  action {_table(action)}\n"
        )

    def changed(table, cells):
        rows = [list(row) for row in table]
        for (a, b), v in cells.items():
            rows[a][b] = v
        return rows

    zadd = [[(a + b) % 12 for b in range(12)] for a in range(12)]
    zmul = [[a * b % 12 for b in range(12)] for a in range(12)]

    def ring(name, add=zadd, mul=zmul):
        return (
            f"name {name}\nring explicit order 12\n  add {_table(add)}\n"
            f"  mul {_table(mul)}\nmodule ideal-lattice\n"
        )

    return {
        "F3^3": module("F3^3-explicit"),
        "reflexivity": module("F3^3-reflexivity", leq=changed(leq, {(5, 5): 0})),
        "antisymmetry": module(
            "F3^3-antisymmetry", leq=changed(leq, {(7, 2): 1, (2, 7): 1})
        ),
        "monoid-identity": module("F3^3-monoid-identity", add=changed(add, {(0, 3): 4})),
        "monoid-commutativity": module(
            "F3^3-monoid-commutativity", add=changed(add, {(2, 5): add[2][5] ^ 1})
        ),
        "Z12": ring("Z12-explicit-ring"),
        "add-comm": ring("Z12-add-comm", add=changed(zadd, {(3, 7): 0})),
        "mul-comm": ring("Z12-mul-comm", mul=changed(zmul, {(4, 9): 5})),
    }


VALIDATE_BYTES = {
    "F3^3": (
        0,
        "instance: F3^3-explicit\nring: Z3 (order 3)\nlattice size: 28\n"
        "submodule elements: 28\nspectrum points: 27\nvalid: all le-module axioms hold\n",
        "",
    ),
    "reflexivity": (2, "", "error: reflexivity fails at (5,)\n"),
    "antisymmetry": (2, "", "error: antisymmetry fails at (2, 7)\n"),
    "monoid-identity": (2, "", "error: axiom monoid violated at (0, 3): identity fails\n"),
    "monoid-commutativity": (
        2,
        "",
        "error: axiom monoid violated at (2, 5): commutativity fails\n",
    ),
    "Z12": (
        0,
        "instance: Z12-explicit-ring\nring: R (order 12)\nlattice size: 6\n"
        "submodule elements: 6\nspectrum points: 2\nvalid: all le-module axioms hold\n",
        "",
    ),
    "add-comm": (2, "", "error: axiom add-comm violated at (3, 7)\n"),
    "mul-comm": (2, "", "error: axiom mul-comm violated at (4, 9)\n"),
}


@pytest.mark.parametrize("case", sorted(VALIDATE_BYTES))
def test_validate_output_bytes_are_pinned(case, tmp_path, capsys):
    # Accepted files print the same bytes and rejected ones name the same law
    # and witness as the cell-by-cell validator did.
    path = tmp_path / f"{case}.lem"
    path.write_text(_validate_cases()[case])
    rc = main(["validate", str(path)])
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == VALIDATE_BYTES[case]


def test_internal_error_exit_code(monkeypatch, capsys):
    # A star family without the empty set is a fault of lemspec, not of the input.
    def broken(mod):
        return (frozenset(spectra.spectrum(mod)),)

    monkeypatch.setattr(spectra, "star_family", broken)
    assert main(["verify", "Z6-ideal-lattice"]) == 4
    assert "internal error: star: empty set missing" in capsys.readouterr().err


def test_non_onto_map_exit_code(monkeypatch, capsys):
    # The map is onto on every non-degenerate module; keeping one of Z6's two
    # points leaves a prime of Z6 that no point maps to.
    real = natural_map.spectrum
    monkeypatch.setattr(natural_map, "spectrum", lambda mod: real(mod)[:1])
    assert main(["verify", "Z6-ideal-lattice"]) == 4
    assert "internal error: psi is not onto" in capsys.readouterr().err


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


USAGE_ERRORS = {
    "no command": [],
    "unknown command": ["bogus"],
    "invalid choice": ["verify", "--format", "bogus"],
    "invalid choice after =": ["topology", "Z6-ideal-lattice", "--which=bogus"],
    "unknown option": ["verify", "--bogus", "x"],
    "abbreviated option": ["verify", "--form", "structured"],
    "single-dash option": ["spec", "-f", "structured", "Z6-ideal-lattice"],
    "option without a value": ["catalog", "list", "--out"],
    "missing positional": ["validate"],
    "extra positional": ["validate", "Z6-ideal-lattice", "Z4-ideal-lattice"],
    "unknown catalog action": ["catalog", "lst"],
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_usage_errors_exit_1(case, capsys):
    assert main(USAGE_ERRORS[case]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_names_every_command(flag, capsys):
    assert main([flag]) == 0
    out = capsys.readouterr().out
    for name, command in COMMANDS.items():
        assert f"  {name}" in out and command.help in out


@pytest.mark.parametrize("name, flag", itertools.product(sorted(COMMANDS), ["-h", "--help"]))
def test_command_help_names_every_option(name, flag, capsys):
    # Help wins wherever it stands, even after an argument.
    assert main([name, "x", flag]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: lemspec {name} ")
    assert COMMANDS[name].positional.upper() in out
    for key, choices in [*COMMANDS[name].options.items(), ("out", ())]:
        assert f"--{key} " in out
        assert all(choice in out for choice in choices)


def test_option_forms_and_positions_parse_alike(tmp_path):
    forms = [
        ["topology", "Z6-ideal-lattice", "--which", "prime", "--format", "structured"],
        ["topology", "--which=prime", "Z6-ideal-lattice", "--format=structured"],
        ["topology", "--format", "text", "--which", "prime", "--format", "structured", "--", "Z6-ideal-lattice"],
    ]
    outputs = []
    for k, argv in enumerate(forms):
        target = tmp_path / f"{k}.json"
        assert main([argv[0], f"--out={target}", *argv[1:]]) == 0
        outputs.append(target.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    assert json.loads(outputs[0])["which"] == "prime"


def test_parse_args_defaults():
    handler, kwargs = parse_args(["verify"])
    assert handler is COMMANDS["verify"].handler
    assert kwargs == {"inputs": [], "format": "text", "out": None}
    _, kwargs = parse_args(["export-dot", "--", "-odd.lem"])
    assert kwargs == {"input": "-odd.lem", "target": "lattice", "out": None}


def test_commands_import_no_argparse_gettext_or_locale():
    # Those modules cost milliseconds on every command.  Without site
    # (-S) nothing else in the interpreter's start-up loads them.
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import io, sys, contextlib\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "import lemspec, lemspec.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = lemspec.cli.main(['verify', 'Z6-ideal-lattice', '--format', 'structured'])\n"
        "print(rc, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "0 []\n", "")

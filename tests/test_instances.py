import ast
import gc
import sys
import weakref
from pathlib import Path

import pytest

from lemspec import verify
from lemspec.errors import ModuleAxiomViolation, ParseError
from lemspec.instances import (
    IdealLatticeSpec,
    InstanceDescriptor,
    ZnSpec,
    build_instance,
    build_ring,
    catalog,
    catalog_names,
    cyclic_module_tables,
    find_descriptor,
    format_descriptor,
    ideal_lattice_le_module,
    mod_scaled_cyclic_tables,
    parse_descriptor,
    product_module_tables,
    submodule_lattice_le_module,
)
from lemspec.lattices import make_lattice
from lemspec.le_modules import colon_fibers, make_le_module, spectrum, submodule_elements
from lemspec.memo import release
from lemspec.natural_map import build_natural_map
from lemspec.spectra import build_topologies
from lemspec.verify import STATEMENTS
from lemspec.rings import make_zn, product_ring

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402
from shared_instances import _ladder_instances, f2xy_descriptor  # noqa: E402

EXPECTED_NAMES = (
    "Z2-ideal-lattice",
    "Z3-ideal-lattice",
    "Z4-ideal-lattice",
    "Z5-ideal-lattice",
    "Z6-ideal-lattice",
    "Z8-ideal-lattice",
    "Z9-ideal-lattice",
    "Z12-ideal-lattice",
    "Z30-ideal-lattice",
    "Z2xZ3-ideal-lattice",
    "Z2xZ2-ideal-lattice",
    "Z2xZ2-over-Z2-submodules",
    "Z4-over-Z4-submodules",
    "Z6-over-Z6-submodules",
    "Z2xZ4-over-Z4-submodules",
    "three-chain-over-Z2",
)


def test_catalog_names():
    assert catalog_names() == EXPECTED_NAMES


def test_find_descriptor():
    assert find_descriptor("Z6-ideal-lattice").name == "Z6-ideal-lattice"
    assert find_descriptor("nope") is None


def test_derived_data_lives_on_the_instance():
    mod = build_instance(find_descriptor("Z6-ideal-lattice"))
    for derive in (spectrum, colon_fibers, build_topologies, build_natural_map):
        assert derive(mod) is derive(mod), derive.__name__
    for stmt in STATEMENTS:
        stmt.check(mod)
    ref = weakref.ref(mod)
    del mod
    gc.collect()
    assert ref() is None, "a verified instance outlives its last reference"


def test_released_instance_goes_with_its_last_reference():
    # Z2 over Z4 has annihilator 2Z4, so its reduced ring is a ring of its own.
    mod = submodule_lattice_le_module(
        make_zn(4), *mod_scaled_cyclic_tables(2, 4), "Z2-over-Z4"
    )
    for stmt in STATEMENTS:
        stmt.check(mod)
    owned = (mod, mod.ring, build_natural_map(mod).quotient)
    assert owned[2] is not owned[1]
    refs = [weakref.ref(obj) for obj in owned]
    gc.disable()
    try:
        release(*owned)
        del mod, owned
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()


def test_built_modules_pass_full_validation(all_instances):
    """Built lattices skip make_le_module's law scan; check them against it."""
    for mod in (*all_instances, *_ladder_instances()):
        lat = mod.lattice
        rebuilt = make_le_module(
            mod.ring,
            make_lattice(lat.size, lat.leq),
            mod.add,
            mod.zero_m,
            mod.action,
            mod.name,
            mod.element_labels,
        )
        assert rebuilt == mod, mod.name


def test_built_verify_builds_at_most_two_sum_rows(monkeypatch):
    """A built module's sum is read a row at a time: every statement on F2^5
    over Z2 reads it only for (I e), once per ideal of Z2, so at most 2 of
    its 374 rows are built and no reader brings back the n² table."""
    mods = []

    def build(desc):
        mods.append(build_instance(desc))
        return mods[-1]

    monkeypatch.setattr(verify, "build_instance", build)
    report = verify.run_all([parse_descriptor(workloads.power_module_descriptor(2, 5))])
    assert len(report.results) == 20 and not report.falsified()
    (mod,) = mods
    assert len(mod.add) == 374
    assert sum(row is not None for row in mod.add._rows) <= 2


def test_built_submodule_elements_are_the_scan():
    """Every element of a built lattice is kept as a submodule element; the
    scan, run once the kept answer is released, finds the same."""
    f2_5 = build_instance(parse_descriptor(workloads.power_module_descriptor(2, 5)))
    built = [mod for mod in map(build_instance, catalog()) if mod.element_labels is not None]
    for mod in (*built, f2_5):
        kept = mod._memo[(submodule_elements,)]
        assert kept == tuple(range(mod.lattice.size)), mod.name
        release(mod)
        assert submodule_elements(mod) == kept, mod.name
        release(mod)


def _member_sets(mod):
    """The members of each element of a built lattice, read from its labels."""
    return [frozenset(ast.literal_eval(label)) for label in mod.element_labels]


def test_built_lattice_masks_are_the_subset_order(all_instances):
    """Ideal and submodule lattices come from member masks; their up-sets
    and down-sets must be those of the frozenset subset order, and their
    covers those of a scan over every triple where that is small."""
    texts = [workloads.power_module_descriptor(m, k) for m, k in ((2, 5), (3, 4), (8, 3))]
    extra = [build_instance(parse_descriptor(t)) for t in (*texts, f2xy_descriptor())]
    built = [mod for mod in all_instances if mod.element_labels is not None]
    assert len(built) == 15
    ladders = _ladder_instances()
    for mod in (*built, *ladders, *extra):
        sets = _member_sets(mod)
        n = len(sets)
        leq = [[a <= b for b in sets] for a in sets]
        up = tuple(sum(1 << b for b in range(n) if leq[a][b]) for a in range(n))
        down = tuple(sum(1 << a for a in range(n) if leq[a][b]) for b in range(n))
        lat = mod.lattice
        assert (lat.size, lat.up, lat.down) == (n, up, down), mod.name
        assert sets[lat.bottom] == min(sets, key=len) and sets[lat.top] == max(sets, key=len)
        if n <= 64:
            between = lambda a, b: any(leq[a][z] and leq[z][b] for z in set(range(n)) - {a, b})
            covers = [(a, b) for a in range(n) for b in range(n) if a != b and leq[a][b] and not between(a, b)]
            assert list(lat.covers()) == covers, mod.name
    release(*ladders, *extra)


def _closed_subsets(spec):
    """Every subset of a classical module's elements that holds zero and is
    closed under + and the action, by a scan over all subsets, in canonical
    order."""
    subsets = (frozenset(x for x in range(spec.size) if bits >> x & 1) for bits in range(1 << spec.size))
    found = [
        s
        for s in subsets
        if spec.zero in s
        and all(spec.add[x][y] in s for x in s for y in s)
        and all(row[x] in s for row in spec.action for x in s)
    ]
    return sorted(found, key=lambda s: (len(s), sorted(s)))


@pytest.mark.parametrize("mk", [*workloads.POINT_LADDER, (2, 5), (3, 4)])
def test_submodule_search_finds_the_brute_force_submodules(mk):
    mod = build_instance(parse_descriptor(workloads.power_module_descriptor(*mk)))
    assert _member_sets(mod) == workloads.submodules(*mk)
    release(mod)


def test_submodule_search_finds_every_closed_subset():
    descs = [d for d in catalog() if d.name.endswith("-submodules")]
    assert len(descs) == 4
    for desc in descs:
        mod = build_instance(desc)
        assert _member_sets(mod) == _closed_subsets(desc.module), desc.name
        release(mod)


def test_every_catalog_entry_builds(all_instances):
    assert len(all_instances) == 16
    assert all(mod.lattice.size >= 2 for mod in all_instances)


def test_descriptor_round_trip():
    for desc in catalog():
        assert parse_descriptor(format_descriptor(desc)) == desc


def test_parse_with_comments_and_layout():
    text = """
    # a tiny instance
    name demo
    ring zn 6   # integers mod 6
    module ideal-lattice
    """
    desc = parse_descriptor(text)
    assert desc == InstanceDescriptor("demo", ZnSpec(6), IdealLatticeSpec())


def test_parse_product_ring():
    text = "name p\nring product ( zn 2 , zn 3 )\nmodule ideal-lattice\n"
    desc = parse_descriptor(text)
    ring = build_ring(desc.ring)
    assert ring.order == 6


def test_parse_explicit_ring():
    text = (
        "name e\n"
        "ring explicit order 2 add 0 1 ; 1 0 mul 0 0 ; 0 1\n"
        "module ideal-lattice\n"
    )
    mod = build_instance(parse_descriptor(text))
    assert mod.ring.order == 2
    # Leading zeros, signs, underscores and non-ASCII decimal digits
    # (Arabic-Indic three, fullwidth zero) mean what int() makes of them,
    # and two spellings of one value read alike.
    text = (
        "name e\nring explicit order 2\n"
        "  add 07 +3 ; 1_0 ٣ ; 7 3\n"
        "  mul 0 ０ ; 0 1\n"
        "module ideal-lattice\n"
    )
    ring = parse_descriptor(text).ring
    assert ring.add == ((7, 3), (10, 3), (7, 3))
    assert ring.mul == ((0, 0), (0, 1))


@pytest.mark.parametrize(
    "text,fragment,line",
    [
        ("name x\nbogus zn 2\n", "unknown keyword 'bogus'", 2),
        ("name x\nname y\nring zn 2\nmodule ideal-lattice\n", "duplicate 'name'", 2),
        ("name x\nring zn 2\n", "missing 'module'", None),
        ("name x\nring zn two\nmodule ideal-lattice\n", "expected integer", 2),
        # A digit that is no decimal digit (superscript two), after entries
        # already read.
        (
            "name x\nring explicit order 2 add 0 1 ; 1 0\n mul 0 0 ; 0 ²\n"
            "module ideal-lattice\n",
            "expected integer or ';', got '²'",
            3,
        ),
        ("name x\nring frobnicate 2\nmodule ideal-lattice\n", "unknown ring form", 2),
        ("name x\nring zn 2\nmodule mystery\n", "unknown module form", 3),
    ],
)
def test_parse_errors(text, fragment, line):
    with pytest.raises(ParseError) as err:
        parse_descriptor(text)
    assert fragment in str(err.value)
    if line is not None:
        assert err.value.line == line


def test_ideal_lattice_labels():
    mod = ideal_lattice_le_module(make_zn(6), "demo")
    assert mod.label(0) == "{0}"
    assert mod.label(2) == "{0,2,4}"
    assert mod.top == 3


def test_submodule_lattice_agrees_with_ideal_lattice():
    """The ideals of R are the submodules of R over itself, so the two
    builders give the same le-module, element order and labels included."""
    rings = {
        "Z6": make_zn(6),
        "Z12": make_zn(12),
        "Z30": make_zn(30),
        "Z2xZ2": product_ring(make_zn(2), make_zn(2)),
        "Z2xZ4": product_ring(make_zn(2), make_zn(4)),
        "F2xy": build_ring(parse_descriptor(f2xy_descriptor()).ring),
    }
    for name, ring in rings.items():
        mod = submodule_lattice_le_module(ring, ring.order, ring.zero, ring.add, ring.mul, name)
        assert mod == ideal_lattice_le_module(ring, name), name
        release(mod, ring)


def test_classical_module_validation():
    # broken action: scalar 1 does not act as the identity
    n = 2
    add = ((0, 1), (1, 0))
    action = ((0, 0), (0, 0))
    with pytest.raises(ModuleAxiomViolation) as err:
        submodule_lattice_le_module(make_zn(2), n, 0, add, action, "bad")
    assert err.value.law == "unit-action"


def test_classical_module_group_validation():
    add = ((1, 1), (1, 0))
    action = ((0, 0), (0, 1))
    with pytest.raises(ModuleAxiomViolation) as err:
        submodule_lattice_le_module(make_zn(2), 2, 0, add, action, "bad")
    assert err.value.law == "group-identity"


def test_mod_scaled_cyclic_tables():
    size, zero, add, action = mod_scaled_cyclic_tables(2, 4)
    assert (size, zero) == (2, 0)
    assert add == ((0, 1), (1, 0))
    assert action == ((0, 0), (0, 1), (0, 0), (0, 1))
    with pytest.raises(ValueError):
        mod_scaled_cyclic_tables(3, 4)


def test_product_module_tables():
    a = cyclic_module_tables(2)
    b = cyclic_module_tables(2)
    size, zero, add, action = product_module_tables(a, b)
    assert size == 4 and zero == 0
    assert add[1][2] == 3  # (0,1) + (1,0) = (1,1)
    with pytest.raises(ValueError):
        product_module_tables(cyclic_module_tables(2), cyclic_module_tables(3))

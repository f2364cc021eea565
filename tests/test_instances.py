import gc
import weakref

import pytest

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
from lemspec.le_modules import colon_fibers, spectrum
from lemspec.memo import release
from lemspec.natural_map import build_natural_map
from lemspec.spectra import basis_checks, build_topologies
from lemspec.verify import STATEMENTS
from lemspec.rings import make_zn

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
    for derive in (spectrum, colon_fibers, build_topologies, basis_checks, build_natural_map):
        assert derive(mod) is derive(mod), derive.__name__
    for stmt in STATEMENTS:
        stmt.check(mod)
    ref = weakref.ref(mod)
    del mod
    gc.collect()
    assert ref() is None, "a verified instance outlives its last reference"


def test_released_instance_goes_with_its_last_reference():
    mod = build_instance(find_descriptor("Z6-ideal-lattice"))
    for stmt in STATEMENTS:
        stmt.check(mod)
    owned = (mod, mod.ring, build_natural_map(mod).quotient)
    refs = [weakref.ref(obj) for obj in owned]
    gc.disable()
    try:
        release(*owned)
        del mod, owned
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()


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


@pytest.mark.parametrize(
    "text,fragment,line",
    [
        ("name x\nbogus zn 2\n", "unknown keyword 'bogus'", 2),
        ("name x\nname y\nring zn 2\nmodule ideal-lattice\n", "duplicate 'name'", 2),
        ("name x\nring zn 2\n", "missing 'module'", None),
        ("name x\nring zn two\nmodule ideal-lattice\n", "expected integer", 2),
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
    size, zero, add, action = cyclic_module_tables(6)
    mod = submodule_lattice_le_module(make_zn(6), size, zero, add, action, "twin")
    ideal_mod = ideal_lattice_le_module(make_zn(6), "ref")
    assert {mod.label(p) for p in spectrum(mod)} == {
        ideal_mod.label(p) for p in spectrum(ideal_mod)
    }


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

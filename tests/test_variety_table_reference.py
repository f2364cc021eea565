"""The per-instance variety tables against the definitions.

``spectra.varieties`` and ``spectra.variety_stars`` hold V(x) and V*(x) for
every lattice element x.  The references are those of
``frozenset_reference.ModuleSets``: V(x) is the points above x, read from
``leq``, and V*(x) the points whose colon set contains that of x.
"""

import pytest
from frozenset_reference import ModuleSets
from shared_instances import DESCRIPTORS, _ladder_instances

from lemspec import spectra
from lemspec.instances import build_instance, catalog
from lemspec.le_modules import LeModuleInstance
from lemspec.memo import release

NAMES = (
    *(d.name for d in catalog()),
    "Z840-ideal-lattice",
    "Z2^4-over-Z2-submodules",
    "F2xy-ideal-lattice",
)


def _assert_tables_match_the_definitions(mod: LeModuleInstance) -> None:
    ref = ModuleSets(mod)
    v, vs = spectra.varieties(mod), spectra.variety_stars(mod)
    assert len(v) == len(vs) == mod.lattice.size, mod.name
    for x in range(mod.lattice.size):
        assert ref.set(v[x]) == ref.v[x], (mod.name, x)
        assert ref.set(vs[x]) == ref.vs[x], (mod.name, x)


@pytest.mark.parametrize("name", NAMES)
def test_tables_match_the_definitions(name):
    mod = build_instance(DESCRIPTORS[name])
    _assert_tables_match_the_definitions(mod)
    release(mod, mod.ring)


def test_tables_match_the_definitions_on_the_ladders():
    for mod in _ladder_instances():
        _assert_tables_match_the_definitions(mod)
        release(mod, mod.ring)

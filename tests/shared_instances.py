"""Instance lists that several test modules share.

Kept apart from the test modules, as ``frozenset_reference`` is, so that a
test module imports these without importing another test module:

- ``_ladder_instances``: the ideal lattices of Z32-Z45 and the submodule
  lattices of (Z_m)^k, the instances of the ring and point ladders;
- ``ANNIHILATED``: submodule lattices whose annihilator is not 0;
- ``DESCRIPTORS``: the catalog, Z840, three power modules, the ideal
  lattice of F2[x, y]/(x, y)^2 (``f2xy_descriptor``, ring ``_f2_xy``) and
  ``ANNIHILATED``, by name.
"""

from __future__ import annotations

import sys
from pathlib import Path

from lemspec.instances import (
    InstanceDescriptor,
    SubmoduleLatticeSpec,
    ZnSpec,
    catalog,
    cyclic_module_tables,
    ideal_lattice_le_module,
    mod_scaled_cyclic_tables,
    parse_descriptor,
    product_module_tables,
    submodule_lattice_le_module,
)
from lemspec.le_modules import LeModuleInstance
from lemspec.rings import FiniteRing, make_ring, make_zn

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402


def _ladder_instances() -> list[LeModuleInstance]:
    """The ideal lattices of Z32-Z45 and the submodule lattices of (Z_m)^k."""
    mods = [ideal_lattice_le_module(make_zn(n), f"Z{n}") for n in (32, 36, 42, 45)]
    for m, k in ((4, 2), (5, 2), (7, 2), (2, 3)):
        tables = cyclic_module_tables(m)
        power = tables
        for _ in range(k - 1):
            power = product_module_tables(power, tables)
        mods.append(submodule_lattice_le_module(make_zn(m), *power, f"Z{m}^{k}"))
    return mods


def _f2_xy() -> FiniteRing:
    # F2[x, y]/(x, y)^2: a + bx + cy is index a + 2b + 4c; its maximal ideal
    # (x, y) is not principal.
    els = range(8)
    mul = [
        [(a & b & 1) | ((a & 1) * (b & 6) ^ (b & 1) * (a & 6)) for b in els] for a in els
    ]
    return make_ring(8, [[a ^ b for b in els] for a in els], mul, "F2[x,y]/(x,y)^2")


def f2xy_descriptor() -> str:
    """The ideal lattice of F2[x, y]/(x, y)^2, whose ideal (x, y) is not
    principal, from explicit tables."""
    ring = _f2_xy()
    return workloads.explicit_ring_descriptor("F2xy-ideal-lattice", 8, ring.add, ring.mul)


def annihilated_descriptor(a: int, b: int, m: int) -> InstanceDescriptor:
    """The submodule lattice of Z_a + Z_b over Z_m, for a and b dividing m:
    its annihilator is lcm(a, b)Z_m, which is not 0 when the lcm is less
    than m, so the natural map goes to a proper quotient ring."""
    tables = product_module_tables(mod_scaled_cyclic_tables(a, m), mod_scaled_cyclic_tables(b, m))
    name = f"Z{a}^2-over-Z{m}" if a == b else f"Z{a}xZ{b}-over-Z{m}"
    return InstanceDescriptor(name, ZnSpec(m), SubmoduleLatticeSpec(*tables))


# No catalog instance has a nonzero annihilator.
ANNIHILATED = tuple(annihilated_descriptor(*amb) for amb in ((6, 6, 12), (4, 6, 24), (6, 10, 60)))


def _descriptors() -> dict:
    texts = [
        "name Z840-ideal-lattice\nring zn 840\nmodule ideal-lattice\n",
        *(workloads.power_module_descriptor(m, k) for m, k in ((2, 4), (4, 3), (3, 4))),
        f2xy_descriptor(),
    ]
    descs = [*catalog(), *map(parse_descriptor, texts), *ANNIHILATED]
    return {d.name: d for d in descs}


DESCRIPTORS = _descriptors()

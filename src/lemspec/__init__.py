"""Finite lattice-enriched modules over finite commutative rings.

The package builds rings, bounded lattices, and validated module
instances from operation tables; computes prime spectra, Zariski-style
topologies, and the natural map into the spectrum of the reduced ring;
and checks a catalog of structural statements instance by instance.
"""

from .errors import (
    AxiomViolation,
    EmptyFamily,
    ImproperIdeal,
    InternalError,
    LemspecError,
    ModuleAxiomViolation,
    NotALattice,
    NotAPoset,
    NotTopLeModule,
    ParseError,
    TopologyAxiomViolation,
    Unbounded,
    UsageError,
    ZeroRing,
)
from .instances import (
    InstanceDescriptor,
    build_instance,
    catalog,
    catalog_names,
    format_descriptor,
    ideal_lattice_le_module,
    parse_descriptor,
    submodule_lattice_le_module,
)
from .lattices import FiniteBoundedLattice, chain_lattice, join_all, make_lattice, meet_all
from .le_modules import (
    LeModuleInstance,
    annihilator,
    colon,
    ideal_action,
    is_submodule_element,
    make_le_module,
    spectrum,
    submodule_elements,
    sum_submodule_elements,
)
from .natural_map import (
    NaturalMap,
    build_natural_map,
    connectedness_equivalence,
    injectivity_battery,
    is_multiplication_le_module,
    spectral_battery,
)
from .rings import (
    FiniteRing,
    Ideal,
    RingSpectrum,
    all_ideals,
    idempotents,
    ideal_product,
    is_ideal,
    is_prime_ideal,
    make_ring,
    make_zn,
    maximal_ideals,
    minimal_primes,
    principal_ideal,
    product_ring,
    quotient_ring,
    spec_ring,
    variety_ring,
)
from .spectra import (
    SpectrumTopology,
    build_topologies,
    closure,
    decode,
    generic_points,
    irreducible_components,
    is_irreducible,
    is_top_le_module,
    point_set_properties,
)
from .verify import VerificationReport, run_all, serialize_report

__version__ = "0.1.0"

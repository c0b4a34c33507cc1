"""Exact models of the rank-one pro-p Hecke algebras, their blocks and module
theory, the chain-of-lines parameter map, and the windowed endomorphism DGA."""

from .gf import FieldCtx, field_create
from .torus import GroupKind, TorusCtx, lift_character, orbit_class, orbit_pairs
from .hecke import (
    HeckeElt,
    enumerate_supersingular,
    hecke_mul,
    idempotent,
    is_central,
    orbit_idempotent,
)
from .models import (
    ModelMap,
    build_model,
    build_tilde_z,
    center_elements,
    freeness_check,
    os_resolution_check,
    verify_model,
)
from .fdmod import (
    FDModule,
    StableAlgebra,
    decompose,
    ext_S_specialized,
    ext_group,
    generator_test,
    shift,
    stable_endo_nodes,
    stable_endo_supersingular,
    stable_hom,
)
from .scheme import (
    ChainPoint,
    ChainScheme,
    SpecZPoint,
    L_map,
    build_scheme,
    correspondence_table,
    langlands_parameter,
    phi,
    phi_prime,
    singular_points,
)
from .dga import WindowHomElt, degree0_check, derivation_check, dga_cohomology, dga_d, dga_mul
from .cli import RunConfig, emit, run

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

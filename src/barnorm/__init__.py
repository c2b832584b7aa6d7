"""Exact computation in bar complexes of finitely generated groups.

Group models with word metrics and sphere enumeration, sparse chains with
exact rational coefficients, the boundary operator and push-forwards along
homomorphisms, polynomially weighted lp norms with their comparison and
functoriality estimates, the diffusion cone operator with its chain map,
and the explicit rank-2 free group chain bounding a generator edge.
"""

from .chains import (
    Chain,
    GroupHomomorphism,
    KernelControl,
    boundary,
    chain_from_records,
    chain_to_records,
    identity_homomorphism,
    kernel_control_constant,
    push_forward,
    with_kernel_control,
)
from .diffusion import AnnuliConfig, DiffusionOperator
from .errors import CollisionDetected, EmptyAnnulus, EnumerationTooLarge
from .groups import (
    DEFAULT_ENUM_CAP,
    Cyclic,
    DirectProduct,
    FreeAbelian,
    FreeGroup,
    GroupModel,
    growth_constant,
    parse_model,
)
from .norms import (
    INF,
    FiberedFamily,
    NormParams,
    check_contractivity,
    comparison_exponent,
    diameter_map,
    fibered_pushforward_norm,
    pushforward_holder_bound,
    pushforward_norm_bound,
    verify_comparison,
    verify_pushforward_estimate,
    weighted_norm,
    weighted_power_sum,
)
from .vanishing import LevelData, VanishingConstruction, suffix_pair

__version__ = "0.1.0"

__all__ = [
    "AnnuliConfig",
    "Chain",
    "CollisionDetected",
    "Cyclic",
    "DEFAULT_ENUM_CAP",
    "DiffusionOperator",
    "DirectProduct",
    "EmptyAnnulus",
    "EnumerationTooLarge",
    "FiberedFamily",
    "FreeAbelian",
    "FreeGroup",
    "GroupHomomorphism",
    "GroupModel",
    "INF",
    "KernelControl",
    "LevelData",
    "NormParams",
    "VanishingConstruction",
    "boundary",
    "chain_from_records",
    "chain_to_records",
    "check_contractivity",
    "comparison_exponent",
    "diameter_map",
    "fibered_pushforward_norm",
    "growth_constant",
    "identity_homomorphism",
    "kernel_control_constant",
    "parse_model",
    "push_forward",
    "pushforward_holder_bound",
    "pushforward_norm_bound",
    "suffix_pair",
    "verify_comparison",
    "verify_pushforward_estimate",
    "weighted_norm",
    "weighted_power_sum",
    "with_kernel_control",
]

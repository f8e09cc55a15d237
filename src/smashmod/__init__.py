"""Exact symbolic kernel for modules over polynomial vector fields.

The package computes inside the Lie algebra of function # vector-field
pairs over a polynomial ring with exact rational arithmetic: annihilator
elements and their closed forms, bracket identities, finite modules given
by differential-operator action tensors, annihilation decisions, the
differential-operator order of the action (with an independent commutator
oracle), and the localized action with its finite series.  Everything is
checked with zero tolerance; there is no floating point anywhere.
"""

__version__ = "0.1.0"

from .poly import (
    Coeff,
    Derivation,
    DimensionMismatch,
    MultiIndex,
    Poly,
    PolyError,
    PolyParseError,
    multi_indices,
    parse_derivation,
    parse_poly,
    partial_power,
)
from .smash import (
    IDENTITY_IDS,
    SmashElement,
    VerificationReport,
    from_term,
    function_commutator,
    omega,
    omega_definitional,
    omega_multi,
    omega_multi_definitional,
    smash_bracket,
    tensor_act,
    verify_identity,
)
from .modules import (
    AVModule,
    Matrix,
    ModuleElement,
    ModuleSchemaError,
    ValidationError,
    differential_forms,
    dual_module,
    exterior_power,
    jet_module,
    min_annihilating_order,
    module_from_dict,
    module_to_dict,
    oracle_order,
    tangent_adjoint,
    tensor_product,
    trivial_dmodule,
    twist,
    zoo,
)
from .localize import (
    LOCALIZED_CHECK_IDS,
    LocalizedDerivation,
    LocalizedModule,
    LocalizedModuleElement,
    LocalizedPoly,
    apply_localized_derivation,
    extend_base,
    verify_localized,
)
from .suites import RunConfig, SUITE_NAMES, run_suite

__all__ = [
    "__version__",
    "Coeff", "Derivation", "DimensionMismatch", "MultiIndex", "Poly",
    "PolyError", "PolyParseError", "multi_indices", "parse_derivation",
    "parse_poly", "partial_power",
    "IDENTITY_IDS", "SmashElement", "VerificationReport", "from_term",
    "function_commutator", "omega", "omega_definitional", "omega_multi",
    "omega_multi_definitional", "smash_bracket", "tensor_act", "verify_identity",
    "AVModule", "Matrix", "ModuleElement", "ModuleSchemaError", "ValidationError",
    "differential_forms", "dual_module", "exterior_power", "jet_module",
    "min_annihilating_order", "module_from_dict", "module_to_dict", "oracle_order",
    "tangent_adjoint", "tensor_product", "trivial_dmodule", "twist", "zoo",
    "LOCALIZED_CHECK_IDS", "LocalizedDerivation", "LocalizedModule",
    "LocalizedModuleElement", "LocalizedPoly",
    "apply_localized_derivation", "extend_base", "verify_localized",
    "RunConfig", "SUITE_NAMES", "run_suite",
]

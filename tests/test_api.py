"""The package's public names: each submodule's ``__all__``, and nothing else."""

import importlib

import smashmod

# the package API; a name added to or dropped from a submodule's __all__ shows here
PUBLIC_NAMES = {
    "__version__",
    # poly
    "Coeff", "Derivation", "DimensionMismatch", "MultiIndex", "Poly", "PolyError",
    "PolyParseError", "multi_indices", "parse_derivation", "parse_poly", "partial_power",
    # smash
    "IDENTITY_IDS", "SmashElement", "VerificationReport", "from_term",
    "function_commutator", "omega", "omega_definitional", "omega_multi",
    "omega_multi_definitional", "smash_bracket", "tensor_act", "verify_identity",
    # modules
    "AVModule", "Matrix", "ModuleElement", "ModuleSchemaError", "ValidationError",
    "differential_forms", "dual_module", "exterior_power", "jet_module",
    "min_annihilating_order", "module_from_dict", "module_to_dict", "oracle_order",
    "tangent_adjoint", "tensor_product", "trivial_dmodule", "twist", "zoo",
    # localize
    "LOCALIZED_CHECK_IDS", "LocalizedDerivation", "LocalizedModule",
    "LocalizedModuleElement", "LocalizedPoly", "apply_localized_derivation",
    "extend_base", "verify_localized",
    # suites
    "RunConfig", "SUITE_NAMES", "run_suite",
}

LAYERS = ("poly", "smash", "modules", "localize", "suites")


def test_package_names_are_pinned_and_unique():
    assert len(PUBLIC_NAMES) == 53
    assert set(smashmod.__all__) == PUBLIC_NAMES
    assert len(smashmod.__all__) == len(set(smashmod.__all__))


def test_each_name_is_its_submodule_object():
    owners = {}
    for layer in LAYERS:
        module = importlib.import_module(f"smashmod.{layer}")
        for name in module.__all__:
            assert name not in owners, f"{name} in both {owners[name]} and {layer}"
            owners[name] = layer
            assert getattr(smashmod, name) is getattr(module, name)
    assert set(owners) == PUBLIC_NAMES - {"__version__"}


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from smashmod import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == PUBLIC_NAMES

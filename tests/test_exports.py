"""Every exported name resolves, so ``from lagspec.X import *`` works."""

import importlib
import pkgutil

import pytest

import lagspec

MODULES = ["lagspec"] + [f"lagspec.{m.name}"
                         for m in pkgutil.iter_modules(lagspec.__path__)]

# what the package bound before it took its names from the modules'
# ``__all__``: 38 functions and classes, and 6 modules
EARLIER_NAMES = {
    "LagParams", "eval_poly_standard", "eval_poly_modified",
    "eval_poly_derivative", "eval_fun_standard", "eval_fun_modified",
    "eval_fun_derivative", "fun_series_stable", "fun_value_deriv_stable",
    "norm_const", "GaussRule", "RuleKind", "nodes_eigen_seed",
    "refine_newton", "gauss_rule", "gauss_radau_rule", "cached_gauss_rule",
    "HpContext", "hp_eval", "ErrorBoundInput", "ErrorBoundResult", "Regime",
    "zeta_envelopes", "energy_bound", "abs_error_bound",
    "simulate_error_propagation", "measure_actual_error", "ModelProblem",
    "SpectralSolution", "ErrorReport", "assemble_system", "project_rhs",
    "solve", "error_norms", "optimal_beta_exponential", "beta_sweep",
    "CaseSetup", "make_case",
    "recurrence", "quadrature", "oracle", "errmodel", "spectral", "problems",
}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", [])
               if not hasattr(module, n)]
    assert missing == []
    exec(f"from {name} import *", {})


def test_package_names_are_exported_where_defined():
    # a package name is a module, or is in the __all__ of exactly one
    # module, and is that module's object
    for name in lagspec.__all__:
        obj = getattr(lagspec, name)
        submodule = f"lagspec.{name}"
        if submodule in MODULES:
            assert obj is importlib.import_module(submodule)
            continue
        homes = [m for m in MODULES[1:]
                 if name in getattr(importlib.import_module(m), "__all__", [])]
        assert len(homes) == 1, f"{name} in the __all__ of {homes}"
        assert obj is getattr(importlib.import_module(homes[0]), name)


def test_star_import_binds_every_earlier_name():
    namespace = {}
    exec("from lagspec import *", namespace)
    assert EARLIER_NAMES <= namespace.keys()
    assert len(EARLIER_NAMES) == 44


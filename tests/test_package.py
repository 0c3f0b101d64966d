"""The package's public API is the union of its modules' __all__ lists."""

import inspect

import pytest

import dehnfill
from dehnfill import (curvature, gluing, lattice, linearized, norms, profiles,
                      solver)

MODULES = (curvature, gluing, lattice, linearized, norms, profiles, solver)

# the 63 names the package exported when its __init__ still listed them by hand
EXPORTED = {
    "__version__", "ApproximateSolution", "BlackHoleProfile", "BudgetReport",
    "CurvatureReport", "CuspProfile", "DecayScanResult", "DehnFillError",
    "DehnFillingData", "EinsteinSolveResult", "FillingMetric", "FlatLattice",
    "GeodesicClass", "GluedProfile", "InvariantDeformation", "NewtonConfig",
    "ODESystemL", "OperatorComparison", "SampledProfile", "WeightSpec",
    "apply_L", "assemble_L_blackhole", "assemble_L_cusp", "black_hole_metric",
    "build_approximate_solution", "bump_deformation", "closing_parameters",
    "compare_operators", "curvature_action", "cusp_metric",
    "cutoff_deficit_diag", "decay_scan", "decay_weight",
    "decompose_quadratic", "default_core_scale", "default_delta",
    "deficit_norm", "discrete_holder_seminorm", "einstein_residual",
    "euler_reconstruct", "eval_profile", "extend_to_basis",
    "fd_curvature_oracle", "filling_data", "filling_from_lengths",
    "fitted_mass", "geodesic_length", "glued_metric", "indicial_roots",
    "make_glued_profile", "metric_deformation", "newton_solve",
    "oscillation_bound", "oscillation_closed_form", "perturbation_budget",
    "phi_c", "phi_c_raw", "quotient_generators", "ricci_and_deficit",
    "sectional_curvatures", "sectional_matrix", "spectral_bound",
    "trace_free_top_eigenvalue",
}


def test_package_all_has_no_duplicates():
    assert len(dehnfill.__all__) == len(set(dehnfill.__all__))


def test_package_all_is_the_union_of_the_module_lists():
    union = {name for module in MODULES for name in module.__all__}
    assert set(dehnfill.__all__) == {"__version__", "DehnFillError"} | union


def test_no_name_sits_in_two_module_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_lists_only_what_it_defines(module):
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__module__ == module.__name__, name
        assert getattr(dehnfill, name) is obj


def test_package_exports_every_name_it_exported_before():
    assert EXPORTED <= set(dehnfill.__all__)


def test_star_import_of_profiles_binds_no_helper_modules():
    namespace = {}
    exec("from dehnfill.profiles import *", namespace)
    assert "np" not in namespace
    assert "math" not in namespace


def test_star_import_and_dir_give_the_exported_names():
    namespace = {}
    exec("from dehnfill import *", namespace)
    assert set(namespace) - {"__builtins__"} == EXPORTED
    assert len(dehnfill.__all__) == len(EXPORTED) == 63
    assert EXPORTED <= set(dir(dehnfill))

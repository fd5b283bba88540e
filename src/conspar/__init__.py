"""Solvers for 1-D drift-diffusion problems closed by conservation laws.

Uniformly parabolic problems are evolved spectrally under coupled
non-local boundary conditions equivalent to their conservation laws;
boundary-degenerate models (gene-frequency and epidemic diffusions) are
handled by elliptic regularization, whose vanishing limit is a measure
with atoms at the degenerate endpoints. A Monte Carlo simulation of the
matching diffusion provides an independent cross-check.
"""

import importlib

__version__ = "0.1.0"

# Each public name, by the submodule that defines it. Names and submodules
# are imported on first access (PEP 562), so ``import conspar`` loads no
# solver and no scipy.
_EXPORTS = {
    "errors": (
        "ConsparError",
        "ConfigError",
        "CouplingError",
        "DegeneracyError",
        "DomainBoundsError",
        "EvaluationError",
        "ExpressionError",
        "InputError",
        "NumericalError",
        "ParameterError",
        "RegularityTierError",
        "TransformError",
        "ValidationFailure",
    ),
    "expressions": ("Expression", "parse_expression"),
    "fields": (
        "CoefficientField",
        "SisCoefficients",
        "constant_field",
        "cumulative_integral",
        "exponential_weight",
        "field_from_callable",
        "field_from_expression",
        "field_from_table",
        "fixation_probability",
        "integrating_factor",
        "sis_coefficients",
    ),
    "sturm": (
        "BoundaryCoupling",
        "DEFAULT_GRID",
        "EigenSystem",
        "Grid",
        "SLProblem",
        "Trajectory",
        "assemble",
        "coupling_from_kernel",
        "eigensolve",
        "evolve",
        "make_coupling",
        "neumann_coupling",
        "positivity_check",
        "steady_state",
        "weighted_inner",
    ),
    "conservative": (
        "ConservativeProblem",
        "MomentPrescription",
        "build_partially_conservative",
        "build_totally_conservative",
        "certify_intrinsic_positivity",
        "conservation_residual",
        "duhamel_evolve",
        "prescribe_moments",
        "prescribed_moments_evolve",
        "prescribed_moments_reduce",
        "selfadjoint_reduction",
        "time_function",
    ),
    "degenerate": (
        "BoundaryMeasure",
        "BoundaryTraces",
        "DegenerateModel",
        "InteriorSolution",
        "RegularizationLadder",
        "decompose_measure",
        "from_selfadjoint",
        "kimura_model",
        "masses_from_boundary_flux",
        "masses_from_conservation",
        "sis_atom_mass",
        "sis_model",
        "solve_interior",
        "solve_regularized",
        "to_selfadjoint",
        "vanishing_limit",
        "weak_form_residual",
        "separable_test_function",
        "canonical_test_directions",
    ),
    "oracle": (
        "EmpiricalMeasure",
        "SdeSpec",
        "compare_measures",
        "kimura_sde",
        "simulate",
        "sis_sde",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_OWNER]


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})

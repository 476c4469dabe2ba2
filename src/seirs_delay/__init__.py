"""SEIRS epidemic dynamics with a constant latency delay.

Deterministic and stochastic simulation of a four-compartment model whose
exposed class resolves after a fixed delay, together with the machinery to
certify or refute stability of its equilibria: closed-form and numeric
eigenvalues, Routh-Hurwitz tests, delay margins from the characteristic
quasi-polynomials, a quadratic Lyapunov certificate for the stochastic
system, and Monte Carlo concentration checks.

The names below are resolved on first use (PEP 562), so importing the
package loads none of its modules, and a caller of the scalar analyses
never loads numpy or the integrators.
"""
import importlib

__version__ = "0.1.0"

# home module of each exported name
_EXPORTS = {
    "model_core": (
        "InitialCondition", "NoCrossingError", "Params", "State",
        "ValidationError", "ValidationReport", "Violation",
        "make_initial_condition", "make_run_state", "make_state",
        "validate_params", "default_step"),
    "equilibria": (
        "EquilibriumSet", "coexistence_equilibrium", "equilibrium_residual",
        "equilibrium_set", "free_disease_equilibrium", "reproduction_number"),
    "det_integrator": (
        "IntegrationError", "Trajectory", "integrate_dde",
        "integrate_dde_cascade", "integrate_ode",
        "integrate_scalar_comparison"),
    "linear_stability": (
        "Criterion", "QuasiPolynomial", "StabilityVerdict",
        "char_cubic_coefficients", "char_poly_delay_coexistence",
        "char_poly_delay_free", "free_disease_eigenvalues_closed_form",
        "jacobian_coexistence", "jacobian_free_disease", "matrix_eigenvalues",
        "routh_hurwitz_coexistence"),
    "delay_margin": (
        "CrossingReport", "CubicABC", "cubic_real_roots",
        "deg2_crossing", "deg2_instability_possible", "deg3_abc",
        "deg3_crossing", "deg3_instability_possible", "free_disease_margin",
        "verify_crossing"),
    "lyapunov": (
        "LyapunovCertificate", "lyapunov_certificate", "lyapunov_condition",
        "lyapunov_margin"),
    "sde_simulator": (
        "ConcentrationReport", "EnsembleSummary", "ExcursionError",
        "InsufficientExceedances", "Seed", "StochasticStabilityReport",
        "concentration_check", "deterministic_euler", "ensemble",
        "simulate_sde", "stochastic_stability_experiment"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value

"""SEIRS epidemic dynamics with a constant latency delay.

Deterministic and stochastic simulation of a four-compartment model whose
exposed class resolves after a fixed delay, together with the machinery to
certify or refute stability of its equilibria: closed-form and numeric
eigenvalues, Routh-Hurwitz tests, delay margins from the characteristic
quasi-polynomials, a quadratic Lyapunov certificate for the stochastic
system, and Monte Carlo concentration checks.
"""

__version__ = "0.1.0"

from .model_core import (InitialCondition, Params, State, ValidationError,
                         ValidationReport, Violation, make_initial_condition,
                         make_run_state, make_state, validate_params)
from .equilibria import (EquilibriumSet, coexistence_equilibrium,
                         equilibrium_residual, equilibrium_set,
                         free_disease_equilibrium, reproduction_number)
from .det_integrator import (IntegrationError, Trajectory, default_step,
                             integrate_dde, integrate_dde_cascade,
                             integrate_ode, integrate_scalar_comparison)
from .linear_stability import (Criterion, QuasiPolynomial, StabilityVerdict,
                               char_cubic_coefficients,
                               char_poly_delay_coexistence,
                               char_poly_delay_free,
                               free_disease_eigenvalues_closed_form,
                               jacobian_coexistence, jacobian_free_disease,
                               matrix_eigenvalues, routh_hurwitz_coexistence)
from .delay_margin import (CrossingReport, CubicABC, NoCrossingError,
                           cubic_real_roots, deg2_crossing,
                           deg2_instability_possible, deg3_abc, deg3_crossing,
                           deg3_instability_possible, free_disease_margin,
                           verify_crossing)
from .sde_simulator import (ConcentrationReport, EnsembleSummary,
                            ExcursionError, InsufficientExceedances,
                            LyapunovCertificate, Seed,
                            StochasticStabilityReport, concentration_check,
                            deterministic_euler, ensemble,
                            lyapunov_certificate, lyapunov_condition,
                            lyapunov_margin, simulate_sde,
                            stochastic_stability_experiment)

__all__ = [
    "__version__",
    "InitialCondition", "Params", "State", "ValidationError",
    "ValidationReport", "Violation", "make_initial_condition", "make_run_state",
    "make_state", "validate_params",
    "EquilibriumSet", "coexistence_equilibrium", "equilibrium_residual",
    "equilibrium_set", "free_disease_equilibrium", "reproduction_number",
    "IntegrationError", "Trajectory", "default_step", "integrate_dde",
    "integrate_dde_cascade", "integrate_ode", "integrate_scalar_comparison",
    "Criterion", "QuasiPolynomial", "StabilityVerdict",
    "char_cubic_coefficients", "char_poly_delay_coexistence",
    "char_poly_delay_free", "free_disease_eigenvalues_closed_form",
    "jacobian_coexistence", "jacobian_free_disease", "matrix_eigenvalues",
    "routh_hurwitz_coexistence",
    "CrossingReport", "CubicABC", "NoCrossingError", "cubic_real_roots",
    "deg2_crossing", "deg2_instability_possible", "deg3_abc", "deg3_crossing",
    "deg3_instability_possible", "free_disease_margin", "verify_crossing",
    "ConcentrationReport", "EnsembleSummary", "ExcursionError",
    "InsufficientExceedances", "LyapunovCertificate", "Seed",
    "StochasticStabilityReport", "concentration_check", "deterministic_euler",
    "ensemble", "lyapunov_certificate", "lyapunov_condition",
    "lyapunov_margin", "simulate_sde",
    "stochastic_stability_experiment",
]

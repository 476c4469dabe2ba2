"""Deterministic integration of the model.

Three routes:

* :func:`integrate_ode`: classical RK4 for the nondelayed system (r = 0).
* :func:`integrate_dde`: method of steps for r > 0 on the grid of
  :func:`step_grid`, whose step divides the delay, so the delayed term is
  always a stored node and no history interpolation happens. On [0, r] the
  delayed value is the constant initial history and RK4 keeps full order;
  afterwards an Adams-Bashforth/Adams-Moulton predictor-corrector of order 4
  runs over stored node derivatives.
* :func:`integrate_dde_cascade`: interval-by-interval evaluation of the exact
  integral representations (integrating factors for I, R, S; a direct
  integral for E) with composite Simpson quadrature. Slower and
  quadrature-limited; used as an independent oracle for integrate_dde.

Plus the scalar comparison equation F' = -k F(t - r) used for positivity
reasoning (its solution stays nonnegative iff k <= 1/(r*e), the same
threshold behind the k_r >= r*e admissibility bound).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
# the grid rule is model_core's; MAX_NODES, default_step and step_grid stay
# importable from here
from .model_core import (GRID_RTOL, MAX_NODES, NEGATIVITY_TOL,
                         PROPAGATION_SUM_TOL, InitialCondition, Params, State,
                         ValidationError, default_step, make_run_state,
                         step_grid)

__all__ = [
    "IntegrationError",
    "Trajectory",
    "step_grid",
    "default_step",
    "integrate_ode",
    "integrate_dde",
    "integrate_dde_cascade",
    "integrate_scalar_comparison",
]

# the cascade integrator conserves the simplex sum only to quadrature
# accuracy, not to rounding; see integrate_dde_cascade
CASCADE_SUM_TOL = 1e-6


class IntegrationError(RuntimeError):
    """An invariant failed during integration; .node is the first bad node."""

    def __init__(self, message: str, node: int = -1):
        super().__init__(message)
        self.node = node


@dataclass(eq=False)
class Trajectory:
    """Node times, states (rows of S, E, I, R) and the step used.

    For integrate_ode and integrate_dde every stored node satisfies
    |S+E+I+R - 1| <= 1e-10 and min component >= -1e-9; breaches abort the
    integration instead of being stored.
    """

    times: np.ndarray
    states: np.ndarray
    step: float

    def __len__(self) -> int:
        return len(self.times)

    def final_state(self) -> State:
        s, e, i, rcv = self.states[-1]
        return make_run_state(float(s), float(e), float(i), float(rcv))

    def max_sum_defect(self) -> float:
        return float(np.max(np.abs(self.states.sum(axis=1) - 1.0)))

    def min_component(self) -> float:
        return float(self.states.min())


def _status_error(status: int, node: int) -> IntegrationError:
    if status == _kernels.SUM_BREACH:
        return IntegrationError(
            f"component sum drifted beyond {PROPAGATION_SUM_TOL} "
            f"at node {node}", node)
    return IntegrationError(
        f"component below {NEGATIVITY_TOL} at node {node}", node)


def integrate_ode(p: Params, x0: State, t_end: float, h: float) -> Trajectory:
    """Integrate the nondelayed system (p.r must be 0) with classical RK4.

    h must divide t_end (see step_grid). Simplex-sum drift beyond 1e-10 or
    a component below -1e-9 aborts with the node index.
    """
    if p.r != 0.0:
        raise ValidationError("integrate_ode requires r = 0; "
                              "use integrate_dde for a delayed run")
    n, _, _ = step_grid(0.0, t_end, h)
    out, status, node = _kernels.ode_rk4(
        x0.s, x0.e, x0.i, x0.rcv, h, n, p.beta, p.mu, p.gamma, p.k_r,
        PROPAGATION_SUM_TOL, NEGATIVITY_TOL)
    if status != _kernels.OK:
        raise _status_error(status, node)
    return Trajectory(times=np.arange(n + 1) * h, states=out, step=h)


def integrate_dde(p: Params, ic: InitialCondition, t_end: float,
                  h: float) -> Trajectory:
    """Integrate the delayed system (p.r > 0) by the method of steps.

    The grid is step_grid's: r/h is a whole number >= 3, so delayed lookups
    hit stored nodes, and t_end >= r. Invariant breaches abort with the
    node index.
    """
    if not p.r > 0.0:
        raise ValidationError("integrate_dde requires r > 0; "
                              "use integrate_ode for the nondelayed system")
    n, m, _ = step_grid(p.r, t_end, h)
    out, status, node = _kernels.dde_rk4_abm4(
        ic.s0, ic.e0, ic.i0, ic.r0, ic.e0, h, n, m,
        p.beta, p.mu, p.gamma, p.k_r, PROPAGATION_SUM_TOL, NEGATIVITY_TOL)
    if status != _kernels.OK:
        raise _status_error(status, node)
    return Trajectory(times=np.arange(n + 1) * h, states=out, step=h)


def _cumulative_simpson(y: np.ndarray, h: float) -> np.ndarray:
    """Cumulative integral of samples y on a uniform grid of spacing h.

    Each pair of subintervals gets the two halves of the Simpson parabola:
    h/12*(5*y0 + 8*y1 - y2) over the left half, h/12*(-y0 + 8*y1 + 5*y2)
    over the right. An odd trailing subinterval reuses the last parabola.
    """
    n = len(y) - 1
    inc = np.empty(n)
    ii = np.arange(0, n - 1, 2)
    c = h / 12.0
    inc[ii] = c * (5.0 * y[ii] + 8.0 * y[ii + 1] - y[ii + 2])
    inc[ii + 1] = c * (-y[ii] + 8.0 * y[ii + 1] + 5.0 * y[ii + 2])
    if n % 2 == 1:
        inc[n - 1] = c * (-y[n - 2] + 8.0 * y[n - 1] + 5.0 * y[n])
    out = np.empty(n + 1)
    out[0] = 0.0
    np.cumsum(inc, out=out[1:])
    return out


def integrate_dde_cascade(p: Params, ic: InitialCondition, t_end: float,
                          quad_n: int = 64) -> Trajectory:
    """Integrate the delayed system through its exact per-interval integrals.

    On each window [n*r, (n+1)*r] the delayed exposed value is known from the
    previous window, so the components have closed integral forms: I and R by
    exponential integrating factors, S by the integrating factor exp of the
    running integral of beta*I, and E directly. Integrals are evaluated by
    composite Simpson quadrature on quad_n subintervals per window
    (quad_n >= 8).

    The simplex sum is conserved only to quadrature accuracy here (checked
    against CASCADE_SUM_TOL rather than the rounding-level bound of the
    stepping integrators); positivity uses the usual -1e-9.
    """
    if not p.r > 0.0:
        raise ValidationError("integrate_dde_cascade requires r > 0")
    if not (isinstance(quad_n, int) and quad_n >= 8):
        raise ValidationError(f"quad_n: must be an integer >= 8, got {quad_n!r}")
    if t_end < p.r:
        raise ValidationError(
            f"t_end={t_end!r} must be at least the delay r={p.r!r}")
    beta, mu, gamma, kr, r = p.beta, p.mu, p.gamma, p.k_r, p.r
    n_int = max(1, int(math.ceil(t_end / r - GRID_RTOL)))
    hq = r / quad_n
    tloc = np.arange(quad_n + 1) * hq
    exp_mu = np.exp(mu * tloc)
    exp_mu_inv = np.exp(-mu * tloc)
    exp_ga = np.exp(gamma * tloc)
    exp_ga_inv = np.exp(-gamma * tloc)

    e_prev = np.full(quad_n + 1, ic.e0)
    s0, e0, i0, r0 = ic.s0, ic.e0, ic.i0, ic.r0
    times = [np.array([0.0])]
    rows = [np.array([[s0, e0, i0, r0]])]
    for n in range(n_int):
        iv = exp_mu_inv * (i0 + _cumulative_simpson(e_prev / kr * exp_mu, hq))
        rv = exp_ga_inv * (r0 + _cumulative_simpson(mu * iv * exp_ga, hq))
        phi = _cumulative_simpson(beta * iv, hq)
        grow = np.exp(phi)
        sv = (s0 + _cumulative_simpson(gamma * rv * grow, hq)) / grow
        ev = e0 + _cumulative_simpson(beta * sv * iv - e_prev / kr, hq)

        block = np.column_stack([sv, ev, iv, rv])
        total = block.sum(axis=1)
        bad = np.flatnonzero(np.abs(total - 1.0) > CASCADE_SUM_TOL)
        if bad.size:
            raise IntegrationError(
                f"component sum drifted beyond {CASCADE_SUM_TOL} at node "
                f"{n * quad_n + bad[0]}", n * quad_n + int(bad[0]))
        bad = np.flatnonzero(block.min(axis=1) < NEGATIVITY_TOL)
        if bad.size:
            raise IntegrationError(
                f"component below {NEGATIVITY_TOL} at node "
                f"{n * quad_n + bad[0]}", n * quad_n + int(bad[0]))

        times.append(n * r + tloc[1:])
        rows.append(block[1:])
        e_prev = ev
        s0, e0, i0, r0 = float(sv[-1]), float(ev[-1]), float(iv[-1]), float(rv[-1])

    t_all = np.concatenate(times)
    x_all = np.vstack(rows)
    keep = t_all <= t_end + 1e-9
    return Trajectory(times=t_all[keep], states=x_all[keep], step=hq)


def integrate_scalar_comparison(k: float, r: float, f0: float, t_end: float,
                                h: float) -> np.ndarray:
    """Solve F'(t) = -k F(t - r), F = f0 on [-r, 0], on the node grid.

    The solution stays nonnegative and tends to 0 iff k <= 1/(r*e); this is
    the scalar heart of the k_r >= r*e admissibility bound (k = 1/k_r).
    """
    if not (math.isfinite(k) and k > 0.0):
        raise ValidationError(f"k: must be > 0, got {k!r}")
    if not (math.isfinite(r) and r > 0.0):
        raise ValidationError(f"r: must be > 0, got {r!r}")
    if not (math.isfinite(f0) and f0 >= 0.0):
        raise ValidationError(f"f0: must be >= 0, got {f0!r}")
    n, m, _ = step_grid(r, t_end, h)
    return _kernels.scalar_dde(f0, k, h, n, m)

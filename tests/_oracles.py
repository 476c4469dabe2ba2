"""Independent references that the tests check the library against.

Nothing here ships with the package, and pytest collects no test from this
module. Each reference is built another way than the library computes the
same thing:

* linearisation: the delayed linearisation (A0, A1), taken from the model
  equations in (E, I, R) coordinates rather than from linear_stability;
* deterministic_euler: forward Euler with the update grouping of the
  stochastic step, which an eps = 0 path must match bitwise;
* integrate_dde_cascade: the exact per-window integral representation of
  the delayed system, by composite Simpson quadrature;
* integrate_scalar_comparison: F' = -k F(t - r), whose solution stays
  nonnegative iff k <= 1/(r*e), the threshold behind k_r >= r*e;
* path_reductions: a path's max_sum_defect and min_component by numpy's
  reductions, a zero minimum's sign by IEEE 754-2019 minimum.

The callers pass admissible arguments, so no reference checks its own. The
two path references return a Path, not the library's Trajectory, which
only a run builds.
"""
import math
from typing import NamedTuple

import numpy as np

from seirs_delay.model_core import GRID_RTOL, NEGATIVITY_TOL, step_grid


class Path(NamedTuple):
    """A reference path: node times, states (rows of S, E, I, R) and the
    step between nodes."""

    times: np.ndarray
    states: np.ndarray
    step: float


# the cascade conserves the simplex sum only to quadrature accuracy
CASCADE_SUM_TOL = 1e-6


def linearisation(beta, mu, gamma, k_r, free=None):
    """(A0, A1) of x' = A0 x(t) + A1 x(t - r) in the reduced coordinates
    (E, I, R), with S = 1 - E - I - R and

        E' = beta*S*I - E(t - r)/k_r,  I' = E(t - r)/k_r - mu*I,  R' = mu*I - gamma*R.

    At the disease-free point when free is true (by default when
    beta < mu), else at the closed-form coexistence point S = mu/beta,
    E = mu*k_r*I, R = mu*I/gamma."""
    if free is None:
        free = beta < mu
    if free:
        s, i = 1.0, 0.0
    else:
        s = mu / beta
        i = (1.0 - s) / (1.0 + mu * k_r + mu / gamma)
    a0 = np.array([[-beta * i, beta * (s - i), -beta * i],
                   [0.0, -mu, 0.0],
                   [0.0, mu, -gamma]])
    a1 = np.array([[-1.0 / k_r, 0.0, 0.0],
                   [1.0 / k_r, 0.0, 0.0],
                   [0.0, 0.0, 0.0]])
    return a0, a1


def path_reductions(x):
    """(max |((S + E) + I) + R - 1|, smallest value) of the (n, 4) array x
    as numpy reduces them, but for a zero minimum: numpy's min picks a
    signed zero by its SIMD order, IEEE 754-2019 minimum takes -0.0 below
    +0.0."""
    low = x.min()
    if low == 0.0:
        low = np.float64(-0.0 if np.signbit(x[x == 0.0]).any() else 0.0)
    return np.abs(x.sum(axis=1) - 1.0).max(), low


def deterministic_euler(p, ic, t_end, h):
    """Forward-Euler reference path written with the same update grouping
    as the stochastic step, so the eps = 0 stochastic path matches it
    bitwise."""
    n, m, _ = step_grid(p.r, t_end, h)
    out = np.empty((n + 1, 4))
    s, e, i, rc = ic.s0, ic.e0, ic.i0, ic.r0
    out[0] = (s, e, i, rc)
    for k in range(n):
        ed = ic.e0 if k < m else out[k - m, 1]
        a = h * (p.beta * s * i)
        b = h * (ed / p.k_r)
        c = h * (p.mu * i)
        d = h * (p.gamma * rc)
        s = s - a + d
        e = e + a - b
        i = i + b - c
        rc = rc + c - d
        out[k + 1] = (s, e, i, rc)
    return Path(np.arange(n + 1) * h, out, h)


def _cumulative_simpson(y, h):
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


def integrate_dde_cascade(p, ic, t_end, quad_n=64):
    """Integrate the delayed system (r > 0, t_end >= r) through its exact
    per-window integrals.

    On each window [n*r, (n+1)*r] the delayed exposed value is known from the
    previous window, so the components have closed integral forms: I and R by
    exponential integrating factors, S by the integrating factor exp of the
    running integral of beta*I, and E directly. Integrals are evaluated by
    composite Simpson quadrature on quad_n subintervals per window.

    Every window must keep the simplex sum within CASCADE_SUM_TOL and every
    component above -1e-9.
    """
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
        assert (np.abs(block.sum(axis=1) - 1.0).max() <= CASCADE_SUM_TOL
                and block.min() >= NEGATIVITY_TOL), f"window {n}"

        times.append(n * r + tloc[1:])
        rows.append(block[1:])
        e_prev = ev
        s0, e0, i0, r0 = float(sv[-1]), float(ev[-1]), float(iv[-1]), float(rv[-1])

    t_all = np.concatenate(times)
    x_all = np.vstack(rows)
    keep = t_all <= t_end + 1e-9
    return Path(t_all[keep], x_all[keep], hq)


def integrate_scalar_comparison(k, r, f0, t_end, h):
    """Solve F'(t) = -k F(t - r), F = f0 on [-r, 0], on step_grid's nodes
    (m = r/h >= 3).

    On [0, r] the derivative is the constant -k*f0, so the update is exact;
    afterwards 4-step Adams-Bashforth with stored-node delayed lookups.
    """
    n, m, _ = step_grid(r, t_end, h)
    vals = [f0]
    d0 = -k * f0
    v = f0
    n1 = m if m < n else n
    for _ in range(n1):
        v = v + h * d0
        vals.append(v)
    # derivatives at nodes j, j-1, j-2, j-3: the constant d0 up to node m
    g0 = g1 = g2 = g3 = d0
    c = h / 24.0
    for j in range(n1, n):
        v = v + c * (55.0 * g0 - 59.0 * g1 + 37.0 * g2 - 9.0 * g3)
        vals.append(v)
        g3, g2, g1, g0 = g2, g1, g0, -k * vals[j + 1 - m]
    return np.array(vals)

"""Time-stepping kernels shared by the deterministic and stochastic integrators.

Every kernel is a plain function decorated with :func:`seirs_delay._accel.maybe_jit`,
so the same source runs either compiled (numba) or interpreted. Only scalar
arithmetic is used inside the loops; no math-library calls, so both paths are
bitwise identical. Kernels never raise: they return a status code and the index
of the first offending node (0 = ok, 1 = simplex-sum breach, 2 = negative
component, 3 = excursion outside the allowed band).

Delayed lookups assume the delay is an exact multiple ``m`` of the step, so
``E(t_k - r)`` is the stored node value ``m`` slots back; no interpolation.
"""
from __future__ import annotations

import numpy as np

from ._accel import maybe_jit

OK = 0
SUM_BREACH = 1
NEGATIVE = 2
EXCURSION = 3


@maybe_jit
def _rk4_steps(out, s, e, i, rc, delayed, e_hist, h, n_steps, beta, mu,
               gamma, kr, sum_tol, neg_tol):
    """Classical RK4 from the node (s, e, i, rc) over n_steps steps, storing
    nodes 0..n_steps in out.

    The exposed source E(t - r) of every stage is the constant history e_hist
    when delayed (all stage times lie in [0, r]), else the stage's own E (the
    nondelayed system). Returns (status, bad_node).
    """
    out[0, 0] = s
    out[0, 1] = e
    out[0, 2] = i
    out[0, 3] = rc
    h2 = 0.5 * h
    h6 = h / 6.0
    for k in range(n_steps):
        ed = e_hist if delayed else e
        a1s = -beta * s * i + gamma * rc
        a1e = beta * s * i - ed / kr
        a1i = ed / kr - mu * i
        a1r = mu * i - gamma * rc

        ts = s + h2 * a1s
        te = e + h2 * a1e
        ti = i + h2 * a1i
        tr = rc + h2 * a1r
        ed = e_hist if delayed else te
        a2s = -beta * ts * ti + gamma * tr
        a2e = beta * ts * ti - ed / kr
        a2i = ed / kr - mu * ti
        a2r = mu * ti - gamma * tr

        ts = s + h2 * a2s
        te = e + h2 * a2e
        ti = i + h2 * a2i
        tr = rc + h2 * a2r
        ed = e_hist if delayed else te
        a3s = -beta * ts * ti + gamma * tr
        a3e = beta * ts * ti - ed / kr
        a3i = ed / kr - mu * ti
        a3r = mu * ti - gamma * tr

        ts = s + h * a3s
        te = e + h * a3e
        ti = i + h * a3i
        tr = rc + h * a3r
        ed = e_hist if delayed else te
        a4s = -beta * ts * ti + gamma * tr
        a4e = beta * ts * ti - ed / kr
        a4i = ed / kr - mu * ti
        a4r = mu * ti - gamma * tr

        s = s + h6 * (a1s + 2.0 * (a2s + a3s) + a4s)
        e = e + h6 * (a1e + 2.0 * (a2e + a3e) + a4e)
        i = i + h6 * (a1i + 2.0 * (a2i + a3i) + a4i)
        rc = rc + h6 * (a1r + 2.0 * (a2r + a3r) + a4r)

        d = ((s + e) + i) + rc - 1.0
        if d > sum_tol or -d > sum_tol:
            return SUM_BREACH, k + 1
        if s < neg_tol or e < neg_tol or i < neg_tol or rc < neg_tol:
            return NEGATIVE, k + 1
        out[k + 1, 0] = s
        out[k + 1, 1] = e
        out[k + 1, 2] = i
        out[k + 1, 3] = rc
    return OK, -1


@maybe_jit
def ode_rk4(s, e, i, rc, h, n_steps, beta, mu, gamma, kr, sum_tol, neg_tol):
    """Classical RK4 for the nondelayed system. Returns (nodes, status, bad_node)."""
    out = np.empty((n_steps + 1, 4))
    status, node = _rk4_steps(out, s, e, i, rc, False, 0.0, h, n_steps, beta,
                              mu, gamma, kr, sum_tol, neg_tol)
    return out, status, node


@maybe_jit
def dde_rk4_abm4(s, e, i, rc, e_hist, h, n_steps, m, beta, mu, gamma, kr,
                 sum_tol, neg_tol):
    """Method of steps for the delayed system (m = r/h >= 3).

    On [0, r] the delayed exposed value is the constant history, so classical
    RK4 applies unchanged and keeps full order; it also supplies the m + 1 >= 4
    starting nodes of the order-4 Adams-Bashforth/Adams-Moulton
    predictor-corrector (PECE) that runs past r over stored node derivatives.
    The corrector is interpolation-free: the delayed value at t_{k+1} is
    itself a stored node.
    """
    out = np.empty((n_steps + 1, 4))
    n1 = m if m < n_steps else n_steps
    status, node = _rk4_steps(out, s, e, i, rc, True, e_hist, h, n1, beta, mu,
                              gamma, kr, sum_tol, neg_tol)
    if status != OK:
        return out, status, node

    # node derivatives for the Adams stages; the delayed value at node j is
    # the constant history while j < m, afterwards the stored node j - m
    fv = np.empty((n_steps + 1, 4))
    for j in range(n1 + 1):
        ed = e_hist if j < m else out[j - m, 1]
        fv[j, 0] = -beta * out[j, 0] * out[j, 2] + gamma * out[j, 3]
        fv[j, 1] = beta * out[j, 0] * out[j, 2] - ed / kr
        fv[j, 2] = ed / kr - mu * out[j, 2]
        fv[j, 3] = mu * out[j, 2] - gamma * out[j, 3]

    s = out[n1, 0]
    e = out[n1, 1]
    i = out[n1, 2]
    rc = out[n1, 3]
    c = h / 24.0
    for k in range(n1, n_steps):
        j = k + 1
        ed = out[j - m, 1]
        ps = s + c * (55.0 * fv[k, 0] - 59.0 * fv[k - 1, 0]
                      + 37.0 * fv[k - 2, 0] - 9.0 * fv[k - 3, 0])
        pi = i + c * (55.0 * fv[k, 2] - 59.0 * fv[k - 1, 2]
                      + 37.0 * fv[k - 2, 2] - 9.0 * fv[k - 3, 2])
        pr = rc + c * (55.0 * fv[k, 3] - 59.0 * fv[k - 1, 3]
                       + 37.0 * fv[k - 2, 3] - 9.0 * fv[k - 3, 3])
        gs = -beta * ps * pi + gamma * pr
        ge = beta * ps * pi - ed / kr
        gi = ed / kr - mu * pi
        gr = mu * pi - gamma * pr
        s = s + c * (9.0 * gs + 19.0 * fv[k, 0] - 5.0 * fv[k - 1, 0]
                     + fv[k - 2, 0])
        e = e + c * (9.0 * ge + 19.0 * fv[k, 1] - 5.0 * fv[k - 1, 1]
                     + fv[k - 2, 1])
        i = i + c * (9.0 * gi + 19.0 * fv[k, 2] - 5.0 * fv[k - 1, 2]
                     + fv[k - 2, 2])
        rc = rc + c * (9.0 * gr + 19.0 * fv[k, 3] - 5.0 * fv[k - 1, 3]
                       + fv[k - 2, 3])

        d = ((s + e) + i) + rc - 1.0
        if d > sum_tol or -d > sum_tol:
            return out, SUM_BREACH, k + 1
        if s < neg_tol or e < neg_tol or i < neg_tol or rc < neg_tol:
            return out, NEGATIVE, k + 1
        out[k + 1, 0] = s
        out[k + 1, 1] = e
        out[k + 1, 2] = i
        out[k + 1, 3] = rc

        fv[j, 0] = -beta * s * i + gamma * rc
        fv[j, 1] = beta * s * i - ed / kr
        fv[j, 2] = ed / kr - mu * i
        fv[j, 3] = mu * i - gamma * rc
    return out, OK, -1


@maybe_jit
def scalar_dde(f0, kcoef, h, n_steps, m):
    """Pure-delay test equation F'(t) = -k F(t - r) with constant history F = f0
    (m = r/h >= 3).

    On [0, r] the derivative is the constant -k*f0, so the update is exact;
    afterwards 4-step Adams-Bashforth with stored-node delayed lookups.
    """
    vals = np.empty(n_steps + 1)
    der = np.empty(n_steps + 1)
    d0 = -kcoef * f0
    vals[0] = f0
    der[0] = d0
    v = f0
    n1 = m if m < n_steps else n_steps
    for k in range(n1):
        v = v + h * d0
        vals[k + 1] = v
        der[k + 1] = d0
    for k in range(n1, n_steps):
        v = v + (h / 24.0) * (55.0 * der[k] - 59.0 * der[k - 1]
                              + 37.0 * der[k - 2] - 9.0 * der[k - 3])
        vals[k + 1] = v
        der[k + 1] = -kcoef * vals[k + 1 - m]
    return vals


@maybe_jit
def euler_maruyama(s, e, i, rc, e_hist, h, n_steps, m, beta, mu, gamma, kr,
                   eps, dw, lo, hi):
    """Euler-Maruyama step loop with a single shared noise increment.

    The transfer terms a (infection), b (latency exit), c (recovery),
    d (immunity loss) and the noise term w are each computed once per step and
    moved between compartments with the same rounded value, so the four
    updates cancel algebraically and the simplex sum is conserved up to
    per-step rounding of the additions alone. With eps = 0 the trajectory is
    bitwise equal to the deterministic Euler scheme written with the same
    update expressions. m = 0 means no delay (the stored current node is used).
    """
    out = np.empty((n_steps + 1, 4))
    out[0, 0] = s
    out[0, 1] = e
    out[0, 2] = i
    out[0, 3] = rc
    for k in range(n_steps):
        if k < m:
            ed = e_hist
        else:
            ed = out[k - m, 1]
        a = h * (beta * s * i)
        b = h * (ed / kr)
        c = h * (mu * i)
        d = h * (gamma * rc)
        w = eps * (s * i) * dw[k]
        s = s - a + d - w
        e = e + a - b + w
        i = i + b - c
        rc = rc + c - d
        out[k + 1, 0] = s
        out[k + 1, 1] = e
        out[k + 1, 2] = i
        out[k + 1, 3] = rc
        if s < lo or s > hi:
            return out, EXCURSION, k + 1, 0
        if e < lo or e > hi:
            return out, EXCURSION, k + 1, 1
        if i < lo or i > hi:
            return out, EXCURSION, k + 1, 2
        if rc < lo or rc > hi:
            return out, EXCURSION, k + 1, 3
    return out, OK, -1, -1

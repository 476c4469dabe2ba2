"""Time-stepping kernels shared by the deterministic and stochastic integrators.

Every kernel is a plain CPython loop over Python floats: the state and the
last few derivative rows are locals, and node rows are read and written
through a memoryview of the preallocated (n + 1, 4) output array. A read
through the view returns a Python float (indexing the array would return an
np.float64, whose arithmetic is several times slower), and writing each row
in place keeps no second copy of the path, so peak memory stays that of the
one array. Only +, -, * and / are used, so every node is fixed by IEEE-754
rounding alone. Kernels never raise: they return a status code and the index
of the first offending node (0 = ok, 1 = simplex-sum breach, 2 = negative
component, 3 = excursion outside the allowed band).

The RK4 stages and the ABM4 right-hand sides do not call _deriv. Each one
forms the products bsi = beta*s*i, mi = mu*i, grc = gamma*rc and
edk = ed/kr once and takes the rates as grc - bsi, bsi - edk, edk - mi and
mi - grc. This is bitwise equal to _deriv, whose S' is written
-beta*s*i + gamma*rc. IEEE negation is exact and round-to-nearest is
symmetric in sign, so ((-beta)*s)*i == -((beta*s)*i); and -y + x is x - y,
signed zeros included. A right-hand side so costs four products, a
negation and a division fewer than _deriv's expression does.

Delayed lookups assume the delay is an exact multiple ``m`` of the step, so
``E(t_k - r)`` is the stored node value ``m`` slots back; no interpolation.
"""
from __future__ import annotations

import numpy as np

OK = 0
SUM_BREACH = 1
NEGATIVE = 2
EXCURSION = 3


def _deriv(s, i, rc, ed, beta, mu, gamma, kr):
    """Right-hand side (S', E', I', R') with exposed source ed = E(t - r)."""
    return (-beta * s * i + gamma * rc, beta * s * i - ed / kr,
            ed / kr - mu * i, mu * i - gamma * rc)


def _rk4_steps(x, s, e, i, rc, e_hist, h, n_steps, beta, mu, gamma, kr,
               sum_tol, neg_tol):
    """Classical RK4 from the node (s, e, i, rc) over n_steps steps, storing
    nodes 0..n_steps in the flat row view x.

    The exposed source E(t - r) of every stage is the constant history e_hist
    when it is given (all stage times lie in [0, r]), else the stage's own E
    (the nondelayed system, e_hist None). The four stages are written out
    with the shared products of the module docstring rather than calling
    _deriv; with a constant history its ed / kr is computed once, before the
    loop. Returns (status, bad_node).
    """
    x[0], x[1], x[2], x[3] = s, e, i, rc
    h2 = 0.5 * h
    h6 = h / 6.0
    delayed = e_hist is not None
    if delayed:
        edk = e_hist / kr
    # j is the flat offset of the node being computed
    for j in range(4, 4 * n_steps + 4, 4):
        bsi = beta * s * i
        mi = mu * i
        grc = gamma * rc
        if not delayed:
            edk = e / kr
        a1s = grc - bsi
        a1e = bsi - edk
        a1i = edk - mi
        a1r = mi - grc

        ts = s + h2 * a1s
        ti = i + h2 * a1i
        tr = rc + h2 * a1r
        if not delayed:
            edk = (e + h2 * a1e) / kr
        bsi = beta * ts * ti
        mi = mu * ti
        grc = gamma * tr
        a2s = grc - bsi
        a2e = bsi - edk
        a2i = edk - mi
        a2r = mi - grc

        ts = s + h2 * a2s
        ti = i + h2 * a2i
        tr = rc + h2 * a2r
        if not delayed:
            edk = (e + h2 * a2e) / kr
        bsi = beta * ts * ti
        mi = mu * ti
        grc = gamma * tr
        a3s = grc - bsi
        a3e = bsi - edk
        a3i = edk - mi
        a3r = mi - grc

        ts = s + h * a3s
        ti = i + h * a3i
        tr = rc + h * a3r
        if not delayed:
            edk = (e + h * a3e) / kr
        bsi = beta * ts * ti
        mi = mu * ti
        grc = gamma * tr
        a4s = grc - bsi
        a4e = bsi - edk
        a4i = edk - mi
        a4r = mi - grc

        s = s + h6 * (a1s + 2.0 * (a2s + a3s) + a4s)
        e = e + h6 * (a1e + 2.0 * (a2e + a3e) + a4e)
        i = i + h6 * (a1i + 2.0 * (a2i + a3i) + a4i)
        rc = rc + h6 * (a1r + 2.0 * (a2r + a3r) + a4r)

        d = ((s + e) + i) + rc - 1.0
        if d > sum_tol or -d > sum_tol:
            return SUM_BREACH, j >> 2
        if s < neg_tol or e < neg_tol or i < neg_tol or rc < neg_tol:
            return NEGATIVE, j >> 2
        x[j], x[j + 1], x[j + 2], x[j + 3] = s, e, i, rc
    return OK, -1


def ode_rk4(s, e, i, rc, h, n_steps, beta, mu, gamma, kr, sum_tol, neg_tol):
    """Classical RK4 for the nondelayed system. Returns (nodes, status, bad_node)."""
    out = np.empty((n_steps + 1, 4))
    status, node = _rk4_steps(memoryview(out.reshape(-1)), s, e, i, rc, None,
                              h, n_steps, beta, mu, gamma, kr, sum_tol,
                              neg_tol)
    return out, status, node


def dde_rk4_abm4(s, e, i, rc, e_hist, h, n_steps, m, beta, mu, gamma, kr,
                 sum_tol, neg_tol):
    """Method of steps for the delayed system (m = r/h >= 3).

    On [0, r] the delayed exposed value is the constant history, so classical
    RK4 applies unchanged and keeps full order; it also supplies the m + 1 >= 4
    starting nodes of the order-4 Adams-Bashforth/Adams-Moulton
    predictor-corrector (PECE) that runs past r over node derivatives.
    The corrector is interpolation-free: the delayed value at t_{k+1} is
    itself a stored node.
    """
    out = np.empty((n_steps + 1, 4))
    x = memoryview(out.reshape(-1))
    n1 = m if m < n_steps else n_steps
    status, node = _rk4_steps(x, s, e, i, rc, e_hist, h, n1, beta, mu, gamma,
                              kr, sum_tol, neg_tol)
    if status != OK or n1 == n_steps:
        return out, status, node

    # derivatives at nodes k, k-1, k-2, k-3 as float locals (the corrector
    # never reads E' at node k-3); the delayed value at node j is the
    # constant history while j < m, afterwards the stored node j - m
    ((f0s, f0e, f0i, f0r), (f1s, f1e, f1i, f1r), (f2s, f2e, f2i, f2r),
     (f3s, _, f3i, f3r)) = (
        _deriv(x[4 * j], x[4 * j + 2], x[4 * j + 3],
               e_hist if j < m else x[4 * (j - m) + 1], beta, mu, gamma, kr)
        for j in range(m, m - 4, -1))
    s, e, i, rc = x[4 * m], x[4 * m + 1], x[4 * m + 2], x[4 * m + 3]
    c = h / 24.0
    back = 4 * m - 1
    # j is the flat offset of node k + 1; E(t_{k+1} - r) is the stored node
    # k + 1 - m, shared by the predicted and the corrected node's right-hand
    # sides
    for j in range(4 * m + 4, 4 * n_steps + 4, 4):
        edk = x[j - back] / kr
        ps = s + c * (55.0 * f0s - 59.0 * f1s + 37.0 * f2s - 9.0 * f3s)
        pi = i + c * (55.0 * f0i - 59.0 * f1i + 37.0 * f2i - 9.0 * f3i)
        pr = rc + c * (55.0 * f0r - 59.0 * f1r + 37.0 * f2r - 9.0 * f3r)
        bsi = beta * ps * pi
        mi = mu * pi
        grc = gamma * pr
        s = s + c * (9.0 * (grc - bsi) + 19.0 * f0s - 5.0 * f1s + f2s)
        e = e + c * (9.0 * (bsi - edk) + 19.0 * f0e - 5.0 * f1e + f2e)
        i = i + c * (9.0 * (edk - mi) + 19.0 * f0i - 5.0 * f1i + f2i)
        rc = rc + c * (9.0 * (mi - grc) + 19.0 * f0r - 5.0 * f1r + f2r)

        d = ((s + e) + i) + rc - 1.0
        if d > sum_tol or -d > sum_tol:
            return out, SUM_BREACH, j >> 2
        if s < neg_tol or e < neg_tol or i < neg_tol or rc < neg_tol:
            return out, NEGATIVE, j >> 2
        x[j], x[j + 1], x[j + 2], x[j + 3] = s, e, i, rc
        bsi = beta * s * i
        mi = mu * i
        grc = gamma * rc
        f3s, f2s, f1s, f0s = f2s, f1s, f0s, grc - bsi
        f2e, f1e, f0e = f1e, f0e, bsi - edk
        f3i, f2i, f1i, f0i = f2i, f1i, f0i, edk - mi
        f3r, f2r, f1r, f0r = f2r, f1r, f0r, mi - grc
    return out, OK, -1


def scalar_dde(f0, kcoef, h, n_steps, m):
    """Pure-delay test equation F'(t) = -k F(t - r) with constant history F = f0
    (m = r/h >= 3).

    On [0, r] the derivative is the constant -k*f0, so the update is exact;
    afterwards 4-step Adams-Bashforth with stored-node delayed lookups.
    """
    vals = np.empty(n_steps + 1)
    x = memoryview(vals)
    d0 = -kcoef * f0
    x[0] = v = f0
    n1 = m if m < n_steps else n_steps
    for k in range(n1):
        v = v + h * d0
        x[k + 1] = v
    # derivatives at nodes k, k-1, k-2, k-3: the constant d0 up to node m
    g0 = g1 = g2 = g3 = d0
    c = h / 24.0
    for k in range(n1, n_steps):
        v = v + c * (55.0 * g0 - 59.0 * g1 + 37.0 * g2 - 9.0 * g3)
        x[k + 1] = v
        g3, g2, g1, g0 = g2, g1, g0, -kcoef * x[k + 1 - m]
    return vals


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
    x = memoryview(out.reshape(-1))
    noise = memoryview(dw)
    x[0], x[1], x[2], x[3] = s, e, i, rc
    for k in range(n_steps):
        ed = e_hist if k < m else x[4 * (k - m) + 1]
        a = h * (beta * s * i)
        b = h * (ed / kr)
        c = h * (mu * i)
        d = h * (gamma * rc)
        w = eps * (s * i) * noise[k]
        s = s - a + d - w
        e = e + a - b + w
        i = i + b - c
        rc = rc + c - d
        j = 4 * (k + 1)
        x[j], x[j + 1], x[j + 2], x[j + 3] = s, e, i, rc
        if s < lo or s > hi:
            return out, EXCURSION, k + 1, 0
        if e < lo or e > hi:
            return out, EXCURSION, k + 1, 1
        if i < lo or i > hi:
            return out, EXCURSION, k + 1, 2
        if rc < lo or rc > hi:
            return out, EXCURSION, k + 1, 3
    return out, OK, -1, -1

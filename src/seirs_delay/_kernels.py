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
    rather than calling _deriv: this is the whole of every r = 0 run, and a
    call per stage makes it about a fifth slower. Returns (status, bad_node).
    """
    x[0], x[1], x[2], x[3] = s, e, i, rc
    h2 = 0.5 * h
    h6 = h / 6.0
    for k in range(n_steps):
        ed = e if e_hist is None else e_hist
        a1s = -beta * s * i + gamma * rc
        a1e = beta * s * i - ed / kr
        a1i = ed / kr - mu * i
        a1r = mu * i - gamma * rc

        ts = s + h2 * a1s
        te = e + h2 * a1e
        ti = i + h2 * a1i
        tr = rc + h2 * a1r
        ed = te if e_hist is None else e_hist
        a2s = -beta * ts * ti + gamma * tr
        a2e = beta * ts * ti - ed / kr
        a2i = ed / kr - mu * ti
        a2r = mu * ti - gamma * tr

        ts = s + h2 * a2s
        te = e + h2 * a2e
        ti = i + h2 * a2i
        tr = rc + h2 * a2r
        ed = te if e_hist is None else e_hist
        a3s = -beta * ts * ti + gamma * tr
        a3e = beta * ts * ti - ed / kr
        a3i = ed / kr - mu * ti
        a3r = mu * ti - gamma * tr

        ts = s + h * a3s
        te = e + h * a3e
        ti = i + h * a3i
        tr = rc + h * a3r
        ed = te if e_hist is None else e_hist
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
        j = 4 * (k + 1)
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

    # derivatives at nodes k, k-1, k-2, k-3; the delayed value at node j is
    # the constant history while j < m, afterwards the stored node j - m
    f0, f1, f2, f3 = (
        _deriv(x[4 * j], x[4 * j + 2], x[4 * j + 3],
               e_hist if j < m else x[4 * (j - m) + 1], beta, mu, gamma, kr)
        for j in range(m, m - 4, -1))
    s, e, i, rc = x[4 * m], x[4 * m + 1], x[4 * m + 2], x[4 * m + 3]
    c = h / 24.0
    for k in range(m, n_steps):
        ed = x[4 * (k + 1 - m) + 1]
        g = _deriv(
            s + c * (55.0 * f0[0] - 59.0 * f1[0] + 37.0 * f2[0] - 9.0 * f3[0]),
            i + c * (55.0 * f0[2] - 59.0 * f1[2] + 37.0 * f2[2] - 9.0 * f3[2]),
            rc + c * (55.0 * f0[3] - 59.0 * f1[3] + 37.0 * f2[3] - 9.0 * f3[3]),
            ed, beta, mu, gamma, kr)
        s = s + c * (9.0 * g[0] + 19.0 * f0[0] - 5.0 * f1[0] + f2[0])
        e = e + c * (9.0 * g[1] + 19.0 * f0[1] - 5.0 * f1[1] + f2[1])
        i = i + c * (9.0 * g[2] + 19.0 * f0[2] - 5.0 * f1[2] + f2[2])
        rc = rc + c * (9.0 * g[3] + 19.0 * f0[3] - 5.0 * f1[3] + f2[3])

        d = ((s + e) + i) + rc - 1.0
        if d > sum_tol or -d > sum_tol:
            return out, SUM_BREACH, k + 1
        if s < neg_tol or e < neg_tol or i < neg_tol or rc < neg_tol:
            return out, NEGATIVE, k + 1
        j = 4 * (k + 1)
        x[j], x[j + 1], x[j + 2], x[j + 3] = s, e, i, rc
        f3, f2, f1, f0 = f2, f1, f0, _deriv(s, i, rc, ed, beta, mu, gamma, kr)
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

"""Time-stepping kernels shared by the deterministic and stochastic integrators.

Every kernel is a plain CPython loop over Python floats: the state and the
last few derivative rows are locals, and node rows are read and written
through a flat memoryview of doubles, four per node (S, E, I, R). The
deterministic kernels step into a buffer of their own,
``memoryview(bytearray(32 * (n + 1))).cast("d")``, so they need neither
numpy nor any other extension module; the stochastic kernel steps into a
float array from the caller, viewed the same way. A read through the view
returns a Python float, and writing each row in place keeps no second copy
of the nodes, so peak memory stays that of the one buffer. Only +, -, *
and / are used, so every node is fixed by IEEE-754 rounding alone. Kernels
never raise: they return a status code and the index of the first
offending node (0 = ok, 1 = simplex-sum breach, 2 = negative component,
3 = excursion outside the allowed band).

Every kernel also returns the report reductions of the path it stored, so
no caller makes a second pass over it; this module is the one place that
reduces a path. max_sum_defect is the largest |((S + E) + I) + R - 1| over
the nodes: each stepped node's defect d is compared with the running max
and min of d, and the deterministic kernels test their sum tolerance only
when one of them moves. A NaN defect fails ``d <= dhi``: those kernels
take it for a sum breach, and a reduction keeps it and makes both lines
NaN. min_component is the smallest component, a zero being IEEE 754-2019
``minimum``'s, under which -0.0 is below +0.0: the loops keep no signs,
and when the minimum is +0.0 the stored node bytes are searched for a
-0.0, so no step pays for the rule. A kernel's start node is never
checked; it joins the reductions at the end. :func:`extremes` reduces any
flat node buffer by the same rule.

Every right-hand side (S', E', I', R') with exposed source ed = E(t - r)
forms the products bsi = beta*s*i, mi = mu*i, grc = gamma*rc and
edk = ed/kr once and takes the rates as grc - bsi, bsi - edk, edk - mi and
mi - grc.

Delayed lookups assume the delay is an exact multiple ``m`` of the step, so
``E(t_k - r)`` is the stored node value ``m`` slots back; no interpolation.

The stochastic kernel steps into a buffer from the caller whose first m rows
hold the m nodes before its start node, so its delayed value is always one
stored row, and takes its noise increments one chunk at a time (an iterable
of arrays, consumed as it steps). A caller can therefore step a path in
windows through a buffer of m + 1 + window rows, carrying the last m + 1
nodes and the reductions so far over, and hold neither the whole path nor
a noise vector as long as it.
"""
from __future__ import annotations

import math
import sys

OK = 0
SUM_BREACH = 1
NEGATIVE = 2
EXCURSION = 3


def _nodes(n_steps):
    """A zeroed flat double buffer for nodes 0 .. n_steps."""
    try:
        return memoryview(bytearray(32 * (n_steps + 1))).cast("d")
    except MemoryError:
        # bytearray's own error names no size
        raise MemoryError(f"cannot allocate the {32 * (n_steps + 1)} bytes "
                          f"of nodes of shape ({n_steps + 1}, 4)") from None


# -0.0 as the bytes of a node buffer's double: the sign bit alone
_NEG_ZERO = (1 << 63).to_bytes(8, sys.byteorder)
# doubles per piece of a buffer copied out to search for it
_SEARCH_PIECE = 512


def _join(x, a, b, dhi, dlo, low):
    """The running extremes (dhi, dlo, low) joined with the nodes at flat
    offsets a, a + 4, .. < b of x."""
    for j in range(a, b, 4):
        s, e, i, rc = x[j], x[j + 1], x[j + 2], x[j + 3]
        d = ((s + e) + i) + rc - 1.0
        if not d <= dhi:
            # a NaN, once held, stays
            if dhi == dhi:
                dhi = d
        elif d < dlo:
            dlo = d
        for v in (s, e, i, rc):
            if v < low:
                low = v
    return dhi, dlo, low


def _settle(x, a, b, dhi, dlo, low):
    """(max_sum_defect, min_component) of the nodes at flat offsets a .. b - 1
    of x from the running extremes of all but the first, which joins here:
    dhi and dlo, the max and min of 0 and their defects, and low, their
    smallest component, a zero of either sign."""
    dhi, dlo, low = _join(x, a, a + 4, dhi, dlo, low)
    if dhi != dhi:
        return dhi, dhi
    if low == 0.0 and math.copysign(1.0, low) > 0.0 and any(
            _holds_negative_zero(x[c:min(b, c + _SEARCH_PIECE)].tobytes())
            for c in range(a, b, _SEARCH_PIECE)):
        low = -0.0
    # max |d|: dhi >= 0 >= dlo, and a zero defect is +0.0
    return -dlo if -dlo > dhi else dhi, low


def _holds_negative_zero(raw):
    """Whether the bytes raw hold _NEG_ZERO at a multiple of 8."""
    k = raw.find(_NEG_ZERO)
    while k > 0 and k % 8:
        k = raw.find(_NEG_ZERO, k + 1)
    return k >= 0


def extremes(x):
    """(max_sum_defect, min_component) of the nodes of the flat double view
    x, by the rule of the module docstring."""
    return _settle(x, 0, len(x), *_join(x, 4, len(x), 0.0, 0.0, math.inf))


def _rk4_steps(x, s, e, i, rc, e_hist, h, n_steps, beta, mu, gamma, kr,
               sum_tol, neg_tol):
    """Classical RK4 from the node (s, e, i, rc) over n_steps steps, storing
    nodes 0..n_steps in the flat row view x.

    The exposed source E(t - r) of every stage is the constant history e_hist
    when it is given (all stage times lie in [0, r]), else the stage's own E
    (the nondelayed system, e_hist None). The four stages are written out
    with the shared products of the module docstring; with a constant
    history its ed / kr is computed once, before the loop. Returns
    (status, bad_node, dhi, dlo, low): dhi and dlo are the max and min of 0
    and the defects of the nodes stepped after node 0, low their smallest
    component.
    """
    x[0], x[1], x[2], x[3] = s, e, i, rc
    h2 = 0.5 * h
    h6 = h / 6.0
    dhi = dlo = 0.0
    low = math.inf
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
        if not d <= dhi:
            if not d <= sum_tol:
                return SUM_BREACH, j >> 2, dhi, dlo, low
            dhi = d
        elif d < dlo:
            if -d > sum_tol:
                return SUM_BREACH, j >> 2, dhi, dlo, low
            dlo = d
        if s < low:
            low = s
        if e < low:
            low = e
        if i < low:
            low = i
        if rc < low:
            low = rc
        if low < neg_tol:
            return NEGATIVE, j >> 2, dhi, dlo, low
        x[j], x[j + 1], x[j + 2], x[j + 3] = s, e, i, rc
    return OK, -1, dhi, dlo, low


def ode_rk4(s, e, i, rc, h, n_steps, beta, mu, gamma, kr, sum_tol, neg_tol):
    """Classical RK4 for the nondelayed system. Returns (nodes, status,
    bad_node, max_sum_defect, min_component): nodes is the flat node
    buffer, and the extremes are those of its nodes (see the module
    docstring)."""
    x = _nodes(n_steps)
    status, node, dhi, dlo, low = _rk4_steps(
        x, s, e, i, rc, None, h, n_steps, beta, mu, gamma, kr, sum_tol, neg_tol)
    return (x, status, node, *_settle(x, 0, len(x), dhi, dlo, low))


def dde_rk4_abm4(s, e, i, rc, e_hist, h, n_steps, m, beta, mu, gamma, kr,
                 sum_tol, neg_tol):
    """Method of steps for the delayed system (m = r/h >= 3).

    On [0, r] the delayed exposed value is the constant history, so classical
    RK4 applies unchanged and keeps full order; it also supplies the m + 1 >= 4
    starting nodes of the order-4 Adams-Bashforth/Adams-Moulton
    predictor-corrector (PECE) that runs past r over node derivatives.
    The corrector is interpolation-free: the delayed value at t_{k+1} is
    itself a stored node. Returns what ode_rk4 returns.
    """
    x = _nodes(n_steps)
    n1 = m if m < n_steps else n_steps
    status, node, dhi, dlo, low = _rk4_steps(
        x, s, e, i, rc, e_hist, h, n1, beta, mu, gamma, kr, sum_tol, neg_tol)
    if status != OK or n1 == n_steps:
        return (x, status, node, *_settle(x, 0, len(x), dhi, dlo, low))

    # derivatives at nodes k, k-1, k-2, k-3 as float locals (the corrector
    # never reads E' at node k-3); the delayed value at node j is the
    # constant history while j < m, afterwards the stored node j - m
    f = []
    for j in range(m, m - 4, -1):
        i, rc = x[4 * j + 2], x[4 * j + 3]
        bsi = beta * x[4 * j] * i
        mi = mu * i
        grc = gamma * rc
        edk = (e_hist if j < m else x[4 * (j - m) + 1]) / kr
        f.append((grc - bsi, bsi - edk, edk - mi, mi - grc))
    ((f0s, f0e, f0i, f0r), (f1s, f1e, f1i, f1r), (f2s, f2e, f2i, f2r),
     (f3s, _, f3i, f3r)) = f
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
        if not d <= dhi:
            if not d <= sum_tol:
                status, node = SUM_BREACH, j >> 2
                break
            dhi = d
        elif d < dlo:
            if -d > sum_tol:
                status, node = SUM_BREACH, j >> 2
                break
            dlo = d
        if s < low:
            low = s
        if e < low:
            low = e
        if i < low:
            low = i
        if rc < low:
            low = rc
        if low < neg_tol:
            status, node = NEGATIVE, j >> 2
            break
        x[j], x[j + 1], x[j + 2], x[j + 3] = s, e, i, rc
        bsi = beta * s * i
        mi = mu * i
        grc = gamma * rc
        f3s, f2s, f1s, f0s = f2s, f1s, f0s, grc - bsi
        f2e, f1e, f0e = f1e, f0e, bsi - edk
        f3i, f2i, f1i, f0i = f2i, f1i, f0i, edk - mi
        f3r, f2r, f1r, f0r = f2r, f1r, f0r, mi - grc
    return (x, status, node, *_settle(x, 0, len(x), dhi, dlo, low))


def euler_maruyama(x, beta, mu, gamma, kr, h, n_steps, m, eps, chunks, lo,
                   hi, defect=0.0, low=math.inf):
    """Euler-Maruyama step loop with a single shared noise increment.

    x is a C-contiguous float array of at least m + 1 + n_steps rows of
    (S, E, I, R): rows 0 .. m - 1 hold the m nodes before the start node
    (only their E is read: the constant history before t = 0), row m the
    start node, and step k writes node k + 1 to row m + k + 1. The delayed
    exposed value of step k is the E of row k, so with m = 0 (no delay) it
    is the current node's. chunks yields the increments of steps
    0 .. n_steps - 1 in order, as 1-D arrays of consecutive steps; each is
    read once, before the next is asked for. The transfer terms a
    (infection), b (latency exit), c (recovery), d (immunity loss) and the
    noise term w are each computed once per step and moved between
    compartments with the same rounded value, so the four updates cancel
    algebraically and the simplex sum is conserved up to per-step rounding
    of the additions alone. With eps = 0 and zero increments the trajectory
    is bitwise equal to the deterministic Euler scheme written with the same
    update expressions.

    defect and low are the max_sum_defect and min_component of the path's
    nodes before the start node, if any, as the previous window returned
    them. Returns (status, node, component, max_sum_defect,
    min_component): the first node (1 .. n_steps, counted from the start
    node) outside [lo, hi], stored before the check, its component and
    NaN, NaN, or -1, -1 and the reductions of the path up to the last node.
    """
    x = memoryview(x.reshape(-1))
    j = 4 * m
    s, e, i, rc = x[j], x[j + 1], x[j + 2], x[j + 3]
    # the stepped nodes' running minimum, checked against lo, joins the
    # earlier nodes' minimum, held, at the end
    dhi, dlo, held, low = defect, -defect, low, math.inf
    k0 = 0
    for dw in chunks:
        for k, z in zip(range(k0, n_steps), dw.tolist()):
            ed = x[4 * k + 1]
            a = h * (beta * s * i)
            b = h * (ed / kr)
            c = h * (mu * i)
            d = h * (gamma * rc)
            w = eps * (s * i) * z
            s = s - a + d - w
            e = e + a - b + w
            i = i + b - c
            rc = rc + c - d
            j += 4
            x[j], x[j + 1], x[j + 2], x[j + 3] = s, e, i, rc
            if s < low:
                low = s
            if e < low:
                low = e
            if i < low:
                low = i
            if rc < low:
                low = rc
            if low < lo or s > hi or e > hi or i > hi or rc > hi:
                out = [v < lo or v > hi for v in (s, e, i, rc)]
                return EXCURSION, k + 1, out.index(True), math.nan, math.nan
            dev = ((s + e) + i) + rc - 1.0
            if not dev <= dhi:
                if dhi == dhi:
                    dhi = dev
            elif dev < dlo:
                dlo = dev
        k0 += len(dw)
    return (OK, -1, -1, *_settle(x, 4 * m, j + 4, dhi, dlo, min(held, low)))

"""Time-stepping kernels shared by the deterministic and stochastic integrators.

Every kernel is a plain CPython loop over Python floats: the state and the
stage rates are locals, and node rows are read and written
through a flat memoryview of doubles from the caller, four per node (S, E,
I, R). So the kernels allocate no node buffer, need neither numpy nor any
other extension module, and write each row in place. Only +, -, * and / are
used, so every node is fixed by IEEE-754 rounding alone. Kernels never
raise: they return a status code and the index of the first offending
node, counted from the start node (0 = ok, 1 = simplex-sum breach, 2 =
negative component, 3 = excursion outside the allowed band).

Before its start node a kernel's buffer holds the rows that its delayed
values read: none for ode_rk4, 2m for dde_rk4_abm4 and m for
euler_maruyama, copies of node 0 before t = 0, whose E is the constant
history. The delay is an exact multiple m of the step, so E(t_k - r) is the
node m rows back; between nodes the one RK4 loop, _rk4_steps, takes the
cubic Hermite interpolant of E, whose slopes reach m rows further back. A
caller can therefore step a path in windows through a buffer of those rows
and one window, carrying the last nodes over (det_integrator._run_windows).

Every kernel also takes the report reductions of the path before its start
node, as the previous window returned them, and returns those of the path
up to its last node; this module is the one place that reduces a path.
max_sum_defect is the largest |((S + E) + I) + R - 1| over the nodes: each
stepped node's defect d is compared with the running max and min of d, and
the deterministic kernels test their sum tolerance only when one of them
moves. A NaN defect fails ``d <= dhi``: those kernels take it for a sum
breach, and a reduction keeps it and makes both lines NaN. min_component is
the smallest component, a zero being IEEE 754-2019 ``minimum``'s, under
which -0.0 is below +0.0: the loops keep no signs, and when the minimum is
+0.0 the stored node bytes are searched for a -0.0, so no step pays for the
rule. A kernel's start node is never checked; it joins the reductions at
the end.

Every right-hand side (S', E', I', R') with exposed source ed = E(t - r)
forms the products bsi = beta*s*i, mi = mu*i, grc = gamma*rc and
edk = ed/kr once and takes the rates as grc - bsi, bsi - edk, edk - mi and
mi - grc. The stochastic kernel takes its noise one chunk at a time.
"""
from __future__ import annotations

import math
import sys
from itertools import chain

OK = 0
SUM_BREACH = 1
NEGATIVE = 2
EXCURSION = 3


# -0.0 as the bytes of a node buffer's double: the sign bit alone
_NEG_ZERO = (1 << 63).to_bytes(8, sys.byteorder)
# doubles per piece of a buffer copied out to search for it
_SEARCH_PIECE = 512


def _settle(x, a, b, dhi, dlo, low):
    """(max_sum_defect, min_component) of the nodes at flat offsets a .. b - 1
    of x from the running extremes of all but the first, which joins here:
    dhi and dlo, the max and min of 0 and their defects, and low, their
    smallest component, a zero of either sign."""
    s, e, i, rc = x[a], x[a + 1], x[a + 2], x[a + 3]
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


def _rk4_steps(x, m, beta, mu, gamma, kr, n_steps, h, sum_tol, neg_tol,
               defect, low):
    """Classical RK4 from the start node in row 2m of x; step k writes row
    2m + 1 + k. Returns what ode_rk4 does.

    With m = 0 every stage's exposed source E(t - r) is the stage's own E
    (the nondelayed system). With m > 0 the step from node k reads it at
    t_k and t_{k+1} from the stored nodes k - m and k - m + 1, and at the
    half step from the cubic Hermite interpolant between them, whose slopes
    E'_j = beta*S_j*I_j - E_{j-m}/kr need the nodes m further back: so the
    2m rows before the start node. The slope and E/kr of node k - m + 1 are
    carried over to the next step, and a window rebuilds them from the
    stored nodes, bit for bit. Before t = 0 every row is node 0, so on
    [0, r] every delayed value is its E, as for the constant history.
    """
    a = 8 * m
    b = a + 4 * n_steps + 4
    s, e, i, rc = x[a], x[a + 1], x[a + 2], x[a + 3]
    h2 = 0.5 * h
    h6 = h / 6.0
    h8 = 0.125 * h
    # the stepped nodes' running minimum, checked against neg_tol, joins the
    # earlier nodes' minimum, held, at the end
    dhi, dlo, held, low = defect, -defect, low, math.inf
    status = OK
    # flat offset from node k + 1 to node k - m + 1, and from that one to
    # the node m before it
    back = 4 * m
    if m:
        # node k - m of the first step: its E, E / kr and slope E'
        ea = x[a - back + 1]
        eak = ea / kr
        dea = beta * x[a - back] * x[a - back + 2] - x[a - 2 * back + 1] / kr
    # j is the flat offset of the node being computed
    for j in range(a + 4, b, 4):
        bsi = beta * s * i
        mi = mu * i
        grc = gamma * rc
        if m:
            o = j - back
            eb = x[o + 1]
            deb = beta * x[o] * x[o + 2] - x[o - back + 1] / kr
            edk = eak
        else:
            edk = e / kr
        a1s = grc - bsi
        a1e = bsi - edk
        a1i = edk - mi
        a1r = mi - grc

        ts = s + h2 * a1s
        ti = i + h2 * a1i
        tr = rc + h2 * a1r
        if m:
            edk = (0.5 * (ea + eb) + h8 * (dea - deb)) / kr
        else:
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
        if not m:
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
        if m:
            ea, dea = eb, deb
            edk = eak = eb / kr
        else:
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
                status = SUM_BREACH
                break
            dhi = d
        elif d < dlo:
            if -d > sum_tol:
                status = SUM_BREACH
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
            status = NEGATIVE
            break
        x[j], x[j + 1], x[j + 2], x[j + 3] = s, e, i, rc
    return (status, (j - a) >> 2 if status else -1,
            *_settle(x, a, b, dhi, dlo, min(held, low)))


def ode_rk4(x, beta, mu, gamma, kr, n_steps, h, sum_tol, neg_tol,
            defect=0.0, low=math.inf):
    """Classical RK4 for the nondelayed system from the start node in row 0
    of x; step k writes row k + 1. defect and low are the reductions of the
    path before the start node. Returns (status, bad_node, max_sum_defect,
    min_component): the first node that breaks sum_tol or neg_tol, not
    stored, or -1, and the reductions of the path up to the last node
    (meaningless after an exit)."""
    return _rk4_steps(x, 0, beta, mu, gamma, kr, n_steps, h, sum_tol,
                      neg_tol, defect, low)


def dde_rk4_abm4(x, m, beta, mu, gamma, kr, n_steps, h, sum_tol, neg_tol,
                 defect=0.0, low=math.inf):
    """Classical RK4 for the delayed system (m = r/h >= 3) from the start
    node in row 2m of x, after the 2m nodes before it, with Hermite delayed
    values at the half steps (_rk4_steps); step k writes row 2m + 1 + k.
    Takes and returns what ode_rk4 does. The name, from the Adams-Bashforth-
    Moulton corrector that once stepped this path past t = r, stays because
    perfbench/tracer.py wraps the kernel by it, with n_steps at index 6."""
    return _rk4_steps(x, m, beta, mu, gamma, kr, n_steps, h, sum_tol,
                      neg_tol, defect, low)


def euler_maruyama(x, m, beta, mu, gamma, kr, n_steps, h, eps, chunks, lo,
                   hi, defect=0.0, low=math.inf):
    """Euler-Maruyama step loop with a single shared noise increment.

    x is a flat view of at least m + 1 + n_steps rows: rows 0 .. m - 1 hold
    the m nodes before the start node (only their E is read), row m the
    start node, and step k writes node k + 1 to row m + k + 1. The delayed
    exposed value of step k is the E of row k, so with m = 0 (no delay) it
    is the current node's. chunks yields the increments of steps
    0 .. n_steps - 1 in order, as lists of floats of consecutive steps; each
    is read once, before the next is asked for. The transfer terms a
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
    j = 4 * m
    s, e, i, rc = x[j], x[j + 1], x[j + 2], x[j + 3]
    # the stepped nodes' running minimum, checked against lo, joins the
    # earlier nodes' minimum, held, at the end
    dhi, dlo, held, low = defect, -defect, low, math.inf
    # chain lets go of a chunk before it asks for the next one
    for k, z in zip(range(n_steps), chain.from_iterable(chunks)):
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
    return (OK, -1, -1, *_settle(x, 4 * m, j + 4, dhi, dlo, min(held, low)))

"""Time-stepping kernels shared by the deterministic and stochastic integrators.

Every kernel is a plain CPython loop over Python floats: the state and the
last few derivative rows are locals, and node rows are read and written
through a flat memoryview of doubles from the caller, four per node (S, E,
I, R). So the kernels allocate no node buffer, need neither numpy nor any
other extension module, and write each row in place. Only +, -, * and / are
used, so every node is fixed by IEEE-754 rounding alone. Kernels never
raise: they return a status code and the index of the first offending
node, counted from the start node (0 = ok, 1 = simplex-sum breach, 2 =
negative component, 3 = excursion outside the allowed band).

Before its start node a kernel's buffer holds the rows that its delayed
values and its restart read: none for ode_rk4, m + 3 for dde_rk4_abm4 and m
for euler_maruyama, copies of node 0 before t = 0, whose E is the constant
history. The delay is an exact multiple m of the step, so E(t_k - r) is the
node m rows back; no interpolation. A caller can therefore step a path in
windows through a buffer of those rows and one window, carrying the last
nodes over (det_integrator._run_windows).

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


def _rk4_steps(x, a, b, edk, h, beta, mu, gamma, kr, sum_tol, neg_tol, dhi,
               dlo):
    """Classical RK4 from the node at flat offset a - 4 of x, storing the
    nodes at flat offsets a, a + 4, .. < b.

    The exposed source E(t - r) of every stage is the constant history when
    edk, its ed / kr, is given (all stage times lie in [0, r]), else the
    stage's own E (the nondelayed system, edk None). dhi and dlo are the
    running max and min of the defects. Returns (status, flat offset of the
    bad node, dhi, dlo, low), low the stepped nodes' smallest component.
    """
    s, e, i, rc = x[a - 4], x[a - 3], x[a - 2], x[a - 1]
    h2 = 0.5 * h
    h6 = h / 6.0
    low = math.inf
    delayed = edk is not None
    # j is the flat offset of the node being computed
    for j in range(a, b, 4):
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
                return SUM_BREACH, j, dhi, dlo, low
            dhi = d
        elif d < dlo:
            if -d > sum_tol:
                return SUM_BREACH, j, dhi, dlo, low
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
            return NEGATIVE, j, dhi, dlo, low
        x[j], x[j + 1], x[j + 2], x[j + 3] = s, e, i, rc
    return OK, -1, dhi, dlo, low


def ode_rk4(x, beta, mu, gamma, kr, n_steps, h, sum_tol, neg_tol,
            defect=0.0, low=math.inf):
    """Classical RK4 for the nondelayed system from the start node in row 0
    of x; step k writes row k + 1. defect and low are the reductions of the
    path before the start node. Returns (status, bad_node, max_sum_defect,
    min_component): the first node that breaks sum_tol or neg_tol, not
    stored, or -1, and the reductions of the path up to the last node
    (meaningless after an exit)."""
    b = 4 * n_steps + 4
    status, j, dhi, dlo, stepped = _rk4_steps(
        x, 4, b, None, h, beta, mu, gamma, kr, sum_tol, neg_tol, defect,
        -defect)
    return (status, j >> 2 if status else -1,
            *_settle(x, 0, b, dhi, dlo, min(low, stepped)))


def dde_rk4_abm4(x, m, beta, mu, gamma, kr, n_steps, h, start, sum_tol,
                 neg_tol, defect=0.0, low=math.inf):
    """Method of steps for the delayed system (m = r/h >= 3) from node start
    of the path, in row m + 3 of x after the m + 3 nodes before it; step k
    writes row m + 4 + k.

    Up to t = r the delayed exposed value is the constant history, so
    classical RK4 applies unchanged and keeps full order; it also supplies
    the m + 1 >= 4 starting nodes of the order-4 Adams-Bashforth/Adams-
    Moulton predictor-corrector (PECE) that runs past r over node
    derivatives. The corrector is interpolation-free: the delayed value at
    t_{k+1} is itself a stored node. Every PECE run starts by rebuilding its
    four derivative rows from the stored nodes, so a window needs no state
    but nodes. Takes and returns what ode_rk4 does.
    """
    a = 4 * m + 12
    b = a + 4 * n_steps + 4
    # RK4 steps up to node m; row 0 holds the constant history then
    c = a + 4 * max(0, min(m - start, n_steps)) + 4
    # the stepped nodes' running minimum, checked against neg_tol, joins the
    # earlier nodes' minimum, held, at the end
    held = low
    status, j, dhi, dlo, low = _rk4_steps(
        x, a + 4, c, x[1] / kr, h, beta, mu, gamma, kr, sum_tol, neg_tol,
        defect, -defect)
    if status != OK or c == b:
        return (status, (j - a) >> 2 if status else -1,
                *_settle(x, a, b, dhi, dlo, min(held, low)))

    # derivatives at nodes k, k-1, k-2, k-3 as float locals (the corrector
    # never reads E' at node k-3), node k being the last stored, at flat
    # offset c - 4; the delayed value of a node is the stored node m back
    back = 4 * m - 1
    f = []
    for j in range(c - 4, c - 20, -4):
        i, rc = x[j + 2], x[j + 3]
        bsi = beta * x[j] * i
        mi = mu * i
        grc = gamma * rc
        edk = x[j - back] / kr
        f.append((grc - bsi, bsi - edk, edk - mi, mi - grc))
    ((f0s, f0e, f0i, f0r), (f1s, f1e, f1i, f1r), (f2s, f2e, f2i, f2r),
     (f3s, _, f3i, f3r)) = f
    s, e, i, rc = x[c - 4], x[c - 3], x[c - 2], x[c - 1]
    h24 = h / 24.0
    # j is the flat offset of node k + 1; E(t_{k+1} - r) is the stored node
    # k + 1 - m, shared by the predicted and the corrected node's right-hand
    # sides
    for j in range(c, b, 4):
        edk = x[j - back] / kr
        ps = s + h24 * (55.0 * f0s - 59.0 * f1s + 37.0 * f2s - 9.0 * f3s)
        pi = i + h24 * (55.0 * f0i - 59.0 * f1i + 37.0 * f2i - 9.0 * f3i)
        pr = rc + h24 * (55.0 * f0r - 59.0 * f1r + 37.0 * f2r - 9.0 * f3r)
        bsi = beta * ps * pi
        mi = mu * pi
        grc = gamma * pr
        s = s + h24 * (9.0 * (grc - bsi) + 19.0 * f0s - 5.0 * f1s + f2s)
        e = e + h24 * (9.0 * (bsi - edk) + 19.0 * f0e - 5.0 * f1e + f2e)
        i = i + h24 * (9.0 * (edk - mi) + 19.0 * f0i - 5.0 * f1i + f2i)
        rc = rc + h24 * (9.0 * (mi - grc) + 19.0 * f0r - 5.0 * f1r + f2r)

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
        bsi = beta * s * i
        mi = mu * i
        grc = gamma * rc
        f3s, f2s, f1s, f0s = f2s, f1s, f0s, grc - bsi
        f2e, f1e, f0e = f1e, f0e, bsi - edk
        f3i, f2i, f1i, f0i = f2i, f1i, f0i, edk - mi
        f3r, f2r, f1r, f0r = f2r, f1r, f0r, mi - grc
    return (status, (j - a) >> 2 if status else -1,
            *_settle(x, a, b, dhi, dlo, min(held, low)))


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

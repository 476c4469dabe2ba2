"""Time-stepping kernels shared by the deterministic and stochastic integrators.

Every kernel is a plain CPython loop over Python floats: the state and the
stage rates are locals, and node rows are read and written through a flat
memoryview of doubles, four per node (S, E, I, R). So a kernel allocates
nothing, needs neither numpy nor any other extension module, and writes
each row in place. Only +, -, * and / are used, so every node is fixed by
IEEE-754 rounding alone. Kernels never raise: they return a status code
and the index of the first offending node, counted from the start node
(0 = ok, 1 = simplex-sum breach, 2 = negative component, 3 = excursion
outside the allowed band).

With a delay of m steps E(t_k - r) is node k - m's E, which a kernel reads
from the ring of the last m + 1 nodes' entries (history) that the caller
passes to every window: node j's entry sits in slot j mod (m + 1), every
slot starts as node 0's, the constant history's, and step k reads node
k - m's slot before node k + 1 overwrites it. An entry is E for
euler_maruyama and (E, E') for dde_rk4_abm4, whose Hermite half steps need
E'. So a caller steps a path in windows through one buffer of nodes from
t = 0 on, carrying the last node over (det_integrator._run_windows).

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


def _settle(x, b, dhi, dlo, low):
    """(max_sum_defect, min_component) of the nodes at flat offsets 0 .. b - 1
    of x from the running extremes of all but the first, which joins here:
    dhi and dlo, the max and min of 0 and their defects, and low, their
    smallest component, a zero of either sign."""
    s, e, i, rc = x[0], x[1], x[2], x[3]
    d = ((s + e) + i) + rc - 1.0
    if not d <= dhi:
        # a NaN, once held, stays
        if dhi == dhi:
            dhi = d
    elif d < dlo:
        dlo = d
    low = min(low, s, e, i, rc)
    if dhi != dhi:
        return dhi, dhi
    if low == 0.0 and math.copysign(1.0, low) > 0.0 and any(
            _holds_negative_zero(x[c:min(b, c + _SEARCH_PIECE)].tobytes())
            for c in range(0, b, _SEARCH_PIECE)):
        low = -0.0
    # max |d|: dhi >= 0 >= dlo, and a zero defect is +0.0
    return -dlo if -dlo > dhi else dhi, low


def _holds_negative_zero(raw):
    """Whether the bytes raw hold _NEG_ZERO at a multiple of 8."""
    k = raw.find(_NEG_ZERO)
    while k > 0 and k % 8:
        k = raw.find(_NEG_ZERO, k + 1)
    return k >= 0


def history(node0, m, beta=None, kr=None):
    """The ring of a path from node0 with a delay of m steps: m + 1 copies
    of node 0's E, given beta and kr with E' = beta*S*I - E/kr beside it."""
    # det_integrator, which imports this module, allocates every buffer
    from .det_integrator import _buffer
    s, e, i, _ = node0
    return _buffer(m + 1, (e,) if kr is None else (e, beta * s * i - e / kr))


def _rk4_steps(x, ring, beta, mu, gamma, kr, n_steps, h, sum_tol, neg_tol,
               defect, low, first):
    """Classical RK4 from the start node in row 0 of x, node first of its
    path; step k writes row k + 1. Returns what ode_rk4 does.

    With no ring every stage's exposed source E(t - r) is the stage's own E
    (the nondelayed system). With a ring the step from node k reads it at
    t_k and t_{k+1} from nodes k - m and k - m + 1, and at the half step
    from their cubic Hermite interpolant, whose slopes E'_j = beta*S_j*I_j
    - E_{j-m}/kr are node j's first-stage E rate, stored with E_j by its
    step. Node k - m + 1's entry carries over, so a step reads one slot.
    """
    b = 4 * n_steps + 4
    s, e, i, rc = x[0], x[1], x[2], x[3]
    h2, h6, h8 = 0.5 * h, h / 6.0, 0.125 * h
    # the stepped nodes' running minimum, checked against neg_tol, joins the
    # earlier nodes' minimum, held, at the end
    dhi, dlo, held, low = defect, -defect, low, math.inf
    status = OK
    delayed = ring is not None
    if delayed:
        # c is the flat offset of node k - m + 1's slot, so node k - m's is
        # c - 2 and node k's c - 4, counted from the end when negative
        last = len(ring) - 2
        c = (2 * first + 4) % (last + 2)
        ea, dea = ring[c - 2], ring[c - 1]
        eak = ea / kr
    # j is the flat offset of the node being computed
    for j in range(4, b, 4):
        bsi = beta * s * i
        mi = mu * i
        grc = gamma * rc
        edk = eak if delayed else e / kr
        a1s = grc - bsi
        a1e = bsi - edk
        a1i = edk - mi
        a1r = mi - grc

        ts = s + h2 * a1s
        ti = i + h2 * a1i
        tr = rc + h2 * a1r
        if delayed:
            # node k's entry in, then node k - m + 1's out: the same one
            # when m = 1
            ring[c - 4], ring[c - 3] = e, a1e
            eb, deb = ring[c], ring[c + 1]
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
        if delayed:
            ea, dea = eb, deb
            edk = eak = eb / kr
            c = c + 2 if c != last else 0
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
    return (status, j >> 2 if status else -1,
            *_settle(x, b, dhi, dlo, min(held, low)))


def ode_rk4(x, beta, mu, gamma, kr, n_steps, h, sum_tol, neg_tol,
            defect=0.0, low=math.inf):
    """Classical RK4 for the nondelayed system from the start node in row 0
    of x; step k writes row k + 1. defect and low are the reductions of the
    path before the start node. Returns (status, bad_node, max_sum_defect,
    min_component): the first node that breaks sum_tol or neg_tol, not
    stored, or -1, and the path's reductions (meaningless after an exit)."""
    return _rk4_steps(x, None, beta, mu, gamma, kr, n_steps, h, sum_tol,
                      neg_tol, defect, low, 0)


def dde_rk4_abm4(x, ring, beta, mu, gamma, kr, n_steps, h, sum_tol, neg_tol,
                 defect=0.0, low=math.inf, first=0):
    """Classical RK4 for the delayed system (m = r/h >= 1) from the start
    node in row 0 of x, node first of its path, with Hermite delayed values
    at the half steps (_rk4_steps); step k writes row k + 1. ring is the
    path's history(node0, m, beta, kr), as the window before left it. Takes
    and returns what ode_rk4 does. The name, from the Adams-Bashforth-
    Moulton corrector that once stepped this path past t = r, stays because
    perfbench/tracer.py wraps the kernel by it, with n_steps at index 6."""
    return _rk4_steps(x, ring, beta, mu, gamma, kr, n_steps, h, sum_tol,
                      neg_tol, defect, low, first)


def euler_maruyama(x, ring, beta, mu, gamma, kr, n_steps, h, eps, chunks, lo,
                   hi, defect=0.0, low=math.inf, first=0):
    """Euler-Maruyama step loop with a single shared noise increment.

    x is a flat view of at least 1 + n_steps rows: row 0 holds the start
    node, node first of its path, and step k writes row k + 1. ring is the
    path's history(node0, m), as the window before left it: step k's
    delayed exposed value is node k - m's E, the current node's when m = 0.
    chunks yields the increments of steps 0 .. n_steps - 1 in order, as
    lists of floats of consecutive steps; each is read once, before the
    next is asked for. The transfer terms a (infection), b (latency exit),
    c (recovery), d (immunity loss) and the noise term w are each computed
    once per step and moved between compartments with the same rounded
    value, so the four updates cancel algebraically and the simplex sum is
    conserved up to per-step rounding of the additions alone. With eps = 0
    and zero increments the trajectory is bitwise equal to the
    deterministic Euler scheme written with the same update expressions.

    defect and low are as for ode_rk4. Returns (status, node, component,
    max_sum_defect, min_component): the first node (1 .. n_steps, counted
    from the start node) outside [lo, hi], stored before the check, its
    component and NaN, NaN, or -1, -1 and the path's reductions.
    """
    j = 0
    s, e, i, rc = x[0], x[1], x[2], x[3]
    # the stepped nodes' running minimum, checked against lo, joins the
    # earlier nodes' minimum, held, at the end
    dhi, dlo, held, low = defect, -defect, low, math.inf
    # node k - m's slot, which node k + 1 takes over
    q, m = (first + 1) % len(ring), len(ring) - 1
    # chain lets go of a chunk before it asks for the next one
    for k, z in zip(range(n_steps), chain.from_iterable(chunks)):
        ed = ring[q]
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
        ring[q] = e
        q = q + 1 if q != m else 0
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
    return (OK, -1, -1, *_settle(x, j + 4, dhi, dlo, min(held, low)))

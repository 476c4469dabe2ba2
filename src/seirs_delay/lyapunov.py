"""The quadratic Lyapunov certificate of the nondelayed stochastic model.

At r = 0 the disease-free point stays stable under the S <-> E noise when
mu - beta - eps^2/(2*mu*k_r) > 0 (lyapunov_margin, lyapunov_condition). The
certificate builds V = u1^2 + v2 u2^2 + v3 u3^2 and checks that its generator
is negative. Only the grid bound on LV uses numpy, and it imports it when
called, so checking the condition alone loads no array module.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .model_core import Params, ValidationError

__all__ = [
    "LyapunovCertificate",
    "lyapunov_margin",
    "lyapunov_condition",
    "lyapunov_certificate",
]


def lyapunov_margin(p: Params) -> float:
    """mu - beta - eps^2/(2*mu*k_r), the left side of lyapunov_condition;
    -inf when eps^2 overflows. Requires r = 0."""
    if p.r != 0.0:
        raise ValidationError("nondelayed analysis only: r must be 0")
    try:
        eps_sq = p.epsilon ** 2
    except OverflowError:
        return -math.inf
    return p.mu - p.beta - eps_sq / (2.0 * p.mu * p.k_r)


def lyapunov_condition(p: Params) -> bool:
    """Noise-robust stability condition for the nondelayed disease-free point:

        mu - beta - eps^2/(2*mu*k_r) > 0

    equivalent (mu > 0) to mu > (beta + sqrt(beta^2 + 2*eps^2/k_r))/2.
    At eps = 0 it reduces to mu > beta. Requires r = 0.
    """
    return lyapunov_margin(p) > 0.0


@dataclass(frozen=True)
class LyapunovCertificate:
    """Witness for negativity of the generator on V = u1^2 + v2 u2^2 + v3 u3^2.

    ineq1..ineq3 are the three coefficient bounds obtained after splitting
    the cross terms with Young's inequality (all must be <= 0); lv_bound is
    the max of LV/|u|^2 over a deterministic grid of 1000 points in (0,1]^3
    and must be < 0 for holds.
    """

    v2: float
    v3: float
    lambda1_sq: float
    lambda3_sq: float
    alpha0: float
    ineq1: float
    ineq2: float
    ineq3: float
    lv_bound: float
    holds: bool


def _lv_grid_bound(p: Params, v2: float, v3: float) -> float:
    """Max of LV(u)/|u|^2 over the 10x10x10 grid u_i in {0.1, ..., 1.0}."""
    # the one array in this module: a pure-Python grid gives the same bits
    # but takes about 2.5 times as long
    import numpy as np

    g = np.arange(1, 11) / 10.0
    u1, u2, u3 = np.meshgrid(g, g, g, indexing="ij")
    lv = (2.0 * (p.beta + v2 / p.k_r) * u1 * u2
          + 2.0 * v3 * p.mu * u2 * u3
          - 2.0 / p.k_r * u1 ** 2
          - (2.0 * v2 * p.mu - p.epsilon ** 2) * u2 ** 2
          - 2.0 * v3 * p.gamma * u3 ** 2)
    nrm = u1 ** 2 + u2 ** 2 + u3 ** 2
    return float(np.max(lv / nrm))


def lyapunov_certificate(p: Params) -> LyapunovCertificate:
    """Construct the quadratic Lyapunov certificate when the condition holds.

    v2 = k_r*(2*mu - beta) minimizes the v2 quadratic; alpha0 = 1e-6 gives
    lambda1^2 = (2/k_r - alpha0)/(beta + v2/k_r); lambda3^2 = gamma/mu; v3 is
    the largest of {1, 1e-1, ..., 1e-8} making the second inequality hold.
    Raises "certificate construction failed" if no grid v3 works (distinct
    from the condition being false, which is a precondition error).
    """
    if not lyapunov_condition(p):
        raise ValidationError(
            "lyapunov condition mu - beta - eps^2/(2*mu*k_r) > 0 is false")
    v2 = p.k_r * (2.0 * p.mu - p.beta)
    alpha0 = 1e-6
    coupling = p.beta + v2 / p.k_r
    lam1_sq = (2.0 / p.k_r - alpha0) / coupling
    if lam1_sq <= 0.0:
        raise RuntimeError("certificate construction failed: lambda1^2 <= 0")
    lam3_sq = p.gamma / p.mu

    def ineq2_at(v3: float) -> float:
        return (-2.0 * v2 * p.mu + p.epsilon ** 2 + coupling / lam1_sq
                + v3 * p.mu / lam3_sq)

    v3 = None
    for exponent in range(0, 9):
        cand = 10.0 ** (-exponent)
        if ineq2_at(cand) <= 0.0:
            v3 = cand
            break
    if v3 is None:
        raise RuntimeError(
            "certificate construction failed: no v3 in {1, ..., 1e-8} "
            "satisfies the second inequality")
    i1 = -2.0 / p.k_r + lam1_sq * coupling
    i2 = ineq2_at(v3)
    i3 = -2.0 * v3 * p.gamma + lam3_sq * v3 * p.mu
    bound = _lv_grid_bound(p, v2, v3)
    holds = i1 <= 0.0 and i2 <= 0.0 and i3 <= 0.0 and bound < 0.0
    return LyapunovCertificate(
        v2=v2, v3=v3, lambda1_sq=lam1_sq, lambda3_sq=lam3_sq, alpha0=alpha0,
        ineq1=i1, ineq2=i2, ineq3=i3, lv_bound=bound, holds=holds)

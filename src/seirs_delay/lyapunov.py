"""The quadratic Lyapunov certificate of the nondelayed stochastic model.

At r = 0 the disease-free point stays stable under the S <-> E noise when
mu - beta - eps^2/(2*mu*k_r) > 0 (lyapunov_margin, lyapunov_condition). The
certificate builds V = u1^2 + v2 u2^2 + v3 u3^2 and checks that its generator
LV, a quadratic form in u, is negative definite: the form's top eigenvalue
comes in closed form and its LDL^T pivots settle the sign. It is all float
arithmetic, so neither the condition nor the certificate loads numpy.
"""
from __future__ import annotations

import math
import sys
from typing import NamedTuple, Optional

from .model_core import Params, ValidationError

__all__ = [
    "LyapunovCertificate",
    "lyapunov_margin",
    "lyapunov_condition",
    "lyapunov_certificate",
]


def _epsilon_sq(p: Params) -> float:
    """eps ** 2, or inf where that overflows. (eps * eps is correctly
    rounded where ** 2 is not always, but ** 2 gave every report's digits.)"""
    try:
        return p.epsilon ** 2
    except OverflowError:
        return math.inf


def lyapunov_margin(p: Params) -> float:
    """mu - beta - eps^2/(2*mu*k_r), the left side of lyapunov_condition;
    -inf when the ratio itself overflows. Requires r = 0."""
    if p.r != 0.0:
        raise ValidationError("nondelayed analysis only: r must be 0")
    eps_sq = _epsilon_sq(p)
    scale = 2.0 * p.mu * p.k_r
    if not (sys.float_info.min <= min(eps_sq, scale)
            and max(eps_sq, scale) < math.inf):
        # a zero, subnormal or overflowing eps^2 or 2*mu*k_r loses digits,
        # divides by zero or gives inf/inf; the same ratio as the square of
        # a quotient does none of these
        x = p.epsilon / math.sqrt(2.0 * p.mu) / math.sqrt(p.k_r)
        return p.mu - p.beta - x * x
    return p.mu - p.beta - eps_sq / scale


def lyapunov_condition(p: Params) -> bool:
    """Noise-robust stability condition for the nondelayed disease-free point:

        mu - beta - eps^2/(2*mu*k_r) > 0

    equivalent (mu > 0) to mu > (beta + sqrt(beta^2 + 2*eps^2/k_r))/2.
    At eps = 0 it reduces to mu > beta. Requires r = 0.
    """
    return lyapunov_margin(p) > 0.0


class LyapunovCertificate(NamedTuple):
    """Witness for negativity of the generator on V = u1^2 + v2 u2^2 + v3 u3^2.

    ineq1..ineq3 are the three coefficient bounds obtained after splitting
    the cross terms with Young's inequality (all must be <= 0). lv_bound is
    the largest eigenvalue of the symmetric matrix of the quadratic form LV,
    that is the max of LV/|u|^2 over all u != 0; holds needs it < 0 and the
    matrix's three LDL^T pivots < 0. When no v3 > 0 satisfies the second
    inequality (or v3*mu underflows for each that does), v3, ineq3 and
    lv_bound are None, ineq2 is its value as v3 -> 0, and holds is False.
    """

    v2: float
    v3: Optional[float]
    lambda1_sq: float
    lambda3_sq: float
    alpha0: float
    ineq1: float
    ineq2: float
    ineq3: Optional[float]
    lv_bound: Optional[float]
    holds: bool


def _lv_matrix(p: Params, v2: float, v3: float) -> tuple[float, ...]:
    """(a11, a12, a22, a23, a33) of the symmetric tridiagonal A with
    LV(u) = u^T A u."""
    return (-2.0 / p.k_r, p.beta + v2 / p.k_r,
            -(2.0 * v2 * p.mu - _epsilon_sq(p)), v3 * p.mu,
            -2.0 * v3 * p.gamma)


def _top_eigenvalue(a11: float, a12: float, a22: float, a23: float,
                    a33: float) -> float:
    """Largest eigenvalue of [[a11, a12, 0], [a12, a22, a23], [0, a23, a33]],
    with an absolute error of a few ulps of max|a_ij|; NaN for a non-finite
    entry.

    The matrix is divided by the power of two s with max|a_ij|/s in [1, 2),
    so no square overflows, then shifted and scaled to B = (A/s - q I)/p
    with trace 0 and eigenvalues 2cos(phi + 2k pi/3), phi = acos(det B/2)/3
    (O. K. Smith 1961, "Eigenvalues of a symmetric 3x3 matrix", CACM 4(4)).
    That formula loses half the digits of two eigenvalues that nearly
    coincide, but the smallest is always at least 3 below the largest. So
    only the smallest comes from it; the largest is the top eigenvalue of
    B on the plane orthogonal to the smallest's eigenvector, a 2x2 problem
    without cancellation (D. Eberly 2014, "A robust eigensolver for 3x3
    symmetric matrices").
    """
    big = max(abs(a11), abs(a12), abs(a22), abs(a23), abs(a33))
    if not math.isfinite(big):
        return math.nan
    s = math.ldexp(1.0, math.frexp(big)[1] - 1)
    a11, a12, a22, a23, a33 = a11 / s, a12 / s, a22 / s, a23 / s, a33 / s
    off = a12 * a12 + a23 * a23
    if off <= 2.0 ** -110:
        # Weyl: the diagonal's largest entry is within sqrt(off) <= 2^-55
        return s * max(a11, a22, a33)
    q = (a11 + a22 + a33) / 3.0
    b11, b22, b33 = a11 - q, a22 - q, a33 - q
    p = math.sqrt((b11 * b11 + b22 * b22 + b33 * b33 + 2.0 * off) / 6.0)
    b11, b12, b22, b23, b33 = b11 / p, a12 / p, b22 / p, a23 / p, b33 / p
    half_det = (b11 * (b22 * b33 - b23 * b23) - b12 * b12 * b33) / 2.0
    low = 2.0 * math.cos(math.acos(min(1.0, max(-1.0, half_det))) / 3.0
                         + 2.0 * math.pi / 3.0)
    # eigenvector of low: the longest cross product of two rows of B - low I
    m11, m22, m33 = b11 - low, b22 - low, b33 - low
    u0, u1, u2 = max(((b12 * b23, -m11 * b23, m11 * m22 - b12 * b12),
                      (b12 * m33, -m11 * m33, m11 * b23),
                      (m22 * m33 - b23 * b23, -b12 * m33, b12 * b23)),
                     key=lambda c: c[0] * c[0] + c[1] * c[1] + c[2] * c[2])
    n = math.sqrt(u0 * u0 + u1 * u1 + u2 * u2)
    u0, u1, u2 = u0 / n, u1 / n, u2 / n
    # an orthonormal pair v, w = u x v spanning the plane orthogonal to u
    if abs(u0) > abs(u1):
        n = math.sqrt(u0 * u0 + u2 * u2)
        v0, v1, v2 = -u2 / n, 0.0, u0 / n
    else:
        n = math.sqrt(u1 * u1 + u2 * u2)
        v0, v1, v2 = 0.0, u2 / n, -u1 / n
    w0, w1, w2 = u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0
    bv0, bv1, bv2 = (b11 * v0 + b12 * v1, b12 * v0 + b22 * v1 + b23 * v2,
                     b23 * v1 + b33 * v2)
    vv = v0 * bv0 + v1 * bv1 + v2 * bv2
    wv = w0 * bv0 + w1 * bv1 + w2 * bv2
    ww = (w0 * (b11 * w0 + b12 * w1) + w1 * (b12 * w0 + b22 * w1 + b23 * w2)
          + w2 * (b23 * w1 + b33 * w2))
    return s * (q + p * (0.5 * (vv + ww) + math.hypot(0.5 * (vv - ww), wv)))


def _negative_definite(a11: float, a12: float, a22: float, a23: float,
                       a33: float) -> bool:
    """Whether the LDL^T pivots a11, d2 = a22 - a12^2/a11 and
    d3 = a33 - a23^2/d2 of the tridiagonal matrix are all negative
    (Sylvester's criterion; Kahan 1966). They settle the sign where the
    top eigenvalue, accurate to a few ulps of max|a_ij|, cannot: a form
    whose top eigenvalue is exactly 0 can read as slightly negative.
    Requires a11 < 0, as _lv_matrix's a11 = -2/k_r is for every k_r > 0."""
    d2 = a22 - a12 * (a12 / a11)
    return d2 < 0.0 and a33 - a23 * (a23 / d2) < 0.0


def lyapunov_certificate(p: Params) -> LyapunovCertificate:
    """Construct the quadratic Lyapunov certificate when the condition holds.

    v2 = k_r*(2*mu - beta) minimizes the v2 quadratic; alpha0 =
    min(1e-6, 2e-6/k_r), at most a millionth of 2/k_r, gives
    lambda1^2 = (2/k_r - alpha0)/(beta + v2/k_r) > 0; lambda3^2 = gamma/mu;
    v3 is the largest of {1, 1e-1, ..., 1e-8} making the second inequality
    hold, else the largest v3 > 0 that does (the inequality is affine in
    v3). If there is none, the certificate does not hold. Raises
    ValidationError when the condition is false.
    """
    if not lyapunov_condition(p):
        raise ValidationError(
            "lyapunov condition mu - beta - eps^2/(2*mu*k_r) > 0 is false")
    v2 = p.k_r * (2.0 * p.mu - p.beta)
    # ineq1 = -alpha0 costs the second inequality about mu^2 k_r^2 alpha0,
    # so alpha0 is at most a millionth of 2/k_r (a fixed 1e-6 would also
    # leave lambda1^2 <= 0 once k_r >= 2e6)
    alpha0 = min(1e-6, 2e-6 / p.k_r)
    coupling = p.beta + v2 / p.k_r
    lam1_sq = (2.0 / p.k_r - alpha0) / coupling
    lam3_sq = p.gamma / p.mu
    # the second inequality is ineq2_0 + v3*mu/lambda3^2 <= 0; lambda1^2
    # underflows to 0 only when v2 overflows, and NaN then fails every test
    ineq2_0 = (-2.0 * v2 * p.mu + _epsilon_sq(p)
               + (coupling / lam1_sq if lam1_sq > 0.0 else math.nan))

    def ineq2_at(v3: float) -> float:
        return ineq2_0 + v3 * p.mu / lam3_sq

    i1 = -2.0 / p.k_r + lam1_sq * coupling
    decades = (10.0 ** -k for k in range(9))
    v3 = next((c for c in decades if ineq2_at(c) <= 0.0),
              -ineq2_0 * lam3_sq / p.mu * (1.0 - 2.0 ** -40))
    # 2^-40 covers the closed form's rounding, but not a subnormal product's
    while v3 > 0.0 and ineq2_at(v3) > 0.0:
        v3 *= 0.5
    if not v3 > 0.0:
        return LyapunovCertificate(
            v2=v2, v3=None, lambda1_sq=lam1_sq, lambda3_sq=lam3_sq,
            alpha0=alpha0, ineq1=i1, ineq2=ineq2_0, ineq3=None,
            lv_bound=None, holds=False)
    i2 = ineq2_at(v3)
    i3 = -2.0 * v3 * p.gamma + lam3_sq * v3 * p.mu
    a = _lv_matrix(p, v2, v3)
    bound = _top_eigenvalue(*a)
    holds = (i1 <= 0.0 and i2 <= 0.0 and i3 <= 0.0 and bound < 0.0
             and _negative_definite(*a))
    return LyapunovCertificate(
        v2=v2, v3=v3, lambda1_sq=lam1_sq, lambda3_sq=lam3_sq, alpha0=alpha0,
        ineq1=i1, ineq2=i2, ineq3=i3, lv_bound=bound, holds=holds)

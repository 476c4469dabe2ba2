"""Delay-margin analysis of the characteristic quasi-polynomials.

Stability under increasing delay is lost, if at all, when a root of the
quasi-polynomial crosses the imaginary axis. This module decides whether a
crossing can occur, locates the crossing frequency omega and angle theta,
and converts them into the critical delay r* = theta/omega. For the
disease-free point it also provides the closed-form lower bound M on r*
showing the admissible delay range (r <= k_r/e) never reaches the crossing.
"""
from __future__ import annotations

import math
from typing import NamedTuple, Optional

from ._cubic import cubic_roots
from .linear_stability import QuasiPolynomial
from .model_core import NoCrossingError, Params, ValidationError

__all__ = [
    "RESIDUAL_TOL",
    "CrossingReport",
    "CubicABC",
    "zero_delay_stable",
    "deg2_crossing",
    "free_disease_margin",
    "deg3_abc",
    "deg3_crossing",
    "cubic_real_roots",
    "verify_crossing",
]

# every reported crossing must satisfy the defining equations this tightly,
# relative to the sum of the moduli of the terms of q(i*omega)
RESIDUAL_TOL = 1e-9


class CrossingReport(NamedTuple):
    """An imaginary-axis crossing of the quasi-polynomial.

    omega > 0 is the crossing frequency, theta in [0, 2*pi) the angle
    omega*r at the crossing, r_star = theta/omega the critical delay, and
    residual the modulus of the quasi-polynomial at lambda = i*omega with
    delay r_star (at most RESIDUAL_TOL times the scale
    omega^d + sum |a_k| omega^k + sum |b_k| omega^k of its terms).
    """

    omega: float
    theta: float
    r_star: float
    residual: float


class CubicABC(NamedTuple):
    """Coefficients of the frequency cubic z^3 + A z^2 + B z + C (z = omega^2)
    together with the paper's printed expression

        delta = 18*A*B*C - 4*A^3*C + A^2*B^2 - 4*B^2 - 27*C^2

    which is reported but decides nothing: it is not the cubic's
    discriminant, which has 4*B^3 in place of 4*B^2.
    """

    A: float
    B: float
    C: float
    delta: float


def cubic_real_roots(A: float, B: float, C: float) -> list[float]:
    """Real roots of x^3 + A x^2 + B x + C, ascending, multiplicity-aware."""
    for name, v in (("A", A), ("B", B), ("C", C)):
        if not math.isfinite(v):
            raise ValidationError(f"{name}: must be finite")
    return sorted(z.real for z in cubic_roots(A, B, C) if z.imag == 0.0)


def verify_crossing(q: QuasiPolynomial, omega: float, r: float) -> float:
    """Modulus of q at lambda = i*omega with delay r (0 at a true crossing)."""
    if not omega > 0.0:
        raise ValidationError(f"omega: must be > 0, got {omega!r}")
    if not r >= 0.0:
        raise ValidationError(f"r: must be >= 0, got {r!r}")
    return abs(q.value(1j * omega, r=r))


def _theta_from(cos_t: float, sin_t: float) -> float:
    """Angle in [0, 2*pi) whose cosine/sine match the given pair."""
    t = math.atan2(sin_t, cos_t)
    if t < 0.0:
        t += 2.0 * math.pi
    return t


def _report(q: QuasiPolynomial, omega: float, cos_t: float,
            sin_t: float) -> CrossingReport:
    theta = _theta_from(cos_t, sin_t)
    r_star = theta / omega
    residual = verify_crossing(q, omega, r_star)
    scale = 1.0
    for a, b in zip(reversed(q.a), reversed(q.b)):
        scale = scale * omega + (abs(a) + abs(b))
    if residual > RESIDUAL_TOL * scale:
        raise RuntimeError(
            f"crossing residual {residual!r} exceeds {RESIDUAL_TOL} times "
            f"the scale {scale!r} of the terms of q(i*omega); the located "
            "point does not satisfy the crossing equations")
    return CrossingReport(omega=omega, theta=theta, r_star=r_star,
                          residual=residual)


def _require_degree(q: QuasiPolynomial, d: int) -> None:
    if q.degree != d:
        raise ValidationError(f"expected a degree-{d} quasi-polynomial, "
                              f"got degree {q.degree}")


def zero_delay_stable(q: QuasiPolynomial) -> bool:
    """Routh-Hurwitz for the zero-delay polynomial lam^d + sum c_k lam^k,
    c_k = a_k + b_k: every c_k is positive and, for d = 3, c2*c1 > c0."""
    c = [a + b for a, b in zip(q.a, q.b)]
    return all(v > 0.0 for v in c) and (q.degree == 2 or c[2] * c[1] > c[0])


def deg2_crossing(q: QuasiPolynomial) -> CrossingReport:
    """Locate the imaginary-axis crossing of a degree-2 quasi-polynomial.

    The crossing frequency solves omega^4 + (a1^2 - 2*a0 - b1^2)*omega^2 +
    (a0^2 - b0^2) = 0; the relevant root is

        omega^2 = ((b1^2 + 2*a0 - a1^2)
                   + sqrt((b1^2 + 2*a0 - a1^2)^2 - 4*(a0^2 - b0^2))) / 2

    and (cos theta, sin theta) solve the real/imaginary parts of
    q(i*omega) = 0, with the modulus-squared denominator b1^2*omega^2 + b0^2.
    """
    _require_degree(q, 2)
    a0, a1 = q.a
    b0, b1 = q.b
    if a0 + b0 == 0.0:
        raise NoCrossingError("a0 + b0 = 0: zero is a root at every delay")
    c = a0 * a0 - b0 * b0
    gap = b1 * b1 + 2.0 * a0 - a1 * a1
    second = c > 0.0 and gap > 0.0 and gap * gap > 4.0 * c
    if not (c < 0.0 or second):
        raise NoCrossingError("no crossing: no positive root of the "
                              "frequency equation")
    sq = math.sqrt(gap * gap - 4.0 * c)
    # for gap < 0 (then c < 0), gap + sq cancels; the roots' product c
    # gives the same root without the subtraction
    w2 = 0.5 * (gap + sq) if gap >= 0.0 else -2.0 * c / (sq - gap)
    if not w2 > 0.0:
        raise NoCrossingError(f"no crossing: omega^2 = {float(w2)!r} is not positive")
    omega = math.sqrt(w2)
    den = b1 * b1 * w2 + b0 * b0
    cos_t = -(a1 * b1 * w2 + (a0 - w2) * b0) / den
    sin_t = (a1 * b0 * omega - (a0 - w2) * b1 * omega) / den
    return _report(q, omega, cos_t, sin_t)


def free_disease_margin(p: Params) -> float:
    """Closed-form lower bound M for the disease-free critical delay.

        M = pi / (sqrt(2) * sqrt((k_r^-2 - mu^2)
                                 + sqrt((k_r^-2 - mu^2)^2
                                        + 4*k_r^-2*(mu - beta)^2)))

    Defined for beta < mu. M increases with beta from its beta -> 0 limit
    pi*k_r/2, the anchor of the bound chain. M >= pi*k_r/2 > k_r/e, so every
    delay admissible under k_r >= r*e sits strictly below the crossing delay
    r* >= M.
    """
    if not p.beta < p.mu:
        raise ValidationError(
            f"free_disease_margin requires beta < mu "
            f"(beta={p.beta!r}, mu={p.mu!r})")
    ik2 = 1.0 / (p.k_r * p.k_r)
    d = ik2 - p.mu * p.mu
    term = 4.0 * ik2 * (p.mu - p.beta) ** 2
    inner = math.sqrt(d * d + term)
    # for d < 0, d + inner cancels (to 0 once term is below d*d's rounding);
    # (inner + d)(inner - d) = term gives it without the subtraction
    d_inner = d + inner if d >= 0.0 else term / (inner - d)
    return math.pi / (math.sqrt(2.0) * math.sqrt(d_inner))


def deg3_abc(q: QuasiPolynomial) -> CubicABC:
    """Frequency-cubic coefficients of a degree-3 quasi-polynomial.

    |instantaneous|^2 = |delayed|^2 at lambda = i*omega reduces to
    z^3 + A z^2 + B z + C = 0 in z = omega^2 with

        A = a2^2 - b2^2 - 2*a1
        B = a1^2 - b1^2 + 2*b2*b0 - 2*a2*a0
        C = a0^2 - b0^2
    """
    _require_degree(q, 3)
    a0, a1, a2 = q.a
    b0, b1, b2 = q.b
    A = a2 * a2 - b2 * b2 - 2.0 * a1
    B = a1 * a1 - b1 * b1 + 2.0 * b2 * b0 - 2.0 * a2 * a0
    C = a0 * a0 - b0 * b0
    delta = (18.0 * A * B * C - 4.0 * A ** 3 * C + A ** 2 * B ** 2
             - 4.0 * B ** 2 - 27.0 * C ** 2)
    return CubicABC(A=A, B=B, C=C, delta=delta)


def deg3_crossing(q: QuasiPolynomial) -> Optional[CrossingReport]:
    """Locate the first imaginary-axis crossing of a degree-3 quasi-polynomial.

    A root can reach the imaginary axis only at lambda = i*omega with
    omega^2 a positive root of the frequency cubic (deg3_abc). For each
    positive root, (cos theta, sin theta) solve q(i*omega) = 0 with the
    modulus-squared denominator b1^2*omega^2 + (b0 - b2*omega^2)^2. Returns
    the crossing with the smallest critical delay r* over all positive roots,
    or None when the cubic has none: then no root crosses at any delay, and
    stability is that of the zero-delay polynomial (zero_delay_stable).
    """
    _require_degree(q, 3)
    a0, a1, a2 = q.a
    b0, b1, b2 = q.b
    if a0 + b0 == 0.0:
        raise NoCrossingError("a0 + b0 = 0: zero is a root at every delay")
    abc = deg3_abc(q)
    crossings = []
    for w2 in cubic_real_roots(abc.A, abc.B, abc.C):
        if w2 <= 0.0:
            continue
        omega = math.sqrt(w2)
        pdel = b0 - b2 * w2
        den = b1 * b1 * w2 + pdel * pdel
        w3 = w2 * omega
        cos_t = ((a2 * w2 - a0) * pdel + b1 * omega * (w3 - a1 * omega)) / den
        sin_t = ((a2 * w2 - a0) * b1 * omega - pdel * (w3 - a1 * omega)) / den
        crossings.append(_report(q, omega, cos_t, sin_t))
    return min(crossings, key=lambda cr: cr.r_star, default=None)

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

from ._cubic import cubic_real_roots as _cubic_real_roots
from .linear_stability import QuasiPolynomial
from .model_core import NoCrossingError, Params, ValidationError

__all__ = [
    "RESIDUAL_TOL",
    "NoCrossingError",
    "CrossingReport",
    "CubicABC",
    "deg2_instability_possible",
    "deg2_crossing",
    "free_disease_margin",
    "deg3_abc",
    "deg3_instability_possible",
    "deg3_crossing",
    "cubic_real_roots",
    "verify_crossing",
]

# every reported crossing must satisfy the defining equations this tightly
RESIDUAL_TOL = 1e-9


class CrossingReport(NamedTuple):
    """An imaginary-axis crossing of the quasi-polynomial.

    omega > 0 is the crossing frequency, theta in [0, 2*pi) the angle
    omega*r at the crossing, r_star = theta/omega the critical delay, and
    residual the modulus of the quasi-polynomial at lambda = i*omega with
    delay r_star (at most RESIDUAL_TOL).
    """

    omega: float
    theta: float
    r_star: float
    residual: float


class CubicABC(NamedTuple):
    """Coefficients of the frequency cubic z^3 + A z^2 + B z + C (z = omega^2)
    together with its discriminant delta as printed for this model:

        delta = 18*A*B*C - 4*A^3*C + A^2*B^2 - 4*B^2 - 27*C^2
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
    return _cubic_real_roots(A, B, C)


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
    if residual > RESIDUAL_TOL:
        raise RuntimeError(
            f"crossing residual {residual!r} exceeds {RESIDUAL_TOL}; "
            "the located point does not satisfy the crossing equations")
    return CrossingReport(omega=omega, theta=theta, r_star=r_star,
                          residual=residual)


def _require_degree(q: QuasiPolynomial, d: int) -> None:
    if q.degree != d:
        raise ValidationError(f"expected a degree-{d} quasi-polynomial, "
                              f"got degree {q.degree}")


def deg2_instability_possible(q: QuasiPolynomial) -> bool:
    """Can the degree-2 quasi-polynomial lose stability as the delay grows?

    True iff the zero-delay polynomial is stable (a0+b0 > 0 and a1+b1 > 0)
    and a positive crossing frequency exists: either a0^2 < b0^2, or
    a0^2 > b0^2 together with a1^2 < b1^2 + 2*a0 and
    (a1^2 - b1^2 - 2*a0)^2 > 4*(a0^2 - b0^2).
    """
    _require_degree(q, 2)
    a0, a1 = q.a
    b0, b1 = q.b
    if not (a0 + b0 > 0.0 and a1 + b1 > 0.0):
        return False
    c = a0 * a0 - b0 * b0
    if c < 0.0:
        return True
    if c > 0.0:
        gap = a1 * a1 - b1 * b1 - 2.0 * a0
        return gap < 0.0 and gap * gap > 4.0 * c
    return False


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
    w2 = 0.5 * (gap + math.sqrt(gap * gap - 4.0 * c))
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
    inner = math.sqrt(d * d + 4.0 * ik2 * (p.mu - p.beta) ** 2)
    return math.pi / (math.sqrt(2.0) * math.sqrt(d + inner))


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


def _rh_cubic(c2: float, c1: float, c0: float) -> bool:
    """Routh-Hurwitz for lam^3 + c2 lam^2 + c1 lam + c0."""
    return c2 > 0.0 and c0 > 0.0 and c2 * c1 > c0


def deg3_instability_possible(q: QuasiPolynomial) -> bool:
    """Can the degree-3 quasi-polynomial lose stability as the delay grows?

    True iff (A, B, C) are not all positive, the zero-delay cubic built on
    a + b passes Routh-Hurwitz, and the frequency cubic admits a positive
    root: either C < 0, or C > 0 together with A^2 - 3B > 0 and
    4*(B^2 - 3*A*C)*(A^2 - 3*B) - (9*C - A*B)^2 > 0.
    """
    _require_degree(q, 3)
    abc = deg3_abc(q)
    if abc.A > 0.0 and abc.B > 0.0 and abc.C > 0.0:
        return False
    c2 = q.a[2] + q.b[2]
    c1 = q.a[1] + q.b[1]
    c0 = q.a[0] + q.b[0]
    if not _rh_cubic(c2, c1, c0):
        return False
    if abc.C < 0.0:
        return True
    if abc.C > 0.0:
        p1 = abc.A * abc.A - 3.0 * abc.B
        p2 = (4.0 * (abc.B * abc.B - 3.0 * abc.A * abc.C) * p1
              - (9.0 * abc.C - abc.A * abc.B) ** 2)
        return p1 > 0.0 and p2 > 0.0
    return False


def deg3_crossing(q: QuasiPolynomial) -> Optional[CrossingReport]:
    """Locate the imaginary-axis crossing of a degree-3 quasi-polynomial.

    Returns None ("inconclusive") when the printed discriminant delta of the
    frequency cubic is nonnegative: the single-crossing criterion only covers
    delta < 0. For delta < 0 the unique real root omega0^2 must be positive,
    and (cos theta, sin theta) solve q(i*omega0) = 0 with the modulus-squared
    denominator b1^2*omega0^2 + (b0 - b2*omega0^2)^2.

    The closed-form root count provides a second opinion on delta's sign
    and decides which root to use. Where the two disagree, delta still
    decides between None and a crossing; a count of three real roots then
    needs a unique positive one. The roots are computed first, so a cubic
    that overflows fails whatever delta's sign.
    """
    _require_degree(q, 3)
    a0, a1, a2 = q.a
    b0, b1, b2 = q.b
    if a0 + b0 == 0.0:
        raise NoCrossingError("a0 + b0 = 0: zero is a root at every delay")
    abc = deg3_abc(q)
    roots = cubic_real_roots(abc.A, abc.B, abc.C)
    if abc.delta >= 0.0:
        return None
    if len(roots) == 1:
        w2 = roots[0]
    else:
        positive = [z for z in roots if z > 0.0]
        if len(positive) != 1:
            raise NoCrossingError(
                f"ambiguous crossing: {len(positive)} positive roots of the "
                "frequency cubic")
        w2 = positive[0]
    if not w2 > 0.0:
        raise NoCrossingError(
            f"no crossing: the real root omega^2 = {float(w2)!r} is not positive")
    omega = math.sqrt(w2)
    pdel = b0 - b2 * w2
    den = b1 * b1 * w2 + pdel * pdel
    w3 = w2 * omega
    cos_t = ((a2 * w2 - a0) * pdel + b1 * omega * (w3 - a1 * omega)) / den
    sin_t = ((a2 * w2 - a0) * b1 * omega - pdel * (w3 - a1 * omega)) / den
    return _report(q, omega, cos_t, sin_t)

"""Linearization around the equilibria: Jacobian rows, eigenvalues, algebraic
stability criteria, and the characteristic quasi-polynomials of the delayed
linearization.

The fourth equation decouples through R = 1 - S - E - I, so every object
here lives in the reduced (E, I, R) coordinates around the disease-free
point and (S, I, R) around the coexistence point.

Everything here is scalar arithmetic on floats, and the module imports no
numpy: each Jacobian is a tuple of three rows of floats.
"""
from __future__ import annotations

import cmath
import math
from typing import NamedTuple, Optional

from ._cubic import cubic_roots
from .model_core import Params, ValidationError, _Checked

__all__ = [
    "MARGINAL_TOL",
    "Criterion",
    "StabilityVerdict",
    "QuasiPolynomial",
    "free_disease_eigenvalues_closed_form",
    "char_cubic_coefficients",
    "matrix_eigenvalues",
    "routh_hurwitz_coexistence",
    "char_poly_delay_free",
    "char_poly_delay_coexistence",
]

# |criterion| at or below this is reported as marginal rather than decided
MARGINAL_TOL = 1e-12


class Criterion(NamedTuple):
    """One signed stability inequality: its name, value and truth."""

    name: str
    value: float
    satisfied: bool


class StabilityVerdict(NamedTuple):
    """Bundle of signed criteria with an overall conclusion."""

    criteria: tuple[Criterion, ...]

    @property
    def stable(self) -> bool:
        return all(c.satisfied for c in self.criteria)

    @property
    def marginal(self) -> bool:
        return any(abs(c.value) <= MARGINAL_TOL for c in self.criteria)

    @property
    def verdict(self) -> str:
        if self.marginal:
            return "marginal"
        return "stable" if self.stable else "unstable"


def _free_rows(p: Params) -> tuple[tuple[float, float, float], ...]:
    """Rows of the Jacobian of the reduced (E, I, R) system at the
    disease-free point."""
    return ((-1.0 / p.k_r, p.beta, 0.0),
            (1.0 / p.k_r, -p.mu, 0.0),
            (0.0, p.mu, -p.gamma))


def free_disease_eigenvalues_closed_form(p: Params) -> tuple[float, float, float]:
    """The three (always real) eigenvalues at the disease-free point.

    The 2x2 infection block factors out of the lower-triangular structure:

        lam_pm = (-(mu*k_r + 1) +- sqrt((mu*k_r + 1)^2 - 4*k_r*(mu - beta)))
                 / (2*k_r)

    plus -gamma. The radicand equals (mu*k_r - 1)^2 + 4*k_r*beta > 0, so the
    pair is real for every admissible parameter set. Returned as
    (lam_plus, lam_minus, -gamma). All three are negative iff beta < mu.
    """
    c = p.mu * p.k_r + 1.0
    # scaling by 4 and 0.5 is exact; here it cannot overflow at a huge k_r
    rad = c * c - 4.0 * (p.k_r * (p.mu - p.beta))
    sq = math.sqrt(rad)
    lam_p = 0.5 * (-c + sq) / p.k_r
    lam_m = 0.5 * (-c - sq) / p.k_r
    return (lam_p, lam_m, -p.gamma)


def _coex_rows(p: Params) -> tuple[tuple[float, float, float], ...]:
    """Rows of the Jacobian of the reduced (S, I, R) system at the
    coexistence point.

    Requires beta > mu strictly (the point must exist). With
    d3 = gamma*k_r*mu + gamma + mu the matrix is

        [ -(beta*gamma*k_r + gamma + mu)/(k_r*d3)
             (gamma*k_r*mu^2 - beta*gamma + 2*gamma*mu + mu^2)/d3
                 -gamma*(beta - mu)/d3 ]
        [ 1/k_r   -mu      0      ]
        [ 0        mu     -gamma  ]
    """
    if not p.beta > p.mu:
        raise ValidationError(
            "coexistence Jacobian requires beta > mu "
            f"(beta={p.beta!r}, mu={p.mu!r})")
    d3 = p.gamma * p.k_r * p.mu + p.gamma + p.mu
    a11 = -(p.beta * p.gamma * p.k_r + p.gamma + p.mu) / (p.k_r * d3)
    a12 = (p.gamma * p.k_r * p.mu ** 2 - p.beta * p.gamma
           + 2.0 * p.gamma * p.mu + p.mu ** 2) / d3
    a13 = -p.gamma * (p.beta - p.mu) / d3
    return ((a11, a12, a13),
            (1.0 / p.k_r, -p.mu, 0.0),
            (0.0, p.mu, -p.gamma))


def char_cubic_coefficients(m) -> tuple[float, float, float]:
    """(c2, c1, c0) of the characteristic cubic lam^3 + c2 lam^2 + c1 lam + c0
    of a 3x3 matrix, given as three rows of three numbers (a numpy array or
    nested sequences): c2 = -trace, c1 = sum of principal 2x2 minors,
    c0 = -det."""
    shape = getattr(m, "shape", None)
    try:
        if shape not in (None, (3, 3)):
            raise ValueError
        (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = (
            [float(v) for v in row] for row in m)
    except (TypeError, ValueError):
        got = repr(m) if shape is None else f"shape {shape}"
        raise ValidationError(f"expected a 3x3 matrix, got {got}") from None
    tr = m00 + m11 + m22
    minors = (m00 * m11 - m01 * m10
              + m00 * m22 - m02 * m20
              + m11 * m22 - m12 * m21)
    det = (m00 * (m11 * m22 - m12 * m21)
           - m01 * (m10 * m22 - m12 * m20)
           + m02 * (m10 * m21 - m11 * m20))
    return (-tr, minors, -det)


def matrix_eigenvalues(m) -> tuple[complex, complex, complex]:
    """Eigenvalues of a 3x3 matrix (as char_cubic_coefficients takes it) via
    its characteristic cubic."""
    c2, c1, c0 = char_cubic_coefficients(m)
    return cubic_roots(c2, c1, c0)


def routh_hurwitz_coexistence(p: Params) -> StabilityVerdict:
    """Degree-3 Routh-Hurwitz test at the coexistence point (r = 0 dynamics).

    For the characteristic cubic of the matrix A with rows _coex_rows(p) the
    three conditions are trace(A) < 0, det(A) < 0 and
    -m2*trace(A) + det(A) > 0, where m2 is the sum of the principal 2x2
    minors of A. Values within MARGINAL_TOL of zero make the verdict
    "marginal".
    """
    c2, m2, negdet = char_cubic_coefficients(_coex_rows(p))
    tr = -c2
    det = -negdet
    third = -m2 * tr + det
    return StabilityVerdict(criteria=(
        Criterion("trace(A) < 0", tr, tr < 0.0),
        Criterion("det(A) < 0", det, det < 0.0),
        Criterion("-m2*trace(A) + det(A) > 0", third, third > 0.0),
    ))


class _QuasiPolynomialFields(NamedTuple):
    a: tuple[float, ...]
    b: tuple[float, ...]
    r: float


class QuasiPolynomial(_Checked, _QuasiPolynomialFields):
    """Characteristic function lam^d + sum a_k lam^k + exp(-lam*r) * sum b_k lam^k.

    a and b hold the coefficients (a_0, ..., a_{d-1}) and (b_0, ..., b_{d-1});
    the leading instantaneous term is monic. r >= 0 is the delay the function
    was built with; evaluation may override it to probe other delays.
    """

    __slots__ = ()

    def __new__(cls, a, b, r):
        if len(a) != len(b) or len(a) not in (2, 3):
            raise ValidationError(
                f"coefficient arrays must both have length 2 or 3, "
                f"got {len(a)} and {len(b)}")
        if not (math.isfinite(r) and r >= 0.0):
            raise ValidationError("r: must be finite and >= 0")
        return tuple.__new__(cls, (a, b, r))

    @property
    def degree(self) -> int:
        return len(self.a)

    def value(self, lam: complex, r: Optional[float] = None) -> complex:
        """Evaluate at a complex point, optionally at a different delay."""
        rr = self.r if r is None else r
        lam = complex(lam)
        pa = lam ** self.degree + sum(self.a[k] * lam ** k
                                      for k in range(self.degree))
        pb = sum(self.b[k] * lam ** k for k in range(self.degree))
        return pa + pb * cmath.exp(-lam * rr)


def char_poly_delay_free(p: Params) -> QuasiPolynomial:
    """Degree-2 quasi-polynomial of the delayed linearization at the
    disease-free point:

        lam^2 + mu*lam + exp(-lam*r) * (lam/k_r + (mu - beta)/k_r)

    i.e. a = (0, mu), b = ((mu - beta)/k_r, 1/k_r). The -gamma mode factors
    out and never destabilizes.
    """
    return QuasiPolynomial(
        a=(0.0, p.mu),
        b=((p.mu - p.beta) / p.k_r, 1.0 / p.k_r),
        r=p.r,
    )


def char_poly_delay_coexistence(p: Params) -> QuasiPolynomial:
    """Degree-3 quasi-polynomial of the delayed linearization at the
    coexistence point (requires beta > mu).

    With d3 = gamma*k_r*mu + gamma + mu:

        a0 = gamma^2*mu*(beta - mu)/d3
        a1 = gamma*(gamma*k_r*mu^2 + beta*gamma + beta*mu)/d3
        a2 = (gamma^2*k_r*mu + gamma*k_r*mu^2 + beta*gamma + gamma^2
              + gamma*mu + mu^2)/d3
        b0 = gamma*(beta - mu)*(gamma + mu)/(d3*k_r)
        b1 = gamma*(gamma*k_r*mu + beta + gamma)/(d3*k_r)
        b2 = 1/k_r
    """
    if not p.beta > p.mu:
        raise ValidationError(
            "coexistence quasi-polynomial requires beta > mu "
            f"(beta={p.beta!r}, mu={p.mu!r})")
    beta, mu, gamma, kr = p.beta, p.mu, p.gamma, p.k_r
    d3 = gamma * kr * mu + gamma + mu
    a0 = gamma ** 2 * mu * (beta - mu) / d3
    a1 = gamma * (gamma * kr * mu ** 2 + beta * gamma + beta * mu) / d3
    a2 = (gamma ** 2 * kr * mu + gamma * kr * mu ** 2 + beta * gamma
          + gamma ** 2 + gamma * mu + mu ** 2) / d3
    b0 = gamma * (beta - mu) * (gamma + mu) / (d3 * kr)
    b1 = gamma * (gamma * kr * mu + beta + gamma) / (d3 * kr)
    b2 = 1.0 / kr
    return QuasiPolynomial(a=(a0, a1, a2), b=(b0, b1, b2), r=p.r)

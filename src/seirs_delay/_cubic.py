"""Closed-form cubic root solver (Cardano / trigonometric branches).

Solves monic cubics x^3 + a2 x^2 + a1 x + a0. Kept free of any polynomial
root helper from the array libraries so it can serve as an independent check
against them, and so multiplicity information stays explicit.
"""
from __future__ import annotations

import cmath
import math

__all__ = ["cubic_roots", "cubic_real_roots"]


def _cbrt(x: float) -> float:
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def _power(value: float, k: float, name: str) -> float:
    """value ** k, whose overflow is reported with the coefficient's name."""
    try:
        return value ** k
    except OverflowError:
        raise OverflowError(f"cubic coefficient {name} = {value!r} is out of "
                            f"range: {name} ** {k} overflows") from None


def _polish(x: float, a2: float, a1: float, a0: float) -> float:
    # a couple of Newton steps to tighten the closed-form value
    for _ in range(2):
        f = ((x + a2) * x + a1) * x + a0
        df = (3.0 * x + 2.0 * a2) * x + a1
        if df == 0.0:
            break
        step = f / df
        if not math.isfinite(step):
            break
        x -= step
    return x


def _polish_double(x: float, a2: float, a1: float) -> float:
    # at a double root f and f' are both rounding noise, so Newton on the
    # cubic divides noise by noise; the double root is a simple root of the
    # derivative quadratic, which keeps the correction well conditioned
    for _ in range(2):
        g = (3.0 * x + 2.0 * a2) * x + a1
        dg = 6.0 * x + 2.0 * a2
        if dg == 0.0:
            break
        step = g / dg
        if not math.isfinite(step):
            break
        x -= step
    return x


def cubic_roots(a2: float, a1: float, a0: float) -> tuple[complex, complex, complex]:
    """All three roots of x^3 + a2 x^2 + a1 x + a0, multiplicity included.

    Real roots come out with zero imaginary part; a complex pair is exactly
    conjugate. Order is (real roots first, ascending; then the pair). A
    coefficient too large for the closed form raises OverflowError naming
    it (a2, or p or q of the depressed cubic) and its value.
    """
    # depressed form t^3 + p t + q with x = t - a2/3
    shift = a2 / 3.0
    p = a1 - a2 * a2 / 3.0
    q = 2.0 * _power(a2, 3, "a2") / 27.0 - a2 * a1 / 3.0 + a0
    scale = max(_power(abs(p), 1.5, "|p|"), abs(q), 1e-300)
    disc = _power(q / 2.0, 2, "q/2") + _power(p / 3.0, 3, "p/3")

    if p == 0.0 and q == 0.0:
        x = -shift
        return (x, x, x)

    if abs(disc) <= 1e-14 * scale * scale:
        # double root; q and p are nonzero here since p = q = 0 was handled
        t1 = 3.0 * q / p        # simple root
        t2 = -1.5 * q / p       # double root
        x1 = _polish(t1 - shift, a2, a1, a0)
        x2 = _polish_double(t2 - shift, a2, a1)
        xs = sorted((x1, x2, x2))
        return (xs[0], xs[1], xs[2])

    if disc > 0.0:
        # one real root and a conjugate pair
        sq = math.sqrt(disc)
        u = _cbrt(-q / 2.0 + sq)
        v = _cbrt(-q / 2.0 - sq)
        t_real = u + v
        re = -t_real / 2.0 - shift
        im = math.sqrt(3.0) / 2.0 * (u - v)
        x1 = _polish(t_real - shift, a2, a1, a0)
        return (x1, complex(re, im), complex(re, -im))

    # three distinct real roots (trigonometric branch; p < 0 here)
    mfac = 2.0 * math.sqrt(-p / 3.0)
    cosphi = 3.0 * q / (p * mfac)
    cosphi = min(1.0, max(-1.0, cosphi))
    phi = math.acos(cosphi)
    ts = [mfac * math.cos((phi - 2.0 * math.pi * k) / 3.0) for k in range(3)]
    xs = sorted(_polish(t - shift, a2, a1, a0) for t in ts)
    return (xs[0], xs[1], xs[2])


def cubic_real_roots(a2: float, a1: float, a0: float) -> list[float]:
    """Real roots only, ascending, repeated according to multiplicity."""
    roots = cubic_roots(a2, a1, a0)
    return sorted(r.real for r in roots if isinstance(r, float) or r.imag == 0.0)

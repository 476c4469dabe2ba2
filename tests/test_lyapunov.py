"""The Lyapunov certificate against oracles that share none of its code.

LV(u) = u^T A u for a symmetric tridiagonal A. holds is checked against
Sylvester's criterion in exact rational arithmetic over A's float entries,
lv_bound against numpy's symmetric eigensolver and against the maximum of
LV/|u|^2 over the grid {0.1, ..., 1.0}^3, the bound the closed form
replaced. Draws come from a moderate family and from a log-uniform one
over 1e+-300, where products underflow and overflow.
"""
import functools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from seirs_delay.lyapunov import lyapunov_certificate, lyapunov_condition
from seirs_delay.model_core import Params


def lv_matrix(p, cert):
    """The float entries (a11, a12, a22, a23, a33) of A."""
    return (-2.0 / p.k_r, p.beta + cert.v2 / p.k_r,
            -(2.0 * cert.v2 * p.mu - p.epsilon ** 2), cert.v3 * p.mu,
            -2.0 * cert.v3 * p.gamma)


def exactly_negative_definite(a):
    """Whether the exact LDL^T pivots of A are all negative."""
    a11, a12, a22, a23, a33 = map(Fraction, a)
    if a11 >= 0:
        return False
    d2 = a22 - a12 * a12 / a11
    return d2 < 0 and a33 - a23 * a23 / d2 < 0


def grid_max(a):
    """Max of LV(u)/|u|^2 over the 10x10x10 grid u_i in {0.1, ..., 1.0}."""
    a11, a12, a22, a23, a33 = a
    g = np.arange(1, 11) / 10.0
    u1, u2, u3 = np.meshgrid(g, g, g, indexing="ij")
    with np.errstate(all="ignore"):
        lv = (2.0 * a12 * u1 * u2 + 2.0 * a23 * u2 * u3 + a11 * u1 ** 2
              + a22 * u2 ** 2 + a33 * u3 ** 2)
        return float(np.max(lv / (u1 ** 2 + u2 ** 2 + u3 ** 2)))


def moderate(rng):
    beta = rng.uniform(0.01, 0.9)
    mu = rng.uniform(beta, 0.99)
    k_r = 10.0 ** rng.uniform(-1.0, 2.0)
    eps = math.sqrt(2.0 * mu * k_r * (mu - beta)) * rng.uniform(0.0, 1.0)
    return Params(beta, mu, rng.uniform(0.01, 0.99), k_r, 0.0, eps)


def log_uniform(rng):
    beta, mu, gamma = (10.0 ** -rng.uniform(1e-3, 300.0) for _ in range(3))
    eps = 0.0 if rng.random() < 0.25 else 10.0 ** rng.uniform(-300.0, 300.0)
    return Params(beta, mu, gamma, 10.0 ** rng.uniform(-300.0, 300.0), 0.0,
                  eps)


FAMILIES = {"moderate": (moderate, 1201, 400),
            "log-uniform": (log_uniform, 1202, 1500)}


@functools.cache
def certified(family):
    """(p, certificate, A) for the draws of a family whose condition holds."""
    draw, seed, n = FAMILIES[family]
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        p = draw(rng)
        if lyapunov_condition(p):
            cert = lyapunov_certificate(p)
            a = lv_matrix(p, cert) if cert.v3 is not None else None
            out.append((p, cert, a))
    return out


def test_the_families_reach_every_outcome():
    assert len(certified("moderate")) == 400
    assert all(c.holds for _, c, _ in certified("moderate"))
    outcomes = {(c.v3 is None, c.holds) for _, c, _ in certified("log-uniform")}
    assert outcomes == {(True, False), (False, False), (False, True)}


@pytest.mark.parametrize("family", FAMILIES)
def test_holds_only_for_a_negative_definite_form(family):
    for p, cert, a in certified(family):
        if cert.v3 is None:
            assert not cert.holds
            assert cert.ineq3 is None and cert.lv_bound is None
            # ineq2 + v3*mu/lambda3^2 > 0 for every v3 > 0 whose v3*mu
            # does not underflow
            assert (Fraction(cert.ineq2) * Fraction(cert.lambda3_sq)
                    > -Fraction(2) ** -1074), p
        elif cert.holds:
            assert exactly_negative_definite(a), p


def test_bound_is_the_top_eigenvalue():
    for p, cert, a in certified("moderate"):
        m = np.array([[a[0], a[1], 0.0], [a[1], a[2], a[3]],
                      [0.0, a[3], a[4]]])
        top = float(np.linalg.eigvalsh(m)[-1])
        assert abs(cert.lv_bound - top) <= 1e-12 * max(map(abs, a)), p


@pytest.mark.parametrize("family", FAMILIES)
def test_bound_is_at_least_the_grid_maximum(family):
    draws = certified(family)
    compared = 0
    for p, cert, a in draws:
        if a is None:
            continue
        grid = grid_max(a)
        if math.isfinite(grid):
            compared += 1
            assert cert.lv_bound >= grid - 1e-12 * max(map(abs, a)), p
    assert compared >= len(draws) // 2

"""Equilibria: reproduction number, the disease-free point, the coexistence
point in closed form, and vector-field residuals.

Closed-form oracle at (beta, mu, gamma, k_r) = (0.4, 0.2, 0.1, 2): with
d3 = gamma*k_r*mu + gamma + mu = 0.34 the coexistence point is exactly
(1/2, 1/17, 5/34, 5/17)."""
from fractions import Fraction

import numpy as np
import pytest

from seirs_delay import (
    Params,
    coexistence_equilibrium,
    equilibrium_residual,
    equilibrium_set,
    free_disease_equilibrium,
    make_state,
    reproduction_number,
)

P_ENDEMIC = Params(0.4, 0.2, 0.1, 2.0)
P_FREE = Params(0.1, 0.2, 0.1, 2.0)

# exact rationals 1/2, 1/17, 5/34, 5/17 rounded to double
X_STAR = (0.5, 0.058823529411764705, 0.14705882352941177,
          0.29411764705882354)


def random_valid(rng, endemic):
    while True:
        lo, hi = sorted(rng.uniform(0.02, 0.95, 2))
        if hi - lo > 0.01:
            break
    beta, mu = (hi, lo) if endemic else (lo, hi)
    return Params(beta, mu, gamma=rng.uniform(0.05, 0.9),
                  k_r=rng.uniform(0.3, 5.0))


class TestReproductionNumber:
    def test_above_one(self):
        assert reproduction_number(Params(0.4, 0.2, 0.1, 2.0)) == 2.0

    def test_boundary(self):
        assert reproduction_number(Params(0.2, 0.2, 0.1, 2.0)) == 1.0

    def test_below_one(self):
        assert reproduction_number(Params(0.1, 0.2, 0.1, 2.0)) == 0.5


class TestFreeDiseaseEquilibrium:
    def test_point(self):
        x = free_disease_equilibrium(P_ENDEMIC)
        assert (x.s, x.e, x.i, x.rcv) == (1.0, 0.0, 0.0, 0.0)

    def test_residual_exactly_zero(self):
        rng = np.random.default_rng(21)
        for endemic in (False, True):
            for _ in range(25):
                p = random_valid(rng, endemic)
                assert equilibrium_residual(p, free_disease_equilibrium(p)) == 0.0


class TestCoexistenceEquilibrium:
    def test_closed_form_values(self):
        x = coexistence_equilibrium(P_ENDEMIC)
        assert x.s == X_STAR[0]
        assert x.e == pytest.approx(X_STAR[1], rel=1e-15)
        assert x.i == pytest.approx(X_STAR[2], rel=1e-15)
        assert x.rcv == pytest.approx(X_STAR[3], rel=1e-15)

    def test_absent_when_beta_not_above_mu(self):
        assert coexistence_equilibrium(P_FREE) is None
        assert coexistence_equilibrium(Params(0.2, 0.2, 0.1, 2.0)) is None

    def test_degenerate_limit_toward_free_point(self):
        p = Params(0.2 + 1e-12, 0.2, 0.1, 2.0)
        x = coexistence_equilibrium(p)
        assert x is not None
        assert x.s == pytest.approx(1.0, abs=1e-11)
        for v in (x.e, x.i, x.rcv):
            assert 0.0 < v < 1e-11

    def test_s_component_is_mu_over_beta(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            p = random_valid(rng, endemic=True)
            x = coexistence_equilibrium(p)
            assert x.s == pytest.approx(p.mu / p.beta, abs=1e-15)

    def test_components_positive_and_sum_to_one(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            p = random_valid(rng, endemic=True)
            x = coexistence_equilibrium(p)
            assert min(x.s, x.e, x.i, x.rcv) > 0.0
            assert abs(x.total - 1.0) <= 1e-12


class TestEquilibriumResidual:
    def test_coexistence_residual_small(self):
        x = coexistence_equilibrium(P_ENDEMIC)
        assert equilibrium_residual(P_ENDEMIC, x) <= 1e-12

    def test_symmetric_point_residual(self):
        # hand arithmetic: field components (0, -1/10, 3/40, 1/40), max 1/10
        x = make_state(0.25, 0.25, 0.25, 0.25)
        res = equilibrium_residual(P_ENDEMIC, x)
        assert res > 0.0
        assert res == pytest.approx(0.1, rel=1e-15)


class TestEquilibriumSet:
    def test_presence_iff_r0_above_one(self):
        rng = np.random.default_rng(24)
        for endemic in (False, True):
            for _ in range(25):
                p = random_valid(rng, endemic)
                eqs = equilibrium_set(p)
                assert eqs.r0 == p.beta / p.mu
                assert (eqs.x_star is not None) == (eqs.r0 > 1.0)
                assert (eqs.x_free.s, eqs.x_free.e, eqs.x_free.i,
                        eqs.x_free.rcv) == (1.0, 0.0, 0.0, 0.0)
                if eqs.x_star is not None:
                    assert equilibrium_residual(p, eqs.x_star) <= 1e-12


@pytest.mark.parametrize("beta, mu, gamma, k_r", [
    (1e-300, 5e-324, 1e-300, 1e300),
    (8.5e-231, 4.5e-232, 1.5e-166, 4.0e-174),
])
def test_coexistence_point_when_beta_d3_underflows(beta, mu, gamma, k_r):
    # beta*d3 rounds to 0 (or a subnormal), which the closed form divides by
    p = Params(beta, mu, gamma, k_r)
    x = coexistence_equilibrium(p)
    b, m, g, k = map(Fraction, (beta, mu, gamma, k_r))
    d3 = g * k * m + g + m
    exact = (m / b, k * (b - m) * m * g / (b * d3), g * (b - m) / (b * d3),
             (b - m) * m / (b * d3))
    assert max(abs(Fraction(v) - w) for v, w in
               zip((x.s, x.e, x.i, x.rcv), exact)) < 1e-15

"""Imaginary-axis crossings of the characteristic quasi-polynomials: onset
predicates, crossing frequency/angle/critical delay, the all-delays margin
for the disease-free branch, and the cubic discriminant pipeline.

Independent oracles: the (cos, sin) pair is recovered by solving the 2x2
linear system that lam = i*omega imposes on the delayed part, then checked
against the reported angle; frequencies are checked as polynomial roots."""
import cmath
import math

import numpy as np
import pytest

from seirs_delay import (
    CrossingReport,
    NoCrossingError,
    Params,
    QuasiPolynomial,
    ValidationError,
    char_poly_delay_coexistence,
    char_poly_delay_free,
    cubic_real_roots,
    deg2_crossing,
    deg2_instability_possible,
    deg3_abc,
    deg3_crossing,
    deg3_instability_possible,
    free_disease_margin,
    verify_crossing,
)

Q_FREE = char_poly_delay_free(Params(0.1, 0.2, 0.3, 2.0, r=0.5))
Q_ENDEMIC = char_poly_delay_coexistence(Params(0.4, 0.2, 0.1, 2.0, r=0.5))

# frozen crossing data for Q_FREE (a=(0, 0.2), b=(0.05, 0.5))
OMEGA2 = 0.47042218644121164
THETA2 = 1.7633368730844332
R_STAR2 = 3.7484134972974883

# frozen crossing data for Q_ENDEMIC
OMEGA3 = 0.42644940868529113
THETA3 = 1.9855365598398864
R_STAR3 = 4.655972125652921

# frozen margin values at (k_r, mu, beta) = (2, 0.2, 0.1)
MARGIN = 3.3391204158080203


def solve_cos_sin(q, omega):
    """(cos t, sin t) from the linear system q(i*omega) = 0 imposes."""
    if q.degree == 2:
        p0 = q.b[0]
        rhs = np.array([omega ** 2 - q.a[0], -q.a[1] * omega])
    else:
        p0 = q.b[0] - q.b[2] * omega ** 2
        rhs = np.array([q.a[2] * omega ** 2 - q.a[0],
                        omega ** 3 - q.a[1] * omega])
    m = np.array([[p0, q.b[1] * omega], [q.b[1] * omega, -p0]])
    return np.linalg.solve(m, rhs)


def angle_of(c, s):
    t = math.atan2(s, c)
    return t + 2.0 * math.pi if t < 0.0 else t


def random_free_setup(rng):
    r = rng.uniform(0.05, 1.2)
    k_r = r * math.e * rng.uniform(1.0, 2.0)
    mu = rng.uniform(0.05, 0.95)
    beta = mu * rng.uniform(0.05, 0.95)
    return Params(beta, mu, gamma=rng.uniform(0.05, 0.9), k_r=k_r, r=r)


class TestDeg2InstabilityPossible:
    def test_true_on_free_disease_polynomial(self):
        assert deg2_instability_possible(Q_FREE)

    def test_false_on_boundary_beta_equals_mu(self):
        q = char_poly_delay_free(Params(0.2, 0.2, 0.3, 2.0, r=0.5))
        assert not deg2_instability_possible(q)

    def test_false_without_delayed_part(self):
        q = QuasiPolynomial(a=(1.0, 1.0), b=(0.0, 0.0), r=0.5)
        assert not deg2_instability_possible(q)


class TestDeg2Crossing:
    def test_frozen_report(self):
        rep = deg2_crossing(Q_FREE)
        assert isinstance(rep, CrossingReport)
        assert rep.omega == pytest.approx(OMEGA2, rel=1e-13)
        assert rep.theta == pytest.approx(THETA2, rel=1e-13)
        assert rep.r_star == pytest.approx(R_STAR2, rel=1e-13)
        assert rep.r_star == rep.theta / rep.omega
        assert rep.residual <= 1e-9

    def test_omega_is_quartic_root(self):
        rep = deg2_crossing(Q_FREE)
        a0, a1 = Q_FREE.a
        b0, b1 = Q_FREE.b
        w2 = rep.omega ** 2
        quartic = w2 ** 2 + (a1 ** 2 - 2 * a0 - b1 ** 2) * w2 + (a0 ** 2 - b0 ** 2)
        assert abs(quartic) <= 1e-12

    def test_omega_is_unique_positive_quadratic_root(self):
        # embed z^2 + pz + q as z^3 + pz^2 + qz and drop the zero root
        rep = deg2_crossing(Q_FREE)
        a0, a1 = Q_FREE.a
        b0, b1 = Q_FREE.b
        roots = cubic_real_roots(a1 ** 2 - 2 * a0 - b1 ** 2,
                                 a0 ** 2 - b0 ** 2, 0.0)
        pos = [z for z in roots if z > 1e-15]
        assert len(pos) == 1
        assert math.sqrt(pos[0]) == pytest.approx(rep.omega, abs=1e-12)

    def test_angle_from_independent_solve(self):
        rep = deg2_crossing(Q_FREE)
        c, s = solve_cos_sin(Q_FREE, rep.omega)
        assert c ** 2 + s ** 2 == pytest.approx(1.0, abs=1e-12)
        assert c == pytest.approx(-0.19135311002579952, abs=1e-13)
        assert s == pytest.approx(0.9815212617582231, abs=1e-13)
        assert angle_of(c, s) == pytest.approx(rep.theta, abs=1e-12)

    def test_magnitude_identity(self):
        rep = deg2_crossing(Q_FREE)
        a0, a1 = Q_FREE.a
        b0, b1 = Q_FREE.b
        w = rep.omega
        lhs = (a0 - w ** 2) ** 2 + a1 ** 2 * w ** 2
        rhs = b1 ** 2 * w ** 2 + b0 ** 2
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_obtuse_angle_for_any_subcritical_rates(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            p = random_free_setup(rng)
            q = char_poly_delay_free(p)
            rep = deg2_crossing(q)
            c, s = solve_cos_sin(q, rep.omega)
            assert c < 0.0 and s > 0.0
            assert rep.theta >= math.pi / 2
            assert 0.0 <= rep.theta < 2.0 * math.pi

    def test_no_crossing_when_constant_terms_cancel(self):
        q = char_poly_delay_free(Params(0.2, 0.2, 0.3, 2.0, r=0.5))
        with pytest.raises(NoCrossingError):
            deg2_crossing(q)

    def test_no_crossing_on_equal_magnitude_constants(self):
        # a0^2 = b0^2 with the oscillation branch failing (a1^2 >= b1^2 + 2a0)
        q = QuasiPolynomial(a=(0.5, 2.0), b=(0.5, 0.1), r=0.5)
        with pytest.raises(NoCrossingError):
            deg2_crossing(q)


class TestFreeDiseaseMargin:
    def test_frozen_value_and_ordering(self):
        m = free_disease_margin(Params(0.1, 0.2, 0.3, 2.0, r=0.5))
        assert m == pytest.approx(MARGIN, rel=1e-14)
        assert m >= 0.5 * math.pi * 2.0
        assert m <= R_STAR2

    def test_zero_transmission_identity(self):
        # as beta -> 0 the margin collapses to pi*k_r/2; beta = 0 itself is
        # not admissible, and mu - 5e-324 rounds to mu, so the smallest
        # positive beta gives the beta = 0 value bit for bit
        beta = math.nextafter(0.0, 1.0)
        for k_r in np.linspace(0.2, 6.0, 20):
            m = free_disease_margin(Params(beta, 0.2, 0.3, float(k_r)))
            assert m == pytest.approx(0.5 * math.pi * k_r, abs=1e-12)

    def test_rejects_beta_at_or_above_mu(self):
        with pytest.raises(ValidationError, match="beta"):
            free_disease_margin(Params(0.2, 0.2, 0.3, 2.0))
        with pytest.raises(ValidationError, match="beta"):
            free_disease_margin(Params(0.4, 0.2, 0.3, 2.0))

    def test_rejects_bad_mu_or_k_r(self):
        with pytest.raises(ValidationError, match="mu"):
            free_disease_margin(Params(0.1, 1.5, 0.3, 2.0))
        with pytest.raises(ValidationError, match="k_r"):
            free_disease_margin(Params(0.1, 0.2, 0.3, -1.0))

    def test_margin_chain_on_random_draws(self):
        # r < pi*k_r/2 <= M <= r_star on every admissible subcritical draw
        rng = np.random.default_rng(62)
        for _ in range(100):
            p = random_free_setup(rng)
            m = free_disease_margin(p)
            rep = deg2_crossing(char_poly_delay_free(p))
            half_pi_kr = 0.5 * math.pi * p.k_r
            assert p.r < half_pi_kr
            assert half_pi_kr <= m + 1e-12
            assert m <= rep.r_star + 1e-12


class TestDeg3Abc:
    def test_frozen_values(self):
        abc = deg3_abc(Q_ENDEMIC)
        assert abc.A == pytest.approx(-0.19653979238754327, rel=1e-14)
        assert abc.B == pytest.approx(0.003090311418685121, rel=1e-14)
        assert abc.C == pytest.approx(-7.647058823529411e-05, rel=1e-14)
        assert abc.delta == pytest.approx(-3.947529841960966e-05, rel=1e-12)

    def test_instability_possible_on_endemic_polynomial(self):
        abc = deg3_abc(Q_ENDEMIC)
        assert abc.C < 0.0
        assert deg3_instability_possible(Q_ENDEMIC)

    def test_all_positive_coefficients_block_onset(self):
        # roots -1, -2, -3 and no delayed part: A, B, C all positive
        q = QuasiPolynomial(a=(6.0, 11.0, 6.0), b=(0.0, 0.0, 0.0), r=1.0)
        abc = deg3_abc(q)
        assert min(abc.A, abc.B, abc.C) > 0.0
        assert not deg3_instability_possible(q)

    def test_unstable_at_zero_delay_blocks_onset(self):
        q = QuasiPolynomial(a=(-1.0, 1.0, 1.0), b=(0.0, 0.0, 0.0), r=1.0)
        assert not deg3_instability_possible(q)


class TestDeg3Crossing:
    def test_frozen_report(self):
        rep = deg3_crossing(Q_ENDEMIC)
        assert rep is not None
        assert rep.omega == pytest.approx(OMEGA3, rel=1e-13)
        assert rep.theta == pytest.approx(THETA3, rel=1e-13)
        assert rep.r_star == pytest.approx(R_STAR3, rel=1e-13)
        assert rep.residual <= 1e-9

    def test_omega_squared_is_cubic_root(self):
        rep = deg3_crossing(Q_ENDEMIC)
        abc = deg3_abc(Q_ENDEMIC)
        z = rep.omega ** 2
        res = ((z + abc.A) * z + abc.B) * z + abc.C
        assert abs(res) <= 1e-12

    def test_angle_from_independent_solve(self):
        rep = deg3_crossing(Q_ENDEMIC)
        c, s = solve_cos_sin(Q_ENDEMIC, rep.omega)
        assert c ** 2 + s ** 2 == pytest.approx(1.0, abs=1e-10)
        assert angle_of(c, s) == pytest.approx(rep.theta, abs=1e-10)

    def test_magnitude_identity(self):
        rep = deg3_crossing(Q_ENDEMIC)
        a0, a1, a2 = Q_ENDEMIC.a
        b0, b1, b2 = Q_ENDEMIC.b
        w = rep.omega
        lhs = (a0 - a2 * w ** 2) ** 2 + (w ** 3 - a1 * w) ** 2
        rhs = (b0 - b2 * w ** 2) ** 2 + b1 ** 2 * w ** 2
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_inconclusive_when_discriminant_nonnegative(self):
        q = QuasiPolynomial(a=(6.0, 11.0, 6.0), b=(0.0, 0.0, 0.0), r=1.0)
        assert deg3_abc(q).delta > 0.0
        assert deg3_crossing(q) is None

    def test_cubic_overflow_fails_whatever_the_discriminant(self):
        # delta > 0 alone would give None, but the cubic is solved first
        q = QuasiPolynomial(a=(1.0, 0.0, 1e30), b=(2.0, 0.0, 0.0), r=0.0)
        assert deg3_abc(q).delta > 0.0
        with pytest.raises(OverflowError, match=r"q/2 \*\* 2 overflows"):
            deg3_crossing(q)

    def test_no_crossing_without_positive_root(self):
        # unique real root of z^3 + 2.25z^2 - 6z + 4 is z = -4
        q = QuasiPolynomial(a=(2.0, 2.0, 2.5), b=(0.0, 0.0, 0.0), r=1.0)
        abc = deg3_abc(q)
        assert abc.delta < 0.0 and abc.C > 0.0
        with pytest.raises(NoCrossingError, match="not positive"):
            deg3_crossing(q)

    def test_constant_term_cancellation_rejected(self):
        q = QuasiPolynomial(a=(0.5, 1.0, 1.0), b=(-0.5, 0.0, 0.0), r=1.0)
        with pytest.raises(NoCrossingError):
            deg3_crossing(q)


class TestVerifyCrossing:
    def test_consistent_pair_has_tiny_residual(self):
        rep = deg2_crossing(Q_FREE)
        assert verify_crossing(Q_FREE, rep.omega, rep.r_star) <= 1e-9

    def test_perturbed_frequency_detected(self):
        rep = deg2_crossing(Q_FREE)
        assert verify_crossing(Q_FREE, 1.1 * rep.omega, rep.r_star) > 1e-3

    def test_delay_independent_without_delayed_part(self):
        q = QuasiPolynomial(a=(1.0, 1.0), b=(0.0, 0.0), r=0.5)
        first = verify_crossing(q, 0.7, 0.3)
        second = verify_crossing(q, 0.7, 7.0)
        assert first == second

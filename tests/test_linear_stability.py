"""Linearizations and algebraic stability: Jacobians, closed-form and
numeric eigenvalues, Routh-Hurwitz, and the characteristic quasi-polynomials
of the delayed linearization.

Independent oracles: numpy.linalg eigenvalues of A0 + A1, the Jacobian of
the r = 0 system that tests/_oracles.py builds from the model equations in
(E, I, R) coordinates, and direct evaluation of
det(lam*I - J0 - Jd*exp(-lam*r)) for the quasi-polynomials, with the delayed
outflow E(t-r)/k_r split into its own matrix Jd. A spectrum does not depend
on the coordinates, so the coexistence rows, in (S, I, R), must have the
same eigenvalues."""
import cmath
import math

import numpy as np
import pytest

from seirs_delay import (
    Criterion,
    Params,
    QuasiPolynomial,
    StabilityVerdict,
    ValidationError,
    char_cubic_coefficients,
    char_poly_delay_coexistence,
    char_poly_delay_free,
    coexistence_equilibrium,
    free_disease_eigenvalues_closed_form,
    matrix_eigenvalues,
    routh_hurwitz_coexistence,
)
from seirs_delay.linear_stability import _coex_rows, _free_rows

from _oracles import linearisation

P_FREE = Params(0.1, 0.2, 0.3, 2.0)
P_ENDEMIC = Params(0.4, 0.2, 0.1, 2.0)

# roots of 2*lam^2 + 1.4*lam + 0.1 and the decoupled -gamma, at P_FREE
EIGS_FREE = (-0.0807417596432748, -0.6192582403567252, -0.3)

# coefficients of the endemic quasi-polynomial at P_ENDEMIC, exact rationals
# 1/850, 16/425, 61/170, 3/340, 27/340, 1/2 over d3 = 0.34
DEG3_A = (0.001176470588235294, 0.03764705882352941, 0.3588235294117647)
DEG3_B = (0.008823529411764706, 0.07941176470588235, 0.5)


def random_params(rng, endemic, r=0.0):
    while True:
        lo, hi = sorted(rng.uniform(0.02, 0.95, 2))
        if hi - lo > 0.01:
            break
    beta, mu = (hi, lo) if endemic else (lo, hi)
    k_lo = max(0.3, r * math.e)
    return Params(beta, mu, gamma=rng.uniform(0.05, 0.9),
                  k_r=rng.uniform(k_lo, k_lo + 4.0), r=r)


def delayed_free_char(p, lam):
    """det(lam*I - J0 - Jd e^{-lam r}) in reduced (E, I, R) coordinates."""
    j0 = np.array([[0.0, p.beta, 0.0],
                   [0.0, -p.mu, 0.0],
                   [0.0, p.mu, -p.gamma]])
    jd = np.array([[-1.0 / p.k_r, 0.0, 0.0],
                   [1.0 / p.k_r, 0.0, 0.0],
                   [0.0, 0.0, 0.0]])
    m = lam * np.eye(3) - j0 - jd * cmath.exp(-lam * p.r)
    return complex(np.linalg.det(m))


def delayed_coexistence_char(p, lam):
    """Same determinant in reduced (S, I, R) coordinates at the endemic
    point, eliminating E = 1 - S - I - R from the delayed outflow."""
    x = coexistence_equilibrium(p)
    j0 = np.array([[-p.beta * x.i, -p.beta * x.s, p.gamma],
                   [0.0, -p.mu, 0.0],
                   [0.0, p.mu, -p.gamma]])
    jd = np.zeros((3, 3))
    jd[1, :] = [-1.0 / p.k_r, -1.0 / p.k_r, -1.0 / p.k_r]
    m = lam * np.eye(3) - j0 - jd * cmath.exp(-lam * p.r)
    return complex(np.linalg.det(m))


class TestJacobianFreeDisease:
    def test_example_matrix(self):
        j = np.array(_free_rows(P_FREE))
        assert np.array_equal(j, np.array([[-0.5, 0.1, 0.0],
                                           [0.5, -0.2, 0.0],
                                           [0.0, 0.2, -0.3]]))

    def test_trace_and_column_structure(self):
        rng = np.random.default_rng(41)
        for endemic in (False, True):
            for _ in range(20):
                p = random_params(rng, endemic)
                j = np.array(_free_rows(p))
                assert np.trace(j) == pytest.approx(
                    -(1.0 / p.k_r + p.mu + p.gamma), rel=1e-15)
                assert np.array_equal(j[:, 2], [0.0, 0.0, -p.gamma])


class TestFreeDiseaseEigenvalues:
    def test_frozen_values(self):
        lam = free_disease_eigenvalues_closed_form(P_FREE)
        assert lam == pytest.approx(EIGS_FREE, rel=1e-14)

    def test_marginal_at_beta_equals_mu(self):
        lam = free_disease_eigenvalues_closed_form(Params(0.2, 0.2, 0.3, 2.0))
        assert lam[0] == 0.0

    def test_unstable_when_beta_above_mu(self):
        lam = free_disease_eigenvalues_closed_form(P_ENDEMIC)
        assert lam[0] > 0.0

    def test_matches_numpy_eigenvalues(self):
        rng = np.random.default_rng(42)
        for endemic in (False, True):
            for _ in range(50):
                p = random_params(rng, endemic)
                mine = sorted(free_disease_eigenvalues_closed_form(p))
                a0, a1 = linearisation(p.beta, p.mu, p.gamma, p.k_r,
                                       free=True)
                ref = sorted(np.linalg.eigvals(a0 + a1).real)
                assert mine == pytest.approx(ref, abs=1e-10)

    def test_sign_structure(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            p = random_params(rng, endemic=False)
            assert max(free_disease_eigenvalues_closed_form(p)) < 0.0
        for _ in range(50):
            p = random_params(rng, endemic=True)
            lam = free_disease_eigenvalues_closed_form(p)
            assert sum(1 for v in lam if v > 0.0) == 1


class TestJacobianCoexistence:
    def test_example_entries(self):
        a = np.array(_coex_rows(P_ENDEMIC))
        assert a[1, 0] == 0.5
        assert a[2, 2] == -0.1

    def test_determinant_closed_form(self):
        a = np.array(_coex_rows(P_ENDEMIC))
        assert np.linalg.det(a) == pytest.approx(-0.01, abs=1e-14)
        rng = np.random.default_rng(44)
        for _ in range(50):
            p = random_params(rng, endemic=True)
            expected = -p.gamma * (p.beta - p.mu) / p.k_r
            assert np.linalg.det(np.array(_coex_rows(p))) == pytest.approx(
                expected, abs=1e-14, rel=1e-12)

    def test_requires_beta_above_mu(self):
        with pytest.raises(ValidationError, match="beta > mu"):
            _coex_rows(P_FREE)


class TestMatrixEigenvalues:
    def test_against_numpy_on_random_matrices(self):
        rng = np.random.default_rng(45)
        for _ in range(100):
            m = rng.uniform(-2.0, 2.0, (3, 3))
            mine = sorted(matrix_eigenvalues(m),
                          key=lambda z: (z.real, z.imag))
            ref = sorted(np.linalg.eigvals(m),
                         key=lambda z: (z.real, z.imag))
            for a, b in zip(mine, ref):
                assert abs(a - b) <= 1e-9

    def test_char_cubic_coefficients_against_numpy(self):
        rng = np.random.default_rng(46)
        for _ in range(100):
            m = rng.uniform(-2.0, 2.0, (3, 3))
            c2, c1, c0 = char_cubic_coefficients(m)
            ref = np.poly(m)  # monic: [1, c2, c1, c0]
            assert (c2, c1, c0) == pytest.approx(tuple(ref[1:]), abs=1e-12)


    def test_rows_and_arrays_give_the_same_bits(self):
        # the CLI passes row tuples of floats, library callers numpy arrays;
        # the reference is the numpy-scalar arithmetic on array elements
        def numpy_reference(m):
            tr = m[0, 0] + m[1, 1] + m[2, 2]
            minors = (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
                      + m[0, 0] * m[2, 2] - m[0, 2] * m[2, 0]
                      + m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
            det = (m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
                   - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
                   + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0]))
            return (float(-tr), float(minors), float(-det))

        rng = np.random.default_rng(48)
        for _ in range(100):
            for rows in (_free_rows, _coex_rows):
                p = random_params(rng, endemic=rows is _coex_rows)
                got = char_cubic_coefficients(rows(p))
                arr = np.array(rows(p))
                assert got == char_cubic_coefficients(arr)
                assert got == numpy_reference(arr)
                assert all(type(c) is float for c in got)

    @pytest.mark.parametrize("m", [
        np.zeros((2, 2)), np.zeros((3, 4)), np.zeros((3, 3, 1)), np.zeros(9),
        [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]],
        [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, "x"]], 3.0])
    def test_char_cubic_coefficients_rejects_non_3x3(self, m):
        with pytest.raises(ValidationError, match="expected a 3x3 matrix"):
            char_cubic_coefficients(m)


class TestRouthHurwitz:
    def test_example_verdict(self):
        v = routh_hurwitz_coexistence(P_ENDEMIC)
        assert v.stable and not v.marginal
        assert v.verdict == "stable"
        names = [c.name for c in v.criteria]
        assert names == ["trace(A) < 0", "det(A) < 0",
                         "-m2*trace(A) + det(A) > 0"]
        assert v.criteria[1].value == pytest.approx(-0.01, abs=1e-14)
        assert all(c.satisfied for c in v.criteria)

    def test_always_stable_and_matches_eigenvalue_sign(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            p = random_params(rng, endemic=True)
            v = routh_hurwitz_coexistence(p)
            assert v.stable
            a0, a1 = linearisation(p.beta, p.mu, p.gamma, p.k_r)
            top = max(np.linalg.eigvals(a0 + a1).real)
            assert v.stable == (top < 0.0)

    def test_requires_beta_above_mu(self):
        with pytest.raises(ValidationError, match="beta > mu"):
            routh_hurwitz_coexistence(P_FREE)

    def test_marginal_verdict(self):
        v = StabilityVerdict(criteria=(
            Criterion("c1", -1.0, True), Criterion("c2", 0.0, True)))
        assert v.marginal
        assert v.verdict == "marginal"
        w = StabilityVerdict(criteria=(Criterion("c1", 1.0, False),))
        assert w.verdict == "unstable"


class TestQuasiPolynomial:
    def test_length_validation(self):
        with pytest.raises(ValidationError, match="length 2 or 3"):
            QuasiPolynomial(a=(1.0,), b=(1.0,), r=0.5)
        with pytest.raises(ValidationError, match="length 2 or 3"):
            QuasiPolynomial(a=(1.0, 2.0), b=(1.0, 2.0, 3.0), r=0.5)
        with pytest.raises(ValidationError, match="r:"):
            QuasiPolynomial(a=(1.0, 2.0), b=(1.0, 2.0), r=-0.5)

    def test_value_at_zero_is_a0_plus_b0(self):
        rng = np.random.default_rng(48)
        for degree in (2, 3):
            for _ in range(25):
                a = tuple(rng.uniform(-2, 2, degree))
                b = tuple(rng.uniform(-2, 2, degree))
                q = QuasiPolynomial(a=a, b=b, r=rng.uniform(0.0, 3.0))
                v = q.value(0.0, r=rng.uniform(0.0, 3.0))
                assert v.real == pytest.approx(a[0] + b[0], abs=1e-14)
                assert v.imag == 0.0


class TestCharPolyDelayFree:
    def test_frozen_coefficients(self):
        q = char_poly_delay_free(Params(0.1, 0.2, 0.3, 2.0, r=0.5))
        assert q.degree == 2
        assert q.a == (0.0, 0.2)
        assert q.b == (0.05, 0.5)
        assert q.r == 0.5

    def test_b0_vanishes_at_beta_equals_mu(self):
        q = char_poly_delay_free(Params(0.2, 0.2, 0.3, 2.0, r=0.5))
        assert q.b[0] == 0.0

    def test_removed_factor_root_at_minus_gamma(self):
        p = Params(0.1, 0.2, 0.3, 2.0, r=0.5)
        assert abs(delayed_free_char(p, complex(-p.gamma))) <= 1e-15

    def test_matches_determinant_oracle(self):
        rng = np.random.default_rng(49)
        for _ in range(20):
            p = random_params(rng, endemic=False, r=rng.uniform(0.1, 0.8))
            q = char_poly_delay_free(p)
            lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            det = delayed_free_char(p, lam)
            mine = q.value(lam) * (lam + p.gamma)
            assert abs(det - mine) <= 1e-12


class TestCharPolyDelayCoexistence:
    def test_frozen_coefficients(self):
        q = char_poly_delay_coexistence(Params(0.4, 0.2, 0.1, 2.0, r=0.5))
        assert q.degree == 3
        assert q.a == pytest.approx(DEG3_A, rel=1e-15)
        assert q.b == pytest.approx(DEG3_B, rel=1e-15)

    def test_zero_delay_routh_hurwitz_on_summed_coefficients(self):
        q = char_poly_delay_coexistence(Params(0.4, 0.2, 0.1, 2.0, r=0.5))
        c2 = q.a[2] + q.b[2]
        c1 = q.a[1] + q.b[1]
        c0 = q.a[0] + q.b[0]
        assert (c2, c1, c0) == pytest.approx(
            (0.8588235294117647, 0.11705882352941177, 0.01), rel=1e-14)
        assert c2 * c1 - c0 == pytest.approx(0.09053287197231834, rel=1e-13)
        assert min(c2, c1, c0, c2 * c1 - c0) > 0.0

    def test_constant_coefficient_gap_is_negative(self):
        # a0^2 < b0^2 whenever k_r < 1/mu + 1/gamma
        q = char_poly_delay_coexistence(Params(0.4, 0.2, 0.1, 2.0, r=0.5))
        assert q.a[0] ** 2 - q.b[0] ** 2 < 0.0

    def test_requires_beta_above_mu(self):
        with pytest.raises(ValidationError, match="beta > mu"):
            char_poly_delay_coexistence(Params(0.1, 0.2, 0.3, 2.0, r=0.5))

    def test_matches_determinant_oracle(self):
        rng = np.random.default_rng(50)
        for _ in range(20):
            p = random_params(rng, endemic=True, r=rng.uniform(0.1, 0.8))
            q = char_poly_delay_coexistence(p)
            lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            det = delayed_coexistence_char(p, lam)
            assert abs(det - q.value(lam)) <= 1e-12

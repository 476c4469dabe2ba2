"""Closed-form cubic solver: real-root extraction against factored and
numpy.roots oracles, including multiple-root cases."""
import numpy as np
import pytest

from seirs_delay import ValidationError, cubic_real_roots
from seirs_delay._cubic import _polish, _polish_double, cubic_roots


def residual_scale(A, B, C):
    return 1e-12 * max(1.0, abs(A), abs(B), abs(C))


@pytest.mark.parametrize("polish, args", [
    (_polish, (1.0, 0.0, -3.0, 2.0)),    # f'(1) = 0 at the double root
    (_polish, (1e200, 0.0, 0.0, 0.0)),   # f and f' overflow: inf / inf
    (_polish_double, (0.0, 0.0, 1.0)),   # g'(0) = 0
    (_polish_double, (1e300, 0.0, 0.0)),  # g overflows: inf / 6e300
])
def test_polish_keeps_x_where_the_newton_step_is_undefined(polish, args):
    # dividing by f' = 0 would raise, and a NaN or inf step would replace x
    assert polish(*args) == args[0]


class TestCubicRealRoots:
    @pytest.mark.parametrize("A, B, C, name", [
        (float("nan"), 0.0, 0.0, "A"),
        (0.0, float("inf"), 0.0, "B"),
        (0.0, 0.0, -float("inf"), "C"),
    ])
    def test_non_finite_coefficient_rejected(self, A, B, C, name):
        with pytest.raises(ValidationError, match=f"^{name}: must be finite$"):
            cubic_real_roots(A, B, C)

    def test_three_distinct_roots(self):
        # (x-1)(x-2)(x-3)
        roots = cubic_real_roots(-6.0, 11.0, -6.0)
        assert roots == pytest.approx([1.0, 2.0, 3.0], abs=1e-12)

    def test_triple_root_at_zero(self):
        assert cubic_real_roots(0.0, 0.0, 0.0) == [0.0, 0.0, 0.0]

    def test_complex_pair_discarded(self):
        # x(x^2+1)
        roots = cubic_real_roots(0.0, 1.0, 0.0)
        assert roots == pytest.approx([0.0], abs=1e-15)

    def test_double_root(self):
        # (x-1)^2 (x-3)
        roots = cubic_real_roots(-5.0, 7.0, -3.0)
        assert len(roots) == 3
        assert roots == pytest.approx([1.0, 1.0, 3.0], abs=1e-7)

    def test_single_negative_root(self):
        # (x+4)(x^2 + |complex pair|): x^3 + 2.25x^2 - 6x + 4 has x = -4
        roots = cubic_real_roots(2.25, -6.0, 4.0)
        assert roots == pytest.approx([-4.0], abs=1e-12)

    def test_roots_sorted_ascending(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            A, B, C = rng.uniform(-5, 5, 3)
            roots = cubic_real_roots(A, B, C)
            assert roots == sorted(roots)

    def test_residual_bound_on_random_coefficients(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            A, B, C = rng.uniform(-5, 5, 3)
            for x in cubic_real_roots(A, B, C):
                res = abs(((x + A) * x + B) * x + C)
                assert res <= residual_scale(A, B, C)

    def test_root_set_matches_numpy(self):
        rng = np.random.default_rng(33)
        checked = 0
        for _ in range(200):
            A, B, C = rng.uniform(-5, 5, 3)
            ref = np.roots([1.0, A, B, C])
            # skip draws where numpy's real/complex split is ambiguous
            if any(0.0 < abs(z.imag) < 1e-6 for z in ref):
                continue
            real_ref = sorted(z.real for z in ref if z.imag == 0.0
                              or abs(z.imag) <= 1e-6)
            mine = cubic_real_roots(A, B, C)
            assert len(mine) == len(real_ref)
            assert mine == pytest.approx(real_ref, abs=1e-7)
            checked += 1
        assert checked >= 150


class TestCubicRootsComplex:
    def test_returns_all_three_with_conjugate_pair(self):
        roots = cubic_roots(2.25, -6.0, 4.0)
        assert len(roots) == 3
        reals = [z for z in roots if z.imag == 0.0]
        pair = sorted((z for z in roots if z.imag != 0.0), key=lambda z: z.imag)
        assert len(reals) == 1 and len(pair) == 2
        assert pair[0].real == pytest.approx(pair[1].real, abs=1e-12)
        assert pair[0].imag == pytest.approx(-pair[1].imag, abs=1e-12)

    def test_full_root_multiset_against_numpy(self):
        rng = np.random.default_rng(34)
        for _ in range(200):
            A, B, C = rng.uniform(-4, 4, 3)
            mine = sorted(cubic_roots(A, B, C), key=lambda z: (z.real, z.imag))
            ref = sorted(np.roots([1.0, A, B, C]),
                         key=lambda z: (z.real, z.imag))
            for a, b in zip(mine, ref):
                assert abs(a - b) <= 1e-6 * max(1.0, abs(b))

    def test_vieta_sums(self):
        rng = np.random.default_rng(35)
        for _ in range(100):
            A, B, C = rng.uniform(-4, 4, 3)
            r1, r2, r3 = cubic_roots(A, B, C)
            assert (r1 + r2 + r3).real == pytest.approx(-A, abs=1e-9)
            assert abs((r1 + r2 + r3).imag) <= 1e-9
            assert (r1 * r2 * r3).real == pytest.approx(-C, abs=1e-9)

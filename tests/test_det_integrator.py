"""Deterministic integrators: the one-step scheme for the nondelayed system,
the history-buffer scheme for the delayed system, the interval-by-interval
integral-representation construction used as a cross-oracle, and the scalar
comparison equation behind the positivity threshold k_r >= r*e."""
import math

import numpy as np
import pytest

from seirs_delay import (
    IntegrationError,
    Params,
    Seed,
    ValidationError,
    coexistence_equilibrium,
    default_step,
    deterministic_euler,
    ensemble,
    integrate_dde,
    integrate_dde_cascade,
    integrate_ode,
    integrate_scalar_comparison,
    make_initial_condition,
    make_state,
    simulate_sde,
)

X0 = np.array([1.0, 0.0, 0.0, 0.0])


def matched_nodes(coarse, fine):
    """Index pairs where two trajectories share a node time."""
    pairs = []
    for j, t in enumerate(coarse.times):
        k = round(float(t) / fine.step)
        if k < len(fine) and abs(fine.times[k] - t) <= 1e-9:
            pairs.append((j, k))
    return pairs


def max_matched_diff(a, b):
    pairs = matched_nodes(a, b)
    assert len(pairs) >= 10
    return max(float(np.max(np.abs(a.states[j] - b.states[k])))
               for j, k in pairs)


class TestDefaultStep:
    def test_no_delay(self):
        assert default_step(0.0) == 0.01

    def test_divides_delay_exactly(self):
        rng = np.random.default_rng(71)
        for r in [0.5, 0.7, 0.003, 0.777] + list(rng.uniform(0.01, 3.0, 30)):
            h = default_step(r)
            assert h <= 0.01 + 1e-12
            k = r / h
            assert abs(k - round(k)) <= 1e-9 * max(1.0, k)


class TestIntegrateOde:
    def test_fixed_point_is_exactly_constant(self):
        p = Params(0.3, 0.2, 0.1, 2.0)
        tr = integrate_ode(p, make_state(1.0, 0.0, 0.0, 0.0), 10.0, 0.01)
        assert np.array_equal(tr.states, np.tile(X0, (len(tr), 1)))

    def test_subcritical_run_reaches_free_point(self):
        p = Params(0.1, 0.2, 0.3, 2.0)
        tr = integrate_ode(p, make_state(0.9, 0.05, 0.05, 0.0), 200.0, 0.01)
        assert float(np.max(np.abs(tr.states[-1] - X0))) <= 1e-6

    def test_supercritical_run_reaches_coexistence_point(self):
        p = Params(0.4, 0.2, 0.1, 2.0)
        xs = coexistence_equilibrium(p).as_array()
        tr = integrate_ode(p, make_state(0.9, 0.05, 0.05, 0.0), 2000.0, 0.01)
        assert float(np.max(np.abs(tr.states[-1] - xs))) <= 1e-4

    def test_conservation_and_positivity(self):
        rng = np.random.default_rng(72)
        for _ in range(10):
            lo, hi = sorted(rng.uniform(0.05, 0.9, 2))
            beta, mu = (hi, lo) if rng.random() < 0.5 else (lo, hi)
            p = Params(beta, max(mu, 0.051), rng.uniform(0.05, 0.9),
                       rng.uniform(0.5, 4.0))
            e0, i0 = rng.uniform(0.0, 0.2, 2)
            x0 = make_state(1.0 - e0 - i0, e0, i0, 0.0)
            tr = integrate_ode(p, x0, 100.0, 0.02)
            assert tr.max_sum_defect() <= 1e-10
            assert tr.min_component() >= -1e-9

    def test_fourth_order_self_convergence(self):
        p = Params(0.4, 0.2, 0.1, 2.0)
        x0 = make_state(0.9, 0.05, 0.05, 0.0)
        ref = integrate_ode(p, x0, 20.0, 0.015625)

        def err(h):
            tr = integrate_ode(p, x0, 20.0, h)
            stride = round(h / ref.step)
            return float(np.max(np.abs(tr.states - ref.states[::stride])))

        e_half, e_quarter, e_eighth = err(0.5), err(0.25), err(0.125)
        for ratio in (e_half / e_quarter, e_quarter / e_eighth):
            assert 16.0 * 0.7 <= ratio <= 16.0 * 1.3

    def test_requires_zero_delay(self):
        p = Params(0.1, 0.2, 0.3, 2.0, r=0.5)
        with pytest.raises(ValidationError, match="r"):
            integrate_ode(p, make_state(0.9, 0.05, 0.05, 0.0), 10.0, 0.01)

    def test_step_must_divide_horizon(self):
        p = Params(0.1, 0.2, 0.3, 2.0)
        with pytest.raises(ValidationError, match="multiple"):
            integrate_ode(p, make_state(0.9, 0.05, 0.05, 0.0), 10.0, 0.3)
        # the Euler routes share this grid: no rounding up when r = 0
        ic = make_initial_condition(e0=0.05, s0=0.9, i0=0.05, r0=0.0)
        with pytest.raises(ValidationError, match="multiple"):
            simulate_sde(p, ic, 10.005, 0.01, Seed(0))
        with pytest.raises(ValidationError, match="multiple"):
            deterministic_euler(p, ic, 10.005, 0.01)

    @pytest.mark.parametrize("t_end", [math.nan, math.inf])
    def test_horizon_must_be_finite(self, t_end):
        # the stepped routes share step_grid, which names the bad horizon
        p = Params(0.1, 0.2, 0.3, 2.0, epsilon=0.1)
        ic = make_initial_condition(e0=0.05, s0=0.9, i0=0.05, r0=0.0)
        calls = (
            lambda: integrate_ode(p, make_state(0.9, 0.05, 0.05, 0.0), t_end,
                                  0.01),
            lambda: simulate_sde(p, ic, t_end, 0.01, Seed(0)),
            lambda: ensemble(p._replace(r=0.5), ic, t_end, 0.01, 4, Seed(0)),
        )
        for call in calls:
            with pytest.raises(ValidationError, match="t_end"):
                call()

    @pytest.mark.parametrize("t_end, h", [(1e299, 0.05), (1e300, 1e-300)])
    def test_grid_beyond_one_array_is_rejected(self, t_end, h):
        # the second grid's step count overflows to inf before rounding
        p = Params(0.1, 0.2, 0.3, 2.0)
        with pytest.raises(ValidationError, match="nodes, more than the"):
            integrate_ode(p, make_state(0.9, 0.05, 0.05, 0.0), t_end, h)

    def test_invariant_breach_aborts_with_node(self):
        # oversized step drives a stiff decay negative on the first update
        p = Params(0.9, 0.95, 0.05, 0.3)
        with pytest.raises(IntegrationError) as exc:
            integrate_ode(p, make_state(0.05, 0.0, 0.95, 0.0), 100.0, 2.0)
        assert exc.value.node == 1


class TestIntegrateDde:
    def test_zero_history_fixed_point(self):
        p = Params(0.1, 0.2, 0.3, 2.0, r=0.5)
        ic = make_initial_condition(e0=0.0, s0=1.0, i0=0.0, r0=0.0)
        tr = integrate_dde(p, ic, 10.0, 0.01)
        assert np.array_equal(tr.states, np.tile(X0, (len(tr), 1)))

    def test_subcritical_run_reaches_free_point(self):
        p = Params(0.1, 0.2, 0.3, 2.0, r=0.5)
        ic = make_initial_condition(e0=0.1, s0=0.8, i0=0.1, r0=0.0)
        tr = integrate_dde(p, ic, 300.0, 0.01)
        assert float(np.max(np.abs(tr.states[-1] - X0))) <= 1e-6

    def test_agrees_with_integral_representation(self):
        p = Params(0.1, 0.2, 0.3, 2.0, r=0.5)
        ic = make_initial_condition(e0=0.1, s0=0.8, i0=0.1, r0=0.0)
        stepped = integrate_dde(p, ic, 300.0, 0.01)
        cascade = integrate_dde_cascade(p, ic, 300.0, quad_n=50)
        assert max_matched_diff(cascade, stepped) <= 1e-6

    def test_agreement_on_random_parameter_draws(self):
        rng = np.random.default_rng(20260814)
        worst = 0.0
        for _ in range(12):
            beta, mu, gamma = rng.uniform(0.05, 0.9, 3)
            r = rng.uniform(0.1, 1.0)
            p = Params(beta, mu, gamma, k_r=r * math.e * rng.uniform(1.0, 2.0),
                       r=r)
            e0, i0 = rng.uniform(0.0, 0.2, 2)
            ic = make_initial_condition(e0=e0, s0=1.0 - e0 - i0, i0=i0, r0=0.0)
            h = default_step(r)
            stepped = integrate_dde(p, ic, 30.0, h)
            cascade = integrate_dde_cascade(p, ic, 30.0, quad_n=200)
            worst = max(worst, max_matched_diff(cascade, stepped))
        assert worst <= 1e-6

    def test_conservation_and_positivity(self):
        rng = np.random.default_rng(73)
        for _ in range(10):
            beta, mu, gamma = rng.uniform(0.05, 0.9, 3)
            r = rng.uniform(0.1, 1.0)
            p = Params(beta, mu, gamma, k_r=r * math.e * rng.uniform(1.0, 2.0),
                       r=r)
            e0, i0 = rng.uniform(0.0, 0.25, 2)
            ic = make_initial_condition(e0=e0, s0=1.0 - e0 - i0, i0=i0, r0=0.0)
            tr = integrate_dde(p, ic, 100.0, default_step(r))
            assert tr.max_sum_defect() <= 1e-10
            assert tr.min_component() >= -1e-9

    def test_horizon_not_node_aligned_is_covered(self):
        p = Params(0.1, 0.2, 0.3, 2.0, r=0.5)
        ic = make_initial_condition(e0=0.1, s0=0.8, i0=0.1, r0=0.0)
        tr = integrate_dde(p, ic, 10.003, 0.01)
        assert tr.times[-1] >= 10.003 - 1e-12
        assert tr.times[-1] == pytest.approx(10.01, abs=1e-12)

    def test_step_must_divide_delay(self):
        p = Params(0.1, 0.2, 0.3, 2.0, r=0.5)
        ic = make_initial_condition(e0=0.1, s0=0.8, i0=0.1, r0=0.0)
        with pytest.raises(ValidationError, match="r"):
            integrate_dde(p, ic, 10.0, 0.03)
        with pytest.raises(ValidationError, match="at least 3 steps"):
            integrate_dde(p, ic, 10.0, 0.25)

    def test_requires_positive_delay_and_covering_horizon(self):
        ic = make_initial_condition(e0=0.1, s0=0.8, i0=0.1, r0=0.0)
        with pytest.raises(ValidationError, match="r"):
            integrate_dde(Params(0.1, 0.2, 0.3, 2.0), ic, 10.0, 0.01)
        with pytest.raises(ValidationError, match="t_end"):
            integrate_dde(Params(0.1, 0.2, 0.3, 2.0, r=0.5), ic, 0.25, 0.01)

    @pytest.mark.parametrize("beta, mu, gamma, k_r, r, e0, i0, r0, node", [
        # on [0, r], in the RK4 phase
        (0.566, 0.937, 0.824, 23.302, 6.0, 0.01, 0.219, 0.053, 1),
        # past r, in the Adams phase (r/h = 5)
        (0.159, 0.742, 0.93, 27.383, 10.0, 0.259, 0.294, 0.287, 9),
    ])
    def test_invariant_breach_aborts_with_node(self, beta, mu, gamma, k_r,
                                               r, e0, i0, r0, node):
        # an oversized step drives a component negative
        p = Params(beta, mu, gamma, k_r, r=r)
        ic = make_initial_condition(e0=e0, s0=1.0 - e0 - i0 - r0, i0=i0,
                                    r0=r0)
        with pytest.raises(IntegrationError) as exc:
            integrate_dde(p, ic, 80.0, 2.0)
        assert exc.value.node == node
        assert str(exc.value) == f"component below -1e-09 at node {node}"

    def test_times_strictly_increasing(self):
        p = Params(0.1, 0.2, 0.3, 2.0, r=0.5)
        ic = make_initial_condition(e0=0.1, s0=0.8, i0=0.1, r0=0.0)
        tr = integrate_dde(p, ic, 5.0, 0.01)
        assert np.all(np.diff(tr.times) > 0.0)
        assert tr.step == 0.01
        assert len(tr) == len(tr.times) == len(tr.states)


class TestCascade:
    def test_zero_history_fixed_point(self):
        p = Params(0.1, 0.2, 0.3, 2.0, r=0.5)
        ic = make_initial_condition(e0=0.0, s0=1.0, i0=0.0, r0=0.0)
        tr = integrate_dde_cascade(p, ic, 10.0, quad_n=16)
        assert float(np.max(np.abs(tr.states - X0))) == 0.0

    def test_quadrature_refinement(self):
        p = Params(0.1, 0.2, 0.3, 2.0, r=0.5)
        ic = make_initial_condition(e0=0.1, s0=0.8, i0=0.1, r0=0.0)
        c16 = integrate_dde_cascade(p, ic, 30.0, quad_n=16)
        c64 = integrate_dde_cascade(p, ic, 30.0, quad_n=64)
        lookup = {round(float(t), 9): j for j, t in enumerate(c64.times)}
        worst = 0.0
        matched = 0
        for j, t in enumerate(c16.times):
            k = lookup.get(round(float(t), 9))
            if k is not None:
                worst = max(worst, float(np.max(np.abs(c16.states[j]
                                                       - c64.states[k]))))
                matched += 1
        assert matched >= 100
        assert worst < 1e-8

    def test_rejects_small_quad_n(self):
        p = Params(0.1, 0.2, 0.3, 2.0, r=0.5)
        ic = make_initial_condition(e0=0.1, s0=0.8, i0=0.1, r0=0.0)
        with pytest.raises(ValidationError, match="quad_n"):
            integrate_dde_cascade(p, ic, 10.0, quad_n=4)


class TestScalarComparison:
    def test_at_threshold_rate_decays_without_sign_change(self):
        r = 1.0
        vals = integrate_scalar_comparison(k=1.0 / (r * math.e), r=r, f0=1.0,
                                           t_end=100.0, h=0.001)
        assert float(np.min(vals)) >= -1e-9
        assert float(vals[-1]) <= 1e-3

    def test_below_threshold_stays_strictly_positive(self):
        vals = integrate_scalar_comparison(k=0.2, r=1.0, f0=1.0,
                                           t_end=100.0, h=0.001)
        assert float(np.min(vals)) > 0.0

    def test_zero_history_identically_zero(self):
        vals = integrate_scalar_comparison(k=0.3, r=1.0, f0=0.0,
                                           t_end=10.0, h=0.01)
        assert np.array_equal(vals, np.zeros_like(vals))

    def test_step_must_divide_delay(self):
        with pytest.raises(ValidationError, match="r"):
            integrate_scalar_comparison(k=0.3, r=1.0, f0=1.0, t_end=10.0,
                                        h=0.3)


class TestTrajectory:
    def test_final_state_survives_long_run_drift(self):
        p = Params(0.4, 0.2, 0.1, 2.0)
        tr = integrate_ode(p, make_state(0.9, 0.05, 0.05, 0.0), 5000.0, 0.05)
        x = tr.final_state()
        assert abs(x.total - 1.0) <= 1e-12

    def test_summary_statistics(self):
        p = Params(0.1, 0.2, 0.3, 2.0)
        tr = integrate_ode(p, make_state(0.9, 0.05, 0.05, 0.0), 10.0, 0.01)
        assert len(tr) == 1001
        assert tr.max_sum_defect() <= 1e-10
        assert tr.min_component() >= -1e-9

"""Deterministic integrators: the one-step scheme for the nondelayed system
and the history-buffer scheme for the delayed system, checked against the
independent references of tests/_oracles.py (the interval-by-interval
integral representation of the delayed system, and forward Euler). The
scalar comparison equation, also a reference there, shows the positivity
threshold k <= 1/(r*e) behind the admissibility bound k_r >= r*e."""
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
    ensemble,
    integrate_dde,
    integrate_ode,
    make_initial_condition,
    make_state,
    simulate_sde,
)

from _oracles import (deterministic_euler, integrate_dde_cascade,
                      integrate_scalar_comparison, path_reductions)

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
        xs = np.array(coexistence_equilibrium(p))
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

    @pytest.mark.parametrize("rates, x0, h, message", [
        # an oversized step drives a stiff decay negative on the first update
        ((0.9, 0.95, 0.05, 0.3), (0.05, 0.0, 0.95, 0.0), 2.0,
         "component below -1e-09 at node 1"),
        # a fast latency outflow (k_r = 0.01) breaks the sum first
        ((0.9, 0.5, 0.5, 0.01), (0.5, 0.2, 0.2, 0.1), 1.0,
         "component sum drifted beyond 1e-10 at node 1"),
    ], ids=["negative", "sum"])
    def test_invariant_breach_aborts_with_node(self, rates, x0, h, message):
        with pytest.raises(IntegrationError) as exc:
            integrate_ode(Params(*rates), make_state(*x0), 100.0, h)
        assert exc.value.node == 1
        assert str(exc.value) == message


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

    @pytest.mark.parametrize("rates, r", [((0.4, 0.2, 0.1, 2.0), 0.5),
                                          ((0.8, 0.3, 0.5, 4.0), 1.0)])
    def test_fourth_order_self_convergence(self, rates, r):
        # over the whole path, across the breaking points t = r, 2r, .. at
        # which E' and E'' jump: a multistep memory across them makes the
        # path second order, with ratios near 4
        p = Params(*rates, r=r)
        ic = make_initial_condition(e0=0.05, s0=0.9, i0=0.05, r0=0.0)
        ref = integrate_dde(p, ic, 20.0, r / 512)

        def err(m):
            tr = integrate_dde(p, ic, 20.0, r / m)
            return float(np.max(np.abs(tr.states - ref.states[::512 // m])))

        errs = [err(m) for m in (4, 8, 16, 32)]
        for coarse, fine in zip(errs, errs[1:]):
            assert 16.0 * 0.7 <= coarse / fine <= 16.0 * 1.3

    def test_agrees_with_integral_representation(self):
        p = Params(0.1, 0.2, 0.3, 2.0, r=0.5)
        ic = make_initial_condition(e0=0.1, s0=0.8, i0=0.1, r0=0.0)
        stepped = integrate_dde(p, ic, 300.0, 0.01)
        cascade = integrate_dde_cascade(p, ic, 300.0, quad_n=50)
        # the gap measured 3.2e-12; a second-order path is off by about 3e-7
        assert max_matched_diff(cascade, stepped) <= 1e-10

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
        # the worst gap measured 2.0e-12; a second-order path's, about 5e-7
        assert worst <= 1e-10

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
        # on [0, r], where the delayed values are the constant history
        (0.566, 0.937, 0.824, 23.302, 6.0, 0.01, 0.219, 0.053, 1),
        # past r, where the delayed values are stored nodes (r/h = 3)
        (0.104, 0.782, 0.924, 17.077, 6.0, 0.001, 0.088, 0.116, 4),
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

    def test_odd_quad_n_agrees_with_a_fine_quadrature(self):
        p = Params(0.1, 0.2, 0.3, 2.0, r=0.5)
        ic = make_initial_condition(e0=0.1, s0=0.8, i0=0.1, r0=0.0)
        # an odd count reuses the last Simpson parabola for its trailing
        # subinterval; the windows' ends are nodes of both runs
        c9 = integrate_dde_cascade(p, ic, 10.0, quad_n=9)
        c64 = integrate_dde_cascade(p, ic, 10.0, quad_n=64)
        assert c9.step == 0.5 / 9
        assert np.allclose(c9.times[::9], c64.times[::64], rtol=0.0, atol=1e-12)
        assert np.abs(c9.states[::9] - c64.states[::64]).max() < 2e-8


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



def _path(case):
    """The integrator path of a case: a golden simulate config, a seeded
    random draw, a start that holds zeros of both signs, or a disease-free
    start, whose E and I stay +0.0."""
    kind, r, arg = case
    if kind == "golden":
        from pathlib import Path

        from seirs_delay.cli import parse_config

        cfg = parse_config(
            (Path(__file__).parent / "golden" / f"{arg}.cfg").read_text())
        p, ic, t_end = cfg.params, cfg.initial, cfg.horizon
    elif kind == "seeded":
        rng = np.random.default_rng(arg)
        beta, mu, gamma = (float(v) for v in rng.uniform(0.05, 0.95, 3))
        e0, i0, r0 = (float(v) for v in rng.uniform(0.0, 0.1, 3))
        p, t_end = Params(beta, mu, gamma, 2.0, r=r), 30.0
        ic = make_initial_condition(e0=e0, s0=1.0 - ((e0 + i0) + r0),
                                    i0=i0, r0=r0)
    else:
        p, t_end = Params(0.4, 0.2, 0.1, 2.0, r=r), 1.0
        e0, i0, r0 = arg
        ic = make_initial_condition(e0=e0, s0=0.95, i0=i0, r0=r0)
    if r:
        return integrate_dde(p, ic, t_end, 0.01)
    return integrate_ode(p, ic.state0(), t_end, 0.01)


def _bits(v):
    return np.float64(v).tobytes()


@pytest.mark.parametrize("case", [
    ("golden", 0.5, "simulate"), ("golden", 0.0, "simulate-ode"),
    *(("seeded", r, seed) for r in (0.0, 0.5) for seed in range(3)),
    *(("zeros", r, z) for r in (0.0, 0.05)
      for z in ((0.0, 0.05, -0.0), (-0.0, 0.05, 0.0), (0.0, 0.0, 0.05)))],
    ids=lambda case: "{}-r{}-{}".format(*case).replace(" ", ""))
def test_kernel_reductions_are_numpys(case):
    # the reductions and the last node a path reports without an array are
    # the bytes numpy's reductions of its stored nodes give, but for a zero
    # minimum's sign, IEEE 754-2019 minimum's (the zeros cases)
    traj = _path(case)
    kernel = [traj.max_sum_defect(), traj.min_component(), *traj.last]
    x = traj.states
    assert len(traj) == len(x)
    numpy = [*path_reductions(x), *x[-1]]
    assert list(map(_bits, kernel)) == list(map(_bits, numpy))
    # the states are a read-only view of the kernel's nodes, so the
    # reductions it returned stay theirs
    with pytest.raises(ValueError):
        x[-1, 0] = 0.5
    assert list(map(_bits, (traj.max_sum_defect(), traj.min_component()))
                ) == list(map(_bits, numpy[:2]))

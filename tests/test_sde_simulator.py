"""Stochastic paths and the noise-robustness toolkit: seeded reproducibility,
exact conservation, the zero-noise reduction, ensemble tails, the fitted
concentration exponent, and the quadratic Lyapunov certificate."""
import math
import warnings

import numpy as np
import pytest

from seirs_delay import (
    ExcursionError,
    InsufficientExceedances,
    Params,
    Seed,
    State,
    ValidationError,
    concentration_check,
    deterministic_euler,
    ensemble,
    lyapunov_certificate,
    lyapunov_condition,
    make_initial_condition,
    make_run_state,
    sde_simulator,
    simulate_sde,
    stochastic_stability_experiment,
)
from seirs_delay.det_integrator import step_grid

P_NOISY = Params(0.1, 0.2, 0.3, 2.0, r=0.0, epsilon=0.1)
IC = make_initial_condition(e0=0.05, s0=0.9, i0=0.05, r0=0.0)
# 300 replicas over t = 10: the eps = 0.1 replicas stay in the band and, at
# eps = 0.2, replica 598 (stream 906) leaves it at step 806
P_906 = Params(0.1, 0.2, 0.3, 2.0, r=0.5, epsilon=0.1)


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


def reevaluate_inequalities(p, cert):
    """The three certificate inequalities from the stored fields alone."""
    coupling = p.beta + cert.v2 / p.k_r
    i1 = -2.0 / p.k_r + cert.lambda1_sq * coupling
    i2 = (-2.0 * cert.v2 * p.mu + p.epsilon ** 2
          + coupling / cert.lambda1_sq + cert.v3 * p.mu / cert.lambda3_sq)
    i3 = -2.0 * cert.v3 * p.gamma + cert.lambda3_sq * cert.v3 * p.mu
    return i1, i2, i3


def certificate_draw(rng):
    beta = rng.uniform(0.02, 0.4)
    mu = min(beta + rng.uniform(0.08, 0.5), 0.95)
    gamma = rng.uniform(0.05, 0.9)
    k_r = rng.uniform(0.3, 4.0)
    eps_max = math.sqrt(2.0 * mu * k_r * (mu - beta))
    eps = eps_max * rng.uniform(0.05, 0.9)
    return Params(beta, mu, gamma, k_r, 0.0, eps)


def violating_draw(rng, j):
    if j % 2 == 0:
        mu = rng.uniform(0.02, 0.5)
        beta = min(mu + rng.uniform(0.0, 0.4), 0.95)
        return Params(beta, mu, 0.3, rng.uniform(0.3, 4.0), 0.0,
                      rng.uniform(0.0, 1.0))
    beta = rng.uniform(0.02, 0.4)
    mu = min(beta + rng.uniform(0.05, 0.5), 0.95)
    k_r = rng.uniform(0.3, 4.0)
    eps = math.sqrt(2.0 * mu * k_r * (mu - beta)) * rng.uniform(1.05, 2.0)
    return Params(beta, mu, 0.3, k_r, 0.0, eps)


class TestSeed:
    @pytest.mark.parametrize("sd", [math.sqrt(0.01), math.sqrt(0.005), 0.3])
    def test_normal_is_a_scaled_standard_normal(self, sd):
        # ensembles draw standard normals and scale them; simulate_sde calls
        # Generator.normal; replicas match their scalar paths only while
        # numpy rounds normal(0.0, sd) as 0.0 + sd * standard_normal
        normal = Seed(5).rng(2).normal(0.0, sd, 100_000)
        scaled = 0.0 + sd * Seed(5).rng(2).standard_normal(100_000)
        assert normal.tobytes() == scaled.tobytes(), (
            "Generator.normal(0.0, sd, k) no longer equals 0.0 + sd * "
            "standard_normal(k) bit for bit on this numpy; the replica "
            "engine in sde_simulator relies on it")

    def test_same_master_and_replica_reproduce(self):
        a = Seed(42).rng(3).normal(size=8)
        b = Seed(42).rng(3).normal(size=8)
        assert np.array_equal(a, b)

    def test_streams_differ_across_replicas(self):
        a = Seed(42).rng(0).normal(size=8)
        b = Seed(42).rng(1).normal(size=8)
        assert not np.array_equal(a, b)

    def test_replica_must_be_nonnegative(self):
        with pytest.raises(ValidationError, match="replica"):
            Seed(42).rng(-1)

    def test_replica_must_be_an_integer(self):
        with pytest.raises(ValidationError, match="replica"):
            Seed(42).rng(1.5)

    @pytest.mark.parametrize("master", [-1, 1.5, True])
    def test_master_must_be_a_nonnegative_integer(self, master):
        with pytest.raises(ValidationError, match="master"):
            Seed(master)


class TestSimulateSde:
    def test_replica_must_be_an_integer(self):
        for p in (P_NOISY, P_NOISY._replace(epsilon=0.0)):
            with pytest.raises(ValidationError, match="replica"):
                simulate_sde(p, IC, 1.0, 0.01, Seed(3), replica=1.5)

    def test_zero_noise_equals_deterministic_euler_bitwise(self):
        p = P_NOISY._replace(epsilon=0.0)
        sde = simulate_sde(p, IC, 20.0, 0.01, Seed(5), replica=2)
        det = deterministic_euler(p, IC, 20.0, 0.01)
        assert np.array_equal(sde.states, det.states)

    def test_zero_noise_reduction_with_delay(self):
        p = Params(0.1, 0.2, 0.3, 2.0, r=0.5, epsilon=0.0)
        ic = make_initial_condition(e0=0.1, s0=0.8, i0=0.1, r0=0.0)
        sde = simulate_sde(p, ic, 10.0, 0.01, Seed(5))
        det = deterministic_euler(p, ic, 10.0, 0.01)
        assert np.array_equal(sde.states, det.states)

    def test_degenerate_diffusion_at_free_point(self):
        ic = make_initial_condition(e0=0.0, s0=1.0, i0=0.0, r0=0.0)
        tr = simulate_sde(P_NOISY._replace(epsilon=0.9), ic, 10.0, 0.01,
                          Seed(7))
        assert np.array_equal(tr.states,
                              np.tile([1.0, 0.0, 0.0, 0.0], (len(tr), 1)))

    def test_conservation_to_rounding_along_noisy_paths(self):
        worst = 0.0
        for rep in range(100):
            tr = simulate_sde(P_NOISY, IC, 50.0, 0.005, Seed(123),
                              replica=rep)
            worst = max(worst,
                        float(np.max(np.abs(tr.states.sum(axis=1) - 1.0))))
        assert worst <= 5e-14

    def test_reproducible_paths(self):
        a = simulate_sde(P_NOISY, IC, 10.0, 0.01, Seed(9), replica=4)
        b = simulate_sde(P_NOISY, IC, 10.0, 0.01, Seed(9), replica=4)
        assert np.array_equal(a.states, b.states)

    def test_excursion_aborts_with_diagnostics(self):
        p = Params(0.9, 0.05, 0.05, 1.0, r=0.0, epsilon=4.0)
        ic = make_initial_condition(e0=0.1, s0=0.5, i0=0.4, r0=0.0)
        with pytest.raises(ExcursionError) as exc:
            simulate_sde(p, ic, 50.0, 0.01, Seed(0), replica=0)
        assert exc.value.node == 1500
        assert exc.value.component == "E"
        assert exc.value.replica == 0
        assert "excursion" in str(exc.value)
        assert "np.float64" not in str(exc.value)


class TestEnsemble:
    def test_zero_noise_sup_deviations_vanish(self):
        p = P_NOISY._replace(epsilon=0.0)
        out = ensemble(p, IC, 10.0, 0.01, 10, Seed(3))
        assert np.array_equal(np.asarray(out.sup_deviations), np.zeros(10))

    def test_sup_deviation_matches_standalone_path(self):
        out = ensemble(P_NOISY, IC, 20.0, 0.01, 6, Seed(77))
        ref = deterministic_euler(P_NOISY._replace(epsilon=0.0), IC, 20.0,
                                  0.01)
        path = simulate_sde(P_NOISY, IC, 20.0, 0.01, Seed(77), replica=3)
        sup = float(np.max(np.abs(path.states - ref.states)))
        assert sup == out.sup_deviations[3]

    def test_replica_base_offsets_streams(self):
        full = ensemble(P_NOISY, IC, 10.0, 0.01, 8, Seed(11))
        tail_part = ensemble(P_NOISY, IC, 10.0, 0.01, 3, Seed(11),
                             replica_base=5)
        assert np.array_equal(np.asarray(full.sup_deviations)[5:8],
                              np.asarray(tail_part.sup_deviations))

    def test_replica_base_must_be_nonnegative(self):
        for p in (P_NOISY, P_NOISY._replace(epsilon=0.0)):
            with pytest.raises(ValidationError, match="replica_base"):
                ensemble(p, IC, 10.0, 0.01, 4, Seed(3), replica_base=-5)

    def test_replica_base_must_be_an_integer(self):
        with pytest.raises(ValidationError, match="replica_base"):
            ensemble(P_NOISY, IC, 1.0, 0.01, 4, Seed(3), replica_base=1.5)

    def test_n_rep_must_be_an_integer(self):
        with pytest.raises(ValidationError, match="n_rep"):
            ensemble(P_NOISY, IC, 1.0, 0.01, 2.5, Seed(3))

    @pytest.mark.parametrize("name", ["n_rep", "replica_base"])
    def test_a_bool_is_no_count(self, name):
        args = {"n_rep": 4, "replica_base": 0, name: True}
        with pytest.raises(ValidationError, match=name):
            ensemble(P_NOISY, IC, 1.0, 0.01, args["n_rep"], Seed(3),
                     replica_base=args["replica_base"])

    def test_excursion_names_the_replica_of_the_scalar_path(self):
        p = Params(0.1, 0.2, 0.3, 2.0, r=0.5, epsilon=0.2)
        with pytest.raises(ExcursionError) as scalar:
            simulate_sde(p, IC, 10.0, 0.01, Seed(906), replica=598)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ExcursionError) as batched:
                ensemble(p, IC, 10.0, 0.01, 300, Seed(906), replica_base=300)
        err = batched.value
        assert (err.replica, err.node, err.component) == (598, 806, "E")
        assert str(err) == str(scalar.value)

    def test_lowest_index_excursion_is_raised(self):
        # replica 23 leaves the band first (step 687), replica 17 later
        p = Params(0.1, 0.2, 0.3, 2.0, r=0.0, epsilon=0.6)
        with pytest.raises(ExcursionError) as low:
            simulate_sde(p, IC, 10.0, 0.01, Seed(1), replica=17)
        with pytest.raises(ExcursionError) as high:
            simulate_sde(p, IC, 10.0, 0.01, Seed(1), replica=23)
        assert high.value.node < low.value.node
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ExcursionError) as batched:
                ensemble(p, IC, 10.0, 0.01, 7, Seed(1), replica_base=17)
        assert batched.value.replica == 17
        assert batched.value.node == low.value.node
        assert str(batched.value) == str(low.value)

    def test_mean_final_is_a_state(self):
        out = ensemble(P_NOISY, IC, 10.0, 0.01, 10, Seed(3))
        assert isinstance(out.mean_final, State)

    def test_halving_noise_halves_median_sup_deviation(self):
        hi = ensemble(P_NOISY, IC, 20.0, 0.01, 500, Seed(77))
        lo = ensemble(P_NOISY._replace(epsilon=0.05), IC, 20.0, 0.01, 500,
                      Seed(77))
        ratio = float(np.median(hi.sup_deviations)
                      / np.median(lo.sup_deviations))
        assert 2.0 * 0.7 <= ratio <= 2.0 * 1.3

    def test_tail_nonincreasing_and_shape(self):
        # pilot picks the grid at fixed quantiles, the larger run freezes the
        # empirical shape: log-tail falls in rho^2 and steepens in rho
        pilot = ensemble(P_NOISY, IC, 10.0, 0.01, 2000, Seed(500))
        grid = tuple(round(float(q), 7) for q in
                     np.quantile(np.asarray(pilot.sup_deviations),
                                 [0.10, 0.30, 0.50, 0.70, 0.90, 0.98]))
        out = ensemble(P_NOISY, IC, 10.0, 0.01, 8000, Seed(501),
                       rho_grid=grid)
        rho = np.array([v for v, _ in out.tail])
        pr = np.array([v for _, v in out.tail])
        assert np.array_equal(rho, np.sort(rho))
        assert np.all(np.diff(pr) <= 0.0)
        y = np.log(pr)
        assert np.all(np.diff(y) < 0.0)
        slopes = np.diff(y) / np.diff(rho)
        assert np.all(np.diff(slopes) < 0.0)


class TestBatchedParity:
    """ensemble and stochastic_stability_experiment step every replica at
    once; each replica must equal its scalar simulate_sde path bit for bit."""

    # (params, t_end, n_rep, replica_base); 0.5 / 0.01 = 50 steps, fewer
    # than one noise chunk; the one-chunk and chunk-plus-one cases end on a
    # full chunk and on a one-step partial chunk; the last case crosses a
    # replica block
    CASES = {
        "no-delay": (P_NOISY, 10.0, 12, 0),
        "m=3": (P_NOISY._replace(r=0.03), 5.0, 12, 0),
        "t_end=r": (P_NOISY._replace(r=0.5), 0.5, 12, 0),
        "zero-noise": (P_NOISY._replace(r=0.5, epsilon=0.0), 5.0, 4, 0),
        "replica-base": (P_NOISY._replace(r=0.5, epsilon=0.2), 5.0, 12, 37),
        "one-chunk": (P_NOISY, sde_simulator._NOISE_CHUNK * 0.01, 12, 0),
        "chunk-plus-one": (P_NOISY._replace(r=0.03),
                           (sde_simulator._NOISE_CHUNK + 1) * 0.01, 12, 0),
        "two-blocks": (P_NOISY, 0.5, sde_simulator._REPLICA_BLOCK + 6, 5),
    }

    @pytest.mark.parametrize("case, steps", [
        ("one-chunk", sde_simulator._NOISE_CHUNK),
        ("chunk-plus-one", sde_simulator._NOISE_CHUNK + 1)])
    def test_chunk_cases_step_as_named(self, case, steps):
        p, t_end, _, _ = self.CASES[case]
        assert step_grid(p.r, t_end, 0.01)[0] == steps

    @pytest.mark.parametrize("case", CASES)
    def test_ensemble_equals_scalar_paths(self, case):
        p, t_end, n_rep, base = self.CASES[case]
        out = ensemble(p, IC, t_end, 0.01, n_rep, Seed(21),
                       replica_base=base)
        ref = deterministic_euler(p._replace(epsilon=0.0), IC, t_end, 0.01)
        paths = [simulate_sde(p, IC, t_end, 0.01, Seed(21),
                              replica=base + j).states for j in range(n_rep)]
        sups = np.array([np.max(np.abs(path - ref.states)) for path in paths])
        assert np.asarray(out.sup_deviations).tobytes() == sups.tobytes()
        mf = np.stack([path[-1] for path in paths]).mean(axis=0)
        assert out.mean_final == make_run_state(*(float(v) for v in mf))

    @pytest.mark.parametrize("r", [0.0, 0.5])
    def test_mixed_noise_levels_in_one_block(self, r):
        # columns alternate between two noise levels, as a concentration
        # check's reference and transfer replicas share one block
        p = P_NOISY._replace(r=r)
        n, m, _ = step_grid(r, 5.0, 0.01)
        levels = np.resize([0.1, 0.25], 12)
        ref = deterministic_euler(p._replace(epsilon=0.0), IC, 5.0, 0.01)
        sups, finals, first = sde_simulator._run_replicas(
            p, IC, 0.01, n, m, Seed(21), 3, levels, ref.states)
        assert first is None
        for j, eps in enumerate(levels):
            path = simulate_sde(p._replace(epsilon=eps), IC, 5.0, 0.01,
                                Seed(21), replica=3 + j).states
            assert sups[j] == np.max(np.abs(path - ref.states))
            assert bits(finals[j]) == bits(path[-1])

    def test_replicas_below_an_excursion_keep_stepping(self):
        # the eps = 1 columns leave the band; the eps = 0.1 columns below
        # them must still equal their scalar paths
        levels = np.repeat([0.1, 1.0], 6)
        ref = deterministic_euler(P_NOISY._replace(epsilon=0.0), IC, 10.0,
                                  0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sups, _, first = sde_simulator._run_replicas(
                P_NOISY, IC, 0.01, 1000, 0, Seed(0), 0, levels, ref.states)
        assert first is not None and first.replica >= 6
        for j in range(6):
            path = simulate_sde(P_NOISY, IC, 10.0, 0.01, Seed(0), replica=j)
            assert sups[j] == np.max(np.abs(path.states - ref.states))

    def test_stability_experiment_equals_scalar_loop(self):
        p = P_NOISY._replace(epsilon=0.3)
        out = stochastic_stability_experiment(p, IC, 5.0, 0.01, 30, Seed(4))
        eir = np.array([float(simulate_sde(p, IC, 5.0, 0.01, Seed(4),
                                           replica=j).states[-1, 1:].sum())
                        for j in range(30)])
        assert out.mean_eir == float(eir.mean())
        assert out.p95_eir == float(np.percentile(eir, 95))


class TestConcentrationCheck:
    GRID = (0.0148, 0.0182, 0.022, 0.0249, 0.0297, 0.0344)

    def test_zero_noise_degenerate_report(self):
        p = P_NOISY._replace(epsilon=0.0)
        out = concentration_check(p, IC, 5.0, 0.01, 20, (0.01, 0.02), Seed(1))
        assert out.degenerate
        assert out.tail == (0.0, 0.0)
        assert out.c_hat is None
        assert out.transfer_ok is None
        # at eps = 0 there is no tail to fit and no grid to derive
        out = concentration_check(p, IC, 5.0, 0.01, 20, None, Seed(1))
        assert out.degenerate
        assert out.rho_grid == () and out.tail == ()

    def test_fitted_exponent_positive_and_transferable(self):
        out = concentration_check(P_NOISY, IC, 20.0, 0.01, 800, self.GRID,
                                  Seed(77))
        assert out.c_hat is not None and out.c_hat > 0.0
        assert out.n_fit_points >= 2
        assert out.eps_transfer == pytest.approx(0.2)
        assert out.transfer_ok
        # counts and tail probabilities agree
        for pr, cnt in zip(out.tail, out.exceed_counts):
            assert cnt == round(pr * 800)

    def test_fit_matches_through_origin_least_squares(self):
        out = concentration_check(P_NOISY, IC, 20.0, 0.01, 800, self.GRID,
                                  Seed(77))
        xs, ys = [], []
        for rho, pr, cnt in zip(out.rho_grid, out.tail, out.exceed_counts):
            if cnt >= 5 and pr < 1.0:
                xs.append(rho ** 2 / P_NOISY.epsilon ** 2)
                ys.append(math.log(pr))
        xa, ya = np.asarray(xs), np.asarray(ys)
        assert out.c_hat == pytest.approx(float(-(xa @ ya) / (xa @ xa)),
                                          rel=1e-12)
        assert out.n_fit_points == len(xs)

    @pytest.mark.parametrize("grid", [(0.01, 0.015, 0.02, 0.025), None],
                             ids=["grid", "quantiles"])
    @pytest.mark.parametrize("r", [0.0, 0.5])
    def test_equals_two_ensembles(self, r, grid):
        # one replica pass must give what an ensemble at eps and one at
        # 2*eps on the next n_rep streams give
        p = P_NOISY._replace(r=r)
        out = concentration_check(p, IC, 5.0, 0.01, 200, grid, Seed(8))
        ref = ensemble(p, IC, 5.0, 0.01, 200, Seed(8), rho_grid=grid)
        rho = tuple(v for v, _ in ref.tail)
        counts = tuple(int(np.count_nonzero(ref.sup_deviations > v))
                       for v in rho)
        xs = [v * v / (p.epsilon * p.epsilon)
              for v, cnt in zip(rho, counts) if 5 <= cnt < 200]
        ys = [math.log(pr) for (_, pr), cnt in zip(ref.tail, counts)
              if 5 <= cnt < 200]
        xa, ya = np.asarray(xs), np.asarray(ys)
        transfer = ensemble(p._replace(epsilon=2.0 * p.epsilon), IC, 5.0,
                            0.01, 200, Seed(8), rho_grid=rho,
                            replica_base=200)
        assert bits(out.rho_grid) == bits(rho)
        assert bits(out.tail) == bits([pr for _, pr in ref.tail])
        assert out.exceed_counts == counts
        assert out.n_fit_points == len(xs) >= 2
        assert bits([out.c_hat]) == bits([-(xa @ ya) / (xa @ xa)])
        assert bits(out.transfer_tail) == bits([pr for _, pr in transfer.tail])

    def test_reference_excursion_wins_over_earlier_transfer_excursion(self):
        # eps 0.5 on stream 0: reference replica 1 leaves the band at step
        # 746, after some transfer replica (eps 1.0, replicas 10..19) did
        p = P_NOISY._replace(epsilon=0.5)
        with pytest.raises(ExcursionError) as scalar:
            simulate_sde(p, IC, 10.0, 0.01, Seed(0), replica=1)
        transfer_nodes = []
        for j in range(10, 20):
            try:
                simulate_sde(p._replace(epsilon=1.0), IC, 10.0, 0.01, Seed(0),
                             replica=j)
            except ExcursionError as err:
                transfer_nodes.append(err.node)
        assert min(transfer_nodes) < scalar.value.node
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ExcursionError) as batched:
                concentration_check(p, IC, 10.0, 0.01, 10, self.GRID, Seed(0))
        assert batched.value.replica == 1
        assert str(batched.value) == str(scalar.value)

    def test_insufficient_exceedances_wins_over_transfer_excursion(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InsufficientExceedances):
                concentration_check(P_906, IC, 10.0, 0.01, 300, (5.0, 6.0),
                                    Seed(906))

    def test_transfer_excursion_raised_after_a_fit(self):
        with pytest.raises(ExcursionError) as scalar:
            simulate_sde(P_906._replace(epsilon=0.2), IC, 10.0, 0.01,
                         Seed(906), replica=598)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ExcursionError) as batched:
                concentration_check(P_906, IC, 10.0, 0.01, 300, None,
                                    Seed(906))
        assert batched.value.replica == 598 >= 300
        assert str(batched.value) == str(scalar.value)

    @pytest.mark.parametrize("n_rep", [1, 5])
    def test_n_rep_must_allow_a_usable_tail_point(self, n_rep):
        # a usable point needs 5 replicas above rho and one not above it
        with pytest.raises(ValidationError, match="n_rep"):
            concentration_check(P_NOISY, IC, 1.0, 0.01, n_rep, self.GRID,
                                Seed(3))
        zero = P_NOISY._replace(epsilon=0.0)
        assert concentration_check(zero, IC, 1.0, 0.01, n_rep, self.GRID,
                                   Seed(3)).degenerate

    def test_insufficient_exceedances(self):
        with pytest.raises(InsufficientExceedances):
            concentration_check(P_NOISY, IC, 5.0, 0.01, 50, (5.0, 6.0),
                                Seed(1))

    @pytest.mark.parametrize("grid", [(math.nan, 0.01), (0.01, math.inf),
                                      (0.0, 0.01), (), (-1.0, math.inf, math.nan)])
    def test_rho_grid_must_be_nonempty_positive_and_finite(self, grid):
        with pytest.raises(ValidationError, match="rho_grid"):
            ensemble(P_NOISY, IC, 1.0, 0.01, 4, Seed(3), rho_grid=grid)
        with pytest.raises(ValidationError, match="rho_grid"):
            concentration_check(P_NOISY, IC, 1.0, 0.01, 4, grid, Seed(3))


class TestLyapunovCondition:
    def test_holds_at_moderate_noise(self):
        assert lyapunov_condition(Params(0.1, 0.2, 0.3, 2.0, 0.0, 0.2))

    def test_fails_at_strong_noise(self):
        assert not lyapunov_condition(Params(0.1, 0.2, 0.3, 2.0, 0.0, 0.5))

    def test_zero_noise_reduces_to_mu_above_beta(self):
        assert lyapunov_condition(Params(0.1, 0.2, 0.3, 2.0, 0.0, 0.0))
        assert not lyapunov_condition(Params(0.4, 0.2, 0.3, 2.0, 0.0, 0.0))

    def test_equivalent_to_square_root_form(self):
        rng = np.random.default_rng(81)
        for _ in range(100):
            beta, mu = rng.uniform(0.02, 0.95, 2)
            p = Params(beta, mu, 0.3, rng.uniform(0.3, 4.0), 0.0,
                       rng.uniform(0.0, 0.8))
            sqrt_form = p.mu > 0.5 * (p.beta + math.sqrt(
                p.beta ** 2 + 2.0 * p.epsilon ** 2 / p.k_r))
            assert lyapunov_condition(p) == sqrt_form

    def test_rejects_delay(self):
        with pytest.raises(ValidationError, match="nondelayed"):
            lyapunov_condition(Params(0.1, 0.2, 0.3, 2.0, r=0.5))


class TestLyapunovCertificate:
    def test_example_certificate(self):
        p = Params(0.1, 0.2, 0.3, 2.0, 0.0, 0.2)
        cert = lyapunov_certificate(p)
        assert cert.holds
        assert cert.v2 == pytest.approx(0.6, rel=1e-15)
        assert cert.alpha0 == 1e-6
        assert cert.lambda3_sq == pytest.approx(p.gamma / p.mu, rel=1e-15)
        # the v2 quadratic evaluated at its minimizer
        quad = (cert.v2 ** 2 / p.k_r ** 2
                + 2.0 / p.k_r * (p.beta - 2.0 * p.mu) * cert.v2
                + p.beta ** 2 + 2.0 / p.k_r * p.epsilon ** 2)
        assert quad == pytest.approx(-0.04, rel=1e-12)
        assert max(cert.ineq1, cert.ineq2, cert.ineq3) <= 0.0
        assert cert.lv_bound < 0.0

    def test_near_critical_noise_still_certifies(self):
        b, m, k = 0.1, 0.2, 2.0
        eps = math.sqrt(2.0 * m * k * (m - b)) * (1.0 - 1e-4)
        cert = lyapunov_certificate(Params(b, m, 0.3, k, 0.0, eps))
        assert cert.holds
        assert -0.05 < cert.lv_bound < 0.0

    def test_soundness_on_random_draws(self):
        rng = np.random.default_rng(901)
        for _ in range(50):
            p = certificate_draw(rng)
            cert = lyapunov_certificate(p)
            assert cert.holds and cert.lv_bound < 0.0
            i1, i2, i3 = reevaluate_inequalities(p, cert)
            assert max(i1, i2, i3) <= 0.0
            assert i1 == pytest.approx(cert.ineq1, abs=1e-15)
            assert i2 == pytest.approx(cert.ineq2, abs=1e-15)
            assert i3 == pytest.approx(cert.ineq3, abs=1e-15)

    def test_condition_violations_never_certify(self):
        rng = np.random.default_rng(902)
        for j in range(50):
            p = violating_draw(rng, j)
            assert not lyapunov_condition(p)
            with pytest.raises(ValidationError, match="condition"):
                lyapunov_certificate(p)

    def test_rejects_delay(self):
        with pytest.raises(ValidationError, match="nondelayed"):
            lyapunov_certificate(Params(0.1, 0.2, 0.3, 2.0, r=0.5))


class TestStochasticStabilityExperiment:
    def test_zero_noise_matches_deterministic_decay(self):
        p = Params(0.1, 0.2, 0.3, 2.0, 0.0, 0.0)
        out = stochastic_stability_experiment(p, IC, 100.0, 0.005, 20,
                                              Seed(9))
        det = deterministic_euler(p, IC, 100.0, 0.005)
        eir = float(det.states[-1, 1:].sum())
        assert out.mean_eir == pytest.approx(eir, abs=1e-15)
        assert out.p95_eir == pytest.approx(eir, abs=1e-15)
        assert out.condition_satisfied

    def test_out_of_condition_still_reports(self):
        p = Params(0.4, 0.2, 0.1, 2.0, 0.0, 0.1)
        out = stochastic_stability_experiment(p, IC, 50.0, 0.01, 20, Seed(9))
        assert not out.condition_satisfied
        assert out.n_rep == 20
        assert out.mean_eir > 0.0

    def test_rejects_delay(self):
        p = Params(0.1, 0.2, 0.3, 2.0, r=0.5, epsilon=0.1)
        with pytest.raises(ValidationError, match="nondelayed"):
            stochastic_stability_experiment(p, IC, 10.0, 0.01, 5, Seed(9))

    def test_n_rep_must_be_an_integer(self):
        with pytest.raises(ValidationError, match="n_rep"):
            stochastic_stability_experiment(P_NOISY, IC, 1.0, 0.01, 2.5,
                                            Seed(9))

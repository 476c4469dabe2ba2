"""Top-level acceptance checks, one test per shipped guarantee.

Each test exercises one end-to-end property at its stated tolerance and
prints a single summary line; `pytest -v` therefore shows one pass/fail
line per guarantee.
"""
import math
from pathlib import Path

import numpy as np

from seirs_delay import (
    Params,
    Seed,
    char_poly_delay_coexistence,
    char_poly_delay_free,
    coexistence_equilibrium,
    concentration_check,
    default_step,
    deg2_crossing,
    deg3_abc,
    deg3_crossing,
    deterministic_euler,
    ensemble,
    equilibrium_residual,
    free_disease_eigenvalues_closed_form,
    free_disease_equilibrium,
    free_disease_margin,
    integrate_dde,
    integrate_ode,
    integrate_scalar_comparison,
    jacobian_coexistence,
    jacobian_free_disease,
    lyapunov_certificate,
    lyapunov_condition,
    make_initial_condition,
    make_state,
    matrix_eigenvalues,
    routh_hurwitz_coexistence,
    simulate_sde,
    stochastic_stability_experiment,
)
from seirs_delay.cli import EXIT_OK, main as cli_main

GOLDEN = Path(__file__).parent / "golden"
CLI_COMMANDS = ("equilibria", "simulate", "simulate-sde", "stability",
                "delay-margin", "concentration", "lyapunov")
# golden file stem -> command; simulate-ode is simulate on the r = 0 RK4 path
GOLDEN_RUNS = {cmd: cmd for cmd in CLI_COMMANDS} | {
    "simulate-ode": "simulate", "delay-margin-coexistence": "delay-margin"}

IC_MAIN = make_initial_condition(e0=0.05, s0=0.9, i0=0.05, r0=0.0)
P_NOISY = Params(0.1, 0.2, 0.3, 2.0, r=0.0, epsilon=0.1)


def endemic_draw(rng):
    """Valid parameters with beta > mu."""
    mu = rng.uniform(0.05, 0.45)
    beta = mu + rng.uniform(0.05, 0.5)
    gamma = rng.uniform(0.05, 0.9)
    k_r = rng.uniform(0.3, 4.0)
    return Params(beta, mu, gamma, k_r)


def subcritical_draw(rng):
    """Valid parameters with beta < mu."""
    mu = rng.uniform(0.1, 0.9)
    beta = mu * rng.uniform(0.05, 0.95)
    gamma = rng.uniform(0.05, 0.9)
    k_r = rng.uniform(0.3, 4.0)
    return Params(beta, mu, gamma, k_r)


def certified_draw(rng):
    """Parameters satisfying the noise-robust stability condition."""
    beta = rng.uniform(0.02, 0.4)
    mu = min(beta + rng.uniform(0.08, 0.5), 0.95)
    gamma = rng.uniform(0.05, 0.9)
    k_r = rng.uniform(0.3, 4.0)
    eps = math.sqrt(2.0 * mu * k_r * (mu - beta)) * rng.uniform(0.05, 0.9)
    return Params(beta, mu, gamma, k_r, 0.0, eps)


def uncertified_draw(rng, j):
    """Parameters violating the noise-robust stability condition."""
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


def test_criterion_01_equilibrium_residuals():
    rng = np.random.default_rng(3000)
    worst = 0.0
    for _ in range(100):
        p = endemic_draw(rng)
        assert equilibrium_residual(p, free_disease_equilibrium(p)) == 0.0
        res = equilibrium_residual(p, coexistence_equilibrium(p))
        worst = max(worst, res)
        assert res <= 1e-12
    print(f"criterion 1: PASS - 100 draws, coexistence residual <= {worst:.3g},"
          f" free residual exactly 0")


def test_criterion_02_nondelayed_convergence_and_verdict_agreement():
    x0 = make_state(s=0.85, e=0.05, i=0.05, rcv=0.05)
    x_free = np.array([1.0, 0.0, 0.0, 0.0])

    rng = np.random.default_rng(2001)
    worst_free = 0.0
    for _ in range(50):
        beta = rng.uniform(0.02, 0.5)
        mu = min(beta + rng.uniform(0.1, 0.45), 0.97)
        gamma = rng.uniform(0.05, 0.9)
        k_r = rng.uniform(0.5, 3.0)
        p = Params(beta=beta, mu=mu, gamma=gamma, k_r=k_r)
        tr = integrate_ode(p, x0, t_end=500.0, h=0.05)
        dev = float(np.max(np.abs(tr.states[-1] - x_free)))
        worst_free = max(worst_free, dev)
        assert dev <= 1e-6
        closed = free_disease_eigenvalues_closed_form(p)
        numeric = matrix_eigenvalues(jacobian_free_disease(p))
        assert (max(closed) < 0.0) == (max(v.real for v in numeric) < 0.0)
        assert max(closed) < 0.0

    rng = np.random.default_rng(2002)
    worst_coex = 0.0
    for _ in range(50):
        mu = rng.uniform(0.05, 0.45)
        beta = min(mu + rng.uniform(0.1, 0.5), 0.97)
        gamma = rng.uniform(0.05, 0.9)
        k_r = rng.uniform(0.5, 3.0)
        p = Params(beta=beta, mu=mu, gamma=gamma, k_r=k_r)
        x_star = coexistence_equilibrium(p).as_array()
        tr = integrate_ode(p, x0, t_end=5000.0, h=0.05)
        dev = float(np.max(np.abs(tr.states[-1] - x_star)))
        worst_coex = max(worst_coex, dev)
        assert dev <= 1e-4
        verdict = routh_hurwitz_coexistence(p)
        numeric = matrix_eigenvalues(jacobian_coexistence(p))
        assert verdict.stable == (max(v.real for v in numeric) < 0.0)
        assert verdict.stable
    print(f"criterion 2: PASS - free dev <= {worst_free:.3g} at T=500, "
          f"coexistence dev <= {worst_coex:.3g} at T=5000, verdicts agree on"
          f" all 100 draws")


def test_criterion_03_closed_form_eigenvalues_match_numeric():
    rng = np.random.default_rng(3003)
    worst = 0.0
    for _ in range(100):
        beta, mu, gamma = rng.uniform(0.05, 0.95, 3)
        p = Params(beta, mu, gamma, rng.uniform(0.3, 4.0))
        closed = sorted(free_disease_eigenvalues_closed_form(p))
        numeric = sorted(matrix_eigenvalues(jacobian_free_disease(p)),
                         key=lambda v: v.real)
        gap = max(abs(c - n) for c, n in zip(closed, numeric))
        worst = max(worst, gap)
        assert gap <= 1e-10
    print(f"criterion 3: PASS - 100 draws, closed-form vs numeric gap "
          f"<= {worst:.3g}")


def test_criterion_04_delay_boundary_positivity():
    rng = np.random.default_rng(77)
    worst_min = 1.0
    for _ in range(20):
        beta, mu, gamma = rng.uniform(0.05, 0.95, 3)
        r = rng.uniform(0.1, 1.0)
        p = Params(beta, mu, gamma, k_r=r * math.e, r=r)
        e0, i0 = rng.uniform(0.0, 0.3, 2)
        ic = make_initial_condition(e0=e0, s0=1.0 - e0 - i0, i0=i0, r0=0.0)
        tr = integrate_dde(p, ic, 100.0, default_step(r))
        worst_min = min(worst_min, tr.min_component())
        assert tr.min_component() >= -1e-9

    vals = integrate_scalar_comparison(k=1.0 / math.e, r=1.0, f0=1.0,
                                       t_end=100.0, h=0.001)
    assert float(vals.min()) >= -1e-9
    assert float(vals[-1]) <= 1e-3
    print(f"criterion 4: PASS - 20 draws at k_r = r*e keep components >= "
          f"{worst_min:.3g}; scalar threshold run ends at {float(vals[-1]):.3g}")


def test_criterion_05_degree2_crossing_pipeline():
    rng = np.random.default_rng(3001)
    for _ in range(100):
        mu = rng.uniform(0.1, 0.9)
        beta = mu * rng.uniform(0.05, 0.95)
        gamma = rng.uniform(0.05, 0.9)
        r = rng.uniform(0.05, 1.2)
        k_r = r * math.e * rng.uniform(1.0, 2.0)
        p = Params(beta, mu, gamma, k_r, r=r)
        q = char_poly_delay_free(p)
        cr = deg2_crossing(q)
        (a0, a1), (b0, b1), w = q.a, q.b, cr.omega
        quartic = (w ** 4 + (a1 * a1 - 2.0 * a0 - b1 * b1) * w * w
                   + (a0 * a0 - b0 * b0))
        assert abs(quartic) <= 1e-12
        cs = np.linalg.solve(np.array([[b0, b1 * w], [b1 * w, -b0]]),
                             np.array([w * w - a0, -a1 * w]))
        assert abs(float(cs @ cs) - 1.0) <= 1e-12
        assert abs(q.value(1j * w, r=cr.r_star)) <= 1e-9
        assert cr.theta >= 0.5 * math.pi
        m_bound = free_disease_margin(p)
        assert p.r < 0.5 * math.pi * p.k_r <= m_bound <= cr.r_star

    # the smallest positive beta: beta = 0 is not admissible, and
    # mu - beta rounds to mu, so M equals its beta = 0 value bit for bit
    beta = math.nextafter(0.0, 1.0)
    worst_gap = 0.0
    for k_r in np.linspace(0.2, 6.0, 20):
        gap = abs(free_disease_margin(Params(beta, 0.2, 0.3, float(k_r)))
                  - 0.5 * math.pi * k_r)
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-12
    print(f"criterion 5: PASS - 100 draws pass the crossing pipeline and "
          f"margin chain; zero-infectivity identity gap <= {worst_gap:.3g}")


def test_criterion_06_degree3_pipeline():
    rng = np.random.default_rng(3002)
    n_conclusive = n_sim = 0
    for _ in range(50):
        mu = rng.uniform(0.05, 0.45)
        beta = mu + rng.uniform(0.05, 0.5)
        gamma = rng.uniform(0.05, 0.9)
        k_r = (1.0 / mu + 1.0 / gamma) * rng.uniform(0.15, 0.95)
        p = Params(beta, mu, gamma, k_r)
        q = char_poly_delay_coexistence(p)
        c2 = q.a[2] + q.b[2]
        c1 = q.a[1] + q.b[1]
        c0 = q.a[0] + q.b[0]
        assert c2 > 0.0 and c1 > 0.0 and c0 > 0.0 and c2 * c1 > c0
        abc = deg3_abc(q)
        assert abc.C < 0.0
        if abc.delta >= 0.0:
            assert deg3_crossing(q) is None
            continue
        n_conclusive += 1
        cr = deg3_crossing(q)
        assert cr is not None
        z = cr.omega ** 2
        cubic = z ** 3 + abc.A * z ** 2 + abc.B * z + abc.C
        assert abs(cubic) <= 1e-12
        assert abs(q.value(1j * cr.omega, r=cr.r_star)) <= 1e-9

        # delays around the critical value are exercised only when they are
        # admissible (k_r >= r*e); in this parameter family r* always sits
        # far above k_r/e, so the branch stays empirically empty
        x_star = coexistence_equilibrium(p).as_array()
        for r_test, converges in ((0.9 * cr.r_star, True),
                                  (1.1 * cr.r_star, False)):
            if r_test * math.e > p.k_r:
                continue
            n_sim += 1
            pr = p._replace(r=r_test)
            shift = min(0.01, float(x_star[3]) / 2.0)
            ic = make_initial_condition(
                e0=float(x_star[1]), s0=float(x_star[0]) + shift,
                i0=float(x_star[2]), r0=float(x_star[3]) - shift)
            tr = integrate_dde(pr, ic, 200.0, default_step(r_test))
            dev0 = float(np.max(np.abs(tr.states[0] - x_star)))
            dev1 = float(np.max(np.abs(tr.states[-1] - x_star)))
            if converges:
                assert dev1 <= 0.5 * dev0
            else:
                assert dev1 >= dev0
    assert n_conclusive >= 25
    print(f"criterion 6: PASS - 50 draws satisfy the zero-delay sign "
          f"conditions; {n_conclusive} conclusive crossings checked; "
          f"{n_sim} admissible near-critical simulations")


def test_criterion_07_stochastic_conservation_and_reduction():
    worst = 0.0
    for rep in range(100):
        tr = simulate_sde(P_NOISY, IC_MAIN, 50.0, 0.005, Seed(123),
                          replica=rep)
        worst = max(worst, tr.max_sum_defect())
    assert worst <= 5e-14

    quiet = P_NOISY._replace(epsilon=0.0)
    sde = simulate_sde(quiet, IC_MAIN, 20.0, 0.01, Seed(5))
    det = deterministic_euler(quiet, IC_MAIN, 20.0, 0.01)
    assert np.array_equal(sde.states, det.states)
    delayed = Params(0.1, 0.2, 0.3, 2.0, r=0.5, epsilon=0.0)
    sde_d = simulate_sde(delayed, IC_MAIN, 20.0, 0.01, Seed(5))
    det_d = deterministic_euler(delayed, IC_MAIN, 20.0, 0.01)
    assert np.array_equal(sde_d.states, det_d.states)
    print(f"criterion 7: PASS - sum defect <= {worst:.3g} over 100 noisy "
          f"paths; zero-noise paths bitwise equal to deterministic Euler")


def test_criterion_08_concentration_scaling():
    hi = ensemble(P_NOISY, IC_MAIN, 20.0, 0.01, 2000, Seed(77))
    lo = ensemble(P_NOISY._replace(epsilon=0.05), IC_MAIN, 20.0, 0.01, 2000,
                  Seed(77))
    ratio = float(np.median(hi.sup_deviations) / np.median(lo.sup_deviations))
    assert 2.0 * 0.7 <= ratio <= 2.0 * 1.3

    grid = (0.0148, 0.0182, 0.022, 0.0249, 0.0297, 0.0344)
    out = concentration_check(P_NOISY, IC_MAIN, 20.0, 0.01, 2000, grid,
                              Seed(77))
    assert out.c_hat is not None and out.c_hat > 0.0
    log_tail = np.log(np.asarray(out.tail))
    assert np.all(np.diff(log_tail) < 0.0)
    assert out.transfer_ok
    print(f"criterion 8: PASS - halving eps scales the median sup-deviation "
          f"by {ratio:.4g}; c_hat = {out.c_hat:.4g} > 0; log-tail strictly "
          f"decreasing")


def test_criterion_09_lyapunov_certificate():
    rng = np.random.default_rng(901)
    for _ in range(50):
        p = certified_draw(rng)
        cert = lyapunov_certificate(p)
        assert cert.holds and cert.lv_bound < 0.0
    rng = np.random.default_rng(902)
    for j in range(50):
        assert not lyapunov_condition(uncertified_draw(rng, j))

    p = Params(0.1, 0.2, 0.3, 2.0, r=0.0, epsilon=0.2)
    out = stochastic_stability_experiment(p, IC_MAIN, 300.0, 0.005, 200,
                                          Seed(9))
    assert out.condition_satisfied
    assert out.mean_eir <= 1e-3
    print(f"criterion 9: PASS - 50/50 certificates hold, 50/50 violations "
          f"refused; mean E+I+R at T=300 is {out.mean_eir:.3g}")


def test_criterion_10_cli_determinism(tmp_path):
    for name, cmd in GOLDEN_RUNS.items():
        cfg = GOLDEN / f"{name}.cfg"
        outs = []
        for run_idx in (0, 1):
            dest = tmp_path / f"{name}.{run_idx}.txt"
            rc = cli_main([cmd, "--config", str(cfg), "--out", str(dest)])
            assert rc == EXIT_OK
            outs.append(dest.read_bytes())
        assert outs[0] == outs[1]
        assert outs[0] == (GOLDEN / f"{name}.report.txt").read_bytes()
    print(f"criterion 10: PASS - all {len(GOLDEN_RUNS)} golden runs of the 7 "
          "commands byte-identical across runs and equal to their golden "
          "reports")

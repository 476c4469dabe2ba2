"""Full-array pins of every time-stepping kernel.

Each case hashes the bytes of a whole node array, not a printed summary, so
a change to the order or grouping of any float operation in `_kernels`
shows up here even where the goldens' rounded reports would not move. The
kernel digests were captured before the kernels were rewritten as plain
CPython loops, and the replica-engine digests (the sups and finals of
`sde_simulator._run_replicas`) before its step loop was fused. The
seeded-draw digests (DRAW_DIGESTS: `ode_rk4` and `dde_rk4_abm4` at 20
random parameter points) were captured at the parent of the rewrite that
gave the RK4 loop shared products and float locals. The delayed digests
were captured again when `dde_rk4_abm4` became RK4 with Hermite half-step
delays throughout, in place of an Adams-Bashforth-Moulton corrector past
t = r: each re-captured array is closer to the converged integral cascade
than the one it replaced. The
`scalar_dde` case pins the scalar comparison reference of
tests/_oracles.py; its digest is the one the `_kernels.scalar_dde` loop
had, so the reference keeps that loop's arithmetic. Print the current ones
with

    PYTHONPATH=src python tests/test_kernels.py

The exit tests at the end drive every early return of the kernels through
their own sum_tol, neg_tol, lo and hi arguments, with thresholds read off
an untripped run so that each exit lands at a chosen node and phase.
"""
import hashlib
import math

import numpy as np
import pytest

from seirs_delay import (ExcursionError, IntegrationError, Params, Seed,
                         _kernels, _stream, det_integrator, integrate_dde,
                         integrate_ode, make_initial_condition, sde_simulator,
                         simulate_sde)
from seirs_delay.model_core import (NEGATIVITY_TOL, PROPAGATION_SUM_TOL,
                                    step_grid)

from _oracles import integrate_scalar_comparison, path_reductions

IC = make_initial_condition(e0=0.05, s0=0.9, i0=0.05, r0=0.0)


def _ode():
    return integrate_ode(Params(0.4, 0.2, 0.1, 2.0), IC.state0(), 30.0,
                         0.01).states


def _dde(r, t_end):
    return lambda: integrate_dde(Params(0.4, 0.2, 0.1, 2.0, r=r), IC, t_end,
                                 0.01).states


def _sde(r):
    return lambda: simulate_sde(Params(0.4, 0.2, 0.1, 2.0, r=r, epsilon=0.1),
                                IC, 30.0, 0.01, Seed(42), replica=1).states


def _scalar():
    return integrate_scalar_comparison(k=0.3, r=0.5, f0=1.0, t_end=30.0, h=0.01)


def _replicas(p, t_end, n_rep, seed, with_ref=True):
    """Sups then finals of one replica pass, as concentration_check runs it
    (n_rep columns at p.epsilon, then n_rep at twice it) or, without a
    reference, as stochastic_stability_experiment does (n_rep columns)."""
    h = 0.01

    def run():
        n, m, _ = step_grid(p.r, t_end, h)
        if with_ref:
            eps = np.repeat([p.epsilon, 2.0 * p.epsilon], n_rep)
        else:
            eps = np.full(n_rep, p.epsilon)
        sups, finals, first = sde_simulator._run_replicas(
            p, IC, h, n, m, Seed(seed), 0, eps, with_ref)
        assert first is None
        return np.concatenate((sups, finals.ravel()))
    return run


P_CONC = Params(0.1, 0.2, 0.3, 2.0, epsilon=0.1)


CASES = {
    "ode_rk4": _ode,
    "dde_rk4_abm4-m3": _dde(0.03, 30.0),
    "dde_rk4_abm4-m50": _dde(0.5, 30.0),
    "dde_rk4_abm4-horizon20.005": _dde(0.5, 20.005),
    "euler_maruyama-r0": _sde(0.0),
    "euler_maruyama-r0.5": _sde(0.5),
    "scalar_dde": _scalar,
    # the concentration golden's pass: 2 x 800 columns over 2000 steps
    "replicas-concentration-golden": _replicas(P_CONC, 20.0, 800, 77),
    "replicas-delayed-r0.5": _replicas(P_CONC._replace(r=0.5, epsilon=0.05),
                                       10.0, 300, 906),
    "replicas-stability-experiment": _replicas(P_CONC, 20.0, 200, 5,
                                               with_ref=False),
}

DIGESTS = {
    "dde_rk4_abm4-horizon20.005": "5be211650659f86b4c6b6bcff2c3111ef2eddc72b34c59100fc2836c6a9fc4b7",
    "dde_rk4_abm4-m3": "30a3a29a4079c0ac33af9de4af59828c3ab7dc6ebc37f28468ab735fc0af16f6",
    "dde_rk4_abm4-m50": "f2a56e745e09c389f1a015a904888b532ea5e4b367bd57b3ceb8a29b462e7593",
    "euler_maruyama-r0": "63291c0880d1b0354ce9a152fad2f843e77bfc9fb45d9f3a0d73c5020027715b",
    "euler_maruyama-r0.5": "c56ae70aee55abff8f6f19d0b6c60bd586ea567c8d5e6242a1d0a5912b2d7f0c",
    "ode_rk4": "d38a65004546520bfd4897797ea8c01c27f6918b32d38bcdb5b0902ef8efd47e",
    "replicas-concentration-golden": "7a9a14a40a6b2cb038007e7bd5771a5457f0535c224ef568d8d803cb19e9ddb7",
    "replicas-delayed-r0.5": "8ded68d950cc00b46fd9129cfee37ef6082f4444d388ad3d3ff3d6f89a81e768",
    "replicas-stability-experiment": "b005d1a9008fe17631309553474397b0e5edb25db96a24b971df5d877ebecd3c",
    "scalar_dde": "733382df35f7f27450cf39b7bbdbeb3e38045fd6e2d6d63ac6d5082b2d339c0a",
}


def digest(name):
    return hashlib.sha256(CASES[name]().tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_node_array_bytes_are_pinned(name):
    assert digest(name) == DIGESTS[name]


DRAW_STEPS = 2000


def _draw(seed):
    """beta, mu, gamma ~ U(0.02, 0.98), log-uniform k_r on [0.5, 25],
    h in {0.01, 0.05}, m in {3, 50} and a random start on the simplex."""
    rng = np.random.default_rng(seed)
    beta, mu, gamma = (float(v) for v in rng.uniform(0.02, 0.98, 3))
    kr = float(np.exp(rng.uniform(np.log(0.5), np.log(25.0))))
    h = float(rng.choice([0.01, 0.05]))
    m = int(rng.choice([3, 50]))
    e0, i0 = (float(v) for v in rng.uniform(0.01, 0.1, 2))
    r0 = float(rng.uniform(0.0, 0.1))
    return (1.0 - (e0 + i0 + r0), e0, i0, r0), h, m, (beta, mu, gamma, kr)


def _kernel(kernel, x0, n, m, rates, h, tols, defect=0.0, low=math.inf):
    """An n-step call of the deterministic kernel from the start node x0,
    stepped into a buffer of n + 1 rows, with dde_rk4_abm4 reading the
    constant history from the ring that _kernels.history builds: the rows,
    then the kernel's status, exit node, max_sum_defect and
    min_component."""
    x = np.zeros((1 + n, 4))
    x[0] = x0
    view = memoryview(x.reshape(-1))
    if kernel == "ode_rk4":
        out = _kernels.ode_rk4(view, *rates, n, h, *tols, defect, low)
    else:
        ring = _kernels.history(x0, m, rates[0], rates[3])
        out = _kernels.dde_rk4_abm4(view, ring, *rates, n, h, *tols, defect,
                                    low)
    return (x, *out)


def _run_draw(kernel, seed):
    x0, h, m, rates = _draw(seed)
    return _kernel(kernel, x0, DRAW_STEPS, m, rates, h,
                   (PROPAGATION_SUM_TOL, NEGATIVITY_TOL))


def draw_digest(kernel, seed):
    """Status, exit node and every stored row (all of them, or the rows
    before the exit: a few draws leave the simplex)."""
    out, status, node, _, _ = _run_draw(kernel, seed)
    stored = len(out) if status == _kernels.OK else node
    return hashlib.sha256(f"{status},{node};".encode()
                          + out[:stored].tobytes()).hexdigest()


DRAWS = [(kernel, seed) for kernel in ("ode_rk4", "dde_rk4_abm4")
         for seed in range(20)]

DRAW_DIGESTS = {
    "ode_rk4-0": "84dd6e83b18e9ed457604291ffedfbc87576f149cc5bdea9fbe08da9a51f795b",
    "ode_rk4-1": "e44f1c0e6e9c4aae3048bcef85f3f6f23e95fe54392e1708ec7706f46aa96b7d",
    "ode_rk4-2": "bf5a7a3f04d697ec41202be40d390e3b885d352032931784fd24b249885d4cd7",
    "ode_rk4-3": "9f8714dd9ebbeb35ceeb7afb7ade807a1b601be0138ee51f2c75497a53a50b97",
    "ode_rk4-4": "a3c9791cf0a8808c38e115ac8afd68887a225c1ae1cec35e51f692b4d568933d",
    "ode_rk4-5": "739bd7fb96c85929f744299dc046dfe437d330d0ff1f52c092b08c27bbf0c60c",
    "ode_rk4-6": "6606b1b7d0bfdca6b987d24cadcdc2510bb4086a97044085adb939fee2c1588d",
    "ode_rk4-7": "cbce56ff88e4b4be75dc54ed0617391e7e8ae7fda1448c8c4ad8958a08be1e32",
    "ode_rk4-8": "0ddf8833989112e2f2a8b19944f0915ccc67400dd88779998cb386fbfc2256af",
    "ode_rk4-9": "3bf0818ecde410289a31a34d2c059070a264ede976156ccc92c5d653135bbf90",
    "ode_rk4-10": "3e5806644bafebcb1b8d9921c96d41a7ddedfedc44d7399ab666cc8a4cef5184",
    "ode_rk4-11": "1746f24cbbdf25b4b22ae13529e9f369136d170e51c1870dca9e4f5eaa64e6ef",
    "ode_rk4-12": "61edfd5f0e6ac2e3a5824225bb9ee89c69bbd1ccf49b0332a5eb2f866ee10b33",
    "ode_rk4-13": "b7ac7464b57f5484344617b47b663c93f03e537177f88fa79f9b376aa0421e9e",
    "ode_rk4-14": "7fe994105705ed4fc75ffafe37e518b3f280274fd8169badde27bfcd0268d85e",
    "ode_rk4-15": "2a105a5f078c5b6241a4d929c8e903f17a40bd5a588f7a6b8a5d9cf90e268cd4",
    "ode_rk4-16": "09e561d35eecdf6096fda20bec0238e0e0d8a7f9f2a49e50429c1208be3508ba",
    "ode_rk4-17": "cc5d2a676b249f9f6c88cddf56f020f8751b5e98976e8aacbfaa8f04d98dd35b",
    "ode_rk4-18": "bdb9ebc87860a3faac8139861dd794efae3b0b357d1e863290710efcc55b1668",
    "ode_rk4-19": "e229ed566c9d5500172be9848942211c03c5422f6ad5529e362c77358af5b9fb",
    "dde_rk4_abm4-0": "32d4c4ace6bdf2eeb5d7c601a6719495e44f6c7bee7de1de40f41f4532cace2f",
    "dde_rk4_abm4-1": "fef7ff968822db97fd9920f12c6af1ad581cc4de4e2cb66f6f1684fde7dd29f9",
    "dde_rk4_abm4-2": "ae9c1450e98ac5a3459098bc424779f156fc8f93e2103d5f6df33ef402648af2",
    "dde_rk4_abm4-3": "82eaf99672f966cb31fd8f328eb17099b72601f626926016cd055828df1d3b54",
    "dde_rk4_abm4-4": "9bd50f1bbfcb6265bffbf1f223c6d3bae64909e78f9039142187a6e912ae1aa6",
    "dde_rk4_abm4-5": "bbd4b8dad3246921cd4d657d7b0274b512f92ee9be3ef1f014d96a74ddd4bfff",
    "dde_rk4_abm4-6": "33fe4f75551c3218254efcfd1fb06d40418ae33678ecb94034615d4e20f45baf",
    "dde_rk4_abm4-7": "a1dd57120661dc43fbcc95f44525318dea8f28c767cdb6b159be60d84b29ef96",
    "dde_rk4_abm4-8": "85d38898a4ed579547ab2b6a6700523f74d1ae967fb5e2c2207a613edb100def",
    "dde_rk4_abm4-9": "fdeafe2204776f2e9d027901ba86b0240fb68b7b7cfd241d52e0b7b5609b34b7",
    "dde_rk4_abm4-10": "d633c67cee679097c6682980fb5b853f0f6b1d0d65a68b1a1ff4963882eb2347",
    "dde_rk4_abm4-11": "c4beb4448615dcc97f892c2e14d11a17c7d1b2cac8c046f0ebcd881bc5f722b3",
    "dde_rk4_abm4-12": "8714a0aa1a9827e6eb6019a8a6752e1a5b9eacb1aa6a1d3c60b1dd0a9927c87e",
    "dde_rk4_abm4-13": "41eb5c5ceee92601db20f2aba5ecdb21d47cf2bb2adec4b284744491365fcbc7",
    "dde_rk4_abm4-14": "3277f5b4ab9b682d77f34fd03dd166ff276bfbd584445b78f0d9cd1611a24660",
    "dde_rk4_abm4-15": "88e01b6e5104449fea3e80e5b815183ec44777bde9c7a57051ce780025e20ff2",
    "dde_rk4_abm4-16": "040391263d8108399c2471196088525a3585b44b50128fc820743e9cb25595d8",
    "dde_rk4_abm4-17": "86e60b3050f5030fbc0676cf3544ad9a7fe9998712f6991a098463ad9f7ba478",
    "dde_rk4_abm4-18": "af6ce8302f736fb2b4b1fb0da6b23dbb18507955e2b23d5d9f7e5acddf6c2890",
    "dde_rk4_abm4-19": "ec5e762fd0781687288500f5408974b870783cef791a2960951e92a9da39f953",
}


@pytest.mark.parametrize("kernel,seed", DRAWS)
def test_seeded_draw_node_arrays_are_pinned(kernel, seed):
    assert draw_digest(kernel, seed) == DRAW_DIGESTS[f"{kernel}-{seed}"]


# --- early exits ----------------------------------------------------------

IC_SUM = (0.9, 0.05, 0.05, 0.0)
# E falls and is the smallest component from the start, so every node sets
# a new low of the per-node minimum
IC_NEG = (0.6, 0.05, 0.05, 0.3)
RATES = (0.4, 0.2, 0.1, 2.0)
H, N, M = 0.01, 1000, 50


def _det(kernel, x0, sum_tol, neg_tol):
    """The kernel's node rows, status and exit node."""
    out, status, node, _, _ = _kernel(kernel, x0, N, M, RATES, H,
                                      (sum_tol, neg_tol))
    return out, status, node


def _defects(x):
    # the kernels' own expression, elementwise
    return np.abs(((x[:, 0] + x[:, 1]) + x[:, 2]) + x[:, 3] - 1.0)


# (kernel, exit node): dde nodes 1..M read the constant history, later
# ones stored nodes and their Hermite interpolants
@pytest.mark.parametrize("kernel,node", [("ode_rk4", 864),
                                         ("dde_rk4_abm4", 42),
                                         ("dde_rk4_abm4", 121)])
def test_sum_breach_exit(kernel, node):
    free, status, _ = _det(kernel, IC_SUM, 1.0, -1.0)
    assert status == _kernels.OK
    d = _defects(free)
    # node 0 is never checked; the tolerance is the worst defect before node
    tol = float(d[1:node].max())
    assert d[node] > tol
    out, status, bad = _det(kernel, IC_SUM, tol, -1.0)
    assert (status, bad) == (_kernels.SUM_BREACH, node)
    assert np.array_equal(out[:node], free[:node])


@pytest.mark.parametrize("kernel,node", [("ode_rk4", 200),
                                         ("dde_rk4_abm4", 30),
                                         ("dde_rk4_abm4", 120)])
def test_negative_exit(kernel, node):
    free, status, _ = _det(kernel, IC_NEG, 1.0, -1.0)
    assert status == _kernels.OK
    lows = free.min(axis=1)
    tol = float(lows[1:node].min())
    assert lows[node] < tol
    out, status, bad = _det(kernel, IC_NEG, 1.0, tol)
    assert (status, bad) == (_kernels.NEGATIVE, node)
    assert np.array_equal(out[:node], free[:node])


# (kernel, gamma, k_r, node): with tolerances that no finite node trips,
# each path runs to its first NaN node. k_r = 1e-300 makes E / k_r
# overflow on the first step; gamma = 400 at h = 0.01 is outside RK4's
# stability region, and the delayed path, whose R is fed through the
# delay, grows past the float range after t = r
NAN_EXITS = [("ode_rk4", 0.1, 1e-300, 1), ("dde_rk4_abm4", 0.1, 1e-300, 1),
             ("ode_rk4", 400.0, 2.0, 20), ("dde_rk4_abm4", 400.0, 2.0, 84)]


@pytest.mark.parametrize("kernel,gamma,kr,node", NAN_EXITS)
def test_a_nan_node_is_a_sum_breach(kernel, gamma, kr, node):
    out, status, bad, _, _ = _kernel(kernel, IC_SUM, 1000, 50,
                                     (0.4, 0.2, gamma, kr), 0.01,
                                     (np.inf, -np.inf))
    assert (status, bad) == (_kernels.SUM_BREACH, node)
    assert not np.isnan(out[:node]).any()


def _bits(v):
    return np.float64(v).tobytes()


@pytest.mark.parametrize("kernel", ["ode_rk4", "dde_rk4_abm4"])
@pytest.mark.parametrize("seed", range(0, 20, 4))
def test_returned_extremes_are_numpys_reductions(kernel, seed):
    # max |row sum - 1| and the smallest value of the stored nodes, as
    # numpy reduces them: the same bits
    x, status, _, defect, low = _run_draw(kernel, seed)
    assert status == _kernels.OK
    assert _bits(defect) == np.abs(x.sum(axis=1) - 1.0).max().tobytes()
    assert _bits(low) == x.min().tobytes()


@pytest.mark.parametrize("kernel", ["ode_rk4", "dde_rk4_abm4"])
@pytest.mark.parametrize("n", [0, 1, N])
@pytest.mark.parametrize("excess", [1e-12, -1e-12])
def test_node_0_joins_the_extremes(kernel, n, excess):
    # a start off the simplex: its defect is the path's largest or close
    x0 = (IC_SUM[0] + excess, *IC_SUM[1:])
    x, status, _, defect, low = _kernel(kernel, x0, n, M, RATES, H,
                                        (1e-10, -1e-9))
    assert status == _kernels.OK
    assert len(x) == n + 1
    assert _bits(defect) == np.abs(x.sum(axis=1) - 1.0).max().tobytes()
    assert _bits(low) == x.min().tobytes()


def _start(kernel, x0):
    """The kernel's path from x0 under the run tolerances."""
    return _kernel(kernel, x0, N, M, RATES, H, (1e-10, -1e-9))


@pytest.mark.parametrize("kernel", ["ode_rk4", "dde_rk4_abm4"])
def test_a_negative_start_is_the_minimum_over_zeros(kernel):
    # E and I stay +0.0 after node 0, whose S is below zero: node 0's value
    # is the minimum, and no zero's sign is in question
    x, status, _, defect, low = _start(kernel, (-1e-12, 0.0, 0.0,
                                                1.0 + 1e-12))
    assert status == _kernels.OK
    assert (x[1:, 1:3] == 0.0).all() and (x[1:] >= 0.0).all()
    assert _bits(low) == x.min().tobytes() == _bits(-1e-12)
    assert _bits(defect) == np.abs(x.sum(axis=1) - 1.0).max().tobytes()


@pytest.mark.parametrize("kernel", ["ode_rk4", "dde_rk4_abm4"])
@pytest.mark.parametrize("x0", [(0.95, 0.0, 0.05, -0.0),
                                (0.95, -0.0, 0.05, 0.0),
                                (1.0, 0.0, -0.0, 0.0),
                                (1.0, -0.0, 0.0, 0.0),
                                (0.95, 0.0, 0.0, 0.05)])
def test_a_zero_minimum_takes_the_ieee_minimum_sign(kernel, x0):
    # numpy's min picks a signed zero by its SIMD order when the path holds
    # both, so the kernels take IEEE 754-2019 minimum's instead: -0.0 when
    # any stored zero is -0.0 (node 0's, in the first four starts), else
    # +0.0 (the last start keeps E and I at +0.0); the defect is numpy's
    x, status, _, defect, low = _start(kernel, x0)
    assert status == _kernels.OK
    assert x.min() == 0.0
    assert [_bits(defect), _bits(low)] == list(map(_bits, path_reductions(x)))
    assert _bits(low) == _bits(-0.0 if np.signbit(x0).any() else 0.0)


# (start, rates, component, node): at the node the target component reaches
# a new high over the whole path so far (S, R) or a new low (I), beyond every
# other component, so a band edge just inside it trips that component there
EM_EXITS = [((0.5, 0.05, 0.05, 0.4), (0.4, 0.2, 0.5, 2.0), 0, 504),
            ((0.4, 0.1, 0.3, 0.2), (0.1, 0.5, 0.1, 20.0), 2, 600),
            ((0.1, 0.1, 0.3, 0.5), (0.4, 0.5, 0.01, 2.0), 3, 300)]


@pytest.mark.parametrize("x0,rates,comp,node", EM_EXITS)
def test_euler_maruyama_excursion_exit(x0, rates, comp, node):
    h, n, m = 0.01, 1000, 50
    dw = np.random.default_rng(comp).standard_normal(n) * np.sqrt(h)
    chunk = sde_simulator._NOISE_CHUNK

    def run(lo, hi):
        chunks = (dw[k:k + chunk].tolist() for k in range(0, n, chunk))
        # node 0 in row 0; the ring holds the constant history's E
        x = np.empty((1 + n, 4))
        x[0] = x0
        status, bad, c, _, _ = _kernels.euler_maruyama(
            memoryview(x.reshape(-1)), _kernels.history(x0, m), *rates, n, h,
            0.1, chunks, lo, hi)
        return x, status, bad, c
    free, status, _, _ = run(-1.0, 2.0)
    assert status == _kernels.OK
    others = [c for c in range(4) if c != comp]
    if comp == 2:
        lo = float(min(free[1:node].min(), free[node, others].min()))
        hi = 2.0
        assert free[node, comp] < lo
    else:
        lo = -1.0
        hi = float(max(free[1:node].max(), free[node, others].max()))
        assert free[node, comp] > hi
    out, status, bad, c = run(lo, hi)
    # the offending row is stored before the band check
    assert (status, bad, c) == (_kernels.EXCURSION, node, comp)
    assert np.array_equal(out[:node + 1], free[:node + 1])


# --- windows ----------------------------------------------------------------

WINDOW_STEPS = 1100
WINDOW_M = 50
# the rates of each delay: at r = 6 (m = 600 steps) t = r falls inside a
# 512-step window; at r = 0.03 (m = 3) a window of one or three steps reads
# the slopes of nodes up to 2m rows back, in the windows before it
K_R = {0.0: 2.0, 0.03: 2.0, 0.5: 2.0, 6.0: 20.0}


def _stepped(kernel, p, seed, window=None, n=WINDOW_STEPS):
    """A path of n steps of kernel as det_integrator._run_windows steps it:
    as one window (window None), or streamed with det_integrator._WINDOW
    set to window, with the nodes of every consume call and the calls' row
    counts; and the bytes of the last node, max_sum_defect and
    min_component it reports. The stochastic path is replica 0 of seed."""
    h = 0.01
    if kernel == "euler_maruyama":
        m = round(p.r / h)

        def run(consume=None):
            return _stream._run_path(p, IC, h, n, m, seed, 0, consume)
    elif kernel == "ode_rk4":
        def run(consume=None):
            return integrate_ode(p, IC.state0(), n * h, h, consume=consume)
    else:
        def run(consume=None):
            return integrate_dde(p, IC, n * h, h, consume=consume)
    if window is None:
        traj = run()
        return traj.states, None, list(map(_bits, [
            *traj.last, traj.max_sum_defect(), traj.min_component()]))
    blocks = []

    def consume(first, nodes):
        assert first == sum(map(len, blocks))
        blocks.append(np.array(nodes).reshape(-1, 4))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(det_integrator, "_WINDOW", window)
        last, *reductions = run(consume)
    return (np.concatenate(blocks), [len(b) for b in blocks],
            list(map(_bits, [*last, *reductions])))


@pytest.mark.parametrize("r", [0.0, 0.03, 0.5, 6.0])
@pytest.mark.parametrize("window", [1, 3, WINDOW_M, WINDOW_M + 1, 128, 512,
                                    WINDOW_STEPS, 2 * WINDOW_STEPS])
def test_windows_step_the_nodes_of_one_window(r, window):
    # and report the last node and the reductions of one window, which are
    # numpy's, a zero minimum by IEEE 754-2019 minimum; so for the
    # stochastic kernel and for the deterministic one of the delay
    p = Params(0.4, 0.2, 0.1, K_R[r], r=r, epsilon=0.1)
    for kernel in ("euler_maruyama", "dde_rk4_abm4" if r else "ode_rk4"):
        whole, _, summary = _stepped(kernel, p, 8)
        streamed, sizes, streamed_summary = _stepped(kernel, p, 8, window)
        assert len(whole) == WINDOW_STEPS + 1
        assert streamed.tobytes() == whole.tobytes(), kernel
        assert streamed_summary == summary == list(map(_bits, [
            *whole[-1], *path_reductions(whole)])), kernel
        # every call but the last holds one window's nodes; the last node
        # comes alone
        w = min(window, WINDOW_STEPS)
        assert sizes == [w] * (WINDOW_STEPS // w) + (
            [WINDOW_STEPS % w] if WINDOW_STEPS % w else []) + [1]


@pytest.mark.parametrize("start, held, low", [
    ((1.0, 0.0, 0.0, 0.0), math.inf, "0.0"),
    ((1.0, 0.0, 0.0, 0.0), 0.0, "0.0"),
    ((1.0, -0.0, 0.0, 0.0), 0.0, "-0.0"),
    ((1.0, 0.0, 0.0, 0.0), -0.0, "-0.0"),
    ((1.0, 0.0, 0.0, 0.0), 0.25, "0.0")])
def test_a_window_settles_a_zero_minimum_with_the_path_before_it(start, held,
                                                                 low):
    # a disease-free window keeps E, I and R at +0.0 after its start, so
    # its zero minimum is -0.0 only when its start or an earlier window
    # (held) holds a -0.0; so in every kernel
    n = 600
    x = np.empty((n + 1, 4))
    x[0] = start
    out = _kernels.euler_maruyama(memoryview(x.reshape(-1)),
                                  _kernels.history(start, 0), 0.4, 0.2, 0.1,
                                  2.0, n, 0.01, 0.1, [[1.0] * n], -0.05, 1.05,
                                  0.0, held)
    assert out[:4] == (_kernels.OK, -1, -1, 0.0)
    assert repr(out[4]) == low and not np.signbit(x[1:]).any()
    for kernel in ("ode_rk4", "dde_rk4_abm4"):
        x, *out = _kernel(kernel, start, n, M, RATES, H, (1e-10, -1e-9), 0.0,
                          held)
        assert out[:3] == [_kernels.OK, -1, 0.0], kernel
        assert repr(out[3]) == low and not np.signbit(x[1:]).any(), kernel


def test_a_nan_carried_in_stays_and_the_band_still_holds():
    # the reductions of a path that held a NaN node stay NaN, and the band
    # check of the nodes stepped after it holds all the same
    n = 600
    for lo in (-0.05, -1.0):
        x = np.empty((n + 1, 4))
        x[0] = IC.s0, IC.e0, IC.i0, IC.r0
        out = _kernels.euler_maruyama(
            memoryview(x.reshape(-1)), _kernels.history(x[0], 0), 0.4, 0.2,
            0.1, 2.0, n, 0.01, 1.5,
            _stream._increments(_stream.Stream(0, 0), 0.01, n), lo, 1.05,
            math.nan, math.nan)
        if lo == -1.0:
            assert out[:3] == (_kernels.OK, -1, -1)
            assert math.isnan(out[3]) and math.isnan(out[4])
        else:
            assert out[0] == _kernels.EXCURSION and x[out[1], out[2]] < lo


# (kernel, status, node): exits of test_sum_breach_exit and
# test_negative_exit, each inside a later window of every size below
WINDOW_EXITS = [("ode_rk4", _kernels.SUM_BREACH, 864),
                ("dde_rk4_abm4", _kernels.SUM_BREACH, 42),
                ("dde_rk4_abm4", _kernels.SUM_BREACH, 121),
                ("ode_rk4", _kernels.NEGATIVE, 200),
                ("dde_rk4_abm4", _kernels.NEGATIVE, 30),
                ("dde_rk4_abm4", _kernels.NEGATIVE, 120)]


@pytest.mark.parametrize("kernel,status,node", WINDOW_EXITS)
@pytest.mark.parametrize("window", [7, 25])
def test_windows_report_the_exit_node_of_the_path(kernel, status, node,
                                                  window, monkeypatch):
    # the run tolerance that the node breaks is set just inside it, as in
    # the exit tests above; the error names the node counted from node 0,
    # and the windows before its own were passed on
    x0 = IC_SUM if status == _kernels.SUM_BREACH else IC_NEG
    free, ok, _ = _det(kernel, x0, 1.0, -1.0)
    assert ok == _kernels.OK and node > window
    if status == _kernels.SUM_BREACH:
        tol = ("PROPAGATION_SUM_TOL", float(_defects(free)[1:node].max()))
    else:
        tol = ("NEGATIVITY_TOL", float(free.min(axis=1)[1:node].min()))
    monkeypatch.setattr(det_integrator, *tol)
    monkeypatch.setattr(det_integrator, "_WINDOW", window)
    ic = make_initial_condition(e0=x0[1], s0=x0[0], i0=x0[2], r0=x0[3])
    blocks = []

    def consume(first, nodes):
        blocks.append(np.array(nodes).reshape(-1, 4))
    with pytest.raises(IntegrationError) as exc:
        if kernel == "ode_rk4":
            integrate_ode(Params(*RATES), ic.state0(), N * H, H, consume)
        else:
            integrate_dde(Params(*RATES, r=M * H), ic, N * H, H, consume)
    assert exc.value.node == node and f"at node {node}" in str(exc.value)
    streamed = np.concatenate(blocks)
    assert len(streamed) == (node - 1) // window * window
    assert np.array_equal(streamed, free[:len(streamed)])


# (r, eps, seed, step): a path that leaves the band inside a later window of
# every size, and one that leaves it at the last node of a 512-step window
LATE_EXITS = [(0.5, 0.8, 4, 1118), (0.0, 1.5, 0, 512)]


@pytest.mark.parametrize("r,eps,seed,step", LATE_EXITS)
@pytest.mark.parametrize("window", [1, 3, WINDOW_M, WINDOW_M + 1, 128, 512])
def test_windows_report_the_excursion_of_one_window(r, eps, seed, step,
                                                   window):
    p = Params(0.4, 0.2, 0.1, 2.0, r=r, epsilon=eps)
    with pytest.raises(ExcursionError) as whole:
        _stepped("euler_maruyama", p, seed, n=2000)
    assert whole.value.node == step
    with pytest.raises(ExcursionError) as streamed:
        _stepped("euler_maruyama", p, seed, window, n=2000)
    assert (streamed.value.node, streamed.value.component,
            str(streamed.value)) == (step, whole.value.component,
                                     str(whole.value))


if __name__ == "__main__":
    for name in sorted(CASES):
        print(f'    "{name}": "{digest(name)}",')
    for kernel, seed in DRAWS:
        print(f'    "{kernel}-{seed}": "{draw_digest(kernel, seed)}",')

"""Full-array pins of every time-stepping kernel.

Each case hashes the bytes of a whole node array, not a printed summary, so
a change to the order or grouping of any float operation in `_kernels`
shows up here even where the goldens' rounded reports would not move. The
kernel digests were captured before the kernels were rewritten as plain
CPython loops, and the replica-engine digests (the sups and finals of
`sde_simulator._run_replicas`) before its step loop was fused. The
seeded-draw digests (DRAW_DIGESTS: `ode_rk4` and `dde_rk4_abm4` at 20
random parameter points) were captured at the parent of the rewrite that
gave the RK4 and ABM4 loops shared products and float locals. Print the
current ones with

    PYTHONPATH=src python tests/test_kernels.py

The exit tests at the end drive every early return of the kernels through
their own sum_tol, neg_tol, lo and hi arguments, with thresholds read off
an untripped run so that each exit lands at a chosen node and phase.
"""
import hashlib

import numpy as np
import pytest

from seirs_delay import (Params, Seed, _kernels, integrate_dde,
                         integrate_ode, integrate_scalar_comparison,
                         make_initial_condition, sde_simulator, simulate_sde)
from seirs_delay.det_integrator import step_grid
from seirs_delay.model_core import NEGATIVITY_TOL, PROPAGATION_SUM_TOL

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
            ref = sde_simulator._reference(p, IC, h, n, m)
        else:
            eps, ref = np.full(n_rep, p.epsilon), None
        sups, finals, first = sde_simulator._run_replicas(
            p, IC, h, n, m, Seed(seed), 0, eps, ref)
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
    "dde_rk4_abm4-horizon20.005": "ad0195a3a4937dc3370093fda1e500e67e5d3976fb4cc4dddc6af609f1942534",
    "dde_rk4_abm4-m3": "e3f31a9f3b559671703210cc622c3462f914c1de4532a8412b8f7d0639e8c8dc",
    "dde_rk4_abm4-m50": "02ae2c32332bb9db7473ccdcc320128c1a40d2f17f608d68c71de3e5d15a91a5",
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


def _run_draw(kernel, seed):
    x0, h, m, rates = _draw(seed)
    tols = (PROPAGATION_SUM_TOL, NEGATIVITY_TOL)
    if kernel == "ode_rk4":
        return _kernels.ode_rk4(*x0, h, DRAW_STEPS, *rates, *tols)
    return _kernels.dde_rk4_abm4(*x0, x0[1], h, DRAW_STEPS, m, *rates, *tols)


def draw_digest(kernel, seed):
    """Status, exit node and every stored row (all of them, or the rows
    before the exit: a few draws leave the simplex)."""
    out, status, node = _run_draw(kernel, seed)
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
    "dde_rk4_abm4-0": "dc63b993110d4d26ad630c433cbd274a520ff4fda4f5061811f8a1c23b418f72",
    "dde_rk4_abm4-1": "a97beff3fb8508cdb3156273c1de0e5e481f88a7883a1930eacc9b736533981e",
    "dde_rk4_abm4-2": "26925b4ab176108cd164488394fe1853459b2a9f08915ef32e7046ebd47c2bdd",
    "dde_rk4_abm4-3": "1a5af8358b3597dd1f8218125b3be51959a7a46cb2dd47f3f241c715e4dc6d66",
    "dde_rk4_abm4-4": "acaaca0628bc348b98fbf16febb6fbcea88d905403c40a779c5730a1aa864804",
    "dde_rk4_abm4-5": "7929b2235148e1659337e32042bbbd0e5277190f871aff8c0e32755f3086d155",
    "dde_rk4_abm4-6": "3e747af1f2568779f87432b3201016c10f834a222c33ed54135597e5ccf29074",
    "dde_rk4_abm4-7": "aaafd99e0a403bc612ab9c986fc0ce78045cd09584d5eabe1e36351f2f131ac8",
    "dde_rk4_abm4-8": "628f19d5158cd71ac0d3db1469cd90186077ca10430f17579917ab2774d96aa9",
    "dde_rk4_abm4-9": "e3848afa25e375737304b2d239abd9ac59378f2427875ebfb43346186885c7a8",
    "dde_rk4_abm4-10": "b20fc8f4735f53c3dcb7d4bcd26e5f97159dfbe699f95104b538439444f36c98",
    "dde_rk4_abm4-11": "238ffefbbc64f322d0905ad0a46d552ced50f351059c6374405aae6635a91c24",
    "dde_rk4_abm4-12": "5e4c0b4f6112870633e73f5e12553361a7a7748b313d446d9db855ddf32681ef",
    "dde_rk4_abm4-13": "9678b20ee4d02e78d0e9d25fdab8d0638cbb930c64c4392b9b0e3ea1989fae33",
    "dde_rk4_abm4-14": "16337460777ce811d3c54cc8b444eb5249ed49d25413defea794fc2e890febd2",
    "dde_rk4_abm4-15": "90596a37ef42fca4bcfe178793a6a0e4cd58007844d77d461a57af5bf4f78bd6",
    "dde_rk4_abm4-16": "8d31285b40dc3f6c4f7399256a585f5d43f26f55aeee6835ed6c020ddea6a985",
    "dde_rk4_abm4-17": "7cd0dc42c898b1390489fccac7b9bbd7fc939c11d24c1daccbda0584689471a0",
    "dde_rk4_abm4-18": "af6ce8302f736fb2b4b1fb0da6b23dbb18507955e2b23d5d9f7e5acddf6c2890",
    "dde_rk4_abm4-19": "22d267adbb661f2d5e80980cd88328b8ae92a57b2d75143d660790a128fe4609",
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
    if kernel == "ode_rk4":
        return _kernels.ode_rk4(*x0, H, N, *RATES, sum_tol, neg_tol)
    return _kernels.dde_rk4_abm4(*x0, x0[1], H, N, M, *RATES, sum_tol,
                                 neg_tol)


def _defects(x):
    # the kernels' own expression, elementwise
    return np.abs(((x[:, 0] + x[:, 1]) + x[:, 2]) + x[:, 3] - 1.0)


# (kernel, exit node): dde nodes 1..M come from the RK4 start, later ones
# from the ABM4 loop
@pytest.mark.parametrize("kernel,node", [("ode_rk4", 864),
                                         ("dde_rk4_abm4", 42),
                                         ("dde_rk4_abm4", 141)])
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

    def run(lo, hi):
        return _kernels.euler_maruyama(*x0, x0[1], h, n, m, *rates, 0.1, dw,
                                       lo, hi)
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


if __name__ == "__main__":
    for name in sorted(CASES):
        print(f'    "{name}": "{digest(name)}",')
    for kernel, seed in DRAWS:
        print(f'    "{kernel}-{seed}": "{draw_digest(kernel, seed)}",')

"""Full-array pins of every time-stepping kernel.

Each case hashes the bytes of a whole node array, not a printed summary, so
a change to the order or grouping of any float operation in `_kernels`
shows up here even where the goldens' rounded reports would not move. The
kernel digests were captured before the kernels were rewritten as plain
CPython loops, and the replica-engine digests (the sups and finals of
`sde_simulator._run_replicas`) before its step loop was fused; print the
current ones with

    PYTHONPATH=src python tests/test_kernels.py
"""
import hashlib

import numpy as np
import pytest

from seirs_delay import (Params, Seed, integrate_dde, integrate_ode,
                         integrate_scalar_comparison, make_initial_condition,
                         sde_simulator, simulate_sde)
from seirs_delay.det_integrator import step_grid

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


if __name__ == "__main__":
    for name in sorted(CASES):
        print(f'    "{name}": "{digest(name)}",')

"""Full-array pins of every time-stepping kernel.

Each case hashes the bytes of a whole node array, not a printed summary, so
a change to the order or grouping of any float operation in `_kernels`
shows up here even where the goldens' rounded reports would not move. The
digests were captured before the kernels were rewritten as plain CPython
loops; print the current ones with

    PYTHONPATH=src python tests/test_kernels.py
"""
import hashlib

import pytest

from seirs_delay import (Params, Seed, integrate_dde, integrate_ode,
                         integrate_scalar_comparison, make_initial_condition,
                         simulate_sde)

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


CASES = {
    "ode_rk4": _ode,
    "dde_rk4_abm4-m3": _dde(0.03, 30.0),
    "dde_rk4_abm4-m50": _dde(0.5, 30.0),
    "dde_rk4_abm4-horizon20.005": _dde(0.5, 20.005),
    "euler_maruyama-r0": _sde(0.0),
    "euler_maruyama-r0.5": _sde(0.5),
    "scalar_dde": _scalar,
}

DIGESTS = {
    "dde_rk4_abm4-horizon20.005": "ad0195a3a4937dc3370093fda1e500e67e5d3976fb4cc4dddc6af609f1942534",
    "dde_rk4_abm4-m3": "e3f31a9f3b559671703210cc622c3462f914c1de4532a8412b8f7d0639e8c8dc",
    "dde_rk4_abm4-m50": "02ae2c32332bb9db7473ccdcc320128c1a40d2f17f608d68c71de3e5d15a91a5",
    "euler_maruyama-r0": "63291c0880d1b0354ce9a152fad2f843e77bfc9fb45d9f3a0d73c5020027715b",
    "euler_maruyama-r0.5": "c56ae70aee55abff8f6f19d0b6c60bd586ea567c8d5e6242a1d0a5912b2d7f0c",
    "ode_rk4": "d38a65004546520bfd4897797ea8c01c27f6918b32d38bcdb5b0902ef8efd47e",
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

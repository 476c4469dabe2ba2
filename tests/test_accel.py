"""The JIT flag and bitwise agreement of the compiled and pure kernel paths."""
import importlib.util
import os
import subprocess
import sys

import numpy as np
import pytest

DRIVER = """\
import sys
import numpy as np
from seirs_delay import (Params, Seed, integrate_dde, integrate_ode,
                         integrate_scalar_comparison, make_initial_condition,
                         simulate_sde)
from seirs_delay._accel import NUMBA_ENABLED

dest, expect = sys.argv[1], sys.argv[2]
assert NUMBA_ENABLED == (expect == "1"), (NUMBA_ENABLED, expect)
ic = make_initial_condition(e0=0.05, s0=0.9, i0=0.05, r0=0.0)
ode = integrate_ode(Params(0.4, 0.2, 0.1, 2.0), ic.state0(), 30.0, 0.01).states
dde = integrate_dde(Params(0.4, 0.2, 0.1, 2.0, r=0.5), ic, 30.0, 0.01).states
sde = simulate_sde(Params(0.4, 0.2, 0.1, 2.0, r=0.5, epsilon=0.1), ic,
                   30.0, 0.01, Seed(42), replica=1).states
sc = integrate_scalar_comparison(k=0.3, r=0.5, f0=1.0, t_end=30.0, h=0.01)
np.savez(dest, ode=ode, dde=dde, sde=sde, sc=sc)
"""


def run_driver(flag, dest):
    env = os.environ.copy()
    env["SEIRS_DELAY_NUMBA"] = flag
    return subprocess.run([sys.executable, "-c", DRIVER, str(dest), flag],
                          capture_output=True, text=True, env=env)


@pytest.mark.skipif(importlib.util.find_spec("numba") is None,
                    reason="numba is not installed: there is no compiled path "
                           "to compare with the pure-Python one")
def test_compiled_and_pure_paths_bitwise_identical(tmp_path):
    arrays = {}
    for flag in ("0", "1"):
        dest = tmp_path / f"paths_{flag}.npz"
        proc = run_driver(flag, dest)
        assert proc.returncode == 0, proc.stderr
        arrays[flag] = np.load(dest)
    for key in ("ode", "dde", "sde", "sc"):
        assert np.array_equal(arrays["0"][key], arrays["1"][key]), key


def test_flag_spellings_disable_jit():
    for flag in ("0", "false", "off", "no"):
        env = os.environ.copy()
        env["SEIRS_DELAY_NUMBA"] = flag
        proc = subprocess.run(
            [sys.executable, "-c",
             "from seirs_delay._accel import NUMBA_ENABLED; "
             "raise SystemExit(0 if not NUMBA_ENABLED else 1)"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, (flag, proc.stderr)

"""What the package exports, and what importing a part of it loads.

The analytic commands (equilibria, stability, delay-margin and lyapunov,
whether its condition holds or not) are scalar arithmetic; they must run
without numpy and without the array modules, which cost more to import
than the commands cost to run. The import checks run in fresh interpreters.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import seirs_delay
from seirs_delay import det_integrator, lyapunov, model_core, sde_simulator
from seirs_delay.cli import COMMANDS

SRC = str(Path(__file__).resolve().parent.parent / "src")
GOLDEN = Path(__file__).resolve().parent / "golden"
ARRAY_MODULES = ("numpy", "seirs_delay.det_integrator", "seirs_delay._kernels",
                 "seirs_delay.sde_simulator")


def loaded_after(code):
    """The names in sys.modules after code ran in a fresh interpreter."""
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    out = subprocess.run(
        [sys.executable, "-c",
         code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"],
        capture_output=True, text=True, env=env, check=True)
    return set(json.loads(out.stdout.splitlines()[-1]))


def test_bare_import_loads_no_submodule():
    loaded = loaded_after("import seirs_delay")
    assert sorted(m for m in loaded if m.startswith("seirs_delay.")) == []
    assert "numpy" not in loaded


def main_quietly(*runs):
    """Code that runs main on each (command, config) with stdout captured."""
    return ("import contextlib, io\nfrom seirs_delay.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            + "".join(f"    assert main([{c!r}, '--config', {str(cfg)!r}]) == 0\n"
                      for c, cfg in runs))


@pytest.fixture(scope="module")
def after_analytic_goldens():
    """sys.modules after main ran the four analytic goldens in one
    interpreter."""
    return loaded_after(main_quietly(
        *((c, GOLDEN / f"{c}.cfg") for c in ("equilibria", "stability",
                                            "delay-margin", "lyapunov"))))


def test_analytic_commands_load_no_array_module(after_analytic_goldens):
    assert [m for m in ARRAY_MODULES if m in after_analytic_goldens] == []
    assert "seirs_delay.linear_stability" in after_analytic_goldens


def test_analytic_commands_load_neither_dataclasses_nor_inspect(
        after_analytic_goldens):
    # a dataclass's import loads inspect and compiles its generated methods
    assert [m for m in ("dataclasses", "inspect")
            if m in after_analytic_goldens] == []


@pytest.mark.parametrize("command, unused", [
    ("equilibria", ("delay_margin", "linear_stability")),
    ("lyapunov", ("delay_margin", "linear_stability")),
    ("stability", ("delay_margin", "lyapunov")),
])
def test_each_analytic_command_loads_only_its_modules(command, unused):
    loaded = loaded_after(main_quietly((command, GOLDEN / f"{command}.cfg")))
    assert [m for m in unused if f"seirs_delay.{m}" in loaded] == []


@pytest.fixture(scope="module")
def after_every_golden():
    """sys.modules after main ran every golden config in one interpreter."""
    commands = {"simulate-ode": "simulate",
                "delay-margin-coexistence": "delay-margin"}
    runs = [(commands.get(cfg.stem, cfg.stem), cfg)
            for cfg in sorted(GOLDEN.glob("*.cfg"))]
    assert {command for command, _ in runs} == set(COMMANDS)
    return loaded_after(main_quietly(*runs))


def test_no_golden_run_loads_logging(after_every_golden):
    # a report carries results and notices, stderr one line per failure;
    # neither needs the logging package
    assert "logging" not in after_every_golden


def test_no_golden_run_loads_dataclasses(after_every_golden):
    # the records are named tuples, whose classes generate no code at import
    assert "dataclasses" not in after_every_golden


def test_lyapunov_with_a_false_condition_loads_no_numpy(tmp_path):
    cfg = tmp_path / "false.cfg"
    # mu < beta: the condition is false, so no certificate is built
    cfg.write_text("params.beta = 0.4\nparams.mu = 0.2\nparams.gamma = 0.1\n"
                   "params.k_r = 2.0\n")
    loaded = loaded_after(main_quietly(("lyapunov", cfg)))
    assert [m for m in ARRAY_MODULES if m in loaded] == []


def test_run_commands_still_load_numpy():
    loaded = loaded_after(main_quietly(("simulate", GOLDEN / "simulate-ode.cfg")))
    assert "numpy" in loaded and "seirs_delay.det_integrator" in loaded


@pytest.mark.parametrize("name", seirs_delay.__all__)
def test_every_export_is_its_home_modules_object(name):
    if name == "__version__":
        assert seirs_delay.__version__ == "0.1.0"
        return
    value = getattr(seirs_delay, name)
    home = sys.modules[f"seirs_delay.{seirs_delay._HOME[name]}"]
    assert getattr(home, name) is value
    assert name in home.__all__


def test_star_import_and_unknown_names():
    namespace = {}
    exec("from seirs_delay import *", namespace)
    assert set(seirs_delay.__all__) <= set(namespace)
    assert namespace["lyapunov_certificate"] is lyapunov.lyapunov_certificate
    with pytest.raises(AttributeError, match="no_such_name"):
        seirs_delay.no_such_name


def test_moved_helpers_keep_their_old_names():
    for name in ("step_grid", "default_step", "GRID_RTOL", "MAX_NODES"):
        assert getattr(det_integrator, name) is getattr(model_core, name)
    assert sde_simulator._rho_grid is model_core._rho_grid
    assert sde_simulator.step_grid is model_core.step_grid
    for name in ("lyapunov_certificate", "lyapunov_condition",
                 "lyapunov_margin", "LyapunovCertificate"):
        assert getattr(sde_simulator, name) is getattr(lyapunov, name)
        assert name in sde_simulator.__all__

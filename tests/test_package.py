"""What the package exports, and what importing a part of it loads.

The analytic commands (equilibria, stability, delay-margin and lyapunov,
whether its condition holds or not) are scalar arithmetic; they must run
without numpy and without the array modules, which cost more to import
than the commands cost to run. The import checks run in fresh interpreters.
"""
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import seirs_delay
from seirs_delay import lyapunov
from seirs_delay.cli import COMMANDS

SRC = str(Path(__file__).resolve().parent.parent / "src")
GOLDEN = Path(__file__).resolve().parent / "golden"
ARRAY_MODULES = ("numpy", "seirs_delay.det_integrator", "seirs_delay._kernels",
                 "seirs_delay.sde_simulator")
# the modules of the two command families; the run commands' module holds
# the trajectory CSV writer
ANALYTIC = "seirs_delay._analytic_commands"
RUNS = "seirs_delay._run_commands"


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


def test_analytic_commands_load_no_run_command(after_analytic_goldens):
    assert ANALYTIC in after_analytic_goldens
    assert RUNS not in after_analytic_goldens


def test_a_report_file_loads_no_run_command(tmp_path):
    # --out writes the report through _report, not the run commands' module
    out = tmp_path / "report.txt"
    loaded = loaded_after(
        "from seirs_delay.cli import main\n"
        f"assert main(['equilibria', '--config', {str(GOLDEN / 'equilibria.cfg')!r},"
        f" '--out', {str(out)!r}]) == 0\n")
    assert RUNS not in loaded
    assert out.read_text() == (GOLDEN / "equilibria.report.txt").read_text()


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


# a delayed noisy path over 1025 steps of 0.01: two whole 512-step windows
# and one step, streamed to run.trajectory
SDE_STREAMED = ("params.beta = 0.4\nparams.mu = 0.2\nparams.gamma = 0.1\n"
                "params.k_r = 2.0\nparams.r = 0.5\nparams.epsilon = 0.1\n"
                "run.horizon = 10.25\nrun.step = 0.01\nensemble.seed = 7\n")


@pytest.fixture(scope="module")
def after_stochastic_runs(tmp_path_factory):
    """sys.modules after main ran simulate-sde's golden and a streamed
    simulate-sde run that writes run.trajectory, and after it ran a short
    concentration job, each command in its own interpreter."""
    tmp = tmp_path_factory.mktemp("stochastic")
    # a short concentration run: the golden's 2 x 800 replicas take longer
    # than its imports
    short = tmp / "concentration.cfg"
    short.write_text("params.beta = 0.1\nparams.mu = 0.2\nparams.gamma = 0.3\n"
                     "params.k_r = 2.0\nparams.epsilon = 0.1\n"
                     "run.horizon = 2.0\nensemble.n_rep = 40\n")
    streamed = tmp / "simulate-sde.cfg"
    streamed.write_text(SDE_STREAMED
                        + f"run.trajectory = {tmp / 'traj.csv'}\n")
    out = {"simulate-sde": loaded_after(main_quietly(
               ("simulate-sde", GOLDEN / "simulate-sde.cfg"),
               ("simulate-sde", streamed))),
           "concentration": loaded_after(main_quietly(
               ("concentration", short)))}
    assert (tmp / "traj.csv").read_text().count("\n") == 1027
    return out


def test_only_the_stochastic_run_commands_load_numpy(after_analytic_goldens,
                                                    after_stochastic_runs,
                                                    tmp_path):
    # simulate steps into a bytearray and writes its CSV from plain floats:
    # beyond what the analytic commands load it needs the integrator and its
    # kernels alone, so neither numpy, array nor any other extension module
    with_csv = tmp_path / "simulate.cfg"
    with_csv.write_text((GOLDEN / "simulate.cfg").read_text()
                        + f"run.trajectory = {tmp_path / 'traj.csv'}\n")
    simulate = loaded_after(main_quietly(
        ("simulate", GOLDEN / "simulate.cfg"),
        ("simulate", GOLDEN / "simulate-ode.cfg"), ("simulate", with_csv)))
    assert (tmp_path / "traj.csv").read_text().count("\n") == 2002
    assert simulate - after_analytic_goldens == {
        "seirs_delay._kernels", "seirs_delay.det_integrator", RUNS}
    assert [m for m in ("numpy", "array") if m in simulate] == []
    # simulate-sde draws its noise in pure Python: it loads the stream
    # module beyond what simulate loads, and neither numpy, array nor the
    # ensembles' module
    sde = after_stochastic_runs["simulate-sde"]
    assert sde - simulate == {"seirs_delay._stream"}
    assert [m for m in ("numpy", "array", "seirs_delay.sde_simulator")
            if m in sde] == []
    # the ensembles keep numpy
    assert "numpy" in after_stochastic_runs["concentration"]


def test_the_run_commands_load_no_analytic_command(after_stochastic_runs):
    simulate = loaded_after(main_quietly(("simulate", GOLDEN / "simulate.cfg")))
    assert RUNS in simulate
    assert [command for command, loaded
            in [("simulate", simulate), *after_stochastic_runs.items()]
            if ANALYTIC in loaded] == []


def test_a_zero_minimum_loads_no_numpy(tmp_path):
    # a zero minimum's sign is the kernels' rule, not numpy's min: simulate
    # from disease-free starts (E, I and R stay +0.0) and from every start
    # of test_cli's signed-zero table loads neither numpy nor array
    import test_cli

    free = ("params.beta = 0.1\nparams.mu = 0.2\nparams.gamma = 0.3\n"
            "params.k_r = 2.0\nrun.horizon = 10.0\ninit.s0 = 1.0\n"
            "init.e0 = 0.0\ninit.i0 = 0.0\ninit.r0 = 0.0\n")
    texts = [free, free + "params.r = 0.5\n"] + [
        test_cli.ENDEMIC.replace("params.r = 0.5", f"params.r = {r!r}")
        .replace("run.horizon = 20.0", "run.horizon = 1.0")
        + f"init.e0 = {e0}\ninit.s0 = 0.95\ninit.i0 = {i0}\ninit.r0 = {r0}\n"
        for r, e0, i0, r0, _, _ in test_cli.TestMain.SIGNED_ZEROS]
    runs = []
    for k, text in enumerate(texts):
        cfg = tmp_path / f"zeros{k}.cfg"
        cfg.write_text(text)
        runs.append(("simulate", cfg))
    loaded = loaded_after(main_quietly(*runs))
    assert [m for m in ("numpy", "array") if m in loaded] == []


def test_the_stochastic_commands_load_no_lyapunov(after_stochastic_runs):
    # sde_simulator imports lyapunov in the stability experiment, its one
    # user, which no command runs
    assert [command for command, loaded in after_stochastic_runs.items()
            if "seirs_delay.lyapunov" in loaded] == []


def test_the_stability_experiment_imports_the_lyapunov_condition():
    loaded = loaded_after(
        "from seirs_delay import Params, make_initial_condition\n"
        "from seirs_delay.sde_simulator import Seed, "
        "stochastic_stability_experiment\n"
        "ic = make_initial_condition(0.05, 0.9, 0.05, 0.0)\n"
        "for mu, holds in ((0.5, True), (0.2, False)):\n"
        "    p = Params(0.3, mu, 0.25, 1.0, epsilon=0.1)\n"
        "    out = stochastic_stability_experiment(p, ic, 1.0, 0.1, 4, Seed(0))\n"
        "    assert out.condition_satisfied is holds, mu\n")
    assert "seirs_delay.lyapunov" in loaded


# argparse loads gettext, and building its parser loads locale
ARGPARSE_MODULES = ("argparse", "gettext", "locale")


def test_no_golden_run_loads_argparse(after_every_golden):
    # a well-formed command line is read without argparse
    assert [m for m in ARGPARSE_MODULES if m in after_every_golden] == []


def test_importing_the_cli_loads_no_argparse():
    loaded = loaded_after("import seirs_delay.cli")
    assert [m for m in ARGPARSE_MODULES if m in loaded] == []


def test_importing_the_cli_loads_no_command_family():
    loaded = loaded_after("import seirs_delay.cli")
    assert [m for m in (ANALYTIC, RUNS) if m in loaded] == []


def tokens(module):
    """The tokenize tokens of a seirs_delay module's source file."""
    name = module.partition(".")[2] or "__init__"
    with open(Path(SRC) / "seirs_delay" / f"{name}.py", "rb") as fh:
        return sum(1 for _ in tokenize.tokenize(fh.readline))


def test_no_module_a_numpy_free_golden_loads_outgrows_the_stream_module():
    # without cached bytecode a CLI process compiles every module it loads,
    # and the largest compile sets the process's peak RSS: simulate-sde
    # needs the stream module, so no module of a numpy-free golden may be
    # larger than it
    runs = [(c, GOLDEN / f"{c}.cfg") for c in COMMANDS if c != "concentration"]
    runs += [("simulate", GOLDEN / "simulate-ode.cfg"),
             ("delay-margin", GOLDEN / "delay-margin-coexistence.cfg")]
    loaded = loaded_after(main_quietly(*runs))
    assert "numpy" not in loaded
    limit = tokens("seirs_delay._stream")
    assert {m: tokens(m) for m in loaded
            if m.partition(".")[0] == "seirs_delay" and tokens(m) > limit} == {}


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


def test_every_module_exports_only_what_it_defines():
    # each name has one home: no __all__ lists a callable imported from
    # another module
    strays = []
    for info in pkgutil.iter_modules(seirs_delay.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"seirs_delay.{info.name}")
        for name in getattr(module, "__all__", ()):
            value = getattr(module, name)
            if callable(value) and value.__module__ != module.__name__:
                strays.append(f"{info.name}.{name}")
    assert strays == []

"""Config parsing, report rendering, command dispatch and process exit codes."""
import math
from fractions import Fraction
import os
import subprocess
import sys
from pathlib import Path

import pytest

from seirs_delay import Params, ValidationError, __version__, make_initial_condition
from seirs_delay.cli import (EXIT_NUMERICAL, EXIT_OK, EXIT_PARSE,
                             EXIT_VALIDATION, ParseError, Report, RunConfig,
                             main, parse_config, run, serialize_config)

MINIMAL = """\
params.beta = 0.3
params.mu = 0.5
params.gamma = 0.25
params.k_r = 1.0
"""

ENDEMIC = """\
params.beta = 0.4
params.mu = 0.2
params.gamma = 0.1
params.k_r = 2.0
params.r = 0.5
run.horizon = 20.0
run.step = 0.01
"""

FREE = """\
params.beta = 0.1
params.mu = 0.2
params.gamma = 0.3
params.k_r = 2.0
params.r = 0.5
"""


def cli_subprocess(args, env=None):
    code = "import sys; from seirs_delay.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env)


class TestParseConfig:
    def test_minimal_document_fills_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.params == Params(0.3, 0.5, 0.25, 1.0)
        assert cfg.initial == make_initial_condition(0.05, 0.9, 0.05, 0.0)
        assert cfg.horizon == 100.0
        assert cfg.step is None
        assert cfg.resolved_step() == 0.01
        assert cfg.trajectory is None
        assert cfg.n_rep == 200
        assert cfg.seed == 0
        assert cfg.rho_grid is None
        assert cfg.warnings == ()

    def test_comments_and_blank_lines_ignored(self):
        text = "# leading comment\n\n" + MINIMAL.replace(
            "params.mu = 0.5", "params.mu = 0.5   # trailing comment")
        assert parse_config(text) == parse_config(MINIMAL)

    def test_round_trip(self):
        cfg = parse_config(ENDEMIC + "run.trajectory = path.csv\n"
                           "ensemble.n_rep = 64\nensemble.seed = 9\n"
                           "ensemble.rho_grid = 0.05, 0.01, 0.02\n")
        again = parse_config(serialize_config(cfg))
        assert again == cfg
        assert again.rho_grid == (0.01, 0.02, 0.05)
        assert again.trajectory == "path.csv"

    def test_unknown_key_becomes_warning(self):
        cfg = parse_config(MINIMAL + "params.bogus = 1.0\n")
        assert len(cfg.warnings) == 1
        assert "params.bogus" in cfg.warnings[0]
        assert "line 5" in cfg.warnings[0]

    def test_duplicate_key(self):
        with pytest.raises(ParseError, match="duplicate key"):
            parse_config(MINIMAL + "params.beta = 0.4\n")

    def test_missing_equals(self):
        with pytest.raises(ParseError, match="expected"):
            parse_config("params.beta 0.3\n")

    def test_empty_key(self):
        with pytest.raises(ParseError, match="empty key"):
            parse_config("= 0.3\n")

    def test_empty_value(self):
        with pytest.raises(ParseError, match="empty value"):
            parse_config("params.beta =\n")

    def test_non_numeric_value(self):
        with pytest.raises(ParseError, match="expected a number"):
            parse_config(MINIMAL.replace("0.5", "fast"))

    def test_non_integer_reps(self):
        with pytest.raises(ParseError, match="expected an integer"):
            parse_config(MINIMAL + "ensemble.n_rep = 2.5\n")

    def test_empty_grid_entry(self):
        with pytest.raises(ParseError, match="empty list entry"):
            parse_config(MINIMAL + "ensemble.rho_grid = 0.01, , 0.02\n")

    def test_missing_required_key(self):
        text = MINIMAL.replace("params.mu = 0.5\n", "")
        with pytest.raises(ValidationError, match="params.mu"):
            parse_config(text)

    def test_rate_constraint_reported(self):
        with pytest.raises(ValidationError, match="beta"):
            parse_config(MINIMAL.replace("params.beta = 0.3",
                                         "params.beta = 1.5"))

    def test_delay_bound_reported(self):
        with pytest.raises(ValidationError, match="k_r"):
            parse_config(MINIMAL + "params.r = 1.0\n")

    def test_step_must_divide_delay(self, tmp_path, capsys):
        with pytest.raises(ValidationError, match="does not divide the delay"):
            parse_config(ENDEMIC.replace("run.step = 0.01",
                                         "run.step = 0.03"))
        cfg = tmp_path / "coarse.cfg"
        cfg.write_text(ENDEMIC.replace("run.step = 0.01", "run.step = 0.25"))
        assert main(["simulate", "--config", str(cfg)]) == EXIT_VALIDATION
        assert "at least 3 steps" in capsys.readouterr().err

    def test_horizon_must_cover_delay(self):
        with pytest.raises(ValidationError, match="at least the delay"):
            parse_config(ENDEMIC.replace("run.horizon = 20.0",
                                         "run.horizon = 0.25"))

    def test_step_must_divide_horizon_without_delay(self):
        with pytest.raises(ValidationError, match="not an integer multiple of the step"):
            parse_config(MINIMAL + "run.horizon = 1.0\nrun.step = 0.3\n")

    def test_nonpositive_horizon(self):
        with pytest.raises(ValidationError, match="run.horizon"):
            parse_config(MINIMAL + "run.horizon = -2.0\n")

    def test_seed_range(self):
        assert parse_config(MINIMAL + f"ensemble.seed = {2**64 - 1}\n").seed \
            == 2 ** 64 - 1
        with pytest.raises(ValidationError, match="64 unsigned bits"):
            parse_config(MINIMAL + f"ensemble.seed = {2**64}\n")
        with pytest.raises(ValidationError, match="64 unsigned bits"):
            parse_config(MINIMAL + "ensemble.seed = -1\n")

    def test_nonpositive_reps(self):
        with pytest.raises(ValidationError, match="n_rep"):
            parse_config(MINIMAL + "ensemble.n_rep = 0\n")

    def test_nonpositive_grid_entry(self):
        with pytest.raises(ValidationError, match="positive and finite"):
            parse_config(MINIMAL + "ensemble.rho_grid = 0.01, -0.02\n")

    def test_first_bad_key_in_reading_order_is_reported(self):
        # run.step is read before ensemble.seed and ensemble.rho_grid, so a
        # range error there wins over a malformed grid, and a malformed step
        # wins over a seed out of range
        with pytest.raises(ValidationError, match="run.step"):
            parse_config(MINIMAL + "ensemble.rho_grid = 0.01, , 0.02\n"
                         "run.step = -0.01\n")
        with pytest.raises(ParseError, match="run.step: expected a number"):
            parse_config(MINIMAL + "ensemble.seed = -1\nrun.step = x\n")


# (config key, RunConfig field, bad value); ENDEMIC has r = 0.5, step 0.01
BAD_SETTINGS = [
    ("run.horizon", "horizon", math.nan),
    ("run.horizon", "horizon", -1.0),
    ("run.step", "step", 0.0),
    ("run.step", "step", math.inf),
    ("run.step", "step", 0.03),
    ("ensemble.n_rep", "n_rep", 0),
    ("ensemble.seed", "seed", -1),
    ("ensemble.seed", "seed", 2 ** 64),
    ("ensemble.rho_grid", "rho_grid", (0.01, -0.02)),
]


@pytest.mark.parametrize("key, name, value", BAD_SETTINGS)
def test_run_config_is_valid_by_construction(key, name, value):
    text = ", ".join(map(repr, value)) if isinstance(value, tuple) else repr(value)
    doc = "".join(line for line in ENDEMIC.splitlines(True)
                  if not line.startswith(key)) + f"{key} = {text}\n"
    good = parse_config(ENDEMIC)
    fields = {name: getattr(good, name) for name in good._fields}
    fields[name] = value
    errors = []
    for build in (lambda: parse_config(doc),
                  lambda: good._replace(**{name: value}),
                  lambda: RunConfig(**fields)):
        with pytest.raises(ValidationError) as exc:
            build()
        errors.append(str(exc.value))
    assert errors[0] == errors[1] == errors[2]
    # step_grid's own messages name the step as h
    assert key in errors[0] or errors[0].startswith("step h=")


@pytest.mark.parametrize("key, name, value", [
    ("ensemble.n_rep", "n_rep", True),
    ("ensemble.seed", "seed", False),
    ("ensemble.seed", "seed", True),
])
def test_run_config_rejects_a_bool_count_or_seed(key, name, value):
    # a config document cannot spell a bool as an integer, so only library
    # callers can pass one
    good = parse_config(ENDEMIC)
    fields = {name: getattr(good, name) for name in good._fields}
    fields[name] = value
    for build in (lambda: good._replace(**{name: value}),
                  lambda: RunConfig(**fields)):
        with pytest.raises(ValidationError, match=key):
            build()


def test_run_config_sorts_rho_grid():
    cfg = parse_config(ENDEMIC)
    assert cfg._replace(rho_grid=[0.05, 0.01]).rho_grid == (0.01, 0.05)


class TestReport:
    def test_rendering(self):
        rep = Report("demo")
        rep.add("a", None)
        rep.add("b", True)
        rep.add("c", False)
        rep.add("d", 7)
        rep.add("e", 0.1)
        rep.warn("note")
        assert rep.render() == ("command = demo\n"
                                "a = none\n"
                                "b = true\n"
                                "c = false\n"
                                "d = 7\n"
                                "e = 0.10000000000000001\n"
                                "warning.0 = note\n")

    def test_get(self):
        rep = Report("demo")
        rep.add("key", 3)
        assert rep.get("key") == 3
        with pytest.raises(KeyError):
            rep.get("absent")


class TestRun:
    def test_unknown_command(self):
        with pytest.raises(ValidationError, match="unknown command"):
            run("bogus", parse_config(MINIMAL))

    def test_equilibria_report(self):
        rep = run("equilibria", parse_config(ENDEMIC))
        assert rep.get("r0") == 2.0
        assert rep.get("x_star.present") is True
        assert rep.get("x_star.s") == 0.5
        text = rep.render()
        assert "r0 = 2\n" in text
        assert "x_star.s = 0.5\n" in text

    def test_equilibria_without_coexistence(self):
        rep = run("equilibria", parse_config(MINIMAL))
        assert rep.get("x_star.present") is False
        with pytest.raises(KeyError):
            rep.get("x_star.s")

    def test_stability_report(self):
        rep = run("stability", parse_config(ENDEMIC))
        assert rep.get("free.stable") is False
        assert rep.get("coexistence.present") is True
        assert rep.get("coexistence.criterion1.name") == "trace(A) < 0"
        assert rep.get("coexistence.criterion2.name") == "det(A) < 0"
        assert rep.get("coexistence.verdict") == "stable"
        assert rep.get("free.eig_crosscheck_gap") <= 1e-9

    def test_delay_margin_free_branch(self):
        rep = run("delay-margin", parse_config(FREE))
        assert rep.get("branch") == "free-disease (degree 2)"
        assert rep.get("omega") == pytest.approx(0.47042218644121164, rel=1e-13)
        assert rep.get("r_star") == pytest.approx(3.7484134972974883, rel=1e-13)
        assert rep.get("margin") == pytest.approx(3.3391204158080203, rel=1e-13)
        assert rep.get("verdict") == "stable for all admissible delays"

    def test_delay_margin_coexistence_branch(self):
        rep = run("delay-margin", parse_config(ENDEMIC))
        assert rep.get("branch") == "coexistence (degree 3)"
        assert rep.get("crossing.found") is True
        assert rep.get("r_star") == pytest.approx(4.655972125652921, rel=1e-13)
        assert rep.get("verdict") == "stable below critical delay"

    def test_delay_margin_boundary_rejected(self):
        with pytest.raises(ValidationError, match="boundary"):
            run("delay-margin",
                parse_config(FREE.replace("params.beta = 0.1",
                                          "params.beta = 0.2")))

    def test_lyapunov_report(self):
        rep = run("lyapunov", parse_config(
            MINIMAL.replace("params.k_r = 1.0",
                            "params.k_r = 2.0\nparams.epsilon = 0.2")))
        assert rep.get("condition") is True
        assert rep.get("certificate.present") is True
        assert rep.get("certificate.holds") is True
        assert rep.get("certificate.lv_bound") < 0.0

    def test_lyapunov_without_certificate(self):
        rep = run("lyapunov", parse_config(ENDEMIC.replace(
            "params.r = 0.5\n", "")))
        assert rep.get("condition") is False
        assert rep.get("certificate.present") is False
        with pytest.raises(KeyError):
            rep.get("certificate.holds")


def test_stand_ins_give_way_to_the_functions_they_import():
    from seirs_delay import cli, equilibria

    cfg = parse_config(ENDEMIC)
    expected = run("equilibria", cfg).render()
    assert cli.equilibrium_set is equilibria.equilibrium_set
    # a stand-in wrapped from outside, as a tracer does, stays wrapped
    stand_in = cli._on_first_call("equilibria", "equilibrium_residual")
    saved = cli.equilibrium_residual
    try:
        cli.equilibrium_residual = replaced = lambda *args: stand_in(*args)
        assert run("equilibria", cfg).render() == expected
        assert cli.equilibrium_residual is replaced
    finally:
        cli.equilibrium_residual = saved


class TestMain:
    def write(self, tmp_path, text, name="run.cfg"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_success_writes_report_to_stdout(self, tmp_path, capsys):
        rc = main(["equilibria", "--config", self.write(tmp_path, ENDEMIC)])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("command = equilibria\n")
        assert "x_star.present = true\n" in out

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["equilibria", "--config", str(tmp_path / "absent.cfg")])
        assert rc == EXIT_PARSE
        assert "parse error" in capsys.readouterr().err

    def test_malformed_config(self, tmp_path, capsys):
        rc = main(["equilibria",
                   "--config", self.write(tmp_path, "params.beta 0.3\n")])
        assert rc == EXIT_PARSE
        assert "parse error" in capsys.readouterr().err

    def test_constraint_violation(self, tmp_path, capsys):
        bad = MINIMAL.replace("params.beta = 0.3", "params.beta = 1.5")
        rc = main(["equilibria", "--config", self.write(tmp_path, bad)])
        assert rc == EXIT_VALIDATION
        assert "validation error" in capsys.readouterr().err

    def test_numerical_failure(self, tmp_path, capsys):
        text = (MINIMAL.replace("params.k_r = 1.0",
                                "params.k_r = 2.0\nparams.epsilon = 0.1")
                + "run.horizon = 5.0\nensemble.n_rep = 50\n"
                + "ensemble.rho_grid = 5.0, 6.0\n")
        rc = main(["concentration", "--config", self.write(tmp_path, text)])
        assert rc == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err

    def test_seed_override_matches_config_seed(self, tmp_path, capsys):
        base = (MINIMAL.replace("params.k_r = 1.0",
                                "params.k_r = 2.0\nparams.epsilon = 0.1")
                + "run.horizon = 5.0\n")
        cfg_a = self.write(tmp_path, base + "ensemble.seed = 7\n", "a.cfg")
        cfg_b = self.write(tmp_path, base, "b.cfg")
        assert main(["simulate-sde", "--config", cfg_a]) == EXIT_OK
        out_a = capsys.readouterr().out
        assert main(["simulate-sde", "--config", cfg_b, "--seed", "7"]) == EXIT_OK
        out_b = capsys.readouterr().out
        assert out_a == out_b
        assert "ensemble.seed = 7\n" in out_a

    def test_invalid_seed_override(self, tmp_path, capsys):
        rc = main(["simulate-sde", "--config", self.write(tmp_path, MINIMAL),
                   "--seed", "-1"])
        assert rc == EXIT_VALIDATION
        assert "--seed" in capsys.readouterr().err

    def test_reps_override(self, tmp_path, capsys):
        rc = main(["simulate-sde", "--config", self.write(tmp_path, MINIMAL),
                   "--reps", "37"])
        assert rc == EXIT_OK
        assert "ensemble.n_rep = 37\n" in capsys.readouterr().out

    def test_invalid_reps_override(self, tmp_path, capsys):
        rc = main(["simulate-sde", "--config", self.write(tmp_path, MINIMAL),
                   "--reps", "0"])
        assert rc == EXIT_VALIDATION
        assert "--reps" in capsys.readouterr().err

    def test_undecodable_config(self, tmp_path, capsys):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(MINIMAL.encode() + b"# \xff\n")
        rc = main(["equilibria", "--config", str(path)])
        assert rc == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.err.startswith("parse error: cannot read config")
        assert captured.out == ""

    def test_unwritable_out(self, tmp_path, capsys):
        dest = tmp_path / "missing" / "report.txt"
        rc = main(["equilibria", "--config", self.write(tmp_path, MINIMAL),
                   "--out", str(dest)])
        assert rc == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err == (f"validation error: cannot write {str(dest)!r}: "
                                "No such file or directory\n")
        assert captured.out == ""

    def test_unwritable_trajectory(self, tmp_path, capsys):
        dest = tmp_path / "missing" / "traj.csv"
        text = MINIMAL + f"run.horizon = 1.0\nrun.trajectory = {dest}\n"
        rc = main(["simulate", "--config", self.write(tmp_path, text)])
        assert rc == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err == (f"validation error: cannot write {str(dest)!r}: "
                                "No such file or directory\n")
        assert captured.out == ""

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        cfg = self.write(tmp_path, ENDEMIC)
        assert main(["stability", "--config", cfg]) == EXIT_OK
        out = capsys.readouterr().out
        dest = tmp_path / "report.txt"
        assert main(["stability", "--config", cfg, "--out", str(dest)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert dest.read_text() == out

    def test_repeated_runs_byte_identical(self, tmp_path, capsys):
        text = (MINIMAL.replace("params.k_r = 1.0",
                                "params.k_r = 2.0\nparams.epsilon = 0.1")
                + "run.horizon = 10.0\n")
        cfg = self.write(tmp_path, text)
        assert main(["simulate-sde", "--config", cfg]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["simulate-sde", "--config", cfg]) == EXIT_OK
        assert capsys.readouterr().out == first

    def test_trajectory_csv(self, tmp_path, capsys):
        dest = tmp_path / "traj.csv"
        text = ("params.beta = 0.3\nparams.mu = 0.5\nparams.gamma = 0.25\n"
                "params.k_r = 1.0\n"
                "init.e0 = 0.0\ninit.s0 = 1.0\ninit.i0 = 0.0\ninit.r0 = 0.0\n"
                "run.horizon = 1.0\nrun.step = 0.1\n"
                f"run.trajectory = {dest}\n")
        rc = main(["simulate", "--config", self.write(tmp_path, text)])
        assert rc == EXIT_OK
        assert f"trajectory_file = {dest}\n" in capsys.readouterr().out
        lines = dest.read_text().splitlines()
        assert lines[0] == "t,S,E,I,R"
        assert len(lines) == 12
        assert lines[1].startswith("0.0,")
        for row in lines[1:]:
            assert row.split(",")[1:] == ["1.0", "0.0", "0.0", "0.0"]

    def test_trajectory_csv_reads_back_every_node(self, tmp_path, capsys):
        # 2001 nodes span several writer chunks: each one is written once,
        # in order, and its text reads back to the same doubles
        from seirs_delay import integrate_dde

        dest = tmp_path / "traj.csv"
        text = ENDEMIC + f"run.trajectory = {dest}\n"
        assert main(["simulate", "--config", self.write(tmp_path, text)]) == EXIT_OK
        cfg = parse_config(text)
        traj = integrate_dde(cfg.params, cfg.initial, cfg.horizon, 0.01)
        lines = dest.read_text().splitlines()
        assert lines[0] == "t,S,E,I,R"
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        assert rows == [[t, *x] for t, x in zip(traj.times.tolist(),
                                                traj.states.tolist())]

    def test_off_grid_horizon_reports_last_node(self, tmp_path, capsys):
        dest = tmp_path / "traj.csv"
        text = (ENDEMIC.replace("run.horizon = 20.0", "run.horizon = 20.005")
                + f"run.trajectory = {dest}\n")
        rc = main(["simulate", "--config", self.write(tmp_path, text)])
        assert rc == EXIT_OK
        warning = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("warning.")]
        assert len(warning) == 1 and "not a whole number of steps" in warning[0]
        last_t = float(dest.read_text().splitlines()[-1].split(",")[0])
        assert last_t == 20.01
        assert float(warning[0].rsplit("t = ", 1)[1]) == last_t

    def test_concentration_default_rho_grid(self, tmp_path, capsys):
        golden = Path(__file__).parent / "golden" / "concentration.cfg"
        text = "".join(line for line in golden.read_text().splitlines(True)
                       if not line.startswith("ensemble.rho_grid"))
        rc = main(["concentration", "--config", self.write(tmp_path, text),
                   "--reps", "200"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "transfer_ok = true\n" in out
        grid = [line for line in out.splitlines() if line.startswith("rho_grid = ")]
        assert len(grid) == 1 and len(grid[0].split(",")) >= 2

    def test_concentration_rejects_too_few_replicas(self, capsys):
        # 5 replicas can never give a tail point with 5 exceedances and P < 1
        golden = Path(__file__).parent / "golden" / "concentration.cfg"
        rc = main(["concentration", "--config", str(golden), "--reps", "5"])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "validation error" in err and "n_rep" in err

    @pytest.mark.parametrize("eps", ["1.7976931348623157e308", "1e308"])
    def test_concentration_transfer_level_overflow(self, tmp_path, capsys,
                                                   monkeypatch, eps):
        # the user's epsilon is finite; only epsilon * TRANSFER_FACTOR is not
        from seirs_delay import sde_simulator

        def no_stepping(*args):
            raise AssertionError("stepped before refusing the transfer level")
        monkeypatch.setattr(sde_simulator, "_run_replicas", no_stepping)
        golden = Path(__file__).parent / "golden" / "concentration.cfg"
        text = golden.read_text().replace("params.epsilon = 0.1",
                                          f"params.epsilon = {eps}")
        rc = main(["concentration", "--config", self.write(tmp_path, text)])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("validation error: epsilon: transfer level ")
        assert "TRANSFER_FACTOR" in err and "overflows to inf" in err
        assert "must be finite" not in err and "must be >= 0" not in err

    def test_warnings_echoed_in_report(self, tmp_path, capsys):
        cfg = self.write(tmp_path, MINIMAL + "params.bogus = 1\n")
        assert main(["equilibria", "--config", cfg]) == EXIT_OK
        assert "warning.0 = unknown key 'params.bogus' ignored (line 5)\n" \
            in capsys.readouterr().out

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == __version__

    def test_rejected_command_name(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bogus", "--config", self.write(tmp_path, MINIMAL)])
        assert exc.value.code == 2

    def test_grid_too_large_for_an_array(self, tmp_path, capsys):
        # admissible rates, but 2e300 steps of 0.05 cannot be stored
        text = ("params.beta = 0.5\nparams.mu = 0.999999999\n"
                "params.gamma = 0.5\nparams.k_r = 1e300\nparams.r = 1e299\n"
                "run.horizon = 1e299\nrun.step = 0.05\n")
        rc = main(["simulate", "--config", self.write(tmp_path, text)])
        assert rc == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("validation error: run.horizon / run.step: ")
        assert "has 2e+300 nodes" in captured.err

    def test_grid_too_large_for_memory(self, tmp_path, capsys):
        # 1e15 nodes fit numpy's index type but no address space: the node
        # array fails to allocate without touching memory
        text = MINIMAL + "run.horizon = 1e13\nrun.step = 0.01\n"
        rc = main(["simulate", "--config", self.write(tmp_path, text)])
        assert rc == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("validation error: out of memory: ")
        assert "(1000000000000001, 4)" in captured.err

    def test_lyapunov_epsilon_square_overflow_is_a_false_condition(
            self, tmp_path, capsys):
        text = MINIMAL + "params.epsilon = 1e300\n"
        rc = main(["lyapunov", "--config", self.write(tmp_path, text)])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "condition = false\ncondition_value = -inf\n" in out
        assert "certificate.present = false\n" in out

    def lyapunov_report(self, tmp_path, capsys, beta, mu, gamma, k_r, eps=0.0):
        text = (f"params.beta = {beta!r}\nparams.mu = {mu!r}\n"
                f"params.gamma = {gamma!r}\nparams.k_r = {k_r!r}\n"
                f"params.epsilon = {eps!r}\n")
        rc = main(["lyapunov", "--config", self.write(tmp_path, text)])
        assert rc == EXIT_OK
        return dict(line.split(" = ", 1)
                    for line in capsys.readouterr().out.splitlines())

    def test_lyapunov_below_the_decade_grid_takes_the_closed_form_v3(
            self, tmp_path, capsys):
        # no v3 in {1, ..., 1e-8} satisfies the second inequality here
        out = self.lyapunov_report(tmp_path, capsys, 4.3e-87, 0.998,
                                   1.15e-50, 4.9e-249)
        assert out["condition"] == "true"
        assert 0.0 < float(out["certificate.v3"]) < 1e-8
        assert float(out["certificate.ineq2"]) <= 0.0

    def test_lyapunov_without_a_positive_v3_does_not_hold(self, tmp_path,
                                                          capsys):
        b, m, k = 0.1, 0.2, 2.0
        eps = math.sqrt(2.0 * m * k * (m - b)) * (1.0 - 1e-9)
        out = self.lyapunov_report(tmp_path, capsys, b, m, 0.3, k, eps)
        assert out["condition"] == "true"
        assert out["certificate.holds"] == "false"
        assert float(out["certificate.ineq2"]) > 0.0
        for name in ("v3", "ineq3", "lv_bound"):
            assert out[f"certificate.{name}"] == "none"

    def test_lyapunov_certifies_at_large_k_r(self, tmp_path, capsys):
        # a fixed alpha0 = 1e-6 made lambda1^2 = (2/k_r - alpha0)/... <= 0
        out = self.lyapunov_report(tmp_path, capsys, 0.1, 0.2, 0.3, 3e6)
        assert out["certificate.holds"] == "true"
        assert float(out["certificate.lambda1_sq"]) > 0.0

    def test_lyapunov_certificate_past_the_float_range_does_not_hold(
            self, tmp_path, capsys):
        # v2 = k_r*(2 mu - beta) overflows, so lambda1^2 underflows to 0
        out = self.lyapunov_report(tmp_path, capsys, 0.001, 0.99, 0.5, 1e308)
        assert out["condition"] == "true"
        assert out["certificate.v2"] == "inf"
        assert out["certificate.holds"] == "false"

    def test_lyapunov_margin_survives_epsilon_square_overflow(
            self, tmp_path, capsys):
        # eps^2 and 2 mu k_r both overflow, but their ratio is 0.67
        beta, mu, gamma, k_r, eps = 0.001, 0.99, 0.5, 1.7e308, 1.5e154
        out = self.lyapunov_report(tmp_path, capsys, beta, mu, gamma, k_r, eps)
        b, m, k, e = map(Fraction, (beta, mu, k_r, eps))
        exact = m - b - e * e / (2 * m * k)
        assert 0.32 < exact < 0.33
        assert out["condition"] == "true"
        assert float(out["condition_value"]) == pytest.approx(float(exact),
                                                              rel=1e-12)
        # v2 overflows, so the certificate cannot hold
        assert out["certificate.holds"] == "false"

    @pytest.mark.parametrize("mu, k_r, eps, margin", [
        (1e-160, 1e-160, 1e-240, 5e-161),   # eps^2 underflows
        (1e-160, 1e-160, 1e-162, -5e-5),    # and the condition is false
        (1e-160, 1e-170, 0.0, 1e-160),      # 2 mu k_r underflows to 0
    ])
    def test_lyapunov_margin_survives_underflow(self, tmp_path, capsys, mu,
                                                k_r, eps, margin):
        # margin = mu - beta - eps^2/(2 mu k_r) with beta = 1e-200
        out = self.lyapunov_report(tmp_path, capsys, 1e-200, mu, 0.3, k_r, eps)
        assert float(out["condition_value"]) == pytest.approx(margin,
                                                              rel=1e-12, abs=0)
        assert out["condition"] == ("true" if margin > 0 else "false")

    def test_cubic_overflow_names_the_coefficient(self, tmp_path, capsys):
        # k_r = 1e-300 puts 1/k_r ~ 1e300 into the Jacobian's cubic
        text = ("params.beta = 0.963\nparams.mu = 0.5\nparams.gamma = 0.5\n"
                "params.k_r = 1e-300\nparams.epsilon = 1.08\n")
        rc = main(["stability", "--config", self.write(tmp_path, text)])
        assert rc == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: cubic coefficient a2 = ")
        assert "a2 ** 3 overflows" in err

    def test_free_eigenvalues_at_a_k_r_at_the_float_maximum(self, tmp_path,
                                                            capsys):
        # 4*k_r and 2*k_r overflow; k_r*(mu - beta) and (-c +- sq)/k_r do not
        text = ("params.beta = 2.2250738585072014e-308\nparams.mu = 1e-300\n"
                "params.gamma = 2.2250738585072014e-308\n"
                "params.k_r = 1.7976931348623157e308\nparams.epsilon = 1.0\n")
        rc = main(["stability", "--config", self.write(tmp_path, text)])
        captured = capsys.readouterr()
        assert rc == EXIT_OK
        assert captured.err == ""
        out = dict(line.split(" = ", 1) for line in captured.out.splitlines())
        eigs = [float(out[f"free.eig{j}"]) for j in (1, 2, 3)]
        assert all(math.isfinite(v) and v < 0.0 for v in eigs)
        assert out["free.stable"] == "true"


def python_m(module, *args):
    env = os.environ.copy()
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return subprocess.run([sys.executable, "-m", module, *args],
                          capture_output=True, env=env)


def test_python_m_route_reproduces_a_golden():
    golden = Path(__file__).parent / "golden"
    out = python_m("seirs_delay", "stability",
                   "--config", str(golden / "stability.cfg"))
    assert out.returncode == EXIT_OK
    assert out.stdout == (golden / "stability.report.txt").read_bytes()


def test_python_m_cli_module_route(tmp_path):
    golden = Path(__file__).parent / "golden"
    out = python_m("seirs_delay.cli", "equilibria",
                   "--config", str(golden / "equilibria.cfg"))
    assert out.returncode == EXIT_OK
    assert out.stdout == (golden / "equilibria.report.txt").read_bytes()
    assert out.stderr == b""
    bad = tmp_path / "bad.cfg"
    bad.write_text(ENDEMIC.replace("params.beta = 0.4", "params.beta = 1.5"))
    out = python_m("seirs_delay.cli", "equilibria", "--config", str(bad))
    assert out.returncode == EXIT_VALIDATION
    assert out.stdout == b""
    lines = out.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("validation error: beta")


class TestStderr:
    """A run writes its results and notices to the report; stderr carries
    one line, and only when the run fails."""

    def test_coexistence_golden_writes_nothing_to_stderr(self):
        # three real roots of the frequency cubic although delta < 0
        golden = Path(__file__).parent / "golden"
        out = cli_subprocess(["delay-margin", "--config",
                              str(golden / "delay-margin-coexistence.cfg")])
        assert out.returncode == EXIT_OK
        assert out.stderr == ""
        assert out.stdout == (golden / "delay-margin-coexistence.report.txt"
                              ).read_text()

    def test_ambiguous_crossing_is_one_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("params.beta = 0.8306449774640462\n"
                       "params.mu = 0.7476362268226904\n"
                       "params.gamma = 0.4237487175976112\n"
                       "params.k_r = 6.843460382177602\n"
                       "params.r = 0.2515978081682942\n")
        out = cli_subprocess(["delay-margin", "--config", str(cfg)])
        assert out.returncode == EXIT_NUMERICAL
        assert out.stdout == ""
        assert out.stderr == ("numerical failure: ambiguous crossing: 0 "
                              "positive roots of the frequency cubic\n")

    def test_unknown_key_is_a_report_warning_only(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(MINIMAL + "params.bogus = 1\n")
        # the verbosity variable of earlier versions is ignored
        out = cli_subprocess(["equilibria", "--config", str(cfg)],
                             env=dict(os.environ, SEIRS_DELAY_LOG="info"))
        assert out.returncode == EXIT_OK
        assert out.stderr == ""
        assert ("warning.0 = unknown key 'params.bogus' ignored (line 5)\n"
                in out.stdout)

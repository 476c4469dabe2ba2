"""Config parsing, report rendering, command dispatch and process exit codes."""
import argparse
import itertools
import math
from fractions import Fraction
import os
import subprocess
import sys
from pathlib import Path

import pytest

from seirs_delay import (Params, ValidationError, __version__, cli,
                         make_initial_condition)
from seirs_delay._config import _ECHO, _RUN_KEYS, _parse_argv
from seirs_delay.cli import (COMMANDS, EXIT_NUMERICAL, EXIT_OK, EXIT_PARSE,
                             EXIT_VALIDATION, ParseError, Report, RunConfig,
                             main, parse_config, run)

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


def serialize_config(cfg: RunConfig) -> str:
    """Canonical config document of cfg, without its warnings:
    parse_config(serialize_config(c)) == c._replace(warnings=()).

    A setting that is None (no step, trajectory or rho_grid) is left out."""
    echo = [(key, value, float) for key, value in zip(_ECHO, cfg.params + cfg.initial)]
    settings = [(key, getattr(cfg, name), kind)
                for key, (name, kind) in _RUN_KEYS.items()]
    lines = []
    for key, value, kind in echo + settings:
        if value is None:
            continue
        if kind is tuple:
            value = ", ".join([repr(float(v)) for v in value])
        elif kind is float:
            value = repr(float(value))
        lines.append(f"{key} = {value}\n")
    return "".join(lines)


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

    def test_serialized_text_leaves_out_unset_settings(self):
        assert serialize_config(parse_config(MINIMAL)) == (
            "params.beta = 0.3\nparams.mu = 0.5\nparams.gamma = 0.25\n"
            "params.k_r = 1.0\nparams.r = 0.0\nparams.epsilon = 0.0\n"
            "init.e0 = 0.05\ninit.s0 = 0.9\ninit.i0 = 0.05\ninit.r0 = 0.0\n"
            "run.horizon = 100.0\nensemble.n_rep = 200\nensemble.seed = 0\n")

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


def test_config_keys_are_the_fields_of_params_and_initial_condition():
    from seirs_delay import InitialCondition
    from seirs_delay._config import _DEFAULT_INITIAL

    assert _ECHO == (
        "params.beta", "params.mu", "params.gamma", "params.k_r", "params.r",
        "params.epsilon", "init.e0", "init.s0", "init.i0", "init.r0")
    assert _ECHO == (tuple(f"params.{name}" for name in Params._fields)
                     + tuple(f"init.{name}" for name in InitialCondition._fields))
    assert _DEFAULT_INITIAL == make_initial_condition(0.05, 0.9, 0.05, 0.0)
    # the required keys are the Params fields without a default
    for key in _ECHO:
        text = "".join(line for line in MINIMAL.splitlines(True)
                       if not line.startswith(key))
        if key in ("params.beta", "params.mu", "params.gamma", "params.k_r"):
            with pytest.raises(ValidationError, match=f"missing required key '{key}'"):
                parse_config(text)
        else:
            assert parse_config(text) == parse_config(MINIMAL)


def test_report_keys_are_the_record_fields():
    # the records load lazily, so the analytic commands spell their keys out
    from seirs_delay._analytic_commands import _ABC, _CERTIFICATE, _CROSSING
    from seirs_delay.delay_margin import CrossingReport, CubicABC
    from seirs_delay.lyapunov import LyapunovCertificate

    assert _CROSSING == CrossingReport._fields
    assert _ABC == tuple(f"abc.{name}" for name in CubicABC._fields)
    assert _CERTIFICATE == tuple(f"certificate.{name}"
                                 for name in LyapunovCertificate._fields)


class TestRun:
    def test_unknown_command(self):
        with pytest.raises(ValidationError, match="unknown command"):
            run("bogus", parse_config(MINIMAL))

    def test_run_dispatches_every_command_the_command_line_reads(self):
        assert tuple(cli._DISPATCH) == COMMANDS

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

    @pytest.mark.parametrize("r_star, verdict", [
        (math.nextafter(1.337, math.inf), "stable below critical delay"),
        (1.337, "delay at or beyond critical delay"),
        (1.0, "delay at or beyond critical delay"),
    ])
    def test_delay_margin_verdict_at_the_critical_delay(self, monkeypatch,
                                                        r_star, verdict):
        # no admissible coexistence draw is known to put r* at or below
        # r <= k_r/e, so a stand-in crossing puts it there
        from seirs_delay import cli
        from seirs_delay.delay_margin import CrossingReport

        monkeypatch.setattr(cli, "deg3_crossing", lambda q: CrossingReport(
            omega=0.5, theta=0.5 * r_star, r_star=r_star, residual=0.0))
        golden = Path(__file__).parent / "golden" / "delay-margin-coexistence.cfg"
        cfg = parse_config(golden.read_text())
        assert cfg.params.r == 1.337
        text = run("delay-margin", cfg).render()
        assert f"r_star = {r_star:.17g}\n" in text
        assert text.endswith(f"verdict = {verdict}\n")

    def test_delay_margin_unstable_at_zero_delay(self, monkeypatch):
        # no admissible coexistence point is known to fail Routh-Hurwitz at
        # r = 0, so a stand-in test fails it, first on a draw whose
        # frequency cubic has no positive root
        from seirs_delay import cli

        monkeypatch.setattr(cli, "zero_delay_stable", lambda q: False)
        text = run("delay-margin", parse_config(
            "params.beta = 0.8306449774640462\n"
            "params.mu = 0.7476362268226904\n"
            "params.gamma = 0.4237487175976112\n"
            "params.k_r = 6.843460382177602\n")).render()
        assert text.endswith("instability_possible = false\n"
                             "crossing.found = false\n"
                             "verdict = unstable for all delays\n")
        # a crossing does not make stability possible to lose either
        golden = Path(__file__).parent / "golden" / "delay-margin-coexistence.cfg"
        text = run("delay-margin", parse_config(golden.read_text())).render()
        assert "instability_possible = false\ncrossing.found = true\n" in text

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

    @pytest.mark.parametrize("command", ["simulate", "simulate-sde"])
    def test_unwritable_out_leaves_the_trajectory_as_it_was(self, command,
                                                            tmp_path, capsys):
        # the report's destination is checked before the first step
        dest = tmp_path / "traj.csv"
        dest.write_bytes(b"an earlier run\n")
        report = tmp_path / "missing" / "report.txt"
        text = ENDEMIC + f"params.epsilon = 0.05\nrun.trajectory = {dest}\n"
        rc = main([command, "--config", self.write(tmp_path, text),
                   "--out", str(report)])
        assert rc == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err == (
            f"validation error: cannot write {str(report)!r}: "
            "No such file or directory\n")
        assert captured.out == ""
        assert dest.read_bytes() == b"an earlier run\n"
        assert sorted(os.listdir(tmp_path)) == ["run.cfg", "traj.csv"]

    @pytest.mark.parametrize("through_a_link", [False, True])
    @pytest.mark.parametrize("command", ["simulate", "simulate-sde"])
    def test_out_naming_the_trajectory_file_is_refused(self, command,
                                                       through_a_link,
                                                       tmp_path, capsys):
        # the report would replace the path; refused before the first step
        dest = tmp_path / "traj.csv"
        dest.write_bytes(b"an earlier run\n")
        report = dest
        if through_a_link:
            report = tmp_path / "link.csv"
            report.symlink_to(dest)
        text = ENDEMIC + f"params.epsilon = 0.05\nrun.trajectory = {dest}\n"
        rc = main([command, "--config", self.write(tmp_path, text),
                   "--out", str(report)])
        assert rc == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err == (
            f"validation error: --out {str(report)!r} and run.trajectory "
            f"{str(dest)!r} name the same file\n")
        assert captured.out == ""
        assert dest.read_bytes() == b"an earlier run\n"
        assert sorted(os.listdir(tmp_path)) == sorted(
            ["run.cfg", "traj.csv"] + ["link.csv"] * through_a_link)

    @pytest.mark.parametrize("through_a_link", [False, True])
    @pytest.mark.parametrize("command, key", [
        ("stability", "--out"), ("simulate", "--out"),
        ("simulate", "run.trajectory"), ("simulate-sde", "run.trajectory")])
    def test_a_destination_naming_the_config_is_refused(
            self, command, key, through_a_link, tmp_path, capsys):
        # the report or the path would replace the config; refused before
        # anything is written
        cfg = tmp_path / "run.cfg"
        dest = cfg
        if through_a_link:
            dest = tmp_path / "link.cfg"
            dest.symlink_to(cfg)
        text = ENDEMIC + "params.epsilon = 0.05\n"
        argv = [command, "--config", str(cfg)]
        if key == "--out":
            argv += ["--out", str(dest)]
        else:
            text += f"run.trajectory = {dest}\n"
        cfg.write_text(text)
        assert main(argv) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err == (
            f"validation error: {key} {str(dest)!r} and --config "
            f"{str(cfg)!r} name the same file\n")
        assert captured.out == ""
        assert cfg.read_text() == text
        assert sorted(os.listdir(tmp_path)) == sorted(
            ["run.cfg"] + ["link.cfg"] * through_a_link)

    def test_out_may_name_the_trajectory_of_a_command_that_writes_none(
            self, tmp_path, capsys):
        dest = tmp_path / "report.txt"
        text = ENDEMIC + f"run.trajectory = {dest}\n"
        rc = main(["equilibria", "--config", self.write(tmp_path, text),
                   "--out", str(dest)])
        assert (rc, capsys.readouterr()) == (EXIT_OK, ("", ""))
        assert dest.read_text().startswith("command = equilibria\n")

    def test_a_nan_node_is_a_numerical_failure(self, tmp_path, capsys):
        # E / k_r overflows on the first step and the node sums to NaN
        dest = tmp_path / "traj.csv"
        text = (MINIMAL.replace("params.beta = 0.3", "params.beta = 0.4")
                .replace("params.mu = 0.5", "params.mu = 0.2")
                .replace("params.gamma = 0.25", "params.gamma = 0.1")
                .replace("params.k_r = 1.0", "params.k_r = 1e-300")
                + f"run.horizon = 1.0\nrun.step = 0.01\n"
                f"run.trajectory = {dest}\n")
        rc = main(["simulate", "--config", self.write(tmp_path, text)])
        assert rc == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.err == ("numerical failure: component sum drifted "
                                "beyond 1e-10 at node 1\n")
        assert captured.out == ""
        assert sorted(os.listdir(tmp_path)) == ["run.cfg"]

    # (r, e0, i0, r0, max_sum_defect, min_component): a start that holds
    # zeros of both signs, its minimum, or a disease-free one, whose E and
    # I stay +0.0; a zero minimum is IEEE 754-2019 minimum's, -0 when the
    # path holds a -0.0
    SIGNED_ZEROS = [
        (0.0, "0.0", "0.05", "-0.0", "4.4408920985006262e-16", "-0"),
        (0.0, "-0.0", "0.05", "0.0", "4.4408920985006262e-16", "-0"),
        (0.05, "0.0", "0.05", "-0.0", "4.4408920985006262e-16", "-0"),
        (0.05, "-0.0", "0.05", "0.0", "4.4408920985006262e-16", "-0"),
        (0.0, "0.0", "0.0", "0.05", "6.6613381477509392e-16", "0"),
        (0.0, "-0.0", "0.0", "0.05", "6.6613381477509392e-16", "-0"),
        (0.05, "-0.0", "0.0", "0.05", "6.6613381477509392e-16", "-0")]

    @pytest.mark.parametrize("r,e0,i0,r0,defect,low", SIGNED_ZEROS)
    def test_signed_zero_minimum_reports(self, r, e0, i0, r0, defect, low,
                                         tmp_path, capsys):
        text = (ENDEMIC.replace("params.r = 0.5", f"params.r = {r!r}")
                .replace("run.horizon = 20.0", "run.horizon = 1.0")
                + f"init.e0 = {e0}\ninit.s0 = 0.95\ninit.i0 = {i0}\n"
                f"init.r0 = {r0}\n")
        assert main(["simulate", "--config",
                     self.write(tmp_path, text)]) == EXIT_OK
        out = capsys.readouterr().out
        assert (f"max_sum_defect = {defect}\nmin_component = {low}\n"
                in out)

    # ENDEMIC at eps = 0.8, seed 4: E leaves the band at step 1118, in the
    # third 512-step window of the stream
    EXCURSION = (ENDEMIC + "params.epsilon = 0.8\nensemble.seed = 4\n")

    def test_unwritable_sde_trajectory(self, tmp_path, capsys):
        # the destination is checked before the first step, so a run that
        # would also leave the band exits 3, not 4
        dest = tmp_path / "missing" / "traj.csv"
        text = self.EXCURSION + f"run.trajectory = {dest}\n"
        rc = main(["simulate-sde", "--config", self.write(tmp_path, text)])
        assert rc == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err == (f"validation error: cannot write {str(dest)!r}: "
                                "No such file or directory\n")
        assert captured.out == ""

    def test_failed_run_leaves_the_destination_as_it_was(self, tmp_path,
                                                         capsys):
        out = tmp_path / "out"
        out.mkdir()
        dest = out / "traj.csv"
        dest.write_bytes(b"an earlier run\n")
        text = self.EXCURSION + f"run.trajectory = {dest}\n"
        rc = main(["simulate-sde", "--config", self.write(tmp_path, text)])
        assert rc == EXIT_NUMERICAL
        assert "at step 1118 " in capsys.readouterr().err
        assert dest.read_bytes() == b"an earlier run\n"
        assert os.listdir(out) == ["traj.csv"]

    @pytest.mark.parametrize("command", ["simulate", "simulate-sde"])
    def test_symlinked_destination_stays_a_link(self, command, tmp_path,
                                                capsys):
        target = tmp_path / "target.csv"
        target.write_text("old\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        text = ENDEMIC + f"run.trajectory = {link}\n"
        assert main([command, "--config", self.write(tmp_path, text)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert link.is_symlink() and link.resolve() == target
        lines = target.read_text().splitlines()
        assert lines[0] == "t,S,E,I,R" and len(lines) == 2002

    @pytest.mark.parametrize("command", ["simulate", "simulate-sde"])
    def test_destination_keeps_its_mode_bits(self, command, tmp_path, capsys):
        dest = tmp_path / "traj.csv"
        dest.write_text("old\n")
        dest.chmod(0o604)
        text = ENDEMIC + f"run.trajectory = {dest}\n"
        assert main([command, "--config", self.write(tmp_path, text)]) == EXIT_OK
        assert dest.read_text().count("\n") == 2002
        assert dest.stat().st_mode & 0o7777 == 0o604

    def test_destination_that_is_not_a_file_is_written_in_place(
            self, tmp_path, capsys):
        text = ENDEMIC + "params.epsilon = 0.05\nrun.trajectory = /dev/null\n"
        rc = main(["simulate-sde", "--config", self.write(tmp_path, text)])
        assert rc == EXIT_OK
        assert "trajectory_file = /dev/null\n" in capsys.readouterr().out
        assert Path("/dev/null").is_char_device()

    def test_destination_that_is_a_directory(self, tmp_path, capsys):
        text = ENDEMIC + f"run.trajectory = {tmp_path}\n"
        rc = main(["simulate", "--config", self.write(tmp_path, text)])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"validation error: cannot write {str(tmp_path)!r}: "
            "Is a directory\n")

    def test_read_only_destination_is_not_replaced(self, tmp_path, capsys,
                                                   monkeypatch):
        # os.access stands in for a file this process may not write (root
        # may write any file)
        dest = tmp_path / "traj.csv"
        dest.write_text("old\n")
        monkeypatch.setattr(os, "access", lambda path, mode: False)
        text = ENDEMIC + f"run.trajectory = {dest}\n"
        rc = main(["simulate", "--config", self.write(tmp_path, text)])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"validation error: cannot write {str(dest)!r}: "
            "Permission denied\n")
        assert dest.read_text() == "old\n"

    def test_temporary_name_in_use_is_skipped(self, tmp_path, capsys):
        dest = tmp_path / "traj.csv"
        taken = tmp_path / f".traj.csv.{os.getpid()}-0.tmp"
        taken.write_text("another writer's\n")
        text = ENDEMIC + f"run.trajectory = {dest}\n"
        assert main(["simulate", "--config", self.write(tmp_path, text)]) == EXIT_OK
        assert dest.read_text().count("\n") == 2002
        assert taken.read_text() == "another writer's\n"
        assert sorted(os.listdir(tmp_path)) == sorted(
            [taken.name, "run.cfg", "traj.csv"])

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

    @pytest.mark.parametrize("r", [0.0, 0.5])
    def test_sde_trajectory_csv_reads_back_every_node(self, r, tmp_path,
                                                      capsys):
        # 1201 nodes: 10 noise chunks of the path and 3 writer chunks; the
        # CSV's times are built chunk by chunk and its rows are the path's
        from seirs_delay import Seed, simulate_sde
        from seirs_delay.det_integrator import _WINDOW
        from seirs_delay.sde_simulator import _NOISE_CHUNK

        dest = tmp_path / "traj.csv"
        text = (ENDEMIC.replace("params.r = 0.5", f"params.r = {r!r}")
                .replace("run.horizon = 20.0", "run.horizon = 12.0")
                + f"params.epsilon = 0.05\nensemble.seed = 3\n"
                f"run.trajectory = {dest}\n")
        cfg = parse_config(text)
        traj = simulate_sde(cfg.params, cfg.initial, cfg.horizon, 0.01,
                            Seed(3))
        assert len(traj) > max(3 * _NOISE_CHUNK, 2 * _WINDOW)
        assert main(["simulate-sde", "--config",
                     self.write(tmp_path, text)]) == EXIT_OK
        lines = dest.read_text().splitlines()
        assert lines[0] == "t,S,E,I,R"
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        assert rows == [[t, *x] for t, x in zip(traj.times.tolist(),
                                                traj.states.tolist())]

    @pytest.mark.parametrize("command, r", [("simulate", 0.0),
                                            ("simulate", 0.5),
                                            ("simulate-sde", 0.0),
                                            ("simulate-sde", 0.5)])
    def test_trajectory_csv_bytes(self, command, r, tmp_path, capsys):
        # 1201 nodes, three writer chunks: the bytes of the library path's
        # nodes and times, each float as repr writes it
        from seirs_delay import Seed, integrate_dde, integrate_ode, simulate_sde

        dest = tmp_path / "traj.csv"
        text = (ENDEMIC.replace("params.r = 0.5", f"params.r = {r!r}")
                .replace("run.horizon = 20.0", "run.horizon = 12.0")
                + f"params.epsilon = 0.05\nensemble.seed = 3\n"
                f"run.trajectory = {dest}\n")
        assert main([command, "--config",
                     self.write(tmp_path, text)]) == EXIT_OK
        cfg = parse_config(text)
        if command == "simulate-sde":
            traj = simulate_sde(cfg.params, cfg.initial, cfg.horizon, 0.01,
                                Seed(3))
        elif r:
            traj = integrate_dde(cfg.params, cfg.initial, cfg.horizon, 0.01)
        else:
            traj = integrate_ode(cfg.params, cfg.initial.state0(),
                                 cfg.horizon, 0.01)
        assert dest.read_text() == "t,S,E,I,R\n" + "".join(
            f"{t!r},{s!r},{e!r},{i!r},{rc!r}\n" for t, (s, e, i, rc)
            in zip(traj.times.tolist(), traj.states.tolist()))

    # (command, r, n steps, r0): paths, seeded for simulate-sde, whose steps
    # end inside, at and past the 512-step windows, without and with a
    # delay; then disease-free starts (r0 given), whose minimum is a zero:
    # +0.0 throughout, or -0.0 at node 0 alone
    PATH_RUNS = [
        *((command, r, n, None) for command in ("simulate-sde", "simulate")
          for r in (0.0, 0.5) for n in (511, 512, 513, 1025)),
        *((command, r, 513, r0) for command in ("simulate", "simulate-sde")
          for r in (0.0, 0.5) for r0 in ("0.0", "-0.0"))]

    @pytest.mark.parametrize("command,r,n,r0", PATH_RUNS)
    def test_path_reductions_are_those_of_the_written_csv(
            self, command, r, n, r0, tmp_path, capsys):
        # the report's max_sum_defect and min_component are numpy's
        # reductions of the CSV read back, bit for bit, a zero minimum's
        # sign IEEE 754-2019 minimum's
        import numpy as np

        from _oracles import path_reductions

        dest = tmp_path / "traj.csv"
        text = (ENDEMIC.replace("params.r = 0.5", f"params.r = {r!r}")
                .replace("run.horizon = 20.0", f"run.horizon = {n / 100!r}")
                + f"params.epsilon = 0.1\nensemble.seed = {n}\n"
                + f"run.trajectory = {dest}\n")
        if r0 is not None:
            text += ("init.s0 = 1.0\ninit.e0 = 0.0\ninit.i0 = 0.0\n"
                     f"init.r0 = {r0}\n")
        assert main([command, "--config",
                     self.write(tmp_path, text)]) == EXIT_OK
        report = dict(line.split(" = ", 1)
                      for line in capsys.readouterr().out.splitlines())
        x = np.array([[float(v) for v in line.split(",")[1:]]
                      for line in dest.read_text().splitlines()[1:]])
        assert len(x) == n + 1 == int(report["nodes"])
        defect, low = path_reductions(x)
        assert (report["max_sum_defect"], report["min_component"]) == (
            "%.17g" % defect, "%.17g" % low)
        if r0 is not None:
            assert report["min_component"] == {"0.0": "0", "-0.0": "-0"}[r0]

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
        # a delay of m = 1e15 steps: the delay ring holds the (E, E') of
        # m + 1 nodes, which fit the index type but no address space, so it
        # fails to allocate before the first step
        text = ("params.beta = 0.4\nparams.mu = 0.2\nparams.gamma = 0.1\n"
                "params.k_r = 1e14\nparams.r = 1e13\nrun.horizon = 1e13\n"
                "run.step = 0.01\n")
        rc = main(["simulate", "--config", self.write(tmp_path, text)])
        assert rc == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("validation error: out of memory: ")
        assert ("16000000000000016 bytes of a buffer of shape "
                "(1000000000000001, 2)") in captured.err

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

    def test_delay_margin_refuses_a_crossing_off_by_rounding_at_its_scale(
            self, tmp_path, capsys):
        # the located omega is 8.0019e-161 where the exact one is 8e-161: an
        # absolute residual of 1e-164, but 1.2e-4 of the terms' scale
        text = ("params.beta = 0.1\nparams.mu = 0.5\nparams.gamma = 0.3\n"
                "params.k_r = 1e160\nparams.r = 1.0\n")
        rc = main(["delay-margin", "--config", self.write(tmp_path, text)])
        assert rc == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical failure: crossing residual ")
        assert "exceeds 1e-09 times the scale 8.00" in captured.err

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

    @pytest.mark.parametrize("k_r", ["1e7", "1e10"])
    def test_free_delay_margin_at_a_large_k_r(self, tmp_path, capsys, k_r):
        # 1/k_r^2 is far below mu^2, where omega^2 and M cancelled: at 1e10
        # omega^2 came out 0 and the margin divided by zero
        text = FREE.replace("params.mu = 0.2", "params.mu = 0.5").replace(
            "params.k_r = 2.0", f"params.k_r = {k_r}").replace(
            "params.r = 0.5", "params.r = 1.0")
        rc = main(["delay-margin", "--config", self.write(tmp_path, text)])
        captured = capsys.readouterr()
        assert (rc, captured.err) == (EXIT_OK, "")
        out = dict(line.split(" = ", 1) for line in captured.out.splitlines())
        bound, half_pi_k_r, margin, r_star = (float(out[key]) for key in (
            "max_admissible_delay", "half_pi_k_r", "margin", "r_star"))
        assert bound < half_pi_k_r <= margin <= r_star
        assert out["verdict"] == "stable for all admissible delays"


def reference_parser():
    """The parser main used for every argv before it read a well-formed one
    itself, as it was then."""
    ap = argparse.ArgumentParser(
        prog="seirs-delay",
        description="Simulation and stability analysis of a latency-delayed "
                    "SEIRS model")
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("--config", required=True, help="config document path")
    ap.add_argument("--out", help="write the report here instead of stdout")
    ap.add_argument("--seed", type=int, help="override ensemble.seed")
    ap.add_argument("--reps", type=int, help="override ensemble.n_rep")
    ap.add_argument("--version", action="version", version=__version__)
    return ap


# the units of the generated command lines: a command name, an option with
# its value, or one lone argument
ARGV_UNITS = ([[command] for command in (*COMMANDS, "bogus")]
              + [["--config", "c.cfg"], ["--config=c.cfg"], ["--conf", "c.cfg"],
                 ["--out", "o.txt"], ["--seed", "7"], ["--seed", "-1"],
                 ["--seed", "1_0"], ["--reps", "x"], ["--"], ["-h"],
                 ["--version"], [""], ["--seed"]])
# every command line of at most two units, then those of three
SHORT_ARGV = [sum(units, []) for n in range(3)
              for units in itertools.product(ARGV_UNITS, repeat=n)]
# longer command lines: five well-formed ones, then repeats and mistakes
LONG_ARGV = [
    ["simulate-sde", "--config", "c.cfg", "--out", "o.txt", "--seed", "7",
     "--reps", "3"],
    ["--reps", "3", "--seed", "7", "--out", "o.txt", "--config", "c.cfg",
     "concentration"],
    ["--seed", " 7 ", "stability", "--reps", "٣", "--config", "c.cfg"],
    ["lyapunov", "--config", "stability"],
    ["equilibria", "--config", "", "--out", ""],
    ["equilibria", "--config", "c.cfg", "--config", "c.cfg"],
    ["equilibria", "--config", "c.cfg", "--out", "o.txt", "--out", "o.txt"],
    ["equilibria", "--config", "c.cfg", "--out", "", "--out", "o.txt"],
    ["equilibria", "--config", "c.cfg", "--seed", "7", "--seed", "7"],
    ["equilibria", "--config", "c.cfg", "--reps", "3", "--reps", "4"],
    ["equilibria", "--config", "c.cfg", "--reps", "-3"],
    ["equilibria", "--config", "c.cfg", "--reps", "3.0"],
    ["equilibria", "--config", "c.cfg", "--out", "-"],
    ["stability", "--config", "c.cfg", "--out", "-x"],
    ["equilibria", "--out", "--config", "--config", "c.cfg"],
    ["equilibria", "--config", "c.cfg", "--", "--out", "o.txt"],
    ["equilibria", "--config", "c.cfg", "equilibria"],
    ["simulate-sde", "--config=c.cfg", "--out", "o.txt", "--seed", "-1"],
]
ARGV = (SHORT_ARGV + [sum(units, []) for units
                      in itertools.product(ARGV_UNITS, repeat=3)] + LONG_ARGV)


def test_the_fast_path_agrees_with_argparse(capsys):
    parser = reference_parser()
    accepted = 0
    for argv in ARGV:
        args = _parse_argv(argv)
        if args is None:
            continue
        # so argparse exits on no argv the fast path accepts: an argv it
        # answers or rejects is deferred
        try:
            parsed = vars(parser.parse_args(argv))
        except SystemExit as exc:
            pytest.fail(f"argparse exits {exc.code} on the accepted {argv}")
        assert vars(args) == parsed, argv
        accepted += 1
    # the 7 commands, each with --config in 2 orders, and with --config and
    # one of --out, --seed 7 or --seed 1_0 in 6 orders; and the first 5 of
    # LONG_ARGV
    assert accepted == 7 * (2 + 3 * 6) + 5
    assert capsys.readouterr() == ("", "")


def test_a_deferred_argv_goes_to_argparse_as_it_came(monkeypatch, capsys):
    seen = []

    class Parser:
        def parse_args(self, argv):
            seen.append(argv)
            raise SystemExit(2)

    monkeypatch.setattr(cli, "_parser", Parser)
    deferred = [argv for argv in ARGV if _parse_argv(argv) is None]
    for argv in deferred:
        with pytest.raises(SystemExit):
            main(argv)
    assert seen == deferred
    assert capsys.readouterr() == ("", "")


def test_a_deferred_argv_gives_the_bytes_of_argparse(monkeypatch, tmp_path,
                                                     capsys):
    # the code, stdout, stderr and report file of main, and of main with
    # every argv parsed by reference_parser
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.cfg").write_text(
        MINIMAL.replace("params.k_r = 1.0", "params.k_r = 2.0\nparams.epsilon = 0.1")
        + "run.horizon = 0.5\nrun.step = 0.1\nensemble.n_rep = 20\n")
    report = tmp_path / "o.txt"

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        written = report.read_text() if report.exists() else None
        report.unlink(missing_ok=True)
        return code, *capsys.readouterr(), written

    parser = reference_parser()
    outcomes = set()
    for argv in SHORT_ARGV + LONG_ARGV:
        if _parse_argv(argv) is not None:
            continue
        got = outcome(argv)
        with monkeypatch.context() as m:
            m.setattr(cli, "_parse_argv", lambda argv: None)
            m.setattr(cli, "_parser", lambda: parser)
            assert outcome(argv) == got, argv
        outcomes.add(got[0])
    assert outcomes == {0, 2, 3}


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

    def test_no_positive_root_writes_nothing_to_stderr(self, tmp_path):
        # three real roots of the frequency cubic, none positive: no root
        # crosses at any delay, so the verdict is the zero-delay one
        cfg = tmp_path / "run.cfg"
        cfg.write_text("params.beta = 0.8306449774640462\n"
                       "params.mu = 0.7476362268226904\n"
                       "params.gamma = 0.4237487175976112\n"
                       "params.k_r = 6.843460382177602\n"
                       "params.r = 0.2515978081682942\n")
        out = cli_subprocess(["delay-margin", "--config", str(cfg)])
        assert out.returncode == EXIT_OK
        assert out.stderr == ""
        assert out.stdout.endswith("crossing.found = false\n"
                                   "verdict = stable for all delays\n")

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

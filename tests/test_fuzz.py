"""A seeded fuzz gate over main, for the lyapunov, equilibria, delay-margin,
simulate and simulate-sde commands.

Configs come from four families: moderate uniform draws, log-uniform draws
over 1e+-300, boundary values (beta = mu, subnormals, eps = 0, r = 0 and
k_r = r*e exactly) and malformed documents; the commands meet the same
draws. An admissible config must exit 0 (for lyapunov, which is nondelayed,
only with r = 0); any other must exit 2 (malformed) or 3 (inadmissible)
with one stderr line that names the offending key; none may raise.
delay-margin is gated on the moderate and malformed families only: on the
other two it still fails at extreme scales and refuses beta = mu (ROADMAP
item 6). So are the run commands, whose documents add a horizon of
2r (1 at r = 0), about 100 steps at the default step, and a
run.trajectory, which must hold the header and every node after exit 0 and
not exist after any other exit. An admissible run may also exit 4 with the
one line of an invariant breach or an excursion, which names its node or
step.
"""
import math
import random
import re

import pytest

from seirs_delay.cli import (EXIT_NUMERICAL, EXIT_OK, EXIT_PARSE,
                             EXIT_VALIDATION, main)

TINY = 5e-324          # the smallest subnormal
KEYS = ("beta", "mu", "gamma", "k_r", "r", "epsilon")
N_PER_FAMILY = 200
RUN_COMMANDS = ("simulate", "simulate-sde")
# the stderr line of an IntegrationError or an ExcursionError
PATH_FAILURE = re.compile(
    r"numerical failure: .* at (node|step) \d+( \(replica \d+\))?\n")


def bad_keys(v, command):
    """The keys of the rates v that command rejects, in KEYS order."""
    bad = [k for k in ("beta", "mu", "gamma") if not 0.0 < v[k] < 1.0]
    if not 0.0 < v["k_r"] < math.inf:
        bad.append("k_r")
    if not 0.0 <= v["r"] < math.inf:
        bad.append("r")
    elif v["r"] > 0.0 and not v["k_r"] >= v["r"] * math.e:
        bad.append("k_r")
    if not 0.0 <= v["epsilon"] < math.inf:
        bad.append("epsilon")
    if command == "lyapunov" and not bad and v["r"] != 0.0:
        return ["r"]   # the lyapunov analysis is nondelayed
    return bad


def document(v, command):
    """The rates v, and for a run command the horizon, as a config."""
    lines = [f"params.{k} = {v[k]!r}\n" for k in KEYS]
    if command in RUN_COMMANDS:
        horizon = 2.0 * v["r"] if v["r"] > 0.0 else 1.0
        lines.append(f"run.horizon = {horizon!r}\n")
    return lines


def numeric(v, command):
    """(config text, expected exit code, keys the error must name)."""
    bad = bad_keys(v, command)
    return "".join(document(v, command)), EXIT_VALIDATION if bad else EXIT_OK, bad


def moderate(rng, command):
    v = {k: rng.uniform(0.001, 0.999) for k in ("beta", "mu", "gamma")}
    v["k_r"] = rng.uniform(0.01, 10.0)
    v["r"] = 0.0 if rng.random() < 0.8 else rng.uniform(0.0, v["k_r"] / math.e)
    v["epsilon"] = rng.uniform(0.0, 2.0)
    return numeric(v, command)


def log_uniform(rng, command):
    def draw(lo, hi):
        return 10.0 ** rng.uniform(lo, hi)
    v = {k: draw(-300.0, 0.3) for k in ("beta", "mu", "gamma")}
    v["k_r"] = draw(-300.0, 300.0)
    v["r"] = 0.0 if rng.random() < 0.7 else draw(-300.0, 300.0)
    v["epsilon"] = 0.0 if rng.random() < 0.2 else draw(-300.0, 300.0)
    return numeric(v, command)


BOUNDARY_RATES = (TINY, 2.2250738585072014e-308, 1e-300, 0.5, 0.99,
                  math.nextafter(1.0, 0.0))
BOUNDARY_SCALES = (TINY, 1e-300, 1.0, 1e300, 1.7976931348623157e308, 0.0)


def boundary(rng, command):
    v = {k: rng.choice(BOUNDARY_RATES) for k in ("beta", "mu", "gamma")}
    roll = rng.random()
    if roll < 0.3:
        v["mu"] = v["beta"]
    elif roll < 0.45:
        v[rng.choice(("beta", "mu", "gamma"))] = rng.choice((0.0, 1.0))
    v["k_r"] = rng.choice(BOUNDARY_SCALES)
    v["epsilon"] = rng.choice((0.0,) + BOUNDARY_SCALES)
    v["r"] = 0.0
    if rng.random() < 0.2:
        v["r"] = rng.choice((TINY, 1.0, 1e300))
        v["k_r"] = v["r"] * math.e
    return numeric(v, command)


def malformed(rng, command):
    """A moderate r = 0 document with one line broken."""
    v = {k: rng.uniform(0.01, 0.99) for k in ("beta", "mu", "gamma")}
    v.update(k_r=rng.uniform(0.1, 10.0), r=0.0, epsilon=rng.uniform(0.0, 1.0))
    lines = document(v, command)
    j = rng.randrange(len(KEYS))
    key = KEYS[j]
    kind = rng.choice(("no equals", "not a number", "empty value", "duplicate",
                       "missing", "non-finite", "out of range", "unknown key"))
    code = EXIT_PARSE
    if kind == "no equals":
        lines[j] = lines[j].replace(" = ", " ")
    elif kind == "not a number":
        lines[j] = f"params.{key} = {rng.choice(('fast', '0.1.2', '1e', '--1'))}\n"
    elif kind == "empty value":
        lines[j] = f"params.{key} =\n"
    elif kind == "duplicate":
        lines.append(lines[j])
    elif kind == "missing":
        key = KEYS[j % 4]   # r and epsilon have defaults
        del lines[j % 4]
        code = EXIT_VALIDATION
    elif kind == "non-finite":
        lines[j] = f"params.{key} = {rng.choice(('nan', 'inf', '-inf'))}\n"
        code = EXIT_VALIDATION
    elif kind == "out of range":
        lines[j] = f"params.{key} = {rng.choice(('-1.0', '-1e-300'))}\n"
        code = EXIT_VALIDATION
    else:
        lines.append("params.bogus = 1.0\n")
        return "".join(lines), EXIT_OK, []
    return "".join(lines), code, [key]


FAMILIES = {"moderate": moderate, "log-uniform": log_uniform,
            "boundary": boundary, "malformed": malformed}


def exits_cleanly(command, family, tmp_path, capsys):
    rng = random.Random(f"{command} {family}")
    cfg = tmp_path / "fuzz.cfg"
    csv = tmp_path / "traj.csv"
    codes = set()
    for _ in range(N_PER_FAMILY):
        text, code, keys = FAMILIES[family](rng, command)
        if command in RUN_COMMANDS:
            text += f"run.trajectory = {csv}\n"
            csv.unlink(missing_ok=True)
        cfg.write_text(text)
        try:
            rc = main([command, "--config", str(cfg)])
        except Exception as exc:   # a traceback at the command line
            pytest.fail(f"{text!r} raised {exc!r}")
        out, err = capsys.readouterr()
        codes.add(rc)
        if command in RUN_COMMANDS:
            # the trajectory is written whole, or not at all, and no
            # temporary file stays behind
            if rc == EXIT_OK:
                nodes = int(re.search(r"^nodes = (\d+)$", out, re.M)[1])
                assert csv.read_text().count("\n") == nodes + 1, text
            else:
                assert not csv.exists(), (text, err)
            assert {p.name for p in tmp_path.iterdir()} <= {cfg.name,
                                                            csv.name}, text
        if rc == EXIT_NUMERICAL and code == EXIT_OK and command in RUN_COMMANDS:
            assert out == "" and PATH_FAILURE.fullmatch(err), (text, err)
            continue
        assert rc == code, (text, err)
        if code == EXIT_OK:
            assert out.startswith(f"command = {command}\n") and err == "", text
        else:
            assert out == "" and err.count("\n") == 1, (text, err)
            for key in keys:
                assert re.search(rf"\b{key}\b", err), (text, err)
    return codes


@pytest.mark.parametrize("family", FAMILIES)
def test_lyapunov_exits_cleanly(family, tmp_path, capsys):
    codes = exits_cleanly("lyapunov", family, tmp_path, capsys)
    # every family reaches more than one outcome
    assert len(codes) >= 2


@pytest.mark.parametrize("family", FAMILIES)
def test_equilibria_exits_cleanly(family, tmp_path, capsys):
    codes = exits_cleanly("equilibria", family, tmp_path, capsys)
    # every moderate draw is admissible once r > 0 is; every other family
    # reaches more than one outcome
    assert codes == {EXIT_OK} if family == "moderate" else len(codes) >= 2


@pytest.mark.parametrize("family", ["moderate", "malformed"])
def test_delay_margin_exits_cleanly(family, tmp_path, capsys):
    codes = exits_cleanly("delay-margin", family, tmp_path, capsys)
    assert codes == {EXIT_OK} if family == "moderate" else len(codes) >= 2


@pytest.mark.parametrize("command", RUN_COMMANDS)
@pytest.mark.parametrize("family", ["moderate", "malformed"])
def test_run_commands_exit_cleanly(command, family, tmp_path, capsys):
    codes = exits_cleanly(command, family, tmp_path, capsys)
    assert EXIT_OK in codes if family == "moderate" else len(codes) >= 2

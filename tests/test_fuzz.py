"""A seeded fuzz gate over main, for the lyapunov and equilibria commands.

Configs come from four families: moderate uniform draws, log-uniform draws
over 1e+-300, boundary values (beta = mu, subnormals, eps = 0, r = 0 and
k_r = r*e exactly) and malformed documents; both commands meet the same
draws. An admissible config must exit 0 (for lyapunov, which is nondelayed,
only with r = 0); any other must exit 2 (malformed) or 3 (inadmissible)
with one stderr line that names the offending key; none may raise.
"""
import math
import random
import re

import pytest

from seirs_delay.cli import EXIT_OK, EXIT_PARSE, EXIT_VALIDATION, main

TINY = 5e-324          # the smallest subnormal
KEYS = ("beta", "mu", "gamma", "k_r", "r", "epsilon")
N_PER_FAMILY = 200


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


def document(v):
    return "".join(f"params.{k} = {v[k]!r}\n" for k in KEYS)


def numeric(v, command):
    """(config text, expected exit code, keys the error must name)."""
    bad = bad_keys(v, command)
    return document(v), EXIT_VALIDATION if bad else EXIT_OK, bad


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
    lines = document(v).splitlines(True)
    j = rng.randrange(len(lines))
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
    codes = set()
    for _ in range(N_PER_FAMILY):
        text, code, keys = FAMILIES[family](rng, command)
        cfg.write_text(text)
        try:
            rc = main([command, "--config", str(cfg)])
        except Exception as exc:   # a traceback at the command line
            pytest.fail(f"{text!r} raised {exc!r}")
        out, err = capsys.readouterr()
        assert rc == code, (text, err)
        codes.add(rc)
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

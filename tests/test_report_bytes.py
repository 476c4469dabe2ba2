"""Byte pins of the front end: config text through parse_config, run and
render, for the four analytic commands.

A seeded panel of moderate documents (varied key order, spacing, comments,
unknown keys and optional settings) is rendered and hashed as a whole, so
any change to the scanner, the checks, the commands or the formatting of a
single value changes the digest. The digest was recorded before the front
end was last rewritten; a deliberate change to the report format must
re-record it. Errors are pinned as exact text.
"""
import hashlib
import math
import random
import re

import pytest

from seirs_delay.cli import EXIT_PARSE, EXIT_VALIDATION, main, parse_config, run

COMMANDS = ("equilibria", "stability", "delay-margin", "lyapunov")
N_DRAWS = 200
PANEL_SHA256 = "fca3a90b5deefd03d5a24c80c7fa348bea648e683350627e5bd26475cb21f7b0"
DELAY_KEY = re.compile(r"^(\s*)params\.r\b", re.M)


def document(rng):
    """A moderate config document in a random layout."""
    beta, mu, gamma = (rng.uniform(0.02, 0.98) for _ in range(3))
    k_r = math.exp(rng.uniform(math.log(0.5), math.log(25.0)))
    r = 0.0 if rng.random() < 0.2 else rng.uniform(0.0, 0.999) * k_r / math.e
    e0, i0, r0 = (rng.uniform(0.0, 0.1) for _ in range(3))
    pairs = [("params.beta", repr(beta)), ("params.mu", repr(mu)),
             ("params.gamma", repr(gamma)), ("params.k_r", repr(k_r)),
             ("params.r", repr(r)),
             ("params.epsilon", repr(rng.uniform(0.0, 0.5))),
             ("init.e0", repr(e0)), ("init.i0", repr(i0)), ("init.r0", repr(r0)),
             # now and then off the simplex, which pins that error
             ("init.s0", repr(((1.0 - e0) - i0) - r0
                              + (1e-3 if rng.random() < 0.03 else 0.0)))]
    if rng.random() < 0.3:
        pairs.append(("run.horizon", repr(rng.uniform(1.0, 50.0))))
    if rng.random() < 0.3:
        pairs.append(("ensemble.n_rep", str(rng.randrange(1, 500))))
        pairs.append(("ensemble.seed", str(rng.randrange(2 ** 64))))
    if rng.random() < 0.3:
        pairs.append(("ensemble.rho_grid",
                      ", ".join(repr(rng.uniform(0.001, 0.1)) for _ in range(3))))
    if rng.random() < 0.2:
        pairs.append(("params.bogus", "1"))
    # r and epsilon have defaults, and so has the initial state as a whole
    drop = rng.sample(("params.r", "params.epsilon"), k=rng.randrange(2))
    if rng.random() < 0.2:
        drop += ["init.e0", "init.i0", "init.r0", "init.s0"]
    pairs = [pair for pair in pairs if pair[0] not in drop]
    rng.shuffle(pairs)
    lines = ["# a moderate draw"]
    for key, value in pairs:
        pad = rng.choice(("", " ", "\t"))
        lines.append(f"{pad}{key}{pad} ={pad}{value}"
                     + rng.choice(("", "  # note", "#")))
        if rng.random() < 0.1:
            lines.append(rng.choice(("", "   ", "# comment = not a key")))
    return "\n".join(lines) + rng.choice(("\n", ""))


def outcome(command, text):
    try:
        return run(command, parse_config(text)).render()
    except ValueError as exc:   # parse, validation and no-crossing errors
        return f"{type(exc).__name__}: {exc}\n"


def test_panel_renders_the_recorded_bytes():
    rng = random.Random("front end panel")
    texts = []
    for _ in range(N_DRAWS):
        doc = document(rng)
        for command in COMMANDS:
            # the lyapunov analysis is nondelayed; a delayed draw pins its error
            if command == "lyapunov" and rng.random() < 0.9:
                doc = DELAY_KEY.sub(r"\1params.bogus_r", doc)
            texts.append(outcome(command, doc))
    assert sum(t.startswith("command = ") for t in texts) > 0.9 * len(texts)
    digest = hashlib.sha256("\0".join(texts).encode()).hexdigest()
    assert digest == PANEL_SHA256


@pytest.mark.parametrize("text, code, message", [
    ("params.beta = 0.1\nparams.mu 0.2\n", EXIT_PARSE,
     "parse error: line 2: expected 'key = value', got 'params.mu 0.2'\n"),
    ("params.beta = 0.1\nparams.mu = 0.2\nparams.k_r = 2.0\n", EXIT_VALIDATION,
     "validation error: missing required key 'params.gamma'\n"),
    ("params.beta = 1.5\nparams.mu = 0.2\nparams.gamma = nan\n"
     "params.k_r = 1.0\nparams.r = 0.5\n", EXIT_VALIDATION,
     "validation error: gamma: must be finite; beta: must lie strictly in "
     "(0, 1); gamma: must lie strictly in (0, 1); k_r: must satisfy "
     "k_r >= r*e when r > 0\n"),
], ids=["malformed", "missing-key", "inadmissible"])
def test_error_texts(text, code, message, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert main(["equilibria", "--config", str(cfg)]) == code
    out, err = capsys.readouterr()
    assert (out, err) == ("", message)

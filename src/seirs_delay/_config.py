"""The input of a command: its command line and its config document.

A command line names one of COMMANDS and --config, with --out, --seed and
--reps at most once. The config is a flat key/value document with dotted
sections::

    # transmission/recovery/immunity-loss rates, latency scale and delay
    params.beta = 0.4
    params.mu = 0.2
    params.gamma = 0.1
    params.k_r = 2.0
    params.r = 0.5
    params.epsilon = 0.0

    init.e0 = 0.05        # constant exposed history on [-r, 0]
    init.s0 = 0.9
    init.i0 = 0.05
    init.r0 = 0.0

    run.horizon = 100.0
    run.step = 0.01       # optional; must divide r into >= 3 steps (r > 0)
                          # or divide run.horizon (r = 0); default
                          # min(0.01, r/50) made to divide r
    run.trajectory = out.csv   # optional CSV destination

    ensemble.n_rep = 200
    ensemble.seed = 0
    ensemble.rho_grid = 0.01, 0.02, 0.05   # optional; default: quantiles
                                           # of the sup deviations

The keys of the config follow the record field order of Params, then
InitialCondition, then RunConfig.
"""
from __future__ import annotations

import math
from types import SimpleNamespace
from typing import NamedTuple, Optional, Sequence

from . import __version__
from .model_core import (InitialCondition, Params, ValidationError, _Checked,
                         _rho_grid, default_step, make_initial_condition,
                         step_grid)

__all__ = ["COMMANDS", "ParseError", "RunConfig", "parse_config"]

COMMANDS = ("equilibria", "simulate", "simulate-sde", "stability",
            "delay-margin", "concentration", "lyapunov")


class ParseError(ValueError):
    """The config document is malformed; the message carries the line."""


class _RunConfigFields(NamedTuple):
    params: Params
    initial: InitialCondition
    horizon: float = 100.0
    step: Optional[float] = None
    trajectory: Optional[str] = None
    n_rep: int = 200
    seed: int = 0
    rho_grid: Optional[tuple[float, ...]] = None
    warnings: tuple[str, ...] = ()


class RunConfig(_Checked, _RunConfigFields):
    """Everything one command invocation needs; every instance is valid.

    Construction, also through _replace, raises ValidationError naming the
    config key (and its flag) unless the horizon is positive and finite, an
    explicit step passes step_grid, n_rep >= 1, 0 <= seed < 2**64 and
    rho_grid (stored sorted) is nonempty, positive and finite. step = None
    takes the default when a run command resolves it: the largest step
    <= min(0.01, r/50) that divides the delay exactly. warnings carries
    unknown-key notices.
    """

    __slots__ = ()

    def __new__(cls, params, initial, horizon=100.0, step=None, trajectory=None,
                n_rep=200, seed=0, rho_grid=None, warnings=()):
        if not (math.isfinite(horizon) and horizon > 0.0):
            raise ValidationError(
                f"run.horizon: must be a positive finite time, got {horizon!r}")
        # as in Params, an int or a float subclass is stored as a float
        if type(horizon) is not float:
            horizon = float(horizon)
        if step is not None:
            if not (math.isfinite(step) and step > 0.0):
                raise ValidationError(
                    f"run.step: must be a positive finite step, got {step!r}")
            if type(step) is not float:
                step = float(step)
            _grid(params.r, horizon, step)
        # exactly int: a bool is an int too, but no count and no seed
        if not (type(n_rep) is int and n_rep >= 1):
            raise ValidationError(
                f"ensemble.n_rep (--reps): must be an integer >= 1, got {n_rep!r}")
        if not (type(seed) is int and 0 <= seed < 2 ** 64):
            raise ValidationError(
                "ensemble.seed (--seed): must be an integer that fits in 64 "
                f"unsigned bits, got {seed!r}")
        if rho_grid is not None:
            rho_grid = _rho_grid(rho_grid, "ensemble.rho_grid")
        return tuple.__new__(cls, (params, initial, horizon, step, trajectory,
                                   n_rep, seed, rho_grid, warnings))

    def resolved_step(self) -> float:
        return self.step if self.step is not None else default_step(self.params.r)

    def grid(self) -> tuple[int, int, float]:
        """step_grid of the run at the resolved step; its errors name the
        run.horizon and run.step keys."""
        return _grid(self.params.r, self.horizon, self.resolved_step())


def _grid(r: float, horizon: float, h: float) -> tuple[int, int, float]:
    try:
        return step_grid(r, horizon, h)
    except ValidationError as exc:
        raise ValidationError(f"run.horizon / run.step: {exc}") from None


# the config and report keys of the model constants and the initial data,
# in record field order: Params, then InitialCondition
_PARAM_FIELDS = {f"params.{name}": name for name in Params._fields}
_INIT_KEYS = tuple(f"init.{name}" for name in InitialCondition._fields)
_ECHO = (*_PARAM_FIELDS, *_INIT_KEYS)
# the initial state when no init key is set; its fields are their defaults
_DEFAULT_INITIAL = make_initial_condition(e0=0.05, s0=0.9, i0=0.05, r0=0.0)
# RunConfig field and value type of each run and ensemble key, in
# RunConfig's check order
_RUN_KEYS = {"run.horizon": ("horizon", float), "run.step": ("step", float),
             "run.trajectory": ("trajectory", str),
             "ensemble.n_rep": ("n_rep", int), "ensemble.seed": ("seed", int),
             "ensemble.rho_grid": ("rho_grid", tuple)}
_KNOWN_KEYS = {*_ECHO, *_RUN_KEYS}


def _scan(text: str) -> dict[str, tuple[str, int]]:
    entries: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        key, eq, value = raw.partition("#")[0].partition("=")
        if not eq:
            if key.strip():
                raise ParseError(f"line {lineno}: expected 'key = value', "
                                 f"got {raw.strip()!r}")
            continue
        key = key.strip()
        value = value.strip()
        if not key:
            raise ParseError(f"line {lineno}: empty key")
        if not value:
            raise ParseError(f"line {lineno}: empty value for key {key!r}")
        if key in entries:
            raise ParseError(f"line {lineno}: duplicate key {key!r} "
                             f"(first set on line {entries[key][1]})")
        entries[key] = (value, lineno)
    return entries


def _value(entries, key: str, kind: type):
    """The value of key as kind: str, float, int, or tuple (a comma-separated
    list of floats)."""
    text, lineno = entries[key]
    if kind is str:
        return text
    if kind is tuple:
        return tuple(_number(key, part.strip(), lineno)
                     for part in text.split(","))
    return _number(key, text, lineno, kind)


def _number(key: str, text: str, lineno: int, convert: type = float):
    if not text:
        raise ParseError(f"line {lineno}: {key}: empty list entry")
    try:
        return convert(text)
    except ValueError:
        what = "an integer" if convert is int else "a number"
        raise ParseError(f"line {lineno}: {key}: expected {what}, "
                         f"got {text!r}") from None


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a config document.

    Unknown keys become warnings on the returned RunConfig; missing required
    keys (the four core rates) and constraint violations raise
    ValidationError, malformed lines and values raise ParseError. Only the
    keys the document sets are passed on; Params and RunConfig supply the
    defaults and the checks (an explicit run.step at construction, the
    default step when a run command resolves it). Of several bad keys, the
    first in reading order is reported.
    """
    entries = _scan(text)
    warnings = ()
    if not entries.keys() <= _KNOWN_KEYS:
        warnings = tuple(f"unknown key {k!r} ignored (line {entries[k][1]})"
                         for k in entries if k not in _KNOWN_KEYS)

    rates = {}
    for key, name in _PARAM_FIELDS.items():
        entry = entries.get(key)
        if entry is not None:
            rates[name] = _number(key, *entry)
        elif name not in Params._field_defaults:
            raise ValidationError(f"missing required key {key!r}")
    params = Params(**rates)

    if entries.keys().isdisjoint(_INIT_KEYS):
        initial = _DEFAULT_INITIAL
    else:
        # InitialCondition's field order is make_initial_condition's
        # argument order
        initial = make_initial_condition(*[
            _number(key, *entries[key]) if key in entries else default
            for key, default in zip(_INIT_KEYS, _DEFAULT_INITIAL)])

    settings = {}
    for key, (name, kind) in _RUN_KEYS.items():
        if key in entries:
            try:
                settings[name] = _value(entries, key, kind)
            except ParseError:
                # an out-of-range setting read before this key comes first
                RunConfig(params, initial, **settings)
                raise
    return RunConfig(params, initial, warnings=warnings, **settings)


# the options of the command line, each with one value, and the type
# argparse converts that value with
_OPTIONS = {"--config": str, "--out": str, "--seed": int, "--reps": int}


def _parse_argv(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """The arguments of a well-formed argv, with the attributes and values of
    _parser().parse_args(argv), or None when argv is not one.

    Well-formed: one command and --config, with --out, --seed and --reps at
    most once, each option followed by a value that does not start with
    '-'. Everything else is left to _parser(), so this never writes.
    """
    args = dict.fromkeys(("command", "config", "out", "seed", "reps"))
    tokens = iter(argv)
    for token in tokens:
        if token in _OPTIONS:
            # an option at the end of argv has no value: it reads as "-"
            name, value = token[2:], next(tokens, "-")
            if args[name] is not None or value.startswith("-"):
                return None
            try:
                args[name] = _OPTIONS[token](value)
            except ValueError:
                return None
        elif token in COMMANDS and args["command"] is None:
            args["command"] = token
        else:
            return None
    if args["command"] is None or args["config"] is None:
        return None
    return SimpleNamespace(**args)


def _parser():
    """The argparse parser of the command line: the one owner of its usage,
    help and error text."""
    import argparse

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

"""Command-line front end.

Usage:

    seirs-delay <command> --config <path> [--out <path>] [--seed <u64>] [--reps <n>]

with command one of equilibria, simulate, simulate-sde, stability,
delay-margin, concentration, lyapunov. The config is a flat key/value
document with dotted sections::

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

The config is read as UTF-8. Reports are deterministic "key = value" lines
(floats with 17 significant digits) so byte-level golden comparisons work.
Exit codes: 0 ok; 2 parse error, including a config that cannot be read or
decoded; 3 validation error, including a report (--out) or trajectory file
that cannot be written and a run too large to store; 4 numerical failure.
Errors go to stderr as one line. SEIRS_DELAY_LOG selects diagnostic
verbosity (quiet, info, debug).
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import logging
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .delay_margin import (NoCrossingError, deg2_crossing, deg2_instability_possible,
                           deg3_abc, deg3_crossing, deg3_instability_possible,
                           free_disease_margin)
from .det_integrator import (IntegrationError, Trajectory, default_step,
                             integrate_dde, integrate_ode, step_grid)
from .equilibria import equilibrium_residual, equilibrium_set
from .linear_stability import (char_poly_delay_coexistence, char_poly_delay_free,
                               free_disease_eigenvalues_closed_form,
                               jacobian_free_disease, matrix_eigenvalues,
                               routh_hurwitz_coexistence)
# validate_params is not called here; perfbench/tracer.py wraps cli.validate_params
from .model_core import (InitialCondition, Params, ValidationError,
                         make_initial_condition, validate_params)
from .sde_simulator import (InsufficientExceedances, Seed, _rho_grid,
                            concentration_check, lyapunov_certificate,
                            lyapunov_margin, simulate_sde)

__all__ = [
    "ParseError",
    "RunConfig",
    "Report",
    "parse_config",
    "serialize_config",
    "run",
    "main",
    "EXIT_OK",
    "EXIT_PARSE",
    "EXIT_VALIDATION",
    "EXIT_NUMERICAL",
]

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4

COMMANDS = ("equilibria", "simulate", "simulate-sde", "stability",
            "delay-margin", "concentration", "lyapunov")


class ParseError(ValueError):
    """The config document is malformed; the message carries the line."""


@dataclass(frozen=True)
class RunConfig:
    """Everything one command invocation needs; every instance is valid.

    Construction, also through dataclasses.replace, raises ValidationError
    naming the config key (and its flag) unless the horizon is positive and
    finite, an explicit step passes step_grid, n_rep >= 1, 0 <= seed < 2**64
    and rho_grid (stored sorted) is nonempty, positive and finite. step =
    None takes the default when a run command resolves it: the largest step
    <= min(0.01, r/50) that divides the delay exactly. warnings carries
    unknown-key notices and is excluded from equality so round-trips
    compare clean.
    """

    params: Params
    initial: InitialCondition
    horizon: float = 100.0
    step: Optional[float] = None
    trajectory: Optional[str] = None
    n_rep: int = 200
    seed: int = 0
    rho_grid: Optional[tuple[float, ...]] = None
    warnings: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise ValidationError(
                f"run.horizon: must be a positive finite time, got {self.horizon!r}")
        if self.step is not None:
            if not (math.isfinite(self.step) and self.step > 0.0):
                raise ValidationError(
                    f"run.step: must be a positive finite step, got {self.step!r}")
            self.grid()
        if not (isinstance(self.n_rep, int) and self.n_rep >= 1):
            raise ValidationError(
                f"ensemble.n_rep (--reps): must be an integer >= 1, got {self.n_rep!r}")
        if not (isinstance(self.seed, int) and 0 <= self.seed < 2 ** 64):
            raise ValidationError(
                "ensemble.seed (--seed): must be an integer that fits in 64 "
                f"unsigned bits, got {self.seed!r}")
        if self.rho_grid is not None:
            object.__setattr__(self, "rho_grid",
                               _rho_grid(self.rho_grid, "ensemble.rho_grid"))

    def resolved_step(self) -> float:
        return self.step if self.step is not None else default_step(self.params.r)

    def grid(self) -> tuple[int, int, float]:
        """step_grid of the run at the resolved step; its errors name the
        run.horizon and run.step keys."""
        try:
            return step_grid(self.params.r, self.horizon, self.resolved_step())
        except ValidationError as exc:
            raise ValidationError(f"run.horizon / run.step: {exc}") from None


_REQUIRED_KEYS = ("params.beta", "params.mu", "params.gamma", "params.k_r")
_PARAM_KEYS = _REQUIRED_KEYS + ("params.r", "params.epsilon")
_INIT_DEFAULTS = {"init.e0": 0.05, "init.s0": 0.9, "init.i0": 0.05,
                  "init.r0": 0.0}
# value type of each run and ensemble key, in RunConfig's check order; the
# field is the part after the dot
_RUN_KEYS = {"run.horizon": float, "run.step": float, "run.trajectory": str,
             "ensemble.n_rep": int, "ensemble.seed": int,
             "ensemble.rho_grid": tuple}
_KNOWN_KEYS = set(_PARAM_KEYS) | set(_INIT_DEFAULTS) | set(_RUN_KEYS)


def _scan(text: str) -> dict[str, tuple[str, int]]:
    entries: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ParseError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
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
    convert = int if kind is int else float
    out = []
    for part in text.split(",") if kind is tuple else (text,):
        part = part.strip()
        if not part:
            raise ParseError(f"line {lineno}: {key}: empty list entry")
        try:
            out.append(convert(part))
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise ParseError(f"line {lineno}: {key}: expected {what}, "
                             f"got {part!r}") from None
    return tuple(out) if kind is tuple else out[0]


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
    warnings = tuple(f"unknown key {k!r} ignored (line {entries[k][1]})"
                     for k in entries if k not in _KNOWN_KEYS)
    for msg in warnings:
        log.info("%s", msg)

    rates = {}
    for key in _PARAM_KEYS:
        if key in entries:
            rates[key.partition(".")[2]] = _value(entries, key, float)
        elif key in _REQUIRED_KEYS:
            raise ValidationError(f"missing required key {key!r}")
    params = Params(**rates)

    initial = make_initial_condition(**{
        key.partition(".")[2]: _value(entries, key, float) if key in entries else default
        for key, default in _INIT_DEFAULTS.items()})

    settings = {}
    for key, kind in _RUN_KEYS.items():
        if key in entries:
            try:
                settings[key.partition(".")[2]] = _value(entries, key, kind)
            except ParseError:
                # an out-of-range setting read before this key comes first
                RunConfig(params, initial, **settings)
                raise
    return RunConfig(params, initial, warnings=warnings, **settings)


def _fnum(x: float) -> str:
    return repr(float(x))


def serialize_config(cfg: RunConfig) -> str:
    """Canonical config document; parse_config(serialize_config(c)) == c."""
    p, ic = cfg.params, cfg.initial
    lines = [
        f"params.beta = {_fnum(p.beta)}",
        f"params.mu = {_fnum(p.mu)}",
        f"params.gamma = {_fnum(p.gamma)}",
        f"params.k_r = {_fnum(p.k_r)}",
        f"params.r = {_fnum(p.r)}",
        f"params.epsilon = {_fnum(p.epsilon)}",
        f"init.e0 = {_fnum(ic.e0)}",
        f"init.s0 = {_fnum(ic.s0)}",
        f"init.i0 = {_fnum(ic.i0)}",
        f"init.r0 = {_fnum(ic.r0)}",
        f"run.horizon = {_fnum(cfg.horizon)}",
    ]
    if cfg.step is not None:
        lines.append(f"run.step = {_fnum(cfg.step)}")
    if cfg.trajectory is not None:
        lines.append(f"run.trajectory = {cfg.trajectory}")
    lines.append(f"ensemble.n_rep = {cfg.n_rep}")
    lines.append(f"ensemble.seed = {cfg.seed}")
    if cfg.rho_grid is not None:
        lines.append("ensemble.rho_grid = " + ", ".join(_fnum(v) for v in cfg.rho_grid))
    return "\n".join(lines) + "\n"


def _fmt(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


class Report:
    """Ordered key/value lines with deterministic rendering."""

    def __init__(self, command: str):
        self._items: list[tuple[str, object]] = [("command", command)]
        self._warnings: list[str] = []

    def add(self, key: str, value) -> None:
        self._items.append((key, value))

    def warn(self, message: str) -> None:
        self._warnings.append(message)

    def get(self, key: str):
        for k, v in self._items:
            if k == key:
                return v
        raise KeyError(key)

    def render(self) -> str:
        lines = [f"{k} = {_fmt(v)}" for k, v in self._items]
        lines.extend(f"warning.{j} = {w}" for j, w in enumerate(self._warnings))
        return "\n".join(lines) + "\n"


def _echo(rep: Report, cfg: RunConfig, with_run: bool = False,
          with_ensemble: bool = False) -> None:
    p, ic = cfg.params, cfg.initial
    for name in ("beta", "mu", "gamma", "k_r", "r", "epsilon"):
        rep.add(f"params.{name}", getattr(p, name))
    for name in ("e0", "s0", "i0", "r0"):
        rep.add(f"init.{name}", getattr(ic, name))
    if with_run:
        rep.add("run.horizon", cfg.horizon)
        rep.add("run.step", cfg.resolved_step())
        _, _, t_last = cfg.grid()
        if t_last != cfg.horizon:
            rep.warn(f"run.horizon = {cfg.horizon!r} is not a whole number "
                     f"of steps; the last node is t = {t_last!r}")
    if with_ensemble:
        rep.add("ensemble.n_rep", cfg.n_rep)
        rep.add("ensemble.seed", cfg.seed)
    for w in cfg.warnings:
        rep.warn(w)


@contextlib.contextmanager
def _writing(path: str):
    """path opened for writing; an OSError becomes a ValidationError."""
    try:
        with open(path, "w", newline="\n") as fh:
            yield fh
    except OSError as exc:
        raise ValidationError(
            f"cannot write {path!r}: {exc.strerror or exc}") from exc


def _write_trajectory(path: str, traj: Trajectory) -> None:
    with _writing(path) as fh:
        fh.write("t,S,E,I,R\n")
        for t, row in zip(traj.times, traj.states):
            fh.write(f"{float(t)!r},{float(row[0])!r},{float(row[1])!r},"
                     f"{float(row[2])!r},{float(row[3])!r}\n")


def _add_state(rep: Report, prefix: str, values) -> None:
    for name, v in zip(("s", "e", "i", "rcv"), values):
        rep.add(f"{prefix}.{name}", float(v))


def _cmd_equilibria(cfg: RunConfig) -> Report:
    rep = Report("equilibria")
    _echo(rep, cfg)
    eqs = equilibrium_set(cfg.params)
    rep.add("r0", eqs.r0)
    _add_state(rep, "x_free", (eqs.x_free.s, eqs.x_free.e, eqs.x_free.i,
                               eqs.x_free.rcv))
    rep.add("x_free.residual", equilibrium_residual(cfg.params, eqs.x_free))
    rep.add("x_star.present", eqs.x_star is not None)
    if eqs.x_star is not None:
        _add_state(rep, "x_star", (eqs.x_star.s, eqs.x_star.e, eqs.x_star.i,
                                   eqs.x_star.rcv))
        rep.add("x_star.residual", equilibrium_residual(cfg.params, eqs.x_star))
    return rep


def _simulate_common(rep: Report, cfg: RunConfig, traj: Trajectory) -> None:
    rep.add("nodes", len(traj))
    _add_state(rep, "final", traj.states[-1])
    rep.add("max_sum_defect", traj.max_sum_defect())
    rep.add("min_component", traj.min_component())
    if cfg.trajectory is not None:
        _write_trajectory(cfg.trajectory, traj)
    rep.add("trajectory_file", cfg.trajectory)


def _cmd_simulate(cfg: RunConfig) -> Report:
    rep = Report("simulate")
    _echo(rep, cfg, with_run=True)
    h = cfg.resolved_step()
    if cfg.params.r > 0.0:
        traj = integrate_dde(cfg.params, cfg.initial, cfg.horizon, h)
    else:
        traj = integrate_ode(cfg.params, cfg.initial.state0(), cfg.horizon, h)
    _simulate_common(rep, cfg, traj)
    return rep


def _cmd_simulate_sde(cfg: RunConfig) -> Report:
    rep = Report("simulate-sde")
    _echo(rep, cfg, with_run=True, with_ensemble=True)
    h = cfg.resolved_step()
    traj = simulate_sde(cfg.params, cfg.initial, cfg.horizon, h,
                        Seed(cfg.seed), replica=0)
    _simulate_common(rep, cfg, traj)
    return rep


def _cmd_stability(cfg: RunConfig) -> Report:
    rep = Report("stability")
    _echo(rep, cfg)
    p = cfg.params
    lam = free_disease_eigenvalues_closed_form(p)
    for j, v in enumerate(lam, 1):
        rep.add(f"free.eig{j}", v)
    numeric = matrix_eigenvalues(jacobian_free_disease(p))
    gap = max(abs(a - b) for a, b in
              zip(sorted(lam), sorted(v.real for v in numeric)))
    rep.add("free.eig_crosscheck_gap", gap)
    rep.add("free.stable", max(lam) < 0.0)
    rep.add("coexistence.present", p.beta > p.mu)
    if p.beta > p.mu:
        verdict = routh_hurwitz_coexistence(p)
        for j, c in enumerate(verdict.criteria, 1):
            rep.add(f"coexistence.criterion{j}.name", c.name)
            rep.add(f"coexistence.criterion{j}.value", c.value)
            rep.add(f"coexistence.criterion{j}.satisfied", c.satisfied)
        rep.add("coexistence.verdict", verdict.verdict)
    return rep


def _cmd_delay_margin(cfg: RunConfig) -> Report:
    rep = Report("delay-margin")
    _echo(rep, cfg)
    p = cfg.params
    if p.beta == p.mu:
        raise ValidationError("delay-margin analysis is undefined on the "
                              "beta = mu boundary")
    free = p.beta < p.mu
    q = char_poly_delay_free(p) if free else char_poly_delay_coexistence(p)
    rep.add("branch", "free-disease (degree 2)" if free else "coexistence (degree 3)")
    for j, v in enumerate(q.a):
        rep.add(f"qp.a{j}", v)
    for j, v in enumerate(q.b):
        rep.add(f"qp.b{j}", v)
    if free:
        rep.add("instability_possible", deg2_instability_possible(q))
        cr = deg2_crossing(q)
        for name in ("omega", "theta", "r_star", "residual"):
            rep.add(name, getattr(cr, name))
        rep.add("margin", free_disease_margin(p))
        rep.add("half_pi_k_r", 0.5 * math.pi * p.k_r)
        rep.add("max_admissible_delay", p.k_r / math.e)
        rep.add("verdict", "stable for all admissible delays")
        return rep
    abc = deg3_abc(q)
    for name in ("A", "B", "C", "delta"):
        rep.add(f"abc.{name}", getattr(abc, name))
    rep.add("instability_possible", deg3_instability_possible(q))
    cr = deg3_crossing(q)
    rep.add("crossing.found", cr is not None)
    if cr is None:
        rep.add("verdict", "inconclusive (discriminant >= 0)")
    else:
        for name in ("omega", "theta", "r_star", "residual"):
            rep.add(name, getattr(cr, name))
        if p.r < cr.r_star:
            rep.add("verdict", "stable below critical delay")
        else:
            rep.add("verdict", "delay at or beyond critical delay")
    return rep


def _cmd_concentration(cfg: RunConfig) -> Report:
    rep = Report("concentration")
    _echo(rep, cfg, with_run=True, with_ensemble=True)
    out = concentration_check(cfg.params, cfg.initial, cfg.horizon,
                              cfg.resolved_step(), cfg.n_rep, cfg.rho_grid,
                              Seed(cfg.seed))
    rep.add("rho_grid", ", ".join(_fmt(v) for v in out.rho_grid) or None)
    rep.add("degenerate", out.degenerate)
    for j, rho in enumerate(out.rho_grid):
        rep.add(f"tail.{j}.rho", rho)
        rep.add(f"tail.{j}.p", out.tail[j])
        rep.add(f"tail.{j}.count", out.exceed_counts[j])
    rep.add("c_hat", out.c_hat)
    rep.add("n_fit_points", out.n_fit_points)
    rep.add("eps_transfer", out.eps_transfer)
    for j, rho in enumerate(out.rho_grid if not out.degenerate else ()):
        rep.add(f"transfer.{j}.p", out.transfer_tail[j])
        rep.add(f"transfer.{j}.bound", out.transfer_bound[j])
    rep.add("transfer_ok", out.transfer_ok)
    rep.add("safety", out.safety)
    return rep


def _cmd_lyapunov(cfg: RunConfig) -> Report:
    rep = Report("lyapunov")
    _echo(rep, cfg)
    margin = lyapunov_margin(cfg.params)
    ok = margin > 0.0
    rep.add("condition", ok)
    rep.add("condition_value", margin)
    rep.add("certificate.present", ok)
    if ok:
        cert = lyapunov_certificate(cfg.params)
        for name in ("v2", "v3", "lambda1_sq", "lambda3_sq", "alpha0",
                     "ineq1", "ineq2", "ineq3", "lv_bound", "holds"):
            rep.add(f"certificate.{name}", getattr(cert, name))
    return rep


_DISPATCH = {
    "equilibria": _cmd_equilibria,
    "simulate": _cmd_simulate,
    "simulate-sde": _cmd_simulate_sde,
    "stability": _cmd_stability,
    "delay-margin": _cmd_delay_margin,
    "concentration": _cmd_concentration,
    "lyapunov": _cmd_lyapunov,
}


def run(command: str, cfg: RunConfig) -> Report:
    """Execute one command against a validated RunConfig."""
    if command not in _DISPATCH:
        raise ValidationError(f"unknown command {command!r}; "
                              f"expected one of {', '.join(COMMANDS)}")
    return _DISPATCH[command](cfg)


def _setup_logging() -> None:
    level_name = os.environ.get("SEIRS_DELAY_LOG", "quiet").strip().lower()
    levels = {"quiet": logging.WARNING, "info": logging.INFO,
              "debug": logging.DEBUG}
    level = levels.get(level_name)
    if level is None:
        level = logging.WARNING
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")
    if level_name not in levels:
        log.warning("SEIRS_DELAY_LOG=%r not recognized; using quiet", level_name)


def main(argv: Optional[Sequence[str]] = None) -> int:
    _setup_logging()
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
    args = ap.parse_args(argv)

    try:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read config {args.config!r}: {exc}") from exc
        cfg = parse_config(text)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        if args.reps is not None:
            cfg = dataclasses.replace(cfg, n_rep=args.reps)
        report = run(args.command, cfg).render()
        if args.out:
            with _writing(args.out) as fh:
                fh.write(report)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:
        # a run whose arrays fit the index type but not the memory
        print(f"validation error: out of memory: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (IntegrationError, NoCrossingError, InsufficientExceedances,
            ArithmeticError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    if not args.out:
        sys.stdout.write(report)
    return EXIT_OK

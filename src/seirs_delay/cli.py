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
Errors go to stderr as one line; unknown keys are reported as warning.N
lines of the report.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import math
import sys
from operator import attrgetter
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from . import __version__
# validate_params is not called here; perfbench/tracer.py wraps cli.validate_params
from .model_core import (InitialCondition, NoCrossingError, Params,
                         ValidationError, _Checked, _rho_grid, default_step,
                         make_initial_condition, step_grid, validate_params)

if TYPE_CHECKING:
    from .det_integrator import Trajectory

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

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4

COMMANDS = ("equilibria", "simulate", "simulate-sde", "stability",
            "delay-margin", "concentration", "lyapunov")


def _on_first_call(module: str, name: str):
    """A stand-in for module.name that imports the module on its first call.

    Each command then loads only the modules it calls: the analytic ones
    never load numpy or the kernels, and equilibria or lyapunov never load
    the stability and delay-margin modules. Callers look the stand-in up as
    a global of this module; once called, it puts the function itself in
    its place, so later calls cost nothing. perfbench/tracer.py replaces
    these globals by name; while one is replaced, the stand-in stays and
    calls the function it resolved.
    """
    namespace = globals()
    resolved = None

    def call(*args, **kwargs):
        nonlocal resolved
        if resolved is None:
            resolved = getattr(importlib.import_module(f"{__package__}.{module}"),
                               name)
        if namespace.get(name) is call:
            namespace[name] = resolved
        return resolved(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


equilibrium_set = _on_first_call("equilibria", "equilibrium_set")
equilibrium_residual = _on_first_call("equilibria", "equilibrium_residual")
free_disease_eigenvalues_closed_form = _on_first_call(
    "linear_stability", "free_disease_eigenvalues_closed_form")
_free_rows = _on_first_call("linear_stability", "_free_rows")
matrix_eigenvalues = _on_first_call("linear_stability", "matrix_eigenvalues")
routh_hurwitz_coexistence = _on_first_call("linear_stability",
                                           "routh_hurwitz_coexistence")
char_poly_delay_free = _on_first_call("linear_stability", "char_poly_delay_free")
char_poly_delay_coexistence = _on_first_call("linear_stability",
                                             "char_poly_delay_coexistence")
deg2_instability_possible = _on_first_call("delay_margin",
                                           "deg2_instability_possible")
deg2_crossing = _on_first_call("delay_margin", "deg2_crossing")
free_disease_margin = _on_first_call("delay_margin", "free_disease_margin")
deg3_abc = _on_first_call("delay_margin", "deg3_abc")
deg3_instability_possible = _on_first_call("delay_margin",
                                           "deg3_instability_possible")
deg3_crossing = _on_first_call("delay_margin", "deg3_crossing")
lyapunov_margin = _on_first_call("lyapunov", "lyapunov_margin")
lyapunov_certificate = _on_first_call("lyapunov", "lyapunov_certificate")
integrate_ode = _on_first_call("det_integrator", "integrate_ode")
integrate_dde = _on_first_call("det_integrator", "integrate_dde")
concentration_check = _on_first_call("sde_simulator", "concentration_check")


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
    unknown-key notices and is excluded from ==, != and hash so round-trips
    compare clean.
    """

    __slots__ = ()

    def __new__(cls, params, initial, horizon=100.0, step=None, trajectory=None,
                n_rep=200, seed=0, rho_grid=None, warnings=()):
        if not (math.isfinite(horizon) and horizon > 0.0):
            raise ValidationError(
                f"run.horizon: must be a positive finite time, got {horizon!r}")
        if step is not None:
            if not (math.isfinite(step) and step > 0.0):
                raise ValidationError(
                    f"run.step: must be a positive finite step, got {step!r}")
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

    def __eq__(self, other):
        return (self[:-1] == other[:-1] if other.__class__ is self.__class__
                else NotImplemented)

    # object's != inverts __eq__; tuple's would compare warnings too
    __ne__ = object.__ne__

    def __hash__(self):
        return hash(self[:-1])

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


_REQUIRED_KEYS = ("params.beta", "params.mu", "params.gamma", "params.k_r")
_PARAM_KEYS = _REQUIRED_KEYS + ("params.r", "params.epsilon")
_PARAM_FIELDS = {key: key.partition(".")[2] for key in _PARAM_KEYS}
_INIT_DEFAULTS = {"init.e0": 0.05, "init.s0": 0.9, "init.i0": 0.05,
                  "init.r0": 0.0}
# the initial state of a document that sets none of the init keys
_DEFAULT_INITIAL = make_initial_condition(*_INIT_DEFAULTS.values())
# RunConfig field and value type of each run and ensemble key, in
# RunConfig's check order
_RUN_KEYS = {"run.horizon": ("horizon", float), "run.step": ("step", float),
             "run.trajectory": ("trajectory", str),
             "ensemble.n_rep": ("n_rep", int), "ensemble.seed": ("seed", int),
             "ensemble.rho_grid": ("rho_grid", tuple)}
_KNOWN_KEYS = set(_PARAM_KEYS) | set(_INIT_DEFAULTS) | set(_RUN_KEYS)


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
        elif key in _REQUIRED_KEYS:
            raise ValidationError(f"missing required key {key!r}")
    params = Params(**rates)

    if entries.keys().isdisjoint(_INIT_DEFAULTS):
        initial = _DEFAULT_INITIAL
    else:
        # _INIT_DEFAULTS is in make_initial_condition's argument order
        initial = make_initial_condition(*[
            _number(key, *entries[key]) if key in entries else default
            for key, default in _INIT_DEFAULTS.items()])

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


# the text of a report value, by its class: a float as 17 significant
# digits, a bool as true/false, None as none
_FORMAT = {float: "%.17g".__mod__, bool: ("false", "true").__getitem__,
           int: str, str: str, type(None): lambda _: "none"}


def _fmt(value) -> str:
    """value as report text: the formatter of the first class of value's MRO
    in _FORMAT, else str."""
    for cls in type(value).__mro__:
        fmt = _FORMAT.get(cls)
        if fmt is not None:
            return fmt(value)
    return str(value)


class Report:
    """Ordered key/value lines with deterministic rendering."""

    def __init__(self, command: str):
        self._items: list[tuple[str, object]] = [("command", command)]
        self._warnings: list[str] = []

    def add(self, key: str, value) -> None:
        self._items.append((key, value))

    def extend(self, pairs) -> None:
        """add each (key, value) of pairs, in order."""
        self._items.extend(pairs)

    def warn(self, message: str) -> None:
        self._warnings.append(message)

    def get(self, key: str):
        for k, v in self._items:
            if k == key:
                return v
        raise KeyError(key)

    def render(self) -> str:
        # _fmt handles only the classes the table lacks
        fmt = _FORMAT.get
        lines = [f"{k} = {fmt(type(v), _fmt)(v)}\n" for k, v in self._items]
        lines.extend(f"warning.{j} = {w}\n" for j, w in enumerate(self._warnings))
        return "".join(lines)


def _keyed(prefix: str, names: Sequence[str]):
    """The report keys prefix + name, and a function giving an object's
    attributes of those names as a tuple in the same order."""
    return tuple(prefix + name for name in names), attrgetter(*names)


_ECHO_PARAMS, _param_values = _keyed("params.", ("beta", "mu", "gamma", "k_r",
                                                 "r", "epsilon"))
_ECHO_INIT, _init_values = _keyed("init.", ("e0", "s0", "i0", "r0"))
_ECHO = _ECHO_PARAMS + _ECHO_INIT
_STATE_NAMES = ("s", "e", "i", "rcv")
_state_values = attrgetter(*_STATE_NAMES)
_STATE_KEYS = {prefix: tuple(f"{prefix}.{name}" for name in _STATE_NAMES)
               for prefix in ("x_free", "x_star", "final")}
_CROSSING, _crossing_values = _keyed("", ("omega", "theta", "r_star", "residual"))
_ABC, _abc_values = _keyed("abc.", ("A", "B", "C", "delta"))
_CERTIFICATE, _certificate_values = _keyed(
    "certificate.", ("v2", "v3", "lambda1_sq", "lambda3_sq", "alpha0", "ineq1",
                     "ineq2", "ineq3", "lv_bound", "holds"))


def _echo(rep: Report, cfg: RunConfig, with_run: bool = False,
          with_ensemble: bool = False) -> None:
    rep.extend(zip(_ECHO, _param_values(cfg.params) + _init_values(cfg.initial)))
    if with_run:
        rep.add("run.horizon", cfg.horizon)
        rep.add("run.step", cfg.resolved_step())
        _, _, t_last = cfg.grid()
        if t_last != cfg.horizon:
            rep.warn(f"run.horizon = {cfg.horizon!r} is not a whole number "
                     f"of steps; the last node is t = {t_last!r}")
    if with_ensemble:
        rep.extend((("ensemble.n_rep", cfg.n_rep), ("ensemble.seed", cfg.seed)))
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


# rows per writer chunk: .tolist() gives plain floats (no np.float64 per
# value), and a chunk's floats and text stay a few tens of kB at any length
_CSV_CHUNK = 512


def _write_trajectory(path: str, traj: Trajectory) -> None:
    times, states = traj.times, traj.states
    with _writing(path) as fh:
        fh.write("t,S,E,I,R\n")
        for a in range(0, len(times), _CSV_CHUNK):
            b = a + _CSV_CHUNK
            fh.write("".join([
                f"{t!r},{s!r},{e!r},{i!r},{rc!r}\n" for t, (s, e, i, rc)
                in zip(times[a:b].tolist(), states[a:b].tolist())]))


def _add_state(rep: Report, prefix: str, values) -> None:
    rep.extend(zip(_STATE_KEYS[prefix], map(float, values)))


def _cmd_equilibria(cfg: RunConfig) -> Report:
    rep = Report("equilibria")
    _echo(rep, cfg)
    eqs = equilibrium_set(cfg.params)
    rep.add("r0", eqs.r0)
    _add_state(rep, "x_free", _state_values(eqs.x_free))
    rep.add("x_free.residual", equilibrium_residual(cfg.params, eqs.x_free))
    rep.add("x_star.present", eqs.x_star is not None)
    if eqs.x_star is not None:
        _add_state(rep, "x_star", _state_values(eqs.x_star))
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
    from .sde_simulator import Seed, simulate_sde

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
    rep.extend(zip(("free.eig1", "free.eig2", "free.eig3"), lam))
    numeric = sorted([v.real for v in matrix_eigenvalues(_free_rows(p))])
    gap = max([abs(a - b) for a, b in zip(sorted(lam), numeric)])
    rep.extend((("free.eig_crosscheck_gap", gap),
                ("free.stable", max(lam) < 0.0),
                ("coexistence.present", p.beta > p.mu)))
    if p.beta > p.mu:
        verdict = routh_hurwitz_coexistence(p)
        for j, c in enumerate(verdict.criteria, 1):
            rep.extend(((f"coexistence.criterion{j}.name", c.name),
                        (f"coexistence.criterion{j}.value", c.value),
                        (f"coexistence.criterion{j}.satisfied", c.satisfied)))
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
    rep.extend((f"qp.a{j}", v) for j, v in enumerate(q.a))
    rep.extend((f"qp.b{j}", v) for j, v in enumerate(q.b))
    if free:
        rep.add("instability_possible", deg2_instability_possible(q))
        rep.extend(zip(_CROSSING, _crossing_values(deg2_crossing(q))))
        rep.extend((("margin", free_disease_margin(p)),
                    ("half_pi_k_r", 0.5 * math.pi * p.k_r),
                    ("max_admissible_delay", p.k_r / math.e),
                    ("verdict", "stable for all admissible delays")))
        return rep
    rep.extend(zip(_ABC, _abc_values(deg3_abc(q))))
    rep.add("instability_possible", deg3_instability_possible(q))
    cr = deg3_crossing(q)
    rep.add("crossing.found", cr is not None)
    if cr is None:
        rep.add("verdict", "inconclusive (discriminant >= 0)")
    else:
        rep.extend(zip(_CROSSING, _crossing_values(cr)))
        if p.r < cr.r_star:
            rep.add("verdict", "stable below critical delay")
        else:
            rep.add("verdict", "delay at or beyond critical delay")
    return rep


def _cmd_concentration(cfg: RunConfig) -> Report:
    from .sde_simulator import Seed

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
    rep.extend((("condition", ok), ("condition_value", margin),
                ("certificate.present", ok)))
    if ok:
        cert = lyapunov_certificate(cfg.params)
        rep.extend(zip(_CERTIFICATE, _certificate_values(cert)))
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


def main(argv: Optional[Sequence[str]] = None) -> int:
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
            cfg = cfg._replace(seed=args.seed)
        if args.reps is not None:
            cfg = cfg._replace(n_rep=args.reps)
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
    # IntegrationError and InsufficientExceedances are RuntimeErrors
    except (NoCrossingError, ArithmeticError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    if not args.out:
        sys.stdout.write(report)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

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
(floats with 17 significant digits) so byte-level golden comparisons work;
the keys of a record's fields (params.*, init.*, x_star.*, certificate.*,
...) follow the record's field order, as do the config keys.
Exit codes: 0 ok; 2 parse error, including a config that cannot be read or
decoded; 3 validation error, including a report (--out) or trajectory file
that cannot be written, a run whose --out or run.trajectory is its
--config or whose --out is its run.trajectory, and a run too large to
store; 4 numerical failure.
Errors go to stderr as one line; unknown keys are reported as warning.N
lines of the report. A command line of the form above, each option once and
written as two arguments, is read here; any other (--help, --version,
--opt=value, an abbreviation, a repeat, a mistake) goes to argparse, which
writes every usage, help and error text.
"""
from __future__ import annotations

import contextlib
import errno
import importlib
import math
import os
import stat
import sys
from types import SimpleNamespace
from typing import NamedTuple, Optional, Sequence

from . import __version__
# validate_params is not called here; perfbench/tracer.py wraps cli.validate_params
from .model_core import (InitialCondition, NoCrossingError, Params, State,
                         ValidationError, _Checked, _rho_grid, default_step,
                         make_initial_condition, step_grid, validate_params)

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
zero_delay_stable = _on_first_call("delay_margin", "zero_delay_stable")
deg2_crossing = _on_first_call("delay_margin", "deg2_crossing")
free_disease_margin = _on_first_call("delay_margin", "free_disease_margin")
deg3_abc = _on_first_call("delay_margin", "deg3_abc")
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


# the text of a report value, by its exact class: a float as 17
# significant digits, a bool as true/false, None as none
_FORMAT = {float: "%.17g".__mod__, bool: ("false", "true").__getitem__,
           int: str, str: str, type(None): lambda _: "none"}


class Report:
    """Ordered key/value lines, rendered by the exact class of each value."""

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
        lines = [f"{k} = {_FORMAT[type(v)](v)}\n" for k, v in self._items]
        lines.extend(f"warning.{j} = {w}\n" for j, w in enumerate(self._warnings))
        return "".join(lines)


# report keys in record field order; the modules of the last three records
# load lazily, so their keys are spelled out (a test pins them to _fields)
_STATE_KEYS = {prefix: tuple(f"{prefix}.{name}" for name in State._fields)
               for prefix in ("x_free", "x_star", "final")}
_CROSSING = ("omega", "theta", "r_star", "residual")
_ABC = ("abc.A", "abc.B", "abc.C", "abc.delta")
_CERTIFICATE = tuple(f"certificate.{name}" for name in (
    "v2", "v3", "lambda1_sq", "lambda3_sq", "alpha0", "ineq1", "ineq2", "ineq3",
    "lv_bound", "holds"))


def _echo(rep: Report, cfg: RunConfig, with_run: bool = False,
          with_ensemble: bool = False) -> None:
    rep.extend(zip(_ECHO, cfg.params + cfg.initial))
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


# simulate and simulate-sde write each window of their path
# (det_integrator._WINDOW steps) as one chunk. A node's time is built here
# from its index, k * h, which for k < 2**53 is the float Trajectory.times
# holds, so the writer holds no time column.
_CSV_HEADER = "t,S,E,I,R\n"


@contextlib.contextmanager
def _destination(path: Optional[str], header: str = ""):
    """A text file for path, with header written, or None when path is
    None; the destination is replaced only by a complete file.

    The text goes to a new temporary file, created with O_EXCL beside the
    file that path resolves to (through a symlink, which stays a link).
    When the block ends without error, os.replace moves it onto that file
    in one step, so an existing regular file becomes a new file that keeps
    its permission bits but not its owner or its hard links; on any error
    it is removed, so the destination keeps its bytes or stays absent. An
    existing file that is not a regular one (a device, a pipe) is written
    in place. The destination is checked as the block starts, so a run
    whose report or trajectory could not be written fails before its first
    step. Any OSError raised inside the block, the whole path run for
    run.trajectory and the whole command for --out, becomes a
    ValidationError "cannot write '<path>'".
    """
    if path is None:
        yield None
        return
    real = os.path.realpath(path)
    tmp = None
    try:
        try:
            mode = os.stat(real).st_mode
        except FileNotFoundError:
            mode = None
        if mode is not None and not stat.S_ISREG(mode):
            with open(path, "w", newline="\n") as fh:
                fh.write(header)
                yield fh
            return
        if mode is not None and not os.access(real, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
        stem = os.path.join(os.path.dirname(real),
                            f".{os.path.basename(real)}.{os.getpid()}")
        k = 0
        while True:
            try:
                fd = os.open(f"{stem}-{k}.tmp",
                             os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                break
            except FileExistsError:
                k += 1
        tmp = f"{stem}-{k}.tmp"
        with open(fd, "w", newline="\n") as fh:
            if mode is not None:
                os.fchmod(fd, stat.S_IMODE(mode))
            fh.write(header)
            yield fh
        os.replace(tmp, real)
        tmp = None
    except OSError as exc:
        raise ValidationError(
            f"cannot write {path!r}: {exc.strerror or exc}") from exc
    finally:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


def _write_nodes(fh, nodes, first: int, h: float) -> None:
    """The CSV lines of nodes, the flat S, E, I, R floats of the nodes
    first, first + 1, ... of a path at step h (a memoryview or a 1-d
    array): .tolist() gives plain floats."""
    v = nodes.tolist()
    fh.write("".join([
        f"{t * h!r},{s!r},{e!r},{i!r},{rc!r}\n" for t, s, e, i, rc
        in zip(range(first, first + len(v) // 4), v[::4], v[1::4], v[2::4],
               v[3::4])]))


def _add_state(rep: Report, prefix: str, values) -> None:
    rep.extend(zip(_STATE_KEYS[prefix], map(float, values)))


def _cmd_equilibria(cfg: RunConfig) -> Report:
    rep = Report("equilibria")
    _echo(rep, cfg)
    eqs = equilibrium_set(cfg.params)
    rep.add("r0", eqs.r0)
    _add_state(rep, "x_free", eqs.x_free)
    rep.add("x_free.residual", equilibrium_residual(cfg.params, eqs.x_free))
    rep.add("x_star.present", eqs.x_star is not None)
    if eqs.x_star is not None:
        _add_state(rep, "x_star", eqs.x_star)
        rep.add("x_star.residual", equilibrium_residual(cfg.params, eqs.x_star))
    return rep


def _cmd_simulate(cfg: RunConfig, stochastic: bool = False) -> Report:
    if stochastic:
        # the single path draws its noise without numpy
        from ._stream import _run_path
    rep = Report("simulate-sde" if stochastic else "simulate")
    _echo(rep, cfg, with_run=True, with_ensemble=stochastic)
    p, h = cfg.params, cfg.resolved_step()
    n, m, _ = cfg.grid()
    # the path is stepped in windows of det_integrator._WINDOW steps, and
    # each window's nodes are written as it is stepped, then dropped; the
    # kernels carry the report reductions over
    with _destination(cfg.trajectory, _CSV_HEADER) as fh:
        def consume(first, nodes):
            if fh is not None:
                _write_nodes(fh, nodes, first, h)

        if stochastic:
            out = _run_path(p, cfg.initial, h, n, m, cfg.seed, 0, consume)
        elif m:
            out = integrate_dde(p, cfg.initial, cfg.horizon, h, consume)
        else:
            out = integrate_ode(p, cfg.initial.state0(), cfg.horizon, h,
                                consume)
    rep.add("nodes", n + 1)
    _add_state(rep, "final", out[0])
    rep.extend(zip(("max_sum_defect", "min_component"), out[1:]))
    rep.add("trajectory_file", cfg.trajectory)
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
    stable = zero_delay_stable(q)
    if free:
        cr = deg2_crossing(q)
        rep.add("instability_possible", stable)
        rep.extend(zip(_CROSSING, cr))
        rep.extend((("margin", free_disease_margin(p)),
                    ("half_pi_k_r", 0.5 * math.pi * p.k_r),
                    ("max_admissible_delay", p.k_r / math.e),
                    ("verdict", "stable for all admissible delays")))
        return rep
    rep.extend(zip(_ABC, deg3_abc(q)))
    cr = deg3_crossing(q)
    rep.add("instability_possible", stable and cr is not None)
    rep.add("crossing.found", cr is not None)
    if cr is None:
        rep.add("verdict", "stable for all delays" if stable
                else "unstable for all delays")
    else:
        rep.extend(zip(_CROSSING, cr))
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
    rep.add("rho_grid", ", ".join(map(_FORMAT[float], out.rho_grid)) or None)
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
        rep.extend(zip(_CERTIFICATE, lyapunov_certificate(cfg.params)))
    return rep


_DISPATCH = {
    "equilibria": _cmd_equilibria,
    "simulate": _cmd_simulate,
    "simulate-sde": lambda cfg: _cmd_simulate(cfg, stochastic=True),
    "stability": _cmd_stability,
    "delay-margin": _cmd_delay_margin,
    "concentration": _cmd_concentration,
    "lyapunov": _cmd_lyapunov,
}
COMMANDS = tuple(_DISPATCH)


def run(command: str, cfg: RunConfig) -> Report:
    """Execute one command against a validated RunConfig."""
    if command not in _DISPATCH:
        raise ValidationError(f"unknown command {command!r}; "
                              f"expected one of {', '.join(COMMANDS)}")
    return _DISPATCH[command](cfg)


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
        elif token in _DISPATCH and args["command"] is None:
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


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_argv(argv) or _parser().parse_args(argv)
    out = args.out or None

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
        # no file the run writes may be its config, nor the trajectory
        # that the report would replace
        trajectory = (cfg.trajectory if args.command.startswith("simulate")
                      else None)
        named = {}
        for name, path in (("--config", args.config),
                           ("run.trajectory", trajectory), ("--out", out)):
            if path is not None:
                first = named.setdefault(os.path.realpath(path), (name, path))
                if first[0] != name:
                    raise ValidationError(f"{name} {path!r} and {first[0]} "
                                          f"{first[1]!r} name the same file")
        # the report's destination is checked before the run, so a report
        # that could not be written leaves run.trajectory as it was
        with _destination(out) as fh:
            report = run(args.command, cfg).render()
            if fh is not None:
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

    if out is None:
        sys.stdout.write(report)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

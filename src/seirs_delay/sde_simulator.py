"""Stochastic simulation and the noise-robustness toolkit.

The stochastic model perturbs the S <-> E transfer by a single scalar
Brownian increment: S loses eps*S*I dW, E gains the same amount, I and R
keep their drift. Euler-Maruyama stepping moves every transfer (and the
noise term) between compartments as one rounded value, so S+E+I+R is
conserved up to the rounding of the additions alone and the eps = 0 path
is bitwise equal to deterministic Euler.

On top of the path simulator: replica ensembles against the deterministic
reference, an empirical check of the exp(-c*rho^2/eps^2) concentration tail,
and the stochastic stability experiment. The quadratic Lyapunov certificate
for the nondelayed disease-free point is lyapunov's, exported from here too.
"""
from __future__ import annotations

import math
import sys
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import _kernels
from .det_integrator import IntegrationError, Trajectory
from .lyapunov import (LyapunovCertificate, lyapunov_certificate,
                       lyapunov_condition, lyapunov_margin)
from .model_core import (InitialCondition, Params, State, ValidationError,
                         _Checked, _rho_grid, make_run_state, step_grid)

__all__ = [
    "EXCURSION_BAND",
    "TRANSFER_FACTOR",
    "SAFETY",
    "Seed",
    "ExcursionError",
    "InsufficientExceedances",
    "EnsembleSummary",
    "ConcentrationReport",
    "LyapunovCertificate",
    "StochasticStabilityReport",
    "simulate_sde",
    "deterministic_euler",
    "ensemble",
    "concentration_check",
    "lyapunov_margin",
    "lyapunov_condition",
    "lyapunov_certificate",
    "stochastic_stability_experiment",
]

# paths may overshoot [0, 1] by this much before the run aborts
EXCURSION_BAND = 0.05

_COMP_NAMES = ("S", "E", "I", "R")


def _check_int(name: str, value, low: int) -> None:
    """Reject value, naming the argument, unless it is an integer >= low
    (a bool is not one)."""
    if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and value >= low):
        raise ValidationError(
            f"{name}: must be an integer >= {low}, got {value!r}")


class _SeedFields(NamedTuple):
    master: int


class Seed(_Checked, _SeedFields):
    """Master seed plus the replica-stream derivation rule.

    Stream i is spawned as SeedSequence(master, spawn_key=(i,)), so the pair
    (master, replica) determines the noise path no matter how many replicas
    run or in which order.
    """

    __slots__ = ()

    def __new__(cls, master):
        _check_int("master", master, 0)
        return tuple.__new__(cls, (master,))

    def rng(self, replica: int = 0) -> np.random.Generator:
        _check_int("replica", replica, 0)
        ss = np.random.SeedSequence(self.master, spawn_key=(replica,))
        return np.random.default_rng(ss)


class ExcursionError(IntegrationError):
    """A path left [-EXCURSION_BAND, 1 + EXCURSION_BAND]."""

    def __init__(self, message: str, node: int, component: str,
                 replica: int = -1):
        super().__init__(message, node)
        self.component = component
        self.replica = replica


class InsufficientExceedances(RuntimeError):
    """Too few tail points with enough exceedances to fit the decay constant."""


def _excursion_error(node: int, comp: int, value: float,
                     replica: int) -> ExcursionError:
    name = _COMP_NAMES[comp]
    tag = f" (replica {replica})" if replica >= 0 else ""
    return ExcursionError(
        f"excursion: component {name} = {float(value)!r} left "
        f"[-{EXCURSION_BAND}, {1.0 + EXCURSION_BAND}] at step {node}{tag}",
        node, name, replica)


def _run_path(p: Params, ic: InitialCondition, h: float, m: int,
              dw: np.ndarray, replica: int) -> Trajectory:
    n = len(dw)
    out, status, node, comp = _kernels.euler_maruyama(
        ic.s0, ic.e0, ic.i0, ic.r0, ic.e0, h, n, m,
        p.beta, p.mu, p.gamma, p.k_r, p.epsilon, dw,
        -EXCURSION_BAND, 1.0 + EXCURSION_BAND)
    if status == _kernels.EXCURSION:
        raise _excursion_error(node, comp, out[node, comp], replica)
    return Trajectory.on_grid(out, h)


# Replicas step together over a replica axis, in blocks of at most
# _REPLICA_BLOCK columns; each block draws its noise _NOISE_CHUNK steps at a
# time. A block holds about _NOISE_CHUNK + m + 18 floats and one Generator
# per column, and sups and finals hold 5 floats per column, so memory grows
# with the total column count (both ensembles of a concentration check) and
# not with n. The cap fits the 2 x 800 columns of the concentration golden
# in one block.
_REPLICA_BLOCK = 2048
_NOISE_CHUNK = 128


def _run_replicas(p: Params, ic: InitialCondition, h: float, n: int, m: int,
                  seed: Seed, base: int, eps: np.ndarray,
                  ref: Optional[np.ndarray]
                  ) -> tuple[np.ndarray, np.ndarray, Optional[ExcursionError]]:
    """Replicas base .. base + len(eps) - 1, reduced as they step.

    Column j is replica base + j at noise level eps[j] (the other parameters
    are p's). Returns (sups, finals, first): sups[j] is the max over nodes
    and components of |x_j - ref| against the (n + 1, 4) reference path ref
    (all zero when ref is None), finals the (len(eps), 4) last nodes, and
    first the ExcursionError of the lowest-index replica that left the band
    (None if none did), which the caller raises. Replica j draws its
    increments from seed.rng(base + j) and follows the update of
    _kernels.euler_maruyama operation for operation, so both agree bitwise
    with simulate_sde at eps[j]. When first is set, replicas from
    first.replica on stop stepping and their entries are meaningless.
    """
    sups = np.empty(len(eps))
    finals = np.empty((len(eps), 4))
    first = None
    for start in range(0, len(eps), _REPLICA_BLOCK):
        sup, final, first = _replica_block(
            p, ic, h, n, m, seed, base + start,
            eps[start:start + _REPLICA_BLOCK], ref)
        sups[start:start + len(sup)] = sup
        finals[start:start + len(sup)] = final
        if first is not None:
            break
    return sups, finals, first


def _step_views(x: np.ndarray, flow: np.ndarray) -> tuple[np.ndarray, ...]:
    """The row views a replica step reads and writes, bound once per block:
    s, e, i, (e, i, rc), (i, rc) of the state x and a, b, d, (a, b, c),
    (b, c, d), (c, d) of the flows."""
    return (x[0], x[1], x[2], x[1:], x[2:], flow[0], flow[1], flow[3],
            flow[:3], flow[1:], flow[2:])


def _replica_block(p: Params, ic: InitialCondition, h: float, n: int, m: int,
                   seed: Seed, base: int, eps: np.ndarray,
                   ref: Optional[np.ndarray]
                   ) -> tuple[np.ndarray, np.ndarray, Optional[ExcursionError]]:
    lo, hi = -EXCURSION_BAND, 1.0 + EXCURSION_BAND
    beta, kr = p.beta, p.k_r
    rates = np.array([[p.mu], [p.gamma]])     # the c and d coefficients
    x = np.empty((4, len(eps)))     # rows S, E, I, R; one column per replica
    x.T[:] = (ic.s0, ic.e0, ic.i0, ic.r0)
    flow = np.empty((4, len(eps)))  # rows a, b, c, d of the step
    w = np.empty(len(eps))
    dev = np.empty((4, len(eps)))
    sup = np.zeros((4, len(eps)))
    refs = None if ref is None else ref[:, :, None]
    # column j fills row j of dw with a chunk of standard normals, which are
    # then scaled in place to the chunk's increments; a column at eps = 0
    # draws nothing, as simulate_sde draws nothing at eps = 0
    dw = np.zeros((len(eps), _NOISE_CHUNK))
    draws = [(j, seed.rng(base + j).standard_normal, dw[j])
             for j in range(len(eps)) if eps[j] != 0.0]
    sd = math.sqrt(h)
    # E at nodes k - m .. k; node j sits in row j % (m + 1)
    hist = np.empty((m + 1, len(eps)))
    hist[0] = ic.e0
    first = None
    s, e, i, e_i_r, i_r, a, b, d, a_b_c, b_c_d, c_d = _step_views(x, flow)
    for k in range(n):
        row = k % _NOISE_CHUNK
        if row == 0 and draws:
            if n - k >= _NOISE_CHUNK:
                for _, draw, dwj in draws:
                    draw(out=dwj)
            else:
                for _, draw, dwj in draws:
                    draw(out=dwj[:n - k])
            # Generator.normal(0.0, sd, size) returns 0.0 + sd * z, rounded
            # in that order, for the same standard normals z
            np.multiply(sd, dw, out=dw)
            np.add(0.0, dw, out=dw)
        # the update of _kernels.euler_maruyama, with the same grouping:
        # a = h*((beta*s)*i), b = h*(ed/kr), (c, d) = h*((mu, gamma)*(i, rc)),
        # w = (eps*(s*i))*dw; each row then takes its three terms in the
        # kernel's order, S: ((s - a) + d) - w, E: ((e + a) - b) + w,
        # I: (i + b) - c, R: (rc + c) - d
        ed = e if m == 0 else ic.e0 if k < m else hist[(k - m) % (m + 1)]
        np.multiply(beta, s, out=a)
        np.multiply(a, i, out=a)
        np.divide(ed, kr, out=b)
        np.multiply(rates, i_r, out=c_d)
        np.multiply(h, flow, out=flow)
        np.multiply(s, i, out=w)
        np.multiply(eps, w, out=w)
        np.multiply(w, dw[:, row], out=w)
        np.subtract(s, a, out=s)
        np.add(e_i_r, a_b_c, out=e_i_r)
        np.add(s, d, out=s)
        np.subtract(e_i_r, b_c_d, out=e_i_r)
        np.subtract(s, w, out=s)
        np.add(e, w, out=e)
        if m:
            hist[(k + 1) % (m + 1)] = e
        if (np.minimum.reduce(x, axis=None) < lo
                or np.maximum.reduce(x, axis=None) > hi):
            # drop every replica from the first one out of the band on: only
            # a lower-index excursion can change what is returned
            out = (x < lo) | (x > hi)
            j = int(np.argmax(out.any(axis=0)))
            comp = int(np.argmax(out[:, j]))
            first = _excursion_error(k + 1, comp, x[comp, j], base + j)
            if j == 0:
                break
            x, flow, dev, sup, hist = (buf[:, :j] for buf in (x, flow, dev,
                                                               sup, hist))
            w, eps, dw = w[:j], eps[:j], dw[:j]
            s, e, i, e_i_r, i_r, a, b, d, a_b_c, b_c_d, c_d = _step_views(
                x, flow)
            draws = [draw for draw in draws if draw[0] < j]
        if refs is not None:
            np.subtract(x, refs[k + 1], out=dev)
            np.abs(dev, out=dev)
            np.maximum(sup, dev, out=sup)
    return sup.max(axis=0), x.T, first


def simulate_sde(p: Params, ic: InitialCondition, t_end: float, h: float,
                 seed: Seed, replica: int = 0) -> Trajectory:
    """One Euler-Maruyama path of the stochastic system.

    A single Gaussian increment per step enters S with sign - and E with
    sign +; I and R are drift-only. The delayed exposed value is read from
    stored nodes exactly as in the deterministic integrator, on the same
    step_grid. Components leaving [-0.05, 1.05] abort with an excursion
    diagnostic naming the step and component.
    """
    _check_int("replica", replica, 0)
    n, m, _ = step_grid(p.r, t_end, h)
    dw = np.zeros(n) if p.epsilon == 0.0 else \
        seed.rng(replica).normal(0.0, math.sqrt(h), n)
    return _run_path(p, ic, h, m, dw, replica)


def deterministic_euler(p: Params, ic: InitialCondition, t_end: float,
                        h: float) -> Trajectory:
    """Forward-Euler reference path written with the same update grouping
    as the stochastic step, so the eps = 0 stochastic path matches it
    bitwise."""
    n, m, _ = step_grid(p.r, t_end, h)
    out = np.empty((n + 1, 4))
    s, e, i, rc = ic.s0, ic.e0, ic.i0, ic.r0
    out[0] = (s, e, i, rc)
    for k in range(n):
        ed = ic.e0 if k < m else out[k - m, 1]
        a = h * (p.beta * s * i)
        b = h * (ed / p.k_r)
        c = h * (p.mu * i)
        d = h * (p.gamma * rc)
        s = s - a + d
        e = e + a - b
        i = i + b - c
        rc = rc + c - d
        out[k + 1] = (s, e, i, rc)
    return Trajectory.on_grid(out, h)


class EnsembleSummary(NamedTuple):
    """Replica statistics against the deterministic reference.

    sup_deviations[i] is the max over nodes and components of the absolute
    difference between replica i and the eps = 0 reference; tail holds
    (rho, empirical P(sup > rho)) pairs, nonincreasing in rho.
    """

    n_rep: int
    sup_deviations: np.ndarray
    mean_final: State
    tail: tuple[tuple[float, float], ...]


def _tail(sups: np.ndarray, rho_grid: Sequence[float]) -> tuple[tuple[float, float], ...]:
    n = len(sups)
    return tuple((float(rho), float(np.count_nonzero(sups > rho) / n))
                 for rho in rho_grid)


def _reference(p: Params, ic: InitialCondition, h: float, n: int,
               m: int) -> np.ndarray:
    """The (n + 1, 4) eps = 0 path that sup deviations are measured from."""
    return _run_path(p._replace(epsilon=0.0), ic, h, m, np.zeros(n), -1).states


def _default_rho_grid(sups: np.ndarray) -> np.ndarray:
    qs = np.quantile(sups, [0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.98])
    return np.unique(qs[qs > 0.0])


def ensemble(p: Params, ic: InitialCondition, t_end: float, h: float,
             n_rep: int, seed: Seed, rho_grid: Optional[Sequence[float]] = None,
             replica_base: int = 0) -> EnsembleSummary:
    """Run n_rep replicas plus the deterministic reference.

    rho_grid supplies the tail abscissas; when omitted a quantile-derived
    grid of the observed sup deviations is used. replica_base offsets the
    stream indices so disjoint ensembles can share one master seed. Replica
    failures propagate with the replica index attached; when several
    replicas leave the band, the lowest index is reported.
    """
    _check_int("n_rep", n_rep, 1)
    _check_int("replica_base", replica_base, 0)
    grid = None if rho_grid is None else _rho_grid(rho_grid)
    n, m, _ = step_grid(p.r, t_end, h)
    sups, finals, first = _run_replicas(p, ic, h, n, m, seed, replica_base,
                                        np.full(n_rep, p.epsilon),
                                        _reference(p, ic, h, n, m))
    if first is not None:
        raise first
    mf = finals.mean(axis=0)
    return EnsembleSummary(
        n_rep=n_rep,
        sup_deviations=sups,
        mean_final=make_run_state(*(float(v) for v in mf)),
        tail=_tail(sups, _default_rho_grid(sups) if grid is None else grid),
    )


class ConcentrationReport(NamedTuple):
    """Fit of the concentration tail P(sup > rho) ~ exp(-c*rho^2/eps^2).

    c_hat is the through-origin least-squares slope on log-tail points with
    at least MIN_EXCEEDANCES exceedances (None when eps = 0, which makes
    every tail entry 0). transfer_* report whether exp(-c_hat*rho^2/eps'^2)
    times safety (SAFETY) dominates a fresh ensemble at the larger eps'.
    """

    eps: float
    rho_grid: tuple[float, ...]
    tail: tuple[float, ...]
    exceed_counts: tuple[int, ...]
    c_hat: Optional[float]
    n_fit_points: int
    eps_transfer: Optional[float]
    transfer_tail: tuple[float, ...]
    transfer_bound: tuple[float, ...]
    transfer_ok: Optional[bool]
    safety: float
    degenerate: bool


MIN_EXCEEDANCES = 5
# the fitted bound is tested on a second ensemble at TRANSFER_FACTOR * eps,
# whose tail must stay below SAFETY times the bound
TRANSFER_FACTOR = 2.0
SAFETY = 3.0


def concentration_check(p: Params, ic: InitialCondition, t_end: float,
                        h: float, n_rep: int,
                        rho_grid: Optional[Sequence[float]],
                        seed: Seed) -> ConcentrationReport:
    """Estimate the tail-decay constant and test it at a larger noise level.

    Fits c in P(sup > rho) = exp(-c*rho^2/eps^2) by least squares through
    the origin on grid points with >= 5 exceedances and a nontrivial tail
    (P < 1). Needs at least 2 usable points, else "insufficient
    exceedances". The decay constants of the underlying bound are
    existential; this estimates, never asserts, their values. With the
    fitted c the tail of a second ensemble at eps' = TRANSFER_FACTOR*eps
    (2) is compared against exp(-c*rho^2/eps'^2)*SAFETY (3) pointwise; an
    eps' that overflows to inf is a ValidationError, raised before any
    stepping. rho_grid = None
    takes the quantile grid that ensemble derives from the reference
    ensemble's sup deviations (empty when eps = 0). With eps > 0, n_rep
    must be at least MIN_EXCEEDANCES + 1, the fewest replicas that can give
    a usable point.

    The reference ensemble is replicas 0 .. n_rep - 1 and the transfer
    ensemble replicas n_rep .. 2*n_rep - 1 of seed, so each equals the
    matching ensemble(..., replica_base=...) call; both step in one replica
    pass against one eps = 0 path. Errors come in the order two ensemble
    calls would raise them: an excursion of a reference replica, then
    InsufficientExceedances, then an excursion of a transfer replica.
    """
    grid = () if rho_grid is None else _rho_grid(rho_grid)
    if p.epsilon == 0.0:
        zeros = tuple(0.0 for _ in grid)
        return ConcentrationReport(
            eps=0.0, rho_grid=grid, tail=zeros,
            exceed_counts=tuple(0 for _ in grid), c_hat=None, n_fit_points=0,
            eps_transfer=None, transfer_tail=(), transfer_bound=(),
            transfer_ok=None, safety=SAFETY, degenerate=True)
    # a usable tail point needs MIN_EXCEEDANCES replicas above rho and at
    # least one at or below it
    _check_int("n_rep", n_rep, MIN_EXCEEDANCES + 1)

    n, m, _ = step_grid(p.r, t_end, h)
    # the user's epsilon is admissible, so the transfer level can only fail
    # by overflowing
    eps2 = p.epsilon * TRANSFER_FACTOR
    if eps2 == math.inf:
        raise ValidationError(
            f"epsilon: transfer level epsilon * TRANSFER_FACTOR = "
            f"{p.epsilon!r} * {TRANSFER_FACTOR!r} overflows to {eps2!r}; "
            f"epsilon must be at most {sys.float_info.max / TRANSFER_FACTOR!r}")
    sups, _, first = _run_replicas(
        p, ic, h, n, m, seed, 0, np.repeat([p.epsilon, eps2], n_rep),
        _reference(p, ic, h, n, m))
    if first is not None and first.replica < n_rep:
        raise first
    if rho_grid is None:
        grid = tuple(float(rho) for rho in _default_rho_grid(sups[:n_rep]))
    tail = tuple(pr for _, pr in _tail(sups[:n_rep], grid))
    counts = tuple(int(round(pr * n_rep)) for pr in tail)
    xs, ys = [], []
    for rho, pr, cnt in zip(grid, tail, counts):
        if cnt >= MIN_EXCEEDANCES and pr < 1.0:
            xs.append(rho * rho / (p.epsilon * p.epsilon))
            ys.append(math.log(pr))
    if len(xs) < 2:
        raise InsufficientExceedances(
            f"insufficient exceedances: only {len(xs)} usable tail points "
            f"(need 2) with >= {MIN_EXCEEDANCES} exceedances each")
    xa = np.asarray(xs)
    ya = np.asarray(ys)
    c_hat = float(-(xa @ ya) / (xa @ xa))

    if first is not None:
        raise first
    tail2 = tuple(pr for _, pr in _tail(sups[n_rep:], grid))
    bound = tuple(SAFETY * math.exp(-c_hat * rho * rho / (eps2 * eps2))
                  for rho in grid)
    ok = all(pr <= bd for pr, bd in zip(tail2, bound))
    return ConcentrationReport(
        eps=p.epsilon, rho_grid=grid, tail=tail, exceed_counts=counts,
        c_hat=c_hat, n_fit_points=len(xs), eps_transfer=eps2,
        transfer_tail=tail2, transfer_bound=bound, transfer_ok=ok,
        safety=SAFETY, degenerate=False)


class StochasticStabilityReport(NamedTuple):
    """Terminal spread of E+I+R over an ensemble from a perturbed start."""

    n_rep: int
    mean_eir: float
    p95_eir: float
    condition_satisfied: bool


def stochastic_stability_experiment(p: Params, ic: InitialCondition,
                                    t_end: float, h: float, n_rep: int,
                                    seed: Seed) -> StochasticStabilityReport:
    """Measure convergence of the nonlinear stochastic system to the
    disease-free point (r = 0 only).

    Reports the mean and 95th percentile of E(T)+I(T)+R(T) over n_rep
    replicas. condition_satisfied records whether the Lyapunov condition
    holds; when it does not, statistics are still returned, just with no
    decay claim attached.
    """
    if p.r != 0.0:
        raise ValidationError("nondelayed analysis only: r must be 0")
    _check_int("n_rep", n_rep, 1)
    n, _, _ = step_grid(0.0, t_end, h)
    _, finals, first = _run_replicas(p, ic, h, n, 0, seed, 0,
                                     np.full(n_rep, p.epsilon), None)
    if first is not None:
        raise first
    eir = finals[:, 1:].sum(axis=1)
    return StochasticStabilityReport(
        n_rep=n_rep,
        mean_eir=float(eir.mean()),
        p95_eir=float(np.percentile(eir, 95)),
        condition_satisfied=lyapunov_condition(p),
    )

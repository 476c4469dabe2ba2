"""Stochastic simulation and the noise-robustness toolkit.

The stochastic model perturbs the S <-> E transfer by a single scalar
Brownian increment: S loses eps*S*I dW, E gains the same amount, I and R
keep their drift. Euler-Maruyama stepping moves every transfer (and the
noise term) between compartments as one rounded value, so S+E+I+R is
conserved up to the rounding of the additions alone and the eps = 0 path
is bitwise equal to deterministic Euler.

On top of the path simulator: replica ensembles against the deterministic
reference, an empirical check of the exp(-c*rho^2/eps^2) concentration tail,
and the quadratic Lyapunov certificate for the nondelayed disease-free point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import _kernels
from .det_integrator import IntegrationError, Trajectory, step_grid
from .model_core import (InitialCondition, Params, State, ValidationError,
                         make_run_state)

__all__ = [
    "EXCURSION_BAND",
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
    "lyapunov_condition",
    "lyapunov_certificate",
    "stochastic_stability_experiment",
]

# paths may overshoot [0, 1] by this much before the run aborts
EXCURSION_BAND = 0.05

_COMP_NAMES = ("S", "E", "I", "R")


@dataclass(frozen=True)
class Seed:
    """Master seed plus the replica-stream derivation rule.

    Stream i is spawned as SeedSequence(master, spawn_key=(i,)), so the pair
    (master, replica) determines the noise path no matter how many replicas
    run or in which order.
    """

    master: int

    def rng(self, replica: int = 0) -> np.random.Generator:
        if replica < 0:
            raise ValidationError(f"replica: must be >= 0, got {replica!r}")
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
    return Trajectory(times=np.arange(n + 1) * h, states=out, step=h)


# Replicas step together over a replica axis in blocks of at most
# _REPLICA_BLOCK; each block draws its noise _NOISE_CHUNK steps at a time.
# Memory per ensemble is then bounded independently of n and n_rep.
_REPLICA_BLOCK = 1024
_NOISE_CHUNK = 64


def _run_replicas(p: Params, ic: InitialCondition, h: float, n: int, m: int,
                  seed: Seed, base: int, n_rep: int,
                  ref: Optional[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Replicas base .. base + n_rep - 1, reduced as they step.

    Returns (sups, finals): sups[j] is the max over nodes and components of
    |x_j - ref| against the (n + 1, 4) reference path ref (all zero when ref
    is None), finals the (n_rep, 4) last nodes. Replica j draws its increments
    from seed.rng(base + j) and follows the update of _kernels.euler_maruyama
    operation for operation, so both agree bitwise with simulate_sde. The
    lowest-index replica that leaves the band raises its ExcursionError, as a
    loop over the replicas in index order would.
    """
    sups = np.empty(n_rep)
    finals = np.empty((n_rep, 4))
    for start in range(0, n_rep, _REPLICA_BLOCK):
        stop = min(start + _REPLICA_BLOCK, n_rep)
        sups[start:stop], finals[start:stop] = _replica_block(
            p, ic, h, n, m, seed, base + start, stop - start, ref)
    return sups, finals


def _replica_block(p: Params, ic: InitialCondition, h: float, n: int, m: int,
                   seed: Seed, base: int, width: int,
                   ref: Optional[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    lo, hi = -EXCURSION_BAND, 1.0 + EXCURSION_BAND
    beta, mu, gamma, kr, eps = p.beta, p.mu, p.gamma, p.k_r, p.epsilon
    x = np.empty((4, width))        # rows S, E, I, R; one column per replica
    x.T[:] = (ic.s0, ic.e0, ic.i0, ic.r0)
    sup = np.zeros((4, width))
    dw = np.zeros((_NOISE_CHUNK, width))
    gens = [] if eps == 0.0 else [seed.rng(base + j) for j in range(width)]
    sd = math.sqrt(h)
    # E at nodes k - m .. k; node j sits in row j % (m + 1)
    hist = np.empty((m + 1, width))
    hist[0] = ic.e0
    first = None                    # (replica, node, component, value)
    for k in range(n):
        row = k % _NOISE_CHUNK
        if row == 0 and gens:
            size = min(_NOISE_CHUNK, n - k)
            for j, gen in enumerate(gens):
                dw[:size, j] = gen.normal(0.0, sd, size)
        # the update of _kernels.euler_maruyama, with the same grouping
        s, e, i, rc = x
        ed = e if m == 0 else ic.e0 if k < m else hist[(k - m) % (m + 1)]
        a = h * (beta * s * i)
        b = h * (ed / kr)
        c = h * (mu * i)
        d = h * (gamma * rc)
        w = eps * (s * i) * dw[row]
        x[0] = s - a + d - w
        x[1] = e + a - b + w
        x[2] = i + b - c
        x[3] = rc + c - d
        if m:
            hist[(k + 1) % (m + 1)] = e
        if x.min() < lo or x.max() > hi:
            # drop every replica from the first one out of the band on: only
            # a lower-index excursion can change what is raised
            out = (x < lo) | (x > hi)
            j = int(np.argmax(out.any(axis=0)))
            comp = int(np.argmax(out[:, j]))
            first = (base + j, k + 1, comp, x[comp, j])
            if j == 0:
                break
            x, sup, dw, hist = x[:, :j], sup[:, :j], dw[:, :j], hist[:, :j]
            gens = gens[:j]
        if ref is not None:
            np.maximum(sup, np.abs(x - ref[k + 1, :, None]), out=sup)
    if first is not None:
        replica, node, comp, value = first
        raise _excursion_error(node, comp, value, replica)
    return sup.max(axis=0), x.T


def simulate_sde(p: Params, ic: InitialCondition, t_end: float, h: float,
                 seed: Seed, replica: int = 0) -> Trajectory:
    """One Euler-Maruyama path of the stochastic system.

    A single Gaussian increment per step enters S with sign - and E with
    sign +; I and R are drift-only. The delayed exposed value is read from
    stored nodes exactly as in the deterministic integrator, on the same
    step_grid. Components leaving [-0.05, 1.05] abort with an excursion
    diagnostic naming the step and component.
    """
    p.require_valid()
    n, m, _ = step_grid(p.r, t_end, h)
    dw = np.zeros(n) if p.epsilon == 0.0 else \
        seed.rng(replica).normal(0.0, math.sqrt(h), n)
    return _run_path(p, ic, h, m, dw, replica)


def deterministic_euler(p: Params, ic: InitialCondition, t_end: float,
                        h: float) -> Trajectory:
    """Forward-Euler reference path written with the same update grouping
    as the stochastic step, so the eps = 0 stochastic path matches it
    bitwise."""
    p.require_valid()
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
    return Trajectory(times=np.arange(n + 1) * h, states=out, step=h)


@dataclass(frozen=True)
class EnsembleSummary:
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
    p.require_valid()
    if n_rep < 1:
        raise ValidationError(f"n_rep: must be >= 1, got {n_rep!r}")
    if replica_base < 0:
        raise ValidationError(
            f"replica_base: must be >= 0, got {replica_base!r}")
    n, m, _ = step_grid(p.r, t_end, h)
    ref = _run_path(replace(p, epsilon=0.0), ic, h, m, np.zeros(n), -1)
    sups, finals = _run_replicas(p, ic, h, n, m, seed, replica_base, n_rep,
                                 ref.states)
    mf = finals.mean(axis=0)
    grid = _default_rho_grid(sups) if rho_grid is None else \
        np.sort(np.asarray(rho_grid, dtype=float))
    return EnsembleSummary(
        n_rep=n_rep,
        sup_deviations=sups,
        mean_final=make_run_state(*(float(v) for v in mf)),
        tail=_tail(sups, grid),
    )


@dataclass(frozen=True)
class ConcentrationReport:
    """Fit of the concentration tail P(sup > rho) ~ exp(-c*rho^2/eps^2).

    c_hat is the through-origin least-squares slope on log-tail points with
    at least MIN_EXCEEDANCES exceedances (None when eps = 0, which makes
    every tail entry 0). transfer_* report whether exp(-c_hat*rho^2/eps'^2)
    times the safety factor dominates a fresh ensemble at the larger eps'.
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


def concentration_check(p: Params, ic: InitialCondition, t_end: float,
                        h: float, n_rep: int,
                        rho_grid: Optional[Sequence[float]], seed: Seed,
                        transfer_factor: float = 2.0,
                        safety: float = 3.0) -> ConcentrationReport:
    """Estimate the tail-decay constant and test it at a larger noise level.

    Fits c in P(sup > rho) = exp(-c*rho^2/eps^2) by least squares through
    the origin on grid points with >= 5 exceedances and a nontrivial tail
    (P < 1). Needs at least 2 usable points, else "insufficient
    exceedances". The decay constants of the underlying bound are
    existential; this estimates, never asserts, their values. With the
    fitted c the tail of a second ensemble at eps' = transfer_factor*eps is
    compared against exp(-c*rho^2/eps'^2)*safety pointwise. rho_grid = None
    takes the quantile grid that ensemble derives from the reference
    ensemble's sup deviations (empty when eps = 0).
    """
    p.require_valid()
    grid = ()
    if rho_grid is not None:
        grid = tuple(float(v) for v in np.sort(np.asarray(rho_grid, dtype=float)))
        if len(grid) == 0:
            raise ValidationError("rho_grid: must be nonempty")
        if any(v <= 0.0 for v in grid):
            raise ValidationError("rho_grid: entries must be > 0")
    if p.epsilon == 0.0:
        zeros = tuple(0.0 for _ in grid)
        return ConcentrationReport(
            eps=0.0, rho_grid=grid, tail=zeros,
            exceed_counts=tuple(0 for _ in grid), c_hat=None, n_fit_points=0,
            eps_transfer=None, transfer_tail=(), transfer_bound=(),
            transfer_ok=None, safety=safety, degenerate=True)

    ens = ensemble(p, ic, t_end, h, n_rep, seed,
                   rho_grid=None if rho_grid is None else grid)
    grid = tuple(rho for rho, _ in ens.tail)
    tail = tuple(pr for _, pr in ens.tail)
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

    eps2 = p.epsilon * transfer_factor
    p2 = replace(p, epsilon=eps2)
    ens2 = ensemble(p2, ic, t_end, h, n_rep, seed, rho_grid=grid,
                    replica_base=n_rep)
    tail2 = tuple(pr for _, pr in ens2.tail)
    bound = tuple(safety * math.exp(-c_hat * rho * rho / (eps2 * eps2))
                  for rho in grid)
    ok = all(pr <= bd for pr, bd in zip(tail2, bound))
    return ConcentrationReport(
        eps=p.epsilon, rho_grid=grid, tail=tail, exceed_counts=counts,
        c_hat=c_hat, n_fit_points=len(xs), eps_transfer=eps2,
        transfer_tail=tail2, transfer_bound=bound, transfer_ok=ok,
        safety=safety, degenerate=False)


def lyapunov_condition(p: Params) -> bool:
    """Noise-robust stability condition for the nondelayed disease-free point:

        mu - beta - eps^2/(2*mu*k_r) > 0

    equivalent (mu > 0) to mu > (beta + sqrt(beta^2 + 2*eps^2/k_r))/2.
    At eps = 0 it reduces to mu > beta. Requires r = 0.
    """
    p.require_valid()
    if p.r != 0.0:
        raise ValidationError("nondelayed analysis only: r must be 0")
    return p.mu - p.beta - p.epsilon ** 2 / (2.0 * p.mu * p.k_r) > 0.0


@dataclass(frozen=True)
class LyapunovCertificate:
    """Witness for negativity of the generator on V = u1^2 + v2 u2^2 + v3 u3^2.

    ineq1..ineq3 are the three coefficient bounds obtained after splitting
    the cross terms with Young's inequality (all must be <= 0); lv_bound is
    the max of LV/|u|^2 over a deterministic grid of 1000 points in (0,1]^3
    and must be < 0 for holds.
    """

    v2: float
    v3: float
    lambda1_sq: float
    lambda3_sq: float
    alpha0: float
    ineq1: float
    ineq2: float
    ineq3: float
    lv_bound: float
    holds: bool


def _lv_grid_bound(p: Params, v2: float, v3: float) -> float:
    """Max of LV(u)/|u|^2 over the 10x10x10 grid u_i in {0.1, ..., 1.0}."""
    g = np.arange(1, 11) / 10.0
    u1, u2, u3 = np.meshgrid(g, g, g, indexing="ij")
    lv = (2.0 * (p.beta + v2 / p.k_r) * u1 * u2
          + 2.0 * v3 * p.mu * u2 * u3
          - 2.0 / p.k_r * u1 ** 2
          - (2.0 * v2 * p.mu - p.epsilon ** 2) * u2 ** 2
          - 2.0 * v3 * p.gamma * u3 ** 2)
    nrm = u1 ** 2 + u2 ** 2 + u3 ** 2
    return float(np.max(lv / nrm))


def lyapunov_certificate(p: Params) -> LyapunovCertificate:
    """Construct the quadratic Lyapunov certificate when the condition holds.

    v2 = k_r*(2*mu - beta) minimizes the v2 quadratic; alpha0 = 1e-6 gives
    lambda1^2 = (2/k_r - alpha0)/(beta + v2/k_r); lambda3^2 = gamma/mu; v3 is
    the largest of {1, 1e-1, ..., 1e-8} making the second inequality hold.
    Raises "certificate construction failed" if no grid v3 works (distinct
    from the condition being false, which is a precondition error).
    """
    p.require_valid()
    if p.r != 0.0:
        raise ValidationError("nondelayed analysis only: r must be 0")
    if not lyapunov_condition(p):
        raise ValidationError(
            "lyapunov condition mu - beta - eps^2/(2*mu*k_r) > 0 is false")
    v2 = p.k_r * (2.0 * p.mu - p.beta)
    alpha0 = 1e-6
    coupling = p.beta + v2 / p.k_r
    lam1_sq = (2.0 / p.k_r - alpha0) / coupling
    if lam1_sq <= 0.0:
        raise RuntimeError("certificate construction failed: lambda1^2 <= 0")
    lam3_sq = p.gamma / p.mu

    def ineq2_at(v3: float) -> float:
        return (-2.0 * v2 * p.mu + p.epsilon ** 2 + coupling / lam1_sq
                + v3 * p.mu / lam3_sq)

    v3 = None
    for exponent in range(0, 9):
        cand = 10.0 ** (-exponent)
        if ineq2_at(cand) <= 0.0:
            v3 = cand
            break
    if v3 is None:
        raise RuntimeError(
            "certificate construction failed: no v3 in {1, ..., 1e-8} "
            "satisfies the second inequality")
    i1 = -2.0 / p.k_r + lam1_sq * coupling
    i2 = ineq2_at(v3)
    i3 = -2.0 * v3 * p.gamma + lam3_sq * v3 * p.mu
    bound = _lv_grid_bound(p, v2, v3)
    holds = i1 <= 0.0 and i2 <= 0.0 and i3 <= 0.0 and bound < 0.0
    return LyapunovCertificate(
        v2=v2, v3=v3, lambda1_sq=lam1_sq, lambda3_sq=lam3_sq, alpha0=alpha0,
        ineq1=i1, ineq2=i2, ineq3=i3, lv_bound=bound, holds=holds)


@dataclass(frozen=True)
class StochasticStabilityReport:
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
    p.require_valid()
    if p.r != 0.0:
        raise ValidationError("nondelayed analysis only: r must be 0")
    if n_rep < 1:
        raise ValidationError(f"n_rep: must be >= 1, got {n_rep!r}")
    n, _, _ = step_grid(0.0, t_end, h)
    _, finals = _run_replicas(p, ic, h, n, 0, seed, 0, n_rep, None)
    eir = finals[:, 1:].sum(axis=1)
    return StochasticStabilityReport(
        n_rep=n_rep,
        mean_eir=float(eir.mean()),
        p95_eir=float(np.percentile(eir, 95)),
        condition_satisfied=lyapunov_condition(p),
    )

"""Stochastic simulation and the noise-robustness toolkit.

The stochastic model perturbs the S <-> E transfer by a single scalar
Brownian increment: S loses eps*S*I dW, E gains the same amount, I and R
keep their drift. Euler-Maruyama stepping moves every transfer (and the
noise term) between compartments as one rounded value, so S+E+I+R is
conserved up to the rounding of the additions alone and the eps = 0 path
is bitwise equal to deterministic Euler. A single path (simulate_sde) is
_stream._run_path, which draws its noise in pure Python and needs no numpy;
this module is the replica ensembles, which draw theirs from numpy
Generators seeded from the same PCG64 states (Seed.rngs).

One replica engine (_run_replicas) steps every ensemble: all replicas at
once over a replica axis, each column bitwise equal to its simulate_sde
path, reduced as they step to a sup deviation and a final node. The eps = 0
path that the deviations are measured from is one more column of the same
engine, so an ensemble holds no path and its memory does not grow with the
step count. On top of it: replica ensembles against that path, an
empirical check of the exp(-c*rho^2/eps^2) concentration tail, and the
stochastic stability experiment, which reports lyapunov's noise-robust
stability condition next to its terminal spread.
"""
from __future__ import annotations

import functools
import math
import sys
from typing import NamedTuple, Optional, Sequence

from ._stream import (_NOISE_CHUNK, EXCURSION_BAND, ExcursionError,
                      _excursion_error, _run_path, spawned_words)
from .det_integrator import Trajectory
from .model_core import (InitialCondition, Params, State, ValidationError,
                         _Checked, _rho_grid, make_run_state, step_grid)

# after the package's modules, which a run without cached bytecode compiles
# first: a smaller peak RSS in a concentration run
import numpy as np

__all__ = [
    "TRANSFER_FACTOR",
    "SAFETY",
    "Seed",
    "InsufficientExceedances",
    "EnsembleSummary",
    "ConcentrationReport",
    "StochasticStabilityReport",
    "simulate_sde",
    "ensemble",
    "concentration_check",
    "stochastic_stability_experiment",
]


def _check_int(name: str, value, low: int) -> None:
    """Reject value, naming the argument, unless it is an integer >= low
    (a bool is not one)."""
    if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and value >= low):
        raise ValidationError(
            f"{name}: must be an integer >= {low}, got {value!r}")


class _SeedFields(NamedTuple):
    master: int


@functools.cache
def _spawned_state() -> type:
    """The class that stands in for SeedSequence(master,
    spawn_key=(replica,)) when a PCG64 is seeded: it hands over the
    precomputed generate_state(4, np.uint64), once, so that the array of a
    run's states is freed when the run is seeded. Built on first use,
    because numpy imports numpy.random lazily and importing it with this
    module raises the peak RSS of a concentration run by about 0.2 MB. (A
    plain class registered with ISeedSequence is cheaper to build but
    slower to seed from, by about 1 ms over the golden's 1600 streams.)"""
    from numpy.random.bit_generator import ISeedSequence

    class SpawnedState(ISeedSequence):
        __slots__ = ("state",)

        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            state, self.state = self.state, None
            return state

    return SpawnedState


class Seed(_Checked, _SeedFields):
    """Master seed plus the replica-stream derivation rule.

    Stream i is seeded as by SeedSequence(master, spawn_key=(i,)), so the
    pair (master, replica) determines the noise path no matter how many
    replicas run or in which order. There is one derivation of those
    states, _stream.spawned_words, and two samplers: rngs seeds numpy
    Generators from it for the replica ensembles, and a single path
    (simulate_sde) draws from _stream.Stream, which steps the same PCG64 in
    Python integers. rng(i) is rngs(i, 1)[0]. A returned Generator's
    bit_generator.seed_seq is a spent stand-in, not a SeedSequence: it
    cannot spawn nor generate state again.
    """

    __slots__ = ()

    def __new__(cls, master):
        _check_int("master", master, 0)
        return tuple.__new__(cls, (master,))

    def rng(self, replica: int = 0) -> np.random.Generator:
        return self.rngs(replica, 1)[0]

    def rngs(self, first: int, count: int) -> list[np.random.Generator]:
        """The Generators of replicas first .. first + count - 1."""
        _check_int("replica", first, 0)
        _check_int("count", count, 0)
        states = np.empty((count, 4), dtype=np.uint64)
        for done, n, words in spawned_words(int(self.master), int(first),
                                            count):
            for k, word in enumerate(words):
                states[done:done + n, k] = np.frombuffer(
                    word.to_bytes(8 * n, "little"), "<u8")
        spawned = _spawned_state()
        return [np.random.Generator(np.random.PCG64(spawned(row)))
                for row in states]


class InsufficientExceedances(RuntimeError):
    """Too few tail points with enough exceedances to fit the decay constant."""


# Replicas step together over a replica axis, in blocks of at most
# _REPLICA_BLOCK replicas, plus the eps = 0 column when deviations are
# measured; each block draws its noise _NOISE_CHUNK steps at a time, as a
# single path (_stream._increments) draws its own. Per column a block holds
# _NOISE_CHUNK + m + 20 floats (noise chunk, E history, state, flows, rates,
# deviations, sups), 1184 + 8 m bytes at the default chunk, and one
# Generator, about 0.7 kB with its PCG64 and bound draw method (numpy 2.4);
# sups and finals hold 5 floats per replica. So memory grows with the total
# column count (both ensembles of a concentration check, about 3 MB for the
# golden's 1600 replicas) and with m, and not with n. The cap fits the
# 2 x 800 replicas of the concentration golden in one block.
_REPLICA_BLOCK = 2048


def _run_replicas(p: Params, ic: InitialCondition, h: float, n: int, m: int,
                  seed: Seed, base: int, eps: np.ndarray, ref: bool
                  ) -> tuple[np.ndarray, np.ndarray, Optional[ExcursionError]]:
    """Replicas base .. base + len(eps) - 1, reduced as they step.

    Replica base + j steps at noise level eps[j] (the other parameters are
    p's). Returns (sups, finals, first): sups[j] is the max over nodes and
    components of |x_j - x_0|, x_0 the eps = 0 path, which every block
    steps in a column of its own when ref is true (all zero when ref is
    false), finals the (len(eps), 4) last nodes, and first the
    ExcursionError that the caller raises, or None: the eps = 0 path's
    (replica -1, untagged) if it leaves the band, else that of the
    lowest-index replica that did. Replica base + j draws its increments
    from seed.rngs(base, ...)[j] and follows the update of
    _kernels.euler_maruyama operation for operation, so each column agrees
    bitwise with simulate_sde at its noise level. When first is set, the
    replicas from first.replica on stop stepping and their entries are
    meaningless.
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
    s, e, i, (e, i, rc), (i, rc) and column 0 of the state x and a, b, d,
    (a, b, c), (b, c, d), (c, d) of the flows."""
    return (x[0], x[1], x[2], x[1:], x[2:], x[:, :1], flow[0], flow[1],
            flow[3], flow[:3], flow[1:], flow[2:])


def _replica_block(p: Params, ic: InitialCondition, h: float, n: int, m: int,
                   seed: Seed, base: int, eps: np.ndarray, ref: bool
                   ) -> tuple[np.ndarray, np.ndarray, Optional[ExcursionError]]:
    lo, hi = -EXCURSION_BAND, 1.0 + EXCURSION_BAND
    beta, kr = p.beta, p.k_r
    # with ref, column 0 is the eps = 0 path and replica base + j column
    # j + 1
    off = int(ref)
    eps = np.concatenate((np.zeros(off), eps))
    # column j fills row j of dw with a chunk of standard normals, which are
    # then scaled in place to the chunk's increments; a column at eps = 0
    # draws nothing, as simulate_sde draws nothing at eps = 0. The streams
    # are derived before the step buffers are allocated, which then reuse
    # the memory that the derivation frees.
    dw = np.zeros((len(eps), _NOISE_CHUNK))
    draws = [(j, gen.standard_normal, dw[j]) for j, gen in
             enumerate(seed.rngs(base, len(eps) - off) if eps.any() else (),
                       off)
             if eps[j] != 0.0]
    x = np.empty((4, len(eps)))     # rows S, E, I, R; one column per path
    x.T[:] = (ic.s0, ic.e0, ic.i0, ic.r0)
    # the c and d coefficients, full width: a (2, 1) broadcast steps slower
    rates = np.empty((2, len(eps)))
    rates.T[:] = (p.mu, p.gamma)
    flow = np.empty((4, len(eps)))  # rows a, b, c, d of the step
    w = np.empty(len(eps))
    dev = np.empty((4, len(eps)))
    sup = np.zeros((4, len(eps)))
    sd = math.sqrt(h)
    # E at nodes k - m .. k, node j's in row j % (m + 1), all node 0's first
    hist = np.empty((m + 1, len(eps)))
    hist[:] = ic.e0
    first = None
    s, e, i, e_i_r, i_r, x0, a, b, d, a_b_c, b_c_d, c_d = _step_views(x, flow)
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
        ed = e if m == 0 else hist[(k - m) % (m + 1)]
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
            # drop every column from the first one out of the band on: only
            # a lower-index excursion can change what is returned. The
            # eps = 0 path's wins over all, so once every replica is out
            # it steps on alone
            out = (x < lo) | (x > hi)
            j = int(np.argmax(out.any(axis=0)))
            comp = int(np.argmax(out[:, j]))
            first = _excursion_error(k + 1, comp, x[comp, j],
                                     base + j - off if j >= off else -1)
            if j == 0:
                break
            x, flow, dev, sup, hist, rates = (
                buf[:, :j] for buf in (x, flow, dev, sup, hist, rates))
            w, eps, dw = w[:j], eps[:j], dw[:j]
            s, e, i, e_i_r, i_r, x0, a, b, d, a_b_c, b_c_d, c_d = _step_views(
                x, flow)
            draws = [draw for draw in draws if draw[0] < j]
        if ref:
            np.subtract(x, x0, out=dev)
            np.abs(dev, out=dev)
            np.maximum(sup, dev, out=sup)
    return sup.max(axis=0)[off:], x.T[off:], first


def simulate_sde(p: Params, ic: InitialCondition, t_end: float, h: float,
                 seed: Seed, replica: int = 0) -> Trajectory:
    """One Euler-Maruyama path of the stochastic system.

    A single Gaussian increment per step enters S with sign - and E with
    sign +; I and R are drift-only. The delayed exposed value is read as in
    the deterministic integrator, on the same step_grid. Components leaving
    [-0.05, 1.05] abort with an excursion diagnostic naming the step and
    component. The increments are seed.rng(replica).normal(0.0, sqrt(h), k)
    bit for bit, drawn by _stream.Stream without numpy, so the simulate-sde
    command runs without numpy; this module, the ensembles', imports numpy,
    so this call loads it. The whole path is one window; the command line
    streams the same nodes in windows (_stream._run_path).
    """
    _check_int("replica", replica, 0)
    n, m, _ = step_grid(p.r, t_end, h)
    return _run_path(p, ic, h, n, m, int(seed.master), int(replica))


class EnsembleSummary(NamedTuple):
    """Replica statistics against the eps = 0 path.

    sup_deviations[i] is the max over nodes and components of the absolute
    difference between replica i and the eps = 0 reference; tail holds
    (rho, empirical P(sup > rho)) pairs, nonincreasing in rho.
    """

    n_rep: int
    sup_deviations: np.ndarray
    mean_final: State
    tail: tuple[tuple[float, float], ...]


def _counts(sups: np.ndarray, rho_grid: Sequence[float]) -> tuple[int, ...]:
    """How many of sups exceed each rho of rho_grid."""
    return tuple(int(np.count_nonzero(sups > rho)) for rho in rho_grid)


def _default_rho_grid(sups: np.ndarray) -> np.ndarray:
    qs = np.quantile(sups, [0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.98])
    return np.unique(qs[qs > 0.0])


def ensemble(p: Params, ic: InitialCondition, t_end: float, h: float,
             n_rep: int, seed: Seed, rho_grid: Optional[Sequence[float]] = None,
             replica_base: int = 0) -> EnsembleSummary:
    """Run n_rep replicas against the eps = 0 path.

    rho_grid supplies the tail abscissas; when omitted a quantile-derived
    grid of the observed sup deviations is used. replica_base offsets the
    stream indices so disjoint ensembles can share one master seed. Replica
    failures propagate with the replica index attached; when several
    replicas leave the band, the lowest index is reported. An excursion of
    the eps = 0 path wins over them all and carries no index, as in a
    scalar run of that path.
    """
    _check_int("n_rep", n_rep, 1)
    _check_int("replica_base", replica_base, 0)
    grid = None if rho_grid is None else _rho_grid(rho_grid)
    n, m, _ = step_grid(p.r, t_end, h)
    sups, finals, first = _run_replicas(p, ic, h, n, m, seed, replica_base,
                                        np.full(n_rep, p.epsilon), True)
    if first is not None:
        raise first
    grid = _default_rho_grid(sups) if grid is None else grid
    mf = finals.mean(axis=0)
    return EnsembleSummary(
        n_rep=n_rep,
        sup_deviations=sups,
        mean_final=make_run_state(*(float(v) for v in mf)),
        tail=tuple((float(rho), cnt / n_rep)
                   for rho, cnt in zip(grid, _counts(sups, grid))),
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
    pass beside one eps = 0 column. Errors come in the order two ensemble
    calls would raise them: an excursion of the eps = 0 path, then one of a
    reference replica, then InsufficientExceedances, then an excursion of a
    transfer replica.
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
        p, ic, h, n, m, seed, 0, np.repeat([p.epsilon, eps2], n_rep), True)
    if first is not None and first.replica < n_rep:
        raise first
    if rho_grid is None:
        grid = tuple(float(rho) for rho in _default_rho_grid(sups[:n_rep]))
    counts = _counts(sups[:n_rep], grid)
    tail = tuple(cnt / n_rep for cnt in counts)
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
    tail2 = tuple(cnt / n_rep for cnt in _counts(sups[n_rep:], grid))
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
    # imported here, its one use, so that the commands do not load it
    from .lyapunov import lyapunov_condition

    if p.r != 0.0:
        raise ValidationError("nondelayed analysis only: r must be 0")
    _check_int("n_rep", n_rep, 1)
    n, _, _ = step_grid(0.0, t_end, h)
    _, finals, first = _run_replicas(p, ic, h, n, 0, seed, 0,
                                     np.full(n_rep, p.epsilon), False)
    if first is not None:
        raise first
    eir = finals[:, 1:].sum(axis=1)
    return StochasticStabilityReport(
        n_rep=n_rep,
        mean_eir=float(eir.mean()),
        p95_eir=float(np.percentile(eir, 95)),
        condition_satisfied=lyapunov_condition(p),
    )

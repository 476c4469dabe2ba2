"""Core model types: parameters, simplex states, initial data, validation.

The model tracks population fractions (S, E, I, R) with S + E + I + R = 1.
Transmission moves mass S -> E at rate beta*S*I, exposure resolves E -> I
after a fixed latency delay r at rate E(t - r)/k_r, infection resolves
I -> R at rate mu, and immunity wanes R -> S at rate gamma. epsilon scales
an optional noise term on the S <-> E transfer.

Admissibility of the delayed model requires k_r >= r*e; below that bound the
exposed fraction can be driven negative by the lagged outflow. Every Params
is admissible: building one, directly or through _replace, raises
ValidationError listing all violations. validate_params reports on raw
values without raising.

The step-grid rule of every stepped run (step_grid, default_step) and the
check of a tail-abscissa grid live here too: they are float rules that a run
configuration applies at construction, before any array exists.
"""
from __future__ import annotations

import math
import sys
from typing import NamedTuple, Optional, Sequence

__all__ = [
    "SUM_TOL",
    "PROPAGATION_SUM_TOL",
    "NEGATIVITY_TOL",
    "ValidationError",
    "NoCrossingError",
    "Violation",
    "ValidationReport",
    "Params",
    "State",
    "InitialCondition",
    "validate_params",
    "make_state",
    "make_initial_condition",
    "make_run_state",
    "GRID_RTOL",
    "MAX_NODES",
    "step_grid",
    "default_step",
]

# simplex-sum slack at construction time and after propagation
SUM_TOL = 1e-12
PROPAGATION_SUM_TOL = 1e-10
# how far below zero a component may drift before the run is declared invalid
NEGATIVITY_TOL = -1e-9


class ValidationError(ValueError):
    """A constructive check failed; the message names the violated constraint."""


class NoCrossingError(ValueError):
    """No imaginary-axis crossing exists (or can be located) for this input."""


class Violation(NamedTuple):
    """One failed constraint: the field involved and the constraint text."""

    field: str
    constraint: str

    def __str__(self) -> str:
        return f"{self.field}: {self.constraint}"


class ValidationReport(NamedTuple):
    """Outcome of validating a parameter set."""

    ok: bool
    violations: tuple[Violation, ...] = ()

    def message(self) -> str:
        return "; ".join(str(v) for v in self.violations)


class _Checked:
    """Base of a record whose __new__ checks: _make and _replace check too."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _ParamsFields(NamedTuple):
    beta: float
    mu: float
    gamma: float
    k_r: float
    r: float = 0.0
    epsilon: float = 0.0


class Params(_Checked, _ParamsFields):
    """Model constants.

    beta, mu, gamma are the transmission, recovery and immunity-loss rates,
    each strictly inside (0, 1). k_r > 0 scales the latency outflow, r >= 0
    is the latency delay and epsilon >= 0 the noise intensity; k_r >= r*e
    when r > 0. Construction raises ValidationError naming every violated
    constraint, so every instance is admissible.
    """

    __slots__ = ()

    def __new__(cls, beta, mu, gamma, k_r, r=0.0, epsilon=0.0):
        rep = validate_params(beta, mu, gamma, k_r, r, epsilon)
        if rep is _VALID:
            return tuple.__new__(cls, (beta, mu, gamma, k_r, r, epsilon))
        if not rep.ok:
            raise ValidationError(rep.message())
        # an int or a float subclass (a numpy scalar) is stored as the plain
        # float that reports format and that the fast path takes
        return tuple.__new__(cls, (float(beta), float(mu), float(gamma),
                                   float(k_r), float(r), float(epsilon)))


def _finite(x) -> bool:
    # a bool is an int too, but no rate, delay or fraction
    return (type(x) is not bool and isinstance(x, (int, float))
            and math.isfinite(x))


_VALID = ValidationReport(ok=True)


def validate_params(beta, mu, gamma, k_r, r=0.0,
                    epsilon=0.0) -> ValidationReport:
    """Check every admissibility constraint and report all failures at once.

    Never raises: non-finite entries produce a named "finite" violation.
    The admissibility region is monotone in k_r: if (beta, mu, gamma, k_r, r,
    epsilon) passes, so does any larger k_r. Plain floats inside every
    bound, the common case, take one chained comparison and share one valid
    report; anything else gets the list of violations from _violations.
    """
    if (type(beta) is type(mu) is type(gamma) is type(k_r) is type(r)
            is type(epsilon) is float
            and 0.0 < beta < 1.0 and 0.0 < mu < 1.0 and 0.0 < gamma < 1.0
            and 0.0 < k_r < math.inf and 0.0 <= r < math.inf
            and 0.0 <= epsilon < math.inf and (r == 0.0 or k_r >= r * math.e)):
        return _VALID
    bad = _violations(beta, mu, gamma, k_r, r, epsilon)
    return ValidationReport(ok=not bad, violations=bad)


def _violations(beta, mu, gamma, k_r, r, epsilon) -> tuple[Violation, ...]:
    """Every admissibility constraint the values violate, in a fixed order."""
    values = {"beta": beta, "mu": mu, "gamma": gamma, "k_r": k_r, "r": r,
              "epsilon": epsilon}
    bad: list[Violation] = []
    for name, v in values.items():
        if not _finite(v):
            bad.append(Violation(name, "must be finite"))
    for name in ("beta", "mu", "gamma"):
        v = values[name]
        if not (_finite(v) and 0.0 < v < 1.0):
            bad.append(Violation(name, "must lie strictly in (0, 1)"))
    if not (_finite(k_r) and k_r > 0.0):
        bad.append(Violation("k_r", "must be > 0"))
    if not (_finite(r) and r >= 0.0):
        bad.append(Violation("r", "must be >= 0"))
    if not (_finite(epsilon) and epsilon >= 0.0):
        bad.append(Violation("epsilon", "must be >= 0"))
    if _finite(r) and _finite(k_r) and r > 0.0 and k_r < r * math.e:
        bad.append(Violation("k_r", "must satisfy k_r >= r*e when r > 0"))
    return tuple(bad)


class State(NamedTuple):
    """A point on the population simplex: s + e + i + rcv = 1, all in [0, 1].

    Build instances through :func:`make_state`, which enforces the invariants.
    """

    s: float
    e: float
    i: float
    rcv: float

    @property
    def total(self) -> float:
        return ((self.s + self.e) + self.i) + self.rcv


def make_state(s: float, e: float, i: float, rcv: float) -> State:
    """Validate and build a simplex state.

    Components may undershoot zero by at most SUM_TOL (they are clamped to 0),
    anything lower is rejected; the total must equal 1 within SUM_TOL.
    Negativity is diagnosed before the sum so the error names the real cause.
    Plain floats in [0, 1] whose sum passes, the common case, need no clamp
    and are taken in one chained comparison; anything else goes through
    _checked_state.
    """
    if (type(s) is type(e) is type(i) is type(rcv) is float
            and 0.0 <= s <= 1.0 and 0.0 <= e <= 1.0 and 0.0 <= i <= 1.0
            and 0.0 <= rcv <= 1.0 and abs(((s + e) + i) + rcv - 1.0) <= SUM_TOL):
        return State(s, e, i, rcv)
    return _checked_state(s, e, i, rcv)


def _checked_state(s, e, i, rcv) -> State:
    """make_state's checks one by one: the first failure raises."""
    comps = [s, e, i, rcv]
    names = ("s", "e", "i", "rcv")
    for name, v in zip(names, comps):
        if not _finite(v):
            raise ValidationError(f"{name}: must be finite")
    for name, v in zip(names, comps):
        if v < -SUM_TOL:
            raise ValidationError(f"{name}: negative component {v!r}")
    comps = [0.0 if v < 0.0 else v for v in comps]
    total = ((comps[0] + comps[1]) + comps[2]) + comps[3]
    if abs(total - 1.0) > SUM_TOL:
        raise ValidationError(f"component sum {total!r} differs from 1 by more than {SUM_TOL}")
    return State(*[1.0 if v > 1.0 else float(v) for v in comps])


class InitialCondition(NamedTuple):
    """Initial data for the delayed model.

    e0 is the constant exposed-fraction history on [-r, 0] (and the exposed
    value at t = 0); s0, i0, r0 are the remaining fractions at t = 0.
    Build through :func:`make_initial_condition`.
    """

    e0: float
    s0: float
    i0: float
    r0: float

    def state0(self) -> State:
        """The state at t = 0."""
        return make_state(self.s0, self.e0, self.i0, self.r0)


def make_initial_condition(e0: float, s0: float, i0: float,
                           r0: float) -> InitialCondition:
    """Validate and build initial data; same tolerances as :func:`make_state`."""
    st = make_state(s0, e0, i0, r0)
    return InitialCondition(e0=st.e, s0=st.s, i0=st.i, r0=st.rcv)


def make_run_state(s: float, e: float, i: float, rcv: float) -> State:
    """Build a State from integrator output.

    Propagated nodes satisfy the run-level tolerances (sum within
    PROPAGATION_SUM_TOL, components above NEGATIVITY_TOL), which are looser
    than the construction tolerance of :func:`make_state`. Components are
    clamped to [0, 1] and rescaled onto the exact simplex; the adjustment is
    bounded by the run tolerances themselves.
    """
    comps = [s, e, i, rcv]
    names = ("s", "e", "i", "rcv")
    for name, v in zip(names, comps):
        if not _finite(v):
            raise ValidationError(f"{name}: must be finite")
        if v < NEGATIVITY_TOL:
            raise ValidationError(f"{name}: negative component {v!r}")
    comps = [min(1.0, max(0.0, v)) for v in comps]
    total = ((comps[0] + comps[1]) + comps[2]) + comps[3]
    if abs(total - 1.0) > PROPAGATION_SUM_TOL:
        raise ValidationError(
            f"component sum {total!r} differs from 1 by more than "
            f"{PROPAGATION_SUM_TOL}")
    return make_state(*(v / total for v in comps))


# relative tolerance within which a step divides the delay or the horizon
GRID_RTOL = 1e-12
# a whole-path run steps into one bytearray of 32 bytes a node
# (det_integrator._run_windows), and no Python object holds more than
# sys.maxsize bytes; a streamed run holds a window, on the same grid rule
MAX_NODES = sys.maxsize // 32


def step_grid(r: float, t_end: float, h: float) -> tuple[int, int, float]:
    """Step count n, delay offset m = r/h (0 when r = 0) and last node time
    n*h of a stepped run with delay r, horizon t_end and step h.

    For r > 0, h must divide r into at least 3 steps (delayed values at the
    nodes are then stored nodes, and with k_r >= r*e every step has h/k_r <=
    1/(3e), well inside the stability interval of RK4 and Euler-Maruyama on
    the decay of E; the solvers themselves would step any whole r/h >= 1) and
    t_end >= r; the nodes cover [0, t_end], rounding up when t_end is not a
    whole number of steps. For r = 0, h must divide t_end. The rules differ
    because with r > 0 the step is pinned by the delay, so the horizon cannot
    always be a multiple of it; with r = 0 the step is free. "Divides" holds
    within GRID_RTOL, relative. A grid of more than MAX_NODES nodes, which
    no whole-path buffer can hold, is rejected (to within the rounding of
    t_end/h).
    """
    if not (h > 0.0 and math.isfinite(h)):
        raise ValidationError(f"h: must be a positive finite step, got {h!r}")
    if not math.isfinite(t_end):
        raise ValidationError(f"t_end: must be finite, got {t_end!r}")
    # the grid spans [0, t_end] and t_end >= r; checked first, as a step
    # count past the float range cannot be rounded
    nodes = max(r, t_end) / h + 1.0
    if not nodes <= MAX_NODES:
        raise ValidationError(
            f"a grid over [0, {max(r, t_end)!r}] at step h={h!r} has "
            f"{nodes:.6g} nodes, more than the {MAX_NODES} one array can hold")
    m = 0
    if r > 0.0:
        m = _whole_steps(r, h)
        if m is None:
            raise ValidationError(f"step h={h!r} does not divide the delay r={r!r}")
        if m < 3:
            raise ValidationError(
                f"step h={h!r} gives r/h = {m}: the delay must span at least 3 steps")
        if t_end < r:
            raise ValidationError(f"t_end={t_end!r} must be at least the delay r={r!r}")
    n = _whole_steps(t_end, h)
    if n is None:
        if r == 0.0:
            raise ValidationError(
                f"t_end={t_end!r} is not an integer multiple of the step h={h!r} "
                "(required when r = 0)")
        n = math.ceil(t_end / h)
    return n, m, n * h


def _whole_steps(total: float, h: float) -> Optional[int]:
    """total/h when it is a positive whole number within GRID_RTOL, else None."""
    k = total / h
    n = round(k)
    return n if n >= 1 and abs(k - n) <= GRID_RTOL * max(1.0, k) else None


def default_step(r: float) -> float:
    """Largest step <= min(0.01, r/50) dividing the delay r exactly
    (0.01 when r = 0)."""
    if r <= 0.0:
        return 0.01
    n = max(50, int(math.ceil(r / 0.01 - 1e-9)))
    return r / n


def _rho_grid(values: Sequence[float],
              name: str = "rho_grid") -> tuple[float, ...]:
    """The sorted tail abscissas; each must be positive and finite. Errors
    call the grid name."""
    grid = tuple(float(v) for v in values)
    if not grid:
        raise ValidationError(f"{name}: must be nonempty")
    bad = [v for v in grid if not 0.0 < v < math.inf]
    if bad:
        raise ValidationError(
            f"{name}: entries must be positive and finite, got {bad[0]!r}")
    return tuple(sorted(grid))

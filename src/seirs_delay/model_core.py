"""Core model types: parameters, simplex states, initial data, validation.

The model tracks population fractions (S, E, I, R) with S + E + I + R = 1.
Transmission moves mass S -> E at rate beta*S*I, exposure resolves E -> I
after a fixed latency delay r at rate E(t - r)/k_r, infection resolves
I -> R at rate mu, and immunity wanes R -> S at rate gamma. epsilon scales
an optional noise term on the S <-> E transfer.

Admissibility of the delayed model requires k_r >= r*e; below that bound the
exposed fraction can be driven negative by the lagged outflow. Every Params
is admissible: building one, directly or through dataclasses.replace, raises
ValidationError listing all violations. validate_params reports on raw
values without raising.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "SUM_TOL",
    "PROPAGATION_SUM_TOL",
    "NEGATIVITY_TOL",
    "ValidationError",
    "Violation",
    "ValidationReport",
    "Params",
    "State",
    "InitialCondition",
    "validate_params",
    "make_state",
    "make_initial_condition",
    "make_run_state",
]

# simplex-sum slack at construction time and after propagation
SUM_TOL = 1e-12
PROPAGATION_SUM_TOL = 1e-10
# how far below zero a component may drift before the run is declared invalid
NEGATIVITY_TOL = -1e-9


class ValidationError(ValueError):
    """A constructive check failed; the message names the violated constraint."""


@dataclass(frozen=True)
class Violation:
    """One failed constraint: the field involved and the constraint text."""

    field: str
    constraint: str

    def __str__(self) -> str:
        return f"{self.field}: {self.constraint}"


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validating a parameter set."""

    ok: bool
    violations: tuple[Violation, ...] = ()

    def message(self) -> str:
        return "; ".join(str(v) for v in self.violations)


@dataclass(frozen=True)
class Params:
    """Model constants.

    beta, mu, gamma are the transmission, recovery and immunity-loss rates,
    each strictly inside (0, 1). k_r > 0 scales the latency outflow, r >= 0
    is the latency delay and epsilon >= 0 the noise intensity; k_r >= r*e
    when r > 0. Construction raises ValidationError naming every violated
    constraint, so every instance is admissible.
    """

    beta: float
    mu: float
    gamma: float
    k_r: float
    r: float = 0.0
    epsilon: float = 0.0

    def __post_init__(self):
        rep = validate_params(self.beta, self.mu, self.gamma, self.k_r,
                              self.r, self.epsilon)
        if not rep.ok:
            raise ValidationError(rep.message())


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def validate_params(beta, mu, gamma, k_r, r=0.0,
                    epsilon=0.0) -> ValidationReport:
    """Check every admissibility constraint and report all failures at once.

    Never raises: non-finite entries produce a named "finite" violation.
    The admissibility region is monotone in k_r: if (beta, mu, gamma, k_r, r,
    epsilon) passes, so does any larger k_r.
    """
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
    return ValidationReport(ok=not bad, violations=tuple(bad))


@dataclass(frozen=True)
class State:
    """A point on the population simplex: s + e + i + rcv = 1, all in [0, 1].

    Build instances through :func:`make_state`, which enforces the invariants.
    """

    s: float
    e: float
    i: float
    rcv: float

    def as_array(self):
        import numpy as np

        return np.array([self.s, self.e, self.i, self.rcv])

    @property
    def total(self) -> float:
        return ((self.s + self.e) + self.i) + self.rcv


def make_state(s: float, e: float, i: float, rcv: float) -> State:
    """Validate and build a simplex state.

    Components may undershoot zero by at most SUM_TOL (they are clamped to 0),
    anything lower is rejected; the total must equal 1 within SUM_TOL.
    Negativity is diagnosed before the sum so the error names the real cause.
    """
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
    comps = [1.0 if v > 1.0 else v for v in comps]
    return State(*comps)


@dataclass(frozen=True)
class InitialCondition:
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

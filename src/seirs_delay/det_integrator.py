"""Deterministic integration of the model.

Two routes:

* :func:`integrate_ode`: classical RK4 for the nondelayed system (r = 0).
* :func:`integrate_dde`: method of steps for r > 0 on the grid of
  :func:`model_core.step_grid`, whose step divides the delay, so the delayed term is
  always a stored node and no history interpolation happens. On [0, r] the
  delayed value is the constant initial history and RK4 keeps full order;
  afterwards an Adams-Bashforth/Adams-Moulton predictor-corrector of order 4
  runs over stored node derivatives.

Both step into the kernels' flat buffer of node floats, which the
Trajectory they return keeps with the reductions the kernel returned; the
module loads numpy only when a caller reads an array (states, times).
"""
from __future__ import annotations

from . import _kernels
from .model_core import (NEGATIVITY_TOL, PROPAGATION_SUM_TOL,
                         InitialCondition, Params, State, ValidationError,
                         make_run_state, step_grid)

__all__ = [
    "IntegrationError",
    "Trajectory",
    "integrate_ode",
    "integrate_dde",
]


class IntegrationError(RuntimeError):
    """An invariant failed during integration; .node is the first bad node."""

    def __init__(self, message: str, node: int = -1):
        super().__init__(message)
        self.node = node


class Trajectory:
    """Node times, states (rows of S, E, I, R) and the step used.

    The nodes are held as one flat buffer of floats, four a node: the
    given states array's own (a view when it is contiguous), or, for a
    kernel run (integrate_ode, integrate_dde, simulate_sde), the kernel's
    buffer, read-only, with the max_sum_defect and min_component the kernel
    returned. Given states are reduced by the kernels' rule
    (_kernels.extremes) at each call. len, last and final_state read the
    buffer, so they need no array; states is an (n + 1, 4) array over it,
    built on first read without a copy, so a kernel run's states cannot be
    written and its reductions stay its own. A run on a grid (on_grid)
    stores no times: they are built on first read, as floats k*step, and
    then kept. For integrate_ode and integrate_dde every stored node
    satisfies |S+E+I+R - 1| <= 1e-10 and min component >= -1e-9; breaches,
    a NaN node among them, abort the integration instead of being stored.
    """

    __slots__ = ("_times", "_nodes", "_extremes", "_states", "step")

    def __init__(self, times, states, step: float, extremes: tuple = ()):
        self._times, self.step, self._extremes = times, step, extremes
        self._nodes = (states if isinstance(states, memoryview)
                       else states.reshape(-1))
        self._states = None

    @classmethod
    def on_grid(cls, states, h: float) -> Trajectory:
        """states at the nodes k*h, k = 0 .. len(states) - 1."""
        return cls(None, states, h)

    @property
    def states(self):
        if self._states is None:
            import numpy as np

            self._states = np.asarray(self._nodes).reshape(-1, 4)
        return self._states

    @property
    def times(self):
        if self._times is None:
            import numpy as np

            # built as floats and scaled in place, so no second path-long
            # array is made
            times = np.arange(len(self), dtype=float)
            times *= self.step
            self._times = times
        return self._times

    def __len__(self) -> int:
        return len(self._nodes) // 4

    @property
    def last(self) -> list[float]:
        """The last node's S, E, I, R as floats."""
        return self._nodes[-4:].tolist()

    def final_state(self) -> State:
        return make_run_state(*self.last)

    def max_sum_defect(self) -> float:
        """max |S+E+I+R - 1| over the nodes (NaN if a node sum is NaN)."""
        return self._reductions()[0]

    def min_component(self) -> float:
        return self._reductions()[1]

    def _reductions(self) -> tuple[float, float]:
        # a path from given states is reduced at each call: the caller may
        # write them
        return self._extremes or _kernels.extremes(memoryview(self._nodes))


def _status_error(status: int, node: int) -> IntegrationError:
    if status == _kernels.SUM_BREACH:
        return IntegrationError(
            f"component sum drifted beyond {PROPAGATION_SUM_TOL} "
            f"at node {node}", node)
    return IntegrationError(
        f"component below {NEGATIVITY_TOL} at node {node}", node)


def integrate_ode(p: Params, x0: State, t_end: float, h: float) -> Trajectory:
    """Integrate the nondelayed system (p.r must be 0) with classical RK4.

    h must divide t_end (see step_grid). Simplex-sum drift beyond 1e-10 (a
    NaN sum among it) or a component below -1e-9 aborts with the node
    index.
    """
    if p.r != 0.0:
        raise ValidationError("integrate_ode requires r = 0; "
                              "use integrate_dde for a delayed run")
    n, _, _ = step_grid(0.0, t_end, h)
    nodes, status, node, *extremes = _kernels.ode_rk4(
        x0.s, x0.e, x0.i, x0.rcv, h, n, p.beta, p.mu, p.gamma, p.k_r,
        PROPAGATION_SUM_TOL, NEGATIVITY_TOL)
    if status != _kernels.OK:
        raise _status_error(status, node)
    return Trajectory(None, nodes.toreadonly(), h, tuple(extremes))


def integrate_dde(p: Params, ic: InitialCondition, t_end: float,
                  h: float) -> Trajectory:
    """Integrate the delayed system (p.r > 0) by the method of steps.

    The grid is step_grid's: r/h is a whole number >= 3, so delayed lookups
    hit stored nodes, and t_end >= r. Invariant breaches abort with the
    node index.
    """
    if not p.r > 0.0:
        raise ValidationError("integrate_dde requires r > 0; "
                              "use integrate_ode for the nondelayed system")
    n, m, _ = step_grid(p.r, t_end, h)
    nodes, status, node, *extremes = _kernels.dde_rk4_abm4(
        ic.s0, ic.e0, ic.i0, ic.r0, ic.e0, h, n, m,
        p.beta, p.mu, p.gamma, p.k_r, PROPAGATION_SUM_TOL, NEGATIVITY_TOL)
    if status != _kernels.OK:
        raise _status_error(status, node)
    return Trajectory(None, nodes.toreadonly(), h, tuple(extremes))

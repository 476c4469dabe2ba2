"""Deterministic integration of the model.

Two routes:

* :func:`integrate_ode`: classical RK4 for the nondelayed system (r = 0).
* :func:`integrate_dde`: classical RK4 for r > 0, fourth order, on the
  grid of :func:`model_core.step_grid`, whose step divides the delay, so
  the delayed term at a node is a node's E; at a half step it is the cubic
  Hermite interpolant of the nodes around it, so the breaking points
  t = r, 2r, .., which are nodes, cost no order.

Every path of the package, these two and the stochastic one
(_stream._run_path), is stepped by one window loop, :func:`_run_windows`,
a kernel call a window, into one buffer of one window's nodes: a whole
path as one window, kept in a Trajectory, or a streamed one passed on
window by window. A delayed path reads E(t - r) from the ring of its last
m + 1 nodes (_kernels.history), so no buffer holds a node before t = 0.
The module loads numpy only when a caller reads an array (states, times).
"""
from __future__ import annotations

import math

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

# steps per window of a streamed path; simulate and simulate-sde write each
# window as one CSV chunk, a few tens of kB at any length
_WINDOW = 512


class IntegrationError(RuntimeError):
    """An invariant failed during integration; .node is the first bad node."""

    def __init__(self, message: str, node: int = -1):
        super().__init__(message)
        self.node = node


class Trajectory:
    """A whole-path run's nodes (rows of S, E, I, R), the step used and the
    path's report reductions, as _run_windows returns them.

    The nodes are _run_windows' buffer, exactly the path's n + 1 rows,
    read-only, with the max_sum_defect and min_component the kernel
    returned. len, last and final_state read it without numpy; states, an
    (n + 1, 4) numpy array over it without a copy, and times, the floats
    k*step, are built on first read and then kept, so a run's states
    cannot be written and its reductions stay its own.
    """

    __slots__ = ("_times", "_nodes", "_extremes", "_states", "step")

    def __init__(self, nodes: memoryview, step: float, extremes: tuple):
        self._nodes, self.step, self._extremes = nodes, step, extremes
        self._states = self._times = None

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
        return self._extremes[0]

    def min_component(self) -> float:
        return self._extremes[1]


def _buffer(rows: int, row) -> memoryview:
    """A flat double view of rows copies of the floats of row, made by
    doubling copies in place; a MemoryError names the bytes and shape."""
    k = len(row)
    try:
        x = memoryview(bytearray(8 * k * rows)).cast("d")
    except MemoryError:
        raise MemoryError(f"cannot allocate the {8 * k * rows} bytes of a "
                          f"buffer of shape ({rows}, {k})") from None
    for c, v in enumerate(row):
        x[c] = v
    while k < len(x):
        x[k:2 * k] = x[:min(k, len(x) - k)]
        k *= 2
    return x


def _run_windows(node0, h: float, n: int, step, consume=None):
    """The n-step path from node0 (S, E, I, R), stepped in windows through
    one flat double buffer whose row 0 holds the window's start node.

    step(x, start, steps, defect, low) steps the window from node start by
    one kernel call; it raises on a failed node, counted from node 0, and
    returns the reductions of the path so far, given those before start.
    Without consume the path is one window, returned as a read-only
    Trajectory. With consume each window of _WINDOW steps passes its nodes
    but its last, flat, to consume(first index, nodes), a view that the
    next window overwrites, and carries its last node into row 0; that node
    goes alone at the end, and (last node, max_sum_defect, min_component)
    is returned.
    """
    w = n if consume is None else min(_WINDOW, n)
    x = _buffer(1 + w, node0)
    defect, low = 0.0, math.inf
    for start in range(0, n, w):
        steps = min(w, n - start)
        defect, low = step(x, start, steps, defect, low)
        if consume is None:
            return Trajectory(x.toreadonly(), h, (defect, low))
        consume(start, x[:4 * steps])
        x[:4] = x[4 * steps:4 * steps + 4]
    consume(n, x[:4])
    return x[:4].tolist(), defect, low


def _integrate(p: Params, node0, t_end: float, h: float, consume):
    """The path of integrate_ode (r = 0) or integrate_dde; a failed node
    raises an IntegrationError."""
    n, m, _ = step_grid(p.r, t_end, h)
    rates = p.beta, p.mu, p.gamma, p.k_r
    tols = PROPAGATION_SUM_TOL, NEGATIVITY_TOL
    ring = _kernels.history(node0, m, p.beta, p.k_r) if m else None

    def step(x, start, steps, defect, low):
        if m:
            status, node, defect, low = _kernels.dde_rk4_abm4(
                x, ring, *rates, steps, h, *tols, defect, low, start)
        else:
            status, node, defect, low = _kernels.ode_rk4(
                x, *rates, steps, h, *tols, defect, low)
        if status != _kernels.OK:
            node += start
            raise IntegrationError(
                f"component sum drifted beyond {tols[0]} at node {node}"
                if status == _kernels.SUM_BREACH
                else f"component below {tols[1]} at node {node}", node)
        return defect, low
    return _run_windows(node0, h, n, step, consume)


def integrate_ode(p: Params, x0: State, t_end: float, h: float, consume=None):
    """Integrate the nondelayed system (p.r must be 0) with classical RK4.

    h must divide t_end (see step_grid). Simplex-sum drift beyond 1e-10 (a
    NaN sum among it) or a component below -1e-9 aborts with the node
    index. With consume the path streams in windows (_run_windows).
    """
    if p.r != 0.0:
        raise ValidationError("integrate_ode requires r = 0; "
                              "use integrate_dde for a delayed run")
    return _integrate(p, x0, t_end, h, consume)


def integrate_dde(p: Params, ic: InitialCondition, t_end: float, h: float,
                  consume=None):
    """Integrate the delayed system (p.r > 0) by classical RK4, to fourth
    order.

    The grid is step_grid's: r/h is a whole number >= 3, so the delayed
    values at node times are nodes' E, and t_end >= r. Invariant breaches abort
    with the node index. Returns what integrate_ode does.
    """
    if not p.r > 0.0:
        raise ValidationError("integrate_dde requires r > 0; "
                              "use integrate_ode for the nondelayed system")
    return _integrate(p, (ic.s0, ic.e0, ic.i0, ic.r0), t_end, h, consume)

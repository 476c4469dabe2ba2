"""The run commands: simulate, simulate-sde and concentration, with the
trajectory CSV writer.

simulate and simulate-sde stream their path to run.trajectory;
concentration runs the replica ensembles and loads numpy. The commands
call the integrators and the ensembles through the stand-ins of cli
(cli.integrate_ode, ...), looked up at call time, as the analytic
commands do.
"""
from __future__ import annotations

from . import cli
from ._config import RunConfig
from ._report import _FORMAT, Report, _add_state, _destination, _echo

# simulate and simulate-sde write each window of their path
# (det_integrator._WINDOW steps) as one chunk. A node's time is built here
# from its index, k * h, which for k < 2**53 is the float Trajectory.times
# holds, so the writer holds no time column.
_CSV_HEADER = "t,S,E,I,R\n"


def _write_nodes(fh, nodes, first: int, h: float) -> None:
    """The CSV lines of nodes, the flat S, E, I, R floats of the nodes
    first, first + 1, ... of a path at step h (a memoryview or a 1-d
    array): .tolist() gives plain floats."""
    v = nodes.tolist()
    fh.write("".join([
        f"{t * h!r},{s!r},{e!r},{i!r},{rc!r}\n" for t, s, e, i, rc
        in zip(range(first, first + len(v) // 4), v[::4], v[1::4], v[2::4],
               v[3::4])]))


def _cmd_simulate(cfg: RunConfig, stochastic: bool = False) -> Report:
    if stochastic:
        # the single path draws its noise without numpy
        from ._stream import _run_path
    rep = Report("simulate-sde" if stochastic else "simulate")
    _echo(rep, cfg, with_run=True, with_ensemble=stochastic)
    p, h = cfg.params, cfg.resolved_step()
    n, m, _ = cfg.grid()
    # each window of det_integrator._run_windows is written, then dropped
    with _destination(cfg.trajectory, _CSV_HEADER) as fh:
        def consume(first, nodes):
            if fh is not None:
                _write_nodes(fh, nodes, first, h)

        if stochastic:
            out = _run_path(p, cfg.initial, h, n, m, cfg.seed, 0, consume)
        elif m:
            out = cli.integrate_dde(p, cfg.initial, cfg.horizon, h, consume)
        else:
            out = cli.integrate_ode(p, cfg.initial.state0(), cfg.horizon, h,
                                    consume)
    rep.add("nodes", n + 1)
    _add_state(rep, "final", out[0])
    rep.extend(zip(("max_sum_defect", "min_component"), out[1:]))
    rep.add("trajectory_file", cfg.trajectory)
    return rep


def _cmd_simulate_sde(cfg: RunConfig) -> Report:
    return _cmd_simulate(cfg, stochastic=True)


def _cmd_concentration(cfg: RunConfig) -> Report:
    from .sde_simulator import Seed

    rep = Report("concentration")
    _echo(rep, cfg, with_run=True, with_ensemble=True)
    out = cli.concentration_check(cfg.params, cfg.initial, cfg.horizon,
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

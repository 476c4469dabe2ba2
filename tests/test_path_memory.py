"""A path run holds its (n + 1, 4) path, the ring of a delayed run's last
m + 1 nodes (at most 16(m + 1) bytes) and a fixed slack, nothing else that
grows with n; the command line's simulate and simulate-sde, which stream
their paths, hold only the ring and the slack, and an ensemble holds
nothing that grows with n.

tracemalloc counts Python's objects and numpy's array buffers alike, in
requested bytes. Each measurement starts tracing after a warm-up run, so
module imports and first-call caches are not counted; a library call warms
up with the measured call itself, so the first reach of a branch is not
counted either. Freelists that hold
objects from before tracing started make the counts vary by a few kB from
run to run; the bounds below leave room for that and no more. One more
path-long float column costs 8 bytes a node.
"""
import tracemalloc

import numpy as np
import pytest

from seirs_delay import (Params, Seed, concentration_check, ensemble,
                         integrate_dde, integrate_ode, make_initial_condition,
                         simulate_sde)
from seirs_delay._report import _destination
from seirs_delay._run_commands import _CSV_HEADER, _write_nodes
from seirs_delay.cli import EXIT_NUMERICAL, EXIT_OK, main

IC = make_initial_condition(e0=0.05, s0=0.9, i0=0.05, r0=0.0)
P = Params(0.4, 0.2, 0.1, 2.0)
H = 0.01
N = 2560
# beyond its path a library run may hold a noise chunk, the 4 kB piece of
# its nodes that a zero minimum's sign is searched in, and a few small
# objects
SLACK = 16 * 1024
COLUMN = 8 * (N + 1)
assert SLACK < COLUMN


def peak_beyond(run):
    """The traced peak of run() less the bytes of the path it returns."""
    tracemalloc.start()
    try:
        traj = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - traj.states.nbytes


RUNS = {
    "integrate_ode": lambda t: integrate_ode(P, IC.state0(), t, H),
    "integrate_dde": lambda t: integrate_dde(P._replace(r=0.5), IC, t, H),
    "simulate_sde": lambda t: simulate_sde(P._replace(r=0.5, epsilon=0.05),
                                           IC, t, H, Seed(1)),
    "simulate_sde-eps0": lambda t: simulate_sde(P._replace(r=0.5), IC, t, H,
                                                Seed(1)),
    # a delay of n - 60 steps, with k_r >= r*e
    "integrate_dde-m-near-n": lambda t: integrate_dde(
        P._replace(r=t - 60 * H, k_r=80.0), IC, t, H),
}
# a whole-path integrate_dde holds the ring of its last m + 1 nodes' (E, E')
# beside its path, 16(m + 1) bytes; at r = 0.5 they are 0.8 kB of the
# slack, with m near n they are pinned on their own
RING = {"integrate_dde-m-near-n": 16 * (N - 59)}
assert RING["integrate_dde-m-near-n"] > SLACK


@pytest.mark.parametrize("name", RUNS)
def test_a_path_run_holds_its_path_and_a_fixed_slack(name):
    def run(n):
        traj = RUNS[name](n * H)
        assert len(traj) == n + 1
        traj.max_sum_defect()
        traj.min_component()
        return traj

    run(N)
    ring = RING.get(name, 0)
    assert ring <= peak_beyond(lambda: run(N)) <= ring + SLACK


ENSEMBLES = {
    "ensemble-r0": lambda n: ensemble(P._replace(epsilon=0.05), IC, n * H, H,
                                      4, Seed(1)),
    "ensemble-r0.5": lambda n: ensemble(P._replace(r=0.5, epsilon=0.05), IC,
                                        n * H, H, 4, Seed(1)),
    "concentration_check-r0.5": lambda n: concentration_check(
        P._replace(r=0.5, epsilon=0.05), IC, n * H, H, 12, None, Seed(1)),
}


@pytest.mark.parametrize("name", ENSEMBLES)
def test_an_ensemble_holds_nothing_that_grows_with_n(name):
    # replicas keep their state, the delay's E history and their sups: at
    # n and 3n the traced peak differs by less than the slack, while an
    # (n + 1, 4) path would add 32 bytes a node
    def peak(n):
        ENSEMBLES[name](n)
        tracemalloc.start()
        try:
            ENSEMBLES[name](n)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert abs(peak(3 * N) - peak(N)) <= SLACK < 32 * 2 * N


# The CLI's slack is a writer chunk of 512 rows as floats, text and one
# joined string, about 210 kB, so a path whose extra column outweighs it
# takes too long to trace. The CLI is measured at two lengths instead: its
# slack moves by less than DRIFT between them, while one more path-long
# column would move it by 8 * (N2 - N1) bytes. Both commands stream their
# paths, a window at a time, so the whole traced peak moves by less than
# DRIFT.
N1, N2 = 1100, 4100
DRIFT = 11 * 1024
assert DRIFT < 8 * (N2 - N1) // 2


@pytest.mark.parametrize("command, eps", [("simulate", 0.0),
                                          ("simulate-sde", 0.05)])
def test_a_cli_path_run_holds_its_path_and_a_fixed_slack(command, eps,
                                                        tmp_path):
    csv, cfg = tmp_path / "traj.csv", tmp_path / "run.cfg"

    def beyond(n):
        cfg.write_text(f"params.beta = 0.4\nparams.mu = 0.2\n"
                       f"params.gamma = 0.1\nparams.k_r = 2.0\n"
                       f"params.r = 0.5\nparams.epsilon = {eps!r}\n"
                       f"run.horizon = {n * H!r}\nrun.step = {H!r}\n"
                       f"run.trajectory = {csv}\n")
        tracemalloc.start()
        try:
            assert main([command, "--config", str(cfg),
                         "--out", str(tmp_path / "report.txt")]) == EXIT_OK
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert csv.read_text().count("\n") == n + 2
        return peak

    beyond(300)
    assert abs(beyond(N2) - beyond(N1)) < DRIFT



def test_a_simulate_that_fails_at_node_1_holds_one_window(tmp_path, capsys):
    # the buffer holds one window of nodes, not the grid: a path that sums
    # to NaN at node 1 costs less than its 32 bytes a node
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"params.beta = 0.4\nparams.mu = 0.2\nparams.gamma = 0.1\n"
                   f"params.k_r = 1e-300\nrun.horizon = {N * H!r}\n"
                   f"run.step = {H!r}\n")

    def peak():
        tracemalloc.start()
        try:
            assert main(["simulate", "--config", str(cfg)]) == EXIT_NUMERICAL
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    peak()
    assert peak() < 32 * (N + 1)
    assert capsys.readouterr().err.count("at node 1\n") == 2


def test_writer_builds_each_chunks_times_without_the_time_column(tmp_path):
    # the writer takes the flat node floats alone: each chunk's times are
    # built from the node indices
    states = np.random.default_rng(0).random((1300, 4))
    dest = tmp_path / "traj.csv"
    with _destination(str(dest), _CSV_HEADER) as fh:
        _write_nodes(fh, states.reshape(-1), 0, 0.1)
    rows = [[float(v) for v in line.split(",")]
            for line in dest.read_text().splitlines()[1:]]
    times = np.arange(len(states)) * 0.1
    assert rows == [[t, *x] for t, x in zip(times.tolist(), states.tolist())]


def _simulate_peak(tmp_path, m, k_r, horizon, trajectory=False):
    """The traced peak of a simulate with a delay of m steps, after a
    warm-up run."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"params.beta = 0.4\nparams.mu = 0.2\nparams.gamma = 0.1\n"
                   f"params.k_r = {k_r!r}\nparams.r = {m * H!r}\n"
                   f"run.horizon = {horizon!r}\nrun.step = {H!r}\n"
                   + (f"run.trajectory = {tmp_path / 'traj.csv'}\n"
                      if trajectory else ""))

    def peak():
        tracemalloc.start()
        try:
            assert main(["simulate", "--config", str(cfg),
                         "--out", str(tmp_path / "report.txt")]) == EXIT_OK
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    peak()
    return peak()


def test_a_long_delay_holds_its_ring_once(tmp_path):
    # the ring of the last m + 1 nodes' (E, E') is filled in place: a
    # simulate whose delay is m = 5000 steps holds that ring, 16(m + 1)
    # bytes, and its window buffer of 513 rows, about 15 kB besides, and no
    # second copy of the ring
    m = 5000
    held = 16 * (m + 1) + 32 * 513
    assert held < _simulate_peak(tmp_path, m, 600.0, m * H) < held + 5 * m


def test_memory_grows_with_the_delay_by_the_ring_alone(tmp_path):
    # streamed over the same 6000 steps, a simulate at m = 6000 peaks 16
    # bytes a delay step above one at m = 600 (k_r >= r*e in both), within
    # the slack, where 2m rows of copies of node 0 would make it 64
    def peak(m):
        return _simulate_peak(tmp_path, m, 200.0, 60.0, trajectory=True)

    assert abs(peak(6000) - peak(600) - 16 * (6000 - 600)) <= SLACK

"""Benchmark of seirs-delay on the pure-Python path: one workload per run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Workloads: stochastic-ensembles,
long-trajectories, analysis-sweep (see perfbench/README.md). The load comes
from this one process: CLI jobs run one at a time as child processes
(`PYTHONPATH=src python -c "...seirs_delay.cli.main..."`), in-process work
runs here. --trace 0 repeats whole rounds for about --seconds and reports
the end-to-end metrics; --trace 1 runs one untraced and one traced round and
reports the per-layer metrics. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import refclock
import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# Every child samples the reference loop (refclock.py) from its first lines
# on. A CLI child reports the samples, and its own peak RSS (VmHWM of its
# address space), on stderr: ru_maxrss of a child also counts this
# process's pages from before the child's exec.
CHILD_HEAD = (f"import sys, time\nsys.path.insert(0, {str(BENCH_DIR)!r})\nimport refclock\n"
              "clock = refclock.Sampler()\nclock.start()\n")
CHILD_TAIL = ("sys.stderr.write('REFCLOCK %d %r\\n' % clock.stop())\n"
              "with open('/proc/self/status') as fh:\n"
              "    sys.stderr.write(''.join(l for l in fh if l.startswith('VmHWM:')))\n"
              "sys.exit(rc)\n")
CLI_CODE = CHILD_HEAD + "from seirs_delay.cli import main\nrc = main(sys.argv[1:])\n" + CHILD_TAIL
TRACED_CODE = CHILD_HEAD + "import tracer\nrc = tracer.traced_main()\n" + CHILD_TAIL
IMPORT_PROBE = (CHILD_HEAD + "t0 = time.perf_counter()\nimport numpy\n"
                "t1 = time.perf_counter()\nimport seirs_delay.cli\nt2 = time.perf_counter()\n"
                "count, total = clock.stop()\n"
                "print(t1 - t0, t2 - t1, time.perf_counter() - t0, count, total)\n")
SETUP_PROBES = 15
# a child that outlives this is stuck; the run must end within 180 s
JOB_TIMEOUT_S = 120


class Bench:
    """Runs the CLI jobs of one benchmark run and owns its scratch files."""

    def __init__(self, workload: str, seed: int, trace: int):
        self.root = ROOT
        # generated configs stay here after the run; scratch files do not
        self.out = BENCH_DIR / "out" / f"{workload}-seed{seed}"
        self.out.mkdir(parents=True, exist_ok=True)
        self._scratch: list[Path] = []
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.env.pop("SEIRS_DELAY_LOG", None)
        self.layers = None          # span aggregate while a round is traced
        self._tracer = None
        self._jobs = 0
        self.peak_rss_kb = 0

    @staticmethod
    def record(rnd, op: str, wall_s: float, count: int, total_s: float) -> None:
        rnd.wall[op] = wall_s
        rnd.times[op] = refclock.reference_time(wall_s, count, total_s)

    def time_op(self, rnd, op: str, fn):
        """Run fn() in this process as operation op of the round; record its
        times only if it returns."""
        clock = refclock.Sampler()
        clock.start()
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            samples = clock.stop()
        self.record(rnd, op, time.perf_counter() - t0, *samples)
        return result

    def write_config(self, name: str, lines: list[str]) -> str:
        path = self.out / name
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def scratch_path(self, name: str) -> Path:
        """A path for a file that cleanup() removes."""
        path = self.out / name
        self._scratch.append(path)
        return path

    def _child(self, code: str, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-c", code, *args], cwd=self.root,
                              env=self.env, capture_output=True, text=True,
                              timeout=JOB_TIMEOUT_S)

    def import_probe(self) -> tuple[float, float, float]:
        """Import seconds in a fresh interpreter: numpy and seirs_delay.cli
        without numpy as wall times, and the total at reference speed."""
        proc = self._child(IMPORT_PROBE)
        if proc.returncode != 0:
            raise RuntimeError(f"cannot import seirs_delay.cli:\n{proc.stderr}")
        numpy_s, own_s, wall_s, count, total_s = proc.stdout.split()
        return (float(numpy_s), float(own_s),
                refclock.reference_time(float(wall_s), int(count), float(total_s)))

    def cli_round_job(self, rnd, op: str, traced: bool, command: str,
                      config: str) -> bool:
        """Run one CLI job as part of a round; False if it failed."""
        args = [command, "--config", config]
        rnd.attempted += 1
        if traced:
            self._jobs += 1
            spans_path = self.scratch_path(f"spans-{self._jobs}.json")
            code = (TRACED_CODE, str(spans_path))
        else:
            code = (CLI_CODE,)
        t0 = time.perf_counter()
        proc = self._child(*code, *args)
        wall = time.perf_counter() - t0
        stderr, samples = [], None
        for line in proc.stderr.splitlines():
            if line.startswith("VmHWM:"):
                self.peak_rss_kb = max(self.peak_rss_kb, int(line.split()[1]))
            elif line.startswith("REFCLOCK "):
                samples = int(line.split()[1]), float(line.split()[2])
            else:
                stderr.append(line)
        if traced and spans_path.exists():
            with open(spans_path) as fh:
                tracer.aggregate(json.load(fh), self.layers)
            spans_path.unlink()
        if proc.returncode != 0:
            rnd.failed += 1
            rnd.failures.append((op, f"exit {proc.returncode}: {' '.join(stderr)}"))
            return False
        self.record(rnd, op, wall, *samples)
        rnd.outputs[op] = proc.stdout
        return True

    def start_trace(self) -> None:
        self.layers = tracer.aggregate([])
        self._tracer = tracer.Tracer()
        self._tracer.install()

    def stop_trace(self):
        self._tracer.uninstall()
        tracer.aggregate(self._tracer.spans, self.layers)
        layers, self.layers, self._tracer = self.layers, None, None
        return layers

    def cleanup(self) -> None:
        for path in self._scratch:
            path.unlink(missing_ok=True)


def rng_draw_us(seed: int, n: int) -> float:
    """Median time of one replica's normal draw of n increments, in µs."""
    gen = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    sd = math.sqrt(0.01)
    times = []
    for _ in range(max(5, 2_000_000 // n)):
        t0 = time.perf_counter()
        gen.normal(0.0, sd, n)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


def per_layer(layers, traced_round, probes, draw_us: float, overhead_s: float) -> dict:
    def stat(name):
        return layers.get(name) or {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                    "steps": 0, "errors": {}}

    def us_per_call(name):
        a = stat(name)
        return a["total_s"] / a["calls"] * 1e6 if a["calls"] else 0.0

    def us_per_step(name):
        a = stat(name)
        return a["total_s"] / a["steps"] * 1e6 if a["steps"] else 0.0

    em = stat("kernels.euler_maruyama")
    # each call stores an (n + 1, 4) float64 path: (n + 1) * 4 * 8 bytes
    em_bytes = (em["steps"] + em["calls"]) * 32
    csv_bytes = sum(v for k, v in traced_round.outputs.items() if k.endswith(".csv_bytes"))
    m = {
        "import.numpy_s": (statistics.median(p[0] for p in probes), "s"),
        "import.seirs_delay_self_s": (statistics.median(p[1] for p in probes), "s"),
        "cli.parse_config.us_per_call": (us_per_call("cli.parse_config"), "us"),
        "cli.run.self_s": (stat("cli.run")["self_s"], "s"),
        "cli.Report.render.us_per_call": (us_per_call("cli.Report.render"), "us"),
        "cli.csv_bytes": (csv_bytes, "bytes"),
        "model_core.validate_params.calls": (stat("model_core.validate_params")["calls"], "count"),
        "model_core.validate_params.us_per_call": (us_per_call("model_core.validate_params"), "us"),
    }
    for name in ("equilibria.equilibrium_set", "linear_stability.matrix_eigenvalues",
                 "linear_stability.routh_hurwitz_coexistence",
                 "linear_stability.char_poly_delay_coexistence",
                 "delay_margin.deg2_crossing", "delay_margin.deg3_crossing",
                 "sde_simulator.lyapunov_certificate"):
        m[name + ".us_per_call"] = (us_per_call(name), "us")
    m["delay_margin.deg3_crossing.calls"] = (stat("delay_margin.deg3_crossing")["calls"], "count")
    m["delay_margin.deg3_crossing.no_crossing"] = (
        stat("delay_margin.deg3_crossing")["errors"].get("NoCrossingError", 0), "count")
    m["delay_margin.cubic_real_roots.calls"] = (stat("delay_margin.cubic_real_roots")["calls"], "count")
    for name in ("det_integrator.integrate_ode", "det_integrator.integrate_dde",
                 "sde_simulator.ensemble", "sde_simulator.concentration_check",
                 "sde_simulator.stochastic_stability_experiment"):
        m[name + ".self_s"] = (stat(name)["self_s"], "s")
    for name in ("kernels.ode_rk4", "kernels.dde_rk4_abm4", "kernels.euler_maruyama"):
        m[name + ".us_per_step"] = (us_per_step(name), "us")
    m["kernels.euler_maruyama.calls"] = (em["calls"], "count")
    m["kernels.euler_maruyama.steps"] = (em["steps"], "count")
    m["kernels.euler_maruyama.path_bytes"] = (em_bytes, "bytes")
    m["sde_simulator.ensemble.calls"] = (stat("sde_simulator.ensemble")["calls"], "count")
    m["sde_simulator.Seed.rng.calls"] = (stat("sde_simulator.Seed.rng")["calls"], "count")
    m["sde_simulator.Seed.rng.us_per_call"] = (us_per_call("sde_simulator.Seed.rng"), "us")
    m["sde_simulator.rng_draw.us_per_replica"] = (draw_us, "us")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


def setup_s(bench) -> float:
    """Median time to import seirs_delay.cli over SETUP_PROBES fresh
    interpreters, at reference speed."""
    bench.import_probe()    # warm-up: a first import may write .pyc files
    return statistics.median(bench.import_probe()[2] for _ in range(SETUP_PROBES))


def plain_run(bench, workload, seconds: float):
    setup = setup_s(bench)
    rounds = []
    t0 = time.perf_counter()
    while True:
        rounds.append(workload.run_round(traced=False))
        elapsed = time.perf_counter() - t0
        # at least two rounds, so that a median is not one sample; then
        # start another only if one more of average length still fits
        if len(rounds) >= 2 and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    problems = workloads.check_round(workload, rounds[0])
    for rnd in rounds[1:]:
        problems += workloads.compare_rounds(rounds[0], rnd, "later round")
    metrics = {"setup_s": (setup, "s"),
               "peak_rss_mb": (bench.peak_rss_kb / 1024.0, "MiB")}
    metrics.update({k: (v, "1/s" if k.endswith("_per_s") else "s")
                    for k, v in workload.end_to_end(rounds).items()})
    return rounds, problems, metrics, {}


def traced_run(bench, workload, seed: int):
    probes = [bench.import_probe() for _ in range(1 + 5)][1:]
    plain = workload.run_round(traced=False)
    bench.start_trace()
    try:
        traced = workload.run_round(traced=True)
    finally:
        layers = bench.stop_trace()
    problems = workloads.check_round(workload, plain)
    problems += workloads.compare_rounds(plain, traced, "traced round")
    deg3 = layers.get("delay_margin.deg3_crossing")
    no_crossing = deg3["errors"].get("NoCrossingError", 0) if deg3 else 0
    if traced.outputs.get("sweep.no_crossing", no_crossing) != no_crossing:
        problems.append("deg3_crossing raised NoCrossingError a different number "
                        "of times than the sweep counted")
    overhead = sum(traced.times.values()) - sum(plain.times.values())
    metrics = per_layer(layers, traced, probes, rng_draw_us(seed, workload.rng_draw_n),
                        overhead)
    detail = {name: {k: (dict(v) if k == "errors" else v) for k, v in a.items()}
              for name, a in layers.items()}
    return [plain, traced], problems, metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (0 <= args.seed < 2 ** 63):
        ap.error("--seed must be a nonnegative 63-bit integer")
    missing = [p for p in ("src/seirs_delay/cli.py", "tests/golden/concentration.cfg")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a seirs-delay checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    # one CPU for this process and every child it starts: on a shared VM a
    # process that moves between vCPUs meets each one's neighbours
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))
    from seirs_delay import _accel

    bench = Bench(args.workload, args.seed, args.trace)
    try:
        workload = workloads.WORKLOADS[args.workload](bench, args.seed)
        if args.trace:
            rounds, problems, metrics, detail = traced_run(bench, workload, args.seed)
        else:
            rounds, problems, metrics, detail = plain_run(bench, workload, args.seconds)
    finally:
        bench.cleanup()

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    failures = [f for r in rounds for f in r.failures]
    # every failure that is not the known fault of the sweep is a fault
    problems = [f"{op} failed: {why}" for op, why in failures] + problems
    kernel_path = "numba" if _accel.NUMBA_ENABLED else "pure Python"
    print(f"# {args.workload} seed={args.seed} trace={args.trace} rounds={len(rounds)} "
          f"kernel path timed: {kernel_path}"
          + ("" if _accel.NUMBA_ENABLED else "; numba path skipped (numba not importable)"))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"attempted = {attempted}, failed = {failed}")
    for op, why in failures[:5]:
        print(f"failed: {op}: {why}", file=sys.stderr)
    for problem in problems[:20]:
        print(f"INCORRECT: {problem}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, kernel_path=kernel_path,
                  rounds=[{"times": r.times, "wall": r.wall,
                           "attempted": r.attempted, "failed": r.failed} for r in rounds],
                  problems=problems, failures=failures[:50], layers=detail)
    (bench.out / f"record-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

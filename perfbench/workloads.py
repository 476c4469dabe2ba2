"""The three workloads: what one round runs, and how its outputs are checked.

A round is a fixed list of operations; a run repeats whole rounds, so the
share of failed operations is the same in every run. Every workload builds
its inputs from the run's --seed. The first round's outputs are checked
against oracles.py and against properties the methods must have; later
rounds (and the traced round) must reproduce them byte for byte.
"""
from __future__ import annotations

import hashlib
import logging
import math
import statistics
from dataclasses import dataclass, field

import numpy as np

import oracles
from oracles import close, parse_report

GOLDEN_DIR = "tests/golden"
SHORT_GOLDENS = ("equilibria", "simulate", "simulate-sde", "stability",
                 "delay-margin", "lyapunov")
# the sweep's parameter panel is fixed so that the deg3_crossing failures it
# meets are the same in every run; --seed only sets the order of the draws
PANEL_SEED = 1702_06180
PANEL_DRAWS = 2500
SWEEP_COMMANDS = ("equilibria", "stability", "delay-margin", "lyapunov")


@dataclass
class Round:
    attempted: int = 0
    failed: int = 0
    wall: dict = field(default_factory=dict)        # op name -> wall seconds
    times: dict = field(default_factory=dict)       # op name -> seconds at reference speed
    outputs: dict = field(default_factory=dict)     # op name -> comparable bytes
    failures: list = field(default_factory=list)    # (op name, description)


def _sha(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _golden(bench, command: str) -> str:
    return (bench.root / GOLDEN_DIR / f"{command}.report.txt").read_text()


def _tail_problems(rep: dict, prefix: str, label: str) -> list[str]:
    out, last, j = [], math.inf, 0
    n_rep = int(rep["ensemble.n_rep"])
    while f"{prefix}.{j}.p" in rep:
        p = float(rep[f"{prefix}.{j}.p"])
        if p > last:
            out.append(f"{label}: {prefix}.{j}.p = {p} increases in rho")
        last = p
        count_key = f"{prefix}.{j}.count"
        if count_key in rep and abs(p * n_rep - int(rep[count_key])) > 1e-9 * n_rep:
            out.append(f"{label}: {count_key} != p * n_rep")
        j += 1
    if j == 0:
        out.append(f"{label}: no {prefix} entries")
    return out


def median_time(rounds: list[Round], op: str) -> float:
    """Median time of op over the rounds in which it succeeded (NaN if none:
    the run is then reported incorrect)."""
    return statistics.median([r.times[op] for r in rounds if op in r.times] or [math.nan])


def median_round_time(rounds: list[Round]) -> float:
    """Median over rounds of the summed time of a round's operations."""
    return statistics.median(sum(r.times.values()) for r in rounds)


def check_round(workload, rnd: Round) -> list[str]:
    """The workload's checks of a round, and an output missing from it."""
    missing = [f"{op}: no output" for op in workload.outputs if op not in rnd.outputs]
    return missing + workload.check(rnd)


def compare_rounds(first: Round, later: Round, what: str) -> list[str]:
    return [f"{what}: {op} differs from the first round"
            for op, value in first.outputs.items()
            if later.outputs.get(op) != value]


# ---------------------------------------------------------------------------

class StochasticEnsembles:
    """The concentration golden, a delayed concentration job and an
    in-process stochastic stability experiment."""

    name = "stochastic-ensembles"
    # delayed job: r = 0.5 so EM reads stored delayed nodes; the rho grid
    # sits between the 15% and 85% quantiles of the sup deviations. At
    # eps = 0.1 the transfer ensemble (eps 0.2) leaves the excursion band
    # on some seeds (906: E = -0.051), so the job would fail by seed; at
    # eps = 0.05 the lowest E over both ensembles is about -0.01.
    DELAYED = dict(beta=0.1, mu=0.2, gamma=0.3, k_r=2.0, r=0.5, epsilon=0.05,
                   horizon=10.0, step=0.01, n_rep=300,
                   rho_grid=(0.006, 0.008, 0.01, 0.0125))
    EXPERIMENT = dict(beta=0.1, mu=0.2, gamma=0.3, k_r=2.0, epsilon=0.1,
                      horizon=20.0, step=0.01, n_rep=200)
    GOLDEN_STEPS = 2 * 800 * 2000
    outputs = ("golden", "delayed", "experiment")
    rng_draw_n = 2000

    def __init__(self, bench, seed: int):
        self.bench, self.seed = bench, seed
        d = self.DELAYED
        self.delayed_cfg = bench.write_config("delayed-concentration.cfg", [
            f"params.{k} = {d[k]!r}" for k in ("beta", "mu", "gamma", "k_r", "r", "epsilon")
        ] + [f"run.horizon = {d['horizon']!r}", f"run.step = {d['step']!r}",
             f"ensemble.n_rep = {d['n_rep']}", f"ensemble.seed = {seed}",
             "ensemble.rho_grid = " + ", ".join(repr(v) for v in d["rho_grid"])])
        self.delayed_steps = 2 * d["n_rep"] * round(d["horizon"] / d["step"])
        x = self.EXPERIMENT
        self.experiment_steps = x["n_rep"] * round(x["horizon"] / x["step"])

    def run_round(self, traced: bool) -> Round:
        from seirs_delay import sde_simulator
        from seirs_delay.model_core import Params, make_initial_condition
        rnd = Round()
        self.bench.cli_round_job(rnd, "golden", traced, "concentration",
                                 f"{GOLDEN_DIR}/concentration.cfg")
        self.bench.cli_round_job(rnd, "delayed", traced, "concentration",
                                 self.delayed_cfg)
        x = self.EXPERIMENT
        p = Params(beta=x["beta"], mu=x["mu"], gamma=x["gamma"], k_r=x["k_r"],
                   epsilon=x["epsilon"])
        ic = make_initial_condition(e0=0.05, s0=0.9, i0=0.05, r0=0.0)
        rnd.attempted += 1
        try:
            res = self.bench.time_op(
                rnd, "experiment", lambda: sde_simulator.stochastic_stability_experiment(
                    p, ic, x["horizon"], x["step"], x["n_rep"],
                    sde_simulator.Seed(self.seed)))
        except Exception as exc:
            rnd.failed += 1
            rnd.failures.append(("experiment", repr(exc)))
        else:
            rnd.outputs["experiment"] = (res.n_rep, res.mean_eir, res.p95_eir,
                                         res.condition_satisfied)
        return rnd

    def check(self, rnd: Round) -> list[str]:
        out = []
        golden = rnd.outputs.get("golden")
        if golden is not None:
            if golden != _golden(self.bench, "concentration"):
                out.append("concentration golden report differs from its golden file")
            rep = parse_report(golden)
            out += _tail_problems(rep, "tail", "golden")
            if not float(rep.get("c_hat", "nan")) > 0.0:
                out.append("golden: c_hat is not positive")
            if rep.get("transfer_ok") != "true":
                out.append("golden: transfer_ok is not true")
        delayed = rnd.outputs.get("delayed")
        if delayed is not None:
            rep = parse_report(delayed)
            out += _tail_problems(rep, "tail", "delayed")
            out += _tail_problems(rep, "transfer", "delayed")
            if rep.get("degenerate") != "false":
                out.append("delayed: ensemble reported degenerate")
        exp = rnd.outputs.get("experiment")
        if exp is not None and not (exp[0] == self.EXPERIMENT["n_rep"] and exp[1] < 0.1):
            out.append(f"experiment: mean E+I+R at T = {exp[1]} is not below its initial 0.1")
        return out + self._bitwise_replicas()

    def _bitwise_replicas(self) -> list[str]:
        """simulate_sde(..., replica=i) against the benchmark's own EM."""
        from seirs_delay import sde_simulator
        from seirs_delay.model_core import Params, make_initial_condition
        rng = np.random.default_rng(self.seed)
        d = self.DELAYED
        # (beta, mu, gamma, k_r, r, eps, horizon, master, replica): the
        # concentration golden's reference and transfer ensembles, then the
        # delayed job's
        cases = [
            (0.1, 0.2, 0.3, 2.0, 0.0, 0.1, 20.0, 77, int(rng.integers(800))),
            (0.1, 0.2, 0.3, 2.0, 0.0, 0.2, 20.0, 77, 800 + int(rng.integers(800))),
            (d["beta"], d["mu"], d["gamma"], d["k_r"], d["r"], d["epsilon"],
             d["horizon"], self.seed, int(rng.integers(d["n_rep"]))),
            (d["beta"], d["mu"], d["gamma"], d["k_r"], d["r"], 2 * d["epsilon"],
             d["horizon"], self.seed, d["n_rep"] + int(rng.integers(d["n_rep"]))),
        ]
        h, out = 0.01, []
        for beta, mu, gamma, k_r, r, eps, horizon, master, replica in cases:
            n, m = round(horizon / h), round(r / h)
            ic = make_initial_condition(e0=0.05, s0=0.9, i0=0.05, r0=0.0)
            traj = sde_simulator.simulate_sde(
                Params(beta=beta, mu=mu, gamma=gamma, k_r=k_r, r=r, epsilon=eps),
                ic, horizon, h, sde_simulator.Seed(master), replica=replica)
            mine = oracles.em_rows(beta, mu, gamma, k_r, eps, (0.9, 0.05, 0.05, 0.0),
                                   h, m, oracles.replica_noise(master, replica, h, n))
            if not np.array_equal(traj.states, np.array(mine)):
                out.append(f"simulate_sde(r={r}, eps={eps}, master={master}, "
                           f"replica={replica}) is not bitwise equal to the reference EM")
        return out

    def end_to_end(self, rounds: list[Round]) -> dict:
        steps = self.GOLDEN_STEPS + self.delayed_steps + self.experiment_steps
        return {"job_s": median_time(rounds, "golden"),
                "work_per_s": steps / median_round_time(rounds)}


# ---------------------------------------------------------------------------

class LongTrajectories:
    """Three single paths of 2e5 steps, each written to its CSV."""

    name = "long-trajectories"
    PARAMS = dict(beta=0.4, mu=0.2, gamma=0.1, k_r=2.0)
    HORIZON, STEP, DELAY, EPS = 2000.0, 0.01, 0.5, 0.05
    N = 200_000
    JOBS = ("ode", "dde", "sde")
    outputs = JOBS
    # largest gap to oracles.py: its RK4 (same order), its second-order
    # delayed RK4, its EM (same arithmetic, so bit for bit)
    REF_TOL = {"ode": 1e-9, "dde": 1e-6, "sde": 0.0}
    rng_draw_n = N

    def __init__(self, bench, seed: int):
        self.bench, self.seed = bench, seed
        rng = np.random.default_rng(seed)
        e0, i0, r0 = (float(v) for v in rng.uniform([0.01, 0.01, 0.0], [0.1, 0.1, 0.1]))
        self.x0 = (1.0 - (e0 + i0 + r0), e0, i0, r0)
        self.configs, self.csv = {}, {}
        for job in self.JOBS:
            lines = [f"params.{k} = {v!r}" for k, v in self.PARAMS.items()]
            if job != "ode":
                lines.append(f"params.r = {self.DELAY!r}")
            if job == "sde":
                lines += [f"params.epsilon = {self.EPS!r}", f"ensemble.seed = {seed}"]
            lines += [f"init.s0 = {self.x0[0]!r}", f"init.e0 = {e0!r}",
                      f"init.i0 = {i0!r}", f"init.r0 = {r0!r}",
                      f"run.horizon = {self.HORIZON!r}", f"run.step = {self.STEP!r}"]
            # every round writes the same files: later rounds must
            # reproduce the first round's bytes, which the checks read
            self.csv[job] = bench.scratch_path(f"{job}.csv")
            lines.append(f"run.trajectory = {self.csv[job]}")
            self.configs[job] = bench.write_config(f"long-{job}.cfg", lines)

    def run_round(self, traced: bool) -> Round:
        rnd = Round()
        for job in self.JOBS:
            command = "simulate-sde" if job == "sde" else "simulate"
            if self.bench.cli_round_job(rnd, job, traced, command, self.configs[job]):
                rnd.outputs[job + ".csv"] = _sha(self.csv[job])
                rnd.outputs[job + ".csv_bytes"] = self.csv[job].stat().st_size
        return rnd

    def check(self, rnd: Round) -> list[str]:
        out = []
        b, mu, g, k = (self.PARAMS[x] for x in ("beta", "mu", "gamma", "k_r"))
        x_star = oracles.coexistence_point(b, mu, g, k)
        for job in self.JOBS:
            if job not in rnd.outputs:
                continue
            m = round(self.DELAY / self.STEP)
            if job == "ode":
                ref = oracles.rk4_rows(b, mu, g, k, self.x0, self.STEP, self.N)
            elif job == "dde":
                ref = oracles.dde_rk4_rows(b, mu, g, k, self.x0, self.STEP, m, self.N)
            else:
                ref = iter(oracles.em_rows(
                    b, mu, g, k, self.EPS, self.x0, self.STEP, m,
                    oracles.replica_noise(self.seed, 0, self.STEP, self.N)))
            out += self._check_csv(job, self.csv[job], ref, x_star)
            rep = parse_report(rnd.outputs[job])
            if int(rep["nodes"]) != self.N + 1:
                out.append(f"{job}: report says {rep['nodes']} nodes")
        return out

    def _check_csv(self, job, path, ref, x_star) -> list[str]:
        out, rows, last = [], 0, None
        max_defect, min_comp, max_ref_gap = 0.0, math.inf, 0.0
        with open(path) as fh:
            if fh.readline().strip() != "t,S,E,I,R":
                return [f"{job}: unexpected CSV header"]
            for line in fh:
                t, s, e, i, rc = (float(v) for v in line.split(","))
                max_defect = max(max_defect, abs(((s + e) + i) + rc - 1.0))
                min_comp = min(min_comp, s, e, i, rc)
                rs, re_, ri, rr = next(ref)
                max_ref_gap = max(max_ref_gap, abs(s - rs), abs(e - re_),
                                  abs(i - ri), abs(rc - rr))
                rows += 1
                last = (t, s, e, i, rc)
        if rows != self.N + 1:
            out.append(f"{job}: {rows} CSV rows, expected horizon/step + 1 = {self.N + 1}")
        if last is None or last[0] != self.HORIZON:
            out.append(f"{job}: last t is not the horizon {self.HORIZON}")
        if max_defect > 1e-10:
            out.append(f"{job}: |S+E+I+R-1| reaches {max_defect}")
        if max_ref_gap > self.REF_TOL[job]:
            out.append(f"{job}: path differs from the reference by {max_ref_gap}")
        if job != "sde":
            if min_comp < -1e-9:
                out.append(f"{job}: a component reaches {min_comp}")
            gap = max(abs(a - b) for a, b in zip(last[1:], x_star))
            if gap > 1e-9:
                out.append(f"{job}: final state is {gap} away from X*")
        return out

    def end_to_end(self, rounds: list[Round]) -> dict:
        return {"job_s": median_time(rounds, "dde"),
                "work_per_s": 3 * (self.N + 1) / median_round_time(rounds)}


# ---------------------------------------------------------------------------

def _panel():
    """Admissible parameter draws (beta, mu, gamma, k_r, r, epsilon)."""
    rng = np.random.default_rng(PANEL_SEED)
    out = []
    while len(out) < PANEL_DRAWS:
        beta, mu, gamma = (float(v) for v in rng.uniform(0.02, 0.98, 3))
        k_r = math.exp(float(rng.uniform(math.log(0.5), math.log(25.0))))
        r = float(rng.uniform(0.0, 0.999)) * k_r / math.e
        eps = float(rng.uniform(0.0, 0.5))
        if abs(beta - mu) > 1e-6:
            out.append((beta, mu, gamma, k_r, r, eps))
    return out


def _sweep_doc(draw, r) -> str:
    beta, mu, gamma, k_r, _, eps = draw
    return (f"params.beta = {beta!r}\nparams.mu = {mu!r}\nparams.gamma = {gamma!r}\n"
            f"params.k_r = {k_r!r}\nparams.r = {r!r}\nparams.epsilon = {eps!r}\n")


class AnalysisSweep:
    """The six short goldens as CLI jobs, then an in-process sweep of the
    parameter panel through parse_config, run and render."""

    name = "analysis-sweep"
    rng_draw_n = 1000   # the simulate-sde golden's path
    outputs = SHORT_GOLDENS + ("sweep",)

    def __init__(self, bench, seed: int):
        self.bench = bench
        panel = _panel()
        bench.write_config("panel.csv", ["beta,mu,gamma,k_r,r,epsilon"]
                           + [",".join(repr(v) for v in d) for d in panel])
        order = np.random.default_rng(seed).permutation(len(panel))
        self.first_texts = None
        self.analyses = []   # (command, draw, config text)
        for draw in (panel[j] for j in order):
            for command in SWEEP_COMMANDS:
                r = 0.0 if command == "lyapunov" else draw[4]
                self.analyses.append((command, draw, _sweep_doc(draw, r)))
        # the CLI's warnings (e.g. a discriminant/root-count disagreement in
        # deg3_crossing) go nowhere in-process, as in a quiet library caller
        logging.getLogger("seirs_delay").addHandler(logging.NullHandler())
        logging.getLogger("seirs_delay").propagate = False

    def run_round(self, traced: bool) -> Round:
        from seirs_delay import cli
        from seirs_delay.delay_margin import NoCrossingError
        rnd = Round()
        for command in SHORT_GOLDENS:
            self.bench.cli_round_job(rnd, command, traced, command,
                                     f"{GOLDEN_DIR}/{command}.cfg")
        texts, expected = [], 0

        def sweep():
            for command, draw, doc in self.analyses:
                try:
                    texts.append(cli.run(command, cli.parse_config(doc)).render())
                except Exception as exc:
                    texts.append(exc)
        self.bench.time_op(rnd, "sweep", sweep)
        rnd.attempted += len(self.analyses)
        for (command, draw, _), text in zip(self.analyses, texts):
            if isinstance(text, Exception):
                rnd.failed += 1
                if (command == "delay-margin" and draw[0] > draw[1]
                        and isinstance(text, NoCrossingError)):
                    expected += 1
                else:
                    rnd.failures.append((command, f"{draw}: {text!r}"))
        texts = [t if isinstance(t, str) else repr(t) for t in texts]
        if self.first_texts is None:
            self.first_texts = texts
        rnd.outputs["sweep"] = hashlib.sha256("\0".join(texts).encode()).hexdigest()
        rnd.outputs["sweep.no_crossing"] = expected
        return rnd

    def check(self, rnd: Round) -> list[str]:
        out = [f"{c} golden report differs from its golden file"
               for c in SHORT_GOLDENS
               if c in rnd.outputs and rnd.outputs[c] != _golden(self.bench, c)]
        # the sweep's reports are kept for the first round only; later
        # rounds are compared by hash
        for (command, draw, _), text in zip(self.analyses, self.first_texts):
            if text.startswith("command = "):
                problem = _SWEEP_CHECKS[command](draw, parse_report(text))
                if problem:
                    out.append(f"{command} {draw}: {problem}")
        return out

    def end_to_end(self, rounds: list[Round]) -> dict:
        return {"job_s": statistics.median([r.times[c] for r in rounds for c in SHORT_GOLDENS
                                            if c in r.times] or [math.nan]),
                "work_per_s": len(self.analyses) / median_time(rounds, "sweep")}


def _check_equilibria(draw, rep) -> str | None:
    beta, mu, gamma, k_r, _, _ = draw
    if not close(float(rep["r0"]), beta / mu, 1e-14):
        return "r0 is not beta/mu"
    if rep["x_star.present"] != ("true" if beta > mu else "false"):
        return "x_star.present disagrees with beta > mu"
    if beta > mu:
        mine = oracles.coexistence_point(beta, mu, gamma, k_r)
        got = [float(rep[f"x_star.{c}"]) for c in ("s", "e", "i", "rcv")]
        if max(abs(a - b) for a, b in zip(got, mine)) > 1e-12:
            return f"x_star {got} differs from the closed form {mine}"
    return None


def _check_stability(draw, rep) -> str | None:
    beta, mu, gamma, k_r, _, _ = draw
    a0, a1 = oracles.linearisation(beta, mu, gamma, k_r, (1.0, 0.0, 0.0, 0.0))
    mine = sorted(np.linalg.eigvals(a0 + a1).real)
    got = sorted(float(rep[f"free.eig{j}"]) for j in (1, 2, 3))
    if max(abs(a - b) for a, b in zip(got, mine)) > 1e-9 * (1.0 + max(map(abs, mine))):
        return f"free eigenvalues {got} differ from the Jacobian's {mine}"
    if rep["free.stable"] != ("true" if max(mine) < 0.0 else "false"):
        return "free.stable disagrees with the Jacobian"
    if beta <= mu:
        return None if rep["coexistence.present"] == "false" else "coexistence reported"
    jac = sum(oracles.linearisation(beta, mu, gamma, k_r,
                                    oracles.coexistence_point(beta, mu, gamma, k_r)))
    tr, det = float(np.trace(jac)), float(np.linalg.det(jac))
    m2 = sum(float(np.linalg.det(jac[np.ix_(ix, ix)]))
             for ix in ((0, 1), (0, 2), (1, 2)))
    scale = 1.0 + float(np.abs(jac).sum())
    for j, (mine_v, power) in enumerate(((tr, 1), (det, 3), (-m2 * tr + det, 3)), 1):
        got_v = float(rep[f"coexistence.criterion{j}.value"])
        if abs(got_v - mine_v) > 1e-9 * scale ** power:
            return f"criterion {j} = {got_v}, the Jacobian gives {mine_v}"
    top = max(np.linalg.eigvals(jac).real)
    verdict = rep["coexistence.verdict"]
    if verdict != "marginal" and abs(top) > 1e-9 and \
            verdict != ("stable" if top < 0.0 else "unstable"):
        return f"verdict {verdict} but the Jacobian's spectral abscissa is {top}"
    return None


def _check_delay_margin(draw, rep) -> str | None:
    beta, mu, gamma, k_r, r, _ = draw
    if beta < mu:
        point = (1.0, 0.0, 0.0, 0.0)
        m = float(rep["margin"])
        if not (float(rep["max_admissible_delay"]) < float(rep["half_pi_k_r"])
                <= m * (1 + 1e-12) and m <= float(rep["r_star"]) * (1 + 1e-12)):
            return "margin chain k_r/e < pi*k_r/2 <= M <= r* fails"
    else:
        point = oracles.coexistence_point(beta, mu, gamma, k_r)
        if rep["crossing.found"] == "false":
            return None
        below = r < float(rep["r_star"])
        if rep["verdict"] != ("stable below critical delay" if below
                              else "delay at or beyond critical delay"):
            return f"verdict {rep['verdict']!r} disagrees with r vs r*"
    a0, a1 = oracles.linearisation(beta, mu, gamma, k_r, point)
    defect = oracles.crossing_defect(a0, a1, float(rep["omega"]), float(rep["r_star"]))
    if defect > 1e-9:
        return f"det(i*omega - A0 - A1*exp(-i*omega*r*)) is {defect} (relative)"
    return None


def _check_lyapunov(draw, rep) -> str | None:
    beta, mu, _, k_r, _, eps = draw
    mine = mu - beta - eps ** 2 / (2.0 * mu * k_r)
    value = float(rep["condition_value"])
    if not close(value, mine, 1e-12, floor=1e-12):
        return f"condition_value {value} differs from {mine}"
    cond = "true" if value > 0.0 else "false"
    if rep["condition"] != cond or rep["certificate.present"] != cond:
        return "condition or certificate.present disagrees with condition_value"
    if rep.get("certificate.holds") == "true":
        ineqs = [float(rep[f"certificate.ineq{j}"]) for j in (1, 2, 3)]
        if not (value > 0.0 and max(ineqs) <= 0.0
                and float(rep["certificate.lv_bound"]) < 0.0):
            return "a holding certificate with a failed inequality"
    return None


_SWEEP_CHECKS = {"equilibria": _check_equilibria, "stability": _check_stability,
                 "delay-margin": _check_delay_margin, "lyapunov": _check_lyapunov}

WORKLOADS = {w.name: w for w in (StochasticEnsembles, LongTrajectories, AnalysisSweep)}

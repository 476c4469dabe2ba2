"""Spans around calls into seirs_delay's public functions, taken from outside.

A Tracer replaces each traced function at the name its callers look it up
by (a module attribute, or a method on its class), records one span per
call in memory, and puts the originals back on uninstall. Nothing in the
program changes: a traced run must render the same bytes as an untraced one.

A span is [name, parent index, start, end, steps, error type]. `steps` is the
kernel's step count for the _kernels functions and None elsewhere. Self time
is a span's duration minus that of its direct children.

Run as a CLI child (`python -c` with :func:`traced_main`), the tracer writes
the spans of that process as JSON when the command returns.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# (module, attribute the callers look up, span name); a dotted attribute is
# a method on a class. validate_params is looked up under two names.
TARGETS = (
    ("seirs_delay.cli", "parse_config", "cli.parse_config"),
    ("seirs_delay.cli", "run", "cli.run"),
    ("seirs_delay.cli", "Report.render", "cli.Report.render"),
    ("seirs_delay.cli", "validate_params", "model_core.validate_params"),
    ("seirs_delay.model_core", "validate_params", "model_core.validate_params"),
    ("seirs_delay.cli", "equilibrium_set", "equilibria.equilibrium_set"),
    ("seirs_delay.cli", "matrix_eigenvalues", "linear_stability.matrix_eigenvalues"),
    ("seirs_delay.cli", "routh_hurwitz_coexistence",
     "linear_stability.routh_hurwitz_coexistence"),
    ("seirs_delay.cli", "char_poly_delay_coexistence",
     "linear_stability.char_poly_delay_coexistence"),
    ("seirs_delay.cli", "deg2_crossing", "delay_margin.deg2_crossing"),
    ("seirs_delay.cli", "deg3_crossing", "delay_margin.deg3_crossing"),
    ("seirs_delay.delay_margin", "cubic_real_roots", "delay_margin.cubic_real_roots"),
    ("seirs_delay.cli", "integrate_ode", "det_integrator.integrate_ode"),
    ("seirs_delay.cli", "integrate_dde", "det_integrator.integrate_dde"),
    ("seirs_delay._kernels", "ode_rk4", "kernels.ode_rk4"),
    ("seirs_delay._kernels", "dde_rk4_abm4", "kernels.dde_rk4_abm4"),
    ("seirs_delay._kernels", "euler_maruyama", "kernels.euler_maruyama"),
    ("seirs_delay.cli", "concentration_check", "sde_simulator.concentration_check"),
    ("seirs_delay.sde_simulator", "ensemble", "sde_simulator.ensemble"),
    ("seirs_delay.sde_simulator", "stochastic_stability_experiment",
     "sde_simulator.stochastic_stability_experiment"),
    ("seirs_delay.sde_simulator", "Seed.rng", "sde_simulator.Seed.rng"),
    ("seirs_delay.cli", "lyapunov_certificate", "sde_simulator.lyapunov_certificate"),
)

# position of n_steps in each kernel's argument list
STEP_ARG = {"kernels.ode_rk4": 5, "kernels.dde_rk4_abm4": 6,
            "kernels.euler_maruyama": 6}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module, attr, name in TARGETS:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        step_at = STEP_ARG.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0,
                    args[step_at] if step_at is not None else None, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[3] = clock()
                stack.pop()
        return traced


def aggregate(spans, into=None):
    """Per span name: calls, total and self seconds, steps, errors by type."""
    agg = into if into is not None else defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "steps": 0,
                 "errors": defaultdict(int)})
    child_time = [0.0] * len(spans)
    for name, parent, start, end, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for k, (name, _, start, end, steps, error) in enumerate(spans):
        a = agg[name]
        a["calls"] += 1
        a["total_s"] += end - start
        a["self_s"] += end - start - child_time[k]
        a["steps"] += steps or 0
        if error:
            a["errors"][error] += 1
    return agg


def traced_main() -> int:
    """Entry of a traced CLI child: argv is <spans.json> <cli arguments...>."""
    out_path, argv = sys.argv[1], sys.argv[2:]
    from seirs_delay import cli
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out_path, "w") as fh:
            json.dump(tracer.spans, fh)

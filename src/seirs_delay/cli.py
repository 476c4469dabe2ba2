"""Command-line front end: the entry point.

Usage:

    seirs-delay <command> --config <path> [--out <path>] [--seed <u64>] [--reps <n>]

with command one of equilibria, simulate, simulate-sde, stability,
delay-margin, concentration, lyapunov; _config describes the config
document and reads the command line. A command line of the form above,
each option once and written as two arguments, is read there; any other
(--help, --version, --opt=value, an abbreviation, a repeat, a mistake) goes
to argparse, which writes every usage, help and error text.

A command's first run loads the module of its family, _analytic_commands
or _run_commands; the latter holds the trajectory CSV writer. --out is
written through _report._destination, so an analytic command compiles no
run command, and importing this module loads neither family.

The config is read as UTF-8. Reports are deterministic "key = value" lines
(_report) so byte-level golden comparisons work.
Exit codes: 0 ok; 2 parse error, including a config that cannot be read or
decoded; 3 validation error, including a report (--out) or trajectory file
that cannot be written, a run whose --out or run.trajectory is its
--config or whose --out is its run.trajectory, and a run too large to
store; 4 numerical failure.
Errors go to stderr as one line; unknown keys are reported as warning.N
lines of the report.
"""
from __future__ import annotations

import importlib
import os
import sys
from typing import Optional, Sequence

from ._config import (COMMANDS, ParseError, RunConfig, _parse_argv, _parser,
                      parse_config)
from ._report import Report, _destination
# validate_params is not called here; perfbench/tracer.py wraps cli.validate_params
from .model_core import NoCrossingError, ValidationError, validate_params

__all__ = ["run", "main", "EXIT_OK", "EXIT_PARSE", "EXIT_VALIDATION",
           "EXIT_NUMERICAL"]

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4


def _on_first_call(module: str, name: str):
    """A stand-in for module.name that imports the module on its first call.

    Each command then loads only the modules it calls: the analytic ones
    never load numpy or the kernels, and equilibria or lyapunov never load
    the stability and delay-margin modules. The command modules look the
    stand-in up as an attribute of this module when they call it; once
    called, it puts the function itself in its place, so later calls cost
    nothing. perfbench/tracer.py replaces these globals by name; while one
    is replaced, the stand-in stays and calls the function it resolved. The
    stand-ins of _DISPATCH are not globals, so they always do so.
    """
    namespace = globals()
    resolved = None

    def call(*args, **kwargs):
        nonlocal resolved
        if resolved is None:
            resolved = getattr(importlib.import_module(f"{__package__}.{module}"),
                               name)
        if namespace.get(name) is call:
            namespace[name] = resolved
        return resolved(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


equilibrium_set = _on_first_call("equilibria", "equilibrium_set")
equilibrium_residual = _on_first_call("equilibria", "equilibrium_residual")
free_disease_eigenvalues_closed_form = _on_first_call(
    "linear_stability", "free_disease_eigenvalues_closed_form")
_free_rows = _on_first_call("linear_stability", "_free_rows")
matrix_eigenvalues = _on_first_call("linear_stability", "matrix_eigenvalues")
routh_hurwitz_coexistence = _on_first_call("linear_stability",
                                           "routh_hurwitz_coexistence")
char_poly_delay_free = _on_first_call("linear_stability", "char_poly_delay_free")
char_poly_delay_coexistence = _on_first_call("linear_stability",
                                             "char_poly_delay_coexistence")
zero_delay_stable = _on_first_call("delay_margin", "zero_delay_stable")
deg2_crossing = _on_first_call("delay_margin", "deg2_crossing")
free_disease_margin = _on_first_call("delay_margin", "free_disease_margin")
deg3_abc = _on_first_call("delay_margin", "deg3_abc")
deg3_crossing = _on_first_call("delay_margin", "deg3_crossing")
lyapunov_margin = _on_first_call("lyapunov", "lyapunov_margin")
lyapunov_certificate = _on_first_call("lyapunov", "lyapunov_certificate")
integrate_ode = _on_first_call("det_integrator", "integrate_ode")
integrate_dde = _on_first_call("det_integrator", "integrate_dde")
concentration_check = _on_first_call("sde_simulator", "concentration_check")


# each command, in COMMANDS order: its first run loads its family's module
_DISPATCH = {
    "equilibria": _on_first_call("_analytic_commands", "_cmd_equilibria"),
    "simulate": _on_first_call("_run_commands", "_cmd_simulate"),
    "simulate-sde": _on_first_call("_run_commands", "_cmd_simulate_sde"),
    "stability": _on_first_call("_analytic_commands", "_cmd_stability"),
    "delay-margin": _on_first_call("_analytic_commands", "_cmd_delay_margin"),
    "concentration": _on_first_call("_run_commands", "_cmd_concentration"),
    "lyapunov": _on_first_call("_analytic_commands", "_cmd_lyapunov"),
}


def run(command: str, cfg: RunConfig) -> Report:
    """Execute one command against a validated RunConfig."""
    if command not in _DISPATCH:
        raise ValidationError(f"unknown command {command!r}; "
                              f"expected one of {', '.join(COMMANDS)}")
    return _DISPATCH[command](cfg)


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_argv(argv) or _parser().parse_args(argv)
    out = args.out or None

    try:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read config {args.config!r}: {exc}") from exc
        cfg = parse_config(text)
        if args.seed is not None:
            cfg = cfg._replace(seed=args.seed)
        if args.reps is not None:
            cfg = cfg._replace(n_rep=args.reps)
        # no file the run writes may be its config, nor the trajectory
        # that the report would replace
        trajectory = (cfg.trajectory if args.command.startswith("simulate")
                      else None)
        named = {}
        for name, path in (("--config", args.config),
                           ("run.trajectory", trajectory), ("--out", out)):
            if path is not None:
                first = named.setdefault(os.path.realpath(path), (name, path))
                if first[0] != name:
                    raise ValidationError(f"{name} {path!r} and {first[0]} "
                                          f"{first[1]!r} name the same file")
        # the report's destination is checked before the run, so a report
        # that could not be written leaves run.trajectory as it was
        with _destination(out) as fh:
            report = run(args.command, cfg).render()
            if fh is not None:
                fh.write(report)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:
        # a run whose arrays fit the index type but not the memory
        print(f"validation error: out of memory: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    # IntegrationError and InsufficientExceedances are RuntimeErrors
    except (NoCrossingError, ArithmeticError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    if out is None:
        sys.stdout.write(report)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

"""The analytic commands: equilibria, stability, delay-margin and lyapunov.

Scalar arithmetic on the model constants, without numpy or the array
modules. Each command calls its analyses through the stand-ins of cli
(cli.equilibrium_set, ...), looked up at call time, so it loads only the
analysis modules it calls, and a function replaced on cli is the one it
runs.
"""
from __future__ import annotations

import math

from . import cli
from ._config import RunConfig
from ._report import Report, _add_state, _echo
from .model_core import ValidationError

# report keys in record field order; the modules of these records load
# lazily, so their keys are spelled out (a test pins them to _fields)
_CROSSING = ("omega", "theta", "r_star", "residual")
_ABC = ("abc.A", "abc.B", "abc.C", "abc.delta")
_CERTIFICATE = tuple(f"certificate.{name}" for name in (
    "v2", "v3", "lambda1_sq", "lambda3_sq", "alpha0", "ineq1", "ineq2", "ineq3",
    "lv_bound", "holds"))


def _cmd_equilibria(cfg: RunConfig) -> Report:
    rep = Report("equilibria")
    _echo(rep, cfg)
    eqs = cli.equilibrium_set(cfg.params)
    rep.add("r0", eqs.r0)
    _add_state(rep, "x_free", eqs.x_free)
    rep.add("x_free.residual", cli.equilibrium_residual(cfg.params, eqs.x_free))
    rep.add("x_star.present", eqs.x_star is not None)
    if eqs.x_star is not None:
        _add_state(rep, "x_star", eqs.x_star)
        rep.add("x_star.residual",
                cli.equilibrium_residual(cfg.params, eqs.x_star))
    return rep


def _cmd_stability(cfg: RunConfig) -> Report:
    rep = Report("stability")
    _echo(rep, cfg)
    p = cfg.params
    lam = cli.free_disease_eigenvalues_closed_form(p)
    rep.extend(zip(("free.eig1", "free.eig2", "free.eig3"), lam))
    numeric = sorted([v.real for v in cli.matrix_eigenvalues(cli._free_rows(p))])
    gap = max([abs(a - b) for a, b in zip(sorted(lam), numeric)])
    rep.extend((("free.eig_crosscheck_gap", gap),
                ("free.stable", max(lam) < 0.0),
                ("coexistence.present", p.beta > p.mu)))
    if p.beta > p.mu:
        verdict = cli.routh_hurwitz_coexistence(p)
        for j, c in enumerate(verdict.criteria, 1):
            rep.extend(((f"coexistence.criterion{j}.name", c.name),
                        (f"coexistence.criterion{j}.value", c.value),
                        (f"coexistence.criterion{j}.satisfied", c.satisfied)))
        rep.add("coexistence.verdict", verdict.verdict)
    return rep


def _cmd_delay_margin(cfg: RunConfig) -> Report:
    rep = Report("delay-margin")
    _echo(rep, cfg)
    p = cfg.params
    if p.beta == p.mu:
        raise ValidationError("delay-margin analysis is undefined on the "
                              "beta = mu boundary")
    free = p.beta < p.mu
    q = (cli.char_poly_delay_free(p) if free
         else cli.char_poly_delay_coexistence(p))
    rep.add("branch", "free-disease (degree 2)" if free else "coexistence (degree 3)")
    rep.extend((f"qp.a{j}", v) for j, v in enumerate(q.a))
    rep.extend((f"qp.b{j}", v) for j, v in enumerate(q.b))
    stable = cli.zero_delay_stable(q)
    if free:
        cr = cli.deg2_crossing(q)
        rep.add("instability_possible", stable)
        rep.extend(zip(_CROSSING, cr))
        rep.extend((("margin", cli.free_disease_margin(p)),
                    ("half_pi_k_r", 0.5 * math.pi * p.k_r),
                    ("max_admissible_delay", p.k_r / math.e),
                    ("verdict", "stable for all admissible delays")))
        return rep
    rep.extend(zip(_ABC, cli.deg3_abc(q)))
    cr = cli.deg3_crossing(q)
    rep.add("instability_possible", stable and cr is not None)
    rep.add("crossing.found", cr is not None)
    if cr is None:
        rep.add("verdict", "stable for all delays" if stable
                else "unstable for all delays")
    else:
        rep.extend(zip(_CROSSING, cr))
        if p.r < cr.r_star:
            rep.add("verdict", "stable below critical delay")
        else:
            rep.add("verdict", "delay at or beyond critical delay")
    return rep


def _cmd_lyapunov(cfg: RunConfig) -> Report:
    rep = Report("lyapunov")
    _echo(rep, cfg)
    margin = cli.lyapunov_margin(cfg.params)
    ok = margin > 0.0
    rep.extend((("condition", ok), ("condition_value", margin),
                ("certificate.present", ok)))
    if ok:
        rep.extend(zip(_CERTIFICATE, cli.lyapunov_certificate(cfg.params)))
    return rep

"""Equilibria of the model: the disease-free point, the coexistence point,
and the reproduction number that separates them.

The vector field (fractions, so S + E + I + R = 1) is

    S' = -beta*S*I + gamma*R
    E' =  beta*S*I - E_delayed/k_r
    I' =  E_delayed/k_r - mu*I
    R' =  mu*I - gamma*R

At an equilibrium the delayed and instantaneous exposed values coincide, so
the fixed points do not depend on r.
"""
from __future__ import annotations

import sys
from typing import NamedTuple, Optional

from .model_core import Params, State, make_state

__all__ = [
    "EquilibriumSet",
    "reproduction_number",
    "free_disease_equilibrium",
    "coexistence_equilibrium",
    "equilibrium_residual",
    "equilibrium_set",
]


def reproduction_number(p: Params) -> float:
    """Basic reproduction number beta/mu; the coexistence point exists iff > 1."""
    return p.beta / p.mu


def free_disease_equilibrium(p: Params) -> State:
    """The disease-free point (1, 0, 0, 0); exists for every admissible p."""
    return make_state(1.0, 0.0, 0.0, 0.0)


def coexistence_equilibrium(p: Params) -> Optional[State]:
    """The endemic fixed point with all four fractions positive, or None.

    Exists iff beta > mu strictly; for beta <= mu the only equilibrium is the
    disease-free point and None is returned. Writing
    d3 = gamma*k_r*mu + gamma + mu:

        S* = mu/beta
        E* = k_r*(beta - mu)*mu*gamma / (beta*d3)
        I* = gamma*(beta - mu) / (beta*d3)
        R* = (beta - mu)*mu / (beta*d3)

    The four entries sum to 1 identically. When beta*d3 underflows, E*, I*
    and R* are taken as (1 - mu/beta) times k_r*mu*gamma/d3, gamma/d3 and
    mu/d3, which neither divides by zero nor loses digits.
    """
    if not p.beta > p.mu:
        return None
    d3 = p.gamma * p.k_r * p.mu + p.gamma + p.mu
    denom = p.beta * d3
    s = p.mu / p.beta
    if denom < sys.float_info.min:
        share = 1.0 - p.mu / p.beta
        return make_state(s, share * (p.k_r * p.mu * p.gamma / d3),
                          share * (p.gamma / d3), share * (p.mu / d3))
    e = p.k_r * (p.beta - p.mu) * p.mu * p.gamma / denom
    i = p.gamma * (p.beta - p.mu) / denom
    rcv = (p.beta - p.mu) * p.mu / denom
    return make_state(s, e, i, rcv)


def equilibrium_residual(p: Params, x: State) -> float:
    """Max-norm of the vector field at x (delayed value taken equal to x.e)."""
    f1 = -p.beta * x.s * x.i + p.gamma * x.rcv
    f2 = p.beta * x.s * x.i - x.e / p.k_r
    f3 = x.e / p.k_r - p.mu * x.i
    f4 = p.mu * x.i - p.gamma * x.rcv
    return max(abs(f1), abs(f2), abs(f3), abs(f4))


class EquilibriumSet(NamedTuple):
    """All equilibria of one parameter set.

    x_star is None iff r0 <= 1. Both stored points have vector-field residual
    at most 1e-12 in the max norm.
    """

    r0: float
    x_free: State
    x_star: Optional[State]


def equilibrium_set(p: Params) -> EquilibriumSet:
    """Collect the reproduction number and every equilibrium of p."""
    x_star = coexistence_equilibrium(p)
    return EquilibriumSet(
        r0=reproduction_number(p),
        x_free=free_disease_equilibrium(p),
        x_star=x_star,
    )

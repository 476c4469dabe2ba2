"""Independent reference computations the benchmark checks the program against.

Everything here is derived from the model equations

    S' = -beta*S*I + gamma*R
    E' =  beta*S*I - E(t - r)/K_r
    I' =  E(t - r)/K_r - mu*I
    R' =  mu*I - gamma*R

and from the documented replica-stream rule (replica i draws from
SeedSequence(master, spawn_key=(i,))). Nothing imports seirs_delay, so a
fault in the program cannot hide in its own reference.
"""
from __future__ import annotations

import math

import numpy as np


def parse_report(text: str) -> dict[str, str]:
    """The "key = value" lines of a report, as strings."""
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def close(a: float, b: float, rel: float, floor: float = 1.0) -> bool:
    return abs(a - b) <= rel * max(floor, abs(a), abs(b))


# --- equilibria and linearisation ------------------------------------------

def coexistence_point(beta, mu, gamma, k_r):
    """X* from the zero-derivative equations: S* = mu/beta (E' = 0 with
    E = k_r*mu*I), R* = mu*I/gamma (R' = 0), and the simplex sum fixes I*."""
    i = (1.0 - mu / beta) / (k_r * mu + 1.0 + mu / gamma)
    return mu / beta, k_r * mu * i, i, mu * i / gamma


def linearisation(beta, mu, gamma, k_r, point):
    """(A0, A1) of x' = A0 x + A1 x(t - r) in (E, I, R) coordinates, with
    S = 1 - E - I - R eliminated, at the equilibrium `point` = (S, E, I, R)."""
    s, _, i, _ = point
    a0 = np.array([[-beta * i, beta * (s - i), -beta * i],
                   [0.0, -mu, 0.0],
                   [0.0, mu, -gamma]])
    a1 = np.array([[-1.0 / k_r, 0.0, 0.0],
                   [1.0 / k_r, 0.0, 0.0],
                   [0.0, 0.0, 0.0]])
    return a0, a1


def crossing_defect(a0, a1, omega, r_star) -> float:
    """|det(i*omega*I - A0 - A1*exp(-i*omega*r*))| relative to the size of
    the matrices involved; zero at a true imaginary-axis crossing."""
    lam = 1j * omega
    m = lam * np.eye(3) - a0 - a1 * np.exp(-lam * r_star)
    scale = (omega + np.abs(a0).sum() + np.abs(a1).sum()) ** 3
    return abs(np.linalg.det(m)) / scale


# --- time stepping ----------------------------------------------------------

def field(beta, mu, gamma, k_r, s, e, i, rc, e_del):
    inf = beta * s * i
    return (-inf + gamma * rc, inf - e_del / k_r, e_del / k_r - mu * i,
            mu * i - gamma * rc)


def rk4_rows(beta, mu, gamma, k_r, x0, h, n):
    """Classical RK4 for r = 0, yielding the n + 1 node states."""
    x = tuple(x0)
    yield x
    for _ in range(n):
        k1 = field(beta, mu, gamma, k_r, *x, x[1])
        y = tuple(v + 0.5 * h * d for v, d in zip(x, k1))
        k2 = field(beta, mu, gamma, k_r, *y, y[1])
        y = tuple(v + 0.5 * h * d for v, d in zip(x, k2))
        k3 = field(beta, mu, gamma, k_r, *y, y[1])
        y = tuple(v + h * d for v, d in zip(x, k3))
        k4 = field(beta, mu, gamma, k_r, *y, y[1])
        x = tuple(v + h / 6.0 * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
                  for v, d1, d2, d3, d4 in zip(x, k1, k2, k3, k4))
        yield x


def dde_rk4_rows(beta, mu, gamma, k_r, x0, h, m, n):
    """RK4 for r = m*h > 0 with constant history E = x0[1] on [-r, 0].

    The delayed exposed value at a stage half-way between two stored nodes
    is their mean, so this is second order in h: an independent estimate of
    the method-of-steps path, not a copy of it.
    """
    es = [x0[1]]

    def delayed(half):          # E at t - r, t = half * h / 2
        back = half - 2 * m
        if back <= 0:
            return x0[1]
        if back % 2 == 0:
            return es[back // 2]
        return 0.5 * (es[back // 2] + es[back // 2 + 1])

    x = tuple(x0)
    yield x
    for k in range(n):
        k1 = field(beta, mu, gamma, k_r, *x, delayed(2 * k))
        y = tuple(v + 0.5 * h * d for v, d in zip(x, k1))
        k2 = field(beta, mu, gamma, k_r, *y, delayed(2 * k + 1))
        y = tuple(v + 0.5 * h * d for v, d in zip(x, k2))
        k3 = field(beta, mu, gamma, k_r, *y, delayed(2 * k + 1))
        y = tuple(v + h * d for v, d in zip(x, k3))
        k4 = field(beta, mu, gamma, k_r, *y, delayed(2 * k + 2))
        x = tuple(v + h / 6.0 * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
                  for v, d1, d2, d3, d4 in zip(x, k1, k2, k3, k4))
        es.append(x[1])
        yield x


def replica_noise(master: int, replica: int, h: float, n: int) -> np.ndarray:
    """The Brownian increments of one replica under the documented rule."""
    ss = np.random.SeedSequence(master, spawn_key=(replica,))
    return np.random.default_rng(ss).normal(0.0, math.sqrt(h), n)


def em_rows(beta, mu, gamma, k_r, eps, x0, h, m, dw):
    """Euler-Maruyama with one shared increment on the S -> E transfer.

    Each transfer is computed once and moved between compartments as one
    rounded value, in the grouping the method documents, so the path is
    reproducible bit for bit. The delayed exposed value is the constant
    history for the first m steps and the stored node m steps back after
    that (m = 0: the current node).
    """
    s, e, i, rc = x0
    e_hist = e
    es = [e]
    rows = [(s, e, i, rc)]
    for k, w_k in enumerate(dw.tolist()):
        ed = e_hist if k < m else es[k - m]
        a = h * (beta * s * i)
        b = h * (ed / k_r)
        c = h * (mu * i)
        d = h * (gamma * rc)
        w = eps * (s * i) * w_k
        s = s - a + d - w
        e = e + a - b + w
        i = i + b - c
        rc = rc + c - d
        es.append(e)
        rows.append((s, e, i, rc))
    return rows

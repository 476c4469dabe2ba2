"""An independent spectral verdict on every delay-margin report.

The linearisation x' = A0 x(t) + A1 x(t - r) near an equilibrium is
tests/_oracles.py's, built from the model equations, not taken from
linear_stability. The infinitesimal generator of that linear DDE is
discretised at N + 1 Chebyshev points of [-r, 0] (Breda, Maset &
Vermiglio 2005, SIAM J. Sci. Comput. 27(2)): the first row block is the
right-hand side A0 u(0) + A1 u(-r), the others are the Chebyshev
derivative scaled by 2/r. The rightmost eigenvalues of the
3(N + 1) matrix converge spectrally to the rightmost roots of
det(lam - A0 - A1 exp(-lam*r)), so its spectral abscissa decides stability
at delay r. At N = 10, 20, 40 and 60 the abscissae around both goldens'
r* agree to 6 digits.

Whether a crossing exists at all is checked against two counts of the
positive roots of the frequency cubic: an exact one in rational arithmetic
and one from numpy's companion-matrix eigenvalues.
"""
import functools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from seirs_delay import (Params, char_poly_delay_coexistence, cli, deg3_abc,
                         deg3_crossing)

from _oracles import linearisation

GOLDEN = Path(__file__).parent / "golden"
N = 20
# the analysis-sweep panel's distribution and seed (perfbench/workloads.py)
PANEL_SEED = 1702_06180
PANEL_SIZE = 2500
PANEL_DRAWS = 150
STABLE = ("stable for all admissible delays", "stable below critical delay",
          "stable for all delays")
# a delay-independent verdict is also checked at these multiples of k_r/e
BEYOND_ADMISSIBLE = (1.0, 10.0, 100.0)


@functools.cache
def chebyshev_derivative(n):
    """The differentiation matrix at x_j = cos(j*pi/n), j = 0 .. n, acting on
    3-vectors (Trefethen, Spectral Methods in MATLAB, cheb)."""
    x = np.cos(np.pi * np.arange(n + 1) / n)
    c = np.ones(n + 1)
    c[0] = c[-1] = 2.0
    c *= (-1.0) ** np.arange(n + 1)
    d = np.outer(c, 1.0 / c) / (x[:, None] - x[None, :] + np.eye(n + 1))
    d -= np.diag(d.sum(axis=1))
    return np.kron(d, np.eye(3))


def abscissa(a0, a1, r, n=N):
    """The spectral abscissa of the discretised generator at delay r; at
    r = 0 that of A0 + A1."""
    if r == 0.0:
        return float(np.linalg.eigvals(a0 + a1).real.max())
    # node 0 is theta = 0, node n is theta = -r
    m = chebyshev_derivative(n) * (2.0 / r)
    m[:3] = 0.0
    m[:3, :3] = a0
    m[:3, -3:] += a1
    return float(np.linalg.eigvals(m).real.max())


def routh_hurwitz(c):
    """Are all roots of lam^d + c[d-1] lam^(d-1) + ... + c[0] in the open
    left half-plane (d = 2 or 3)?"""
    if len(c) == 2:
        return c[0] > 0.0 and c[1] > 0.0
    return c[2] > 0.0 and c[0] > 0.0 and c[2] * c[1] > c[0]


def check_report(rep):
    beta, mu, gamma, k_r, r = (float(rep[f"params.{key}"])
                               for key in ("beta", "mu", "gamma", "k_r", "r"))
    a0, a1 = linearisation(beta, mu, gamma, k_r)
    d = 2 if beta < mu else 3
    zero_delay = [float(rep[f"qp.a{j}"]) + float(rep[f"qp.b{j}"])
                  for j in range(d)]
    assert (abscissa(a0, a1, 0.0) < 0.0) == routh_hurwitz(zero_delay)
    if rep["verdict"] in STABLE:
        assert abscissa(a0, a1, 0.0) < 0.0
        assert abscissa(a0, a1, r) < 0.0
    if rep["verdict"] == "stable for all delays":
        for factor in BEYOND_ADMISSIBLE:
            assert abscissa(a0, a1, factor * k_r / math.e) < 0.0
    if "r_star" in rep:
        r_star = float(rep["r_star"])
        assert abscissa(a0, a1, 0.995 * r_star) < 0.0
        assert abscissa(a0, a1, 1.005 * r_star) > 0.0


def parse_report(text):
    return dict(line.split(" = ", 1) for line in text.splitlines())


@pytest.mark.parametrize("name", ["delay-margin", "delay-margin-coexistence"])
def test_golden_reports_agree_with_the_spectrum(name):
    rep = parse_report((GOLDEN / f"{name}.report.txt").read_text())
    assert rep["verdict"] in STABLE and "r_star" in rep
    check_report(rep)


def test_golden_abscissa_changes_sign_across_r_star_at_a_converged_n():
    # the free golden's r* = 3.748 and the coexistence golden's r* = 36.66
    for params, r_star, below, above in (
            ((0.1, 0.2, 0.3, 2.0), 3.7484134972974887, -8.306e-4, 8.181e-4),
            ((0.752, 0.022, 0.448, 18.178), 36.662991718097423,
             -7.372e-5, 7.256e-5)):
        a0, a1 = linearisation(*params)
        for factor, expected in ((0.995, below), (1.005, above)):
            value = abscissa(a0, a1, factor * r_star)
            assert value == pytest.approx(expected, rel=1e-3)
            assert abscissa(a0, a1, factor * r_star, 2 * N) == pytest.approx(
                value, rel=1e-6)


def panel(n=PANEL_DRAWS):
    """The first n draws (beta, mu, gamma, k_r, r) of the sweep panel."""
    rng = np.random.default_rng(PANEL_SEED)
    out = []
    while len(out) < n:
        beta, mu, gamma = (float(v) for v in rng.uniform(0.02, 0.98, 3))
        k_r = math.exp(float(rng.uniform(math.log(0.5), math.log(25.0))))
        r = float(rng.uniform(0.0, 0.999)) * k_r / math.e
        rng.uniform(0.0, 0.5)   # epsilon, which delay-margin does not read
        if abs(beta - mu) > 1e-6:
            out.append((beta, mu, gamma, k_r, r))
    return out


def delay_margin_report(beta, mu, gamma, k_r, r):
    doc = (f"params.beta = {beta!r}\nparams.mu = {mu!r}\n"
           f"params.gamma = {gamma!r}\nparams.k_r = {k_r!r}\n"
           f"params.r = {r!r}\n")
    return parse_report(cli.run("delay-margin", cli.parse_config(doc)).render())


def test_panel_reports_agree_with_the_spectrum():
    branches = {"free": 0, "coexistence": 0}
    delay_independent = 0
    for draw in panel():
        rep = delay_margin_report(*draw)
        check_report(rep)
        if "r_star" in rep:
            branches["free" if draw[0] < draw[1] else "coexistence"] += 1
        delay_independent += rep["verdict"] == "stable for all delays"
    assert min(branches.values()) >= 30 and delay_independent >= 15


def positive_root_count(A, B, C):
    """The number of positive roots of z^3 + A z^2 + B z + C, exactly. With
    a negative discriminant there is one real root, positive iff C < 0;
    otherwise every root is real, and Descartes' rule of signs is exact."""
    A, B, C = map(Fraction, (A, B, C))
    disc = (18 * A * B * C - 4 * A ** 3 * C + A * A * B * B - 4 * B ** 3
            - 27 * C * C)
    if disc < 0:
        return int(C < 0)
    signs = [c > 0 for c in (1, A, B, C) if c != 0]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def numpy_root_count(A, B, C):
    z = np.roots([1.0, A, B, C])
    return int(np.count_nonzero((z.real > 0.0)
                                & (np.abs(z.imag) <= 1e-9 * np.abs(z))))


def moderate_coexistence(n):
    """n seeded draws (beta, mu, gamma, k_r) with beta > mu from the rates
    of the fuzz gate's moderate family."""
    rng = np.random.default_rng(2107)
    out = []
    while len(out) < n:
        beta, mu, gamma = (float(v) for v in rng.uniform(0.001, 0.999, 3))
        k_r = float(rng.uniform(0.01, 10.0))
        if beta > mu:
            out.append((beta, mu, gamma, k_r))
    return out


def test_crossing_exists_iff_the_frequency_cubic_has_a_positive_root():
    draws = [d[:4] for d in panel(PANEL_SIZE) if d[0] > d[1]]
    draws += moderate_coexistence(500)
    seen = set()
    for draw in draws:
        q = char_poly_delay_coexistence(Params(*draw))
        abc = deg3_abc(q)
        count = positive_root_count(abc.A, abc.B, abc.C)
        assert numpy_root_count(abc.A, abc.B, abc.C) == count, draw
        assert (deg3_crossing(q) is None) == (count == 0), draw
        seen.add(count)
    assert seen == {0, 1, 3}

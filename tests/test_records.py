"""The package's records: immutable named tuples, checked on every route.

Params, RunConfig, Seed and QuasiPolynomial check their fields in __new__,
and _make and _replace go through it, so no route builds an invalid one.
Trajectory holds arrays and is a plain class that compares by identity.
"""
import numpy as np
import pytest

from seirs_delay import (Params, ValidationError, cli, delay_margin,
                         equilibria, linear_stability, lyapunov,
                         make_initial_condition, model_core, sde_simulator)
from seirs_delay.cli import RunConfig
from seirs_delay.det_integrator import Trajectory
from seirs_delay.linear_stability import QuasiPolynomial
from seirs_delay.sde_simulator import Seed

P = Params(0.1, 0.2, 0.3, 2.0, r=0.5)
CFG = RunConfig(P, make_initial_condition(0.05, 0.9, 0.05, 0.0),
                horizon=20.0, step=0.01, rho_grid=(0.02, 0.01),
                warnings=("unknown key 'x' ignored (line 9)",))
CHECKED = {"Params": P, "RunConfig": CFG, "Seed": Seed(3),
           "QuasiPolynomial": QuasiPolynomial((0.0, 0.2), (-0.05, 0.5), 0.5)}


def records():
    """Every public record class of the package, by name."""
    found = {}
    for module in (model_core, equilibria, linear_stability, delay_margin,
                   lyapunov, sde_simulator, cli):
        for name, obj in vars(module).items():
            if (isinstance(obj, type) and issubclass(obj, tuple)
                    and hasattr(obj, "_fields") and not name.startswith("_")):
                found[name] = obj
    return found


def instance(name, cls):
    return CHECKED.get(name) or cls(*range(len(cls._fields)))


def test_every_record_is_a_named_tuple():
    assert sorted(records()) == sorted([
        "Violation", "ValidationReport", "State", "InitialCondition",
        "EquilibriumSet", "Criterion", "StabilityVerdict", "CrossingReport",
        "CubicABC", "LyapunovCertificate", "EnsembleSummary",
        "ConcentrationReport", "StochasticStabilityReport", *CHECKED])


@pytest.mark.parametrize("name", sorted(records()))
def test_a_record_is_immutable(name):
    rec = instance(name, records()[name])
    with pytest.raises(AttributeError):
        setattr(rec, rec._fields[0], rec[0])
    # no instance dict either, so no new attribute
    with pytest.raises(AttributeError):
        rec.extra = 1


# a field value each checked record rejects, with the message it gives
BAD = {
    "Params": ("k_r", 1.0, "k_r: must satisfy k_r >= r*e when r > 0"),
    "RunConfig": ("n_rep", 0,
                  "ensemble.n_rep (--reps): must be an integer >= 1, got 0"),
    "Seed": ("master", -1, "master: must be an integer >= 0, got -1"),
    "QuasiPolynomial": ("r", -1.0, "r: must be finite and >= 0"),
}


@pytest.mark.parametrize("name", sorted(BAD))
def test_every_route_to_a_checked_record_checks(name):
    good = CHECKED[name]
    cls = type(good)
    field, value, message = BAD[name]
    fields = good._asdict()
    fields[field] = value
    values = list(fields.values())
    for build in (lambda: cls(**fields), lambda: cls(*values),
                  lambda: cls._make(values),
                  lambda: good._replace(**{field: value})):
        with pytest.raises(ValidationError) as exc:
            build()
        assert str(exc.value) == message


@pytest.mark.parametrize("name", sorted(CHECKED))
def test_make_and_replace_give_an_equal_record(name):
    good = CHECKED[name]
    for copy in (type(good)._make(good), good._replace()):
        assert type(copy) is type(good)
        assert copy == good and tuple(copy) == tuple(good)


def test_run_config_replace_sorts_rho_grid():
    assert CFG.rho_grid == (0.01, 0.02)
    assert CFG._replace(rho_grid=[0.5, 0.05]).rho_grid == (0.05, 0.5)


def test_run_config_equality_and_hash_ignore_warnings():
    quiet = CFG._replace(warnings=())
    assert quiet.warnings != CFG.warnings
    assert quiet == CFG and not quiet != CFG
    assert hash(quiet) == hash(CFG)
    other = CFG._replace(n_rep=7)
    assert other != CFG and not other == CFG
    # a plain tuple of the same fields is another kind of value
    assert CFG != tuple(CFG[:-1])


def test_trajectory_compares_by_identity():
    times, states = np.arange(3) * 0.5, np.full((3, 4), 0.25)
    a = Trajectory(times, states, 0.5)
    b = Trajectory(times=times, states=states, step=0.5)
    assert a == a and a != b and len({a, b}) == 2
    assert len(a) == 3 and a.step == 0.5 and a.times is times
    with pytest.raises(AttributeError):
        a.extra = 1

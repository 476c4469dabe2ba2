"""The package's records: immutable named tuples, checked on every route.

Params, RunConfig, Seed and QuasiPolynomial check their fields in __new__,
and _make and _replace go through it, so no route builds an invalid one.
Trajectory, a run's nodes, is a plain class that compares by identity.
"""
import numpy as np
import pytest

from seirs_delay import (Params, ValidationError, cli, delay_margin,
                         equilibria, integrate_ode, linear_stability,
                         lyapunov, make_initial_condition, make_state,
                         model_core, sde_simulator, simulate_sde)
from seirs_delay.cli import RunConfig
from seirs_delay.linear_stability import QuasiPolynomial
from seirs_delay.sde_simulator import Seed

from _oracles import path_reductions

P = Params(0.1, 0.2, 0.3, 2.0, r=0.5)
CFG = RunConfig(P, make_initial_condition(0.05, 0.9, 0.05, 0.0),
                horizon=20.0, step=0.01, rho_grid=(0.02, 0.01),
                warnings=("unknown key 'x' ignored (line 9)",))
X0 = make_state(0.9, 0.05, 0.05, 0.0)
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


def test_trajectory_compares_by_identity():
    a = integrate_ode(Params(0.1, 0.2, 0.3, 2.0), X0, 1.0, 0.5)
    b = integrate_ode(Params(0.1, 0.2, 0.3, 2.0), X0, 1.0, 0.5)
    assert a == a and a != b and len({a, b}) == 2
    assert len(a) == 3 and a.step == 0.5 and a.times is a.times
    with pytest.raises(AttributeError):
        a.extra = 1


def test_grid_times_are_built_once_as_node_index_times_step():
    h = 0.01
    traj = integrate_ode(Params(0.1, 0.2, 0.3, 2.0), X0, 25.0, h)
    times = traj.times
    assert times.tobytes() == (np.arange(2501) * h).tobytes()
    assert traj.times is times


@pytest.mark.parametrize("steps", [1, 1023, 1024, 1025, 3000])
def test_max_sum_defect_is_the_whole_path_reduction(steps):
    # a run's reductions are the floats numpy's reductions over its whole
    # path give, a zero minimum's sign by IEEE 754-2019 minimum
    traj = simulate_sde(Params(0.4, 0.2, 0.1, 2.0, epsilon=0.3),
                        make_initial_condition(0.05, 0.9, 0.05, 0.0),
                        steps * 0.01, 0.01, Seed(steps))
    assert len(traj) == steps + 1
    got = np.array([traj.max_sum_defect(), traj.min_component()])
    assert got.tobytes() == np.array(path_reductions(traj.states)).tobytes()


@pytest.mark.parametrize("command, r", [
    ("equilibria", 0.5), ("stability", 0.5), ("delay-margin", 0.5),
    ("lyapunov", 0.0), ("simulate", 0.5)])
def test_numpy_scalars_are_stored_and_rendered_as_plain_floats(command, r):
    plain = RunConfig(Params(0.4, 0.2, 0.1, 2.0, r, 0.1),
                      make_initial_condition(0.05, 0.9, 0.05, 0.0),
                      horizon=1.0, step=0.01)
    f64 = np.float64
    cfg = RunConfig(Params(*map(f64, plain.params)),
                    make_initial_condition(*map(f64, plain.initial)),
                    horizon=f64(1.0), step=f64(0.01))
    assert cfg == plain
    assert {type(v) for v in (*cfg.params, *cfg.initial, cfg.horizon,
                              cfg.step)} == {float}
    assert cli.run(command, cfg).render() == cli.run(command, plain).render()

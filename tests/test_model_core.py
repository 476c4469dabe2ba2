"""Parameter/state validation: admissibility checks, simplex construction,
and the looser run-level state builder."""
import math
import random

import numpy as np
import pytest

from seirs_delay import (
    InitialCondition,
    Params,
    State,
    ValidationError,
    make_initial_condition,
    make_run_state,
    make_state,
    validate_params,
)
from seirs_delay import model_core
from seirs_delay.model_core import (NEGATIVITY_TOL, PROPAGATION_SUM_TOL,
                                    SUM_TOL, ValidationReport, _checked_state,
                                    _violations, step_grid)


def violated_fields(report):
    return {v.field for v in report.violations}


class TestValidateParams:
    def test_delay_bound_satisfied(self):
        # k_r = 2 >= 0.5*e ~ 1.3591
        rep = validate_params(0.1, 0.2, 0.3, k_r=2.0, r=0.5)
        assert rep.ok
        assert rep.violations == ()

    def test_delay_bound_violated(self):
        rep = validate_params(0.1, 0.2, 0.3, k_r=1.0, r=0.5)
        assert not rep.ok
        assert any(v.field == "k_r" and "r*e" in v.constraint
                   for v in rep.violations)

    def test_delay_bound_vacuous_at_r_zero(self):
        rep = validate_params(0.1, 0.2, 0.3, k_r=2.0, r=0.0)
        assert rep.ok

    @pytest.mark.parametrize("name", ["beta", "mu", "gamma"])
    @pytest.mark.parametrize("value", [0.0, 1.0, -0.1, 1.5])
    def test_rates_strictly_inside_unit_interval(self, name, value):
        kw = dict(beta=0.1, mu=0.2, gamma=0.3, k_r=2.0)
        kw[name] = value
        rep = validate_params(**kw)
        assert not rep.ok
        assert name in violated_fields(rep)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_is_a_named_violation_not_a_crash(self, value):
        rep = validate_params(value, 0.2, 0.3, k_r=2.0)
        assert not rep.ok
        assert any(v.field == "beta" and v.constraint == "must be finite"
                   for v in rep.violations)

    def test_all_violations_collected_at_once(self):
        rep = validate_params(0.0, 1.0, float("nan"), k_r=-1.0, r=-0.5,
                              epsilon=-1.0)
        assert not rep.ok
        assert violated_fields(rep) == {"beta", "mu", "gamma", "k_r", "r",
                                        "epsilon"}

    def test_ok_iff_no_violations(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            kw = dict(zip(("beta", "mu", "gamma", "k_r"),
                          rng.uniform(-0.5, 1.5, 4)),
                      r=rng.uniform(-0.2, 1.0), epsilon=rng.uniform(-0.2, 1.0))
            rep = validate_params(**kw)
            assert rep.ok == (len(rep.violations) == 0)
            # construction raises exactly when the report is not ok, with
            # the report's message
            if rep.ok:
                Params(**kw)
            else:
                with pytest.raises(ValidationError) as err:
                    Params(**kw)
                assert str(err.value) == rep.message()

    def test_monotone_in_k_r(self):
        # if a k_r passes, any larger k_r passes too
        rng = np.random.default_rng(12)
        for _ in range(50):
            r = rng.uniform(0.0, 1.0)
            k_r = rng.uniform(0.01, 4.0)
            if validate_params(0.1, 0.2, 0.3, k_r=k_r, r=r).ok:
                bigger = k_r * rng.uniform(1.0, 3.0)
                assert validate_params(0.1, 0.2, 0.3, k_r=bigger, r=r).ok

    def test_construction_raises_with_constraint_name(self):
        with pytest.raises(ValidationError, match="k_r"):
            Params(0.1, 0.2, 0.3, k_r=1.0, r=0.5)
        Params(0.1, 0.2, 0.3, k_r=2.0, r=0.5)

    def test_replace_rechecks(self):
        valid = Params(0.1, 0.2, 0.3, k_r=2.0, r=0.5)
        with pytest.raises(ValidationError, match="r\\*e"):
            valid._replace(k_r=1.0)

    def test_a_bool_is_not_a_number(self):
        rep = validate_params(0.3, 0.5, 0.25, True, False, False)
        assert violated_fields(rep) == {"k_r", "r", "epsilon"}
        with pytest.raises(ValidationError) as err:
            Params(0.3, 0.5, 0.25, True, False, False)
        for name in ("k_r", "r", "epsilon"):
            assert f"{name}: must be finite" in str(err.value)


class TestMakeState:
    def test_free_disease_point(self):
        x = make_state(1.0, 0.0, 0.0, 0.0)
        assert (x.s, x.e, x.i, x.rcv) == (1.0, 0.0, 0.0, 0.0)
        assert x.total == 1.0

    def test_symmetric_point(self):
        x = make_state(0.25, 0.25, 0.25, 0.25)
        assert x == State(0.25, 0.25, 0.25, 0.25)

    def test_negative_component_reported_before_sum(self):
        # sum is exactly 1 here; the error must still name the negative entry
        with pytest.raises(ValidationError, match="rcv: negative"):
            make_state(0.5, 0.5, 0.5, -0.5)

    def test_sum_defect_rejected(self):
        with pytest.raises(ValidationError, match="component sum"):
            make_state(0.5, 0.3, 0.1, 0.2)

    def test_tiny_negative_clamped_to_zero(self):
        x = make_state(1.0, -1e-13, 1e-13, 0.0)
        assert x.e == 0.0
        assert x.i == 1e-13

    def test_below_tolerance_negative_rejected(self):
        with pytest.raises(ValidationError, match="e: negative"):
            make_state(1.0, -1e-11, 1e-11, 0.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError, match="must be finite"):
            make_state(float("nan"), 0.5, 0.25, 0.25)

    def test_a_bool_is_not_a_fraction(self):
        with pytest.raises(ValidationError, match="^s: must be finite$"):
            make_state(True, 0.0, 0.0, 0.0)

    def test_components_always_in_unit_interval(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            raw = rng.dirichlet(np.ones(4))
            raw = raw / raw.sum()
            x = make_state(*raw)
            for v in (x.s, x.e, x.i, x.rcv):
                assert 0.0 <= v <= 1.0
            assert abs(x.total - 1.0) <= 4 * SUM_TOL


class TestInitialCondition:
    def test_build_and_state0(self):
        ic = make_initial_condition(e0=0.1, s0=0.8, i0=0.1, r0=0.0)
        assert isinstance(ic, InitialCondition)
        x0 = ic.state0()
        assert (x0.s, x0.e, x0.i, x0.rcv) == (0.8, 0.1, 0.1, 0.0)

    def test_simplex_enforced(self):
        with pytest.raises(ValidationError, match="component sum"):
            make_initial_condition(e0=0.5, s0=0.8, i0=0.1, r0=0.0)
        with pytest.raises(ValidationError, match="negative"):
            make_initial_condition(e0=-0.1, s0=1.0, i0=0.1, r0=0.0)


class TestMakeRunState:
    def test_accepts_propagation_level_sum_drift(self):
        # sums within 1e-10 but beyond the 1e-12 construction tolerance
        drift = 5e-11
        x = make_run_state(0.7 - drift, 0.1, 0.1, 0.1)
        assert abs(x.total - 1.0) <= SUM_TOL
        assert x.s == pytest.approx(0.7, abs=1e-10)

    def test_rescales_onto_exact_simplex(self):
        x = make_run_state(0.25, 0.25, 0.25, 0.25 + 3e-11)
        assert abs(x.total - 1.0) <= SUM_TOL

    def test_rejects_sum_beyond_run_tolerance(self):
        with pytest.raises(ValidationError, match="component sum"):
            make_run_state(0.7, 0.1, 0.1, 0.1 + 2 * PROPAGATION_SUM_TOL)

    def test_clamps_small_negative(self):
        x = make_run_state(1.0, -5e-11, 5e-11, 0.0)
        assert x.e == 0.0

    def test_rejects_negative_below_run_tolerance(self):
        with pytest.raises(ValidationError, match="negative"):
            make_run_state(1.0, 2 * NEGATIVITY_TOL, -2 * NEGATIVITY_TOL, 0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError, match="finite"):
            make_run_state(math.inf, 0.0, 0.0, 0.0)


# values at and around every bound the checks draw, and of every type they
# meet: ints, bools, a float subclass, a non-number
EDGES = (0.0, -0.0, 1.0, 5e-324, -5e-324, math.nextafter(1.0, 0.0),
         math.nextafter(1.0, 2.0), 1e-13, -1e-13, 1e-12, -1e-12, 0.5, 2.0,
         1e300, math.inf, -math.inf, math.nan, 0, 1, 2, True, False,
         np.float64(0.25), np.float32(0.25), "0.5")


class TestQuickAccept:
    """validate_params and make_state accept plain in-range floats in one
    comparison; on every draw here their answer is that of the full checks,
    and each way takes at least a fifth of the draws."""

    @staticmethod
    def counted(monkeypatch, name):
        """Replace model_core.name by a wrapper; returns its call counter."""
        calls = [0]
        full = getattr(model_core, name)

        def wrapper(*args):
            calls[0] += 1
            return full(*args)
        monkeypatch.setattr(model_core, name, wrapper)
        return calls

    def test_validate_params_agrees_with_the_violation_list(self, monkeypatch):
        rng = random.Random("validate_params quick accept")
        full = self.counted(monkeypatch, "_violations")
        n = 20000
        for _ in range(n):
            values = [rng.uniform(0.0, 1.0) if rng.random() < 0.9
                      else rng.choice(EDGES) for _ in range(6)]
            if rng.random() < 0.5:
                values[4] = 0.0
            elif type(values[4]) is float:
                # k_r just below r*e, at it, or just above it
                bound = values[4] * math.e
                values[3] = math.nextafter(bound, rng.choice((0.0, bound, math.inf)))
            bad = _violations(*values)
            assert validate_params(*values) == ValidationReport(
                ok=not bad, violations=bad), values
        assert 0.2 * n < full[0] < 0.8 * n

    def test_make_state_agrees_with_the_checks_one_by_one(self, monkeypatch):
        rng = random.Random("make_state quick accept")
        full = self.counted(monkeypatch, "_checked_state")

        def outcome(build, comps):
            try:
                state = build(*comps)
            except ValidationError as exc:
                return str(exc)
            return [(type(v), repr(v)) for v in (state.s, state.e, state.i,
                                                 state.rcv)]

        n = 20000
        for _ in range(n):
            cuts = sorted(rng.random() for _ in range(3))
            comps = [cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], 1.0 - cuts[2]]
            j = rng.randrange(4)
            roll = rng.random()
            if roll < 0.2:
                comps[j] = rng.choice(EDGES)
            elif roll < 0.5:
                comps[j] += rng.choice((-1.0, 1.0)) * rng.choice(
                    (2.0 * SUM_TOL, SUM_TOL, 0.5 * SUM_TOL, 1e-16))
            with np.errstate(all="ignore"):
                assert outcome(make_state, comps) == outcome(_checked_state,
                                                             comps), comps
        assert 0.2 * n < full[0] < 0.8 * n


@pytest.mark.parametrize("h", [0.0, -0.01, math.nan, math.inf])
def test_step_grid_rejects_a_nonpositive_or_non_finite_step(h):
    for r in (0.0, 0.5):
        with pytest.raises(ValidationError) as exc:
            step_grid(r, 10.0, h)
        assert str(exc.value) == f"h: must be a positive finite step, got {h!r}"

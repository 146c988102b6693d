"""Euler--Maruyama simulation: determinism, exactness limits, statistics."""

import json
import math
from fractions import Fraction

import pytest

from sdemoments.model import load_benchmark, load_model
from sdemoments.montecarlo import (
    BlowUpError,
    SimConfig,
    SimulationError,
    simulate_functional,
    simulate_moment,
)
from sdemoments.poly import Monomial, parse_polynomial


def scalar_model(drift, diffusion, x0="0", name="scalar"):
    return load_model(
        json.dumps(
            {
                "name": name,
                "variables": ["x1"],
                "brownian_dim": 1,
                "drift": [drift],
                "diffusion": [[diffusion]],
                "initial": {"kind": "point", "values": [x0]},
            }
        )
    )


# ---------------------------------------------------------------------------
# Configuration validation
# ---------------------------------------------------------------------------


class TestSimConfig:
    def test_defaults(self):
        cfg = SimConfig()
        assert cfg.dt == 1e-3
        assert cfg.paths == 100_000
        assert cfg.record_times == (1.0,)
        assert cfg.horizon == 1.0

    def test_positive_dt_required(self):
        with pytest.raises(SimulationError):
            SimConfig(dt=0.0)

    def test_positive_paths_required(self):
        with pytest.raises(SimulationError):
            SimConfig(paths=0)

    def test_positive_workers_required(self):
        with pytest.raises(SimulationError):
            SimConfig(workers=0)

    def test_record_times_sorted(self):
        with pytest.raises(SimulationError):
            SimConfig(record_times=(1.0, 0.5))

    def test_record_times_distinct(self):
        with pytest.raises(SimulationError):
            SimConfig(record_times=(0.5, 0.5))

    def test_record_times_non_negative(self):
        with pytest.raises(SimulationError):
            SimConfig(record_times=(-1.0, 0.5))

    def test_record_times_non_empty(self):
        with pytest.raises(SimulationError):
            SimConfig(record_times=())

    def test_dt_within_horizon(self):
        with pytest.raises(SimulationError):
            SimConfig(dt=0.5, record_times=(0.1,))

    def test_off_grid_time_rejected_at_run(self):
        model = scalar_model("-x1", "1")
        cfg = SimConfig(dt=0.1, paths=10, record_times=(0.15,))
        with pytest.raises(SimulationError, match="grid"):
            simulate_moment(model, Monomial((2,)), cfg)


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


class TestDeterminism:
    CFG = dict(dt=0.05, paths=5000, seed=42, record_times=(0.25, 0.5))

    def run(self, workers):
        model = load_benchmark("ou-env")
        cfg = SimConfig(workers=workers, **self.CFG)
        return simulate_moment(model, Monomial((0, 2)), cfg)

    def test_bitwise_identical_across_worker_counts(self):
        one = self.run(1)
        two = self.run(2)
        eight = self.run(8)
        for a, b, c in zip(one, two, eight):
            assert a.mean == b.mean == c.mean  # bitwise, not approx
            assert a.std_error == b.std_error == c.std_error

    def test_identical_repeat_runs(self):
        first = self.run(1)
        second = self.run(1)
        for a, b in zip(first, second):
            assert a.mean == b.mean
            assert a.std_error == b.std_error

    def test_seed_changes_result(self):
        model = load_benchmark("ou-env")
        base = SimConfig(seed=0, dt=0.05, paths=2000, record_times=(0.5,))
        other = SimConfig(seed=1, dt=0.05, paths=2000, record_times=(0.5,))
        a = simulate_moment(model, Monomial((0, 2)), base)[0]
        b = simulate_moment(model, Monomial((0, 2)), other)[0]
        assert a.mean != b.mean

    def test_partial_last_block(self):
        # path counts that do not fill the final vector block still work and
        # stay deterministic
        model = load_benchmark("ou-env")
        cfg = SimConfig(dt=0.05, paths=2048 + 7, seed=3, record_times=(0.25,))
        first = simulate_moment(model, Monomial((0, 2)), cfg)
        second = simulate_moment(model, Monomial((0, 2)), cfg)
        assert first[0].mean == second[0].mean
        assert first[0].paths == 2055


# ---------------------------------------------------------------------------
# Deterministic (zero-noise) dynamics follow the Euler recurrence exactly
# ---------------------------------------------------------------------------


class TestNoiselessDynamics:
    def test_linear_decay_matches_euler_iterates(self):
        model = scalar_model("-x1", "0", x0="1")
        dt = 0.01
        cfg = SimConfig(dt=dt, paths=3, record_times=(0.5, 1.0), seed=0)
        estimates = simulate_moment(model, Monomial((1,)), cfg)
        for est in estimates:
            steps = round(est.time / dt)
            assert est.mean == pytest.approx((1 - dt) ** steps, rel=1e-12)
            assert est.std_error == 0.0

    def test_approaches_true_exponential_as_dt_shrinks(self):
        model = scalar_model("-x1", "0", x0="1")
        errors = []
        for dt in (0.02, 0.01, 0.005):
            cfg = SimConfig(dt=dt, paths=1, record_times=(1.0,), seed=0)
            est = simulate_moment(model, Monomial((1,)), cfg)[0]
            errors.append(abs(est.mean - math.exp(-1.0)))
        assert errors[0] > errors[1] > errors[2]

    def test_time_zero_record_is_initial_value(self):
        model = scalar_model("-x1", "0", x0="2")
        cfg = SimConfig(dt=0.1, paths=5, record_times=(0.0, 0.5), seed=0)
        estimates = simulate_moment(model, Monomial((2,)), cfg)
        assert estimates[0].time == 0.0
        assert estimates[0].mean == 4.0
        assert estimates[0].std_error == 0.0


# ---------------------------------------------------------------------------
# Statistical agreement where the scheme is exact (constant coefficients)
# ---------------------------------------------------------------------------


class TestBrownianStatistics:
    def test_second_and_fourth_moments_of_brownian_motion(self):
        # dX = dW from 0: X_1 ~ N(0,1); the Euler scheme is exact here, so a
        # 4-standard-error window is a clean statistical test
        model = scalar_model("0", "1")
        cfg = SimConfig(dt=0.01, paths=20_000, seed=11, record_times=(1.0,))
        second = simulate_moment(model, Monomial((2,)), cfg)[0]
        assert abs(second.mean - 1.0) <= 4 * second.std_error
        fourth = simulate_moment(model, Monomial((4,)), cfg)[0]
        assert abs(fourth.mean - 3.0) <= 4 * fourth.std_error

    def test_variance_scales_with_time(self):
        model = scalar_model("0", "1")
        cfg = SimConfig(dt=0.01, paths=20_000, seed=5, record_times=(0.5, 2.0))
        a, b = simulate_moment(model, Monomial((2,)), cfg)
        assert abs(a.mean - 0.5) <= 4 * a.std_error
        assert abs(b.mean - 2.0) <= 4 * b.std_error


# ---------------------------------------------------------------------------
# Functional targets and input validation
# ---------------------------------------------------------------------------


class TestFunctionals:
    def test_monomial_and_functional_agree_bitwise(self):
        model = load_benchmark("ou-env")
        cfg = SimConfig(dt=0.05, paths=1000, seed=9, record_times=(0.5,))
        via_alpha = simulate_moment(model, Monomial((0, 2)), cfg)[0]
        coeffs = dict(parse_polynomial("x2^2", model.variables).terms)
        via_poly = simulate_functional(model, coeffs, cfg)[0]
        assert via_alpha.mean == via_poly.mean
        assert via_alpha.std_error == via_poly.std_error

    def test_affine_functional(self):
        # E[3*x1 + 10] under zero noise and zero drift is exactly 3*x0 + 10
        model = scalar_model("0", "0", x0="2")
        cfg = SimConfig(dt=0.1, paths=4, seed=0, record_times=(0.5,))
        coeffs = dict(parse_polynomial("3*x1 + 10", ("x1",)).terms)
        est = simulate_functional(model, coeffs, cfg)[0]
        assert est.mean == 16.0

    def test_zero_functional_rejected(self):
        model = scalar_model("0", "1")
        cfg = SimConfig(dt=0.1, paths=4, record_times=(0.5,))
        with pytest.raises(SimulationError):
            simulate_functional(model, {}, cfg)

    def test_dimension_mismatch_rejected(self):
        model = load_benchmark("ou-env")
        cfg = SimConfig(dt=0.1, paths=4, record_times=(0.5,))
        with pytest.raises(SimulationError):
            simulate_moment(model, Monomial((2,)), cfg)

    def test_moment_table_initial_rejected(self):
        model = load_model(
            json.dumps(
                {
                    "name": "table-start",
                    "variables": ["x1"],
                    "brownian_dim": 1,
                    "drift": ["-x1"],
                    "diffusion": [["1"]],
                    "initial": {"kind": "moments", "table": {"(1)": "0", "(2)": "1"}},
                }
            )
        )
        cfg = SimConfig(dt=0.1, paths=4, record_times=(0.5,))
        with pytest.raises(SimulationError, match="point"):
            simulate_moment(model, Monomial((2,)), cfg)


# ---------------------------------------------------------------------------
# Blow-up detection
# ---------------------------------------------------------------------------


class TestBlowUp:
    def test_superlinear_growth_aborts(self):
        model = scalar_model("x1^3", "0", x0="2", name="explosive")
        cfg = SimConfig(dt=0.1, paths=4, record_times=(5.0,), seed=0)
        with pytest.raises(BlowUpError):
            simulate_moment(model, Monomial((1,)), cfg)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_state_aborts(self):
        # x^30 - x^29 at 1e11 overflows to inf - inf = NaN on the first step;
        # NaN compares false with any limit, so the guard must test for it.
        model = scalar_model("x1^30 - x1^29", "0", x0="100000000000", name="nan")
        cfg = SimConfig(dt=0.01, paths=16, record_times=(0.01,), seed=0)
        with pytest.raises(BlowUpError, match="non-finite"):
            simulate_moment(model, Monomial((1,)), cfg)

    def test_blow_up_is_a_simulation_error(self):
        assert issubclass(BlowUpError, SimulationError)

    def test_stable_cubic_does_not_abort(self):
        model = load_benchmark("double-well")  # drift x - x^3 is mean-reverting
        cfg = SimConfig(dt=0.01, paths=256, record_times=(1.0,), seed=0)
        est = simulate_moment(model, Monomial((2,)), cfg)[0]
        assert math.isfinite(est.mean)


# ---------------------------------------------------------------------------
# Weak-order-one bias trend (slow)
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_bias_shrinks_when_dt_halves():
    # E[x1^2](0.5) = (1 - e^{-1})/2 for the OU coordinate; the Euler scheme
    # has a positive O(dt) bias here, so halving dt should roughly halve it.
    model = load_benchmark("ou-env")
    exact = (1 - math.exp(-1.0)) / 2
    biases = []
    for dt in (1 / 32, 1 / 64):
        cfg = SimConfig(
            dt=dt, paths=1_000_000, seed=123, record_times=(0.5,), workers=4
        )
        est = simulate_moment(model, Monomial((2, 0)), cfg)[0]
        biases.append(est.mean - exact)
    coarse, fine = biases
    assert abs(coarse) > abs(fine)
    # weak order one: the ratio should sit near 2, not near 1 or 4
    assert 1.3 < abs(coarse) / abs(fine) < 3.0

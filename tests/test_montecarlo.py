"""Weak Euler simulation: determinism, exactness limits, statistics."""

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdemoments.cli import main
from sdemoments.model import InitialCondition, SdeModel, load_benchmark, load_model
from sdemoments.montecarlo import (
    BlowUpError,
    SimConfig,
    SimulationError,
    _cone,
    _evaluate,
    _evaluator,
    simulate_functional,
    simulate_moment,
)
from sdemoments.poly import Monomial, Polynomial, parse_polynomial

REPO = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((REPO / "tests" / "data" / "simulate_golden.json").read_text())["cases"]


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

    @pytest.mark.parametrize("dt", [0.0, math.nan, math.inf])
    def test_positive_dt_required(self, dt):
        with pytest.raises(SimulationError):
            SimConfig(dt=dt)

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
        for times in ((math.nan,), (0.5, math.inf)):
            with pytest.raises(SimulationError, match="finite"):
                SimConfig(record_times=times)

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
# Fused monomial evaluation against exact polynomial evaluation
# ---------------------------------------------------------------------------

COEFFS = st.fractions(min_value=-5, max_value=5, max_denominator=8)


@st.composite
def polynomial_cases(draw):
    """A random polynomial model (powers up to 4, constant and zero diffusion
    entries), a functional, and a few float points."""
    n = draw(st.integers(min_value=1, max_value=3))
    m = draw(st.integers(min_value=1, max_value=3))
    exponents = st.tuples(*[st.integers(min_value=0, max_value=4)] * n)

    def poly():
        return Polynomial(n, draw(st.dictionaries(exponents, COEFFS, max_size=4)))

    def entry():
        kind = draw(st.sampled_from(["zero", "constant", "poly"]))
        if kind == "zero":
            return Polynomial.zero(n)
        return Polynomial.constant(n, draw(COEFFS)) if kind == "constant" else poly()

    model = SdeModel(
        name="random",
        variables=tuple(f"x{i + 1}" for i in range(n)),
        brownian_dim=m,
        drift=tuple(poly() for _ in range(n)),
        diffusion=tuple(tuple(entry() for _ in range(m)) for _ in range(n)),
        initial=InitialCondition.from_point([Fraction(0)] * n),
    )
    # Kept away from zero far enough that no product underflows.
    coords = st.one_of(
        st.just(0.0),
        st.floats(min_value=0.01, max_value=2.0),
        st.floats(min_value=-2.0, max_value=-0.01),
    )
    points = draw(st.lists(st.tuples(*[coords] * n), min_size=1, max_size=4))
    return model, poly(), np.array(points).T


def _pinned_case():
    # x1^3 * x2 and x2^4 in the drift, a constant diffusion entry, and
    # Brownian columns 1 and 3 that drive nothing.
    model = load_model(
        json.dumps(
            {
                "name": "pinned",
                "variables": ["x1", "x2"],
                "brownian_dim": 3,
                "drift": ["x1^3*x2 - 2", "x2^4 + x1"],
                "diffusion": [["0", "1/2", "0"], ["0", "x1^3 - x2", "0"]],
                "initial": {"kind": "point", "values": ["0", "0"]},
            }
        )
    )
    functional = parse_polynomial("x1^2*x2^3 + 1", model.variables)
    return model, functional, np.array([[1.5, -0.25, 2.0], [-1.75, 0.5, 1.0]])


def _value(terms, point) -> Fraction:
    """Exact value of sum c x^e over (monomial, c) terms at a rational point."""
    return sum(c * math.prod(x**e for x, e in zip(point, mono.exponents)) for mono, c in terms)


def _assert_matches(got, poly, points):
    for value, point in zip(got, points.T):
        point = [Fraction(x) for x in point]
        exact = _value(poly.terms.items(), point)
        # Relative to the sum of the absolute terms, as float rounding is.
        magnitude = _value(((mono, abs(c)) for mono, c in poly.terms.items()), [abs(x) for x in point])
        assert abs(value - float(exact)) <= 1e-12 * float(magnitude)


class TestFusedEvaluation:
    @settings(max_examples=60, deadline=None)
    @given(polynomial_cases())
    @example(_pinned_case())
    def test_matches_exact_evaluation(self, case):
        model, functional, points = case
        n = model.dimension
        ev = _evaluator(model, functional)
        assert set(ev.noise) == {
            (i, k)
            for i in range(n)
            for k in range(model.brownian_dim)
            if not model.diffusion[i][k].is_zero()
        }
        rows = np.empty((ev.coef.shape[1], points.shape[1]))
        rows[0] = 1.0
        rows[1 : n + 1] = points
        _evaluate(ev, rows)
        got = ev.coef @ rows
        for i in range(n):
            _assert_matches(got[i], model.drift[i], points)
        for e, (i, k) in enumerate(ev.noise, start=n):
            _assert_matches(got[e], model.diffusion[i][k], points)
        _assert_matches(ev.functional @ rows, functional, points)


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

    def test_bitwise_identical_across_workers_with_partial_block(self):
        # Three blocks, the last one of 7 paths, on a model with five
        # Brownian motions and cubic coefficients.
        model = load_benchmark("gene")
        runs = [
            simulate_moment(
                model,
                Monomial((1, 0, 0, 0, 1)),
                SimConfig(dt=0.05, paths=2 * 2048 + 7, seed=7,
                          record_times=(0.5, 1.0), workers=workers),
            )
            for workers in (1, 3, 8)
        ]
        for a, b, c in zip(*runs):
            assert a.mean == b.mean == c.mean
            assert a.std_error == b.std_error == c.std_error

    def test_estimate_does_not_depend_on_later_record_times(self):
        # 300 steps end inside a 64-step noise chunk, so the short run draws
        # a partial last chunk whose bits the long run draws as a whole one.
        model = load_benchmark("ou-env")
        short, long = (
            simulate_moment(
                model,
                Monomial((0, 2)),
                SimConfig(dt=1e-3, paths=300, seed=21, record_times=times),
            )[0]
            for times in ((0.3,), (0.3, 0.9))
        )
        assert short.mean == long.mean
        assert short.std_error == long.std_error

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
        # dX = dW from 0: X_1 ~ N(0,1).  With +-sqrt(dt) increments X_1 is a
        # scaled random walk: E[X_1^2] = 1 exactly, but E[X_1^4] = 3 - 2 dt =
        # 2.98, a bias of about 0.3 standard errors at these paths, well
        # inside the 4-standard-error window.
        model = scalar_model("0", "1")
        cfg = SimConfig(dt=0.01, paths=20_000, seed=11, record_times=(1.0,))
        second = simulate_moment(model, Monomial((2,)), cfg)[0]
        assert abs(second.mean - 1.0) <= 4 * second.std_error
        fourth = simulate_moment(model, Monomial((4,)), cfg)[0]
        assert abs(fourth.mean - 3.0) <= 4 * fourth.std_error

    def test_fourth_moment_pins_the_two_point_increment_law(self):
        # E[xi^2] = 1 under both laws, so second moments cannot tell them
        # apart; E[xi^4] is 1 for +-1 signs and 3 for a Gaussian.  The Euler
        # iterate x' = a x + sqrt(dt) xi with a = 1 - dt gives
        # E x'^4 = a^4 E x^4 + 6 a^2 dt E x^2 + dt^2 E xi^4.
        dt, steps = 1 / 8, 4
        a = 1 - dt
        fourth = {}
        for xi4 in (1, 3):
            m2 = m4 = 0.0
            for _ in range(steps):
                m4 = a**4 * m4 + 6 * a * a * dt * m2 + dt * dt * xi4
                m2 = a * a * m2 + dt
            fourth[xi4] = m4
        cfg = SimConfig(dt=dt, paths=100_000, seed=1, record_times=(steps * dt,), workers=1)
        est = simulate_moment(load_benchmark("ou-env"), Monomial((4, 0)), cfg)[0]
        assert abs(est.mean - fourth[1]) <= 4 * est.std_error
        assert abs(est.mean - fourth[3]) > 8 * est.std_error

    def test_one_step_square_is_dt_on_every_path(self):
        # |dW| = sqrt(dt) on every path, so X^2 after one step has no spread.
        dt = 1 / 64
        cfg = SimConfig(dt=dt, paths=5000, seed=2, record_times=(dt,))
        est = simulate_moment(scalar_model("0", "1"), Monomial((2,)), cfg)[0]
        assert est.mean == pytest.approx(dt, rel=1e-15, abs=0)
        assert est.std_error == 0.0

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


def model_doc(variables, drift, diffusion, values, name="cut"):
    return load_model(
        json.dumps(
            {
                "name": name,
                "variables": variables,
                "brownian_dim": len(diffusion[0]),
                "drift": drift,
                "diffusion": diffusion,
                "initial": {"kind": "point", "values": values},
            }
        )
    )


# ---------------------------------------------------------------------------
# Golden CLI outputs, recorded before the dependency cone and the 8-step sign
# unpacking; the record times 0.013, 0.05 and 0.07 end off the 8- and 64-step
# boundaries, and 2100 and 4100 paths leave a partial last block
# ---------------------------------------------------------------------------


class TestGoldenOutputs:
    @pytest.mark.parametrize(
        "case",
        GOLDEN,
        ids=[" ".join(c["argv"][1:4] + c["argv"][-5:-3]) for c in GOLDEN],
    )
    def test_simulate_json_is_byte_equal(self, case, capsys):
        argv = list(case["argv"])
        argv[1] = str(REPO / argv[1])
        assert main(argv) == 0
        assert capsys.readouterr().out == case["stdout"]


# ---------------------------------------------------------------------------
# Dependency cone: only the variables the functional's law depends on
# ---------------------------------------------------------------------------

TWO_NOISE = load_model((REPO / "tests" / "data" / "two_noise.json").read_text())
# Model, functional, the variables of its cone.
CONES = [
    ("gene", "x1^2", "x1"),
    ("gene", "x2", "x1 x2"),
    ("gene", "x3^2 - x1", "x1 x2 x3"),
    ("gene", "x1*x5", "x1 x2 x3 x4 x5"),
    ("vehicles", "v1", "v1"),
    ("vehicles", "p1", "p1 v1"),
    ("vehicles", "v2", "v1 v2"),
    ("vehicles", "p1 - p2", "p1 v1 p2 v2"),
    ("ou-env", "x1", "x1"),
    ("ou-env", "x1^2", "x1"),
    ("ou-env", "x2", "x1 x2"),
    ("consensus", "x1", "x1 x2"),
    ("oscillator", "x3^2", "x3"),
    ("oscillator", "x1", "x1 x2 x3"),
    ("coupled3d", "x2", "x2 x3"),
    ("coupled3d", "x1", "x1 x2 x3"),
    ("double-well", "x1^2", "x1"),
    ("two-noise", "x1^2", "x1 x2"),
    ("two-noise", "x3", "x3"),
]


class TestDependencyCone:
    @pytest.mark.parametrize("name, functional, cone", CONES)
    def test_cone_of_bundled_models(self, name, functional, cone):
        model = TWO_NOISE if name == "two-noise" else load_benchmark(name)
        poly = parse_polynomial(functional, model.variables)
        assert [model.variables[v] for v in _cone(model, poly)] == cone.split()

    @pytest.mark.parametrize(
        "full, cut, functional",
        [
            (
                load_benchmark("gene"),
                model_doc(
                    ["x1", "x2"],
                    ["-x1 + 1", "1.2*x1 - 0.8*x2"],
                    [["0.5", "0", "0", "0", "0"], ["0", "0.3*x1 + 0.4", "0", "0", "0"]],
                    ["0", "0"],
                ),
                "x2^2 + x1",
            ),
            (
                load_benchmark("vehicles"),
                model_doc(
                    ["v1", "p2", "v2"],
                    ["-v1 + 1", "v2", "-v2 + v1^2 - 2*v1 + 3/2"],
                    [["1", "0"], ["0", "0"], ["0", "1"]],
                    ["0", "0", "0"],
                ),
                "p2",
            ),
            (
                TWO_NOISE,
                model_doc(
                    ["x1", "x2"],
                    ["-x1 + x2^2", "-x2 + 1"],
                    [["0.5", "x1", "0"], ["0", "0.3", "0.2*x2"]],
                    ["1", "0"],
                ),
                "x1^2",
            ),
        ],
        ids=["gene", "vehicles", "two-noise"],
    )
    def test_full_and_hand_cut_model_agree_bitwise(self, full, cut, functional):
        # The cut keeps every Brownian column, so each variable keeps its
        # signs; 2100 paths leave a partial second block.
        cfg = SimConfig(dt=1e-3, paths=2100, seed=17, record_times=(0.0, 0.013, 0.07))
        got = simulate_functional(
            full, dict(parse_polynomial(functional, full.variables).terms), cfg
        )
        want = simulate_functional(
            cut, dict(parse_polynomial(functional, cut.variables).terms), cfg
        )
        assert got == want

    SPLIT = dict(
        variables=["x1", "x2"],
        drift=["-x1", "x2^3 + x1"],
        diffusion=[["1", "0"], ["0", "1"]],
        values=["0", "2"],
        name="split",
    )
    CFG = SimConfig(dt=0.01, paths=64, seed=3, record_times=(1.0,))

    def test_blow_up_outside_the_cone_does_not_abort(self):
        # x2 explodes, but the law of x1 does not depend on it.
        got = simulate_moment(model_doc(**self.SPLIT), Monomial((2, 0)), self.CFG)
        alone = model_doc(["x1"], ["-x1"], [["1", "0"]], ["0"])
        assert got == simulate_moment(alone, Monomial((2,)), self.CFG)

    def test_blow_up_inside_the_cone_still_aborts(self):
        # The message and time are those of stepping every variable.
        with pytest.raises(BlowUpError) as info:
            simulate_moment(model_doc(**self.SPLIT), Monomial((0, 1)), self.CFG)
        assert str(info.value) == (
            "trajectory magnitude 1.81e+16 exceeded 1e+12 at t=0.15 (path block starting at 0)"
        )

    def test_constant_functional_needs_no_variable(self):
        model = scalar_model("x1^3", "0", x0="2", name="explosive")
        cfg = SimConfig(dt=0.1, paths=4, record_times=(5.0,), seed=0)
        est = simulate_functional(model, {Monomial((0,)): Fraction(3)}, cfg)[0]
        assert (est.mean, est.std_error) == (3.0, 0.0)


# ---------------------------------------------------------------------------
# The blow-up guard filters on the sum of squares, then checks max|x|
# ---------------------------------------------------------------------------


class TestGuardSoundness:
    def test_one_path_crossing_the_limit_aborts_at_its_step(self):
        # x' = x + 8 x dW with dt = 1/64 is x' = 2x or 0 exactly: a path
        # survives k steps with k plus signs.  Count survivors from x0 = 1,
        # then start where the last lone survivor reaches 1.5e12 at step K;
        # at step K - 1 two or more paths at 7.5e11 already trip the filter
        # (sum of squares > 1e24) without crossing the limit.
        dt, paths = 1 / 64, 2048
        times = tuple(k * dt for k in range(1, 16))

        def doubling(x0):
            return model_doc(["x1"], ["0"], [["8*x1"]], [x0], name="doubling")

        cfg = SimConfig(dt=dt, paths=paths, seed=0, record_times=times)
        means = simulate_moment(doubling("1"), Monomial((1,)), cfg)
        survivors = [e.mean * paths / 2 ** (k + 1) for k, e in enumerate(means)]
        step = survivors.index(1.0) + 1
        assert survivors[step - 2] >= 2
        x0 = Fraction(3, 2) * 10**12 / 2**step
        with pytest.raises(BlowUpError) as info:
            simulate_moment(doubling(f"{x0.numerator}/{x0.denominator}"), Monomial((1,)), cfg)
        assert str(info.value) == (
            f"trajectory magnitude 1.5e+12 exceeded 1e+12 at t={step * dt:.6g} "
            "(path block starting at 0)"
        )

    def test_many_paths_just_under_the_limit_do_not_abort(self):
        # 2048 paths at 0.99e12: the sum of squares is 2e27, the max is
        # below 1e12, so the exact check clears the step.
        model = scalar_model("0", "0", x0="990000000000")
        cfg = SimConfig(dt=0.01, paths=2048, seed=0, record_times=(0.1,))
        est = simulate_moment(model, Monomial((1,)), cfg)[0]
        assert (est.mean, est.std_error) == (0.99e12, 0.0)


# ---------------------------------------------------------------------------
# Weak-order-one bias trend (slow)
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_bias_shrinks_when_dt_halves():
    # E[x1^2](0.5) = (1 - e^{-1})/2 for the OU coordinate; the Euler scheme
    # has a positive O(dt) bias here, so halving dt should roughly halve it.
    # One worker: the step loop holds the GIL, and estimates do not depend
    # on the worker count.
    model = load_benchmark("ou-env")
    exact = (1 - math.exp(-1.0)) / 2
    biases = []
    for dt in (1 / 32, 1 / 64):
        cfg = SimConfig(
            dt=dt, paths=1_000_000, seed=123, record_times=(0.5,), workers=1
        )
        est = simulate_moment(model, Monomial((2, 0)), cfg)[0]
        biases.append(est.mean - exact)
    coarse, fine = biases
    assert abs(coarse) > abs(fine)
    # weak order one: the ratio should sit near 2, not near 1 or 4
    assert 1.3 < abs(coarse) / abs(fine) < 3.0

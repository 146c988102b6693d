"""The weak Euler step works on the cone alone: its Brownian components, the
monomials its drift and diffusion read, and one record per step."""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from sdemoments.model import load_benchmark, load_model
from sdemoments.montecarlo import (
    BlowUpError,
    SimConfig,
    SimulationError,
    _cone,
    _evaluator,
    _restrict,
    simulate_functional,
    simulate_moment,
)
from sdemoments.poly import Monomial, parse_polynomial
from test_montecarlo import polynomial_cases

REPO = Path(__file__).resolve().parents[1]
TWO_NOISE = load_model((REPO / "tests" / "data" / "two_noise.json").read_text())


def cone_evaluator(model, functional):
    poly = parse_polynomial(functional, model.variables)
    return _evaluator(*_restrict(model, poly, _cone(model, poly)))


def scalar(drift, diffusion, x0):
    return load_model(json.dumps({
        "name": "scalar", "variables": ["x1"], "brownian_dim": 1, "drift": [drift],
        "diffusion": [[diffusion]], "initial": {"kind": "point", "values": [x0]},
    }))


class TestConeComponents:
    @pytest.mark.parametrize(
        "model, functional, components",
        [
            (load_benchmark("gene"), "x1^2", (0,)),
            (load_benchmark("gene"), "x5", (0, 1, 2, 3, 4)),
            (TWO_NOISE, "x3", (0, 2)),
            (load_benchmark("vehicles"), "v1^2 - p1", (0,)),
        ],
        ids=["gene x1^2", "gene x5", "two-noise x3", "vehicles v1^2 - p1"],
    )
    def test_only_the_cones_components_are_unpacked(self, model, functional, components):
        assert cone_evaluator(model, functional).components == components


class TestFunctionalOnlyMonomials:
    @pytest.mark.parametrize(
        "model, functional, record_only",
        [
            (load_benchmark("ou-env"), "x2^2", 1),  # x1^2 is read by the drift of x2
            (load_benchmark("vehicles"), "v1^2 - p1", 1),
            (load_benchmark("gene"), "x1^2", 1),
            (load_benchmark("gene"), "x1^2 + x3", 0),  # x1^2 is read by the drift of x3
        ],
        ids=["ou-env x2^2", "vehicles v1^2 - p1", "gene x1^2", "gene x1^2 + x3"],
    )
    def test_record_only_products(self, model, functional, record_only):
        ev = cone_evaluator(model, functional)
        own = [r for r, _, _ in ev.products[ev.stepped :]]
        assert len(own) == record_only
        assert not ev.coef[:, own].any() and ev.functional[own].all()

    @settings(max_examples=60, deadline=None)
    @given(polynomial_cases())
    def test_step_rows_are_closed_and_cover_the_coefficients(self, case):
        model, functional, _ = case
        ev = _evaluator(model, functional)
        n = model.dimension
        stepped = {0, *range(1, n + 1)} | {r for r, _, _ in ev.products[: ev.stepped]}
        read = set(np.flatnonzero(ev.coef.any(axis=0)).tolist())
        assert read <= stepped
        for r, parent, var in ev.products[: ev.stepped]:
            assert parent in stepped and var in stepped
        for r, _, _ in ev.products[ev.stepped :]:
            assert r not in read
        # Each product still comes after its parent's own product.
        seen = {0, *range(1, n + 1)}
        for r, parent, _ in ev.products:
            assert parent in seen
            seen.add(r)


class TestRecordSteps:
    def test_two_times_on_one_step_get_its_estimate(self):
        model = load_benchmark("ou-env")
        cfg = dict(dt=0.1, paths=16, seed=0)
        both = simulate_moment(
            model, Monomial((1, 0)), SimConfig(record_times=(0.1, 0.1000000000001), **cfg)
        )
        (alone,) = simulate_moment(model, Monomial((1, 0)), SimConfig(record_times=(0.1,), **cfg))
        assert [e.time for e in both] == [0.1, 0.1000000000001]
        for est in both:
            assert (est.mean, est.std_error, est.paths) == (alone.mean, alone.std_error, alone.paths)


class TestNonFiniteFunctional:
    def test_overflowing_monomial_is_not_a_blow_up(self):
        # x1 stays near 1e11, under the limit; x1^30 is inf only in the functional.
        cfg = SimConfig(dt=0.001, paths=16, seed=0, record_times=(0.01,))
        with pytest.raises(SimulationError) as info:
            simulate_moment(scalar("-x1", "1", "100000000000"), Monomial((30,)), cfg)
        assert not isinstance(info.value, BlowUpError)
        assert str(info.value) == (
            "the functional's sum over paths is non-finite at t=0.01 (path block starting at 0)"
        )

    def test_sum_of_squares_over_blocks_overflows(self):
        # Each block's sum of squares is finite (2048 * 5.06e304); their total is not.
        cfg = SimConfig(dt=0.1, paths=4096, seed=0, record_times=(0.0,))
        big = Fraction(225 * 10**150)
        with pytest.raises(SimulationError, match=r"overflows at t=0$"):
            simulate_functional(scalar("0", "0", "0"), {Monomial((0,)): big}, cfg)
        one_block = SimConfig(dt=0.1, paths=2048, seed=0, record_times=(0.0,))
        (est,) = simulate_functional(scalar("0", "0", "0"), {Monomial((0,)): big}, one_block)
        assert (est.mean, est.std_error) == (float(big), 0.0)

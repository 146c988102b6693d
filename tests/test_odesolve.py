"""Linear ODE solving: matrix exponential, exact/float spectra, closed forms."""

import dataclasses
import hashlib
import json
import math
import random
import subprocess
import sys
from collections import defaultdict
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sdemoments.cli as cli
import sdemoments.odesolve as odesolve
from sdemoments.closure import MomentSystem, build_closure
from sdemoments.model import load_benchmark, load_model
from sdemoments.odesolve import (
    ClosedForm,
    ClosedFormUnsupported,
    FunctionalMoment,
    OdeSolveError,
    best_closed_form,
    characteristic_polynomial,
    eval_numeric,
    expm,
    linear_functional_moment,
    markov_tail_bound,
    solve_closed_form,
    solve_closed_form_float,
    solve_closed_form_vector,
)
from sdemoments.poly import Monomial, parse_polynomial
from sdemoments.prosolve import _tarjan_sccs


def F(a, b=1):
    return Fraction(a, b)


def functional_terms(model, text):
    return dict(parse_polynomial(text, model.variables).terms)


def twin_rate_model():
    """x1 and x2 both decay at rate 1 and feed x3 (rate 2); x4, x5 form a
    cyclic block with the irrational rates (-3 +- sqrt 5) / 2.  No noise."""
    return load_model(
        json.dumps(
            {
                "name": "twin-rate",
                "variables": ["x1", "x2", "x3", "x4", "x5"],
                "brownian_dim": 1,
                "drift": ["-x1", "-x2", "x1 + x2 - 2*x3", "-x4 + x5", "x4 - 2*x5"],
                "diffusion": [["0"]] * 5,
                "initial": {"kind": "point", "values": ["1", "2", "0", "1", "0"]},
            }
        )
    )


# ---------------------------------------------------------------------------
# Matrix exponential vs a 50-digit reference
# ---------------------------------------------------------------------------


class TestExpm:
    def test_zero_matrix(self):
        assert np.allclose(expm(np.zeros((3, 3))), np.eye(3), atol=1e-15)

    def test_diagonal(self):
        a = np.diag([-1.0, 2.0, 0.5])
        want = np.diag(np.exp([-1.0, 2.0, 0.5]))
        assert np.allclose(expm(a), want, rtol=1e-13, atol=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=0.1, max_value=30.0),
    )
    # scipy.linalg.expm is 2.1e-12 off here, and odesolve.expm 1.1e-14, so
    # the reference is mpmath at 50 digits, not scipy.
    @example(n=2, seed=512, scale=14.0)
    def test_matches_mpmath(self, n, seed, scale):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n)) * scale / n
        ours = expm(a)
        with mpmath.workdps(50):
            ref = np.array(mpmath.expm(mpmath.matrix(a.tolist())).tolist(), dtype=float)
        assert np.allclose(ours, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=10_000))
    def test_semigroup_property(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        one = expm(a)
        two = expm(2.0 * a)
        assert np.allclose(one @ one, two, rtol=1e-9, atol=1e-9 * np.abs(two).max())

    def test_large_norm_triggers_squaring(self):
        a = np.array([[0.0, 40.0], [-40.0, 0.0]])  # rotation generator
        ours = expm(a)
        want = np.array(
            [[math.cos(40.0), math.sin(40.0)], [-math.sin(40.0), math.cos(40.0)]]
        )
        assert np.allclose(ours, want, atol=1e-10)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            expm(np.zeros((2, 3)))

    @settings(max_examples=12, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=129, max_value=260),
        st.sampled_from([0.5, 2.5]),
    )
    def test_triangular_above_the_leaf_matches_the_exact_forms(self, seed, n, t):
        # Upper triangular and larger than a leaf, so the recursive products
        # and inverse run; six diagonal values, so eigenvalues repeat and the
        # exact forms carry polynomial factors; 5 to 8 squarings.
        assert n > odesolve._LEAF
        rng = random.Random(seed)
        rates = [F(-20), F(-3), F(-1), F(-1, 2), F(0), F(1, 4)]
        matrix = [[0] * n for _ in range(n)]
        for i in range(n):
            matrix[i][i] = rng.choice(rates)
            for j in rng.sample(range(i + 1, n), min(2, n - i - 1)):
                matrix[i][j] = rng.randint(-5, 5)
        m0 = [rng.randint(-2, 2) for _ in range(n)]
        constants = [rng.randint(-2, 2) for _ in range(n)]
        aug = np.zeros((n + 1, n + 1))
        aug[:n, :n] = np.array(matrix, dtype=float)
        aug[:n, n] = constants
        got = (expm(aug * t) @ np.array(m0 + [1.0]))[:n]
        want = exact_trajectory(synthetic_system(matrix, m0, constants=constants), [t])[0]
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_scaled_to_theta13(self):
        # Pade 13 meets double precision up to a 1-norm of 5.37 (Higham
        # 2005); scaling to 1/2 would square 11 times on ou-env (20,13).
        assert odesolve._squarings(5.371920351148152) == 0
        assert odesolve._squarings(5.38) == 1
        assert odesolve._squarings(541.0) == 7

    @pytest.mark.parametrize(
        "model, alpha, upper",
        [
            ("ou-env", (31, 7), True),  # triangular products above the leaf
            ("vehicles", (0, 0, 9, 0), True),
            ("consensus", (0, 40), False),  # cyclic, dim 41: dense products and a solve
        ],
    )
    def test_buffered_pade_is_bitwise_the_expression_form(self, model, alpha, upper):
        # Both sides run on the same BLAS, so no stored digest is needed.
        data, rows, cols, order = odesolve._augmented(build_closure(load_benchmark(model), Monomial(alpha)))
        aug = np.zeros((len(order),) * 2)
        aug[rows, cols] = data
        assert (not np.tril(aug, -1).any()) == upper
        matrix = aug * 0.5
        kept = matrix.copy()
        got, want = expm(matrix), expression_form_expm(matrix)
        assert np.array_equal(matrix, kept)  # the input is never written
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


# The expression form of expm, _squared and _tri_mul before their products
# went into preallocated arrays, kept as the reference for the bits.
def expression_form_tri_mul(x, y):
    n, m = len(x), len(x) // 2
    if n <= odesolve._LEAF:
        return x @ y
    out = np.zeros_like(x)
    out[:m, :m] = expression_form_tri_mul(x[:m, :m], y[:m, :m])
    out[m:, m:] = expression_form_tri_mul(x[m:, m:], y[m:, m:])
    out[:m, m:] = x[:m, :m] @ y[:m, m:] + x[:m, m:] @ y[m:, m:]
    return out


def expression_form_expm(matrix):
    a = np.array(matrix, dtype=float)
    squarings = odesolve._squarings(np.linalg.norm(a, 1))
    a = a / (2.0**squarings)
    upper = not np.tril(a, -1).any()
    mul = expression_form_tri_mul if upper and len(a) > odesolve._LEAF else np.matmul
    b = odesolve._PADE13
    eye = np.eye(a.shape[0])
    a2 = mul(a, a)
    a4 = mul(a2, a2)
    a6 = mul(a2, a4)
    u = mul(a, mul(a6, b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = mul(a6, b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    r = mul(odesolve._tri_inv(v - u), v + u) if mul is expression_form_tri_mul else np.linalg.solve(v - u, v + u)
    diagonal = np.diag(a) if upper else None
    mul = expression_form_tri_mul if diagonal is not None and len(r) > odesolve._LEAF else np.matmul
    diagonals = None if diagonal is None else np.exp(np.outer(2.0 ** np.arange(squarings + 1), diagonal))
    for k in range(squarings + 1):
        r = mul(r, r) if k else r
        if diagonals is not None:
            r.flat[:: len(r) + 1] = diagonals[k]
    return r


# ---------------------------------------------------------------------------
# Characteristic polynomial and rational root extraction
# ---------------------------------------------------------------------------


class TestCharPoly:
    def test_2x2_trace_determinant(self):
        a = [[F(1), F(2)], [F(3), F(4)]]
        # lambda^2 - 5 lambda - 2, ascending monic
        assert characteristic_polynomial(a) == [F(-2), F(-5), F(1)]

    def test_companion_reproduces_coefficients(self):
        # companion of p(x) = x^3 - 6x^2 + 11x - 6 = (x-1)(x-2)(x-3)
        coeffs = [F(-6), F(11), F(-6), F(1)]
        comp = [
            [F(0), F(0), F(6)],
            [F(1), F(0), F(-11)],
            [F(0), F(1), F(6)],
        ]
        assert characteristic_polynomial(comp) == coeffs

    def test_matches_numpy_on_random_integer_matrices(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            a_int = rng.integers(-4, 5, size=(n, n))
            exact = characteristic_polynomial(
                [[F(int(v)) for v in row] for row in a_int]
            )
            want = np.poly(a_int.astype(float))  # descending
            got = np.array([float(c) for c in reversed(exact)])
            assert np.allclose(got, want, atol=1e-8)

    def test_rational_entries_match_sympy(self):
        rng = random.Random(5)
        lam = sympy.Symbol("lam")
        for n in range(1, 6):
            a = [[F(rng.randint(-9, 9), rng.randint(1, 10**6)) for _ in range(n)] for _ in range(n)]
            want = sympy.Matrix(n, n, lambda i, j: sympy.Rational(a[i][j].numerator, a[i][j].denominator))
            coeffs = want.charpoly(lam).all_coeffs()
            assert characteristic_polynomial(a) == [F(int(c.p), int(c.q)) for c in reversed(coeffs)]

    def test_rational_roots_with_multiplicity(self):
        # (x + 2)^2 (x - 1/3) = x^3 + 11/3 x^2 + 8/3 x - 4/3
        coeffs = [F(-4, 3), F(8, 3), F(11, 3), F(1)]
        assert odesolve._rational_spectrum(companion(coeffs)) == [F(1, 3), F(-2), F(-2)]

    def test_irrational_roots_left_in_remainder(self):
        # x^2 + 7x + 8 has roots (-7 +- sqrt(17))/2
        coeffs = [F(8), F(7), F(1)]
        with pytest.raises(ClosedFormUnsupported) as info:
            odesolve._rational_spectrum(companion(coeffs))
        assert info.value.remaining_factor == tuple(coeffs)


def companion(coeffs):
    """The companion matrix of the monic polynomial with these ascending
    coefficients: ones below the diagonal, minus the coefficients in the
    last column."""
    k = len(coeffs) - 1
    return [[F(int(i == j + 1)) if j < k - 1 else -coeffs[i] for j in range(k)] for i in range(k)]


# ---------------------------------------------------------------------------
# Numeric evolution
# ---------------------------------------------------------------------------


class TestEvalNumeric:
    def test_sorted_times_required(self):
        ms = build_closure(load_benchmark("ou-env"), Monomial((0, 2)))
        with pytest.raises(ValueError):
            eval_numeric(ms, [1.0, 0.5])

    def test_negative_times_rejected(self):
        ms = build_closure(load_benchmark("ou-env"), Monomial((0, 2)))
        with pytest.raises(ValueError):
            eval_numeric(ms, [-1.0, 0.5])

    def test_initial_row_is_m0(self):
        ms = build_closure(load_benchmark("consensus"), Monomial((1, 1)))
        values = eval_numeric(ms, [0.0, 0.5])
        assert values[0].tolist() == [float(v) for v in ms.m0]

    def test_one_exponential_per_distinct_gap(self, monkeypatch):
        ms = build_closure(load_benchmark("ou-env"), Monomial((0, 2)))
        calls = expm_spy(monkeypatch)
        eval_numeric(ms, [0.5 * k for k in range(8)])
        assert len(calls) == 1
        calls.clear()
        eval_numeric(ms, [0.0])
        assert calls == []

    def test_repeated_time_gives_identical_rows(self):
        ms = build_closure(load_benchmark("ou-env"), Monomial((0, 2)))
        values = eval_numeric(ms, [1.0, 1.0])
        assert values[0].tolist() == values[1].tolist()

    def test_many_steps_match_the_exact_form(self):
        # 81 times at 0.05 spacing: the gaps differ in their last bits, so
        # every step is its own exponential; the error must not build up.
        ms = build_closure(load_benchmark("gene"), Monomial((0, 0, 0, 0, 2)))
        assert ms.dimension == 85
        form = solve_closed_form(ms)
        times = [0.05 * k for k in range(81)]
        for t, value in zip(times, eval_numeric(ms, times)[:, 0]):
            assert math.isclose(value, form.evaluate(t), rel_tol=1e-10)

    def test_scalar_linear_system(self):
        # single-moment system: m' = -2m + 1, m(0) = 0
        ms = build_closure(load_benchmark("ou-env"), Monomial((2, 0)))
        assert ms.dimension == 1
        times = [0.0, 0.3, 1.0, 2.5]
        values = eval_numeric(ms, times)
        want = [(1 - math.exp(-2 * t)) / 2 for t in times]
        assert np.allclose(values[:, 0], want, rtol=1e-12, atol=1e-14)


SPARSE_IS_CHEAPER = odesolve._sparse_is_cheaper
TAYLOR_STEP = odesolve._taylor_step
BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
NUMERIC_TIMES = [0.5 * k for k in range(8)]


def route_spy(monkeypatch, force=None):
    """Record whether each eval_numeric call takes the sparse route; with
    `force`, take that route instead of the one the cost rule picks."""
    chosen = []

    def choose(*args):
        chosen.append(SPARSE_IS_CHEAPER(*args) if force is None else force)
        return chosen[-1]

    monkeypatch.setattr(odesolve, "_sparse_is_cheaper", choose)
    return chosen


def exact_trajectory(ms, times):
    """solve_closed_form_vector at each time, summed in 40-digit decimals
    with one exponential per rate and time (ClosedForm.evaluate takes ten
    times as long).  The terms of the stiff ou-env closures cancel by up to
    8 digits, so 40 leave double precision to spare."""
    forms = solve_closed_form_vector(ms)
    rows = []
    with localcontext(Context(prec=40)):
        for t in times:
            x, exps, row = Decimal(t), {}, []
            for form in forms:
                total = Decimal(0)
                for lam, coeffs in form.terms:
                    if lam not in exps:
                        exps[lam] = (Decimal(lam.numerator) / lam.denominator * x).exp()
                    poly = Decimal(0)
                    for c in reversed(coeffs):
                        poly = poly * x + Decimal(c.numerator) / c.denominator
                    total += poly * exps[lam]
                row.append(float(total))
            rows.append(row)
    return np.array(rows)


def expm_spy(monkeypatch):
    """Record the size of the matrix of each odesolve.expm call."""
    calls = []

    def counting_expm(matrix):
        calls.append(len(matrix))
        return expm(matrix)

    monkeypatch.setattr(odesolve, "expm", counting_expm)
    return calls


def stepped_one_gap_at_a_time(ms, times):
    """eval_numeric's dense route with its own expm per gap, in SCC order,
    on the moments outside ms.zeros, which stay +0.0 as there; the constant,
    last in that order, stays 1 as there."""
    data, rows, cols, order = odesolve._augmented(ms)
    full = np.zeros((ms.dimension + 1,) * 2)
    full[rows, cols] = data
    live = [p for p, i in enumerate(order) if i not in ms.zeros]
    aug, order = full[np.ix_(live, live)], order[live]
    state = np.array([float(v) for v in ms.m0] + [1.0])[order]
    want = []
    for s, t in zip([0.0] + times, times):
        if t != s:
            state[:-1] = (expm(aug * (t - s)) @ state)[:-1]
        row = np.zeros(ms.dimension)
        row[order[:-1]] = state[:-1]
        want.append(row)
    return np.array(want), not np.tril(aug, -1).any()


class TestSparseRoute:
    TIMES = [0.0, 0.25, 0.5, 0.5, 1.0, 2.0, 3.5]

    @pytest.mark.parametrize(
        "model, alpha, dim", [("gene", (0, 0, 0, 1, 3), 697), ("vehicles", (3, 1, 1, 5), 469)]
    )
    def test_routes_agree_on_the_trajectory_scale(self, monkeypatch, model, alpha, dim):
        ms = build_closure(load_benchmark(model), Monomial(alpha))
        assert ms.dimension == dim
        chosen = route_spy(monkeypatch)
        sparse = eval_numeric(ms, self.TIMES)
        assert chosen == [True]
        route_spy(monkeypatch, force=False)
        dense = eval_numeric(ms, self.TIMES)
        scale = np.abs(dense).max()
        assert np.abs(sparse - dense).max() <= 1e-12 * scale
        # Point-wise the error is larger where a moment is small against the
        # scale: 2.4e-11 on gene, 5.9e-13 on vehicles.
        nonzero = dense != 0
        pointwise = np.abs(sparse - dense)[nonzero] / np.abs(dense[nonzero])
        assert pointwise.max() <= 1e-9

    def test_small_closures_keep_the_dense_route(self, monkeypatch):
        chosen = route_spy(monkeypatch)
        for model, alpha in [("gene", (0, 0, 0, 0, 2)), ("ou-env", (0, 13)), ("consensus", (1, 1))]:
            eval_numeric(build_closure(load_benchmark(model), Monomial(alpha)), self.TIMES)
        assert chosen == [False, False, False]

    def test_zero_gaps_leave_the_state_as_it_is(self, monkeypatch):
        ms = build_closure(load_benchmark("ou-env"), Monomial((0, 4)))
        route_spy(monkeypatch, force=True)
        values = eval_numeric(ms, [0.0, 1.0, 1.0])
        assert values[0].tolist() == [float(v) for v in ms.m0]
        assert values[1].tolist() == values[2].tolist()

    @pytest.mark.parametrize("force", [False, True], ids=["dense", "sparse"])
    def test_overflow_raises_instead_of_nan(self, monkeypatch, force):
        # m1' = m1 + 1, m2' = m1 + m2: both grow like e^t and overflow by t = 800.
        ms = synthetic_system([[1, 0], [1, 1]], [1, 1], constants=[1, 0])
        route_spy(monkeypatch, force=force)
        with pytest.raises(OdeSolveError, match=r"overflowed at t=800.0 \(matrix norm 2\)"):
            eval_numeric(ms, [1.0, 800.0])

    @pytest.mark.parametrize("force", [False, True], ids=["dense", "sparse"])
    @pytest.mark.parametrize("times", [[math.nan], [0.5, math.inf], [math.inf]])
    def test_non_finite_times_rejected(self, monkeypatch, force, times):
        ms = build_closure(load_benchmark("ou-env"), Monomial((0, 4)))
        route_spy(monkeypatch, force=force)
        with pytest.raises(ValueError, match="times must be finite and non-negative"):
            eval_numeric(ms, times)

    @pytest.mark.parametrize(
        "model, alpha, dim, sparse",
        [
            ("vehicles", (1, 0, 4, 2), 294, True),
            ("vehicles", (2, 0, 1, 6), 383, True),
            ("gene", (0, 0, 0, 1, 3), 697, True),
            ("ou-env", (31, 7), 295, False),
            ("ou-env", (20, 13), 465, False),
        ],
    )
    def test_route_follows_the_measured_cost(self, monkeypatch, model, alpha, dim, sparse):
        # At the 8 benchmark times, with one BLAS thread: vehicles (1,0,4,2)
        # 0.0068 s sparse against 0.011 s dense, (2,0,1,6) 0.010 s against
        # 0.021 s, gene 0.0078 s against 0.090 s; ou-env (31,7) 0.012 s dense
        # against 0.048 s, (20,13) 0.041 s against 0.057 s.
        ms = build_closure(load_benchmark(model), Monomial(alpha))
        assert ms.dimension == dim
        chosen = route_spy(monkeypatch)
        eval_numeric(ms, NUMERIC_TIMES)
        assert chosen == [sparse]

    @pytest.mark.parametrize("model, alpha", [("gene", (0, 0, 0, 1, 3)), ("vehicles", (3, 1, 1, 5))])
    def test_a_run_of_equal_gaps_equals_single_steps(self, monkeypatch, model, alpha):
        # The run of 7 gaps of 0.5 takes 7 Taylor steps of one degree; each
        # is the step of a run of one from the state before it (a float
        # converts to a Fraction and back exactly).
        ms = build_closure(load_benchmark(model), Monomial(alpha))
        chosen = route_spy(monkeypatch)
        degrees = []

        def step(aug, state, gap, mu, m, s):
            degrees.append((gap, m, s))
            return TAYLOR_STEP(aug, state, gap, mu, m, s)

        monkeypatch.setattr(odesolve, "_taylor_step", step)
        run = eval_numeric(ms, NUMERIC_TIMES)
        assert chosen == [True] and len(degrees) == 7
        for k in range(1, len(NUMERIC_TIMES)):
            start = dataclasses.replace(ms, m0=tuple(map(Fraction, run[k - 1])))
            assert eval_numeric(start, [0.5])[0].tolist() == run[k].tolist()
        assert chosen == [True] * len(NUMERIC_TIMES) and len(degrees) == 14 and len(set(degrees)) == 1

    @pytest.mark.parametrize("force", [False, True], ids=["dense", "sparse"])
    def test_runs_and_a_repeated_time_match_stepping_one_time_at_a_time(self, monkeypatch, force):
        # Distinct gaps 0.5, 0.5, 0.5, 0.2 and 0.3 (to rounding): one run of
        # three and two single gaps.
        times = [0.0, 0.5, 1.0, 1.0, 1.5, 1.7, 2.0]
        ms = build_closure(load_benchmark("vehicles"), Monomial((3, 1, 1, 5)))
        route_spy(monkeypatch, force=force)
        values = eval_numeric(ms, times)
        # The reference steps in the SCC order the dense route takes, where
        # aug is upper triangular, and is put back in index order at the end.
        want, upper = stepped_one_gap_at_a_time(ms, times)
        assert upper
        assert values[2].tolist() == values[3].tolist()
        if force:
            assert np.abs(values - want).max() <= 1e-12 * np.abs(want).max()
        else:
            assert values.tolist() == want.tolist()

    @pytest.mark.parametrize("force", [False, True], ids=["dense", "sparse"])
    @pytest.mark.parametrize("gap, first", [(200.0, 800.0), (30.0, 720.0)], ids=["interval", "per-gap"])
    def test_overflow_inside_a_run_names_the_first_non_finite_time(self, monkeypatch, force, gap, first):
        # m2 = t e^t first overflows at t = 800 and t = 720 of these grids,
        # inside a run of 35 equal gaps.
        ms = synthetic_system([[1, 0], [1, 1]], [1, 1], constants=[1, 0])
        route_spy(monkeypatch, force=force)
        with pytest.raises(OdeSolveError, match=rf"overflowed at t={first} \(matrix norm 2\)"):
            eval_numeric(ms, [gap * k for k in range(1, 36)])

    @pytest.mark.parametrize(
        "alpha, norm, dim", [((31, 7), 1036, 295), ((38, 6), 1276, 295), ((24, 12), 1177, 468)]
    )
    def test_dense_route_is_exact_to_the_trajectory_scale_on_stiff_closures(self, monkeypatch, alpha, norm, dim):
        # Off the exact form, relative to each moment's largest value over
        # the times: 1.1e-15, 1.2e-15 and 9.8e-16 with the triangular Pade
        # 13 and its exact diagonal; 3.6e-13, 2.9e-13 and 7.6e-12 with dense
        # products.  scipy.linalg.expm is 2.0e-6 off on ou-env (20,13).
        ms = build_closure(load_benchmark("ou-env"), Monomial(alpha))
        assert ms.dimension == dim
        data, _, cols, _ = odesolve._augmented(ms)
        assert np.bincount(cols, np.abs(data)).max() == norm
        chosen = route_spy(monkeypatch)
        values = eval_numeric(ms, NUMERIC_TIMES)
        assert chosen == [False]
        exact = exact_trajectory(ms, NUMERIC_TIMES)
        # A moment that is identically zero (scale 0) must come out zero.
        assert (np.abs(values - exact).max(axis=0) <= 1e-14 * np.abs(exact).max(axis=0)).all()

    @pytest.mark.parametrize("alpha, dim", [((31, 7), 295), ((38, 6), 295), ((24, 12), 468)])
    def test_sparse_route_error_on_the_stiff_closures(self, monkeypatch, alpha, dim):
        # Forced onto the Taylor route, with steps sized by alpha_p, these
        # closures are 7.9e-15, 1.8e-14 and 1.1e-14 off the exact form,
        # relative to each moment's largest value (7.2e-15, 3.7e-14 and
        # 1.9e-14 with steps sized by ||aug - mu I||_1).  A route rule that
        # sends them here gives up the dense route's 1e-14 for this.
        ms = build_closure(load_benchmark("ou-env"), Monomial(alpha))
        assert ms.dimension == dim
        route_spy(monkeypatch, force=True)
        values = eval_numeric(ms, NUMERIC_TIMES)
        exact = exact_trajectory(ms, NUMERIC_TIMES)
        assert (np.abs(values - exact).max(axis=0) <= 2.5e-14 * np.abs(exact).max(axis=0)).all()

    @pytest.mark.parametrize("force", [False, True], ids=["dense", "sparse"])
    def test_structurally_zero_moments_are_left_out(self, monkeypatch, force):
        # x1(0) = 0 and x1 has no constant drift: the moments odd in x1 stay
        # zero, and neither route steps them.
        ms = build_closure(load_benchmark("ou-env"), Monomial((31, 7)))
        zeros = sorted(ms.zeros)
        assert len(zeros) == 23 and all(ms.indices[i].exponents[0] % 2 for i in zeros)
        assert all(not odesolve._solve_forms(ms)[i][1] for i in zeros)
        sizes, steps = expm_spy(monkeypatch), []
        monkeypatch.setattr(odesolve, "_taylor_step", lambda *args: steps.append(len(args[1])) or TAYLOR_STEP(*args))
        route_spy(monkeypatch, force=force)
        values = eval_numeric(ms, NUMERIC_TIMES)
        assert set(sizes + steps) == {ms.dimension + 1 - len(zeros)}
        assert (values[:, zeros] == 0).all() and not np.signbit(values[:, zeros]).any()

    def test_every_moment_zero_takes_no_step(self, monkeypatch):
        ms = build_closure(load_benchmark("ou-env"), Monomial((19, 0)))
        assert len(ms.zeros) == ms.dimension == 10
        sizes = expm_spy(monkeypatch)
        values = eval_numeric(ms, NUMERIC_TIMES)
        assert sizes == [] and values.shape == (8, 10) and not values.any()

    @pytest.mark.parametrize("poison", [None, math.nan, math.inf, -math.inf, 1e300])
    def test_the_cut_off_bound_keeps_every_break(self, poison):
        # The loop that takes max|state| after every term, NaN and inf included.
        def plain(aug, state, gap, mu, m, s):
            for _ in range(s):
                term, c1 = state, np.abs(state).max()
                for j in range(1, m + 1):
                    term = aug @ term * (gap / (s * j))
                    c2 = np.abs(term).max()
                    state = state + term
                    if c1 + c2 <= 2.0**-53 * np.abs(state).max():
                        break
                    c1 = c2
                state = np.exp(mu * gap / s) * state
            return state

        from scipy.sparse import csr_array

        ms = build_closure(load_benchmark("vehicles"), Monomial((3, 1, 1, 5)))
        data, rows, cols, order = odesolve._augmented(ms)
        aug = csr_array((data, (rows, cols)), shape=(len(order),) * 2)
        state = np.array([float(v) for v in ms.m0] + [1.0])[order]
        if poison is not None:
            state[len(state) // 2] = poison
        with np.errstate(over="ignore", invalid="ignore"):
            for gap, mu, m, s in [(0.5, -0.3, 40, 3), (2.0, 0.0, 55, 10), (1e-3, -1.0, 10, 1)]:
                want, got = plain(aug, state, gap, mu, m, s), TAYLOR_STEP(aug, state, gap, mu, m, s)
                assert np.array_equal(got, want, equal_nan=True)
                assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_only_scipy_sparse_is_ever_imported(self):
        # In a fresh process: neither the import nor a small closed-form
        # moment loads any scipy module, at the Table 1 sizes 85, 115 and 120
        # neither; a large sparse closure loads scipy.sparse, but never
        # scipy.sparse.linalg or scipy.linalg.
        table1 = ["--times", "0,0.25,0.5,1,2,4"]  # the times of the exact benchmark
        rows = [("ou-env", "0,2", []), ("gene", "0,0,0,0,2", table1), ("gene", "1,0,0,0,2", table1), ("ou-env", "0,10", table1)]
        code = (
            "import sys, contextlib, io\n"
            "import sdemoments\n"
            "from sdemoments.cli import main\n"
            "def loaded():  # any scipy module, scipy.sparse, scipy.linalg or scipy.sparse.linalg\n"
            "    names = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "    linalg = any(m.startswith(('scipy.linalg', 'scipy.sparse.linalg')) for m in names)\n"
            "    return [bool(names), 'scipy.sparse' in names, linalg]\n"
            "seen = [loaded()]\n"
            f"for model, alpha, times in {rows!r}:\n"
            f"    argv = ['moment', {str(BENCHMARKS)!r} + f'/{{model}}.json', '--alpha', alpha]\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv + ['--closed-form'] + times) == 0\n"
            "    seen.append(loaded())\n"
            "ms = sdemoments.build_closure(sdemoments.load_benchmark('vehicles'), sdemoments.Monomial((3, 1, 1, 5)))\n"
            "sdemoments.eval_numeric(ms, [0.5, 1.0])\n"
            "seen.append(loaded())\n"
            "print(seen)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == str([[False, False, False]] * 5 + [[True, True, False]])


DYADIC_TIMES = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0]  # the times of the exact benchmark


class TestDyadicGaps:
    """A gap 2^j times the gap of the run before it, where expm would square
    at least j times, takes that run's step squared j times."""

    @pytest.mark.parametrize(
        "model, alpha, upper, calls",
        [
            ("gene", (1, 0, 0, 0, 2), True, 1),  # the dense leaf products
            ("ou-env", (31, 7), True, 1),  # triangular products above the leaf
            ("consensus", (0, 8), False, 1),  # a cyclic closure: full products, no diagonal
            ("oscillator", (0, 1, 2), False, 3),  # ||aug||_1 1.2: gaps 0.25 and 0.5 square 0 times
        ],
    )
    def test_equals_one_expm_per_gap(self, monkeypatch, model, alpha, upper, calls):
        ms = build_closure(load_benchmark(model), Monomial(alpha))
        want, triangular = stepped_one_gap_at_a_time(ms, DYADIC_TIMES)
        assert triangular == upper
        sizes = expm_spy(monkeypatch)
        chosen = route_spy(monkeypatch)
        values = eval_numeric(ms, DYADIC_TIMES)
        assert chosen == [False] and len(sizes) == calls
        assert values.tolist() == want.tolist()

    def test_a_gap_that_is_not_dyadic_takes_its_own_expm(self, monkeypatch):
        # The last gap is 2 + 2^-50, four units in the last place above 2.
        ms = build_closure(load_benchmark("gene"), Monomial((1, 0, 0, 0, 2)))
        times = DYADIC_TIMES[:-1] + [4.000000000000001]
        assert times[-1] - times[-2] == 2.000000000000001
        want, _ = stepped_one_gap_at_a_time(ms, times)
        sizes = expm_spy(monkeypatch)
        values = eval_numeric(ms, times)
        assert sizes == [ms.dimension + 1] * 2
        assert values.tolist() == want.tolist()

    @pytest.mark.parametrize("alpha", [(31, 7), (38, 6)])
    def test_whole_state_is_exact_to_the_trajectory_scale(self, monkeypatch, alpha):
        ms = build_closure(load_benchmark("ou-env"), Monomial(alpha))
        sizes = expm_spy(monkeypatch)
        chosen = route_spy(monkeypatch)
        values = eval_numeric(ms, DYADIC_TIMES)
        assert chosen == [False] and len(sizes) == 1
        exact = exact_trajectory(ms, DYADIC_TIMES)
        assert (np.abs(values - exact).max(axis=0) <= 1e-14 * np.abs(exact).max(axis=0)).all()

    def test_overflow_names_the_first_non_finite_time(self, monkeypatch):
        # Times 1, 2, 4, ..., 1024: gaps 1 and 2 take an expm each (||aug||_1
        # is 2), and 4 to 512 square the step before; m2 = t e^t first
        # overflows at t = 1024.
        ms = synthetic_system([[1, 0], [1, 1]], [1, 1], constants=[1, 0])
        sizes = expm_spy(monkeypatch)
        route_spy(monkeypatch, force=False)
        with pytest.raises(OdeSolveError, match=r"overflowed at t=1024.0 \(matrix norm 2\)"):
            eval_numeric(ms, [2.0**k for k in range(11)])
        assert len(sizes) == 2

    @pytest.mark.parametrize(
        "earlier, gap, norm, j",
        [
            (0.0, 0.25, 40.0, 0),  # the first run
            (0.25, 0.5, 40.0, 1),
            (0.25, 2.0, 40.0, 3),
            (0.5, 0.25, 40.0, 0),  # a smaller gap
            (0.1, 0.3 - 0.1, 400.0, 0),  # 0.19999999999999998
            (0.1, 0.2, 400.0, 1),
            (0.25, 0.5, 10.0, 0),  # expm(aug * 0.5) squares 0 times
            (0.25, 0.5, 12.0, 1),  # and once: 12 * 0.25 > theta13 / 2
            (0.25, 1.0, 12.0, 2),
            (5e-324, 1e300, 1e300, 0),  # a ratio above the float range
        ],
    )
    def test_doublings(self, earlier, gap, norm, j):
        assert odesolve._doublings(earlier, gap, norm) == j

    def test_route_rule_charges_a_reused_step_its_squarings(self):
        # ||aug||_1 = 40 at the exact benchmark's times: the sparse route is
        # estimated at 210 units of 6e5; dense at 9 + 1 + 1 + 1 units of
        # n^3 with the reused steps, 9 + 10 + 11 + 12 without.  n = 180 lies
        # between the two.
        runs = [(0.25, 2), (0.5, 1), (1.0, 1), (2.0, 1)]
        assert not SPARSE_IS_CHEAPER(180, 40.0, runs)
        assert SPARSE_IS_CHEAPER(180, 40.0, runs[:-1] + [(2.0000000000000004, 1)])


# ---------------------------------------------------------------------------
# Exact closed forms
# ---------------------------------------------------------------------------

# E[x2^2] for the 2-d environment-driven OU model, derived by hand and frozen:
# 1/3 + (-11/8 - t/4) e^{-2t} + 2/3 e^{-3t} + (3/8 + t + 3t^2/4) e^{-4t}
GOLDEN_TERMS = {
    F(0): (F(1, 3),),
    F(-2): (F(-11, 8), F(-1, 4)),
    F(-3): (F(2, 3),),
    F(-4): (F(3, 8), F(1), F(3, 4)),
}
GOLDEN_TEXT = (
    "1/3 + (-11/8 - 1/4*t)*exp(-2*t) + 2/3*exp(-3*t) "
    "+ (3/8 + t + 3/4*t^2)*exp(-4*t)"
)


class TestExactClosedForm:
    def build(self):
        return build_closure(load_benchmark("ou-env"), Monomial((0, 2)))

    def test_golden_terms_exact(self):
        cf = solve_closed_form(self.build())
        assert cf.scalar_kind == "exact-rational"
        assert {lam: coeffs for lam, coeffs in cf.terms} == GOLDEN_TERMS

    def test_canonical_string(self):
        assert str(solve_closed_form(self.build())) == GOLDEN_TEXT

    def test_at_zero_matches_initial(self):
        ms = self.build()
        forms = solve_closed_form_vector(ms)
        for form, m0 in zip(forms, ms.m0):
            assert at_zero(form) == m0

    def test_residual_identically_zero(self):
        # d/dt m = A m + c must hold term-for-term in exact arithmetic
        ms = self.build()
        assert_exact_solution(ms, solve_closed_form_vector(ms))

    def test_matches_numeric_evolution(self):
        ms = self.build()
        times = [0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0]
        numeric = eval_numeric(ms, times)
        cf = solve_closed_form(ms)
        for t, want in zip(times, numeric[:, 0]):
            assert math.isclose(cf.evaluate(t), want, rel_tol=1e-8, abs_tol=1e-10)

    def test_steady_state(self):
        cf = solve_closed_form(self.build())
        assert math.isclose(cf.evaluate(50.0), 1 / 3, rel_tol=1e-12)

    def test_component_out_of_range(self):
        with pytest.raises(IndexError):
            solve_closed_form(self.build(), component=99)

    def test_vector_solution_all_rows_verify_initially(self):
        ms = build_closure(load_benchmark("vehicles"), Monomial((0, 0, 2, 0)))
        forms = solve_closed_form_vector(ms)
        assert len(forms) == ms.dimension
        for form, m0 in zip(forms, ms.m0):
            assert at_zero(form) == m0

    def test_vehicles_residual_identically_zero(self):
        ms = build_closure(load_benchmark("vehicles"), Monomial((0, 0, 2, 0)))
        assert_exact_solution(ms, solve_closed_form_vector(ms))


# ---------------------------------------------------------------------------
# The two case studies
# ---------------------------------------------------------------------------


class TestConsensusStudy:
    def functional(self):
        model = load_benchmark("consensus")
        fm = linear_functional_moment(model, functional_terms(model, "(x1 - x2)^2"))
        assert isinstance(fm, FunctionalMoment)
        return fm

    def test_exact_path_reports_irrational_factor(self):
        with pytest.raises(ClosedFormUnsupported) as info:
            self.functional().closed_form_exact()
        # lambda^2 + 7 lambda + 8, ascending
        assert info.value.remaining_factor == (F(8), F(7), F(1))

    def test_float_form_matches_radical_expression(self):
        cf = self.functional().closed_form_float()
        s17 = math.sqrt(17.0)

        def radical(t):
            return (
                (17 - 3 * s17) * math.exp((s17 - 7) / 2 * t)
                + (17 + 3 * s17) * math.exp(-(s17 + 7) / 2 * t)
            ) / 34

        for t in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0):
            assert abs(cf.evaluate(t) - radical(t)) < 1e-9

    def test_float_form_has_two_modes(self):
        cf = self.functional().closed_form_float()
        assert cf.scalar_kind == "float"
        assert len(cf.terms) == 2

    def test_float_spectrum_is_decomposed_once(self, monkeypatch):
        fm = self.functional()
        assert sum(1 for w in fm.weights if w) == 3
        per_component = {}  # rate -> the weighted sum of its coefficients
        for component, weight in enumerate(fm.weights):
            if weight:
                for lam, (c,) in solve_closed_form_float(fm.system, component).terms:
                    per_component[lam] = per_component.get(lam, 0) + float(weight) * c
        eig = np.linalg.eig
        calls = []

        def counting_eig(matrix):
            calls.append(matrix)
            return eig(matrix)

        monkeypatch.setattr(np.linalg, "eig", counting_eig)
        form, kind, _ = best_closed_form(fm)
        assert kind == "float-spectrum"
        assert len(calls) == 1
        # The per-component sum keeps the cancellation residue of the modes
        # the functional does not see; drop it at 1e-12 of the largest.  The
        # one dot product per mode rounds differently from the sum, in the
        # last bits only: the printed forms agree.
        scale = max(abs(c) for c in per_component.values())
        kept = ClosedForm.build({lam: [c] for lam, c in per_component.items() if abs(c) > 1e-12 * scale}, "float")
        assert [lam for lam, _ in form.terms] == [lam for lam, _ in kept.terms]
        for (_, (got,)), (_, (want,)) in zip(form.terms, kept.terms):
            assert abs(got - want) <= 1e-15 * scale
        assert str(form) == str(kept)

    def test_closed_form_falls_back_to_float(self):
        cf, kind, note = best_closed_form(self.functional())
        assert cf.scalar_kind == "float"
        assert kind == "float-spectrum"
        assert "not rational" in note

    def test_tail_bounds_below_exponential(self):
        cf, _, _ = best_closed_form(self.functional())
        for t in (10.0, 12.0, 15.0):
            bound = markov_tail_bound(cf.evaluate(t), 0.1, 2)
            assert bound <= math.exp(-t)


class TestVehiclesStudy:
    def functional(self):
        model = load_benchmark("vehicles")
        fm = linear_functional_moment(model, functional_terms(model, "p1 - p2"))
        assert isinstance(fm, FunctionalMoment)
        return fm

    def test_exact_closed_form(self):
        # Derived by hand: E[v1] = 1 - e^{-t} and Var[v1] = (1 - e^{-2t})/2, so
        # E[(v1 - 1)^2] = 1/2 + e^{-2t}/2 and the follower drift
        # -v2 + (v1 - 1)^2 + 1/2 gives E[v2]' = -E[v2] + 1 + e^{-2t}/2, hence
        # E[v2] = 1 - e^{-t}/2 - e^{-2t}/2.  The gap obeys
        # gap' = E[v1] - E[v2] = (e^{-2t} - e^{-t})/2 with gap(0) = 1, so
        # E[p1 - p2] = 3/4 + e^{-t}/2 - e^{-2t}/4
        cf = self.functional().closed_form_exact()
        assert {lam: coeffs for lam, coeffs in cf.terms} == {
            F(0): (F(3, 4),),
            F(-1): (F(1, 2),),
            F(-2): (F(-1, 4),),
        }

    def test_value_at_zero_is_initial_gap(self):
        cf = self.functional().closed_form_exact()
        assert at_zero(cf) == 1  # p1(0) - p2(0) = 1 - 0

    def test_matches_numeric(self):
        fm = self.functional()
        cf = fm.closed_form_exact()
        times = [0.0, 0.5, 1.0, 2.0, 5.0, 10.0]
        numeric = fm.eval_numeric(times)
        for t, want in zip(times, numeric):
            assert math.isclose(cf.evaluate(t), want, rel_tol=1e-8, abs_tol=1e-10)

    def test_long_run_growth_is_linear(self):
        # the long-run linear part has slope 0: once the transients die out
        # the follower keeps pace and the mean gap settles at 3/4
        cf = self.functional().closed_form_exact()
        assert dict(cf.terms)[F(0)] == (F(3, 4),)
        assert math.isclose(cf.evaluate(60.0) - cf.evaluate(40.0), 0.0, abs_tol=1e-12)
        assert math.isclose(cf.evaluate(60.0), 0.75, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# Float-spectrum path
# ---------------------------------------------------------------------------


def synthetic_system(matrix, m0, dim_vars=1, constants=None):
    n = len(matrix)
    indices = tuple(Monomial((k + 1,) + (0,) * (dim_vars - 1)) for k in range(n))
    return MomentSystem(
        model_name="synthetic",
        indices=indices,
        rows=tuple(tuple((j, F(v)) for j, v in enumerate(row) if v) for row in matrix),
        vector_c=tuple(F(v) for v in constants or [0] * n),
        m0=tuple(F(v) for v in m0),
        seed_count=1,
    )


def at_zero(form):
    """Exact value at t = 0: the sum of the degree-0 coefficients."""
    return sum(coeffs[0] for _, coeffs in form.terms)


def assert_exact_solution(ms, forms):
    """F_r(0) = m0_r, and every coefficient of t^d e^{lam t} in
    F_r' - sum_s a_rs F_s - c_r is zero, for every row r.  Plain Fraction
    dict arithmetic over the forms' terms and the sparse rows, so that the
    check shares nothing with the solver."""
    assert len(forms) == ms.dimension
    for r, (form, m0) in enumerate(zip(forms, ms.m0)):
        assert at_zero(form) == m0, f"row {r} initial value"
    coeffs = [{(lam, d): c for lam, cs in form.terms for d, c in enumerate(cs)} for form in forms]
    for r, row in enumerate(ms.rows):
        residual = defaultdict(Fraction)
        for (lam, d), c in coeffs[r].items():  # (c t^d e^{lam t})' = (lam c t^d + d c t^(d-1)) e^{lam t}
            residual[lam, d] += lam * c
            if d:
                residual[lam, d - 1] += d * c
        residual[F(0), 0] -= ms.vector_c[r]
        for s, a in row:
            for key, c in coeffs[s].items():
                residual[key] -= a * c
        assert not any(residual.values()), f"row {r} residual {({k: v for k, v in residual.items() if v})}"


class TestResidualCheck:
    """assert_exact_solution must reject forms that are wrong by a hair: a check
    that accepted everything would pass every residual test in this file."""

    EPS = F(1, 10**9)

    @pytest.fixture(scope="class")
    def solved(self):
        ms = build_closure(load_benchmark("vehicles"), Monomial((0, 0, 2, 0)))
        forms = solve_closed_form_vector(ms)
        assert_exact_solution(ms, forms)
        return ms, forms

    @staticmethod
    def planted(forms, r, term_map):
        return forms[:r] + [ClosedForm.build(term_map, "exact-rational")] + forms[r + 1 :]

    def test_every_coefficient_off_by_1e_9_is_rejected(self, solved):
        ms, forms = solved
        for r, form in enumerate(forms):
            for lam, coeffs in form.terms:
                for d in range(len(coeffs)):
                    terms = dict(form.terms)
                    terms[lam] = coeffs[:d] + (coeffs[d] + self.EPS,) + coeffs[d + 1 :]
                    # t^0 moves F_r(0); a higher power leaves it and only the ODE sees it
                    with pytest.raises(AssertionError, match=f"row {r} initial value" if d == 0 else "residual"):
                        assert_exact_solution(ms, self.planted(forms, r, terms))

    def test_every_rate_off_by_1e_9_is_rejected(self, solved):
        ms, forms = solved
        for r, form in enumerate(forms):
            for lam, coeffs in form.terms:
                terms = dict(form.terms)
                terms[lam + self.EPS] = terms.pop(lam)
                with pytest.raises(AssertionError, match="residual"):
                    assert_exact_solution(ms, self.planted(forms, r, terms))

    def test_every_wrong_start_is_rejected(self, solved):
        ms, forms = solved
        for r in range(ms.dimension):
            m0 = ms.m0[:r] + (ms.m0[r] + self.EPS,) + ms.m0[r + 1 :]
            with pytest.raises(AssertionError, match=f"row {r} initial value"):
                assert_exact_solution(dataclasses.replace(ms, m0=m0), forms)


def assert_no_rational_root(factor):
    """A remaining factor (ascending coefficients) is monic, of degree at least
    2, and has no rational root by sympy as an independent oracle."""
    assert len(factor) > 2 and factor[-1] == 1
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(factor)]
    assert sympy.Poly(coeffs, sympy.Symbol("x")).ground_roots() == {}


def assert_matches_sympy(ms, forms):
    """Each form equals the matching row of exp(aug t) [m0; 1], written out
    from sympy's Jordan decomposition aug = P J P^-1."""
    t = sympy.Symbol("t")
    size = ms.dimension + 1
    aug = sympy.zeros(size, size)
    for i, row in enumerate(ms.rows):
        for j, coeff in row:
            aug[i, j] = sympy.Rational(coeff.numerator, coeff.denominator)
        aug[i, size - 1] = sympy.Rational(ms.vector_c[i].numerator, ms.vector_c[i].denominator)
    v0 = sympy.Matrix([sympy.Rational(v.numerator, v.denominator) for v in ms.m0] + [1])
    p, jordan = aug.jordan_form()
    w = p.LUsolve(v0)
    y = []
    for i in range(size):
        # exp(J t) row i: t^k / k! e^{lambda t} along i's Jordan chain
        entry, j = 0, i
        while True:
            entry += t ** (j - i) / sympy.factorial(j - i) * sympy.exp(jordan[i, i] * t) * w[j]
            if j + 1 == size or jordan[j, j + 1] != 1:
                break
            j += 1
        y.append(entry)
    solution = p * sympy.Matrix(y)
    for r, form in enumerate(forms):
        expr = sum(
            sum(sympy.Rational(c.numerator, c.denominator) * t**d for d, c in enumerate(coeffs))
            * sympy.exp(sympy.Rational(lam.numerator, lam.denominator) * t)
            for lam, coeffs in form.terms
        )
        assert sympy.expand(solution[r] - expr) == 0, f"row {r}: {form}"


# Nonzero rationals p/q with q up to 10^6.
HARD = st.builds(
    Fraction,
    st.integers(min_value=-10**6, max_value=10**6).filter(bool),
    st.integers(min_value=1, max_value=10**6),
)


def assert_lowest_terms(ms, forms):
    """Every printed rate and coefficient is a Fraction in lowest terms, rates
    distinct and descending; each internal form is one positive denominator
    over int numerators with no common factor, with no empty term and no
    trailing zero, and each rate in lowest terms."""
    for form in forms:
        rates = [lam for lam, _ in form.terms]
        assert rates == sorted(set(rates), reverse=True)
        for lam, coeffs in form.terms:
            for c in (lam, *coeffs):
                assert type(c) is Fraction
                assert c.denominator > 0 and math.gcd(c.numerator, c.denominator) == 1
            assert coeffs[-1] != 0
    for den, terms in odesolve._solve_forms(ms):
        assert den > 0 and math.gcd(den, *(c for nums in terms.values() for c in nums)) == 1
        for (mu_num, mu_den), nums in terms.items():
            assert mu_den > 0 and math.gcd(mu_num, mu_den) == 1
            assert nums and nums[-1] != 0


def block_sizes(ms):
    deps = [[j for j, _ in row if j != i] for i, row in enumerate(ms.rows)]
    return sorted(len(block) for block in _tarjan_sccs(ms.dimension, deps.__getitem__))


# ---------------------------------------------------------------------------
# The SCC-block exact solver, checked by its residual and against sympy
# ---------------------------------------------------------------------------


# P diag(-1/1000003, -1/1000033, -2) P^-1 with P = [[1, 1, 0], [0, 1, 1], [1, 0, 1]],
# whose inverse is half of [[1, -1, 1], [1, 1, -1], [-1, 1, 1]].
FOUND_BLOCK = [
    [
        sum(p * lam * q for p, lam, q in zip(row, (F(-1, 1000003), F(-1, 1000033), F(-2)), col)) / 2
        for col in zip((1, -1, 1), (1, 1, -1), (-1, 1, 1))
    ]
    for row in ((1, 1, 0), (0, 1, 1), (1, 0, 1))
]


# s x^2 - s (2c + 1) x + s c (c + 1) + e with 0 < e <= s / 4: both roots,
# c + 1/2 +- sqrt(1/4 - e / s), lie in (c, c + 1).
CLOSE_PAIRS = st.builds(
    lambda c, s, e: [s * c * (c + 1) + e, -s * (2 * c + 1), s],
    st.integers(-5, 5),
    st.integers(80, 120),
    st.integers(1, 20),
)


def conjugated(matrix, seed):
    """U matrix U^-1 for a unimodular integer U: 2k random steps of row
    i += w row j, then column j -= w column i, with w = +-1."""
    rng = random.Random(seed)
    k = len(matrix)
    matrix = [[F(x) for x in row] for row in matrix]
    for _ in range(2 * k):
        i, j = rng.sample(range(k), 2)
        w = rng.choice([-1, 1])
        for c in range(k):
            matrix[i][c] += w * matrix[j][c]
        for r in range(k):
            matrix[r][j] -= w * matrix[r][i]
    return matrix


def diagonal(*values):
    return [[v if i == j else F(0) for j in range(len(values))] for i, v in enumerate(values)]


@st.composite
def rational_spectrum_blocks(draw):
    """A block with a rational spectrum: up to three eigenvalues p/q, q up to
    10^6, each of multiplicity up to 3, on the diagonal of an upper
    triangular matrix with small integers above it (so Jordan chains
    occur), conjugated by a unimodular integer matrix and then scaled by a
    diagonal of entries with denominators up to 10^6."""
    values = draw(st.lists(st.one_of(st.just(F(0)), HARD), min_size=1, max_size=3, unique=True))
    diagonal = [v for v in values for _ in range(draw(st.integers(min_value=1, max_value=3)))]
    k = len(diagonal)
    matrix = [
        [diagonal[i] if i == j else F(draw(st.integers(-2, 2))) if j > i else F(0) for j in range(k)]
        for i in range(k)
    ]
    for _ in range(2 * k if k > 1 else 0):
        i, j = draw(st.permutations(range(k)))[:2]
        m = draw(st.sampled_from([-1, 1]))
        for c in range(k):
            matrix[i][c] += m * matrix[j][c]
        for r in range(k):
            matrix[r][j] -= m * matrix[r][i]
    scale = [draw(HARD) for _ in range(k)]
    return [[matrix[i][j] * scale[i] / scale[j] for j in range(k)] for i in range(k)]


class TestTriangularPath:
    @pytest.mark.parametrize(
        "name, exponents",
        [
            ("ou-env", (0, 2)),
            ("ou-env", (0, 3)),
            ("ou-env", (0, 4)),
            ("ou-env", (0, 5)),
            ("gene", (1, 0, 0, 0, 1)),
            ("vehicles", (0, 0, 2, 0)),
        ],
    )
    def test_matches_dense_path_on_table_rows(self, name, exponents):
        ms = build_closure(load_benchmark(name), Monomial(exponents))
        forms = solve_closed_form_vector(ms)
        assert_exact_solution(ms, forms)
        if ms.dimension <= 15:
            assert_matches_sympy(ms, forms)

    def test_matches_dense_path_on_functional_closure(self):
        model = load_benchmark("vehicles")
        fm = linear_functional_moment(model, functional_terms(model, "(p1 - p2)^2"))
        assert_exact_solution(fm.system, solve_closed_form_vector(fm.system))

    @pytest.mark.parametrize(
        "name, exponents",
        [("consensus", (1, 1)), ("oscillator", (0, 1, 2)), ("oscillator", (2, 0, 0)), ("oscillator", (0, 2, 2))],
    )
    def test_cyclic_closures_are_not_triangular(self, name, exponents):
        ms = build_closure(load_benchmark(name), Monomial(exponents))
        assert block_sizes(ms)[-1] > 1
        with pytest.raises(ClosedFormUnsupported, match="SCC block of size .* no rational root") as info:
            solve_closed_form_vector(ms)
        assert_no_rational_root(info.value.remaining_factor)

    def test_a_block_with_zero_data_solves_to_zero_without_its_spectrum(self):
        # coupled3d (0,2,1) is one 4x4 block whose characteristic polynomial
        # has no rational root, but its start and forcing are zero: m(t) = 0.
        ms = build_closure(load_benchmark("coupled3d"), Monomial((0, 2, 1)))
        assert block_sizes(ms) == [4] and not any(ms.m0) and not any(ms.vector_c)
        with pytest.raises(ClosedFormUnsupported):
            odesolve._rational_spectrum([list(row) for row in ms.matrix_a])
        forms = solve_closed_form_vector(ms)
        assert [f.terms for f in forms] == [()] * 4
        assert_exact_solution(ms, forms)
        # A zero block beside a live component, spectrum +-sqrt(2).
        ms = synthetic_system([[-1, 0, 0], [0, 0, 1], [0, 2, 0]], [1, 0, 0], constants=[1, 0, 0])
        forms = solve_closed_form_vector(ms)
        assert [f.terms == () for f in forms] == [False, True, True]
        assert_exact_solution(ms, forms)

    def test_resonance_raises_the_degree(self):
        # m1' = -m1, m2' = -m2 + m1, m(0) = (1, 0): m1 = e^{-t} forces m2 at
        # its own rate, so m2 = t e^{-t}.
        ms = synthetic_system([[-1, 0], [1, -1]], [1, 0])
        m1, m2 = solve_closed_form_vector(ms)
        assert m1.terms == ((F(-1), (F(1),)),)
        assert m2.terms == ((F(-1), (F(0), F(1))),)

    @pytest.mark.parametrize(
        "name, exponents, size",
        [
            ("gene", (0, 0, 0, 0, 2), 85),
            ("gene", (1, 0, 0, 0, 2), 115),
            ("ou-env", (0, 10), 120),
        ],
    )
    def test_rows_above_the_dense_cap_solve_exactly(self, name, exponents, size):
        ms = build_closure(load_benchmark(name), Monomial(exponents))
        assert ms.dimension == size
        assert_exact_solution(ms, solve_closed_form_vector(ms))

    @pytest.mark.parametrize("exponents", [(0, 0, 0, 0, 2), (1, 0, 0, 0, 2)])
    def test_large_exact_forms_evaluate_to_double_precision(self, exponents):
        # The terms cancel by many orders of magnitude; a double-precision
        # sum was off by several percent at t = 0.1.
        ms = build_closure(load_benchmark("gene"), Monomial(exponents))
        form = solve_closed_form(ms)
        times = [0.1, 0.25, 0.5]
        for t, value in zip(times, eval_numeric(ms, times)[:, 0]):
            assert math.isclose(form.evaluate(t), value, rel_tol=1e-9)

    def test_cyclic_closure_above_the_cap_falls_back_to_float(self):
        n = 41
        matrix = [[-(i + 1) if i == j else 0 for j in range(n)] for i in range(n)]
        matrix[0][1] = matrix[1][0] = F(1, 2)  # a 2x2 cycle, eigenvalues (-3 +- sqrt(2))/2
        ms = synthetic_system(matrix, [1] * n)
        with pytest.raises(ClosedFormUnsupported, match="not rational"):
            solve_closed_form(ms)
        fm = FunctionalMoment(ms, (F(1),) + (F(0),) * (n - 1), F(0))
        form, kind, note = best_closed_form(fm)
        assert kind == "float-spectrum"
        assert "not rational" in note
        for t in (0.0, 0.5, 2.0):
            assert math.isclose(
                form.evaluate(t), eval_numeric(ms, [t])[0, 0], rel_tol=1e-9, abs_tol=1e-12
            )
        # The same size with a rational 2x2 cycle, eigenvalues 0 and -3, fed
        # by a later index and feeding an earlier one, solves exactly.
        matrix[0][1], matrix[1][0] = 1, 2
        matrix[1][n - 1] = matrix[2][0] = 1
        ms = synthetic_system(matrix, [1] * n, constants=[1] * n)
        assert block_sizes(ms)[-1] == 2
        assert_exact_solution(ms, solve_closed_form_vector(ms))

    def test_repeated_rational_root_in_one_jordan_chain(self):
        # Characteristic polynomial (x + 3/17)^5, one Jordan chain.  The
        # block's float eigenvalues scatter by about 1.7e-3, so hints taken
        # from them missed -3/17 and the spectrum was reported irrational.
        matrix = [
            [F(14, 17), -3, -4, 1, 1],
            [2, F(-20, 17), -2, 0, 1],
            [0, 0, F(-3, 17), -1, 0],
            [3, -3, -5, F(-20, 17), 2],
            [3, 1, 0, -4, F(14, 17)],
        ]
        ms = synthetic_system(matrix, [1] * 5)
        forms = solve_closed_form_vector(ms)
        assert str(forms[0]) == "(1 - 4*t - 3/2*t^2)*exp(-3/17*t)"
        assert_exact_solution(ms, forms)

    @pytest.mark.parametrize("q", [1000003, 10**7 + 19])
    def test_eigenvalue_with_a_large_denominator(self, q):
        # A 2x2 cycle similar to diag(-1/q, -2).  The float hint for -1/q
        # rounds to no candidate with denominator <= 10^6, but the linear
        # factor left after deflating -2 has the rational root -1/q.
        a, b = F(-1, q), F(-2)
        ms = synthetic_system([[2 * a - b, b - a], [2 * a - 2 * b, 2 * b - a]], [1, 0])
        assert block_sizes(ms) == [2]
        forms = solve_closed_form_vector(ms)
        assert {lam for form in forms for lam, _ in form.terms} == {a, b}
        assert_exact_solution(ms, forms)

    def test_two_eigenvalues_with_large_denominators(self):
        # Two rational eigenvalues with denominators above 10^6 in one block:
        # float hints rounded to denominators up to 10^6 missed both, and the
        # block was reported as leaving a quadratic with no rational root.
        assert odesolve._rational_spectrum(FOUND_BLOCK) == [F(-1, 1000033), F(-1, 1000003), F(-2)]
        matrix = [row + [0] for row in FOUND_BLOCK] + [[1, 0, F(1, 7), F(-1, 2)]]
        ms = synthetic_system(matrix, [1, 0, 2, 3], constants=[0, 1, 0, 1])
        assert block_sizes(ms) == [1, 3]
        assert_exact_solution(ms, solve_closed_form_vector(ms))

    @settings(max_examples=60, deadline=None)
    @given(rational_spectrum_blocks())
    @example(FOUND_BLOCK)
    # Eigenvalues closer than a float can tell apart, and the companion
    # matrix of (x + 1)(x + 2)^2, where -2 is a root of both the polynomial
    # and its derivative and -1 lies just beyond it.
    @example(conjugated(diagonal(F(-1, 10**9), F(-1, 10**9 + 1)), 0))
    @example(conjugated(diagonal(F(1, 3), F(1, 3) + F(1, 10**9), F(-5)), 1))
    @example(conjugated(diagonal(F(7, 11), F(7, 11), F(7, 11), F(7, 11) + F(1, 10**9)), 2))
    @example(conjugated(companion([F(4), F(8), F(5), F(1)]), 3))
    def test_spectrum_matches_sympy(self, a):
        want = sympy.Matrix(a).eigenvals()
        got = odesolve._rational_spectrum(a)
        assert got == sorted(
            (F(int(lam.p), int(lam.q)) for lam, mult in want.items() for _ in range(mult)), reverse=True
        )

    def test_thirty_close_eigenvalues(self):
        # 15 eigenvalues -1/(10^6 - i), within 1.5e-11 of each other, each
        # twice: too large for sympy, and too close for float guesses.
        values = [F(-1, 10**6 - i) for i in range(15)] * 2
        assert odesolve._rational_spectrum(conjugated(diagonal(*values), 30)) == sorted(values, reverse=True)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(1, 9), st.integers(-60, 60), st.integers(1, 3)), min_size=1, max_size=6),
        st.lists(CLOSE_PAIRS, max_size=2),
    )
    @example([(1, 4, 2), (1, 5, 2), (2, 37, 3)], [])
    @example([(1, 0, 2), (1, -1, 2), (1, -6, 2), (7, 40, 1)], [])
    @example([(1, 1, 2), (1, -3, 2), (2, -1, 1)], [[2, 0, 1], [208, 279, 93]])
    def test_root_marks_hold_every_integer_root(self, linear, quadratics):
        # p = prod (a x - b)^m times the quadratics: every integer root b / a
        # is a root mark, and every other mark is [lo, lo + 1] with |p| at
        # both ends and the midpoint at most its size.
        p = [1]
        for f in [[-b, a] for a, b, m in linear for _ in range(m)] + quadratics:
            p = [sum(c * p[i - j] for j, c in enumerate(f) if 0 <= i - j < len(p)) for i in range(len(p) + len(f) - 1)]
        marks = odesolve._root_marks(p, 2 ** (2 + max(abs(c).bit_length() for c in p)))
        assert {b // a for a, b, _ in linear if b % a == 0} <= {lo for lo, hi, _ in marks if lo == hi}
        for lo, hi, size in marks:
            if lo == hi:
                assert odesolve._value(p, lo) == 0
            else:
                assert hi == lo + 1 and max(abs(odesolve._value(p, x)) for x in (lo, F(2 * lo + 1, 2), hi)) <= size

    @pytest.mark.parametrize("k", range(4, 10))
    def test_conjugated_jordan_blocks_solve_exactly(self, k):
        # J_k(-5/19) conjugated by unimodular integer matrices: a rational
        # root of multiplicity k behind one Jordan chain.
        matrix = conjugated([[F(-5, 19) if i == j else F(int(j == i + 1)) for j in range(k)] for i in range(k)], k)
        ms = synthetic_system(matrix, range(k), constants=[1] * k)
        assert block_sizes(ms) == [k]
        forms = solve_closed_form_vector(ms)
        assert {lam for form in forms for lam, _ in form.terms} <= {F(0), F(-5, 19)}
        assert_exact_solution(ms, forms)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_triangular_systems_match_dense(self, data):
        # Upper-triangular systems relabelled by a permutation, with the
        # diagonal drawn from few values so that resonance is common.
        n = data.draw(st.integers(min_value=1, max_value=6))
        perm = data.draw(st.permutations(range(n)))
        rates = st.sampled_from([F(-2), F(-1), F(-1, 2), F(0), F(1)])
        small = st.integers(min_value=-2, max_value=2)
        matrix = [[0] * n for _ in range(n)]
        for i in range(n):
            matrix[perm[i]][perm[i]] = data.draw(rates)
            for j in range(i + 1, n):
                matrix[perm[i]][perm[j]] = data.draw(small)
        constants = [data.draw(small) for _ in range(n)]
        m0 = [data.draw(small) for _ in range(n)]
        ms = synthetic_system(matrix, m0, constants=constants)
        assert_exact_solution(ms, solve_closed_form_vector(ms))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_block_triangular_systems_solve_exactly(self, data):
        # A cyclic block U conjugated by a unimodular integer matrix, where U
        # is upper triangular with repeated diagonal entries (so Jordan
        # structure occurs), between triangular indices that feed it and
        # indices it feeds; then relabelled by a permutation.
        k = data.draw(st.integers(min_value=2, max_value=4))
        before = data.draw(st.integers(min_value=0, max_value=3))
        after = data.draw(st.integers(min_value=0, max_value=3))
        n = before + k + after
        rates = st.sampled_from([F(-2), F(-1), F(-1, 2), F(0)])
        small = st.integers(min_value=-2, max_value=2)
        matrix = [[0] * n for _ in range(n)]
        for i in range(n):
            matrix[i][i] = data.draw(rates)
            for j in range(i + 1, n):
                matrix[i][j] = data.draw(small)
        block = range(before, before + k)
        for i in block:
            for j in block:
                if j > i + 1:
                    matrix[i][j] = 0
        # conjugate by E = I + m e_i e_j^T: row i += m row j, then column
        # j -= m column i, within the block
        for _ in range(2 * k):
            i, j = data.draw(st.permutations(list(block)))[:2]
            m = data.draw(st.sampled_from([-2, -1, 1, 2]))
            for c in block:
                matrix[i][c] += m * matrix[j][c]
            for r in block:
                matrix[r][j] -= m * matrix[r][i]
        perm = data.draw(st.permutations(range(n)))
        relabelled = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                relabelled[perm[i]][perm[j]] = matrix[i][j]
        constants = [data.draw(small) for _ in range(n)]
        m0 = [data.draw(small) for _ in range(n)]
        ms = synthetic_system(relabelled, m0, constants=constants)
        assert_exact_solution(ms, solve_closed_form_vector(ms))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_hard_denominators_solve_exactly_in_lowest_terms(self, data):
        # Entries p/q with q up to 10^6: triangular rates (indices 0 and 1
        # share one, and 1 feeds 0, so a resonant term occurs), couplings,
        # constants, m0, and a cyclic block with a rational spectrum that is
        # conjugated by a unimodular integer matrix and then scaled by a
        # diagonal of such entries.  The lcm of unequal denominators, the
        # content reduction, the resonant recurrence and the integer
        # characteristic polynomial all run on large denominators.
        k = data.draw(st.sampled_from([0, 2, 3]))
        after = data.draw(st.integers(min_value=0, max_value=2))
        n = 2 + k + after
        matrix = [[0] * n for _ in range(n)]
        for i in range(n):
            matrix[i][i] = data.draw(HARD)
            for j in range(i + 1, n):
                matrix[i][j] = data.draw(st.one_of(st.just(0), HARD))
        matrix[1][1] = matrix[0][0]
        matrix[0][1] = data.draw(HARD)
        block = range(2, 2 + k)
        for i in block:
            matrix[i][i] = data.draw(st.sampled_from([F(-2), F(-1), F(-1, 2), F(0)]))
            for j in block:
                if j > i + 1:
                    matrix[i][j] = 0
        for _ in range(2 * k):
            i, j = data.draw(st.permutations(list(block)))[:2]
            m = data.draw(st.sampled_from([-1, 1]))
            for c in block:
                matrix[i][c] += m * matrix[j][c]
            for r in block:
                matrix[r][j] -= m * matrix[r][i]
        scale = {i: data.draw(HARD) for i in block}
        for i in block:
            for j in block:
                matrix[i][j] *= scale[i] / scale[j]
        constants = [data.draw(st.one_of(st.just(0), HARD)) for _ in range(n)]
        m0 = [data.draw(st.one_of(st.just(0), HARD)) for _ in range(n)]
        ms = synthetic_system(matrix, m0, constants=constants)
        forms = solve_closed_form_vector(ms)
        assert_exact_solution(ms, forms)
        assert_lowest_terms(ms, forms)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_rate_repeated_along_a_path_solves_exactly(self, data):
        # One rate on a path of k >= 3 indices, each fed by the next, whose
        # last starts nonzero with no input: the e^{lam t} term of index 0 then
        # has degree exactly k - 1, so the resonant recurrence runs to degree
        # >= 2 (the shape of ou-env's high moments), on denominators up to 10^6.
        k = data.draw(st.integers(min_value=3, max_value=5))
        n = k + data.draw(st.integers(min_value=0, max_value=2))
        lam = data.draw(HARD)
        matrix = [[0] * n for _ in range(n)]
        for i in range(n):
            matrix[i][i] = lam if i < k else data.draw(HARD.filter(lambda x: x != lam))
            if i != k - 1:
                for j in range(i + 1, n):
                    matrix[i][j] = data.draw(HARD if j == i + 1 < k else st.one_of(st.just(0), HARD))
        constants = [0 if i == k - 1 else data.draw(st.one_of(st.just(0), HARD)) for i in range(n)]
        m0 = [data.draw(HARD if i == k - 1 else st.one_of(st.just(0), HARD)) for i in range(n)]
        ms = synthetic_system(matrix, m0, constants=constants)
        forms = solve_closed_form_vector(ms)
        assert_exact_solution(ms, forms)
        assert_lowest_terms(ms, forms)
        assert len(dict(forms[0].terms)[lam]) == k


# ---------------------------------------------------------------------------
# Golden printed forms
# ---------------------------------------------------------------------------

EXACT_FORMS = Path(__file__).parent / "data" / "exact_forms.json"

# Synthetic systems that reach every branch of the exact solver:
# (matrix, m0, constants).
GOLDEN_SYNTHETIC = {
    "resonance": ([[-1, 0], [1, -1]], [1, 0], None),
    "jordan chain": (
        [
            [F(14, 17), -3, -4, 1, 1],
            [2, F(-20, 17), -2, 0, 1],
            [0, 0, F(-3, 17), -1, 0],
            [3, -3, -5, F(-20, 17), 2],
            [3, 1, 0, -4, F(14, 17)],
        ],
        [1] * 5,
        None,
    ),
    "rational 2x2 cycle": ([[-1, 1, 0], [2, -2, 1], [0, 0, F(-1, 2)]], [1, 2, 3], [1, 0, 1]),
    "hard denominators": (
        [
            [F(-3, 999983), F(5, 999979), 0, F(1, 7)],
            [0, F(-3, 999983), F(-2, 1000003), 0],
            [0, 0, F(7, 1000003), F(11, 999961)],
            [0, 0, 0, F(-1, 2)],
        ],
        [F(1, 999999), 2, F(-5, 3), 0],
        [F(1, 3), 0, F(2, 999983), 1],
    ),
}
GOLDEN_TABLE1 = {
    f"{name} {Monomial(exponents)}": (name, exponents)
    for name, exponents, _, _ in cli._TABLE1
    if name not in ("consensus", "oscillator", "coupled3d")
}
GOLDEN_FUNCTIONAL = {"vehicles (p1 - p2)^2": ("vehicles", "(p1 - p2)^2")}
GOLDEN_CASES = [*GOLDEN_TABLE1, *GOLDEN_FUNCTIONAL, *GOLDEN_SYNTHETIC]


def golden_moment(case):
    """The FunctionalMoment of one golden case: a Table 1 target is
    component 0 of its closure, and a synthetic case weighs every component
    by 1."""
    if case in GOLDEN_FUNCTIONAL:
        name, text = GOLDEN_FUNCTIONAL[case]
        model = load_benchmark(name)
        return linear_functional_moment(model, functional_terms(model, text))
    if case in GOLDEN_TABLE1:
        name, exponents = GOLDEN_TABLE1[case]
        ms = build_closure(load_benchmark(name), Monomial(exponents))
    else:
        matrix, m0, constants = GOLDEN_SYNTHETIC[case]
        ms = synthetic_system(matrix, m0, constants=constants)
        return FunctionalMoment(ms, (F(1),) * ms.dimension, F(0))
    return FunctionalMoment(ms, (F(1),) + (F(0),) * (ms.dimension - 1), F(0))


class TestGoldenForms:
    """The printed forms of the exact Table 1 rows, a functional and the
    synthetic systems above stay byte for byte as recorded."""

    @pytest.fixture(scope="class")
    def recorded(self):
        return json.loads(EXACT_FORMS.read_text())

    def test_every_case_is_recorded(self, recorded):
        assert list(recorded) == GOLDEN_CASES

    @pytest.mark.parametrize("case", GOLDEN_CASES)
    def test_form_bytes_unchanged(self, recorded, case):
        form, kind, _ = best_closed_form(golden_moment(case))
        assert {"kind": kind, "form": str(form)} == recorded[case]

    def test_gene_third_moment_form_bytes_unchanged(self):
        # gene E[x5^3], dim 295 and 94 rates, has the largest integers of the
        # cheap closures; its printed form (12 kB) is pinned by its digest.
        ms = build_closure(load_benchmark("gene"), Monomial((0, 0, 0, 0, 3)))
        form, kind, _ = best_closed_form(FunctionalMoment(ms, (F(1),) + (F(0),) * (ms.dimension - 1), F(0)))
        assert (ms.dimension, kind) == (295, "exact-rational")
        digest = hashlib.sha256(str(form).encode()).hexdigest()
        assert digest == "02df26f476487c532aabc96276c720e266172ecdf4810765ad880e0c7104f84a"


class TestFloatPath:
    def test_agrees_with_exact_on_simple_spectrum(self):
        # m' = -2m + 1 has augmented eigenvalues {-2, 0}
        ms = build_closure(load_benchmark("ou-env"), Monomial((2, 0)))
        exact = solve_closed_form(ms)
        floaty = solve_closed_form_float(ms)
        for t in (0.0, 0.4, 1.0, 3.0, 8.0):
            assert math.isclose(
                exact.evaluate(t), floaty.evaluate(t), rel_tol=1e-10, abs_tol=1e-12
            )

    def test_triangular_rational_spectrum(self):
        ms = synthetic_system([[F(-1, 3), F(1)], [F(0), F(-2, 3)]], [F(1), F(1)])
        exact = solve_closed_form(ms)
        floaty = solve_closed_form_float(ms)
        for t in (0.0, 1.0, 2.0):
            assert math.isclose(
                exact.evaluate(t), floaty.evaluate(t), rel_tol=1e-9, abs_tol=1e-12
            )

    def test_repeated_eigenvalues_refused(self):
        # companion of (x^2 - 2)^2: double irrational eigenvalues +-sqrt(2)
        comp = [
            [0, 0, 0, -4],
            [1, 0, 0, 0],
            [0, 1, 0, 4],
            [0, 0, 1, 0],
        ]
        ms = synthetic_system(comp, [1, 0, 0, 0])
        with pytest.raises(ClosedFormUnsupported, match="defective"):
            solve_closed_form_float(ms)

    def test_exact_path_reports_quartic_factor(self):
        comp = [
            [0, 0, 0, -4],
            [1, 0, 0, 0],
            [0, 1, 0, 4],
            [0, 0, 1, 0],
        ]
        ms = synthetic_system(comp, [1, 0, 0, 0])
        with pytest.raises(ClosedFormUnsupported) as info:
            solve_closed_form(ms)
        assert info.value.remaining_factor == (F(4), F(0), F(-4), F(0), F(1))

    def test_twice_repeated_rate_refused_by_the_gap(self):
        # Rate -1 twice, diagonalizable: the eigenvector basis is well
        # conditioned, so only the gap check stops two modes from sharing one
        # term (without it the form reads 0.476 at t = 1 against 1.212).
        model = twin_rate_model()
        fm = linear_functional_moment(model, functional_terms(model, "x3 + x4"))
        with pytest.raises(ClosedFormUnsupported, match="are closer than 1e-08"):
            fm.closed_form_float()
        form, kind, note = best_closed_form(fm)
        assert (form, kind) == (None, "numeric-only")
        assert note.startswith("no closed form: the spectrum is not rational")
        assert "float path: eigenvalues" in note
        assert fm.eval_numeric([1.0])[0] == pytest.approx(1.2116691354, rel=1e-9)

    def test_offset_enters_the_float_form(self):
        model = twin_rate_model()
        fm = linear_functional_moment(model, functional_terms(model, "x4 + 1"))
        form, kind, _ = best_closed_form(fm)
        assert kind == "float-spectrum"
        assert form.terms[0] == (0.0, (1.0,))
        times = [0.0, 0.5, 2.0]
        for t, value in zip(times, fm.eval_numeric(times)):
            assert math.isclose(form.evaluate(t), value, rel_tol=1e-10)

    def test_complex_pair_allowed(self):
        # rotation block: eigenvalues +-i are separate, so the float path works
        ms = synthetic_system([[0, 1], [-1, 0]], [1, 0])
        cf = solve_closed_form_float(ms)
        for t in (0.0, 0.5, 1.5, 3.0):
            assert math.isclose(cf.evaluate(t), math.cos(t), abs_tol=1e-10)


# ---------------------------------------------------------------------------
# ClosedForm data type behavior
# ---------------------------------------------------------------------------


class TestClosedFormType:
    def test_build_drops_zero_terms(self):
        cf = ClosedForm.build({F(-1): [F(0)], F(0): [F(2)]}, "exact-rational")
        assert cf.terms == ((F(0), (F(2),)),)

    def test_trailing_zero_coefficients_trimmed(self):
        cf = ClosedForm.build({F(-1): [F(1), F(0)]}, "exact-rational")
        assert cf.terms == ((F(-1), (F(1),)),)

    def test_terms_sorted_by_descending_rate(self):
        cf = ClosedForm.build(
            {F(-4): [F(1)], F(0): [F(1)], F(-2): [F(1)]}, "exact-rational"
        )
        assert [lam for lam, _ in cf.terms] == [F(0), F(-2), F(-4)]

    def test_exact_rates_sorted_by_value_not_by_float(self):
        # 10**17 and 10**17 + 1 round to the same double.
        a, b = F(10**17), F(10**17 + 1)
        one = ClosedForm.build({a: [F(1)], b: [F(2)]}, "exact-rational")
        other = ClosedForm.build({b: [F(2)], a: [F(1)]}, "exact-rational")
        assert one.terms == other.terms == ((b, (F(2),)), (a, (F(1),)))

    def test_evaluate_horner(self):
        a = ClosedForm.build({F(-2): [F(1), F(3)]}, "exact-rational")
        t = 0.7
        assert math.isclose(a.evaluate(t), (1 + 3 * t) * math.exp(-2 * t))


class TestClosedFormPrinting:
    def test_constant_only(self):
        assert str(ClosedForm.build({F(0): [F(1, 3)]}, "exact-rational")) == "1/3"

    def test_zero(self):
        assert str(ClosedForm((), "exact-rational")) == "0"

    def test_unit_rate_special_case(self):
        up = ClosedForm.build({F(1): [F(2)]}, "exact-rational")
        down = ClosedForm.build({F(-1): [F(2)]}, "exact-rational")
        assert str(up) == "2*exp(t)"
        assert str(down) == "2*exp(-t)"

    def test_bare_exponential_when_coefficient_is_one(self):
        cf = ClosedForm.build({F(-2): [F(1)]}, "exact-rational")
        assert str(cf) == "exp(-2*t)"

    def test_polynomial_coefficient_parenthesized(self):
        cf = ClosedForm.build({F(-2): [F(1), F(1)]}, "exact-rational")
        assert str(cf) == "(1 + t)*exp(-2*t)"

    def test_single_negative_monomial_parenthesized(self):
        cf = ClosedForm.build({F(-2): [F(-1, 4)]}, "exact-rational")
        assert str(cf) == "(-1/4)*exp(-2*t)"


# ---------------------------------------------------------------------------
# Functional moments and the tail bound
# ---------------------------------------------------------------------------


class TestFunctionalMoment:
    def test_constant_offset_carried(self):
        model = load_benchmark("consensus")
        fm = linear_functional_moment(model, functional_terms(model, "2*x1^2 + 5"))
        assert fm.offset == 5
        base = linear_functional_moment(model, functional_terms(model, "x1^2"))
        times = [0.0, 1.0, 2.0]
        got = fm.eval_numeric(times)
        want = 2 * base.eval_numeric(times) + 5
        assert np.allclose(got, want, rtol=1e-12)

    def test_weights_align_with_indices(self):
        model = load_benchmark("vehicles")
        fm = linear_functional_moment(model, functional_terms(model, "p1 - p2"))
        weight_of = dict(zip(fm.system.indices, fm.weights))
        assert weight_of[Monomial((1, 0, 0, 0))] == 1
        assert weight_of[Monomial((0, 0, 1, 0))] == -1

    def test_constant_functional_rejected(self):
        model = load_benchmark("consensus")
        with pytest.raises(ValueError):
            linear_functional_moment(model, functional_terms(model, "7"))

    def test_closed_form_offset_included(self):
        model = load_benchmark("vehicles")
        fm = linear_functional_moment(model, functional_terms(model, "p1 - p2 + 10"))
        cf = fm.closed_form_exact()
        assert at_zero(cf) == 11


class TestMarkovBound:
    def test_value(self):
        assert markov_tail_bound(0.04, 0.2, 2) == pytest.approx(1.0)
        assert markov_tail_bound(0.0016, 0.2, 4) == pytest.approx(1.0)

    def test_bound_is_a_probability(self):
        # E[Z^2] / a^2 = 100 says nothing; a probability is at most 1.
        assert markov_tail_bound(1.0, 0.1, 2) == 1.0
        assert markov_tail_bound(1e300, 1e-300, 4) == 1.0  # a^p underflows to 0.0
        # A positive bound stays positive when a^p overflows or the ratio underflows.
        assert markov_tail_bound(1.0, 1e200, 2) == math.ulp(0.0)
        assert markov_tail_bound(1e-300, 1e100, 2) == math.ulp(0.0)
        assert markov_tail_bound(0.0, 1e200, 2) == 0.0
        assert markov_tail_bound(0.01, 0.2, 2) == pytest.approx(0.25)

    def test_threshold_must_be_positive(self):
        for threshold in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                markov_tail_bound(1.0, threshold, 2)

    def test_power_must_be_even_positive(self):
        with pytest.raises(ValueError):
            markov_tail_bound(1.0, 1.0, 3)
        with pytest.raises(ValueError):
            markov_tail_bound(1.0, 1.0, 0)
        with pytest.raises(ValueError):
            markov_tail_bound(1.0, 1.0, -2)

    def test_negative_moment_rejected(self):
        for moment in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="must be finite and non-negative"):
                markov_tail_bound(moment, 0.1, 2)

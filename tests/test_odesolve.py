"""Linear ODE solving: matrix exponential, exact/float spectra, closed forms."""

import json
import math
import random
import subprocess
import sys
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
from sdemoments.model import load_benchmark
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
        calls = []

        def counting_expm(matrix):
            calls.append(matrix)
            return expm(matrix)

        monkeypatch.setattr(odesolve, "expm", counting_expm)
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
OU_ENV_PATH = str(Path(__file__).resolve().parents[1] / "benchmarks" / "ou-env.json")


def route_spy(monkeypatch, force=None):
    """Record whether each eval_numeric call takes the sparse route; with
    `force`, take that route instead of the one the cost rule picks."""
    chosen = []

    def choose(*args):
        chosen.append(SPARSE_IS_CHEAPER(*args) if force is None else force)
        return chosen[-1]

    monkeypatch.setattr(odesolve, "_sparse_is_cheaper", choose)
    return chosen


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
        # scale: 2.4e-11 on gene, 3.6e-12 on vehicles.
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

    def test_scipy_is_imported_by_the_sparse_route_only(self):
        # In a fresh process: neither the import nor a small closed-form
        # moment may load scipy.sparse.linalg; a large sparse closure does.
        code = (
            "import sys, contextlib, io\n"
            "import sdemoments\n"
            "from sdemoments.cli import main\n"
            "seen = ['scipy.sparse.linalg' in sys.modules]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main(['moment', {OU_ENV_PATH!r}, '--alpha', '0,2', '--closed-form']) == 0\n"
            "seen.append('scipy.sparse.linalg' in sys.modules)\n"
            "ms = sdemoments.build_closure(sdemoments.load_benchmark('vehicles'), sdemoments.Monomial((3, 1, 1, 5)))\n"
            "sdemoments.eval_numeric(ms, [0.5])\n"
            "seen.append('scipy.sparse.linalg' in sys.modules)\n"
            "print(seen)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[False, False, True]"


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
            assert form.at_zero() == m0

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
            assert form.at_zero() == m0

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
        per_component = ClosedForm((), "float")
        for component, weight in enumerate(fm.weights):
            if weight:
                part = solve_closed_form_float(fm.system, component)
                per_component = per_component + part.scale(float(weight))
        eig = np.linalg.eig
        calls = []

        def counting_eig(matrix):
            calls.append(matrix)
            return eig(matrix)

        monkeypatch.setattr(np.linalg, "eig", counting_eig)
        form, kind, _ = best_closed_form(fm)
        assert kind == "float-spectrum"
        assert len(calls) == 1
        assert form == per_component.prune(1e-12)

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
        assert cf.at_zero() == 1  # p1(0) - p2(0) = 1 - 0

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


def assert_exact_solution(ms, forms):
    """Each form starts at m0 and satisfies its ODE row identically."""
    for r in range(ms.dimension):
        assert forms[r].at_zero() == ms.m0[r], f"row {r} initial value"
        residual = forms[r].derivative() - ClosedForm.constant(ms.vector_c[r])
        for s, coeff in enumerate(ms.matrix_a[r]):
            if coeff:
                residual = residual - forms[s].scale(coeff)
        assert residual.terms == (), f"row {r} residual {residual}"


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


@st.composite
def rational_spectrum_blocks(draw):
    """A block with a rational spectrum: up to three eigenvalues p/q, q up to
    10^6, each of multiplicity up to 3, on the diagonal of an upper
    triangular matrix with small integers above it (so Jordan chains
    occur), conjugated by a unimodular integer matrix and then scaled by a
    diagonal of entries with denominators up to 10^6."""
    hard = st.builds(
        Fraction,
        st.integers(min_value=-10**6, max_value=10**6).filter(bool),
        st.integers(min_value=1, max_value=10**6),
    )
    values = draw(st.lists(st.one_of(st.just(F(0)), hard), min_size=1, max_size=3, unique=True))
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
    scale = [draw(hard) for _ in range(k)]
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
        # The factor left has no rational root by an independent oracle.
        factor = info.value.remaining_factor
        assert len(factor) > 2 and factor[-1] == 1
        coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(factor)]
        assert sympy.Poly(coeffs, sympy.Symbol("x")).ground_roots() == {}

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
    def test_spectrum_matches_sympy(self, a):
        want = sympy.Matrix(a).eigenvals()
        got = odesolve._rational_spectrum(a)
        assert got == sorted(
            (F(int(lam.p), int(lam.q)) for lam, mult in want.items() for _ in range(mult)), reverse=True
        )

    @pytest.mark.parametrize("k", range(4, 10))
    def test_conjugated_jordan_blocks_solve_exactly(self, k):
        # J_k(-5/19) conjugated by unimodular integer matrices: a rational
        # root of multiplicity k behind one Jordan chain.
        rng = random.Random(k)
        matrix = [[F(-5, 19) if i == j else F(int(j == i + 1)) for j in range(k)] for i in range(k)]
        for _ in range(2 * k):
            i, j = rng.sample(range(k), 2)
            w = rng.choice([-1, 1])
            for c in range(k):
                matrix[i][c] += w * matrix[j][c]
            for r in range(k):
                matrix[r][j] -= w * matrix[r][i]
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
        hard = st.builds(
            Fraction,
            st.integers(min_value=-10**6, max_value=10**6).filter(bool),
            st.integers(min_value=1, max_value=10**6),
        )
        k = data.draw(st.sampled_from([0, 2, 3]))
        after = data.draw(st.integers(min_value=0, max_value=2))
        n = 2 + k + after
        matrix = [[0] * n for _ in range(n)]
        for i in range(n):
            matrix[i][i] = data.draw(hard)
            for j in range(i + 1, n):
                matrix[i][j] = data.draw(st.one_of(st.just(0), hard))
        matrix[1][1] = matrix[0][0]
        matrix[0][1] = data.draw(hard)
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
        scale = {i: data.draw(hard) for i in block}
        for i in block:
            for j in block:
                matrix[i][j] *= scale[i] / scale[j]
        constants = [data.draw(st.one_of(st.just(0), hard)) for _ in range(n)]
        m0 = [data.draw(st.one_of(st.just(0), hard)) for _ in range(n)]
        ms = synthetic_system(matrix, m0, constants=constants)
        forms = solve_closed_form_vector(ms)
        assert_exact_solution(ms, forms)
        for form in forms:
            rates = [lam for lam, _ in form.terms]
            assert rates == sorted(set(rates), reverse=True)
            for lam, coeffs in form.terms:
                for c in (lam, *coeffs):
                    assert type(c) is Fraction
                    assert c.denominator > 0 and math.gcd(c.numerator, c.denominator) == 1
                assert coeffs[-1] != 0
        # The integer forms themselves: each term over its content gcd.
        for form in odesolve._solve_forms(ms):
            for (mu_num, mu_den), (den, nums) in form.items():
                assert mu_den > 0 and math.gcd(mu_num, mu_den) == 1
                assert den > 0 and nums[-1] != 0 and math.gcd(den, *nums) == 1


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

    def test_add_merges_matching_rates(self):
        a = ClosedForm.build({F(-1): [F(1), F(2)]}, "exact-rational")
        b = ClosedForm.build({F(-1): [F(3)]}, "exact-rational")
        assert (a + b).terms == ((F(-1), (F(4), F(2))),)

    def test_add_rejects_mixed_kinds(self):
        exact = ClosedForm.build({F(-1): [F(1)]}, "exact-rational")
        approx = ClosedForm.build({-1.0: [1.0]}, "float")
        with pytest.raises(ValueError):
            exact + approx

    def test_add_cancels_to_empty(self):
        a = ClosedForm.build({F(-1): [F(1)]}, "exact-rational")
        assert (a - a).terms == ()
        assert (a - a).evaluate(3.0) == 0.0

    def test_scale(self):
        a = ClosedForm.build({F(-1): [F(1), F(2)]}, "exact-rational")
        assert a.scale(F(1, 2)).terms == ((F(-1), (F(1, 2), F(1))),)

    def test_derivative_of_polynomial_exponential(self):
        # d/dt (3/8 + t + 3t^2/4) e^{-4t}
        a = ClosedForm.build({F(-4): [F(3, 8), F(1), F(3, 4)]}, "exact-rational")
        want = ClosedForm.build(
            {F(-4): [F(-1, 2), F(-5, 2), F(-3)]}, "exact-rational"
        )
        assert a.derivative().terms == want.terms

    def test_derivative_of_constant_is_empty(self):
        assert ClosedForm.constant(F(5)).derivative().terms == ()

    def test_evaluate_horner(self):
        a = ClosedForm.build({F(-2): [F(1), F(3)]}, "exact-rational")
        t = 0.7
        assert math.isclose(a.evaluate(t), (1 + 3 * t) * math.exp(-2 * t))

    def test_prune_drops_residue(self):
        a = ClosedForm.build({0.0: [1.0], -3.0: [5e-16]}, "float")
        cleaned = a.prune()
        assert [lam for lam, _ in cleaned.terms] == [0.0]


class TestClosedFormPrinting:
    def test_constant_only(self):
        assert str(ClosedForm.constant(F(1, 3))) == "1/3"

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
        assert cf.at_zero() == 11


class TestMarkovBound:
    def test_value(self):
        assert markov_tail_bound(0.04, 0.2, 2) == pytest.approx(1.0)
        assert markov_tail_bound(0.0016, 0.2, 4) == pytest.approx(1.0)

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
        with pytest.raises(ValueError):
            markov_tail_bound(-0.1, 1.0, 2)

"""Linear ODE solving: matrix exponential, exact/float spectra, closed forms."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from sdemoments.closure import MomentSystem, build_closure
from sdemoments.model import load_benchmark
from sdemoments.odesolve import (
    _EXACT_DIM_CAP,
    ClosedForm,
    ClosedFormUnsupported,
    FunctionalMoment,
    OdeSolveError,
    best_closed_form,
    characteristic_polynomial,
    eval_numeric,
    expm,
    extract_rational_roots,
    linear_functional_moment,
    markov_tail_bound,
    solve_closed_form,
    solve_closed_form_float,
    solve_closed_form_vector,
    _dense_forms,
    _triangular_forms,
)
from sdemoments.poly import Monomial, parse_polynomial


def F(a, b=1):
    return Fraction(a, b)


def functional_terms(model, text):
    return dict(parse_polynomial(text, model.variables).terms)


# ---------------------------------------------------------------------------
# Matrix exponential vs scipy
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
    def test_matches_scipy(self, n, seed, scale):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n)) * scale / n
        ours = expm(a)
        ref = scipy.linalg.expm(a)
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

    def test_rational_roots_with_multiplicity(self):
        # (x + 2)^2 (x - 1/3) = x^3 + 11/3 x^2 + 8/3 x - 4/3
        coeffs = [F(-4, 3), F(8, 3), F(11, 3), F(1)]
        roots, remaining = extract_rational_roots(coeffs, [-2.0, -2.0, 1 / 3])
        assert roots == {F(-2): 2, F(1, 3): 1}
        assert remaining == [F(1)]

    def test_irrational_roots_left_in_remainder(self):
        # x^2 + 7x + 8 has roots (-7 +- sqrt(17))/2
        coeffs = [F(8), F(7), F(1)]
        hints = np.roots([1.0, 7.0, 8.0]).tolist()
        roots, remaining = extract_rational_roots(coeffs, hints)
        assert roots == {}
        assert remaining == coeffs


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
        values = eval_numeric(ms, [0.0])
        assert np.allclose(values[0], [float(v) for v in ms.m0], atol=1e-14)

    def test_scalar_linear_system(self):
        # single-moment system: m' = -2m + 1, m(0) = 0
        ms = build_closure(load_benchmark("ou-env"), Monomial((2, 0)))
        assert ms.dimension == 1
        times = [0.0, 0.3, 1.0, 2.5]
        values = eval_numeric(ms, times)
        want = [(1 - math.exp(-2 * t)) / 2 for t in times]
        assert np.allclose(values[:, 0], want, rtol=1e-12, atol=1e-14)


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
        forms = solve_closed_form_vector(ms)
        for r in range(ms.dimension):
            residual = forms[r].derivative()
            for s in range(ms.dimension):
                coeff = ms.matrix_a[r][s]
                if coeff:
                    residual = residual + forms[s].scale(-coeff)
            if ms.vector_c[r]:
                residual = residual + ClosedForm.constant(-ms.vector_c[r])
            assert residual.terms == (), f"row {r} residual {residual}"

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
        forms = solve_closed_form_vector(ms)
        for r in range(ms.dimension):
            residual = forms[r].derivative()
            for s in range(ms.dimension):
                coeff = ms.matrix_a[r][s]
                if coeff:
                    residual = residual + forms[s].scale(-coeff)
            if ms.vector_c[r]:
                residual = residual + ClosedForm.constant(-ms.vector_c[r])
            assert residual.terms == ()


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
        matrix_a=tuple(tuple(F(v) for v in row) for row in matrix),
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


# ---------------------------------------------------------------------------
# Triangular back-substitution versus the dense spectral path
# ---------------------------------------------------------------------------


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
        forms = _triangular_forms(ms)
        assert forms is not None
        assert forms == _dense_forms(ms)

    def test_matches_dense_path_on_functional_closure(self):
        model = load_benchmark("vehicles")
        fm = linear_functional_moment(model, functional_terms(model, "(p1 - p2)^2"))
        assert _triangular_forms(fm.system) == _dense_forms(fm.system)

    @pytest.mark.parametrize(
        "name, exponents", [("consensus", (1, 1)), ("oscillator", (0, 1, 2))]
    )
    def test_cyclic_closures_are_not_triangular(self, name, exponents):
        ms = build_closure(load_benchmark(name), Monomial(exponents))
        assert _triangular_forms(ms) is None

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
        assert ms.dimension == size > _EXACT_DIM_CAP
        assert_exact_solution(ms, solve_closed_form_vector(ms))

    def test_cyclic_closure_above_the_cap_falls_back_to_float(self):
        n = _EXACT_DIM_CAP + 1
        matrix = [[-(i + 1) if i == j else 0 for j in range(n)] for i in range(n)]
        matrix[0][1] = matrix[1][0] = F(1, 2)  # a 2x2 cycle
        ms = synthetic_system(matrix, [1] * n)
        with pytest.raises(ClosedFormUnsupported, match="cap"):
            solve_closed_form(ms)
        fm = FunctionalMoment(ms, (F(1),) + (F(0),) * (n - 1), F(0))
        form, kind, note = best_closed_form(fm)
        assert kind == "float-spectrum"
        assert "cap" in note
        for t in (0.0, 0.5, 2.0):
            assert math.isclose(
                form.evaluate(t), eval_numeric(ms, [t])[0, 0], rel_tol=1e-9, abs_tol=1e-12
            )

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
        forms = _triangular_forms(ms)
        assert forms is not None
        assert forms == _dense_forms(ms)
        assert_exact_solution(ms, forms)


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

    def test_add_merges_matching_rates(self):
        a = ClosedForm.build({F(-1): [F(1), F(2)]}, "exact-rational")
        b = ClosedForm.build({F(-1): [F(3)]}, "exact-rational")
        assert (a + b).terms == ((F(-1), (F(4), F(2))),)

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

    def test_json_dict(self):
        cf = ClosedForm.build({F(-2): [F(1, 2)]}, "exact-rational")
        doc = cf.to_json_dict()
        assert doc["kind"] == "exact-rational"
        assert doc["terms"][0]["lambda"] == "-2"
        assert doc["terms"][0]["coeffs"] == ["1/2"]


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
        with pytest.raises(ValueError):
            markov_tail_bound(1.0, 0.0, 2)

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

"""Generator action on monomials, cross-checked against a sympy oracle."""

import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sdemoments.generator import (
    Generator,
    GeneratorImage,
    apply_generator,
    diffusion_product,
)
from sdemoments.model import InitialCondition, SdeModel, benchmark_names, load_benchmark
from sdemoments.poly import Monomial, Polynomial


# ---------------------------------------------------------------------------
# Sympy oracle: apply the second-order operator symbolically, then compare the
# expanded expressions exactly.
# ---------------------------------------------------------------------------


def sympy_symbols(model):
    return sympy.symbols(" ".join(model.variables), seq=True)


def poly_to_sympy(poly, symbols):
    expr = sympy.Integer(0)
    for mono, coeff in poly.terms.items():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for s, e in zip(symbols, mono.exponents):
            term *= s**e
        expr += term
    return expr


def oracle_generator(model, beta):
    """Drift-gradient plus half trace of (sigma sigma^T) Hessian, via sympy."""
    symbols = sympy_symbols(model)
    f = sympy.Integer(1)
    for s, e in zip(symbols, beta.exponents):
        f *= s**e
    drift = [poly_to_sympy(p, symbols) for p in model.drift]
    sigma = [
        [poly_to_sympy(model.diffusion[i][k], symbols) for k in range(model.brownian_dim)]
        for i in range(model.dimension)
    ]
    total = sympy.Integer(0)
    for i in range(model.dimension):
        total += drift[i] * sympy.diff(f, symbols[i])
    for i in range(model.dimension):
        for j in range(model.dimension):
            entry = sum(
                sigma[i][k] * sigma[j][k] for k in range(model.brownian_dim)
            )
            total += sympy.Rational(1, 2) * entry * sympy.diff(f, symbols[i], symbols[j])
    return sympy.expand(total)


def image_to_sympy(image: GeneratorImage, model):
    symbols = sympy_symbols(model)
    return sympy.expand(
        poly_to_sympy(image.as_polynomial(model.dimension), symbols)
    )


def random_monomials(model, count, max_degree=4, seed=7):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        exps = tuple(rng.randint(0, max_degree) for _ in range(model.dimension))
        if 1 <= sum(exps) <= max_degree:
            out.append(Monomial(exps))
    return out


@pytest.mark.parametrize("name", sorted(benchmark_names()))
def test_generator_matches_sympy_oracle(name):
    model = load_benchmark(name)
    gen = Generator(model)
    for beta in random_monomials(model, 20):
        got = image_to_sympy(gen.apply(beta), model)
        want = oracle_generator(model, beta)
        assert sympy.expand(got - want) == 0, f"{name}: A x^{beta}"


# ---------------------------------------------------------------------------
# Generated models: n = 1-3 variables, brownian_dim != n, a sigma whose
# sigma sigma^T has nonzero off-diagonal entries, and coefficients over mixed
# denominators, so every kind of action in the compiled table is exercised.
# ---------------------------------------------------------------------------

coefficients = st.builds(
    Fraction, st.integers(-6, 6).filter(bool), st.sampled_from([1, 2, 3, 4, 5, 7])
)


@st.composite
def polynomial_models(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3).filter(lambda m: m != n))

    def poly(max_degree, max_terms):
        exponents = st.tuples(*[st.integers(0, max_degree)] * n)
        terms = draw(st.dictionaries(exponents, coefficients, min_size=1, max_size=max_terms))
        return Polynomial(n, terms)

    drift = tuple(poly(2, 3) for _ in range(n))
    diffusion = tuple(tuple(poly(1, 2) for _ in range(m)) for _ in range(n))
    model = SdeModel(
        name="generated",
        variables=tuple(f"x{i + 1}" for i in range(n)),
        brownian_dim=m,
        drift=drift,
        diffusion=diffusion,
        initial=InitialCondition.from_point((Fraction(0),) * n),
    )
    ssT = diffusion_product(model)
    assume(n == 1 or any(not ssT[i][j].is_zero() for i in range(n) for j in range(i + 1, n)))
    return model


def assert_matches_oracle(model, beta):
    got = image_to_sympy(Generator(model).apply(beta), model)
    assert sympy.expand(got - oracle_generator(model, beta)) == 0, f"A x^{beta}"


class TestGeneratedModels:
    @settings(max_examples=40, deadline=None)
    @given(polynomial_models(), st.data())
    def test_matches_sympy_oracle(self, model, data):
        exps = data.draw(st.tuples(*[st.integers(0, 4)] * model.dimension))
        assert_matches_oracle(model, Monomial(exps))

    @settings(max_examples=20, deadline=None)
    @given(polynomial_models())
    def test_zero_one_exponents(self, model):
        # beta_i in {0, 1}: the i = j action's factor beta_i (beta_i - 1)/2 is
        # 0, so a model with diagonal noise alone maps x^beta to 0.
        n = model.dimension
        diagonal = tuple(
            tuple(model.diffusion[i][0] if i == k else Polynomial.zero(n) for k in range(n))
            for i in range(n)
        )
        noise_only = SdeModel(
            name="diagonal",
            variables=model.variables,
            brownian_dim=n,
            drift=(Polynomial.zero(n),) * n,
            diffusion=diagonal,
            initial=model.initial,
        )
        gen = Generator(noise_only)
        for exps in itertools.product((0, 1), repeat=n):
            assert_matches_oracle(model, Monomial(exps))
            image = gen.apply(Monomial(exps))
            assert not image.linear_part and image.constant == 0


# ---------------------------------------------------------------------------
# Pinned single rows (ou-env)
# ---------------------------------------------------------------------------


class TestOuEnvRows:
    def setup_method(self):
        self.model = load_benchmark("ou-env")
        self.gen = Generator(self.model)

    def test_row_0_2(self):
        image = self.gen.apply(Monomial((0, 2)))
        assert dict(image.linear_part) == {
            Monomial((0, 2)): Fraction(-4),
            Monomial((2, 1)): Fraction(2),
            Monomial((2, 0)): Fraction(1),
            Monomial((1, 1)): Fraction(2),
        }
        assert image.constant == 0

    def test_row_2_0(self):
        image = self.gen.apply(Monomial((2, 0)))
        assert dict(image.linear_part) == {Monomial((2, 0)): Fraction(-2)}
        assert image.constant == 1

    def test_row_1_0(self):
        image = self.gen.apply(Monomial((1, 0)))
        assert dict(image.linear_part) == {Monomial((1, 0)): Fraction(-1)}
        assert image.constant == 0

    def test_linear_part_has_no_constant_monomial(self):
        for beta in random_monomials(self.model, 10):
            image = self.gen.apply(beta)
            assert all(m.degree > 0 for m in image.linear_part)


# ---------------------------------------------------------------------------
# Degree growth for the cubic-drift scalar model
# ---------------------------------------------------------------------------


class TestDegreeGrowth:
    def test_cubic_drift_raises_degree(self):
        # With drift x - x^3 the image of x^n contains x^{n+2} with weight -n.
        model = load_benchmark("double-well")
        gen = Generator(model)
        for n in range(1, 8):
            image = gen.apply(Monomial((n,)))
            assert image.linear_part[Monomial((n + 2,))] == -n

    def test_linear_model_preserves_degree(self):
        model = load_benchmark("consensus")
        gen = Generator(model)
        for beta in random_monomials(model, 10):
            image = gen.apply(beta)
            assert all(m.degree <= beta.degree for m in image.linear_part)


# ---------------------------------------------------------------------------
# Operator linearity and the module-level wrapper
# ---------------------------------------------------------------------------


coeff_pairs = st.tuples(
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)


class TestLinearity:
    @settings(max_examples=50)
    @given(coeff_pairs, st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
    def test_apply_polynomial_is_linear(self, coeffs, a1, a2, b1, b2):
        model = load_benchmark("ou-env")
        gen = Generator(model)
        ca, cb = coeffs
        f = Polynomial.monomial(Monomial((a1, a2)), ca)
        g = Polynomial.monomial(Monomial((b1, b2)), cb)
        combined = gen.apply_polynomial(f + g)
        separate = gen.apply_polynomial(f) + gen.apply_polynomial(g)
        assert combined == separate

    def test_apply_polynomial_matches_apply(self):
        model = load_benchmark("ou-env")
        gen = Generator(model)
        beta = Monomial((0, 2))
        via_poly = gen.apply_polynomial(Polynomial.monomial(beta))
        via_mono = gen.apply(beta).as_polynomial(model.dimension)
        assert via_poly == via_mono

    def test_module_wrapper(self):
        model = load_benchmark("ou-env")
        image = apply_generator(model, Monomial((2, 0)))
        assert image.constant == 1

    def test_dimension_mismatch(self):
        model = load_benchmark("ou-env")
        with pytest.raises(ValueError):
            Generator(model).apply(Monomial((1, 0, 0)))


# ---------------------------------------------------------------------------
# Diffusion outer product
# ---------------------------------------------------------------------------


class TestDiffusionProduct:
    @pytest.mark.parametrize("name", sorted(benchmark_names()))
    def test_symmetry(self, name):
        model = load_benchmark(name)
        ssT = diffusion_product(model)
        n = model.dimension
        for i in range(n):
            for j in range(n):
                assert ssT[i][j] == ssT[j][i]

    def test_ou_env_entries(self):
        model = load_benchmark("ou-env")
        ssT = diffusion_product(model)
        assert ssT[0][0] == Polynomial.constant(2, 1)
        assert ssT[0][1].is_zero()
        assert ssT[1][1] == Polynomial.monomial(Monomial((2, 0)))

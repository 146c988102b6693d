"""Polynomial arithmetic against an independent dense oracle."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdemoments.poly import Monomial, ParseError, Polynomial, parse_polynomial

# ---------------------------------------------------------------------------
# Oracle: plain dict-of-exponent-tuples arithmetic, written without reference
# to the library's internals.
# ---------------------------------------------------------------------------


def o_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, val in b.items():
        out[key] = out.get(key, Fraction(0)) + val
    return {k: v for k, v in out.items() if v != 0}


def o_mul(a: dict, b: dict, dim: int) -> dict:
    out: dict = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            key = tuple(ka[i] + kb[i] for i in range(dim))
            out[key] = out.get(key, Fraction(0)) + va * vb
    return {k: v for k, v in out.items() if v != 0}


def from_dict(dim: int, data: dict) -> Polynomial:
    return Polynomial(dim, {Monomial(k): v for k, v in data.items()})


def to_dict(p: Polynomial) -> dict:
    return {m.exponents: c for m, c in p.terms.items()}


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
).filter(lambda f: True)


def poly_dicts(dim: int, max_degree: int = 4, max_terms: int = 5):
    exponent = st.integers(min_value=0, max_value=max_degree)
    key = st.tuples(*([exponent] * dim)).filter(lambda k: sum(k) <= max_degree)
    return st.dictionaries(key, rationals, max_size=max_terms).map(
        lambda d: {k: v for k, v in d.items() if v != 0}
    )


# ---------------------------------------------------------------------------
# Monomial basics
# ---------------------------------------------------------------------------


class TestMonomial:
    def test_degree_and_dimension(self):
        m = Monomial((2, 0, 3))
        assert m.degree == 5
        assert m.dimension == 3

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Monomial((1, -1))

    def test_product_adds_exponents(self):
        assert Monomial((1, 2)) * Monomial((0, 3)) == Monomial((1, 5))

    def test_graded_lex_order(self):
        # degree first, then lexicographic on exponents
        assert Monomial((0, 2)) < Monomial((1, 1)) < Monomial((2, 0))
        assert Monomial((2, 0)) < Monomial((0, 3))
        assert Monomial((1, 1)) < Monomial((3, 0))

    def test_sorting_descending_matches_expected(self):
        monos = [Monomial(e) for e in [(0, 2), (2, 0), (1, 1), (0, 1), (3, 0)]]
        ordered = sorted(monos, reverse=True)
        assert [m.exponents for m in ordered] == [
            (3, 0),
            (2, 0),
            (1, 1),
            (0, 2),
            (0, 1),
        ]

    def test_unit_constructor(self):
        assert Monomial.unit(3, 1).exponents == (0, 1, 0)

    def test_str(self):
        assert str(Monomial((0, 2))) == "(0,2)"


# ---------------------------------------------------------------------------
# Ring operations vs oracle
# ---------------------------------------------------------------------------


class TestRingOps:
    def test_zero_coefficients_dropped(self):
        p = Polynomial(2, {Monomial((1, 0)): Fraction(0), Monomial((0, 1)): 1})
        assert Monomial((1, 0)) not in p.terms
        assert p.terms[Monomial((0, 1))] == 1

    def test_merge_on_construction(self):
        p = Polynomial(2, {(1, 0): Fraction(1, 2)}) + Polynomial(
            2, {(1, 0): Fraction(1, 2)}
        )
        assert p.terms[Monomial((1, 0))] == 1

    @given(poly_dicts(2), poly_dicts(2))
    def test_add_matches_oracle(self, a, b):
        got = from_dict(2, a) + from_dict(2, b)
        assert to_dict(got) == o_add(a, b)

    @given(poly_dicts(2), poly_dicts(2))
    def test_sub_matches_oracle(self, a, b):
        neg_b = {k: -v for k, v in b.items()}
        got = from_dict(2, a) - from_dict(2, b)
        assert to_dict(got) == o_add(a, neg_b)

    @settings(max_examples=60)
    @given(poly_dicts(2, max_degree=3, max_terms=4), poly_dicts(2, max_degree=3, max_terms=4))
    def test_mul_matches_oracle(self, a, b):
        got = from_dict(2, a) * from_dict(2, b)
        assert to_dict(got) == o_mul(a, b, 2)

    @given(poly_dicts(2))
    def test_scalar_mul(self, a):
        got = from_dict(2, a) * Fraction(3, 7)
        assert to_dict(got) == {k: v * Fraction(3, 7) for k, v in a.items()}

    @given(poly_dicts(2, max_degree=2, max_terms=3))
    def test_pow_is_repeated_mul(self, a):
        p = from_dict(2, a)
        assert p**3 == p * p * p
        assert p**0 == Polynomial.constant(2, 1)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Polynomial.variable(2, 0) + Polynomial.variable(3, 0)

    def test_immutable(self):
        p = Polynomial.variable(2, 0)
        with pytest.raises(AttributeError):
            p.dimension = 5


# ---------------------------------------------------------------------------
# Exact p-th roots
# ---------------------------------------------------------------------------


BIG = "1099511627776*x1 + 717897987691852588770249/40353607"


class TestRoot:
    names = ("x1", "x2")

    @settings(max_examples=60)
    @given(poly_dicts(2, max_degree=3, max_terms=4), st.integers(min_value=1, max_value=4))
    def test_root_of_a_power_is_that_polynomial_up_to_sign(self, a, p):
        q = from_dict(2, a)
        root = (q**p).root(p)
        assert root in (q, -q)
        if p % 2 == 0 and not q.is_zero():
            assert root.sorted_terms()[0][1] > 0
        else:
            assert root == q

    @settings(max_examples=60)
    @given(poly_dicts(2, max_degree=3, max_terms=4))
    def test_a_square_plus_one_is_no_square(self, a):
        # (R - Q)(R + Q) = 1 forces both to be constants.
        q = from_dict(2, a)
        if q.degree > 0:
            assert (q**2 + Polynomial.constant(2, 1)).root(2) is None

    @pytest.mark.parametrize(
        "text, p, want",
        [
            ("x1^2 - 5", 2, None),
            ("x1", 2, None),
            ("x1^3", 2, None),
            ("x1^2 + x1", 2, None),
            ("2*x1^2", 2, None),
            ("-x1^2", 2, None),
            ("(x1 - x2)^2", 4, None),
            ("4/9*x1^2*x2^4", 2, "2/3*x1*x2^2"),
            ("(x1 - x2)^2", 2, "x1 - x2"),
            ("(x1^2 + 1/3*x2 - 2)^4", 4, "x1^2 + 1/3*x2 - 2"),
            ("-(x1 + x2)^3", 3, "-x1 - x2"),
            # 2^40*x1 + 3^50/7^9: roots wider than the 53 bits of a float
            (f"({BIG})^6", 6, BIG),
        ],
    )
    def test_examples(self, text, p, want):
        root = parse_polynomial(text, self.names).root(p)
        assert (root if root is None else root.to_text(self.names)) == want

    @pytest.mark.parametrize("p", [0, -2, 1.0])
    def test_degree_must_be_a_positive_integer(self, p):
        with pytest.raises(ValueError):
            Polynomial.variable(2, 0).root(p)


# ---------------------------------------------------------------------------
# Parsing and printing
# ---------------------------------------------------------------------------


class TestParse:
    names = ("x1", "x2")

    def parse(self, text):
        return parse_polynomial(text, self.names)

    def test_basic_terms(self):
        assert self.parse("x1") == Polynomial.variable(2, 0)
        assert self.parse("-x1") == -Polynomial.variable(2, 0)
        assert self.parse("2*x1 + 3*x2") == from_dict(
            2, {(1, 0): Fraction(2), (0, 1): Fraction(3)}
        )

    def test_power_and_product(self):
        assert self.parse("x1^2*x2") == from_dict(2, {(2, 1): Fraction(1)})

    def test_integer_fraction_literal(self):
        assert self.parse("3/4*x1") == from_dict(2, {(1, 0): Fraction(3, 4)})
        assert self.parse("-11/8") == Polynomial.constant(2, Fraction(-11, 8))

    def test_decimal_literal_is_exact(self):
        assert self.parse("0.3*x1") == from_dict(2, {(1, 0): Fraction(3, 10)})
        assert self.parse("1.25") == Polynomial.constant(2, Fraction(5, 4))

    def test_parenthesized_power(self):
        got = self.parse("(x1 - x2)^2")
        want = from_dict(
            2, {(2, 0): Fraction(1), (1, 1): Fraction(-2), (0, 2): Fraction(1)}
        )
        assert got == want

    @settings(max_examples=40)
    @given(poly_dicts(2, max_degree=3, max_terms=3), st.integers(min_value=0, max_value=3))
    def test_paren_power_matches_repeated_mul(self, a, n):
        p = from_dict(2, a)
        text = f"({p.to_text(self.names)})^{n}"
        assert self.parse(text) == p**n

    def test_whitespace_insensitive(self):
        assert self.parse(" x1 ^ 2 * x2 ") == self.parse("x1^2*x2")

    def test_unknown_variable(self):
        with pytest.raises(ParseError):
            self.parse("x3 + 1")

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ParseError):
            self.parse("2x1")

    def test_division_by_variable_rejected(self):
        with pytest.raises(ParseError):
            self.parse("x1/2")

    def test_division_by_zero_rejected(self):
        with pytest.raises(ParseError):
            self.parse("1/0")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as info:
            self.parse("x1 + @")
        assert info.value.position == 5

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError):
            self.parse("")

    def test_unbalanced_paren_rejected(self):
        with pytest.raises(ParseError):
            self.parse("(x1 + x2")

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("1.", "malformed number '1.'"),
            (".5", "malformed number '.5'"),
            ("1/x1", "division is only allowed between integer literals"),
            ("0.5/2", "division is only allowed between integer literals"),
            ("x1^y", "exponent must be a non-negative integer"),
            ("x1)", "unexpected ')'"),
            ("x1^2^3", "unexpected '^'"),
        ],
    )
    def test_error_messages(self, text, fragment):
        with pytest.raises(ParseError, match=re.escape(fragment)):
            self.parse(text)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            parse_polynomial("a", ("a", "a"))

    @settings(max_examples=60)
    @given(poly_dicts(2))
    def test_to_text_round_trip(self, a):
        p = from_dict(2, a)
        assert self.parse(p.to_text(self.names)) == p

    def test_to_text_examples(self):
        p = from_dict(2, {(2, 1): Fraction(-3, 4), (0, 0): Fraction(1)})
        text = p.to_text(self.names)
        assert self.parse(text) == p

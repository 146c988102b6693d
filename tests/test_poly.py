"""Polynomial arithmetic against an independent dense oracle."""

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sdemoments.model as model_module
from sdemoments.model import load_model_file
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


def variable(dim: int, var: int) -> Polynomial:
    return Polynomial.monomial(Monomial.unit(dim, var))


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
            variable(2, 0) + variable(3, 0)

    def test_immutable(self):
        p = variable(2, 0)
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
            variable(2, 0).root(p)


# ---------------------------------------------------------------------------
# Parsing and printing
# ---------------------------------------------------------------------------


class TestParse:
    names = ("x1", "x2")

    def parse(self, text):
        return parse_polynomial(text, self.names)

    def test_basic_terms(self):
        assert self.parse("x1") == variable(2, 0)
        assert self.parse("-x1") == -variable(2, 0)
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


# ---------------------------------------------------------------------------
# The term-dict parser against the Polynomial-building parser it replaced
# ---------------------------------------------------------------------------
#
# A reference copy of that parser: one `Polynomial` per atom and per operator.
# It builds a variable as Polynomial.monomial(Monomial.unit(...)), which is
# equal to the removed Polynomial.variable.

REFERENCE_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+\.\d+|\d+\.?|\.\d+)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class RefToken:
    kind: str
    text: str
    pos: int


def ref_tokenize(src: str) -> list[RefToken]:
    tokens: list[RefToken] = []
    pos = 0
    while pos < len(src):
        match = REFERENCE_TOKEN_RE.match(src, pos)
        if match is None:
            raise ParseError(f"unexpected character {src[pos]!r}", pos)
        if match.lastgroup == "number":
            text = match.group()
            if text.endswith(".") or text.startswith("."):
                raise ParseError(f"malformed number {text!r}", pos)
            kind = "decimal" if "." in text else "int"
            tokens.append(RefToken(kind, text, pos))
        elif match.lastgroup == "ident":
            tokens.append(RefToken("ident", match.group(), pos))
        elif match.lastgroup == "op":
            tokens.append(RefToken(match.group(), match.group(), pos))
        pos = match.end()
    tokens.append(RefToken("end", "", len(src)))
    return tokens


def ref_add(p, q):
    """Polynomial.__add__ as that parser had it, so the term order it gives is the reference's own."""
    out = dict(p.terms)
    for mono, coeff in q.terms.items():
        acc = out.get(mono)
        total = coeff if acc is None else acc + coeff
        if total:
            out[mono] = total
        elif acc is not None:
            del out[mono]
    return Polynomial._raw(p.dimension, out)


class RefParser:
    def __init__(self, src, names):
        self.names = {name: i for i, name in enumerate(names)}
        self.dimension = len(names)
        self.tokens = ref_tokenize(src)
        self.index = 0

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.pos)
        return self.advance()

    def parse(self):
        result = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r}", tok.pos)
        return result

    def expr(self):
        result = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs = self.term()
            result = ref_add(result, rhs if op.kind == "+" else -rhs)
        return result

    def term(self):
        result = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "*":
                self.advance()
                result = result * self.factor()
            elif tok.kind == "/":
                raise ParseError("division is only allowed between integer literals", tok.pos)
            elif tok.kind in ("ident", "int", "decimal", "("):
                raise ParseError(
                    f"unexpected {tok.text!r}; multiplication must be written with '*'", tok.pos
                )
            else:
                return result

    def factor(self):
        if self.peek().kind == "-":
            self.advance()
            return -self.atom()
        return self.atom()

    def atom(self):
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            numerator = int(tok.text)
            if self.peek().kind == "/":
                slash = self.advance()
                denom_tok = self.peek()
                if denom_tok.kind != "int":
                    raise ParseError("division is only allowed between integer literals", slash.pos)
                self.advance()
                denominator = int(denom_tok.text)
                if denominator == 0:
                    raise ParseError("division by zero", denom_tok.pos)
                return Polynomial.constant(self.dimension, Fraction(numerator, denominator))
            return Polynomial.constant(self.dimension, Fraction(numerator))
        if tok.kind == "decimal":
            self.advance()
            if self.peek().kind == "/":
                raise ParseError("division is only allowed between integer literals", self.peek().pos)
            return Polynomial.constant(self.dimension, Fraction(tok.text))
        if tok.kind == "ident":
            self.advance()
            var = self.names.get(tok.text)
            if var is None:
                raise ParseError(f"unknown variable {tok.text!r}", tok.pos)
            return self._maybe_power(variable(self.dimension, var))
        if tok.kind == "(":
            self.advance()
            inner = self.expr()
            self.expect(")")
            return self._maybe_power(inner)
        raise ParseError(f"expected a number, variable, or '(', found {tok.text or 'end of input'!r}", tok.pos)

    def _maybe_power(self, base):
        if self.peek().kind != "^":
            return base
        self.advance()
        exp_tok = self.peek()
        if exp_tok.kind != "int":
            raise ParseError("exponent must be a non-negative integer", exp_tok.pos)
        self.advance()
        return base ** int(exp_tok.text)


NAMES = ("x1", "x2", "y")


def outcome(parse, text: str):
    """The Polynomial and its term order, or the ParseError's message and position."""
    try:
        poly = parse(text, NAMES)
    except ParseError as exc:
        return exc.message, exc.position
    return poly, list(poly.terms)


def both(text: str) -> tuple:
    return outcome(lambda src, names: RefParser(src, names).parse(), text), outcome(parse_polynomial, text)


SPACE = st.sampled_from(["", " ", "  ", "\t", "\n"])


def spaced(token):
    return st.tuples(SPACE, token, SPACE).map("".join)


NUMBERS = st.one_of(
    st.integers(0, 10**6).map(str),
    st.tuples(st.integers(0, 99), st.text("0123456789", min_size=1, max_size=6)).map(lambda t: f"{t[0]}.{t[1]}"),
    st.tuples(st.integers(0, 99), st.integers(1, 99)).map(lambda t: f"{t[0]}/{t[1]}"),
)
ATOMS = st.one_of(
    NUMBERS,
    st.tuples(st.sampled_from(NAMES), st.sampled_from(["", "^0", "^1", "^2", "^3"])).map("".join),
)


def _compound(inner):
    binary = st.tuples(inner, st.sampled_from(["+", "-", "*"]), inner).map("".join)
    power = st.tuples(inner, st.sampled_from(["0", "1", "2", "3"])).map(lambda t: f"({t[0]})^{t[1]}")
    return st.one_of(binary, inner.map(lambda e: f"({e})"), power, inner.map(lambda e: f"-({e})"))


EXPRESSIONS = st.recursive(spaced(ATOMS), lambda inner: spaced(_compound(inner)), max_leaves=8)


class TestReferenceParser:
    @settings(max_examples=300, deadline=None)
    @given(EXPRESSIONS)
    @example("(x1 + x2)^2 - (x1 - y)*(x1 + y)")  # products that collide and cancel
    @example("x1 - x1 + 0.5*y - 1/2*y + (x2 + 1)^3 - x2^3")
    def test_drawn_expressions_parse_to_the_reference_polynomial(self, text):
        want, got = both(text)
        assert isinstance(want[0], Polynomial), want  # every drawn expression is well formed
        assert got == want

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(["x1", "x2", "y", "z", "0", "7", "12", ".", "/", "^", "*", "+", "-",
                                     "(", ")", " ", "$", "2.5", "1."]), max_size=10).map("".join))
    def test_drawn_token_soup_meets_the_reference_verdict(self, text):
        want, got = both(text)
        assert got == want

    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("1/0", "division by zero", 2),
            ("x1 x2", "unexpected 'x2'; multiplication must be written with '*'", 3),
            ("2.", "malformed number '2.'", 0),
            ("(x1", "expected ')', found 'end of input'", 3),
            ("x1^-1", "exponent must be a non-negative integer", 3),
            ("1/x1", "division is only allowed between integer literals", 1),
            ("w", "unknown variable 'w'", 0),
            ("", "expected a number, variable, or '(', found 'end of input'", 0),
            ("   ", "expected a number, variable, or '(', found 'end of input'", 3),
            (".5", "malformed number '.5'", 0),
            ("x1 $ x2", "unexpected character '$'", 3),
            ("1/2/3", "division is only allowed between integer literals", 3),
            ("0.5/2", "division is only allowed between integer literals", 3),
            ("x1^y", "exponent must be a non-negative integer", 3),
            ("x1^1.5", "exponent must be a non-negative integer", 3),
            ("2^3", "unexpected '^'", 1),
            ("--x1", "expected a number, variable, or '(', found '-'", 1),
            ("+x1", "expected a number, variable, or '(', found '+'", 0),
            ("x1 +", "expected a number, variable, or '(', found 'end of input'", 4),
            ("(x1))", "unexpected ')'", 4),
            ("()", "expected a number, variable, or '(', found ')'", 1),
            ("x1^", "exponent must be a non-negative integer", 3),
            ("3 (x1)", "unexpected '('; multiplication must be written with '*'", 2),
            ("x1 ** 2", "expected a number, variable, or '(', found '*'", 4),
            ("1/ ", "division is only allowed between integer literals", 1),
            ("x1 + 1 + é", "unexpected character 'é'", 9),
            ("2.5.1", "malformed number '.1'", 3),
            ("1 . 5", "unexpected character '.'", 2),
        ],
    )
    def test_malformed_input_keeps_its_message_and_position(self, text, message, position):
        want, got = both(text)
        assert want == got == (message, position)


MODEL_FILES = sorted((Path(__file__).resolve().parents[1] / "benchmarks").glob("*.json")) + [
    p for p in sorted((Path(__file__).parent / "data").glob("*.json")) if "drift" in json.loads(p.read_text())
]


@pytest.mark.parametrize("path", MODEL_FILES, ids=[p.name for p in MODEL_FILES])
def test_model_files_load_as_with_the_reference_parser(path, monkeypatch):
    got = load_model_file(path)
    monkeypatch.setattr(model_module, "parse_polynomial", lambda src, names: RefParser(src, names).parse())
    want = load_model_file(path)
    assert got == want
    entries = [*got.drift, *(p for row in got.diffusion for p in row)]
    ref_entries = [*want.drift, *(p for row in want.diffusion for p in row)]
    assert [list(p.terms) for p in entries] == [list(p.terms) for p in ref_entries]

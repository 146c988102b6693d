"""Exact sparse multivariate polynomial arithmetic over the rationals.

Coefficients are `fractions.Fraction` throughout; nothing in this module ever
rounds.  A polynomial is a sparse map from exponent vectors to nonzero
coefficients, kept canonical at all times (no explicit zero terms).  The term
order used for printing and iteration is graded lexicographic: higher total
degree first, ties broken lexicographically on the exponent vector.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import total_ordering
from typing import Iterator, Mapping, Sequence, Union

Scalar = Union[int, Fraction]


class ParseError(ValueError):
    """Syntax or vocabulary error in a polynomial expression.

    `position` is the 0-based character offset of the offending token.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


@total_ordering
@dataclass(frozen=True, slots=True)
class Monomial:
    """Exponent vector of a power product x1^e1 * ... * xn^en."""

    exponents: tuple[int, ...]
    _hash: int = field(init=False, repr=False, compare=False)  # hash((exponents,)), once

    def __post_init__(self) -> None:
        if not isinstance(self.exponents, tuple):
            object.__setattr__(self, "exponents", tuple(self.exponents))
        for e in self.exponents:
            if not isinstance(e, int) or e < 0:
                raise ValueError(f"exponents must be non-negative integers, got {self.exponents!r}")
        object.__setattr__(self, "_hash", hash((self.exponents,)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def dimension(self) -> int:
        return len(self.exponents)

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    def __mul__(self, other: "Monomial") -> "Monomial":
        self._check_dim(other)
        return Monomial(tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def __lt__(self, other: "Monomial") -> bool:
        # Graded lexicographic: total degree first, then the exponent tuple.
        self._check_dim(other)
        return (self.degree, self.exponents) < (other.degree, other.exponents)

    def _check_dim(self, other: "Monomial") -> None:
        if self.dimension != other.dimension:
            raise ValueError(f"dimension mismatch: {self.dimension} vs {other.dimension}")

    def __iter__(self) -> Iterator[int]:
        return iter(self.exponents)

    @classmethod
    def _trusted(cls, exponents: tuple[int, ...]) -> "Monomial":
        # Internal fast path: `exponents` is already a tuple of non-negative ints.
        obj = object.__new__(cls)
        object.__setattr__(obj, "exponents", exponents)
        object.__setattr__(obj, "_hash", hash((exponents,)))
        return obj

    @staticmethod
    def constant(dimension: int) -> "Monomial":
        return Monomial((0,) * dimension)

    @staticmethod
    def unit(dimension: int, var: int, power: int = 1) -> "Monomial":
        if not 0 <= var < dimension:
            raise IndexError(f"variable index {var} out of range for dimension {dimension}")
        exps = [0] * dimension
        exps[var] = power
        return Monomial(tuple(exps))

    def __str__(self) -> str:
        return "(" + ",".join(str(e) for e in self.exponents) + ")"


def _as_fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


TermsLike = Mapping[Union[Monomial, tuple[int, ...]], Scalar]


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("dimension", "terms", "_hash")

    def __init__(self, dimension: int, terms: TermsLike | None = None):
        if dimension < 0:
            raise ValueError("dimension must be non-negative")
        canonical: dict[Monomial, Fraction] = {}
        if terms:
            for key, coeff in terms.items():
                mono = key if isinstance(key, Monomial) else Monomial(tuple(key))
                if mono.dimension != dimension:
                    raise ValueError(
                        f"monomial {mono} has dimension {mono.dimension}, expected {dimension}"
                    )
                c = _as_fraction(coeff)
                if c:
                    acc = canonical.get(mono)
                    total = c if acc is None else acc + c
                    if total:
                        canonical[mono] = total
                    elif acc is not None:
                        del canonical[mono]
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "terms", canonical)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(dimension: int) -> "Polynomial":
        return Polynomial(dimension)

    @staticmethod
    def constant(dimension: int, value: Scalar) -> "Polynomial":
        return Polynomial(dimension, {Monomial.constant(dimension): value})

    @staticmethod
    def variable(dimension: int, var: int) -> "Polynomial":
        return Polynomial(dimension, {Monomial.unit(dimension, var): 1})

    @staticmethod
    def monomial(mono: Monomial, coeff: Scalar = 1) -> "Polynomial":
        return Polynomial(mono.dimension, {mono: coeff})

    # -- predicates and views ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        """Total degree; the zero polynomial reports 0."""
        return max((m.degree for m in self.terms), default=0)

    def coefficient(self, mono: Monomial) -> Fraction:
        return self.terms.get(mono, Fraction(0))

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in descending graded lexicographic order."""
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    # -- ring operations ----------------------------------------------------

    def _check_dim(self, other: "Polynomial") -> None:
        if self.dimension != other.dimension:
            raise ValueError(f"dimension mismatch: {self.dimension} vs {other.dimension}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_dim(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = out.get(mono)
            total = coeff if acc is None else acc + coeff
            if total:
                out[mono] = total
            elif acc is not None:
                del out[mono]
        return self._raw(self.dimension, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return self._raw(self.dimension, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_dim(other)
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = m1 * m2
                acc = out.get(mono)
                total = c1 * c2 if acc is None else acc + c1 * c2
                if total:
                    out[mono] = total
                elif acc is not None:
                    del out[mono]
        return self._raw(self.dimension, out)

    __rmul__ = __mul__

    def scale(self, factor: Scalar) -> "Polynomial":
        f = _as_fraction(factor)
        if not f:
            return Polynomial.zero(self.dimension)
        return self._raw(self.dimension, {m: c * f for m, c in self.terms.items()})

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial power requires a non-negative integer exponent")
        result = Polynomial.constant(self.dimension, 1)
        for _ in range(exponent):
            result = result * self
        return result

    def partial(self, var: int) -> "Polynomial":
        """Partial derivative with respect to variable index `var` (0-based)."""
        if not 0 <= var < self.dimension:
            raise IndexError(f"variable index {var} out of range for dimension {self.dimension}")
        out: dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            e = mono.exponents[var]
            if e:
                lowered = list(mono.exponents)
                lowered[var] = e - 1
                out[Monomial(tuple(lowered))] = coeff * e
        return self._raw(self.dimension, out)

    def eval(self, point: Sequence[Scalar]) -> Fraction:
        """Exact evaluation at a rational point."""
        if len(point) != self.dimension:
            raise ValueError(f"point has length {len(point)}, expected {self.dimension}")
        values = [_as_fraction(x) for x in point]
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            term = coeff
            for x, e in zip(values, mono.exponents):
                if e:
                    term *= x**e
            total += term
        return total

    @classmethod
    def _raw(cls, dimension: int, terms: dict[Monomial, Fraction]) -> "Polynomial":
        # Internal fast path: `terms` is already canonical.
        obj = object.__new__(cls)
        object.__setattr__(obj, "dimension", dimension)
        object.__setattr__(obj, "terms", terms)
        object.__setattr__(obj, "_hash", None)
        return obj

    # -- equality, hashing, text --------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.dimension == other.dimension and self.terms == other.terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.dimension, tuple(self.sorted_terms())))
            object.__setattr__(self, "_hash", h)
        return h

    def to_text(self, names: Sequence[str] | None = None) -> str:
        """Canonical text form; round-trips through `parse_polynomial`."""
        if names is None:
            names = [f"x{i + 1}" for i in range(self.dimension)]
        elif len(names) != self.dimension:
            raise ValueError("wrong number of variable names")
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for mono, coeff in self.sorted_terms():
            factors = [
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(names, mono.exponents)
                if e
            ]
            magnitude = abs(coeff)
            if not factors:
                body = str(magnitude)
            elif magnitude == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(magnitude)] + factors)
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"Polynomial({self.dimension}, {{{', '.join(f'{m}: {c}' for m, c in self.sorted_terms())}}})"


# -- parsing ----------------------------------------------------------------
#
# Grammar (whitespace insignificant, '*' always explicit):
#   expr   := term (("+" | "-") term)*
#   term   := factor ("*" factor)*
#   factor := ["-"] atom
#   atom   := number | ident ["^" uint] | "(" expr ")" ["^" uint]
#   number := uint ["." digits] | uint "/" uint
#
# "/" is only legal between two integer literals; decimals are exact
# (e.g. "0.3" means 3/10).

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+\.\d+|\d+\.?|\.\d+)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # "int", "decimal", "ident", one of "+-*/^()", or "end"
    text: str
    pos: int


def _tokenize(src: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(src):
        match = _TOKEN_RE.match(src, pos)
        if match is None:
            raise ParseError(f"unexpected character {src[pos]!r}", pos)
        if match.lastgroup == "number":
            text = match.group()
            if text.endswith(".") or text.startswith("."):
                raise ParseError(f"malformed number {text!r}", pos)
            kind = "decimal" if "." in text else "int"
            tokens.append(_Token(kind, text, pos))
        elif match.lastgroup == "ident":
            tokens.append(_Token("ident", match.group(), pos))
        elif match.lastgroup == "op":
            tokens.append(_Token(match.group(), match.group(), pos))
        pos = match.end()
    tokens.append(_Token("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str, names: Sequence[str]):
        self.src = src
        self.names = {name: i for i, name in enumerate(names)}
        self.dimension = len(names)
        self.tokens = _tokenize(src)
        self.index = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.pos)
        return self.advance()

    def parse(self) -> Polynomial:
        result = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            if tok.kind == "/":
                raise ParseError("division is only allowed between integer literals", tok.pos)
            if tok.kind in ("ident", "int", "decimal"):
                raise ParseError(
                    f"unexpected {tok.text!r}; multiplication must be written with '*'", tok.pos
                )
            raise ParseError(f"unexpected {tok.text!r}", tok.pos)
        return result

    def expr(self) -> Polynomial:
        result = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs = self.term()
            result = result + rhs if op.kind == "+" else result - rhs
        return result

    def term(self) -> Polynomial:
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

    def factor(self) -> Polynomial:
        if self.peek().kind == "-":
            self.advance()
            return -self.atom()
        return self.atom()

    def atom(self) -> Polynomial:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            numerator = int(tok.text)
            if self.peek().kind == "/":
                slash = self.advance()
                denom_tok = self.peek()
                if denom_tok.kind != "int":
                    raise ParseError(
                        "division is only allowed between integer literals", slash.pos
                    )
                self.advance()
                denominator = int(denom_tok.text)
                if denominator == 0:
                    raise ParseError("division by zero", denom_tok.pos)
                return Polynomial.constant(self.dimension, Fraction(numerator, denominator))
            return Polynomial.constant(self.dimension, Fraction(numerator))
        if tok.kind == "decimal":
            self.advance()
            if self.peek().kind == "/":
                raise ParseError(
                    "division is only allowed between integer literals", self.peek().pos
                )
            return Polynomial.constant(self.dimension, Fraction(tok.text))
        if tok.kind == "ident":
            self.advance()
            var = self.names.get(tok.text)
            if var is None:
                raise ParseError(f"unknown variable {tok.text!r}", tok.pos)
            base = Polynomial.variable(self.dimension, var)
            return self._maybe_power(base)
        if tok.kind == "(":
            self.advance()
            inner = self.expr()
            self.expect(")")
            return self._maybe_power(inner)
        raise ParseError(f"expected a number, variable, or '(', found {tok.text or 'end of input'!r}", tok.pos)

    def _maybe_power(self, base: Polynomial) -> Polynomial:
        if self.peek().kind != "^":
            return base
        self.advance()
        exp_tok = self.peek()
        if exp_tok.kind != "int":
            raise ParseError("exponent must be a non-negative integer", exp_tok.pos)
        self.advance()
        return base ** int(exp_tok.text)


def parse_polynomial(src: str, variables: Sequence[str]) -> Polynomial:
    """Parse `src` into a Polynomial over the given variable names.

    Raises ParseError (with a character position) for syntax errors, unknown
    variables, negative or fractional exponents, and division by anything
    other than an integer literal.
    """
    seen = set()
    for name in variables:
        if name in seen:
            raise ValueError(f"duplicate variable name {name!r}")
        seen.add(name)
    return _Parser(src, variables).parse()

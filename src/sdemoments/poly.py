"""Exact sparse multivariate polynomial arithmetic over the rationals.

Coefficients are `fractions.Fraction` throughout; nothing in this module ever
rounds.  A polynomial is a sparse map from exponent vectors to nonzero
coefficients, kept canonical at all times (no explicit zero terms).  The term
order used for printing and iteration is graded lexicographic: higher total
degree first, ties broken lexicographically on the exponent vector.  The
parser works on plain {exponent tuple: int or Fraction} dicts and builds one
Polynomial per expression, not one per atom or operator.
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
        return Monomial._trusted(tuple([a + b for a, b in zip(self.exponents, other.exponents)]))

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
        return Monomial._trusted((0,) * dimension)

    @staticmethod
    def unit(dimension: int, var: int) -> "Monomial":
        if not 0 <= var < dimension:
            raise IndexError(f"variable index {var} out of range for dimension {dimension}")
        exps = [0] * dimension
        exps[var] = 1
        return Monomial._trusted(tuple(exps))

    def __str__(self) -> str:
        return "(" + ",".join(str(e) for e in self.exponents) + ")"


def _as_fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


def _iroot(n: int, p: int) -> int:
    """The floor of n^(1/p) for n >= 1, by integer Newton steps from above."""
    x = 1 << -(-n.bit_length() // p)  # above n^(1/p)
    while (y := ((p - 1) * x + n // x ** (p - 1)) // p) < x:
        x = y
    return x


def _merge(acc: dict, terms: Mapping) -> None:
    """acc += terms, in place, dropping the terms that cancel."""
    for mono, coeff in terms.items():
        prev = acc.get(mono)
        total = coeff if prev is None else prev + coeff
        if total:
            acc[mono] = total
        elif prev is not None:
            del acc[mono]


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
        c = _as_fraction(value)
        return Polynomial._raw(dimension, {Monomial.constant(dimension): c} if c else {})

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
        _merge(out, other.terms)
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

    def root(self, p: int) -> "Polynomial | None":
        """The Q with Q^p == self, its leading coefficient positive for even p,
        or None when self is no p-th power in Q[x].  Q is built from the leading
        term down, one term per step, and returned only once Q^p is exactly self."""
        if not isinstance(p, int) or p < 1:
            raise ValueError("root requires a positive integer degree")
        if self.is_zero():
            return self
        top, c = max(self.terms.items())
        if c < 0 and p % 2 == 0:
            return None
        last = Monomial(tuple(e // p for e in top.exponents))
        lead = Fraction(_iroot(abs(c.numerator), p), _iroot(c.denominator, p))
        q = Polynomial.monomial(last, lead if c > 0 else -lead)
        # Each next term of Q is the residual's leading term over p * lead^(p-1).
        [(shift, d)] = (q ** (p - 1) * p).terms.items()
        while not (rest := self - q**p).is_zero():
            mono, c = max(rest.terms.items())
            exps = tuple(a - b for a, b in zip(mono.exponents, shift.exponents))
            if any(e < 0 for e in exps) or not Monomial(exps) < last:
                return None  # terms must strictly decrease, so the loop ends
            last = Monomial(exps)
            q += Polynomial.monomial(last, c / d)
        return q

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
# (e.g. "0.3" means 3/10).  Tokens are (kind, text, position) tuples; each
# rule returns a term dict {exponent tuple: nonzero int or Fraction}, its terms
# in the order Polynomial's own operators would give them.  Integer literals
# and variables stay ints, so most coefficient arithmetic is int arithmetic.

_TOKEN_RE = re.compile(
    r"""
    \s*(?:
    (?P<number>\d+\.\d+|\d+\.?|\.\d+)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()])
  | (?P<bad>\S)
    )""",
    re.VERBOSE,
)

Terms = dict[tuple[int, ...], Scalar]


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) per token: kind is "int", "decimal", "ident",
    one of "+-*/^()", or "end" for the closing token."""
    tokens = []
    for match in _TOKEN_RE.finditer(src):  # trailing whitespace matches nothing
        kind = match.lastgroup
        text, pos = match[kind], match.start(kind)
        if kind == "number":
            if text.endswith(".") or text.startswith("."):
                raise ParseError(f"malformed number {text!r}", pos)
            tokens.append(("decimal" if "." in text else "int", text, pos))
        elif kind == "ident":
            tokens.append((kind, text, pos))
        elif kind == "op":
            tokens.append((text, text, pos))
        else:
            raise ParseError(f"unexpected character {text!r}", pos)
    tokens.append(("end", "", len(src)))
    return tokens


def _negated(terms: Terms) -> Terms:
    return {mono: -coeff for mono, coeff in terms.items()}


def _times(a: Terms, b: Terms) -> Terms:
    """a * b, dropping the terms that cancel."""
    out: Terms = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = tuple([x + y for x, y in zip(m1, m2)])
            prev = out.get(mono)
            total = c1 * c2 if prev is None else prev + c1 * c2
            if total:
                out[mono] = total
            elif prev is not None:
                del out[mono]
    return out


class _Parser:
    def __init__(self, src: str, names: dict[str, int]):
        self.names = names
        self.zero = (0,) * len(names)
        self.tokens = _tokenize(src)
        self.index = 0

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def parse(self) -> Terms:
        result = self.expr()
        kind, text, pos = self.tokens[self.index]
        if kind != "end":  # expr() stops only at ")", "^" or the end
            raise ParseError(f"unexpected {text!r}", pos)
        return result

    def expr(self) -> Terms:
        result = self.term()
        while (kind := self.tokens[self.index][0]) in ("+", "-"):
            self.index += 1
            _merge(result, self.term() if kind == "+" else _negated(self.term()))
        return result

    def term(self) -> Terms:
        result = self.factor()
        while True:
            kind, text, pos = self.tokens[self.index]
            if kind == "*":
                self.index += 1
                result = _times(result, self.factor())
            elif kind == "/":
                raise ParseError("division is only allowed between integer literals", pos)
            elif kind in ("ident", "int", "decimal", "("):
                raise ParseError(f"unexpected {text!r}; multiplication must be written with '*'", pos)
            else:
                return result

    def factor(self) -> Terms:
        if self.tokens[self.index][0] == "-":
            self.index += 1
            return _negated(self.atom())
        return self.atom()

    def atom(self) -> Terms:
        kind, text, pos = self.advance()
        if kind == "int":
            value: Scalar = int(text)
            if self.tokens[self.index][0] == "/":
                slash_pos = self.advance()[2]
                denom_kind, denom_text, denom_pos = self.advance()
                if denom_kind != "int":
                    raise ParseError("division is only allowed between integer literals", slash_pos)
                if not int(denom_text):
                    raise ParseError("division by zero", denom_pos)
                value = Fraction(value, int(denom_text))
            return {self.zero: value} if value else {}
        if kind == "decimal":
            if self.tokens[self.index][0] == "/":
                raise ParseError("division is only allowed between integer literals", self.tokens[self.index][2])
            whole, digits = text.split(".")
            value = Fraction(int(whole + digits), 10 ** len(digits))
            return {self.zero: value} if value else {}
        if kind == "ident":
            var = self.names.get(text)
            if var is None:
                raise ParseError(f"unknown variable {text!r}", pos)
            unit = list(self.zero)
            unit[var] = 1
            return self._maybe_power({tuple(unit): 1})
        if kind == "(":
            inner = self.expr()
            close_kind, close_text, close_pos = self.tokens[self.index]
            if close_kind != ")":
                raise ParseError(f"expected ')', found {close_text or 'end of input'!r}", close_pos)
            self.index += 1
            return self._maybe_power(inner)
        raise ParseError(f"expected a number, variable, or '(', found {text or 'end of input'!r}", pos)

    def _maybe_power(self, base: Terms) -> Terms:
        if self.tokens[self.index][0] != "^":
            return base
        self.index += 1
        kind, text, pos = self.tokens[self.index]
        if kind != "int":
            raise ParseError("exponent must be a non-negative integer", pos)
        self.index += 1
        if len(base) == 1:  # one term: no product cancels
            [(mono, coeff)] = base.items()
            return {tuple([e * int(text) for e in mono]): coeff ** int(text)}
        result: Terms = {self.zero: 1}
        for _ in range(int(text)):
            result = _times(result, base)
        return result


def parse_polynomial(src: str, variables: Sequence[str]) -> Polynomial:
    """Parse `src` into a Polynomial over the given variable names.

    Raises ParseError (with a character position) for syntax errors, unknown
    variables, negative or fractional exponents, and division by anything
    other than an integer literal.
    """
    names: dict[str, int] = {}
    for i, name in enumerate(variables):
        if names.setdefault(name, i) != i:
            raise ValueError(f"duplicate variable name {name!r}")
    terms = _Parser(src, names).parse()
    return Polynomial._raw(len(names), {Monomial._trusted(mono): _as_fraction(c) for mono, c in terms.items()})

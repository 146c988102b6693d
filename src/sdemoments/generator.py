"""Infinitesimal generator of a polynomial diffusion, applied to monomials.

For dX = b(X) dt + sigma(X) dW the generator acts on smooth f as

    A f = sum_i b_i d_i f + 1/2 sum_{i,j} (sigma sigma^T)_{ij} d_i d_j f.

Applied to a monomial x^beta the result is again a polynomial; splitting off
the constant term gives the row of the moment ODE system:

    d/dt E[X^beta] = sum_gamma a_{beta gamma} E[X^gamma] + c_beta.

The action on x^beta depends on beta only through integer factors, so each
model is compiled once into a table of actions, one per polynomial term:

    drift term c x^gamma of b_i                 c beta_i                 at beta - e_i + gamma
    term d x^gamma of (sigma sigma^T)_ii        d beta_i (beta_i - 1)/2  at beta - 2 e_i + gamma
    term d x^gamma of (sigma sigma^T)_ij, i<j   d beta_i beta_j          at beta - e_i - e_j + gamma

(the i<j entry counts twice because sigma sigma^T is symmetric).  Every
coefficient is an integer over one common denominator per model.  Monomials
are int codes: in a base B above every exponent, x^beta is deg(beta) B^n +
sum_v beta_v B^(n-1-v), so codes sort in graded-lex order and a term's key is
code(beta) plus its shift's code.  `apply` decodes these images to tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from math import lcm
from types import MappingProxyType
from typing import Mapping

from .model import SdeModel
from .poly import Monomial, Polynomial


@dataclass(frozen=True)
class GeneratorImage:
    """A x^beta = sum of numerators[gamma] / denominator * x^gamma.

    `numerators` holds the nonzero integer numerators, keyed by exponent
    tuple, the zero tuple for the constant term; `linear_part` (over the
    non-constant monomials) and `constant` are their `Fraction` views.
    """

    numerators: Mapping[tuple[int, ...], int]
    denominator: int

    @cached_property
    def linear_part(self) -> Mapping[Monomial, Fraction]:
        d = self.denominator
        return MappingProxyType(
            {Monomial._trusted(g): Fraction(v, d) for g, v in self.numerators.items() if any(g)}
        )

    @cached_property
    def constant(self) -> Fraction:
        return Fraction(sum(v for g, v in self.numerators.items() if not any(g)), self.denominator)

    def as_polynomial(self, dimension: int) -> Polynomial:
        d = self.denominator
        return Polynomial(dimension, {g: Fraction(v, d) for g, v in self.numerators.items()})


def diffusion_product(model: SdeModel) -> tuple[tuple[Polynomial, ...], ...]:
    """The n x n matrix sigma sigma^T, entry (i,j) = sum_k sigma_ik * sigma_jk,
    summed over the k at which both factors are nonzero."""
    n = model.dimension
    rows = [[Polynomial.zero(n)] * n for _ in range(n)]
    for k in range(model.brownian_dim):
        column = [(i, row[k]) for i, row in enumerate(model.diffusion) if not row[k].is_zero()]
        for i, s in column:
            for j, t in column:
                rows[i][j] = rows[i][j] + s * t
    return tuple(map(tuple, rows))


def encode(exponents: tuple[int, ...], base: int) -> int:
    """The code of an exponent or shift tuple; linear, so code(beta + shift) is a sum."""
    return reduce(lambda code, e: code * base + e, exponents, sum(exponents))


def decode(code: int, base: int, powers: list[int]) -> tuple[int, ...]:
    """The exponents (each below `base`) of a code; `powers` is [base**(n-1), ..., base, 1]."""
    return tuple([code // p % base for p in powers])


class Generator:
    """The generator of one model, compiled into an integer action table.

    Each action is (i, j, terms): the factor beta_i for a drift action
    (j = -1), beta_i (beta_i - 1)/2 for a diagonal diffusion action (j = i)
    and beta_i beta_j for an off-diagonal one (i < j); `terms` lists
    (shift, k) pairs, each adding factor * k / denominator at beta + shift.
    A nonzero factor keeps every exponent of beta + shift in [0, max(beta) +
    `reach`], where `reach` is the largest shift component (at least 0).
    """

    def __init__(self, model: SdeModel):
        self.model = model
        n = model.dimension
        ssT = diffusion_product(model)
        # (i, j, polynomial, the variables it differentiates)
        groups = [(i, -1, model.drift[i], (i,)) for i in range(n)]
        groups += [(i, j, ssT[i][j], (i, j)) for i in range(n) for j in range(i, n)]
        groups = [g for g in groups if not g[2].is_zero()]
        self.denominator = lcm(*(c.denominator for g in groups for c in g[2].terms.values()))
        actions = []
        for i, j, p, lowered in groups:
            terms = []
            for gamma, c in p.terms.items():
                shift = list(gamma.exponents)
                for v in lowered:
                    shift[v] -= 1
                terms.append((tuple(shift), c.numerator * (self.denominator // c.denominator)))
            actions.append((i, j, tuple(terms)))
        self._actions = tuple(actions)
        self.reach = max([0, *(x for _, _, terms in actions for shift, _ in terms for x in shift)])

    def coded(self, base: int) -> list:
        """The action table with each shift replaced by its code in `base`."""
        return [(i, j, tuple((encode(s, base), k) for s, k in ts)) for i, j, ts in self._actions]

    def image(self, e: tuple[int, ...], code: int, table: list) -> dict[int, int]:
        """A x^e's nonzero numerators by code; `code` is e's in the base of `table`."""
        acc: dict[int, int] = {}
        get = acc.get
        for i, j, terms in table:
            if j < 0:
                factor = e[i]
            elif i == j:
                factor = e[i] * (e[i] - 1) // 2
            else:
                factor = e[i] * e[j]
            if factor:
                for offset, k in terms:
                    key = code + offset
                    acc[key] = get(key, 0) + factor * k
        return {key: v for key, v in acc.items() if v} if 0 in acc.values() else acc

    def apply(self, beta: Monomial) -> GeneratorImage:
        n = self.model.dimension
        if beta.dimension != n:
            raise ValueError(f"monomial {beta} has dimension {beta.dimension}, model has {n}")
        e = beta.exponents
        base = max(e) + self.reach + 1
        image = self.image(e, encode(e, base), self.coded(base))
        powers = [base ** (n - 1 - v) for v in range(n)]
        numerators = {decode(key, base, powers): v for key, v in image.items()}
        return GeneratorImage(MappingProxyType(numerators), self.denominator)

    def apply_polynomial(self, p: Polynomial) -> Polynomial:
        """Extension of A to polynomials by linearity."""
        acc = Polynomial.zero(p.dimension)
        for mono, coeff in p.terms.items():
            acc = acc + coeff * self.apply(mono).as_polynomial(p.dimension)
        return acc


def apply_generator(model: SdeModel, beta: Monomial) -> GeneratorImage:
    return Generator(model).apply(beta)

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
coefficient is kept as an integer over one common denominator per model, and
an image is those integer numerators keyed by exponent tuple: the closure
works on them directly, and `Fraction`s and `Monomial`s are made only where
the moment system is built, or when a caller reads `linear_part`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import add
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
    """The n x n matrix sigma sigma^T, entry (i,j) = sum_k sigma_ik * sigma_jk."""
    n = model.dimension
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = Polynomial.zero(n)
            for k in range(model.brownian_dim):
                acc = acc + model.diffusion[i][k] * model.diffusion[j][k]
            row.append(acc)
        rows.append(tuple(row))
    return tuple(rows)


class Generator:
    """The generator of one model, compiled into an integer action table.

    Each action is (i, j, terms): the factor beta_i for a drift action
    (j = -1), beta_i (beta_i - 1)/2 for a diagonal diffusion action (j = i)
    and beta_i beta_j for an off-diagonal one (i < j); `terms` lists
    (shift, k) pairs, each adding factor * k / denominator at beta + shift.
    A nonzero factor keeps beta + shift non-negative.
    """

    def __init__(self, model: SdeModel):
        self.model = model
        n = model.dimension
        ssT = diffusion_product(model)
        # (i, j, polynomial, the variables it differentiates)
        groups = [(i, -1, model.drift[i], (i,)) for i in range(n)]
        groups += [(i, j, ssT[i][j], (i, j)) for i in range(n) for j in range(i, n)]
        groups = [g for g in groups if not g[2].is_zero()]
        self._denominator = lcm(*(c.denominator for g in groups for c in g[2].terms.values()))
        actions = []
        for i, j, p, lowered in groups:
            terms = []
            for gamma, c in p.terms.items():
                shift = list(gamma.exponents)
                for v in lowered:
                    shift[v] -= 1
                terms.append((tuple(shift), c.numerator * (self._denominator // c.denominator)))
            actions.append((i, j, tuple(terms)))
        self._actions = tuple(actions)

    def apply(self, beta: Monomial) -> GeneratorImage:
        n = self.model.dimension
        if beta.dimension != n:
            raise ValueError(f"monomial {beta} has dimension {beta.dimension}, model has {n}")
        e = beta.exponents
        acc: dict[tuple[int, ...], int] = {}
        get = acc.get
        for i, j, terms in self._actions:
            if j < 0:
                factor = e[i]
            elif i == j:
                factor = e[i] * (e[i] - 1) // 2
            else:
                factor = e[i] * e[j]
            if factor:
                for shift, k in terms:
                    key = tuple(map(add, e, shift))
                    acc[key] = get(key, 0) + factor * k
        numerators = {key: v for key, v in acc.items() if v}
        return GeneratorImage(MappingProxyType(numerators), self._denominator)

    def apply_polynomial(self, p: Polynomial) -> Polynomial:
        """Extension of A to polynomials by linearity."""
        acc = Polynomial.zero(p.dimension)
        for mono, coeff in p.terms.items():
            acc = acc + coeff * self.apply(mono).as_polynomial(p.dimension)
        return acc


def apply_generator(model: SdeModel, beta: Monomial) -> GeneratorImage:
    return Generator(model).apply(beta)

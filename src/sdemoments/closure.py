"""Moment closure: the worklist construction of the closed linear moment ODE.

Starting from a target exponent vector alpha, repeatedly apply the generator
to every discovered monomial and enqueue any new monomials appearing in the
image.  If the process closes, the result is the finite linear system

    d/dt m(t) = A m(t) + c,      m(0) from the initial condition,

over the ordered index set S = [alpha, ...].  If the model is not closeable
for alpha (e.g. a cubic drift feeding back into its own variable), the set
grows forever; a budget turns that into a DivergenceReport with a witness
chain of strictly increasing degrees.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Sequence, TextIO

from .generator import Generator, GeneratorImage
from .model import SdeModel, initial_moment
from .poly import Monomial


@dataclass(frozen=True)
class ClosureBudget:
    """Caps that convert non-termination into a reported divergence."""

    max_monomials: int = 10000
    max_total_degree: int = 200

    def __post_init__(self) -> None:
        if self.max_monomials <= 0 or self.max_total_degree <= 0:
            raise ValueError("budget limits must be positive")


class BudgetError(ValueError):
    """The targets alone already exceed the closure budget."""


@dataclass(frozen=True)
class DivergenceReport:
    """Budget exhaustion evidence: which cap tripped and a growth witness."""

    exceeded: str  # "monomial-count" | "degree"
    witness_chain: tuple[Monomial, ...]
    visited_count: int

    def describe(self) -> str:
        shown = self.witness_chain
        if len(shown) > 8:
            head = " -> ".join(str(m) for m in shown[:6])
            chain = f"{head} -> ... -> {shown[-1]} ({len(shown)} monomials)"
        else:
            chain = " -> ".join(str(m) for m in shown)
        return (
            f"closure exceeded the {self.exceeded} budget after visiting "
            f"{self.visited_count} monomials; growth witness: {chain}"
        )


@dataclass(frozen=True)
class MomentSystem:
    """The closed linear ODE dm/dt = A m + c with m(0), over ordered indices.

    Row r of A is stored sparse in `rows[r]`: the generator image of
    indices[r] as (column, coefficient) pairs, nonzeros only, sorted by
    column.
    """

    model_name: str
    indices: tuple[Monomial, ...]
    rows: tuple[tuple[tuple[int, Fraction], ...], ...]
    vector_c: tuple[Fraction, ...]
    m0: tuple[Fraction, ...]
    seed_count: int = 1

    @property
    def dimension(self) -> int:
        return len(self.indices)

    @cached_property
    def matrix_a(self) -> tuple[tuple[Fraction, ...], ...]:
        """Dense n x n view of A, derived from `rows` on first use."""
        return tuple(map(tuple, self._dense(Fraction(0), lambda v: v)))

    def _dense(self, zero, cast) -> list[list]:
        """Row-major n x n cells: `zero`, and cast(coefficient) at nonzeros."""
        out = []
        for row in self.rows:
            cells = [zero] * self.dimension
            for col, coeff in row:
                cells[col] = cast(coeff)
            out.append(cells)
        return out

    def index_of(self, mono: Monomial) -> int:
        try:
            return self.indices.index(mono)
        except ValueError:
            raise KeyError(f"monomial {mono} is not in the closure") from None

    def to_json_dict(self) -> dict:
        """The system as a JSON document with the dense n x n matrix of
        coefficient strings.  It builds all n^2 cells, so the CLI does not
        use it: `to_json` writes the same bytes row by row."""
        return {
            "model": self.model_name,
            "indices": [list(m.exponents) for m in self.indices],
            "matrix": self._dense("0", str),
            "constant": [str(v) for v in self.vector_c],
            "initial": [str(v) for v in self.m0],
        }

    def to_json(self, out: TextIO, **extra) -> None:
        """Write json.dumps({**self.to_json_dict(), **extra}, indent=2) and a
        newline to `out`, byte for byte, one matrix row at a time; this is
        what `closure --json` prints.  `extra` keys follow "initial".  A row
        is one join over n copies of '"0"' with its nonzeros written in, so
        the dense cells never exist all at once; the head and the tail keep
        json.dumps for the model name's escaping and float formatting."""
        head = json.dumps(
            {"model": self.model_name, "indices": [list(m.exponents) for m in self.indices]},
            indent=2,
        )
        tail = json.dumps(
            {
                "constant": [str(v) for v in self.vector_c],
                "initial": [str(v) for v in self.m0],
                **extra,
            },
            indent=2,
        )
        out.write(head[:-2] + ',\n  "matrix": [')
        sep = "\n"
        for row in self.rows:
            cells = ['"0"'] * self.dimension
            for col, coeff in row:
                cells[col] = f'"{coeff}"'
            out.write(sep + "    [\n      " + ",\n      ".join(cells) + "\n    ]")
            sep = ",\n"
        out.write("\n  ]," + tail[1:] + "\n")


def _witness_chain(
    offender: Monomial, parents: dict[Monomial, Monomial | None]
) -> tuple[Monomial, ...]:
    """Parent-link chain ending at `offender`, trimmed to the maximal suffix
    with strictly increasing total degree (the Example-2-style growth tail)."""
    chain = [offender]
    node = parents.get(offender)
    while node is not None:
        chain.append(node)
        node = parents.get(node)
    chain.reverse()
    start = len(chain) - 1
    while start > 0 and chain[start - 1].degree < chain[start].degree:
        start -= 1
    return tuple(chain[start:])


def _graded_lex(mono: Monomial) -> tuple[int, tuple[int, ...]]:
    """Sort key of Monomial.__lt__, without its per-comparison checks."""
    return sum(mono.exponents), mono.exponents


def build_closure_multi(
    model: SdeModel,
    alphas: Sequence[Monomial],
    budget: ClosureBudget | None = None,
) -> MomentSystem | DivergenceReport:
    """Closure seeded by several target monomials at once (their union).

    The seeds occupy the leading positions of `indices` in the given order;
    `seed_count` records how many there are.
    """
    if budget is None:
        budget = ClosureBudget()
    seeds: list[Monomial] = []
    for alpha in alphas:
        if alpha.dimension != model.dimension:
            raise ValueError(
                f"target {alpha} has dimension {alpha.dimension}, model has {model.dimension}"
            )
        if alpha.degree < 1:
            raise ValueError("target monomials must have total degree >= 1")
        if alpha not in seeds:
            seeds.append(alpha)
    if not seeds:
        raise ValueError("at least one target monomial is required")
    if len(seeds) > budget.max_monomials or any(
        s.degree > budget.max_total_degree for s in seeds
    ):
        raise BudgetError("targets already exceed the closure budget")

    gen = Generator(model)
    discovered: list[Monomial] = list(seeds)
    member = set(seeds)
    parents: dict[Monomial, Monomial | None] = {s: None for s in seeds}
    images: dict[Monomial, GeneratorImage] = {}
    worklist: deque[Monomial] = deque(seeds)

    while worklist:
        beta = worklist.popleft()
        image = gen.apply(beta)
        images[beta] = image
        # New monomials enter in descending graded-lex order within one image.
        for gamma in sorted(image.linear_part, key=_graded_lex, reverse=True):
            if gamma in member:
                continue
            if gamma.degree > budget.max_total_degree:
                parents[gamma] = beta
                return DivergenceReport(
                    exceeded="degree",
                    witness_chain=_witness_chain(gamma, parents),
                    visited_count=len(discovered),
                )
            if len(discovered) >= budget.max_monomials:
                parents[gamma] = beta
                return DivergenceReport(
                    exceeded="monomial-count",
                    witness_chain=_witness_chain(gamma, parents),
                    visited_count=len(discovered),
                )
            member.add(gamma)
            parents[gamma] = beta
            discovered.append(gamma)
            worklist.append(gamma)

    indices = tuple(discovered)
    position = {mono: i for i, mono in enumerate(indices)}
    rows = tuple(
        tuple(sorted((position[gamma], c) for gamma, c in images[beta].linear_part.items()))
        for beta in indices
    )
    return MomentSystem(
        model_name=model.name,
        indices=indices,
        rows=rows,
        vector_c=tuple(images[beta].constant for beta in indices),
        m0=tuple(initial_moment(model.initial, mono) for mono in indices),
        seed_count=len(seeds),
    )


def build_closure(
    model: SdeModel,
    alpha: Monomial,
    budget: ClosureBudget | None = None,
) -> MomentSystem | DivergenceReport:
    """Close the moment system for a single target monomial alpha."""
    return build_closure_multi(model, [alpha], budget=budget)


def system_rows(
    ms: MomentSystem,
) -> list[tuple[Monomial, dict[Monomial, Fraction], Fraction]]:
    """Human-auditable dump: (index, {index: coefficient}, constant) per row."""
    return [
        (beta, {ms.indices[col]: coeff for col, coeff in row}, constant)
        for beta, row, constant in zip(ms.indices, ms.rows, ms.vector_c)
    ]


def check_closedness(model: SdeModel, ms: MomentSystem) -> bool:
    """Post-hoc verification of the closedness invariant (used by tests/CLI).

    Re-applies the generator to every index: each image must equal the
    stored row and constant exactly, so every monomial it mentions is in the
    index set.
    """
    gen = Generator(model)
    if len(set(ms.indices)) != len(ms.indices):
        return False
    for beta, combo, constant in system_rows(ms):
        image = gen.apply(beta)
        if image.constant != constant or dict(image.linear_part) != combo:
            return False
    return True

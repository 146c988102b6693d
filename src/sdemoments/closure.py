"""Moment closure: the worklist construction of the closed linear moment ODE.

Starting from a target exponent vector alpha, repeatedly apply the generator
to every discovered monomial and enqueue any new monomials appearing in the
image.  If the process closes, the result is the finite linear system

    d/dt m(t) = A m(t) + c,      m(0) from the initial condition,

over the ordered index set S = [alpha, ...].  If the model is not closeable
for alpha (e.g. a cubic drift feeding back into its own variable), the set
grows forever; a budget turns that into a DivergenceReport with a witness
chain of strictly increasing degrees.

The worklist runs on exponent tuples and the generator's integer numerators
over the model's one denominator; `Monomial`s and `Fraction`s are made only
where the MomentSystem (or a DivergenceReport) is built.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Mapping, Sequence, TextIO

from .generator import Generator
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
        what `closure --json` prints.  `extra` keys follow "initial".  Every
        zero cell is the same 11 characters, so a row is slices of one
        precomputed all-zero row with its nonzeros spliced in, and the dense
        cells never exist; the head and the tail keep json.dumps for the model
        name's escaping and float formatting."""
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
        zeros = ',\n      "0"' * self.dimension
        out.write(head[:-2] + ',\n  "matrix": [')
        sep = "\n"
        for row in self.rows:
            cells = []
            done = 0
            for col, coeff in row:
                cells += (zeros[done : col * 11], f',\n      "{coeff}"')
                done = (col + 1) * 11
            cells.append(zeros[done:])
            # [1:] drops the first cell's leading comma.
            out.write(sep + "    [" + "".join(cells)[1:] + "\n    ]")
            sep = ",\n"
        out.write("\n  ]," + tail[1:] + "\n")


def _divergence(
    exceeded: str, offender: tuple[int, ...], parent: int, discovered: list, parents: list[int]
) -> DivergenceReport:
    """Report with the parent-link chain ending at `offender` (found in the
    image of discovered[parent]), trimmed to the maximal suffix with strictly
    increasing total degree (the Example-2-style growth tail)."""
    chain = [offender]
    while parent >= 0:
        chain.append(discovered[parent])
        parent = parents[parent]
    chain.reverse()
    start = len(chain) - 1
    while start > 0 and sum(chain[start - 1]) < sum(chain[start]):
        start -= 1
    return DivergenceReport(
        exceeded=exceeded,
        witness_chain=tuple(map(Monomial._trusted, chain[start:])),
        visited_count=len(discovered),
    )


def build_closure_multi(
    model: SdeModel,
    alphas: Sequence[Monomial],
    budget: ClosureBudget | None = None,
) -> MomentSystem | DivergenceReport:
    """Closure seeded by several target monomials at once (their union).

    The seeds occupy the leading positions of `indices` in the given order;
    `seed_count` records how many there are.  Each index becomes a
    `Monomial`, and each distinct numerator a `Fraction`, once.
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
    zero = (0,) * model.dimension
    # A FIFO by list position: discovered[head] is the next one to expand.
    discovered = [s.exponents for s in seeds]
    parents = [-1] * len(seeds)  # position of the index whose image found it
    member = {zero, *discovered}  # the constant term never becomes an index
    indices: list[Monomial] = []
    images: list[Mapping[tuple[int, ...], int]] = []

    head = 0
    while head < len(discovered):
        beta = Monomial._trusted(discovered[head])
        indices.append(beta)
        image = gen.apply(beta)
        images.append(image.numerators)
        # New monomials enter in descending graded-lex order within one image.
        new = [g for g in image.numerators if g not in member]
        new.sort(key=lambda g: (sum(g), g), reverse=True)
        if new and sum(new[0]) > budget.max_total_degree:
            return _divergence("degree", new[0], head, discovered, parents)
        room = budget.max_monomials - len(discovered)
        taken = new[:room]
        member.update(taken)
        discovered += taken
        parents += [head] * len(taken)
        if len(new) > room:
            return _divergence("monomial-count", new[room], head, discovered, parents)
        head += 1

    position = {g: i for i, g in enumerate(discovered)}
    denominator = image.denominator
    fraction = {v: Fraction(v, denominator) for v in {0}.union(*(n.values() for n in images))}
    rows = tuple(
        tuple(sorted((position[g], fraction[v]) for g, v in n.items() if g != zero))
        for n in images
    )
    return MomentSystem(
        model_name=model.name,
        indices=tuple(indices),
        rows=rows,
        vector_c=tuple(fraction[n.get(zero, 0)] for n in images),
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

"""Moment closure: the worklist construction of the closed linear moment ODE.

Starting from a target exponent vector alpha, repeatedly apply the generator
to every discovered monomial and enqueue any new monomials appearing in the
image.  If the process closes, the result is the finite linear system

    d/dt m(t) = A m(t) + c,      m(0) from the initial condition,

over the ordered index set S = [alpha, ...].  If the model is not closeable
for alpha (e.g. a cubic drift feeding back into its own variable), the set
grows forever; a budget turns that into a DivergenceReport with a witness
chain of strictly increasing degrees.

The worklist runs on the generator's integer monomial codes in base
max_total_degree + reach + 1, where every exponent it meets is one digit; a
code is decoded to its exponent tuple only for a new index or a witness.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Sequence, TextIO

from .generator import Generator, decode, encode
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
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """The SCCs of A's off-diagonal pattern, each after every SCC it reaches."""
        from .prosolve import _tarjan_sccs  # prosolve imports this module
        return tuple(_tarjan_sccs(self.dimension, lambda i: [j for j, _ in self.rows[i] if j != i]))

    @cached_property
    def zeros(self) -> frozenset[int]:
        """The structurally zero moments: blocks whose members start at 0, have
        constant 0 and read, outside the block, only zero moments (plain loops:
        a generator per block would cost more than the rest)."""
        m0, c, rows, zero = self.m0, self.vector_c, self.rows, set()
        for block in self.blocks:
            for i in block:
                if m0[i] or c[i]:
                    break
            else:
                zero.update(block)
                for i in block:
                    for j, _ in rows[i]:
                        if j not in zero:
                            zero.difference_update(block)
                            break
        return frozenset(zero)

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
        newline to `out`, byte for byte; this is what `closure --json` prints.
        `extra` keys follow "initial".  Every zero cell is the same 11
        characters, so a row is slices of one precomputed all-zero row with
        its nonzeros spliced in, and the dense cells never exist.  Each row is
        one write, so `out` gets O(n) strings, never one per nonzero: a
        buffering writer keeps what it is given until it is flushed."""

        def array(items, indent: str) -> str:  # as json.dumps(indent=2) nests it
            return "[\n  " + indent + (",\n  " + indent).join(items) + "\n" + indent + "]"

        indices = array((array(map(str, m.exponents), "    ") for m in self.indices), "  ")
        out.write(f'{{\n  "model": {json.dumps(self.model_name)},\n  "indices": {indices},')
        out.write('\n  "matrix": [')
        zeros = ',\n      "0"' * self.dimension
        cells = {}  # id(coefficient) -> its cell; self.rows keeps every coefficient alive
        head = "\n    ["
        for row in self.rows:
            parts = [head]
            done = 1  # the first cell has no leading comma
            for col, coeff in row:
                cell = cells.get(id(coeff)) or cells.setdefault(id(coeff), f',\n      "{coeff}"')
                parts += (zeros[done : col * 11], cell)
                done = (col + 1) * 11
            if row and not row[0][0]:  # a nonzero first cell
                parts[2] = parts[2][1:]
            parts += (zeros[done:], "\n    ]")
            out.write("".join(parts))
            head = ",\n    ["
        out.write("\n  ]")
        for key, values in (("constant", self.vector_c), ("initial", self.m0)):
            out.write(f',\n  "{key}": ' + array((f'"{v}"' for v in values), "  "))
        if extra:  # its keys without the braces, at the same indent
            out.write("," + json.dumps(extra, indent=2)[1:-2])
        out.write("\n}\n")


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
    n = model.dimension
    base = budget.max_total_degree + gen.reach + 1
    table = gen.coded(base)
    # A FIFO by list position: discovered[head] (code codes[head]) is the next one to expand.
    discovered = [s.exponents for s in seeds]
    codes = [encode(e, base) for e in discovered]
    parents = [-1] * len(seeds)  # position of the index whose image found it
    position = {g: i for i, g in enumerate(codes)}  # every code met so far -> its index
    powers = [base ** (n - 1 - v) for v in range(n)]
    images, constants = [], []  # the constant terms (code 0) are split off the images

    head = 0
    while head < len(discovered):
        image = gen.image(discovered[head], codes[head], table)
        constants.append(image.pop(0, 0))
        images.append(image)
        new = [g for g in image if g not in position]
        if new:
            # New monomials enter in descending graded-lex order within one image.
            new.sort(reverse=True)
            if new[0] // base**n > budget.max_total_degree:  # the leading digit is the degree
                return _divergence("degree", decode(new[0], base, powers), head, discovered, parents)
            room = budget.max_monomials - len(discovered)
            for g in new[:room]:
                position[g] = len(codes)
                codes.append(g)
                discovered.append(decode(g, base, powers))
                parents.append(head)
            if len(new) > room:
                return _divergence("monomial-count", decode(new[room], base, powers), head, discovered, parents)
        head += 1

    indices = tuple(map(Monomial._trusted, discovered))
    fraction = {v: Fraction(v, gen.denominator) for v in {0}.union(constants, *map(dict.values, images))}
    rows = tuple(
        tuple(sorted(zip(map(position.__getitem__, m), map(fraction.__getitem__, m.values()))))
        for m in images
    )
    zeros = [v for v, x in enumerate(model.initial.point or ()) if not x]  # m0 = 0 on them
    return MomentSystem(
        model_name=model.name,
        indices=indices,
        rows=rows,
        vector_c=tuple(map(fraction.__getitem__, constants)),
        m0=tuple(
            fraction[0] if any(map(e.__getitem__, zeros)) else initial_moment(model.initial, mono)
            for e, mono in zip(discovered, indices)
        ),
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
    """Post-hoc verification of the closedness invariant.

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

"""Structural solvability analysis of polynomial SDE models.

A model admits finite moment closures for every target when its variables can
be arranged into an ordered partition G_1 < ... < G_r such that each drift
entry b_i and diffusion entry sigma_ik (i in G_p) is affine-linear in the
block-p variables plus an arbitrary polynomial in earlier-block variables.

This module provides:
  * the variable dependency graph and its SCC-based decision procedure
    (solvable iff no strongly connected component contains a nonlinear edge);
  * explicit verification of a user-supplied ordered partition;
  * block weights giving a weighted degree that never increases along
    generator images — a runtime termination certificate for the closure.
    They take one pass over the model's entries, and the certificate one
    weight per variable.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import add, mul
from typing import Iterable, Sequence

from .closure import MomentSystem
from .model import SdeModel
from .poly import Monomial, Polynomial


class CertificateError(RuntimeError):
    """A structural guarantee failed at runtime — an implementation bug."""


@dataclass(frozen=True)
class DependencyEdge:
    source: int  # variable j occurring ...
    target: int  # ... in b_i or sigma_ik of variable i
    nonlinear: bool


@dataclass(frozen=True)
class DependencyGraph:
    dimension: int
    edges: tuple[DependencyEdge, ...]

    def successors(self, node: int) -> list[int]:
        return sorted({e.target for e in self.edges if e.source == node})


@dataclass(frozen=True)
class OrderedPartition:
    """Ordered blocks of 0-based variable indices; order is significant."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        flat = [i for block in self.blocks for i in block]
        if len(flat) != len(set(flat)):
            raise ValueError("partition blocks must be disjoint")
        if any(len(block) == 0 for block in self.blocks):
            raise ValueError("partition blocks must be non-empty")

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def covers(self, dimension: int) -> bool:
        return sorted(i for block in self.blocks for i in block) == list(range(dimension))

    def block_of(self, var: int) -> int:
        for p, block in enumerate(self.blocks):
            if var in block:
                return p
        raise ValueError(f"variable index {var} not in partition")

    def describe(self, names: Sequence[str]) -> str:
        return " < ".join(
            "{" + ", ".join(names[i] for i in block) + "}" for block in self.blocks
        )


@dataclass(frozen=True)
class SolvabilityResult:
    prosolvable: bool
    partition: OrderedPartition | None
    violation: tuple[DependencyEdge, tuple[int, ...]] | None  # (edge, its SCC)


@dataclass(frozen=True)
class PartitionReport:
    ok: bool
    problems: tuple[str, ...]


@dataclass(frozen=True)
class BlockWeights:
    partition: OrderedPartition
    c_bound: dict[tuple[int, int], int]  # (p, q) with q < p -> C_{p,q}
    weights: tuple[int, ...]


@dataclass(frozen=True)
class CertificateReport:
    weights: BlockWeights
    max_weighted_degree: int
    block_bounds: tuple[int, ...]  # s_p(beta) <= bound_p for all closure members


def _variable_occurrences(polys: Iterable[Polynomial]) -> dict[int, bool]:
    """Map variable index -> occurs in a degree>=2 monomial (for edge flags)."""
    found: dict[int, bool] = {}
    for poly in polys:
        for mono in poly.terms:
            nonlinear = mono.degree >= 2
            for j, e in enumerate(mono.exponents):
                if e:
                    found[j] = found.get(j, False) or nonlinear
    return found


def build_dependency_graph(model: SdeModel) -> DependencyGraph:
    """Edge j -> i iff x_j occurs in b_i or some sigma_ik; flagged nonlinear
    iff some such occurrence is inside a monomial of total degree >= 2."""
    n = model.dimension
    edges: list[DependencyEdge] = []
    for i in range(n):
        sources = _variable_occurrences([model.drift[i], *model.diffusion[i]])
        for j in sorted(sources):
            edges.append(DependencyEdge(source=j, target=i, nonlinear=sources[j]))
    return DependencyGraph(dimension=n, edges=tuple(edges))


def _tarjan_sccs(dimension: int, successors) -> list[tuple[int, ...]]:
    """Iterative Tarjan; deterministic given node order and sorted successors."""
    index_of: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    sccs: list[tuple[int, ...]] = []
    counter = 0

    for root in range(dimension):
        if root in index_of:
            continue
        work = [(root, iter(successors(root)))]
        index_of[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index_of:
                    index_of[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(successors(succ))))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index_of[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index_of[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(tuple(sorted(component)))
    return sccs


def check_prosolvable(model: SdeModel) -> SolvabilityResult:
    """Decide solvability via SCCs of the dependency graph.

    On success the returned partition is the SCC condensation in topological
    order (dependencies first), ties broken by smallest variable index.
    """
    graph = build_dependency_graph(model)
    sccs = _tarjan_sccs(graph.dimension, graph.successors)
    scc_of = {v: i for i, scc in enumerate(sccs) for v in scc}

    for edge in graph.edges:
        if edge.nonlinear and scc_of[edge.source] == scc_of[edge.target]:
            return SolvabilityResult(
                prosolvable=False,
                partition=None,
                violation=(edge, sccs[scc_of[edge.source]]),
            )

    # Kahn topological sort of the condensation, min-variable-index tie-break.
    succ_sets: list[set[int]] = [set() for _ in sccs]
    indegree = [0] * len(sccs)
    for edge in graph.edges:
        a, b = scc_of[edge.source], scc_of[edge.target]
        if a != b and b not in succ_sets[a]:
            succ_sets[a].add(b)
            indegree[b] += 1
    ready = [(min(sccs[i]), i) for i in range(len(sccs)) if indegree[i] == 0]
    heapq.heapify(ready)
    ordered: list[tuple[int, ...]] = []
    while ready:
        _, i = heapq.heappop(ready)
        ordered.append(sccs[i])
        for j in sorted(succ_sets[i]):
            indegree[j] -= 1
            if indegree[j] == 0:
                heapq.heappush(ready, (min(sccs[j]), j))
    partition = OrderedPartition(blocks=tuple(ordered))
    return SolvabilityResult(prosolvable=True, partition=partition, violation=None)


def _decompose(
    poly: Polynomial, block_of: list[int], p: int, r: int
) -> tuple[set[int], list[int] | None, Monomial | None]:
    """Split an entry owned by a block-p variable into the variables of its
    own-block linear part and the per-block maxima of its earlier-block part:
    top[q], q < r, is the largest block-q exponent sum of its monomials (None
    when it has none).  The third value is the greatest monomial violating
    the decomposition (None when conforming)."""
    linear: set[int] = set()
    top: list[int] | None = None
    offenders: list[Monomial] = []
    for mono in poly.terms:
        used = [j for j, e in enumerate(mono.exponents) if e]
        if all(block_of[j] < p for j in used):
            sums = [0] * r
            for j in used:
                sums[block_of[j]] += mono.exponents[j]
            top = sums if top is None else list(map(max, top, sums))
        elif mono.degree == 1 and block_of[used[0]] == p:
            linear.add(used[0])
        else:
            offenders.append(mono)
    return linear, top, max(offenders, default=None)


def _split_entries(model: SdeModel, partition: OrderedPartition) -> tuple[list[str], list[list[tuple]], list[int]]:
    """The verify_partition problems, per variable the _decompose values of
    its drift and then of each diffusion column, and each variable's block."""
    n = model.dimension
    if not partition.covers(n):
        raise ValueError("partition must cover every variable exactly once")
    block_of = [partition.block_of(i) for i in range(n)]
    names = model.variables
    problems: list[str] = []
    splits: list[list[tuple]] = [[] for _ in range(n)]
    for p, block in enumerate(partition.blocks):
        for i in block:
            entries = [(f"drift[{names[i]}]", model.drift[i])] + [
                (f"diffusion[{names[i]}][{k}]", model.diffusion[i][k])
                for k in range(model.brownian_dim)
            ]
            for label, poly in entries:
                split = _decompose(poly, block_of, p, partition.block_count)
                splits[i].append(split)
                if split[2] is not None:
                    problems.append(
                        f"{label}: monomial {Polynomial.monomial(split[2]).to_text(names)} "
                        f"is neither linear in block {p + 1} nor confined to earlier blocks"
                    )
    return problems, splits, block_of


def verify_partition(model: SdeModel, partition: OrderedPartition) -> PartitionReport:
    """Check the block-triangular affine condition entry by entry."""
    problems = _split_entries(model, partition)[0]
    return PartitionReport(ok=not problems, problems=tuple(problems))


def compute_block_weights(model: SdeModel, partition: OrderedPartition) -> BlockWeights:
    """Derive the inter-block degree bounds C_{p,q} and minimal weights W
    from the polynomial-coefficient primitive terms of the generator.

    Writing each entry as (own-block linear part L) + (earlier-block
    polynomial part P), the generator's coefficient monomials that involve at
    least one P factor are, with their source block:
      * monomials of B_i (drift P-part)        -> block(i)
      * monomials of L_ik-var * P_jk products  -> block(j)   (the P's owner)
      * monomials of P_ik * P_jk (incl. i = j) -> max(block(i), block(j))
    C_{p,q} is the max block-q exponent sum over source-p coefficient
    monomials; W_1 = 1 and W_p = 1 + sum_{q<p} C_{p,q} W_q (the smallest
    integers making the weighted degree strictly drop at the source block).

    Each entry is decomposed once, and a P part enters only through its
    per-block maxima (_decompose): no product is expanded, because the
    largest block-q sum of P_ik * P_jk is the sum of its factors' (their
    top block-q parts multiply to a nonzero part of the product).
    """
    problems, splits, block_of = _split_entries(model, partition)
    if problems:
        raise ValueError(
            "partition does not satisfy the block-triangular affine condition: "
            + "; ".join(problems)
        )
    r = partition.block_count
    c_bound = {(p, q): 0 for p in range(r) for q in range(p)}

    def raise_to(p: int, sums: list[int]) -> None:
        for q in range(p):
            c_bound[p, q] = max(c_bound[p, q], sums[q])

    for i, (drift, *_) in enumerate(splits):
        if drift[1] is not None:
            raise_to(block_of[i], drift[1])
    for k in range(1, model.brownian_dim + 1):
        for i, (lin_i, top_i, _) in enumerate(split[k] for split in splits):
            for j, (_, top_j, _) in enumerate(split[k] for split in splits):
                if top_j is None:
                    continue
                if lin_i:  # L_ik-var * P_jk, the var in block(i)
                    raise_to(block_of[j], [s + (q == block_of[i]) for q, s in enumerate(top_j)])
                if top_i is not None:  # P_ik * P_jk
                    raise_to(max(block_of[i], block_of[j]), list(map(add, top_i, top_j)))

    weights: list[int] = []
    for p in range(r):
        weights.append(1 + sum(c_bound[(p, q)] * weights[q] for q in range(p)))
    return BlockWeights(partition=partition, c_bound=c_bound, weights=tuple(weights))


def weighted_degree(bw: BlockWeights, beta: Monomial) -> int:
    """sum_p W_p * (block-p exponent sum of beta)."""
    total = 0
    for p, block in enumerate(bw.partition.blocks):
        total += bw.weights[p] * sum(beta.exponents[i] for i in block)
    return total


def certify_closure(
    model: SdeModel, partition: OrderedPartition, ms: MomentSystem
) -> CertificateReport:
    """Runtime check that the weighted degree never increases along the
    closure's stored rows (each index's generator image), plus the implied
    per-block size bounds."""
    bw = compute_block_weights(model, partition)
    var_weights = [0] * model.dimension
    for w, block in zip(bw.weights, partition.blocks):
        for i in block:
            var_weights[i] = w
    degrees = [sum(map(mul, var_weights, beta.exponents)) for beta in ms.indices]
    cap = max(degrees[: ms.seed_count])
    violations: list[str] = []
    for beta, deg_beta, row in zip(ms.indices, degrees, ms.rows):
        if deg_beta > cap:
            violations.append(
                f"{beta}: weighted degree {deg_beta} exceeds the target cap {cap}"
            )
        for col, _ in row:
            if degrees[col] > deg_beta:
                violations.append(
                    f"{beta} -> {ms.indices[col]}: weighted degree increased "
                    f"{deg_beta} -> {degrees[col]}"
                )
    block_bounds = tuple(cap // w for w in bw.weights)
    # W_p s_p(beta) <= the weighted degree of beta, so only a beta above the cap can break a bound.
    for beta in (beta for beta, deg_beta in zip(ms.indices, degrees) if deg_beta > cap):
        for p, block in enumerate(bw.partition.blocks):
            s_p = sum(beta.exponents[i] for i in block)
            if s_p > block_bounds[p]:
                violations.append(
                    f"{beta}: block {p + 1} exponent sum {s_p} exceeds bound {block_bounds[p]}"
                )
    if violations:
        raise CertificateError(
            "weighted-degree certificate failed:\n  " + "\n  ".join(violations)
        )
    return CertificateReport(
        weights=bw,
        max_weighted_degree=max(degrees),
        block_bounds=block_bounds,
    )

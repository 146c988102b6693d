"""Structural solvability: dependency graphs, partitions, weights, certificates."""

from dataclasses import replace
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from sdemoments.cli import main
from sdemoments.closure import MomentSystem, build_closure
from sdemoments.generator import Generator
from sdemoments.model import benchmark_names, load_benchmark
from sdemoments.poly import Monomial
from sdemoments.prosolve import (
    CertificateError,
    OrderedPartition,
    build_dependency_graph,
    certify_closure,
    check_prosolvable,
    compute_block_weights,
    verify_partition,
    weighted_degree,
)

PROSOLVABLE = {
    "ou-env": True,
    "gene": True,
    "consensus": True,
    "vehicles": True,
    "oscillator": True,
    "coupled3d": False,
    "double-well": False,
}


# ---------------------------------------------------------------------------
# Dependency graphs
# ---------------------------------------------------------------------------


def edge_set(model):
    graph = build_dependency_graph(model)
    return {(e.source, e.target, e.nonlinear) for e in graph.edges}


class TestDependencyGraph:
    def test_ou_env_edges(self):
        model = load_benchmark("ou-env")
        assert edge_set(model) == {
            (0, 0, False),  # x1 drives itself linearly
            (1, 1, False),  # x2 drives itself linearly
            (0, 1, True),  # x1 enters the x2 dynamics through a square
        }

    def test_double_well_nonlinear_self_loop(self):
        model = load_benchmark("double-well")
        assert edge_set(model) == {(0, 0, True)}

    def test_oscillator_edges(self):
        model = load_benchmark("oscillator")
        assert edge_set(model) == {
            (1, 0, False),
            (0, 1, False),
            (1, 1, False),
            (2, 1, True),
            (2, 2, False),
        }

    def test_vehicles_edges(self):
        model = load_benchmark("vehicles")  # (p1, v1, p2, v2)
        assert edge_set(model) == {
            (1, 0, False),  # v1 -> p1
            (1, 1, False),
            (3, 2, False),  # v2 -> p2
            (3, 3, False),
            (1, 3, True),  # v1 -> v2 via (v1 - 1)^2
        }

    def test_successors_sorted(self):
        model = load_benchmark("vehicles")
        graph = build_dependency_graph(model)
        assert graph.successors(1) == [0, 1, 3]

    def test_diffusion_contributes_edges(self):
        model = load_benchmark("consensus")  # sigma = diag(x1, x2)
        assert (0, 0, False) in edge_set(model)
        assert (1, 1, False) in edge_set(model)


# ---------------------------------------------------------------------------
# Solvability decision across the corpus
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(benchmark_names()))
def test_solvability_flags(name):
    result = check_prosolvable(load_benchmark(name))
    assert result.prosolvable == PROSOLVABLE[name]


class TestDecision:
    def test_ou_env_partition(self):
        result = check_prosolvable(load_benchmark("ou-env"))
        assert result.partition is not None
        assert result.partition.blocks == ((0,), (1,))

    def test_oscillator_partition_orders_noise_source_first(self):
        result = check_prosolvable(load_benchmark("oscillator"))
        assert result.partition.blocks == ((2,), (0, 1))

    def test_vehicles_partition(self):
        result = check_prosolvable(load_benchmark("vehicles"))
        assert result.partition.blocks == ((1,), (0,), (3,), (2,))

    def test_consensus_single_block(self):
        result = check_prosolvable(load_benchmark("consensus"))
        assert result.partition.blocks == ((0, 1),)

    def test_violation_reported_for_cubic_drift(self):
        result = check_prosolvable(load_benchmark("double-well"))
        assert not result.prosolvable
        assert result.partition is None
        edge, scc = result.violation
        assert edge.nonlinear
        assert edge.source == edge.target == 0
        assert scc == (0,)

    def test_violation_reported_for_coupled_model(self):
        result = check_prosolvable(load_benchmark("coupled3d"))
        edge, scc = result.violation
        assert edge.nonlinear
        assert edge.source in scc and edge.target in scc

    @pytest.mark.parametrize(
        "name", [n for n in sorted(benchmark_names()) if PROSOLVABLE[n]]
    )
    def test_returned_partition_verifies(self, name):
        model = load_benchmark(name)
        result = check_prosolvable(model)
        assert verify_partition(model, result.partition).ok


# ---------------------------------------------------------------------------
# Brute-force oracle: a model passes iff SOME ordered partition verifies
# ---------------------------------------------------------------------------


def all_ordered_partitions(n):
    seen = set()
    for assignment in product(range(n), repeat=n):
        labels = sorted(set(assignment))
        if labels != list(range(len(labels))):
            continue
        blocks = tuple(
            tuple(i for i in range(n) if assignment[i] == b)
            for b in range(len(labels))
        )
        if blocks not in seen:
            seen.add(blocks)
            yield OrderedPartition(blocks)


@pytest.mark.parametrize("name", sorted(benchmark_names()))
def test_decision_matches_partition_search(name):
    model = load_benchmark(name)
    exists = any(
        verify_partition(model, p).ok
        for p in all_ordered_partitions(model.dimension)
    )
    assert check_prosolvable(model).prosolvable == exists


# ---------------------------------------------------------------------------
# verify_partition on specific partitions
# ---------------------------------------------------------------------------


class TestVerifyPartition:
    def test_reversed_ou_env_rejected(self):
        model = load_benchmark("ou-env")
        report = verify_partition(model, OrderedPartition(((1,), (0,))))
        assert not report.ok
        assert any("x1^2" in p for p in report.problems)

    def test_vehicles_coarse_grouping_accepted(self):
        # a coarser two-block ordering also satisfies the condition
        model = load_benchmark("vehicles")
        report = verify_partition(model, OrderedPartition(((1,), (0, 2, 3))))
        assert report.ok

    def test_single_block_linear_model_accepted(self):
        model = load_benchmark("consensus")
        assert verify_partition(model, OrderedPartition(((0, 1),))).ok

    def test_partition_must_cover(self):
        model = load_benchmark("ou-env")
        with pytest.raises(ValueError):
            verify_partition(model, OrderedPartition(((0,),)))

    def test_blocks_must_be_disjoint(self):
        with pytest.raises(ValueError):
            OrderedPartition(((0, 1), (1,)))

    def test_blocks_must_be_nonempty(self):
        with pytest.raises(ValueError):
            OrderedPartition(((0,), ()))

    def test_describe(self):
        p = OrderedPartition(((0,), (1, 2)))
        assert p.describe(("a", "b", "c")) == "{a} < {b, c}"

    def test_block_of(self):
        p = OrderedPartition(((2,), (0, 1)))
        assert p.block_of(2) == 0
        assert p.block_of(0) == 1
        with pytest.raises(ValueError):
            p.block_of(5)


# ---------------------------------------------------------------------------
# Block weights
# ---------------------------------------------------------------------------


class TestBlockWeights:
    def test_ou_env_weights(self):
        model = load_benchmark("ou-env")
        bw = compute_block_weights(model, OrderedPartition(((0,), (1,))))
        assert bw.c_bound == {(1, 0): 2}
        assert bw.weights == (1, 3)

    def test_vehicles_coarse_weights(self):
        model = load_benchmark("vehicles")
        bw = compute_block_weights(model, OrderedPartition(((1,), (0, 2, 3))))
        assert bw.c_bound == {(1, 0): 2}
        assert bw.weights == (1, 3)

    def test_single_block_weight_is_one(self):
        model = load_benchmark("consensus")
        bw = compute_block_weights(model, OrderedPartition(((0, 1),)))
        assert bw.weights == (1,)
        assert bw.c_bound == {}

    def test_invalid_partition_rejected(self):
        model = load_benchmark("ou-env")
        with pytest.raises(ValueError):
            compute_block_weights(model, OrderedPartition(((1,), (0,))))

    def test_weighted_degree_examples(self):
        model = load_benchmark("ou-env")
        bw = compute_block_weights(model, OrderedPartition(((0,), (1,))))
        assert weighted_degree(bw, Monomial((0, 2))) == 6
        assert weighted_degree(bw, Monomial((4, 0))) == 4
        assert weighted_degree(bw, Monomial((2, 1))) == 5
        assert weighted_degree(bw, Monomial((0, 0))) == 0

    def test_weights_are_monotone_in_block_position(self):
        # every weight is at least 1 and the recursion is non-decreasing in
        # the contributions it sums
        for name in sorted(benchmark_names()):
            if not PROSOLVABLE[name]:
                continue
            model = load_benchmark(name)
            partition = check_prosolvable(model).partition
            bw = compute_block_weights(model, partition)
            assert all(w >= 1 for w in bw.weights)
            assert bw.weights[0] == 1


# ---------------------------------------------------------------------------
# Closure certificates
# ---------------------------------------------------------------------------

CERT_TARGETS = [
    ("ou-env", (0, 2)),
    ("ou-env", (0, 3)),
    ("ou-env", (0, 4)),
    ("ou-env", (0, 5)),
    ("ou-env", (0, 10)),
    ("gene", (1, 0, 0, 0, 1)),
    ("gene", (0, 0, 0, 0, 2)),
    ("gene", (1, 0, 0, 0, 2)),
    ("consensus", (1, 1)),
    ("vehicles", (0, 0, 2, 0)),
    ("oscillator", (0, 1, 2)),
]


@pytest.mark.parametrize("name,alpha", CERT_TARGETS)
def test_certificate_passes_for_solvable_targets(name, alpha):
    model = load_benchmark(name)
    partition = check_prosolvable(model).partition
    ms = build_closure(model, Monomial(alpha))
    report = certify_closure(model, partition, ms)
    bw = report.weights
    cap = weighted_degree(bw, Monomial(alpha))
    assert report.max_weighted_degree <= cap
    # the closure honors the per-block exponent bounds implied by the cap
    assert report.block_bounds == tuple(cap // w for w in bw.weights)


def test_certificate_cap_bounds_closure_degree():
    # cap/W_p bounds the block-p exponent sums over the whole index set
    model = load_benchmark("ou-env")
    partition = check_prosolvable(model).partition
    ms = build_closure(model, Monomial((0, 2)))
    report = certify_closure(model, partition, ms)
    for beta in ms.indices:
        for p, block in enumerate(partition.blocks):
            assert sum(beta.exponents[i] for i in block) <= report.block_bounds[p]


def test_certificate_rejects_overweight_index():
    # an index set containing a monomial heavier than the seed must fail
    model = load_benchmark("ou-env")
    partition = check_prosolvable(model).partition
    zero = Fraction(0)
    fake = MomentSystem(
        model_name="ou-env",
        indices=(Monomial((0, 1)), Monomial((0, 2))),
        rows=((), ()),
        vector_c=(zero, zero),
        m0=(zero, zero),
        seed_count=1,
    )
    with pytest.raises(CertificateError, match="exceeds the target cap"):
        certify_closure(model, partition, fake)


def test_certificate_reads_the_stored_rows():
    # a row edited so a light index depends on the heavier target must fail,
    # although the generator never produces that edge
    model = load_benchmark("ou-env")
    partition = check_prosolvable(model).partition
    ms = build_closure(model, Monomial((0, 2)))
    bw = compute_block_weights(model, partition)
    light = min(range(ms.dimension), key=lambda r: weighted_degree(bw, ms.indices[r]))
    assert weighted_degree(bw, ms.indices[light]) < weighted_degree(bw, ms.indices[0])
    rows = list(ms.rows)
    rows[light] = tuple(sorted({**dict(rows[light]), 0: Fraction(1)}.items()))
    edited = replace(ms, rows=tuple(rows))
    with pytest.raises(CertificateError, match="weighted degree increased"):
        certify_closure(model, partition, edited)


def test_certify_applies_the_generator_once_per_index(monkeypatch, capsys):
    # the closure build is the only place the generator runs
    calls = []
    original = Generator.apply

    def counting(self, beta):
        calls.append(beta)
        return original(self, beta)

    monkeypatch.setattr(Generator, "apply", counting)
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "ou-env.json"
    code = main(["moment", str(path), "--alpha", "0,4", "--certify", "--times", "1"])
    assert code == 0
    assert "closure size: 24" in capsys.readouterr().out
    assert len(calls) == 24

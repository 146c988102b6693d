"""Structural solvability: dependency graphs, partitions, weights, certificates."""

import json
from dataclasses import replace
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_generated_models import prosolvable_models, targets

from sdemoments.cli import main
from sdemoments.closure import MomentSystem, build_closure
from sdemoments.generator import Generator
from sdemoments.model import benchmark_names, load_benchmark, load_model
from sdemoments.poly import Monomial, Polynomial
from sdemoments.prosolve import (
    BlockWeights,
    CertificateError,
    CertificateReport,
    OrderedPartition,
    PartitionReport,
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

    def test_own_block_noise_times_earlier_polynomial(self):
        # dx = -x dt + x dW, dy = -y dt + (y + 1) dW: sigma_x sigma_y has the
        # term x * 1, linear in block {x} times the polynomial part of y's
        # entry, which no bundled model has; it gives C_{1,0} = 1.
        model = load_model(
            json.dumps(
                {
                    "name": "shared-noise",
                    "variables": ["x", "y"],
                    "brownian_dim": 1,
                    "drift": ["-x", "-y"],
                    "diffusion": [["x"], ["y + 1"]],
                    "initial": {"kind": "point", "values": ["1", "0"]},
                }
            )
        )
        partition = check_prosolvable(model).partition
        assert partition.blocks == ((0,), (1,))
        bw = compute_block_weights(model, partition)
        assert bw.c_bound == {(1, 0): 1}
        assert bw.weights == (1, 2)
        for alpha in product(range(4), repeat=2):
            if sum(alpha):
                ms = build_closure(model, Monomial(alpha))
                report = certify_closure(model, partition, ms)
                assert report.max_weighted_degree == weighted_degree(bw, Monomial(alpha))

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
    original = Generator.image

    def counting(self, e, code, table):
        calls.append(e)
        return original(self, e, code, table)

    monkeypatch.setattr(Generator, "image", counting)
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "ou-env.json"
    code = main(["moment", str(path), "--alpha", "0,4", "--certify", "--times", "1"])
    assert code == 0
    assert "closure size: 24" in capsys.readouterr().out
    assert len(calls) == len(set(calls)) == 24


# ---------------------------------------------------------------------------
# Block weights and certificates against the implementation they replaced
# ---------------------------------------------------------------------------
#
# A reference copy of that implementation: it decomposes every entry twice
# (once to verify, once to weigh), lists each primitive monomial of the
# generator and scans it once per (p, q) pair, and reads weighted degrees
# block by block.


def ref_decompose(poly, partition, p):
    n = poly.dimension
    linear = {}
    earlier = {}
    for mono, coeff in poly.sorted_terms():
        used = [j for j, e in enumerate(mono.exponents) if e]
        blocks_used = [partition.block_of(j) for j in used]
        if all(b < p for b in blocks_used):
            earlier[mono] = coeff
            continue
        if mono.degree == 1 and blocks_used == [p]:
            linear[used[0]] = coeff
            continue
        return linear, Polynomial(n, earlier), mono
    return linear, Polynomial(n, earlier), None


def ref_verify_partition(model, partition):
    n = model.dimension
    if not partition.covers(n):
        raise ValueError("partition must cover every variable exactly once")
    problems = []
    names = model.variables
    for p, block in enumerate(partition.blocks):
        for i in block:
            entries = [(f"drift[{names[i]}]", model.drift[i])] + [
                (f"diffusion[{names[i]}][{k}]", model.diffusion[i][k])
                for k in range(model.brownian_dim)
            ]
            for label, poly in entries:
                _, _, offender = ref_decompose(poly, partition, p)
                if offender is not None:
                    problems.append(
                        f"{label}: monomial {Polynomial.monomial(offender).to_text(names)} "
                        f"is neither linear in block {p + 1} nor confined to earlier blocks"
                    )
    return PartitionReport(ok=not problems, problems=tuple(problems))


def ref_compute_block_weights(model, partition):
    report = ref_verify_partition(model, partition)
    if not report.ok:
        raise ValueError(
            "partition does not satisfy the block-triangular affine condition: "
            + "; ".join(report.problems)
        )
    n = model.dimension
    r = partition.block_count
    block_of = [partition.block_of(i) for i in range(n)]
    primitive = []
    diff_split = {}
    for i in range(n):
        p = block_of[i]
        _, drift_poly, _ = ref_decompose(model.drift[i], partition, p)
        for mono in drift_poly.terms:
            primitive.append((p, mono))
        for k in range(model.brownian_dim):
            lin, poly = ref_decompose(model.diffusion[i][k], partition, p)[:2]
            diff_split[(i, k)] = (lin, poly)
    for k in range(model.brownian_dim):
        for i in range(n):
            lin_i, poly_i = diff_split[(i, k)]
            for j in range(i, n):
                lin_j, poly_j = diff_split[(j, k)]
                for lin, poly, owner in ((lin_i, poly_j, j), (lin_j, poly_i, i)):
                    if not lin or poly.is_zero():
                        continue
                    for l in lin:
                        unit = Monomial.unit(n, l)
                        for mono in poly.terms:
                            primitive.append((block_of[owner], mono * unit))
                if not poly_i.is_zero() and not poly_j.is_zero():
                    product = poly_i * poly_j
                    source = max(block_of[i], block_of[j])
                    for mono in product.terms:
                        primitive.append((source, mono))

    def block_sum(mono, q):
        return sum(mono.exponents[i] for i in partition.blocks[q])

    c_bound = {}
    for p in range(r):
        for q in range(p):
            c_bound[(p, q)] = max((block_sum(mono, q) for src, mono in primitive if src == p), default=0)
    weights = []
    for p in range(r):
        weights.append(1 + sum(c_bound[(p, q)] * weights[q] for q in range(p)))
    return BlockWeights(partition=partition, c_bound=c_bound, weights=tuple(weights))


def ref_certify_closure(model, partition, ms):
    bw = ref_compute_block_weights(model, partition)
    degrees = [weighted_degree(bw, beta) for beta in ms.indices]
    cap = max(degrees[: ms.seed_count])
    violations = []
    for beta, deg_beta, row in zip(ms.indices, degrees, ms.rows):
        if deg_beta > cap:
            violations.append(f"{beta}: weighted degree {deg_beta} exceeds the target cap {cap}")
        for col, _ in row:
            if degrees[col] > deg_beta:
                violations.append(
                    f"{beta} -> {ms.indices[col]}: weighted degree increased {deg_beta} -> {degrees[col]}"
                )
    block_bounds = tuple(cap // w for w in bw.weights)
    for beta in ms.indices:
        for p, block in enumerate(bw.partition.blocks):
            s_p = sum(beta.exponents[i] for i in block)
            if s_p > block_bounds[p]:
                violations.append(f"{beta}: block {p + 1} exponent sum {s_p} exceeds bound {block_bounds[p]}")
    if violations:
        raise CertificateError("weighted-degree certificate failed:\n  " + "\n  ".join(violations))
    return CertificateReport(weights=bw, max_weighted_degree=max(degrees), block_bounds=block_bounds)


def verdict(fn, *args):
    """fn's result, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except (ValueError, CertificateError) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_drawn_models_weigh_and_certify_as_the_reference(data):
    doc, blocks = data.draw(prosolvable_models())
    model = load_model(json.dumps(doc))
    partition = check_prosolvable(model).partition
    # The SCC partition, the drawn blocks, and both reversed: the last two break the condition on most draws.
    for part in (partition, OrderedPartition(tuple(map(tuple, blocks)))):
        for order in (part, OrderedPartition(part.blocks[::-1])):
            assert verify_partition(model, order) == ref_verify_partition(model, order)
            assert verdict(compute_block_weights, model, order) == verdict(ref_compute_block_weights, model, order)
    ms = build_closure(model, data.draw(targets(model.dimension, blocks[-1])))
    assert certify_closure(model, partition, ms) == ref_certify_closure(model, partition, ms)
    # With the indices reversed the lightest index is the target: most rows break the certificate.
    scrambled = replace(ms, indices=ms.indices[::-1])
    assert verdict(certify_closure, model, partition, scrambled) == verdict(
        ref_certify_closure, model, partition, scrambled
    )


@pytest.mark.parametrize("name", benchmark_names())
def test_bundled_models_weigh_as_the_reference(name):
    model = load_benchmark(name)
    result = check_prosolvable(model)
    if result.prosolvable:
        bw = compute_block_weights(model, result.partition)
        assert bw == ref_compute_block_weights(model, result.partition)
        assert list(bw.c_bound) == list(ref_compute_block_weights(model, result.partition).c_bound)
    whole = OrderedPartition((tuple(range(model.dimension)),))
    assert verify_partition(model, whole) == ref_verify_partition(model, whole)

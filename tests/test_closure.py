"""Closure construction: golden systems, sizes, order invariance, divergence."""

import dataclasses
import importlib.util
import io
import itertools
import json
import re
from collections import deque
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from sdemoments.cli import main
from sdemoments.closure import (
    ClosureBudget,
    DivergenceReport,
    MomentSystem,
    build_closure,
    build_closure_multi,
    check_closedness,
    system_rows,
)
from sdemoments.generator import Generator
from sdemoments.model import benchmark_names, initial_moment, load_benchmark
from sdemoments.odesolve import linear_functional_moment
from sdemoments.poly import Monomial, parse_polynomial


def F(v) -> Fraction:
    return Fraction(v)


# ---------------------------------------------------------------------------
# Golden 8-dimensional system for the 2-d environment-driven OU benchmark,
# target (0,2).  Derived independently by hand from the generator action and
# frozen here; every coefficient is checked exactly.
# ---------------------------------------------------------------------------

GOLDEN_ORDER = [
    (0, 2),
    (2, 1),
    (2, 0),
    (1, 1),
    (4, 0),
    (3, 0),
    (0, 1),
    (1, 0),
]

# row -> ({column index: coefficient}, constant)
GOLDEN_ROWS = {
    (0, 2): ({(0, 2): -4, (2, 1): 2, (2, 0): 1, (1, 1): 2}, 0),
    (2, 1): ({(2, 1): -4, (4, 0): 1, (3, 0): 1, (0, 1): 1}, 0),
    (2, 0): ({(2, 0): -2}, 1),
    (1, 1): ({(1, 1): -3, (2, 0): 1, (3, 0): 1}, 0),
    (4, 0): ({(4, 0): -4, (2, 0): 6}, 0),
    (3, 0): ({(3, 0): -3, (1, 0): 3}, 0),
    (0, 1): ({(0, 1): -2, (2, 0): 1, (1, 0): 1}, 0),
    (1, 0): ({(1, 0): -1}, 0),
}


class TestGoldenSystem:
    def build(self) -> MomentSystem:
        model = load_benchmark("ou-env")
        result = build_closure(model, Monomial((0, 2)))
        assert isinstance(result, MomentSystem)
        return result

    def test_index_set_and_order(self):
        ms = self.build()
        assert [m.exponents for m in ms.indices] == GOLDEN_ORDER

    def test_every_matrix_entry(self):
        ms = self.build()
        pos = {m.exponents: i for i, m in enumerate(ms.indices)}
        for row_key, (cols, constant) in GOLDEN_ROWS.items():
            r = pos[row_key]
            assert ms.vector_c[r] == F(constant), f"constant of row {row_key}"
            for col_key in pos:
                want = F(cols.get(col_key, 0))
                got = ms.matrix_a[r][pos[col_key]]
                assert got == want, f"A[{row_key}][{col_key}]"

    def test_initial_vector_is_zero(self):
        ms = self.build()
        assert all(v == 0 for v in ms.m0)

    def test_system_rows_matches_matrix(self):
        ms = self.build()
        for beta, combo, constant in system_rows(ms):
            want_cols, want_const = GOLDEN_ROWS[beta.exponents]
            assert constant == F(want_const)
            assert {m.exponents: c for m, c in combo.items()} == {
                k: F(v) for k, v in want_cols.items()
            }

    def test_seed_count(self):
        ms = self.build()
        assert ms.seed_count == 1
        assert ms.indices[0] == Monomial((0, 2))


# ---------------------------------------------------------------------------
# Closure sizes across the benchmark corpus
# ---------------------------------------------------------------------------

SIZE_TABLE = [
    ("ou-env", (0, 2), 8),
    ("ou-env", (0, 3), 15),
    ("ou-env", (0, 4), 24),
    ("ou-env", (0, 5), 35),
    ("ou-env", (0, 10), 120),
    ("gene", (1, 0, 0, 0, 1), 23),
    ("gene", (0, 0, 0, 0, 2), 85),
    ("gene", (1, 0, 0, 0, 2), 115),
    ("consensus", (1, 1), 3),
    ("vehicles", (0, 0, 2, 0), 13),
    ("oscillator", (0, 1, 2), 6),
    ("coupled3d", (2, 2, 0), 3),
]


@pytest.mark.parametrize("name,alpha,size", SIZE_TABLE)
def test_closure_sizes(name, alpha, size):
    model = load_benchmark(name)
    result = build_closure(model, Monomial(alpha))
    assert isinstance(result, MomentSystem)
    assert result.dimension == size


@pytest.mark.parametrize("name,alpha,size", SIZE_TABLE)
def test_closedness_invariant(name, alpha, size):
    model = load_benchmark(name)
    ms = build_closure(model, Monomial(alpha))
    assert check_closedness(model, ms)


@pytest.mark.parametrize("name,alpha,size", SIZE_TABLE)
def test_size_within_simplex_bound(name, alpha, size):
    # S sits inside the simplex of monomials with degree up to its own max.
    model = load_benchmark(name)
    ms = build_closure(model, Monomial(alpha))
    top = max(m.degree for m in ms.indices)
    assert ms.dimension <= comb(model.dimension + top, model.dimension)


def test_consensus_initial_vector():
    model = load_benchmark("consensus")  # starts at the point (1, 0)
    ms = build_closure(model, Monomial((1, 1)))
    values = {m.exponents: v for m, v in zip(ms.indices, ms.m0)}
    assert values == {(1, 1): 0, (2, 0): 1, (0, 2): 0}


# ---------------------------------------------------------------------------
# Multi-seed closures
# ---------------------------------------------------------------------------


class TestMultiSeed:
    def test_duplicate_seeds_deduplicated(self):
        model = load_benchmark("ou-env")
        alpha = Monomial((0, 2))
        single = build_closure_multi(model, [alpha])
        double = build_closure_multi(model, [alpha, alpha])
        assert single.indices == double.indices
        assert single.seed_count == double.seed_count == 1

    def test_seeds_lead_the_index_list(self):
        model = load_benchmark("vehicles")
        seeds = [Monomial((1, 0, 0, 0)), Monomial((0, 0, 1, 0))]
        ms = build_closure_multi(model, seeds)
        assert list(ms.indices[:2]) == seeds
        assert ms.seed_count == 2

    def test_union_covers_single_closures(self):
        model = load_benchmark("vehicles")
        a = Monomial((1, 0, 0, 0))
        b = Monomial((0, 0, 1, 0))
        union = build_closure_multi(model, [a, b])
        only_a = build_closure(model, a)
        only_b = build_closure(model, b)
        assert set(only_a.indices) <= set(union.indices)
        assert set(only_b.indices) <= set(union.indices)

    def test_empty_seed_list_rejected(self):
        model = load_benchmark("ou-env")
        with pytest.raises(ValueError):
            build_closure_multi(model, [])

    def test_degree_zero_seed_rejected(self):
        model = load_benchmark("ou-env")
        with pytest.raises(ValueError):
            build_closure(model, Monomial((0, 0)))

    def test_wrong_dimension_seed_rejected(self):
        model = load_benchmark("ou-env")
        with pytest.raises(ValueError):
            build_closure(model, Monomial((1,)))


# ---------------------------------------------------------------------------
# Divergence reporting
# ---------------------------------------------------------------------------


class TestDivergence:
    def test_cubic_drift_diverges_with_witness(self):
        model = load_benchmark("double-well")
        report = build_closure(model, Monomial((2,)))
        assert isinstance(report, DivergenceReport)
        chain = [m.exponents[0] for m in report.witness_chain]
        assert chain[0] == 2
        assert chain[:3] == [2, 4, 6]
        # strictly increasing, stepping by exactly 2
        assert all(b - a == 2 for a, b in zip(chain, chain[1:]))

    def test_monomial_budget_trips(self):
        model = load_benchmark("double-well")
        report = build_closure(
            model, Monomial((2,)), budget=ClosureBudget(max_monomials=5)
        )
        assert isinstance(report, DivergenceReport)
        assert report.exceeded == "monomial-count"
        assert report.visited_count <= 5

    def test_degree_budget_trips(self):
        model = load_benchmark("double-well")
        report = build_closure(
            model, Monomial((2,)), budget=ClosureBudget(max_total_degree=50)
        )
        assert isinstance(report, DivergenceReport)
        assert report.exceeded == "degree"
        assert max(m.degree for m in report.witness_chain) > 50

    def test_describe_mentions_budget(self):
        model = load_benchmark("double-well")
        report = build_closure(model, Monomial((2,)))
        text = report.describe()
        assert "budget" in text
        assert "(2)" in text

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            ClosureBudget(max_monomials=0)
        with pytest.raises(ValueError):
            ClosureBudget(max_total_degree=-1)

    def test_terminating_model_ignores_generous_budget(self):
        model = load_benchmark("ou-env")
        ms = build_closure(
            model, Monomial((0, 2)), budget=ClosureBudget(max_monomials=9)
        )
        assert isinstance(ms, MomentSystem)
        assert ms.dimension == 8


# ---------------------------------------------------------------------------
# Serialization and lookups
# ---------------------------------------------------------------------------


class TestSerialization:
    def test_json_dict_shape(self):
        model = load_benchmark("ou-env")
        ms = build_closure(model, Monomial((0, 2)))
        doc = ms.to_json_dict()
        assert doc["model"] == "ou-env"
        assert doc["indices"][0] == [0, 2]
        assert len(doc["matrix"]) == 8
        assert all(len(row) == 8 for row in doc["matrix"])
        assert doc["matrix"][0][0] == "-4"
        assert doc["constant"][2] == "1"

    @staticmethod
    def assert_spliced(ms: MomentSystem, **extra) -> None:
        out = io.StringIO()
        ms.to_json(out, **extra)
        assert out.getvalue() == json.dumps({**ms.to_json_dict(), **extra}, indent=2) + "\n"

    def test_spliced_rows_of_a_one_index_closure(self):
        ms = build_closure(load_benchmark("ou-env"), Monomial((1, 0)))
        assert ms.dimension == 1 and ms.rows == (((0, Fraction(-1)),),)
        self.assert_spliced(ms)
        self.assert_spliced(dataclasses.replace(ms, rows=((),)), build_seconds=0.5)

    def test_spliced_rows_with_nonzeros_in_the_first_and_last_column(self):
        ms = build_closure(load_benchmark("ou-env"), Monomial((0, 2)))
        n = ms.dimension
        assert ms.rows[0][0][0] == 0 and ms.rows[-1][-1][0] == n - 1
        self.assert_spliced(ms)
        both_ends = ((0, Fraction(3)), (n - 1, Fraction(-5)))
        self.assert_spliced(dataclasses.replace(ms, rows=(both_ends,) * n))

    def test_spliced_rows_without_nonzeros(self):
        ms = build_closure(load_benchmark("ou-env"), Monomial((0, 2)))
        self.assert_spliced(dataclasses.replace(ms, rows=((),) + ms.rows[1:]))
        self.assert_spliced(dataclasses.replace(ms, rows=ms.rows[:3] + ((),) + ms.rows[4:]))
        self.assert_spliced(dataclasses.replace(ms, rows=((),) * ms.dimension))

    def test_spliced_negative_fractions(self):
        ms = build_closure(load_benchmark("ou-env"), Monomial((0, 2)))
        rows = tuple(
            tuple((col, Fraction(-7 * (col + 1), 3 + 2 * r)) for col, _ in row)
            for r, row in enumerate(ms.rows)
        )
        self.assert_spliced(dataclasses.replace(ms, rows=rows), build_seconds=1e-05)

    def test_spliced_model_name_that_json_escapes(self):
        ms = build_closure(load_benchmark("ou-env"), Monomial((0, 2)))
        self.assert_spliced(dataclasses.replace(ms, model_name='M\u00fcller "OU" \\ x\n\t'))

    def test_index_of(self):
        model = load_benchmark("ou-env")
        ms = build_closure(model, Monomial((0, 2)))
        assert ms.index_of(Monomial((0, 2))) == 0
        with pytest.raises(KeyError):
            ms.index_of(Monomial((9, 9)))


# ---------------------------------------------------------------------------
# Closures against the benchmark's target pool and a checked-in export
# ---------------------------------------------------------------------------

REPO = Path(__file__).resolve().parents[1]
DATA = Path(__file__).resolve().parent / "data"


def _load_targets_module():
    spec = importlib.util.spec_from_file_location(
        "_perfbench_targets", REPO / "perfbench" / "targets.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pool_closures_are_unchanged():
    """Every pool entry up to dim 150 rebuilds with its recorded dim, number
    of nonzeros and index-set digest, built the way the pool was."""
    targets = _load_targets_module()
    models = {}
    checked = 0
    for entry in targets.load_pool():
        if entry["dim"] > 150:
            continue
        name = entry["model"]
        model = models.get(name) or models.setdefault(name, load_benchmark(name))
        if "alpha" in entry:
            coeffs = {Monomial(tuple(entry["alpha"])): Fraction(1)}
        else:
            coeffs = dict(parse_polynomial(entry["functional"], model.variables).terms)
        ms = linear_functional_moment(model, coeffs).system
        digest = targets.closure_digest(m.exponents for m in ms.indices)
        got = (ms.dimension, sum(map(len, ms.rows)), digest)
        assert got == (entry["dim"], entry["nnz"], entry["closure"]), entry
        checked += 1
    assert checked > 1000


@pytest.mark.parametrize("flag, suffix", [("--json", "json"), ("--rows", "rows")])
def test_gene_export_matches_checked_in_bytes(capsys, flag, suffix):
    code = main(["closure", str(REPO / "benchmarks" / "gene.json"), "--alpha", "0,0,0,0,2", flag])
    out = capsys.readouterr().out
    assert code == 0
    out = re.sub(r'"build_seconds": [0-9.e-]+', '"build_seconds": "masked"', out)
    out = re.sub(r"(?m)^build time: [0-9.]+ s$", "build time: masked", out)
    assert out == (DATA / f"closure_gene_0_0_0_0_2.{suffix}").read_text()


# ---------------------------------------------------------------------------
# The worklist against a plain reference: index order, rows and reports
# ---------------------------------------------------------------------------


def _reference_closure(model, seeds, budget):
    """The worklist written plainly on Monomial and Fraction objects: a deque
    over the keys of Generator.apply(...).linear_part, each image's new
    monomials taken in descending graded-lex order (Monomial.__lt__)."""
    gen = Generator(model)
    seeds = list(dict.fromkeys(seeds))
    discovered, parents, images, work = list(seeds), dict.fromkeys(seeds), {}, deque(seeds)
    while work:
        beta = work.popleft()
        images[beta] = image = gen.apply(beta)
        for gamma in sorted(image.linear_part, reverse=True):
            if gamma in parents:
                continue
            parents[gamma] = beta
            too_high = gamma.degree > budget.max_total_degree
            if too_high or len(discovered) >= budget.max_monomials:
                chain = [gamma]
                while parents[chain[-1]] is not None:
                    chain.append(parents[chain[-1]])
                chain.reverse()
                start = len(chain) - 1
                while start and chain[start - 1].degree < chain[start].degree:
                    start -= 1
                exceeded = "degree" if too_high else "monomial-count"
                return DivergenceReport(exceeded, tuple(chain[start:]), len(discovered))
            discovered.append(gamma)
            work.append(gamma)
    position = {m: i for i, m in enumerate(discovered)}
    rows = [sorted((position[g], c) for g, c in images[b].linear_part.items()) for b in discovered]
    return MomentSystem(
        model_name=model.name,
        indices=tuple(discovered),
        rows=tuple(map(tuple, rows)),
        vector_c=tuple(images[b].constant for b in discovered),
        m0=tuple(initial_moment(model.initial, b) for b in discovered),
        seed_count=len(seeds),
    )


def _assert_same_result(got, want):
    assert type(got) is type(want)
    if isinstance(want, DivergenceReport):
        assert (got.exceeded, got.witness_chain, got.visited_count) == (
            want.exceeded,
            want.witness_chain,
            want.visited_count,
        )
        return
    assert got.indices == want.indices
    assert got.rows == want.rows
    assert (got.vector_c, got.m0, got.seed_count) == (want.vector_c, want.m0, want.seed_count)
    assert got == want


def _low_degree_targets(model):
    return [
        Monomial(e)
        for e in itertools.product(range(4), repeat=model.dimension)
        if 1 <= sum(e) <= 3
    ]


# Every degree <= 3 closure of the bundled models stays below total degree
# 13; the ten that diverge trip either cap long before the default budget.
DEGREE_CAP = ClosureBudget(max_total_degree=12)
COUNT_CAP = ClosureBudget(max_monomials=60)


@pytest.mark.parametrize("name", benchmark_names())
def test_worklist_matches_the_reference_on_low_degree_targets(name):
    model = load_benchmark(name)
    for alpha in _low_degree_targets(model):
        for budget in (DEGREE_CAP, COUNT_CAP):
            want = _reference_closure(model, [alpha], budget)
            _assert_same_result(build_closure(model, alpha, budget=budget), want)
            _assert_same_result(build_closure_multi(model, [alpha], budget=budget), want)


def test_the_ten_diverging_targets_report_like_the_reference():
    diverging = []
    for name in benchmark_names():
        model = load_benchmark(name)
        for alpha in _low_degree_targets(model):
            got = build_closure(model, alpha, budget=DEGREE_CAP)
            if isinstance(got, MomentSystem):
                continue
            diverging.append((name, alpha.exponents))
            for budget, exceeded in ((DEGREE_CAP, "degree"), (COUNT_CAP, "monomial-count")):
                report = build_closure(model, alpha, budget=budget)
                assert report.exceeded == exceeded
                _assert_same_result(report, _reference_closure(model, [alpha], budget))
    coupled = [(1, 0, 0), (1, 0, 1), (1, 0, 2), (1, 1, 0), (1, 1, 1), (1, 2, 0), (3, 0, 0)]
    assert sorted(diverging) == sorted(
        [("coupled3d", e) for e in coupled] + [("double-well", (d,)) for d in (1, 2, 3)]
    )


def test_worklist_matches_the_reference_on_pool_functionals():
    targets = _load_targets_module()
    checked = 0
    for entry in targets.load_pool():
        if "functional" not in entry or entry["dim"] > 150:
            continue
        model = load_benchmark(entry["model"])
        terms = parse_polynomial(entry["functional"], model.variables).terms
        seeds = sorted((m for m in terms if m.degree), reverse=True)
        for order in (seeds, seeds[::-1], seeds + seeds[:1]):
            want = _reference_closure(model, order, ClosureBudget())
            assert want.dimension == entry["dim"]
            _assert_same_result(build_closure_multi(model, order), want)
        checked += 1
    assert checked == 19

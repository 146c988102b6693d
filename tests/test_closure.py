"""Closure construction: golden systems, sizes, order invariance, divergence."""

import dataclasses
import importlib.util
import io
import itertools
import json
import re
from collections import deque
from contextlib import redirect_stdout
from fractions import Fraction
from math import comb
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdemoments.cli as cli
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
from sdemoments.generator import Generator, encode
from sdemoments.model import benchmark_names, initial_moment, load_benchmark, load_model
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


class TestCheckClosedness:
    def system(self):
        model = load_benchmark("ou-env")
        ms = build_closure(model, Monomial((0, 2)))
        assert check_closedness(model, ms)
        return model, ms

    def test_tampered_row_fails(self):
        model, ms = self.system()
        (col, coeff), *rest = ms.rows[2]
        rows = ms.rows[:2] + (((col, coeff + 1), *rest),) + ms.rows[3:]
        assert not check_closedness(model, dataclasses.replace(ms, rows=rows))

    def test_tampered_constant_fails(self):
        model, ms = self.system()
        c = ms.vector_c
        tampered = dataclasses.replace(ms, vector_c=c[:-1] + (c[-1] + Fraction(1, 7),))
        assert not check_closedness(model, tampered)

    def test_duplicated_index_fails(self):
        # Every row still matches its index's image; only the repeat is wrong.
        model, ms = self.system()
        duplicated = dataclasses.replace(
            ms,
            indices=ms.indices + ms.indices[:1],
            rows=ms.rows + ms.rows[:1],
            vector_c=ms.vector_c + ms.vector_c[:1],
            m0=ms.m0 + ms.m0[:1],
        )
        assert not check_closedness(model, duplicated)


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


_COEFFICIENTS = st.fractions(min_value=-40, max_value=40, max_denominator=9).filter(bool)


@st.composite
def sparse_systems(draw) -> MomentSystem:
    """Systems of dim 1-30: empty rows, nonzeros in the first and last column,
    and coefficients that are one shared object or distinct equal objects."""
    n = draw(st.integers(1, 30))
    pool = draw(st.lists(_COEFFICIENTS, min_size=1, max_size=4))
    cell = st.tuples(st.sampled_from([0, n - 1, *range(n)]), st.integers(0, 2 * len(pool) - 1))
    rows = []
    for cells in draw(st.lists(st.lists(cell, max_size=5), min_size=n, max_size=n)):
        row = {}
        for col, k in cells:  # k < len(pool) shares pool[k]; a larger k copies it
            value = pool[k % len(pool)]
            row[col] = value if k < len(pool) else Fraction(value.numerator, value.denominator)
        rows.append(tuple(sorted(row.items())))
    exponents = draw(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=n, max_size=n, unique=True))
    vectors = st.lists(st.sampled_from([Fraction(0), *pool]), min_size=n, max_size=n)
    return MomentSystem(
        model_name=draw(st.text(max_size=8)),
        indices=tuple(map(Monomial, exponents)),
        rows=tuple(rows),
        vector_c=tuple(draw(vectors)),
        m0=tuple(draw(vectors)),
    )


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

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_spliced_rows_of_drawn_systems(self, data):
        ms = data.draw(sparse_systems())
        extra = data.draw(
            st.dictionaries(
                st.text(max_size=6).filter(lambda k: k not in ms.to_json_dict()),
                st.one_of(st.integers(), st.floats(allow_nan=False), st.text(max_size=4)),
                max_size=2,
            )
        )
        self.assert_spliced(ms, **extra)

    @settings(max_examples=50, deadline=None)
    @given(sparse_systems())
    def test_rows_lines_of_drawn_systems(self, ms):
        """`closure --rows` prints each row as print(f"d/dt {label} = ...")
        with "coeff * label" terms, then the constant, joined by " + "."""
        labels = [f"m{beta}" for beta in ms.indices]
        expected = []
        for label, row, constant in zip(labels, ms.rows, ms.vector_c):
            parts = [f"{coeff} * {labels[col]}" for col, coeff in row]
            if constant:
                parts.append(str(constant))
            expected.append(f"d/dt {label} = {' + '.join(parts) if parts else '0'}")
        expected.append(f"m(0) = [{', '.join(str(v) for v in ms.m0)}]")
        out = io.StringIO()
        with mock.patch.object(cli, "build_closure", lambda *args, **kwargs: ms), redirect_stdout(out):
            assert main(["closure", str(REPO / "benchmarks" / "ou-env.json"), "--alpha", "1,0", "--rows"]) == 0
        assert out.getvalue().splitlines()[4:] == expected

    def test_one_write_per_row(self):
        """O(n) writes, never one per nonzero: a buffering writer keeps every
        string it is given, so per-cell writes would hold O(nnz) of them."""

        class CountingWriter(io.StringIO):
            calls = 0

            def write(self, text):
                self.calls += 1
                return super().write(text)

        ms = build_closure(load_benchmark("gene"), Monomial((0, 0, 0, 0, 2)))
        nnz = sum(map(len, ms.rows))
        out = CountingWriter()
        ms.to_json(out, build_seconds=0.5)
        assert out.calls <= ms.dimension + 8
        assert nnz > 2 * (ms.dimension + 8)  # so a write per nonzero would fail the bound
        assert out.getvalue() == json.dumps({**ms.to_json_dict(), "build_seconds": 0.5}, indent=2) + "\n"


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


# ---------------------------------------------------------------------------
# The integer monomial codes: wide models, digit bounds, cancelled keys
# ---------------------------------------------------------------------------


def _model(drift, diffusion, point, name="coded"):
    n = len(drift)
    return load_model(
        json.dumps(
            {
                "name": name,
                "variables": [f"x{i + 1}" for i in range(n)],
                "brownian_dim": len(diffusion[0]),
                "drift": drift,
                "diffusion": diffusion,
                "initial": {"kind": "point", "values": point},
            }
        )
    )


def test_codes_wider_than_64_bits_match_the_reference():
    # A linear chain of 10 variables: its codes exceed 2^63, and the point
    # start mixes zero and nonzero coordinates.
    drift = ["1 - x1"] + [f"x{i} - x{i + 1}" for i in range(1, 10)]
    diffusion = [["1/2"] if i % 3 else [f"x{i + 1}"] for i in range(10)]
    model = _model(drift, diffusion, ["1/2", "0", "2", "0", "-3", "0", "0", "1", "0", "5/7"])
    reach = Generator(model).reach
    assert (ClosureBudget().max_total_degree + reach + 1) ** model.dimension > 2**63
    alphas = [Monomial((0,) * 9 + (2,)), Monomial((1, 0, 1) + (0,) * 6 + (1,))]
    for alpha in alphas:
        for budget in (ClosureBudget(), ClosureBudget(max_monomials=30)):
            want = _reference_closure(model, [alpha], budget)
            _assert_same_result(build_closure(model, alpha, budget=budget), want)
    ms = build_closure_multi(model, alphas)
    assert ms.dimension > 30 and any(ms.m0) and not all(ms.m0)
    _assert_same_result(ms, _reference_closure(model, alphas, ClosureBudget()))


@pytest.mark.parametrize("cap", [4, 6, 9])
def test_a_degree_offender_above_the_cap_by_the_reach_keeps_its_digits(cap):
    # x2' = x2^3 adds x2^2 (reach 2) per step.  From a member x2^cap the
    # offender x2^(cap + 2) fills the largest digit, base - 1; a carry would
    # show up in x1's digit.
    model = _model(["-x1", "x2^3"], [["0"], ["0"]], ["1", "1"])
    assert Generator(model).reach == 2
    budget = ClosureBudget(max_total_degree=cap)
    for alpha, offender in (((0, 2 - cap % 2), (0, cap + 2)), ((1, 1 + cap % 2), (1, cap + 1))):
        report = build_closure(model, Monomial(alpha), budget=budget)
        assert report.exceeded == "degree"
        assert report.witness_chain[-1] == Monomial(offender)
        _assert_same_result(report, _reference_closure(model, [Monomial(alpha)], budget))


def test_a_key_whose_terms_cancel_never_becomes_an_index():
    # On x1 x2 the drift -1 of x1 gives -x2, and the cross diffusion term
    # x2 of (sigma sigma^T)_12 gives +x2: the key of x2 cancels.
    model = _model(["-1", "-x2"], [["1", "0"], ["x2", "0"]], ["1", "3"])
    gen = Generator(model)
    base = ClosureBudget().max_total_degree + gen.reach + 1
    e = (1, 1)
    raw = {}  # the image before cancelled keys are dropped
    for i, j, terms in gen.coded(base):
        factor = e[i] if j < 0 else e[i] * (e[i] - 1) // 2 if i == j else e[i] * e[j]
        for offset, k in terms:
            key = encode(e, base) + offset
            raw[key] = raw.get(key, 0) + factor * k
    assert raw[encode((0, 1), base)] == 0
    assert encode((0, 1), base) not in gen.image(e, encode(e, base), gen.coded(base))
    ms = build_closure(model, Monomial(e))
    assert ms.indices == (Monomial(e),) and ms.rows == (((0, Fraction(-1)),),)
    _assert_same_result(ms, _reference_closure(model, [Monomial(e)], ClosureBudget()))

"""Acceptance gate: the nine end-to-end criteria this package must meet.

Each test prints one ``[criterion N] PASS/FAIL`` line (run with ``-s`` or
read the captured output) and asserts the criterion at its stated
tolerance.  Everything here is exercised through the public API only.

Criterion 7 runs the full-size Monte Carlo cross-check (10^5 paths at
dt = 1e-3) and takes a couple of minutes; everything else is seconds.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction as F

import pytest

from sdemoments import (
    CertificateError,
    ClosedFormUnsupported,
    DivergenceReport,
    FunctionalMoment,
    Generator,
    Monomial,
    MomentSystem,
    Polynomial,
    SimConfig,
    build_closure,
    certify_closure,
    check_closedness,
    check_prosolvable,
    diffusion_product,
    linear_functional_moment,
    load_benchmark,
    markov_tail_bound,
    parse_polynomial,
    simulate_functional,
    simulate_moment,
    solve_closed_form,
    solve_closed_form_vector,
)
from test_odesolve import assert_exact_solution


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")


def _gate(number: int, detail: str):
    """Decorator: run the body, then print exactly one PASS/FAIL line."""

    def wrap(fn):
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                _report(number, False, detail)
                raise
            _report(number, True, detail)

        run.__name__ = fn.__name__
        run.__doc__ = fn.__doc__
        return run

    return wrap


def _functional(model_name: str, text: str) -> FunctionalMoment:
    model = load_benchmark(model_name)
    coeffs = dict(parse_polynomial(text, model.variables).terms)
    fm = linear_functional_moment(model, coeffs)
    assert isinstance(fm, FunctionalMoment)
    return fm


def _closure(model_name: str, exponents: tuple[int, ...]) -> MomentSystem:
    result = build_closure(load_benchmark(model_name), Monomial(exponents))
    assert isinstance(result, MomentSystem)
    return result


# ---------------------------------------------------------------------------
# 1. The 8-dimensional benchmark system, every rational entry exact.
# ---------------------------------------------------------------------------

GOLDEN_ORDER = [
    (0, 2), (2, 1), (2, 0), (1, 1), (4, 0), (3, 0), (0, 1), (1, 0),
]

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


@_gate(1, "ou-env (0,2) closure reproduces all 8 rows with exact rationals")
def test_criterion_1_reference_system_exact():
    ms = _closure("ou-env", (0, 2))
    assert [m.exponents for m in ms.indices] == GOLDEN_ORDER
    pos = {m.exponents: i for i, m in enumerate(ms.indices)}
    for row_key, (cols, constant) in GOLDEN_ROWS.items():
        r = pos[row_key]
        assert ms.vector_c[r] == F(constant)
        for col_key in pos:
            assert ms.matrix_a[r][pos[col_key]] == F(cols.get(col_key, 0))
    assert list(ms.m0) == [F(0)] * 8


# ---------------------------------------------------------------------------
# 2. Exact closed form of the target component, term-wise rational equality.
# ---------------------------------------------------------------------------


@_gate(2, "exact closed form 1/3 + 2/3 e^-3t + (-11/8 - t/4) e^-2t + ...")
def test_criterion_2_exact_closed_form():
    cf = solve_closed_form(_closure("ou-env", (0, 2)), 0)
    assert {lam: coeffs for lam, coeffs in cf.terms} == {
        F(0): (F(1, 3),),
        F(-2): (F(-11, 8), F(-1, 4)),
        F(-3): (F(2, 3),),
        F(-4): (F(3, 8), F(1), F(3, 4)),
    }
    assert str(cf) == (
        "1/3 + (-11/8 - 1/4*t)*exp(-2*t) + 2/3*exp(-3*t) "
        "+ (3/8 + t + 3/4*t^2)*exp(-4*t)"
    )


# ---------------------------------------------------------------------------
# 3. Closure sizes across the whole benchmark table.
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


@_gate(3, "closure sizes 8/15/24/35/120, 23/85/115, 3, 13, 6, 3")
def test_criterion_3_closure_sizes():
    for name, exponents, size in SIZE_TABLE:
        assert _closure(name, exponents).dimension == size, (name, exponents)


# ---------------------------------------------------------------------------
# 4. Structural solvability flags, including the nonlinear self-loop reject.
# ---------------------------------------------------------------------------


@_gate(4, "solvable: ou-env/gene/consensus/vehicles/oscillator; not: coupled3d")
def test_criterion_4_solvability_flags():
    for name in ("ou-env", "gene", "consensus", "vehicles", "oscillator"):
        assert check_prosolvable(load_benchmark(name)).prosolvable, name
    assert not check_prosolvable(load_benchmark("coupled3d")).prosolvable
    verdict = check_prosolvable(load_benchmark("double-well"))
    assert not verdict.prosolvable
    edge, _ = verdict.violation
    assert edge.source == edge.target == 0 and edge.nonlinear


# ---------------------------------------------------------------------------
# 5. Consensus gap: float-spectrum form matches the radical expression and
#    the quadratic tail bound decays below e^{-t}.
# ---------------------------------------------------------------------------


@_gate(5, "consensus E[(x1-x2)^2] matches radical form; tail bound <= e^-t")
def test_criterion_5_consensus_study():
    cf = _functional("consensus", "(x1 - x2)^2").closed_form_float()
    s17 = math.sqrt(17.0)

    def radical(t: float) -> float:
        return (
            (17 - 3 * s17) * math.exp((s17 - 7) / 2 * t)
            + (17 + 3 * s17) * math.exp(-(s17 + 7) / 2 * t)
        ) / 34

    for t in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0):
        assert abs(cf.evaluate(t) - radical(t)) < 1e-9, t
    for t in (10.0, 12.0, 15.0):
        assert markov_tail_bound(cf.evaluate(t), 0.1, 2) <= math.exp(-t), t


# ---------------------------------------------------------------------------
# 6. Vehicle platoon gap: reference form 3/4 + e^{-t}/2 - e^{-2t}/4, bounded
#    within [3/4, 1] on t in {0, 0.1, ..., 10}.
# ---------------------------------------------------------------------------


@_gate(6, "vehicles E[p1-p2] = 3/4 + e^-t/2 - e^-2t/4, inside [3/4, 1]")
def test_criterion_6_vehicle_gap_reference_form():
    cf = _functional("vehicles", "p1 - p2").closed_form_exact()
    assert {lam: coeffs for lam, coeffs in cf.terms} == {
        F(0): (F(3, 4),),
        F(-1): (F(1, 2),),
        F(-2): (F(-1, 4),),
    }
    for i in range(101):
        t = i / 10.0
        value = cf.evaluate(t)
        assert 3 / 4 - 1e-12 <= value <= 1 + 1e-12, t


# ---------------------------------------------------------------------------
# 7. Monte Carlo cross-validation at full size: dt = 1e-3, 10^5 paths,
#    agreement within 4 standard errors.
# ---------------------------------------------------------------------------


@pytest.mark.slow
@_gate(7, "10^5-path weak Euler within 4 standard errors of exact values")
def test_criterion_7_monte_carlo_cross_validation():
    # One worker: the step loop holds the GIL, so threads only add switching,
    # and estimates are bitwise independent of the worker count.
    cfg = lambda times: SimConfig(  # noqa: E731 - tiny local alias
        dt=1e-3, paths=100_000, seed=0, record_times=times, workers=1
    )

    ou = load_benchmark("ou-env")
    fm = _functional("ou-env", "x2^2")
    exact = fm.eval_numeric((0.5, 1.0, 2.0))
    for estimate, value in zip(
        simulate_moment(ou, Monomial((0, 2)), cfg((0.5, 1.0, 2.0))), exact
    ):
        gap = abs(estimate.mean - value)
        assert gap <= 4 * estimate.std_error, (estimate.time, gap, estimate.std_error)

    vehicles = load_benchmark("vehicles")
    fm = _functional("vehicles", "p1 - p2")
    coeffs = dict(parse_polynomial("p1 - p2", vehicles.variables).terms)
    exact = fm.eval_numeric((1.0, 2.0))
    for estimate, value in zip(
        simulate_functional(vehicles, coeffs, cfg((1.0, 2.0))), exact
    ):
        gap = abs(estimate.mean - value)
        assert gap <= 4 * estimate.std_error, (estimate.time, gap, estimate.std_error)


# ---------------------------------------------------------------------------
# 8. Property suite roll-up: closedness, certificates, exact ODE residuals,
#    generator linearity/Leibniz, and worker-count determinism.
# ---------------------------------------------------------------------------


def _random_polynomial(rng: random.Random, dimension: int) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(1, 4)):
        mono = Monomial(tuple(rng.randint(0, 2) for _ in range(dimension)))
        terms[mono] = F(rng.randint(-9, 9), rng.randint(1, 4))
    return Polynomial(dimension, terms)


def _partial(p: Polynomial, var: int) -> Polynomial:
    """d p / d x_var, term by term."""
    terms = {}
    for mono, c in p.terms.items():
        e = mono.exponents
        if e[var]:
            terms[Monomial(e[:var] + (e[var] - 1,) + e[var + 1 :])] = c * e[var]
    return Polynomial(p.dimension, terms)


@_gate(8, "closedness + certificates + residuals + Leibniz + determinism")
def test_criterion_8_property_roll_up():
    # (a) Every finite closure in the size table is closed under the
    #     generator: no row references a monomial outside the set.
    for name, exponents, _ in SIZE_TABLE:
        assert check_closedness(load_benchmark(name), _closure(name, exponents))

    # (b) The weighted-degree certificate passes for every structurally
    #     solvable benchmark/target pair in the table.
    for name, exponents, _ in SIZE_TABLE:
        model = load_benchmark(name)
        verdict = check_prosolvable(model)
        if not verdict.prosolvable:
            continue
        try:
            certify_closure(model, verdict.partition, _closure(name, exponents))
        except CertificateError as exc:  # pragma: no cover - must not happen
            raise AssertionError(f"certificate failed for {name} {exponents}: {exc}")

    # (c) The exact closed forms satisfy their own ODE identically:
    #     cf_r' - sum_k A[r][k] cf_k - c_r == 0 with exact rationals.
    ms = _closure("ou-env", (0, 2))
    assert_exact_solution(ms, solve_closed_form_vector(ms))

    # (d) Generator linearity and the second-order product rule
    #     A(fg) = f Ag + g Af + sum_ij (ss^T)_ij (d_i f)(d_j g)
    #     on 100 random small polynomials with exact arithmetic.
    rng = random.Random(20260814)
    names = ("ou-env", "consensus", "oscillator", "vehicles", "double-well")
    for trial in range(100):
        model = load_benchmark(names[trial % len(names)])
        gen = Generator(model)
        ss = diffusion_product(model)
        f = _random_polynomial(rng, model.dimension)
        g = _random_polynomial(rng, model.dimension)
        a, b = F(rng.randint(-5, 5)), F(rng.randint(-5, 5))
        assert gen.apply_polynomial(a * f + b * g) == (
            a * gen.apply_polynomial(f) + b * gen.apply_polynomial(g)
        )
        correction = Polynomial.zero(model.dimension)
        for i in range(model.dimension):
            for j in range(model.dimension):
                correction = correction + ss[i][j] * _partial(f, i) * _partial(g, j)
        assert gen.apply_polynomial(f * g) == (
            f * gen.apply_polynomial(g) + g * gen.apply_polynomial(f) + correction
        )

    # (e) Bitwise seed determinism across 1, 2 and 8 worker threads.
    model = load_benchmark("ou-env")
    runs = [
        simulate_moment(
            model,
            Monomial((0, 2)),
            SimConfig(dt=0.02, paths=3000, seed=7, record_times=(0.5, 1.0), workers=w),
        )
        for w in (1, 2, 8)
    ]
    for other in runs[1:]:
        assert [(e.mean, e.std_error) for e in other] == [
            (e.mean, e.std_error) for e in runs[0]
        ]


# ---------------------------------------------------------------------------
# 9. Divergence diagnostics: the even-moment ladder grows degree by 2
#    forever and defeats any budget with an explicit witness chain.
# ---------------------------------------------------------------------------


@_gate(9, "double-well (2) diverges; witness degrees climb 2, 4, 6, ...")
def test_criterion_9_divergence_witness():
    from sdemoments import ClosureBudget

    model = load_benchmark("double-well")
    for budget in (
        ClosureBudget(max_monomials=5, max_total_degree=200),
        ClosureBudget(max_monomials=10_000, max_total_degree=60),
    ):
        report = build_closure(model, Monomial((2,)), budget=budget)
        assert isinstance(report, DivergenceReport)
        degrees = [m.degree for m in report.witness_chain]
        assert degrees[0] == 2
        assert len(degrees) >= 3
        assert all(b - a == 2 for a, b in zip(degrees, degrees[1:]))

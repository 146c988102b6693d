"""Generated pro-solvable models through the symbolic chain.

Every model drawn here is block triangular by construction: inside a block
the drift is linear, and a block's entries may add any polynomial in the
variables of earlier blocks.  The paper's theorem says every moment of such a
model has a finite closure, so each drawn model must pass the structural
check, and each drawn target must close, certify and re-derive exactly.  Its
exact forms must then have an identically zero ODE residual and match
`eval_numeric`, or the solver must name a cyclic block's factor that has no
rational root.  The negative twin adds x_i^2 to the drift of a last-block
variable: that edge is nonlinear inside its own strongly connected component,
and `check` must name it.
"""

import contextlib
import dataclasses
import io
import json
import os
import tempfile
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_odesolve import assert_exact_solution, assert_no_rational_root, stepped_one_gap_at_a_time

import sdemoments.odesolve as odesolve
from sdemoments.cli import EXIT_CHECK_FAILED, main
from sdemoments.closure import MomentSystem, build_closure, check_closedness
from sdemoments.model import load_model
from sdemoments.odesolve import ClosedFormUnsupported, OdeSolveError, eval_numeric, solve_closed_form_vector
from sdemoments.poly import Monomial, Polynomial
from sdemoments.prosolve import DependencyEdge, certify_closure, check_prosolvable

TIMES = [0.5, 1.0, 2.0]
COEFFS = st.sampled_from([Fraction(c) for c in (-2, -1, "-1/2", "1/3", 1, "3/2")])
STARTS = st.one_of(st.just(Fraction(0)), COEFFS)  # a zero start makes structurally zero moments


def _unit(n: int, v: int) -> tuple[int, ...]:
    return tuple(int(u == v) for u in range(n))


@st.composite
def _earlier_terms(draw, n: int, earlier: list[int], max_degree: int) -> dict:
    """Up to two monomials of degree 1..max_degree in the earlier-block variables."""
    if not earlier:
        return {}
    terms = {}
    for _ in range(draw(st.integers(0, 2))):
        powers = [0] * n
        for _ in range(draw(st.integers(1, max_degree))):
            powers[draw(st.sampled_from(earlier))] += 1
        terms[tuple(powers)] = draw(COEFFS)
    return terms


@st.composite
def prosolvable_models(draw):
    """(model JSON document, the blocks in order as lists of variable indices)."""
    sizes = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    n = sum(sizes)
    order = draw(st.permutations(range(n)))  # block slots -> variable indices
    blocks, start = [], 0
    for size in sizes:
        blocks.append(sorted(order[start : start + size]))
        start += size
    noises = draw(st.integers(1, 2))
    drift, diffusion = [None] * n, [None] * n
    for p, block in enumerate(blocks):
        earlier = [v for b in blocks[:p] for v in b]
        cyclic = len(block) == 2 and draw(st.booleans())
        for i in block:
            terms = draw(_earlier_terms(n, earlier, 2))  # feed-forward of degree <= 2
            for j in block:  # linear inside the block; a cyclic block couples both ways
                c = draw(COEFFS) if cyclic or j == i else draw(st.one_of(st.just(0), COEFFS))
                terms[_unit(n, j)] = terms.get(_unit(n, j), 0) + c
            terms[(0,) * n] = draw(st.one_of(st.just(0), COEFFS))
            drift[i] = terms
            row = []
            for _ in range(noises):  # own-block linear plus an earlier-block polynomial
                sigma = draw(_earlier_terms(n, earlier, 2))
                if draw(st.booleans()):
                    sigma[_unit(n, draw(st.sampled_from(block)))] = draw(COEFFS)
                sigma[(0,) * n] = draw(st.one_of(st.just(0), COEFFS))
                row.append(sigma)
            diffusion[i] = row
    names = [f"x{v + 1}" for v in range(n)]

    def text(terms: dict) -> str:
        return Polynomial(n, terms).to_text(names)

    doc = {
        "name": "generated",
        "variables": names,
        "brownian_dim": noises,
        "drift": [text(t) for t in drift],
        "diffusion": [[text(s) for s in row] for row in diffusion],
        "initial": {"kind": "point", "values": [str(draw(STARTS)) for _ in range(n)]},
    }
    return doc, blocks


@st.composite
def targets(draw, n: int, last: list[int]) -> Monomial:
    """Degree 1..3, with a last-block factor so that the feed-forward is reached."""
    powers = [0] * n
    powers[draw(st.sampled_from(last))] += 1
    for _ in range(draw(st.integers(0, 2))):
        powers[draw(st.integers(0, n - 1))] += 1
    return Monomial(tuple(powers))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_generated_models_close_certify_and_rederive(data):
    doc, blocks = data.draw(prosolvable_models())
    model = load_model(json.dumps(doc))
    verdict = check_prosolvable(model)
    assert verdict.prosolvable, doc
    alpha = data.draw(targets(model.dimension, blocks[-1]))
    ms = build_closure(model, alpha)
    assert isinstance(ms, MomentSystem), doc
    assert ms.indices[0] == alpha
    certify_closure(model, verdict.partition, ms)
    assert check_closedness(model, ms)
    try:
        forms = solve_closed_form_vector(ms)
    except ClosedFormUnsupported as exc:
        # Only a cyclic block whose spectrum is not rational may refuse.
        assert max(map(len, ms.blocks)) > 1, doc
        assert_no_rational_root(exc.remaining_factor)
        return
    assert_exact_solution(ms, forms)
    numeric = eval_numeric(ms, TIMES)[:, 0]
    exact = [forms[0].evaluate(t) for t in TIMES]
    scale = max(map(abs, exact))
    assert all(abs(x - y) <= 1e-10 * scale for x, y in zip(exact, numeric)), doc


def assert_zero_moments_on_both_routes(doc: dict, alpha: Monomial) -> None:
    """The reference is the full system (the rule switched off) stepped by one
    expm per gap.  When it overflows, both routes raise OdeSolveError.  Each
    moment of ms.zeros is exactly 0 there and exactly +0.0 on either route.
    Every other moment is within 1e-10 of its own largest reference value:
    leaving the zero moments out changes the rounding, by up to 6e-12 of
    that on an ill-conditioned draw.  A moment outside ms.zeros that is
    identically 0 (its terms cancel) has only rounding noise for its own
    scale, so it is held to the closure's largest reference value instead.
    On the Taylor route the bound adds the route's own error on the full
    system, which reaches 4e-5 on about 1 in 300 drawn models, with or
    without the rule."""
    ms = build_closure(load_model(json.dumps(doc)), alpha)
    full = dataclasses.replace(ms)
    full.__dict__["zeros"] = frozenset()  # the cached property, seeded empty
    with np.errstate(over="ignore", invalid="ignore"):
        want, _ = stepped_one_gap_at_a_time(full, TIMES)
    if not np.isfinite(want).all():
        for sparse in (False, True):
            with mock.patch.object(odesolve, "_sparse_is_cheaper", lambda *args: sparse):
                with pytest.raises(OdeSolveError):
                    eval_numeric(ms, TIMES)
        return
    zeros, scale = sorted(ms.zeros), np.abs(want).max(axis=0)
    assert not want[:, zeros].any(), doc
    for sparse in (False, True):
        with mock.patch.object(odesolve, "_sparse_is_cheaper", lambda *args: sparse):
            values, own = eval_numeric(ms, TIMES), eval_numeric(full, TIMES) if sparse else want
        assert (values[:, zeros] == 0).all() and not np.signbit(values[:, zeros]).any(), (doc, sparse)
        error, slack = np.abs(values - want).max(axis=0), np.abs(own - want).max(axis=0)
        loose = np.flatnonzero(error > 1e-10 * scale + slack)
        largest = np.abs(want).max()
        assert all(error[i] <= 1e-10 * largest + slack[i] and identically_zero(ms, i) for i in loose), (doc, sparse)


def identically_zero(ms: MomentSystem, i: int) -> bool:
    """Whether m_i(t) = 0 for every t: the i-th entries of m0, A m0 + c,
    A (A m0 + c), ..., its derivatives at t = 0, are 0.  The first
    dimension + 1 of them decide it (Cayley-Hamilton on [m; 1])."""
    v = list(ms.m0)
    for j in range(ms.dimension + 1):
        if v[i]:
            return False
        v = [sum(c * v[k] for k, c in row) + (0 if j else ms.vector_c[r]) for r, row in enumerate(ms.rows)]
    return True


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_structurally_zero_moments_on_both_routes(data):
    doc, blocks = data.draw(prosolvable_models())
    model = load_model(json.dumps(doc))
    assert_zero_moments_on_both_routes(doc, data.draw(targets(model.dimension, blocks[-1])))


@pytest.mark.parametrize(
    "doc, alpha",
    [
        (  # E[x4^3], dim 95: the diagonal reaches 504, so m(2) is about e^1008
            {
                "name": "generated",
                "variables": ["x1", "x2", "x3", "x4", "x5"],
                "brownian_dim": 2,
                "drift": ["-2*x1", "-2*x2", "-2*x3", "-2*x4 - 2*x5", "-2*x5"],
                "diffusion": [
                    ["-2*x1", "-2*x1 - 2"], ["0", "-2*x1^2"], ["0", "0"], ["0", "0"], ["0", "-2*x2^2 - 2*x1"]
                ],
                "initial": {"kind": "point", "values": ["0", "0", "0", "0", "0"]},
            },
            (0, 0, 0, 3, 0),
        ),
        (  # E[x1^2]: x3' = -2 x3 - x5 - 2 with x5 = -2 throughout, so six moments are 0
            {
                "name": "generated",
                "variables": ["x1", "x2", "x3", "x4", "x5"],
                "brownian_dim": 1,
                "drift": ["-2*x1 - 2*x4", "-2*x2", "-2*x3 - x5 - 2", "-2*x1 - 2*x4", "-2*x3 - x5 - 2"],
                "diffusion": [["0"], ["0"], ["0"], ["-2*x3"], ["-2*x2"]],
                "initial": {"kind": "point", "values": ["0", "0", "0", "0", "-2"]},
            },
            (2, 0, 0, 0, 0),
        ),
        (  # E[x1^2] with x4' = -2 x1 - x4: a block of spectrum (-3 +- sqrt(17))/2, so no exact form
            {
                "name": "generated",
                "variables": ["x1", "x2", "x3", "x4", "x5"],
                "brownian_dim": 1,
                "drift": ["-2*x1 - 2*x4", "-2*x2", "-2*x3 - x5 - 2", "-2*x1 - x4", "-2*x3 - x5 - 2"],
                "diffusion": [["0"], ["0"], ["0"], ["-2*x5"], ["-2*x2"]],
                "initial": {"kind": "point", "values": ["0", "0", "0", "0", "-2"]},
            },
            (2, 0, 0, 0, 0),
        ),
    ],
)
def test_structurally_zero_moments_on_drawn_edge_cases(doc, alpha):
    assert_zero_moments_on_both_routes(doc, Monomial(alpha))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_a_square_in_a_last_block_drift_is_named(data):
    doc, blocks = data.draw(prosolvable_models())
    i = data.draw(st.sampled_from(blocks[-1]))
    name = doc["variables"][i]
    doc["drift"][i] += f" + {name}^2"
    verdict = check_prosolvable(load_model(json.dumps(doc)))
    assert not verdict.prosolvable
    assert verdict.violation[0] == DependencyEdge(source=i, target=i, nonlinear=True)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["check", path]) == EXIT_CHECK_FAILED
    assert f"violation: dependency {name} -> {name} (nonlinear)\n" in out.getvalue()

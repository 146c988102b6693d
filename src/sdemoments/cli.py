"""Command-line frontend for the moment pipeline.

Subcommands
-----------
check     structural solvability analysis of a model file
closure   build the closed linear ODE system for one target moment
moment    full pipeline: closure, closed form, numeric values, optional
          Monte Carlo cross-check and closure certificate
simulate  weak Euler (+-sqrt(dt) increments) estimates only (CSV or JSON)
table1    re-run the bundled benchmark suite and diff closure sizes
verify    check bounds / tail estimates of a moment on a time grid

`moment`, `table1 --solve` and `verify` take their values from one chain,
`_answer`; `moment --simulate` checks its simulation flags before it builds
the closure.

Exit codes (stable contract): 0 success, 1 structural check failed,
2 closure divergence or simulation blow-up, 3 model error,
4 verification mismatch, 64 usage error, 141 (128 + SIGPIPE) when the
reader of standard output closes it early, as in `sdemoments table1 | head`.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import time
from fractions import Fraction
from typing import Sequence

from .closure import (
    BudgetError,
    ClosureBudget,
    DivergenceReport,
    build_closure,
)
from .model import EXPONENT_FIELD, ModelError, SdeModel, load_benchmark, load_model_file
from .montecarlo import BlowUpError, SimConfig, SimulationError, simulate_functional
from .odesolve import (
    OdeSolveError,
    best_closed_form,
    linear_functional_moment,
    markov_tail_bound,
)
from .poly import Monomial, ParseError, Polynomial, parse_polynomial
from .prosolve import (
    CertificateError,
    certify_closure,
    check_prosolvable,
    compute_block_weights,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_DIVERGENCE = 2
EXIT_MODEL_ERROR = 3
EXIT_VERIFY_MISMATCH = 4
EXIT_USAGE = 64
EXIT_BROKEN_PIPE = 141


class _ArgumentParser(argparse.ArgumentParser):
    """argparse parser whose usage failures exit with the documented code."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class _CliFailure(Exception):
    """Internal control flow: carries the message and exit code to main()."""

    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


# A plain decimal literal with an optional exponent; float() alone also takes
# "1_0", "+1", "inf" and non-ASCII digits.
_TIME_FIELD = re.compile(r"\s*-?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?\s*")


def _parse_times(text: str | None) -> tuple[float, ...]:
    if text is None:
        return tuple(i * 0.5 for i in range(21))  # 0, 0.5, ..., 10
    parts = text.split(",") if text.strip() else []
    if not all(_TIME_FIELD.fullmatch(part) for part in parts):
        raise _CliFailure(f"--times expects comma-separated non-negative numbers, got {text!r}", EXIT_USAGE)
    times = tuple(map(float, parts))
    if not times:
        raise _CliFailure("--times must list at least one time", EXIT_USAGE)
    if not all(math.isfinite(t) and t >= 0 for t in times):
        raise _CliFailure("--times must be finite and non-negative", EXIT_USAGE)
    if any(b <= a for a, b in zip(times, times[1:])):
        raise _CliFailure("--times must be sorted ascending, each time once", EXIT_USAGE)
    return times


def _parse_alpha(text: str, model: SdeModel) -> Monomial:
    parts = text.split(",")
    if not all(EXPONENT_FIELD.fullmatch(p) for p in parts):
        raise _CliFailure(f"--alpha expects comma-separated integers, got {text!r}", EXIT_USAGE)
    exponents = tuple(int(p) for p in parts)
    if len(exponents) != model.dimension:
        raise _CliFailure(
            f"--alpha has {len(exponents)} entries but the model has "
            f"{model.dimension} variables",
            EXIT_USAGE,
        )
    if any(e < 0 for e in exponents):
        raise _CliFailure("--alpha exponents must be non-negative", EXIT_USAGE)
    if sum(exponents) == 0:
        raise _CliFailure("--alpha must have total degree at least 1", EXIT_USAGE)
    return Monomial(exponents)


def _parse_functional(text: str, model: SdeModel) -> dict[Monomial, Fraction]:
    try:
        poly = parse_polynomial(text, model.variables)
    except ParseError as exc:
        raise _CliFailure(f"cannot parse functional {text!r}: {exc}", EXIT_USAGE)
    coeffs = dict(poly.terms)
    if all(m.degree == 0 for m in coeffs):
        raise _CliFailure("functional must mention at least one variable", EXIT_USAGE)
    return coeffs


def _load(path: str) -> SdeModel:
    try:
        return load_model_file(path)
    except ModelError as exc:
        raise _CliFailure(f"model error: {exc}", EXIT_MODEL_ERROR)


def _budget(args: argparse.Namespace) -> ClosureBudget:
    try:
        return ClosureBudget(
            max_monomials=args.budget_monomials,
            max_total_degree=args.budget_degree,
        )
    except ValueError as exc:
        raise _CliFailure(f"bad budget: {exc}", EXIT_USAGE)


def _target_coeffs(args: argparse.Namespace, model: SdeModel) -> tuple[str, dict[Monomial, Fraction]]:
    """Resolve the --alpha/--functional pair into (label, coefficient map)."""
    if args.alpha is not None and args.functional is not None:
        raise _CliFailure("--alpha and --functional are mutually exclusive", EXIT_USAGE)
    if args.alpha is not None:
        mono = _parse_alpha(args.alpha, model)
        return f"E[x^{mono}]", {mono: Fraction(1)}
    if args.functional is not None:
        coeffs = _parse_functional(args.functional, model)
        return f"E[{args.functional}]", coeffs
    raise _CliFailure("one of --alpha or --functional is required", EXIT_USAGE)


def _add_target_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", help="target moment as comma-separated exponents, e.g. 0,2")
    parser.add_argument(
        "--functional",
        help="target as a polynomial over the model variables, e.g. '(p1 - p2)'",
    )


def _add_budget_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--budget-monomials",
        type=int,
        default=10000,
        help="abort closure after this many monomials (default 10000)",
    )
    parser.add_argument(
        "--budget-degree",
        type=int,
        default=200,
        help="abort closure at this total degree (default 200)",
    )


def _add_sim_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--paths", type=int, default=100_000, help="Monte Carlo paths (default 100000)")
    parser.add_argument("--dt", type=float, default=1e-3, help="Euler step (default 1e-3)")
    parser.add_argument("--seed", type=int, default=0, help="simulation seed (default 0)")
    parser.add_argument("--workers", type=int, default=1, help="simulation worker threads (default 1); "
                        "estimates do not depend on it, and the step loop holds the GIL, so more are not faster")


def _sim_config(args: argparse.Namespace, times: Sequence[float]) -> SimConfig:
    """Simulation settings from the flags, recording at the positive times."""
    sim_times = tuple(t for t in times if t > 0)
    if not sim_times:
        raise _CliFailure("need at least one positive record time", EXIT_USAGE)
    return SimConfig(
        dt=args.dt,
        paths=args.paths,
        seed=args.seed,
        record_times=sim_times,
        workers=args.workers,
    )


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _cmd_check(args: argparse.Namespace) -> int:
    model = _load(args.model)
    result = check_prosolvable(model)
    doc: dict = {"model": model.name, "prosolvable": result.prosolvable}
    if result.prosolvable:
        assert result.partition is not None
        weights = compute_block_weights(model, result.partition)
        doc["partition"] = [
            [model.variables[i] for i in block] for block in result.partition.blocks
        ]
        doc["block_weights"] = list(weights.weights)
        doc["coupling_bounds"] = {
            f"{p + 1},{q + 1}": c for (p, q), c in sorted(weights.c_bound.items())
        }
    else:
        assert result.violation is not None
        edge, scc = result.violation
        doc["violation"] = {
            "edge": f"{model.variables[edge.source]} -> "
            f"{model.variables[edge.target]} (nonlinear)",
            "cycle_variables": [model.variables[i] for i in scc],
        }
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(f"model: {model.name}")
        print(f"prosolvable: {'yes' if result.prosolvable else 'no'}")
        if result.prosolvable:
            assert result.partition is not None
            print(f"partition: {result.partition.describe(model.variables)}")
            print(f"block weights: {doc['block_weights']}")
        else:
            v = doc["violation"]
            print(f"violation: dependency {v['edge']}")
            print(f"inside cycle: {{{', '.join(v['cycle_variables'])}}}")
    return EXIT_OK if result.prosolvable else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# closure
# ---------------------------------------------------------------------------


def _format_row(row: tuple, constant: Fraction, refs: list[str], text: dict) -> str:
    """One `--rows` right-hand side; refs[col] is " * m(...)", `text` maps id(coeff) -> str."""
    parts = [(text.get(id(c)) or text.setdefault(id(c), str(c))) + refs[col] for col, c in row]
    if constant:
        parts.append(str(constant))
    return " + ".join(parts) if parts else "0"


def _cmd_closure(args: argparse.Namespace) -> int:
    model = _load(args.model)
    if args.alpha is None:
        raise _CliFailure("--alpha is required", EXIT_USAGE)
    alpha = _parse_alpha(args.alpha, model)
    budget = _budget(args)
    started = time.perf_counter()
    result = build_closure(model, alpha, budget=budget)
    elapsed = time.perf_counter() - started
    if isinstance(result, DivergenceReport):
        print(result.describe(), file=sys.stderr)
        return EXIT_DIVERGENCE
    if args.json:
        result.to_json(sys.stdout, build_seconds=round(elapsed, 6))
        return EXIT_OK
    print(f"model: {model.name}")
    print(f"target: m{alpha}")
    print(f"closure size: {result.dimension}")
    print(f"build time: {elapsed:.4f} s")
    if args.rows:
        labels = [f"m{beta}" for beta in result.indices]
        refs, text = [" * " + label for label in labels], {}  # result.rows keeps each coeff alive
        for label, row, constant in zip(labels, result.rows, result.vector_c):
            sys.stdout.write(f"d/dt {label} = {_format_row(row, constant, refs, text)}\n")
        print(f"m(0) = [{', '.join(str(v) for v in result.m0)}]")
    return EXIT_OK


# ---------------------------------------------------------------------------
# moment
# ---------------------------------------------------------------------------


def _answer(
    model: SdeModel, label: str, coeffs: dict[Monomial, Fraction], times: Sequence[float], *,
    certify: bool, closed_form: bool, budget: ClosureBudget | None, sim: SimConfig | None,
) -> dict | DivergenceReport:
    """The `moment --json` document of one target, or its closure's divergence:
    the one chain behind `moment`, `table1` and `verify`.  It runs the
    structural check, the closure (timed as build_seconds), the certificate
    and the closed form when asked, the samples at `times` (none, and no
    numpy, when `times` is empty), and with `sim` the Monte Carlo rows."""
    solvability = check_prosolvable(model)
    started = time.perf_counter()
    outcome = linear_functional_moment(model, coeffs, budget=budget)
    build_seconds = round(time.perf_counter() - started, 6)
    if isinstance(outcome, DivergenceReport):
        return outcome

    certificate = None
    if certify:
        if not solvability.prosolvable or solvability.partition is None:
            raise _CliFailure("--certify requires a structurally solvable model", EXIT_CHECK_FAILED)
        try:
            cert = certify_closure(model, solvability.partition, outcome.system)
        except CertificateError as exc:
            raise _CliFailure(f"certificate failed: {exc}", EXIT_VERIFY_MISMATCH)
        certificate = {
            "block_weights": list(cert.weights.weights),
            "max_weighted_degree": cert.max_weighted_degree,
            "block_bounds": list(cert.block_bounds),
        }

    form = kind = note = None
    if closed_form:
        form, kind, note = best_closed_form(outcome)
    values = [float(v) for v in outcome.eval_numeric(times)] if times else []
    doc: dict = {
        "model": model.name,
        "target": label,
        "prosolvable": solvability.prosolvable,
        "partition": None if solvability.partition is None else solvability.partition.describe(model.variables),
        "closure_size": outcome.system.dimension,
        "build_seconds": build_seconds,
        "closed_form": None if form is None else str(form),
        "closed_form_kind": kind,
        "note": note,
        "samples": [{"time": t, "value": v} for t, v in zip(times, values)],
    }
    if sim is not None:
        exact = [value for t, value in zip(times, values) if t > 0]
        doc["simulation"] = [
            {
                "time": est.time,
                "exact": value,
                "mc_mean": est.mean,
                "mc_std_error": est.std_error,
                "paths": est.paths,
                "within_4_sigma": bool(abs(est.mean - value) <= 4.0 * est.std_error),
            }
            for est, value in zip(simulate_functional(model, coeffs, sim), exact)
        ]
        doc["simulation_ok"] = all(row["within_4_sigma"] for row in doc["simulation"])
    if certificate is not None:
        doc["certificate"] = certificate
    return doc


def _cmd_moment(args: argparse.Namespace) -> int:
    model = _load(args.model)
    label, coeffs = _target_coeffs(args, model)
    times = _parse_times(args.times)
    budget = _budget(args)
    sim = _sim_config(args, times) if args.simulate else None  # a bad flag fails before the closure
    doc = _answer(
        model, label, coeffs, times, certify=args.certify, closed_form=args.closed_form, budget=budget, sim=sim
    )
    if isinstance(doc, DivergenceReport):
        print(doc.describe(), file=sys.stderr)
        return EXIT_DIVERGENCE
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(f"model: {doc['model']}")
        print(f"target: {doc['target']}")
        print(f"prosolvable: {'yes' if doc['prosolvable'] else 'no'}")
        if doc["partition"]:
            print(f"partition: {doc['partition']}")
        print(f"closure size: {doc['closure_size']}")
        if args.certify:
            cert = doc["certificate"]
            print(
                f"certificate: ok (weights {cert['block_weights']}, "
                f"weighted degree <= {cert['max_weighted_degree']})"
            )
        if args.closed_form:
            if doc["closed_form"] is not None:
                print(f"closed form [{doc['closed_form_kind']}]: {doc['closed_form']}")
            else:
                print(f"closed form: unavailable ({doc['note']})")
            if doc["note"] and doc["closed_form"] is not None:
                print(f"note: {doc['note']}")
        print("time,value")
        for sample in doc["samples"]:
            print(f"{sample['time']:g},{sample['value']:.12g}")
        if args.simulate:
            print("simulation comparison (4 standard errors):")
            for row in doc["simulation"]:
                verdict = "pass" if row["within_4_sigma"] else "FAIL"
                print(
                    f"  t={row['time']:g}: exact={row['exact']:.6g} "
                    f"mc={row['mc_mean']:.6g} +/- {row['mc_std_error']:.2g} "
                    f"[{verdict}]"
                )

    if args.simulate and not doc["simulation_ok"]:
        print("simulation mismatch beyond 4 standard errors", file=sys.stderr)
        return EXIT_VERIFY_MISMATCH
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _cmd_simulate(args: argparse.Namespace) -> int:
    model = _load(args.model)
    label, coeffs = _target_coeffs(args, model)
    times = _parse_times(args.times)
    estimates = simulate_functional(model, coeffs, _sim_config(args, times))
    if args.json:
        doc = {
            "model": model.name,
            "target": label,
            "estimates": [
                {
                    "time": e.time,
                    "mean": e.mean,
                    "std_error": e.std_error,
                    "paths": e.paths,
                }
                for e in estimates
            ],
        }
        print(json.dumps(doc, indent=2))
    else:
        print("time,mean,std_error,paths")
        for e in estimates:
            print(f"{e.time:g},{e.mean:.12g},{e.std_error:.6g},{e.paths}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# table1
# ---------------------------------------------------------------------------

# Published benchmark suite: (benchmark, target exponents, closure size,
# structurally solvable).  The target strings use each model's variable order.
_TABLE1: tuple[tuple[str, tuple[int, ...], int, bool], ...] = (
    ("ou-env", (0, 2), 8, True),
    ("ou-env", (0, 3), 15, True),
    ("ou-env", (0, 4), 24, True),
    ("ou-env", (0, 5), 35, True),
    ("ou-env", (0, 10), 120, True),
    ("gene", (1, 0, 0, 0, 1), 23, True),
    ("gene", (0, 0, 0, 0, 2), 85, True),
    ("gene", (1, 0, 0, 0, 2), 115, True),
    ("consensus", (1, 1), 3, True),
    ("vehicles", (0, 0, 2, 0), 13, True),
    ("oscillator", (0, 1, 2), 6, True),
    ("coupled3d", (2, 2, 0), 3, False),
)


_SOLVE_STATUS = {"exact-rational": "exact", "float-spectrum": "float", "numeric-only": "numeric"}


def _cmd_table1(args: argparse.Namespace) -> int:
    rows: list[dict] = []
    all_ok = True
    for name, exponents, expected_size, expected_flag in _TABLE1:
        model = load_benchmark(name)
        alpha = Monomial(exponents)
        doc = _answer(
            model, f"E[x^{alpha}]", {alpha: Fraction(1)}, (),
            certify=False, closed_form=args.solve, budget=None, sim=None,
        )
        if isinstance(doc, DivergenceReport):
            rows.append({"benchmark": name, "target": str(alpha), "status": "diverged", "ok": False})
            all_ok = False
            continue
        ok = doc["closure_size"] == expected_size and doc["prosolvable"] == expected_flag
        all_ok = all_ok and ok
        row = {
            "benchmark": name,
            "target": str(alpha),
            "closure_size": doc["closure_size"],
            "expected_size": expected_size,
            "prosolvable": doc["prosolvable"],
            "expected_prosolvable": expected_flag,
            "build_seconds": doc["build_seconds"],
            "ok": ok,
        }
        if args.solve:
            row["solve_status"] = _SOLVE_STATUS[doc["closed_form_kind"]]
        rows.append(row)
    if args.json:
        print(json.dumps({"rows": rows, "ok": all_ok}, indent=2))
    else:
        header = f"{'benchmark':<12} {'target':<14} {'|S|':>5} {'expect':>6} {'p-s':>4} {'time':>9}"
        if args.solve:
            header += "  solve"
        print(header)
        for row in rows:
            if row.get("status") == "diverged":
                print(f"{row['benchmark']:<12} {row['target']:<14} DIVERGED")
                continue
            line = (
                f"{row['benchmark']:<12} {row['target']:<14} "
                f"{row['closure_size']:>5} {row['expected_size']:>6} "
                f"{'yes' if row['prosolvable'] else 'no':>4} "
                f"{row['build_seconds']:>8.4f}s"
            )
            if args.solve:
                line += f"  {row['solve_status']}"
            if not row["ok"]:
                line += "  MISMATCH"
            print(line)
        print(f"overall: {'ok' if all_ok else 'MISMATCH'}")
    return EXIT_OK if all_ok else EXIT_VERIFY_MISMATCH


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cmd_verify(args: argparse.Namespace) -> int:
    model = _load(args.model)
    label, coeffs = _target_coeffs(args, model)
    times = _parse_times(args.times)
    if (args.markov_threshold is None) != (args.power is None):
        raise _CliFailure("--markov-threshold and --power must be given together", EXIT_USAGE)
    if args.tail_exp is not None and args.markov_threshold is None:
        raise _CliFailure("--tail-exp requires --markov-threshold/--power", EXIT_USAGE)
    if args.markov_threshold is not None:
        try:
            markov_tail_bound(0.0, args.markov_threshold, args.power)
        except ValueError as exc:
            raise _CliFailure(f"bad tail-bound arguments: {exc}", EXIT_USAGE)
        root = Polynomial(model.dimension, coeffs).root(args.power)
        if root is None:
            raise _CliFailure(f"the tail bound needs E[Z^{args.power}] for a polynomial Z, not {label}", EXIT_USAGE)
    for flag, value in (("--lower", args.lower), ("--upper", args.upper), ("--tail-exp", args.tail_exp)):
        if value is not None and not math.isfinite(value):
            raise _CliFailure(f"{flag} must be finite, got {value:g}", EXIT_USAGE)
    if args.lower is None and args.upper is None and args.markov_threshold is None:
        raise _CliFailure("nothing to verify: pass --lower/--upper and/or --markov-threshold with --power", EXIT_USAGE)

    doc = _answer(model, label, coeffs, times, certify=False, closed_form=False, budget=None, sim=None)
    if isinstance(doc, DivergenceReport):
        print(doc.describe(), file=sys.stderr)
        return EXIT_DIVERGENCE
    values = [sample["value"] for sample in doc["samples"]]
    if args.markov_threshold is not None and min(values) < 0:
        raise OdeSolveError(f"the even moment {label} is negative at some time: {min(values):.9g}")

    tolerance = 1e-9
    all_ok = True
    print(f"model: {model.name}")
    print(f"target: {label}")
    if args.markov_threshold is not None:
        print(f"Z = {root.to_text(model.variables)}")
    for t, value in zip(times, values):
        checks: list[str] = []
        ok = True
        if args.lower is not None:
            good = value >= args.lower - tolerance
            ok = ok and good
            checks.append(f">= {args.lower:g}: {'pass' if good else 'FAIL'}")
        if args.upper is not None:
            good = value <= args.upper + tolerance
            ok = ok and good
            checks.append(f"<= {args.upper:g}: {'pass' if good else 'FAIL'}")
        if args.markov_threshold is not None:
            bound = markov_tail_bound(value, args.markov_threshold, args.power)
            checks.append(f"P(|Z| >= {args.markov_threshold:g}) <= {bound:.6g}")
            if args.tail_exp is not None:
                cap = math.exp(-args.tail_exp * t)
                good = bound <= cap + 1e-12
                ok = ok and good
                checks.append(
                    f"bound <= exp(-{args.tail_exp:g}*t)={cap:.6g}: "
                    f"{'pass' if good else 'FAIL'}"
                )
        all_ok = all_ok and ok
        verdict = "PASS" if ok else "FAIL"
        print(f"{verdict} t={t:g} value={value:.9g} " + "; ".join(checks))
    print(f"overall: {'PASS' if all_ok else 'FAIL'}")
    return EXIT_OK if all_ok else EXIT_VERIFY_MISMATCH


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing does not change it."""
    parser = _ArgumentParser(
        prog="sdemoments",
        description="Exact moments of polynomial SDEs via moment closure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="structural solvability analysis")
    p_check.add_argument("model", help="model JSON file")
    p_check.add_argument("--json", action="store_true", help="machine output")
    p_check.set_defaults(handler=_cmd_check)

    p_closure = sub.add_parser("closure", help="build the closed ODE system")
    p_closure.add_argument("model", help="model JSON file")
    p_closure.add_argument("--alpha", help="target exponents, e.g. 0,2")
    _add_budget_flags(p_closure)
    p_closure.add_argument("--rows", action="store_true", help="print every ODE row")
    p_closure.add_argument("--json", action="store_true", help="machine output")
    p_closure.set_defaults(handler=_cmd_closure)

    p_moment = sub.add_parser("moment", help="full moment pipeline")
    p_moment.add_argument("model", help="model JSON file")
    _add_target_flags(p_moment)
    p_moment.add_argument("--times", help="comma-separated time grid (default 0..10 step 0.5)")
    p_moment.add_argument("--closed-form", action="store_true", help="print the closed form")
    p_moment.add_argument("--certify", action="store_true", help="run the closure certificate")
    p_moment.add_argument("--simulate", action="store_true", help="cross-check with Monte Carlo")
    _add_budget_flags(p_moment)
    _add_sim_flags(p_moment)
    p_moment.add_argument("--json", action="store_true", help="machine output")
    p_moment.set_defaults(handler=_cmd_moment)

    p_sim = sub.add_parser("simulate", help="Monte Carlo estimates (CSV)")
    p_sim.add_argument("model", help="model JSON file")
    _add_target_flags(p_sim)
    p_sim.add_argument("--times", help="comma-separated record times (default 0..10 step 0.5)")
    _add_sim_flags(p_sim)
    p_sim.add_argument("--json", action="store_true", help="machine output")
    p_sim.set_defaults(handler=_cmd_simulate)

    p_table = sub.add_parser("table1", help="re-run the bundled benchmark suite")
    p_table.add_argument("--solve", action="store_true", help="also attempt closed forms")
    p_table.add_argument("--json", action="store_true", help="machine output")
    p_table.set_defaults(handler=_cmd_table1)

    p_verify = sub.add_parser("verify", help="bound / tail checks on a moment")
    p_verify.add_argument("model", help="model JSON file")
    _add_target_flags(p_verify)
    p_verify.add_argument("--times", help="comma-separated time grid (default 0..10 step 0.5)")
    p_verify.add_argument("--lower", type=float, help="require value >= LOWER everywhere")
    p_verify.add_argument("--upper", type=float, help="require value <= UPPER everywhere")
    p_verify.add_argument(
        "--markov-threshold",
        type=float,
        help="report the tail bound P(|Z| >= threshold) <= E[Z^power] / threshold^power; the target must be Z^power",
    )
    p_verify.add_argument("--power", type=int, help="even moment power for the tail bound")
    p_verify.add_argument(
        "--tail-exp",
        type=float,
        help="require the tail bound <= exp(-TAIL_EXP * t)",
    )
    p_verify.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except _CliFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BlowUpError as exc:
        print(f"simulation blow-up: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except OdeSolveError as exc:
        print(f"numeric evaluation failed: {exc}", file=sys.stderr)
        return EXIT_MODEL_ERROR
    except SimulationError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_MODEL_ERROR
    except ModelError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_MODEL_ERROR


def console_main() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe.  Point stdout at devnull so that the
        # interpreter's last flush of the buffered rest cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    raise SystemExit(code)


if __name__ == "__main__":
    console_main()

#!/usr/bin/env python3
"""Re-run the bundled benchmark table and both case studies.

Produces three sections:

1. the closure-size / solvability table over all bundled benchmarks
   (identical to ``sdemoments table1 --solve``),
2. the consensus network study: float-spectrum closed form of the
   expected squared disagreement, its decay, and quadratic tail bounds,
3. the vehicle platoon study: exact closed form of the expected
   inter-vehicle gap with a Monte Carlo cross-check.

Everything is deterministic given --seed.
"""

from __future__ import annotations

import argparse
import math

from sdemoments import (
    SimConfig,
    best_closed_form,
    linear_functional_moment,
    load_benchmark,
    markov_tail_bound,
    parse_polynomial,
    simulate_functional,
)
from sdemoments.cli import main as cli_main


def functional_moment(model_name: str, text: str):
    model = load_benchmark(model_name)
    coeffs = dict(parse_polynomial(text, model.variables).terms)
    outcome = linear_functional_moment(model, coeffs)
    return model, coeffs, outcome


def consensus_study() -> None:
    print("=" * 72)
    print("consensus: expected squared disagreement E[(x1 - x2)^2]")
    print("=" * 72)
    _, _, fm = functional_moment("consensus", "(x1 - x2)^2")
    form, _, _ = best_closed_form(fm)
    print(f"closed form ({form.scalar_kind} spectrum):")
    print(f"  {form}")
    times = (0.0, 0.5, 1.0, 2.0, 5.0, 10.0)
    print("decay:")
    for t in times:
        print(f"  t={t:<5g} value={form.evaluate(t):.6e}")
    print("tail bounds P(|x1 - x2| >= 0.1) <= E[(x1-x2)^2] / 0.01:")
    for t in (10.0, 12.0, 15.0):
        bound = markov_tail_bound(form.evaluate(t), 0.1, 2)
        print(
            f"  t={t:<5g} bound={bound:.3e}  "
            f"(e^-t = {math.exp(-t):.3e}, below: {bound <= math.exp(-t)})"
        )
    print()


def vehicles_study(paths: int, dt: float, seed: int, workers: int) -> None:
    print("=" * 72)
    print("vehicles: expected inter-vehicle gap E[p1 - p2]")
    print("=" * 72)
    model, coeffs, fm = functional_moment("vehicles", "p1 - p2")
    form = fm.closed_form_exact()
    print("exact closed form:")
    print(f"  {form}")
    print("settling (the gap falls from 1 and settles at 3/4 from above):")
    for t in (0.0, 1.0, 2.0, 5.0, 10.0):
        print(f"  t={t:<4g} value={form.evaluate(t):.6f}")
    sim_times = (1.0, 2.0)
    cfg = SimConfig(
        dt=dt, paths=paths, seed=seed, record_times=sim_times, workers=workers
    )
    print(
        f"Monte Carlo cross-check ({paths} paths, dt={dt:g}, seed={seed}):"
    )
    exact = fm.eval_numeric(sim_times)
    for estimate, value in zip(simulate_functional(model, coeffs, cfg), exact):
        sigmas = abs(estimate.mean - value) / estimate.std_error
        print(
            f"  t={estimate.time:<4g} exact={value:.6f} "
            f"mc={estimate.mean:.6f} +/- {estimate.std_error:.2g} "
            f"({sigmas:.2f} standard errors)"
        )
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--paths", type=int, default=20_000)
    parser.add_argument("--dt", type=float, default=2e-3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="simulation threads (default 1: the step loop holds the GIL, "
        "so more threads only add switching; estimates do not depend on it)",
    )
    parser.add_argument(
        "--skip-table", action="store_true", help="only run the case studies"
    )
    args = parser.parse_args()

    if not args.skip_table:
        print("=" * 72)
        print("benchmark table: closure sizes, solvability, solve status")
        print("=" * 72)
        code = cli_main(["table1", "--solve"])
        if code != 0:
            raise SystemExit(code)
        print()

    consensus_study()
    vehicles_study(args.paths, args.dt, args.seed, args.workers)


if __name__ == "__main__":
    main()

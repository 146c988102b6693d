#!/usr/bin/env python3
"""Measure the weak Euler bias as the time step is halved.

The simulator's increments are equiprobable +-sqrt(dt) (the simplified weak
Euler scheme).  For a moment with a known exact value, its weak error is O(dt):
halving dt should roughly halve |mean - exact| once the statistical noise
is small against the bias.  This script estimates E[x1^2] at a fixed time
for a linear mean-reverting benchmark across a ladder of step sizes and
prints the bias ratios.
"""

from __future__ import annotations

import argparse
from fractions import Fraction

from sdemoments import (
    FunctionalMoment,
    Monomial,
    SimConfig,
    linear_functional_moment,
    load_benchmark,
    simulate_moment,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--time", type=float, default=0.5)
    parser.add_argument("--paths", type=int, default=400_000)
    parser.add_argument("--seed", type=int, default=123)
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="simulation threads (default 1: the step loop holds the GIL, "
        "so more threads only add switching; estimates do not depend on it)",
    )
    parser.add_argument(
        "--halvings", type=int, default=4, help="number of dt values (from 1/8)"
    )
    args = parser.parse_args()

    model = load_benchmark("ou-env")
    alpha = Monomial((2, 0))
    fm = linear_functional_moment(model, {alpha: Fraction(1)})
    assert isinstance(fm, FunctionalMoment)
    (exact,) = fm.eval_numeric((args.time,))
    print(f"exact E[x1^2]({args.time:g}) = {exact:.12f}")
    print(f"{'dt':>10} {'mc mean':>14} {'std err':>10} {'|bias|':>12} {'ratio':>7}")

    previous = None
    for k in range(args.halvings):
        dt = 1.0 / (8 * 2**k)
        cfg = SimConfig(
            dt=dt,
            paths=args.paths,
            seed=args.seed,
            record_times=(args.time,),
            workers=args.workers,
        )
        (estimate,) = simulate_moment(model, alpha, cfg)
        bias = abs(estimate.mean - exact)
        ratio = f"{previous / bias:7.2f}" if previous else "      -"
        print(
            f"{dt:>10.6f} {estimate.mean:>14.8f} {estimate.std_error:>10.2e} "
            f"{bias:>12.3e} {ratio}"
        )
        previous = bias


if __name__ == "__main__":
    main()

"""Target pool for the benchmark: every candidate target with its closure.

Running this file regenerates ``perfbench/targets.json`` from the library:

    python3 perfbench/targets.py

Each entry records the closure size, its number of nonzero matrix entries and
a digest of its index set.  The workloads draw from this pool, so a run knows
the size of every closure before it starts and can refuse two targets that
share one closure (the exact solver caches by closure).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
POOL_FILE = os.path.join(HERE, "targets.json")

# Highest total degree enumerated per model, and the largest closure kept.
_DEGREE_CAP = {"consensus": 8, "oscillator": 6, "gene": 5, "vehicles": 10, "ou-env": 44}
_DIM_CAP = 2000

# Polynomial functionals; their closure is the union closure of their monomials.
FUNCTIONALS = {
    "consensus": ["(x1 - x2)^2", "x1 - x2", "x1*x2 - x1^2", "(x1 + x2)^3", "x1^2*x2 - x2^3"],
    "vehicles": ["p1 - p2", "(p1 - p2)^2", "v1 - v2", "(v1 - v2)^2", "p1*v1 - p2*v2"],
    "ou-env": ["x1 - x2", "(x1 - x2)^2", "x1*x2 + x2^2", "x1^2 - x2", "(x1 + x2)^3"],
    "gene": ["x5 - x4", "x1*x5 - x2", "x3 + x4 + x5", "(x4 - x5)^2"],
}


def closure_digest(exponents) -> str:
    """Order-free digest of a closure's index set, given as exponent lists."""
    ordered = sorted((tuple(e) for e in exponents), key=lambda e: (sum(e), e))
    text = ";".join(",".join(map(str, e)) for e in ordered)
    return hashlib.sha1(text.encode()).hexdigest()[:16]


def _entry(model_name: str, target: dict, ms) -> dict:
    nnz = sum(len(row) - row.count(Fraction(0)) for row in ms.matrix_a)
    return {
        "model": model_name,
        **target,
        "dim": ms.dimension,
        "nnz": nnz,
        "closure": closure_digest(m.exponents for m in ms.indices),
    }


def generate() -> list[dict]:
    from sdemoments import (
        ClosureBudget,
        DivergenceReport,
        Monomial,
        linear_functional_moment,
        load_benchmark,
        parse_polynomial,
    )

    budget = ClosureBudget(max_monomials=_DIM_CAP)
    pool = []
    for name, max_degree in _DEGREE_CAP.items():
        model = load_benchmark(name)
        n = model.dimension
        for degree in range(1, max_degree + 1):
            for exps in itertools.product(range(degree + 1), repeat=n):
                if sum(exps) != degree:
                    continue
                fm = linear_functional_moment(model, {Monomial(exps): Fraction(1)}, budget=budget)
                if not isinstance(fm, DivergenceReport):
                    pool.append(_entry(name, {"alpha": list(exps)}, fm.system))
        for text in FUNCTIONALS.get(name, []):
            coeffs = dict(parse_polynomial(text, model.variables).terms)
            fm = linear_functional_moment(model, coeffs, budget=budget)
            pool.append(_entry(name, {"functional": text}, fm.system))
        print(f"{name}: {sum(e['model'] == name for e in pool)} targets", file=sys.stderr)
    return pool


def load_pool() -> list[dict]:
    with open(POOL_FILE) as fh:
        return json.load(fh)


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    entries = generate()
    with open(POOL_FILE, "w") as fh:
        json.dump(entries, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {len(entries)} targets to {POOL_FILE}")

#!/usr/bin/env python3
"""Time the exact closed form at scale, one fresh process per target.

Each target runs in a child process that builds its closure and times
solve_closed_form on it.  Columns: the closure's dimension and nonzeros, the
form's distinct rates, the seconds, the peak resident set (ru_maxrss), and the
largest numerator or denominator bit length of the printed Fractions and of
the solver's integer form of the target (one denominator over int
numerators).  Targets are MODEL:E1,E2,...  A first argument --closure times
the closure build, `closure --rows` and `closure --json`, a fresh process each.
A first argument --simulate runs weak Euler paths (2048 paths, dt 1e-3, t = 1)
and gives the target's dependency cone, the Brownian components its noise
rows read, and path-steps per second (time it with OPENBLAS_NUM_THREADS=1).
A first argument --numeric times eval_numeric at the 8 times of the benchmark's
`numeric` workload and gives the moments it steps (the others are structurally
zero) and the route it takes, dense Pade or sparse Taylor.
A first argument --spectrum times the characteristic polynomial and its rational
roots on K:D, a K x K block of K/2 eigenvalues (denominators <= D) each twice.
A first argument --model gives per bundled model the median milliseconds of 300 calls each of
load_model_file, check_prosolvable, compute_block_weights and Generator(model), paid before any closure.

    PYTHONPATH=src python scripts/exact_scaling.py [--closure | --simulate | --numeric | --spectrum | --model]
        [TARGET ...]
"""

import contextlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import timeit
from fractions import Fraction

DEFAULT = ["gene:0,0,0,0,3", "gene:0,0,0,0,4", "gene:0,0,0,0,5"]
LADDER = [f"ou-env:{k},{k}" for k in (8, 16, 24, 33)]  # dim 148, 552, 1,212 and 2,260
NUMERIC = [*LADDER, "gene:0,0,0,4,1"]
MODELS = ["ou-env", "gene", "consensus", "vehicles", "oscillator", "coupled3d", "double-well"]
CONES = [f"gene:{','.join('2' if v == k else '0' for v in range(5))}" for k in range(5)]  # cones of 1-5


def measure(target: str) -> dict:
    from sdemoments import Monomial, build_closure, load_benchmark, odesolve

    name, alpha = target.split(":")
    ms = build_closure(load_benchmark(name), Monomial(tuple(map(int, alpha.split(",")))))
    started = time.perf_counter()
    form = odesolve.solve_closed_form(ms)
    seconds = time.perf_counter() - started
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    den, terms = odesolve._solve_forms(ms)[0]
    ints = [den, *(c for nums in terms.values() for c in nums)]
    fracs = [x for lam, coeffs in form.terms for v in (lam, *coeffs) for x in (v.numerator, v.denominator)]
    return {
        "target": target,
        "dim": ms.dimension,
        "nnz": sum(map(len, ms.rows)),
        "rates": len(form.terms),
        "seconds": round(seconds, 3),
        "peak_rss_mb": round(rss, 1),
        "fraction_bits": max(abs(x).bit_length() for x in fracs),
        "int_bits": max(abs(x).bit_length() for x in ints),
    }


def measure_closure(target: str, step: str) -> dict:
    from sdemoments import Monomial, build_closure, cli, load_benchmark, model

    name, alpha = target.split(":")
    bench, path = load_benchmark(name), str(model.benchmarks_dir() / f"{name}.json")
    started = time.perf_counter()
    with open("/dev/null", "w") as sink, contextlib.redirect_stdout(sink):
        row = {"dim": build_closure(bench, Monomial(tuple(map(int, alpha.split(","))))).dimension} if step == "build" else {}
        if step != "build" and cli.main(["closure", path, "--alpha", alpha, f"--{step}"]):
            raise SystemExit(f"closure --{step} failed on {target}")
    seconds, rss = time.perf_counter() - started, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return row | {f"{step}_s": round(seconds, 3), f"{step}_mb": round(rss, 1)}


def measure_simulate(target: str) -> dict:
    from sdemoments import Monomial, Polynomial, load_benchmark, montecarlo

    name, alpha = target.split(":")
    bench, mono = load_benchmark(name), Monomial(tuple(map(int, alpha.split(","))))
    cone = montecarlo._cone(bench, Polynomial.monomial(mono))
    noise = montecarlo._evaluator(*montecarlo._restrict(bench, Polynomial.monomial(mono), cone)).noise
    cfg = montecarlo.SimConfig(dt=1e-3, paths=2048, record_times=(1.0,))
    started = time.perf_counter()
    montecarlo.simulate_moment(bench, mono, cfg)
    seconds, rss = time.perf_counter() - started, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"cone": len(cone), "components": f"{len({k for _, k in noise})}/{bench.brownian_dim}",
            "seconds": round(seconds, 3), "path_steps_per_s": round(cfg.paths * 1000 / seconds),
            "peak_rss_mb": round(rss, 1)}


def measure_numeric(target: str) -> dict:
    import scipy.sparse  # noqa: F401  imported, with numpy, before the clock starts

    from sdemoments import Monomial, build_closure, load_benchmark, odesolve

    name, alpha = target.split(":")
    ms = build_closure(load_benchmark(name), Monomial(tuple(map(int, alpha.split(",")))))
    cheaper, routes = odesolve._sparse_is_cheaper, []
    odesolve._sparse_is_cheaper = lambda *args: routes.append(cheaper(*args)) or routes[-1]
    started = time.perf_counter()
    odesolve.eval_numeric(ms, [0.5 * i for i in range(8)])
    seconds, rss = time.perf_counter() - started, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"dim": ms.dimension, "live": ms.dimension - len(ms.zeros), "route": "sparse" if routes[0] else "dense",
            "seconds": round(seconds, 3), "peak_rss_mb": round(rss, 1)}


def measure_spectrum(target: str) -> dict:
    from sdemoments import odesolve

    k, top = map(int, target.split(":"))
    rng = random.Random(target)
    want = sorted(Fraction(rng.randint(-top, top), rng.randint(1, top)) for _ in range(k // 2)) * 2
    a = [[want[i] * (i == j) for j in range(k)] for i in range(k)]
    for i, j in (rng.sample(range(k), 2) for _ in range(2 * k)):  # conjugate: row i += row j, col j -= col i
        a[i] = [x + y for x, y in zip(a[i], a[j])]
        a = [[*row[:j], row[j] - row[i], *row[j + 1 :]] for row in a]
    started, poly = time.perf_counter(), odesolve.characteristic_polynomial(a)  # left to right: clock, then work
    middle, odesolve.characteristic_polynomial = time.perf_counter(), lambda matrix: poly  # time the search alone
    try:
        verdict = "rational" if odesolve._rational_spectrum(a) == sorted(want, reverse=True) else "wrong"
    except odesolve.ClosedFormUnsupported:
        verdict = "not rational"
    ended = time.perf_counter()
    return {"charpoly_s": round(middle - started, 3), "roots_s": round(ended - middle, 3), "verdict": verdict}


def measure_model(target: str) -> dict:
    from sdemoments import generator, model, prosolve

    path = model.benchmarks_dir() / f"{target}.json"
    bench = model.load_model_file(path)
    verdict = prosolve.check_prosolvable(bench)
    calls = {"load_ms": lambda: model.load_model_file(path), "check_ms": lambda: prosolve.check_prosolvable(bench),
             "weights_ms": lambda: prosolve.compute_block_weights(bench, verdict.partition),
             "generator_ms": lambda: generator.Generator(bench)}
    return {key: "-" if key == "weights_ms" and not verdict.prosolvable  # no partition to weigh
            else round(statistics.median(timeit.repeat(call, number=1, repeat=300)) * 1e3, 4)
            for key, call in calls.items()}


def main(argv: list[str]) -> None:
    if argv[:1] == ["--child"]:
        target, *step = argv[1:]
        measures = {"simulate": measure_simulate, "numeric": measure_numeric, "spectrum": measure_spectrum,
                    "model": measure_model}
        print(json.dumps(measures[step[0]](target) if step and step[0] in measures
                         else measure_closure(target, *step) if step else measure(target)))
        return
    ladders = {"--closure": (LADDER, [["build"], ["rows"], ["json"]]), "--simulate": (CONES, [["simulate"]]),
               "--numeric": (NUMERIC, [["numeric"]]), "--model": (MODELS, [["model"]]),
               "--spectrum": ([f"{k}:{d}" for d in (7, 10**6) for k in (10, 20, 30, 40)], [["spectrum"]])}
    mode = argv[0] if argv[:1] and argv[0] in ladders else None
    targets, steps = ladders.get(mode, (DEFAULT, [[]]))
    for i, target in enumerate(argv[mode is not None :] or targets):
        row = {"target": target}
        for step in steps:
            child = [sys.executable, __file__, "--child", target, *step]
            row |= json.loads(subprocess.run(child, capture_output=True, text=True, check=True).stdout)
        if not i:
            print("| " + " | ".join(row) + " |\n|" + "---|" * len(row))
        print("| " + " | ".join(map(str, row.values())) + " |", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])

"""Task lists of the four workloads, drawn from the seed before timing.

A task is one CLI call: its argv, the kind of output it prints, and the
reference the check compares that output with.  Targets come from the pool in
``targets.json`` and are drawn without replacement; no two tasks of a list
share a closure, because ``odesolve`` caches exact spectral data by closure and
a repeat would time the cache.  Each list fixes how many targets it takes of
each model and closure size (a "slot") and lets the seed pick the target
inside the slot, so that lists drawn from different seeds cost about the same.

Workloads, and why each was chosen:

* ``exact``: ``moment --closed-form --certify`` on the Table 1 rows plus
  closures of size 3-28.  Exact ``Fraction`` algebra in ``odesolve`` does
  nearly all the work; three Table 1 rows (sizes 85, 115, 120) fall back.
* ``numeric``: ``moment --certify`` at 8 times on closures of size 300-700.
  The dense Pade-13 ``expm``, once per time, dominates; nothing is exact.
* ``closure``: ``closure --rows`` and ``closure --json`` on closures of size
  200-1800.  Generator, closure and the CLI export do the work.
* ``simulate``: ``simulate --json`` with 2048 paths of 1000 steps (dt = 1e-3)
  on targets of degree 2 or less.  ``montecarlo`` does all of the work and the
  symbolic layers none.
"""

from __future__ import annotations

import hashlib
import random

from targets import load_pool

WORKLOADS = ("exact", "numeric", "closure", "simulate")

# The bundled Table 1 suite: model, target, closure size.
TABLE1 = (
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
)
# coupled3d is not structurally solvable, so `--certify` would refuse it.
NOT_SOLVABLE = {"coupled3d"}

# Slots: (model, closure size, target kind); "functional" slots take any
# functional of that model whose closure is at most that size.  The consensus
# and oscillator slots fall back from the exact spectrum on every draw, and
# the others never do, so exact_frac does not depend on the seed.
EXACT_SLOTS = (
    [("gene", d, "alpha") for d in (8, 14, 17, 20)]
    + [("ou-env", d, "alpha") for d in (10, 16, 19, 22, 25, 28)]
    + [("vehicles", d, "alpha") for d in (10, 16, 19, 22, 25, 28)]
    + [("consensus", d, "alpha") for d in (5, 7, 9)]
    + [("oscillator", d, "alpha") for d in (10, 15, 21)]
    + [(m, 20, "functional") for m in ("vehicles", "ou-env")]
)
NUMERIC_SLOTS = (
    [("ou-env", d, "alpha") for d in (300, 380, 460)]
    + [("vehicles", d, "alpha") for d in (300, 380, 460)]
    + [("gene", d, "alpha") for d in (310, 340, 370, 700)]
)
CLOSURE_SLOTS = (
    ("ou-env", 200), ("vehicles", 250), ("ou-env", 300), ("ou-env", 400),
    ("vehicles", 500), ("vehicles", 600), ("ou-env", 700), ("vehicles", 820),
    ("ou-env", 1100), ("ou-env", 1300), ("ou-env", 1800),
)
SIMULATE_FIXED = (("vehicles", {"functional": "p1 - p2"}), ("gene", {"alpha": [1, 0, 0, 0, 1]}))
SIMULATE_SLOTS = (("vehicles", 6), ("gene", 5), ("ou-env", 5), ("consensus", 2))

EXACT_TIMES = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)
NUMERIC_TIMES = tuple(0.5 * i for i in range(8))
SIM_TIMES = (0.5, 1.0)
SIM_PATHS = 2048
SIM_DT = 1e-3


def _model_path(name: str) -> str:
    return f"benchmarks/{name}.json"


def _times_arg(times) -> str:
    return ",".join(f"{t:g}" for t in times)


def _target_args(entry: dict) -> list[str]:
    if "alpha" in entry:
        return ["--alpha", ",".join(map(str, entry["alpha"]))]
    return ["--functional", entry["functional"]]


def _target_label(entry: dict) -> str:
    return entry.get("functional") or ",".join(map(str, entry["alpha"]))


class _Drawer:
    """Draws pool entries without replacement, one closure at most once."""

    def __init__(self, rng: random.Random, pool: list[dict]):
        self.rng = rng
        self.pool = pool
        self.used: set[tuple[str, str]] = set()

    def claim(self, entry: dict) -> dict:
        key = (entry["model"], entry["closure"])
        if key in self.used:
            raise ValueError(f"duplicate closure in the task list: {entry}")
        self.used.add(key)
        return entry

    def draw(self, models, size: int, kind: str, tolerance: float = 0.0,
             accept=lambda e: True) -> dict:
        """A free target of one of `models`: a monomial ("alpha") whose
        closure size is within `tolerance` (a share) of `size`, or nearest to
        it when `tolerance` is 0; or a "functional" (or "any" target) whose
        closure has at most `size` indices."""
        free = [
            e for e in self.pool
            if e["model"] in models and (kind == "any" or kind in e) and accept(e)
            and (e["model"], e["closure"]) not in self.used
        ]
        if kind != "alpha":
            candidates = [e for e in free if e["dim"] <= size]
        elif tolerance:
            candidates = [e for e in free if abs(e["dim"] - size) <= tolerance * size]
        else:  # the free targets whose closure size is nearest
            nearest = min((abs(e["dim"] - size) for e in free), default=None)
            candidates = [e for e in free if abs(e["dim"] - size) == nearest]
        if not candidates:
            raise ValueError(f"no free {kind} target of {models} near closure size {size}")
        return self.claim(self.rng.choice(candidates))

    def find(self, model: str, target: dict) -> dict | None:
        """The pool entry of one given target, if the pool has it."""
        for e in self.pool:
            if e["model"] == model and all(e.get(k) == v for k, v in target.items()):
                return e
        return None


def _moment_task(entry: dict, times, extra: list[str], expect: dict) -> dict:
    argv = ["moment", _model_path(entry["model"]), *_target_args(entry)]
    argv += [*extra, "--json", "--times", _times_arg(times)]
    return {
        "kind": "moment",
        "label": f"{entry['model']} {_target_label(entry)}",
        "argv": argv,
        "expect": {"dim": entry["dim"], "times": list(times), **expect},
    }


def _exact_tasks(drawer: _Drawer, tiny: bool) -> list[dict]:
    tasks = []
    rows = TABLE1[:3] if tiny else TABLE1
    for model, alpha, size in rows:
        entry = drawer.find(model, {"alpha": list(alpha)})
        if entry is None:  # targets of unsolvable models are not in the pool
            entry = {"model": model, "alpha": list(alpha), "dim": size}
        else:
            drawer.claim(entry)
        flags = ["--closed-form"] + ([] if model in NOT_SOLVABLE else ["--certify"])
        tasks.append(_moment_task({**entry, "dim": size}, EXACT_TIMES, flags, {}))
    for model, size, kind in EXACT_SLOTS[:1] if tiny else EXACT_SLOTS:
        entry = drawer.draw((model,), size, kind)
        tasks.append(_moment_task(entry, EXACT_TIMES, ["--closed-form", "--certify"], {}))
    return tasks


def _numeric_reference(entry: dict, times) -> list[float]:
    """The target's moment from scipy's expm_multiply on the library's closure."""
    import numpy as np
    from scipy.sparse import csr_matrix
    from scipy.sparse.linalg import expm_multiply
    from sdemoments import Monomial, linear_functional_moment, load_model_file

    model = load_model_file(_model_path(entry["model"]))
    fm = linear_functional_moment(model, {Monomial(tuple(entry["alpha"])): 1})
    ms = fm.system
    n = ms.dimension
    rows, cols, vals = [], [], []
    for i, row in enumerate(ms.matrix_a):
        for j, v in enumerate(row):
            if v:
                rows.append(i)
                cols.append(j)
                vals.append(float(v))
        if ms.vector_c[i]:
            rows.append(i)
            cols.append(n)
            vals.append(float(ms.vector_c[i]))
    aug = csr_matrix((vals, (rows, cols)), shape=(n + 1, n + 1))
    state0 = np.array([float(v) for v in ms.m0] + [1.0])
    weights = np.array([float(w) for w in fm.weights] + [0.0])
    return [float(weights @ expm_multiply(aug * t, state0)) for t in times]


def _numeric_tasks(drawer: _Drawer, tiny: bool) -> list[dict]:
    slots = [("ou-env", 35, "alpha")] if tiny else NUMERIC_SLOTS
    tasks = []
    for model, size, kind in slots:
        entry = drawer.draw((model,), size, kind, tolerance=0.02)
        ref = _numeric_reference(entry, NUMERIC_TIMES)
        tasks.append(_moment_task(entry, NUMERIC_TIMES, ["--certify"], {"reference": ref}))
    return tasks


def _closure_tasks(drawer: _Drawer, tiny: bool) -> list[dict]:
    tasks = []
    for model, size in (("ou-env", 40),) if tiny else CLOSURE_SLOTS:
        for mode in ("rows", "json"):
            entry = drawer.draw((model,), size, "alpha", tolerance=0.02)
            tasks.append(
                {
                    "kind": f"closure-{mode}",
                    "label": f"{entry['model']} {_target_label(entry)} --{mode}",
                    "argv": ["closure", _model_path(entry["model"]), *_target_args(entry), f"--{mode}"],
                    "expect": {k: entry[k] for k in ("dim", "nnz", "closure")},
                }
            )
    return tasks


def _simulate_reference(entry: dict, times) -> list[float]:
    """The moment from the library's own numeric evaluation."""
    from sdemoments import Monomial, linear_functional_moment, load_model_file, parse_polynomial

    model = load_model_file(_model_path(entry["model"]))
    if "alpha" in entry:
        coeffs = {Monomial(tuple(entry["alpha"])): 1}
    else:
        coeffs = dict(parse_polynomial(entry["functional"], model.variables).terms)
    return [float(v) for v in linear_functional_moment(model, coeffs).eval_numeric(times)]


def _simulate_tasks(drawer: _Drawer, tiny: bool) -> list[dict]:
    entries = [
        drawer.claim(drawer.find(model, target))
        for model, target in (SIMULATE_FIXED[:1] if tiny else SIMULATE_FIXED)
    ]
    for model, count in () if tiny else SIMULATE_SLOTS:
        for _ in range(count):
            entries.append(drawer.draw((model,), 30, "any", accept=_low_degree))
    paths = 256 if tiny else SIM_PATHS
    tasks = []
    for entry in entries:
        label = f"{entry['model']} {_target_label(entry)}"
        # The simulation seed belongs to the target, so every run of a target
        # draws the same paths whatever the workload seed.
        mc_seed = int(hashlib.sha1(label.encode()).hexdigest()[:8], 16)
        argv = ["simulate", _model_path(entry["model"]), *_target_args(entry)]
        argv += ["--times", _times_arg(SIM_TIMES), "--paths", str(paths), "--dt", f"{SIM_DT:g}"]
        argv += ["--seed", str(mc_seed), "--workers", "1", "--json"]
        expect = {"times": list(SIM_TIMES), "paths": paths,
                  "reference": _simulate_reference(entry, SIM_TIMES)}
        tasks.append({"kind": "simulate", "label": label, "argv": argv, "expect": expect})
    return tasks


def _low_degree(entry: dict) -> bool:
    """Degree at most 2.  At 2048 paths the estimate of a third moment under
    the multiplicative noise of `consensus` is still skewed, so a 4 standard
    error test on it would flag the sample, not the program."""
    if "alpha" in entry:
        return sum(entry["alpha"]) <= 2
    from sdemoments import load_model_file, parse_polynomial

    variables = load_model_file(_model_path(entry["model"])).variables
    return parse_polynomial(entry["functional"], variables).degree <= 2


def make_tasks(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """The workload's task list for this seed; `tiny` gives a short list."""
    drawer = _Drawer(random.Random(f"{workload}:{seed}"), load_pool())
    build = {
        "exact": _exact_tasks,
        "numeric": _numeric_tasks,
        "closure": _closure_tasks,
        "simulate": _simulate_tasks,
    }[workload]
    return build(drawer, tiny)


def model_paths(tasks: list[dict]) -> list[str]:
    return sorted({t["argv"][1] for t in tasks})

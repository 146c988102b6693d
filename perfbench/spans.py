"""Spans around the public functions of each sdemoments module.

The library has no tracing of its own, so the benchmark wraps the functions
from outside: ``install`` replaces each listed function, in its module, in
every sdemoments module that imported it by name, and on its class for
methods.  Each call becomes a span with a group name such as
``closure.build``; a group's self time is its span time minus the time of the
spans nested inside it.  Polynomial arithmetic (``Polynomial`` methods) is not
wrapped: it runs millions of times, so its cost is charged to the caller.
"""

from __future__ import annotations

import math
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from functools import wraps
from time import perf_counter_ns

# (module, attribute path, group).  Methods are given as "Class.method".
WRAPPED = (
    ("model", "load_model_file", "model.load"),
    ("model", "load_model", "model.load"),
    ("model", "load_benchmark", "model.load"),
    ("model", "initial_moment", "model.initial"),
    ("poly", "parse_polynomial", "poly.parse"),
    ("generator", "Generator.apply", "generator.apply"),
    ("generator", "Generator.apply_polynomial", "generator.other"),
    ("generator", "apply_generator", "generator.other"),
    ("generator", "diffusion_product", "generator.setup"),
    ("closure", "build_closure", "closure.build"),
    ("closure", "build_closure_multi", "closure.build"),
    ("closure", "system_rows", "closure.rows"),
    ("closure", "check_closedness", "closure.check"),
    ("closure", "MomentSystem.to_json_dict", "closure.export"),
    ("closure", "MomentSystem.to_json", "closure.export"),
    ("prosolve", "check_prosolvable", "prosolve.check"),
    ("prosolve", "compute_block_weights", "prosolve.weights"),
    ("prosolve", "certify_closure", "prosolve.certify"),
    ("odesolve", "linear_functional_moment", "odesolve.functional"),
    ("odesolve", "solve_closed_form", "odesolve.exact"),
    ("odesolve", "solve_closed_form_vector", "odesolve.exact"),
    ("odesolve", "FunctionalMoment.closed_form_exact", "odesolve.exact"),
    ("odesolve", "solve_closed_form_float", "odesolve.float"),
    ("odesolve", "FunctionalMoment.closed_form_float", "odesolve.float"),
    ("odesolve", "eval_numeric", "odesolve.numeric"),
    ("odesolve", "FunctionalMoment.eval_numeric", "odesolve.numeric"),
    ("odesolve", "expm", "odesolve.numeric.expm"),
    ("montecarlo", "simulate_functional", "montecarlo.simulate"),
    ("montecarlo", "simulate_moment", "montecarlo.simulate"),
    ("cli", "main", "cli.main"),
)

LAYERS = ("model", "poly", "generator", "closure", "prosolve", "odesolve", "montecarlo", "cli")
ODESOLVE_PARTS = ("exact", "float", "numeric")


def _fraction_bits(forms) -> int:
    if not isinstance(forms, list):
        forms = [forms]
    bits = 0
    for form in forms:
        for lam, coeffs in form.terms:
            for v in (lam, *coeffs):
                if isinstance(v, Fraction):
                    bits = max(bits, v.numerator.bit_length(), v.denominator.bit_length())
    return bits


def _expm_gflop(matrix) -> float:
    """Computed, not counted: the Pade-13 evaluation does 6 products, one LU
    solve with n right-hand sides (8/3 n^3) and one product per squaring."""
    import numpy as np

    a = np.asarray(matrix, dtype=float)
    n = a.shape[0]
    norm = float(np.linalg.norm(a, 1))
    squarings = 0 if norm <= 0.5 else math.ceil(math.log2(norm / 0.5))
    return (2.0 * n**3 * (6 + squarings) + 8.0 / 3.0 * n**3) / 1e9


class Recorder:
    """Span totals of one process: per group, inclusive and self time."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # [group, child_ns]
        self.depth: Counter = Counter()
        self.incl_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.outer_calls: Counter = Counter()
        self.outer_ok: Counter = Counter()
        self.counts: defaultdict = defaultdict(float)
        self._build_nnz = 0

    def call(self, group: str, fn, args, kwargs):
        outermost = self.depth[group] == 0
        frame = [group, 0]
        self.stack.append(frame)
        self.depth[group] += 1
        start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self._close(frame, start, outermost, ok=False)
            self._observe(group, outermost, args, exc, None)
            raise
        self._close(frame, start, outermost, ok=True)
        self._observe(group, outermost, args, None, result)
        return result

    def _close(self, frame: list, start: int, outermost: bool, ok: bool) -> None:
        elapsed = perf_counter_ns() - start
        group = frame[0]
        self.stack.pop()
        self.depth[group] -= 1
        self.self_ns[group] += elapsed - frame[1]
        if self.stack:
            self.stack[-1][1] += elapsed
        if outermost:
            self.incl_ns[group] += elapsed
            self.outer_calls[group] += 1
            self.outer_ok[group] += ok

    def _observe(self, group, outermost, args, error, result) -> None:
        counts = self.counts
        if group == "generator.apply" and error is None:
            counts["generator.applications"] += 1
            if self.depth["closure.build"]:
                self._build_nnz += len(result.linear_part)
        elif group == "closure.build" and outermost:
            if error is None and hasattr(result, "dimension"):
                n = result.dimension
                counts["closure.dim_sum"] += n
                counts["closure.dim_sq_sum"] += n * n
                counts["closure.dim_max"] = max(counts["closure.dim_max"], n)
                counts["closure.nnz"] += self._build_nnz
            self._build_nnz = 0
        elif group == "odesolve.exact" and outermost and error is None:
            counts["odesolve.fraction_bits_max"] = max(
                counts["odesolve.fraction_bits_max"], _fraction_bits(result)
            )
        elif group == "odesolve.numeric.expm" and error is None:
            counts["odesolve.expm_gflop"] += _expm_gflop(args[0])
        elif group == "montecarlo.simulate" and outermost:
            cfg = args[2]
            steps = round(cfg.record_times[-1] / cfg.dt)
            if error is None:
                counts["montecarlo.path_steps"] += cfg.paths * steps
            elif type(error).__name__ == "BlowUpError":
                counts["montecarlo.blowups"] += 1

    def self_s(self, prefix: str) -> float:
        """Self time of every group named `prefix` or starting `prefix.`."""
        return sum(
            ns for group, ns in self.self_ns.items()
            if group == prefix or group.startswith(prefix + ".")
        ) / 1e9

    def metrics(self, wall_s: float, output_bytes: int) -> dict[str, float]:
        """Per-layer figures of one traced pass; times in seconds."""

        def s(group: str) -> float:
            return self.incl_ns[group] / 1e9

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        c = self.counts
        out = {
            "model.load_s": s("model.load"),
            "poly.parse_s": s("poly.parse"),
            "generator.apply_s": s("generator.apply"),
            "generator.applications": c["generator.applications"],
            "generator.applications_per_index": ratio(c["generator.applications"], c["closure.dim_sum"]),
            "closure.build_s": s("closure.build"),
            "closure.self_s": self.self_s("closure.build"),
            "closure.dim_max": c["closure.dim_max"],
            "closure.dim_sum": c["closure.dim_sum"],
            "closure.nnz": c["closure.nnz"],
            "closure.density": ratio(c["closure.nnz"], c["closure.dim_sq_sum"]),
            "prosolve.check_s": s("prosolve.check"),
            "prosolve.certify_s": s("prosolve.certify"),
            "odesolve.exact_s": s("odesolve.exact"),
            "odesolve.exact_attempts": self.outer_calls["odesolve.exact"],
            "odesolve.exact_yield": ratio(self.outer_ok["odesolve.exact"], self.outer_calls["odesolve.exact"]),
            "odesolve.fraction_bits_max": c["odesolve.fraction_bits_max"],
            "odesolve.float_s": s("odesolve.float"),
            "odesolve.float_yield": ratio(self.outer_ok["odesolve.float"], self.outer_calls["odesolve.float"]),
            "odesolve.numeric_s": s("odesolve.numeric"),
            "odesolve.expm_calls": self.outer_calls["odesolve.numeric.expm"],
            "odesolve.expm_s": s("odesolve.numeric.expm"),
            "odesolve.expm_gflop": c["odesolve.expm_gflop"],
            "montecarlo.simulate_s": s("montecarlo.simulate"),
            "montecarlo.path_steps": c["montecarlo.path_steps"],
            "montecarlo.path_steps_per_s": ratio(c["montecarlo.path_steps"], s("montecarlo.simulate")),
            "montecarlo.blowups": c["montecarlo.blowups"],
            "cli.self_s": self.self_s("cli.main"),
            "cli.output_bytes": output_bytes,
        }
        for layer in LAYERS + tuple(f"odesolve.{part}" for part in ODESOLVE_PARTS):
            out[f"share.{layer}"] = ratio(self.self_s(layer), wall_s)
        return {k: float(v) for k, v in out.items()}


def _wrap(recorder: Recorder, group: str, fn):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.call(group, fn, args, kwargs)

    return wrapper


def install(recorder: Recorder) -> None:
    """Wrap every function in WRAPPED, wherever sdemoments refers to it."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "sdemoments"]
    for module_name, path, group in WRAPPED:
        owner = sys.modules[f"sdemoments.{module_name}"]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, attr, _wrap(recorder, group, getattr(cls, attr)))
            continue
        original = getattr(owner, path)
        wrapped = _wrap(recorder, group, original)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapped)

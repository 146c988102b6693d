"""Correctness checks on CLI output, run outside the timed region.

``summarise`` reduces one task's standard output to the few figures the check
needs (it runs in the worker, after its last task).  ``check`` compares a
summary with the reference the task list carries and returns an error
message, or None when the output is correct.
"""

from __future__ import annotations

import cmath
import json
import re

from targets import closure_digest

# Characters a printed closed form may contain: numbers, t, exp, complex j.
_FORM_CHARS = re.compile(r"[0-9tjexp()+\-*/^. ]*")
_ROW_HEAD = re.compile(r"d/dt m\(([0-9,]+)\) = (.*)")


def _matrix_nnz(matrix, n: int) -> int:
    nnz = 0
    for row in matrix:
        if len(row) != n:
            raise ValueError(f"matrix row has {len(row)} entries, expected {n}")
        nnz += sum(1 for v in row if v != "0")
    return nnz


def summarise(kind: str, text: str) -> dict:
    try:
        if kind == "moment":
            doc = json.loads(text)
            return {
                "dim": doc["closure_size"],
                "form": doc["closed_form"],
                "form_kind": doc["closed_form_kind"],
                "samples": [[s["time"], s["value"]] for s in doc["samples"]],
            }
        if kind == "closure-json":
            doc = json.loads(text)
            indices = doc["indices"]
            if len(doc["matrix"]) != len(indices):
                raise ValueError("matrix row count differs from the index count")
            return {
                "dim": len(indices),
                "nnz": _matrix_nnz(doc["matrix"], len(indices)),
                "closure": closure_digest(indices),
            }
        if kind == "closure-rows":
            heads, nnz, dim = [], 0, None
            for line in text.splitlines():
                if line.startswith("closure size:"):
                    dim = int(line.split(":")[1])
                match = _ROW_HEAD.fullmatch(line)
                if match:
                    heads.append([int(e) for e in match.group(1).split(",")])
                    nnz += match.group(2).count("* m(")
            if dim != len(heads):
                raise ValueError(f"closure size {dim} but {len(heads)} rows printed")
            return {"dim": dim, "nnz": nnz, "closure": closure_digest(heads)}
        if kind == "simulate":
            doc = json.loads(text)
            return {
                "estimates": [
                    [e["time"], e["mean"], e["std_error"], e["paths"]] for e in doc["estimates"]
                ]
            }
    except (ValueError, KeyError, TypeError) as exc:
        return {"error": f"cannot read {kind} output: {type(exc).__name__}: {exc}"}
    raise ValueError(f"unknown task kind {kind!r}")


def evaluate_form(form: str, t: float) -> float:
    """Value at time t of a closed form printed by `moment --closed-form`."""
    if not _FORM_CHARS.fullmatch(form):
        raise ValueError(f"unexpected characters in closed form {form!r}")
    value = eval(form.replace("^", "**"), {"__builtins__": {}}, {"exp": cmath.exp, "t": t})
    return complex(value).real


def _close(value: float, reference: float, rtol: float, atol: float) -> bool:
    return abs(value - reference) <= rtol * abs(reference) + atol


def check(task: dict, summary: dict | None) -> str | None:
    if summary is None:
        return "no output"
    if "error" in summary:
        return summary["error"]
    expect = task["expect"]
    kind = task["kind"]
    if kind == "closure-json" or kind == "closure-rows":
        for key in ("dim", "nnz", "closure"):
            if summary[key] != expect[key]:
                return f"{key} is {summary[key]}, expected {expect[key]}"
        return None
    if kind == "simulate":
        times = [e[0] for e in summary["estimates"]]
        if times != expect["times"]:
            return f"estimates at {times}, expected {expect['times']}"
        for (t, mean, se, paths), ref in zip(summary["estimates"], expect["reference"]):
            if paths != expect["paths"]:
                return f"{paths} paths, expected {expect['paths']}"
            if abs(mean - ref) > 4.0 * se:
                return f"t={t}: estimate {mean} is more than 4 standard errors ({se}) from {ref}"
        return None
    # moment
    if summary["dim"] != expect["dim"]:
        return f"closure size {summary['dim']}, expected {expect['dim']}"
    times = [s[0] for s in summary["samples"]]
    if times != expect["times"]:
        return f"samples at {times}, expected {expect['times']}"
    values = [s[1] for s in summary["samples"]]
    scale = max(1.0, max(abs(v) for v in values))
    if "reference" in expect:
        for t, v, ref in zip(times, values, expect["reference"]):
            if not _close(v, ref, 1e-9, 1e-12 * scale):
                return f"t={t}: sample {v} differs from the reference {ref}"
    if summary["form"] is not None:
        for t, v in zip(times, values):
            try:
                got = evaluate_form(summary["form"], t)
            except (ValueError, SyntaxError, NameError, OverflowError, ZeroDivisionError) as exc:
                return f"closed form does not evaluate: {type(exc).__name__}: {exc}"
            if not _close(got, v, 1e-7, 1e-9 * scale):
                return f"t={t}: closed form gives {got}, sample is {v}"
    return None

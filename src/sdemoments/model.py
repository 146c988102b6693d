"""SDE model description and JSON (de)serialization.

A model is a time-homogeneous Ito diffusion

    dX_t = b(X_t) dt + sigma(X_t) dW_t,

with polynomial drift vector b (one entry per state variable) and polynomial
diffusion matrix sigma (n rows, one column per Brownian component).  The JSON
schema is:

    {
      "name": str,
      "variables": [str, ...],
      "brownian_dim": int,
      "drift": [expr, ...],                   # n expressions
      "diffusion": [[expr, ...], ...],        # n rows of m expressions
      "initial": {"kind": "point", "values": [rational, ...]}
               | {"kind": "moments", "table": {"(i,j,...)": rational, ...}}
    }

Expressions follow the grammar in `poly`; rationals are strings such as "1",
"-11/8", or "0.3" (decimals are exact).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Mapping, Sequence

from .poly import Monomial, ParseError, Polynomial, parse_polynomial

_BENCHMARK_NAMES = (
    "ou-env",
    "gene",
    "consensus",
    "vehicles",
    "oscillator",
    "coupled3d",
    "double-well",
)


class ModelError(ValueError):
    """Schema violation, shape mismatch, or unparsable entry in a model."""


class MissingMomentError(ModelError):
    """An initial moment was requested that the moment table does not provide."""

    def __init__(self, index: Monomial):
        super().__init__(f"initial condition does not provide the moment for index {index}")
        self.index = index


def parse_rational(text: str) -> Fraction:
    """Parse "1", "-11/8", or "0.3" (exactly 3/10) into a Fraction."""
    if not isinstance(text, str):
        raise ModelError(f"expected a rational string, got {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ModelError(f"invalid rational literal {text!r}: {exc}") from exc


def _parse_index_key(key: str, dimension: int) -> Monomial:
    body = key.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    parts = [p.strip() for p in body.split(",") if p.strip() != ""]
    try:
        exponents = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ModelError(f"invalid moment index key {key!r}") from exc
    if len(exponents) != dimension or any(e < 0 for e in exponents):
        raise ModelError(
            f"moment index key {key!r} must list {dimension} non-negative exponents"
        )
    return Monomial(exponents)


@dataclass(frozen=True)
class InitialCondition:
    """Either a deterministic starting point or a table of initial moments."""

    kind: str  # "point" | "moments"
    point: tuple[Fraction, ...] | None = None
    table: Mapping[Monomial, Fraction] | None = None

    @staticmethod
    def from_point(values: Sequence[Fraction]) -> "InitialCondition":
        return InitialCondition(kind="point", point=tuple(values))

    @staticmethod
    def from_moments(table: Mapping[Monomial, Fraction]) -> "InitialCondition":
        return InitialCondition(kind="moments", table=dict(table))


@dataclass(frozen=True)
class SdeModel:
    name: str
    variables: tuple[str, ...]
    brownian_dim: int
    drift: tuple[Polynomial, ...]
    diffusion: tuple[tuple[Polynomial, ...], ...]
    initial: InitialCondition

    @property
    def dimension(self) -> int:
        return len(self.variables)

    def variable_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise ModelError(f"unknown variable {name!r}") from None


def _validate(model: SdeModel) -> SdeModel:
    n = model.dimension
    if n < 1:
        raise ModelError("a model needs at least one state variable")
    if len(set(model.variables)) != n:
        raise ModelError("variable names must be unique")
    if model.brownian_dim < 1:
        raise ModelError("brownian_dim must be a positive integer")
    if len(model.drift) != n:
        raise ModelError(f"drift has {len(model.drift)} entries, expected {n}")
    if len(model.diffusion) != n:
        raise ModelError(f"diffusion has {len(model.diffusion)} rows, expected {n}")
    for i, row in enumerate(model.diffusion):
        if len(row) != model.brownian_dim:
            raise ModelError(
                f"diffusion row {i} has {len(row)} columns, expected {model.brownian_dim}"
            )
    for p in list(model.drift) + [entry for row in model.diffusion for entry in row]:
        if p.dimension != n:
            raise ModelError("all model polynomials must use the declared state variables")
    ic = model.initial
    if ic.kind == "point":
        if ic.point is None or len(ic.point) != n:
            raise ModelError(f"initial point must list {n} values")
    elif ic.kind == "moments":
        if ic.table is None:
            raise ModelError("initial moments table missing")
        for mono, value in ic.table.items():
            if mono.dimension != n:
                raise ModelError(f"moment table index {mono} has wrong dimension")
            if mono.degree == 0 and value != 1:
                raise ModelError("the empty moment index must map to 1")
    else:
        raise ModelError(f"unknown initial condition kind {ic.kind!r}")
    return model


def load_model(text: str) -> SdeModel:
    """Parse and validate a model from its JSON text."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelError("model document must be a JSON object")

    def require(key: str):
        if key not in doc:
            raise ModelError(f"missing field {key!r}")
        return doc[key]

    name = require("name")
    variables = require("variables")
    if (
        not isinstance(variables, list)
        or not variables
        or not all(isinstance(v, str) for v in variables)
    ):
        raise ModelError("variables must be a non-empty list of strings")
    if len(set(variables)) != len(variables):
        raise ModelError("variable names must be unique")
    brownian_dim = require("brownian_dim")
    if not isinstance(brownian_dim, int):
        raise ModelError("brownian_dim must be an integer")

    def parse_entry(src, label: str) -> Polynomial:
        if not isinstance(src, str):
            raise ModelError(f"{label} must be an expression string, got {src!r}")
        try:
            return parse_polynomial(src, variables)
        except ParseError as exc:
            raise ModelError(f"{label}: {exc}") from exc

    drift_src = require("drift")
    if not isinstance(drift_src, list):
        raise ModelError("drift must be a list of expression strings")
    drift = tuple(parse_entry(src, f"drift[{i}]") for i, src in enumerate(drift_src))

    diffusion_src = require("diffusion")
    if not isinstance(diffusion_src, list) or not all(isinstance(r, list) for r in diffusion_src):
        raise ModelError("diffusion must be a list of rows of expression strings")
    diffusion = tuple(
        tuple(parse_entry(src, f"diffusion[{i}][{k}]") for k, src in enumerate(row))
        for i, row in enumerate(diffusion_src)
    )

    initial_src = require("initial")
    if not isinstance(initial_src, dict) or "kind" not in initial_src:
        raise ModelError('initial must be an object with a "kind" field')
    kind = initial_src["kind"]
    if kind == "point":
        values = initial_src.get("values")
        if not isinstance(values, list):
            raise ModelError("initial point needs a values list")
        initial = InitialCondition.from_point([parse_rational(v) for v in values])
    elif kind == "moments":
        table_src = initial_src.get("table")
        if not isinstance(table_src, dict):
            raise ModelError("initial moments need a table object")
        table = {
            _parse_index_key(key, len(variables)): parse_rational(value)
            for key, value in table_src.items()
        }
        initial = InitialCondition.from_moments(table)
    else:
        raise ModelError(f"unknown initial condition kind {kind!r}")

    model = SdeModel(
        name=str(name),
        variables=tuple(variables),
        brownian_dim=brownian_dim,
        drift=drift,
        diffusion=diffusion,
        initial=initial,
    )
    return _validate(model)


def load_model_file(path: str | Path) -> SdeModel:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ModelError(f"cannot read model file {path}: {exc}") from exc
    return load_model(text)


def dump_model(model: SdeModel) -> str:
    """Serialize back to the JSON schema; load(dump(m)) == m."""
    names = model.variables
    doc: dict = {
        "name": model.name,
        "variables": list(names),
        "brownian_dim": model.brownian_dim,
        "drift": [p.to_text(names) for p in model.drift],
        "diffusion": [[p.to_text(names) for p in row] for row in model.diffusion],
    }
    ic = model.initial
    if ic.kind == "point":
        doc["initial"] = {"kind": "point", "values": [str(v) for v in ic.point]}
    else:
        table = {
            "(" + ",".join(str(e) for e in mono.exponents) + ")": str(value)
            for mono, value in sorted(ic.table.items(), key=lambda kv: kv[0])
        }
        doc["initial"] = {"kind": "moments", "table": table}
    return json.dumps(doc, indent=2)


def initial_moment(initial: InitialCondition, index: Monomial) -> Fraction:
    """Exact initial moment E[X_0^index] for the given exponent vector."""
    if index.degree == 0:
        return Fraction(1)
    if initial.kind == "point":
        if len(initial.point) != index.dimension:
            raise ModelError(
                f"index {index} has dimension {index.dimension}, expected {len(initial.point)}"
            )
        num = den = 1
        for x, e in zip(initial.point, index.exponents):
            if e:
                num *= x.numerator**e
                den *= x.denominator**e
        return Fraction(num, den)
    value = initial.table.get(index)
    if value is None:
        raise MissingMomentError(index)
    return value


def benchmarks_dir() -> Path:
    """Locate the bundled benchmarks/ directory (repo root, or cwd fallback)."""
    candidates = [
        Path(__file__).resolve().parents[2] / "benchmarks",
        Path.cwd() / "benchmarks",
    ]
    for cand in candidates:
        if cand.is_dir():
            return cand
    raise ModelError(
        "cannot locate the benchmarks directory; pass explicit model paths instead"
    )


def load_benchmark(name: str) -> SdeModel:
    if name not in _BENCHMARK_NAMES:
        raise ModelError(f"unknown benchmark {name!r}; available: {', '.join(_BENCHMARK_NAMES)}")
    return load_model_file(benchmarks_dir() / f"{name}.json")


def benchmark_names() -> tuple[str, ...]:
    return _BENCHMARK_NAMES

"""SDE model description and its JSON loader.

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

import importlib.util
import json
import re
import sys
from dataclasses import dataclass
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


def _lazy_numpy():
    """numpy, run on its first attribute access (importlib.util.LazyLoader)."""
    if "numpy" not in sys.modules:
        spec = importlib.util.find_spec("numpy")
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules["numpy"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules["numpy"])
    return sys.modules["numpy"]


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
    if not re.fullmatch(r"-?[0-9]+(/[0-9]+|\.[0-9]+)?", text):  # Fraction() also takes "1_0", "+1"
        raise ModelError(f"invalid rational literal {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ModelError(f"invalid rational literal {text!r}: {exc}") from exc


# One exponent of a moment index; int() alone also takes "1_0", "+1" and non-ASCII digits.
EXPONENT_FIELD = re.compile(r"\s*-?[0-9]+\s*")


def _parse_index_key(key: str, dimension: int) -> Monomial:
    body = key.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    parts = body.split(",")
    if not all(EXPONENT_FIELD.fullmatch(p) for p in parts):
        raise ModelError(f"invalid moment index key {key!r}")
    exponents = tuple(int(p) for p in parts)
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


def _object(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object whose keys are all distinct (json.loads would keep the
    last of a repeated key)."""
    doc: dict = {}
    for key, value in pairs:
        if key in doc:
            raise ModelError(f"duplicate key {key!r} in a JSON object")
        doc[key] = value
    return doc


def load_model(text: str) -> SdeModel:
    """Parse and check a model from its JSON text."""
    try:
        doc = json.loads(text, object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise ModelError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelError("model document must be a JSON object")

    def require(key: str):
        if key not in doc:
            raise ModelError(f"missing field {key!r}")
        return doc[key]

    name = require("name")
    if not isinstance(name, str):
        raise ModelError(f"name must be a string, got {name!r}")
    variables = require("variables")
    if (
        not isinstance(variables, list)
        or not variables
        or not all(isinstance(v, str) for v in variables)
    ):
        raise ModelError("variables must be a non-empty list of strings")
    if len(set(variables)) != len(variables):
        raise ModelError("variable names must be unique")
    n = len(variables)
    brownian_dim = require("brownian_dim")
    if type(brownian_dim) is not int or brownian_dim < 1:  # not True: bool is an int subclass
        raise ModelError(f"brownian_dim must be a positive integer, got {brownian_dim!r}")

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
    if len(drift_src) != n:
        raise ModelError(f"drift has {len(drift_src)} entries, expected {n}")
    drift = tuple(parse_entry(src, f"drift[{i}]") for i, src in enumerate(drift_src))

    diffusion_src = require("diffusion")
    if not isinstance(diffusion_src, list) or not all(isinstance(r, list) for r in diffusion_src):
        raise ModelError("diffusion must be a list of rows of expression strings")
    if len(diffusion_src) != n:
        raise ModelError(f"diffusion has {len(diffusion_src)} rows, expected {n}")
    for i, row in enumerate(diffusion_src):
        if len(row) != brownian_dim:
            raise ModelError(f"diffusion row {i} has {len(row)} columns, expected {brownian_dim}")
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
        if len(values) != n:
            raise ModelError(f"initial point must list {n} values")
        initial = InitialCondition.from_point([parse_rational(v) for v in values])
    elif kind == "moments":
        table_src = initial_src.get("table")
        if not isinstance(table_src, dict):
            raise ModelError("initial moments need a table object")
        table: dict[Monomial, Fraction] = {}
        for key, value in table_src.items():
            mono = _parse_index_key(key, n)
            if mono in table:
                raise ModelError(f"moment index key {key!r} repeats the index {mono}")
            table[mono] = parse_rational(value)
        if table.get(Monomial.constant(n), 1) != 1:
            raise ModelError("the empty moment index must map to 1")
        initial = InitialCondition.from_moments(table)
    else:
        raise ModelError(f"unknown initial condition kind {kind!r}")

    return SdeModel(
        name=name,
        variables=tuple(variables),
        brownian_dim=brownian_dim,
        drift=drift,
        diffusion=diffusion,
        initial=initial,
    )


def load_model_file(path: str | Path) -> SdeModel:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ModelError(f"cannot read model file {path}: {exc}") from exc
    return load_model(text)


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

"""Simplified weak Euler paths: the statistical oracle for exact moments.

Only moments at fixed times are estimated, so each Brownian increment is an
equiprobable +-sqrt(dt), which keeps weak order 1 (Kloeden & Platen 1992,
section 14.1).  Reproducibility contract: estimates are bitwise identical
for a fixed (seed, paths, dt, record_times) regardless of the worker count.
Paths are simulated in blocks whose boundaries depend on ``paths`` alone.
Each block owns one counter-based Philox substream keyed by (seed, first
path of the block); the increment signs are the bits of its raw 64-bit words
in order, so the estimate at a time does not depend on any later record
time.  Per-block partial sums are pairwise reductions and blocks are
combined in fixed order with compensated summation.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .model import SdeModel
from .poly import Monomial, Polynomial

_PATH_BLOCK = 2048  # paths simulated together (vectorized)
_STEP_CHUNK = 64  # steps per noise draw; a multiple of 64 uses whole words
_BLOWUP_LIMIT = 1e12


class SimulationError(RuntimeError):
    """Unusable configuration (wrong initial-condition kind, off-grid time)."""


class BlowUpError(SimulationError):
    """A trajectory left the trusted numeric range; the model is exploding."""


@dataclass(frozen=True)
class SimConfig:
    dt: float = 1e-3
    paths: int = 100_000
    seed: int = 0
    record_times: tuple[float, ...] = (1.0,)
    workers: int = 1

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise SimulationError("dt must be positive and finite")
        if self.paths <= 0:
            raise SimulationError("paths must be positive")
        if self.workers <= 0:
            raise SimulationError("workers must be positive")
        times = tuple(float(t) for t in self.record_times)
        if not times:
            raise SimulationError("at least one record time is required")
        if not all(math.isfinite(t) and t >= 0 for t in times) or any(
            b <= a for a, b in zip(times, times[1:])
        ):
            raise SimulationError("record_times must be finite, strictly increasing and non-negative")
        object.__setattr__(self, "record_times", times)
        if self.horizon > 0 and self.dt > self.horizon:
            raise SimulationError("dt must not exceed the simulation horizon")

    @property
    def horizon(self) -> float:
        return self.record_times[-1]


@dataclass(frozen=True)
class MomentEstimate:
    time: float
    mean: float
    std_error: float
    paths: int


@dataclass(frozen=True)
class _Evaluator:
    """Every monomial of the drift, the nonzero diffusion entries and the
    functional, evaluated once per step into the rows of a (monomials, paths)
    buffer.  Row 0 is the constant 1 and rows 1..n are the state itself; each
    later row is an earlier row times one variable (``products``).  Then
    ``coef @ rows`` gives the drift (first n rows) and the diffusion entries
    ``noise`` (one row per nonzero (i, k)) in one product."""

    products: tuple[tuple[int, int, int], ...]  # (row, parent row, variable row)
    coef: np.ndarray
    noise: tuple[tuple[int, int], ...]
    functional: np.ndarray
    brownian_dim: int


def _evaluator(model: SdeModel, functional: Polynomial) -> _Evaluator:
    n = model.dimension
    noise = tuple(
        (i, k) for i in range(n) for k in range(model.brownian_dim)
        if not model.diffusion[i][k].is_zero()
    )
    polys = [*model.drift, *(model.diffusion[i][k] for i, k in noise), functional]
    # Close the monomials under dropping one power of their last variable.
    parents: dict[Monomial, tuple[Monomial, int]] = {}
    pending = [mono for poly in polys for mono in poly.terms]
    while pending:
        mono = pending.pop()
        if mono.degree < 2 or mono in parents:
            continue
        var = max(v for v, e in enumerate(mono.exponents) if e)
        parent = Monomial(tuple(e - (v == var) for v, e in enumerate(mono.exponents)))
        parents[mono] = (parent, var)
        pending.append(parent)
    monos = [Monomial.constant(n), *(Monomial.unit(n, v) for v in range(n)), *sorted(parents)]
    row = {mono: r for r, mono in enumerate(monos)}
    coef = np.zeros((len(polys), len(monos)))
    for p, poly in enumerate(polys):
        for mono, c in poly.terms.items():
            coef[p, row[mono]] = float(c)
    return _Evaluator(
        products=tuple(
            (row[mono], row[parent], 1 + var) for mono, (parent, var) in sorted(parents.items())
        ),
        coef=coef[:-1],
        noise=noise,
        functional=coef[-1],
        brownian_dim=model.brownian_dim,
    )


def _evaluate(ev: _Evaluator, rows: np.ndarray) -> None:
    """Fill the monomial rows above the state from rows 0..n."""
    for r, parent, var in ev.products:
        np.multiply(rows[parent], rows[var], out=rows[r])


def _record_steps(cfg: SimConfig) -> list[int]:
    """Map each record time to its Euler step index (nearest step)."""
    steps = []
    for t in cfg.record_times:
        step = round(t / cfg.dt)
        if not math.isclose(step * cfg.dt, t, rel_tol=1e-9, abs_tol=1e-12):
            raise SimulationError(
                f"record time {t} is not on the dt={cfg.dt} step grid"
            )
        steps.append(step)
    return steps


def _simulate_block(
    ev: _Evaluator,
    cfg: SimConfig,
    start: np.ndarray,
    first_path: int,
    block_paths: int,
    record_steps: Sequence[int],
) -> list[tuple[float, float]]:
    """Simulate one contiguous block of paths; return (sum, sum of squares)
    of the functional at each record step, pairwise-reduced."""
    n = len(start)
    rows = np.empty((ev.coef.shape[1], block_paths))
    rows[0] = 1.0
    rows[1 : n + 1] = start[:, None]
    state = rows[1 : n + 1]
    scale = np.array([cfg.dt] * n + [math.sqrt(cfg.dt)] * len(ev.noise))
    coef = ev.coef * scale[:, None]
    increment = np.empty((len(coef), block_paths))
    key = ((cfg.seed & (2**64 - 1)) << 64) | first_path
    bits = np.random.Philox(key=key)
    total_steps = record_steps[-1]
    noise = np.empty((min(_STEP_CHUNK, total_steps), ev.brownian_dim, block_paths))
    record_set = {s: idx for idx, s in enumerate(record_steps)}
    sums: list[tuple[float, float]] = [None] * len(record_steps)  # type: ignore[list-item]

    step = 0
    while True:
        _evaluate(ev, rows)
        if step in record_set:
            values = ev.functional @ rows
            sums[record_set[step]] = (
                float(np.add.reduce(values)),
                float(np.add.reduce(values * values)),
            )
        if step == total_steps:
            return sums
        s = step % _STEP_CHUNK
        if s == 0:
            flat = noise[: min(_STEP_CHUNK, total_steps - step)].reshape(-1)
            raw = bits.random_raw(-(-flat.size // 64)).astype("<u8").view(np.uint8)
            np.multiply(np.unpackbits(raw, count=flat.size), 2.0, out=flat)
            flat -= 1.0
        np.matmul(coef, rows, out=increment)
        for e, (i, k) in enumerate(ev.noise, start=n):
            np.multiply(increment[e], noise[s, k], out=increment[e])
            increment[i] += increment[e]
        state += increment[:n]
        step += 1
        worst = float(np.max(np.abs(state)))
        # Written so that NaN, which compares false, also trips it.
        if not worst <= _BLOWUP_LIMIT:
            what = (
                f"exceeded {_BLOWUP_LIMIT:.0e}" if math.isfinite(worst) else "is non-finite"
            )
            raise BlowUpError(
                f"trajectory magnitude {worst:.3g} {what} "
                f"at t={step * cfg.dt:.6g} (path block starting at {first_path})"
            )


def _functional_estimates(
    model: SdeModel, functional: Polynomial, cfg: SimConfig
) -> list[MomentEstimate]:
    if model.initial.kind != "point":
        raise SimulationError(
            "simulation needs a deterministic initial point; "
            "moment-table initial conditions cannot be sampled"
        )
    start = np.array([float(v) for v in model.initial.point])
    record_steps = _record_steps(cfg)
    ev = _evaluator(model, functional)

    blocks = [(first, min(_PATH_BLOCK, cfg.paths - first))
              for first in range(0, cfg.paths, _PATH_BLOCK)]

    def run(block: tuple[int, int]) -> list[tuple[float, float]]:
        return _simulate_block(ev, cfg, start, block[0], block[1], record_steps)

    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        results = list(pool.map(run, blocks))

    estimates = []
    for idx, t in enumerate(cfg.record_times):
        mean = math.fsum(r[idx][0] for r in results) / cfg.paths
        total_sq = math.fsum(r[idx][1] for r in results)
        # One path gives total_sq == mean * mean exactly, hence variance 0.
        variance = max(0.0, (total_sq - cfg.paths * mean * mean) / max(cfg.paths - 1, 1))
        estimates.append(MomentEstimate(t, mean, math.sqrt(variance / cfg.paths), cfg.paths))
    return estimates


def simulate_moment(
    model: SdeModel, alpha: Monomial, cfg: SimConfig
) -> list[MomentEstimate]:
    """Estimate E[X_t^alpha] at each record time by weak Euler paths."""
    if alpha.dimension != model.dimension:
        raise SimulationError(
            f"target {alpha} has dimension {alpha.dimension}, model has {model.dimension}"
        )
    return _functional_estimates(model, Polynomial.monomial(alpha), cfg)


def simulate_functional(
    model: SdeModel, coeffs: Mapping[Monomial, Fraction], cfg: SimConfig
) -> list[MomentEstimate]:
    """Estimate E[sum coeffs[beta] X_t^beta] at each record time."""
    poly = Polynomial(model.dimension, dict(coeffs))
    if poly.is_zero():
        raise SimulationError("functional is identically zero")
    return _functional_estimates(model, poly, cfg)

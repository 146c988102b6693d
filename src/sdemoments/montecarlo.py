"""Euler-Maruyama path simulation: the statistical oracle for exact moments.

Reproducibility contract: estimates are bitwise identical for a fixed
(seed, paths, dt, record_times) regardless of the worker count.  Each path
owns a counter-based RNG substream keyed by (seed, path index); Gaussian
increments come from the inverse normal CDF applied to that substream's
uniforms; per-block partial sums are pairwise reductions and blocks are
combined in fixed order with compensated summation.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.special import ndtri

from .model import SdeModel
from .poly import Monomial, Polynomial

_PATH_BLOCK = 2048  # paths simulated together (vectorized)
_STEP_CHUNK = 512  # steps per noise draw (bounds the noise buffer)
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
        if self.dt <= 0:
            raise SimulationError("dt must be positive")
        if self.paths <= 0:
            raise SimulationError("paths must be positive")
        if self.workers <= 0:
            raise SimulationError("workers must be positive")
        times = tuple(float(t) for t in self.record_times)
        if not times:
            raise SimulationError("at least one record time is required")
        if any(t < 0 for t in times) or any(
            b <= a for a, b in zip(times, times[1:])
        ):
            raise SimulationError("record_times must be strictly increasing and non-negative")
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


def _compile_poly(poly: Polynomial) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized evaluator over a (paths, n) state matrix."""
    terms = [
        (float(coeff), tuple(mono.exponents)) for mono, coeff in poly.sorted_terms()
    ]

    def evaluate(state: np.ndarray) -> np.ndarray:
        out = np.zeros(state.shape[0])
        for coeff, exponents in terms:
            acc = np.full(state.shape[0], coeff)
            for var, e in enumerate(exponents):
                if e == 1:
                    acc *= state[:, var]
                elif e:
                    acc *= state[:, var] ** e
            out += acc
        return out

    return evaluate


def _path_rng(seed: int, path_index: int) -> np.random.Generator:
    key = ((seed & (2**64 - 1)) << 64) | path_index
    return np.random.Generator(np.random.Philox(key=key))


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
    model: SdeModel,
    functional: Callable[[np.ndarray], np.ndarray],
    cfg: SimConfig,
    start: np.ndarray,
    first_path: int,
    block_paths: int,
    record_steps: Sequence[int],
) -> list[tuple[float, float]]:
    """Simulate one contiguous block of paths; return (sum, sum of squares)
    of the functional at each record step, pairwise-reduced."""
    n = model.dimension
    m = model.brownian_dim
    drift_fns = [_compile_poly(p) for p in model.drift]
    diff_fns = [
        [None if model.diffusion[i][k].is_zero() else _compile_poly(model.diffusion[i][k])
         for k in range(m)]
        for i in range(n)
    ]
    state = np.tile(start, (block_paths, 1))
    rngs = [_path_rng(cfg.seed, first_path + p) for p in range(block_paths)]
    sqrt_dt = math.sqrt(cfg.dt)
    total_steps = record_steps[-1]
    record_set = {s: idx for idx, s in enumerate(record_steps)}
    sums: list[tuple[float, float]] = [None] * len(record_steps)  # type: ignore[list-item]

    def record(idx: int) -> None:
        values = functional(state)
        sums[idx] = (
            float(np.add.reduce(values)),
            float(np.add.reduce(values * values)),
        )

    if 0 in record_set:
        record(record_set[0])

    step = 0
    noise = np.empty((block_paths, _STEP_CHUNK, m))
    while step < total_steps:
        chunk = min(_STEP_CHUNK, total_steps - step)
        for p, rng in enumerate(rngs):
            uniforms = rng.random((chunk, m))
            noise[p, :chunk, :] = ndtri(uniforms + 2.0**-54)
        for s in range(chunk):
            drift = np.column_stack([fn(state) for fn in drift_fns])
            increment = drift * cfg.dt
            xi = noise[:, s, :]
            for i in range(n):
                row = diff_fns[i]
                for k in range(m):
                    if row[k] is not None:
                        increment[:, i] += sqrt_dt * row[k](state) * xi[:, k]
            state = state + increment
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
            if step in record_set:
                record(record_set[step])
    return sums


def _functional_estimates(
    model: SdeModel,
    functional: Callable[[np.ndarray], np.ndarray],
    cfg: SimConfig,
) -> list[MomentEstimate]:
    if model.initial.kind != "point":
        raise SimulationError(
            "simulation needs a deterministic initial point; "
            "moment-table initial conditions cannot be sampled"
        )
    start = np.array([float(v) for v in model.initial.point])
    record_steps = _record_steps(cfg)

    blocks = []
    first = 0
    while first < cfg.paths:
        count = min(_PATH_BLOCK, cfg.paths - first)
        blocks.append((first, count))
        first += count

    def run(block: tuple[int, int]) -> list[tuple[float, float]]:
        return _simulate_block(
            model, functional, cfg, start, block[0], block[1], record_steps
        )

    if cfg.workers == 1:
        results = [run(b) for b in blocks]
    else:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(run, blocks))

    estimates = []
    for idx, t in enumerate(cfg.record_times):
        total = math.fsum(r[idx][0] for r in results)
        total_sq = math.fsum(r[idx][1] for r in results)
        mean = total / cfg.paths
        if cfg.paths > 1:
            variance = max(0.0, (total_sq - cfg.paths * mean * mean) / (cfg.paths - 1))
        else:
            variance = 0.0
        estimates.append(
            MomentEstimate(
                time=t,
                mean=mean,
                std_error=math.sqrt(variance / cfg.paths),
                paths=cfg.paths,
            )
        )
    return estimates


def simulate_moment(
    model: SdeModel, alpha: Monomial, cfg: SimConfig
) -> list[MomentEstimate]:
    """Estimate E[X_t^alpha] at each record time by Euler-Maruyama paths."""
    if alpha.dimension != model.dimension:
        raise SimulationError(
            f"target {alpha} has dimension {alpha.dimension}, model has {model.dimension}"
        )
    return _functional_estimates(
        model, _compile_poly(Polynomial.monomial(alpha)), cfg
    )


def simulate_functional(
    model: SdeModel, coeffs: Mapping[Monomial, Fraction], cfg: SimConfig
) -> list[MomentEstimate]:
    """Estimate E[sum coeffs[beta] X_t^beta] at each record time."""
    poly = Polynomial(model.dimension, dict(coeffs))
    if poly.is_zero():
        raise SimulationError("functional is identically zero")
    return _functional_estimates(model, _compile_poly(poly), cfg)

"""Simplified weak Euler paths: the statistical oracle for exact moments.

Only moments at fixed times are estimated, so each Brownian increment is an
equiprobable +-sqrt(dt), which keeps weak order 1 (Kloeden & Platen 1992,
section 14.1).  Only the functional's dependency cone is stepped, so a
blow-up outside it does not abort.  Reproducibility contract: estimates are
bitwise identical for a fixed (seed, paths, dt, record_times) regardless of
the worker count.  Paths are simulated in blocks whose boundaries depend on
``paths`` alone.  Each block owns one counter-based Philox substream keyed
by (seed, first path); the signs of all ``brownian_dim`` components are the
bits of its raw 64-bit words in order, drawn per 64 steps, so an estimate
depends neither on later record times nor on the cone.  Every component is
drawn, but only those the cone's noise rows read are unpacked, per 8 steps;
monomials that only the functional reads are formed at record steps only.
Per-block partial sums are pairwise reductions, combined across blocks in
fixed order with compensated summation; a non-finite one is an error, never
an estimate.  The exact blow-up check runs after every step, but only when
the state's sum of squares exceeds the limit squared.  numpy loads on first
use, before the pool starts: LazyLoader is not thread-safe on 3.11.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .model import InitialCondition, SdeModel, _lazy_numpy
from .poly import Monomial, Polynomial
from .prosolve import build_dependency_graph

np = _lazy_numpy()

_PATH_BLOCK = 2048  # paths simulated together (vectorized)
_STEP_CHUNK = 64  # steps per noise draw; a multiple of 64 uses whole words
_SIGN_STEPS = 8  # steps per unpacking of signs; 8 steps are whole bytes
_BLOWUP_LIMIT = 1e12
_DOT_SPAN = 8192  # elements per guard dot; BLAS threads longer ones, at a loss


class SimulationError(RuntimeError):
    """Unusable configuration (wrong initial-condition kind, off-grid time)
    or a non-finite estimate."""


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
    functional, evaluated into the rows of a (monomials, paths) buffer.  Row
    0 is the constant 1 and rows 1..n are the state itself; each later row
    is an earlier row times one variable (``products``).  Then ``coef @
    rows`` gives the drift (first n rows) and the diffusion entries
    ``noise`` (one row per nonzero (i, k)) in one product.  The first
    ``stepped`` products are the rows ``coef`` reads and their parents; the
    rest only the functional reads.  ``components`` are the Brownian
    components the noise rows read."""

    products: tuple[tuple[int, int, int], ...]  # (row, parent row, variable row)
    stepped: int
    coef: np.ndarray
    noise: tuple[tuple[int, int], ...]
    components: tuple[int, ...]
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
    products = [(row[mono], row[parent], 1 + var) for mono, (parent, var) in sorted(parents.items())]
    # Parents sort first, so one backward pass closes the step's rows under parents.
    stepped = set(np.flatnonzero(coef[:-1].any(axis=0)).tolist())
    for r, parent, _ in reversed(products):
        if r in stepped:
            stepped.add(parent)
    ordered = sorted(products, key=lambda product: product[0] not in stepped)  # stable
    return _Evaluator(
        products=tuple(ordered),
        stepped=sum(r in stepped for r, _, _ in products),
        coef=coef[:-1],
        noise=noise,
        components=tuple(sorted({k for _, k in noise})),
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
    byte_signs: np.ndarray,
) -> list[tuple[float, float]]:
    """Simulate one contiguous block of paths; return (sum, sum of squares)
    of the functional at each record step (distinct, increasing), pairwise-reduced."""
    n, d = len(start), ev.brownian_dim
    # The rows only the functional reads hold 0 except at record steps, so
    # a stale inf never meets their zero columns in ``coef``.
    rows = np.zeros((ev.coef.shape[1], block_paths))
    rows[0] = 1.0
    rows[1 : n + 1] = start[:, None]
    state = rows[1 : n + 1]
    flat = state.reshape(-1)
    parts = [flat[i : i + _DOT_SPAN] for i in range(0, flat.size, _DOT_SPAN)]
    single = len(parts) == 1
    scale = np.array([cfg.dt] * n + [math.sqrt(cfg.dt)] * len(ev.noise))
    coef = ev.coef * scale[:, None]
    increment = np.empty((len(coef), block_paths))
    drift, noise = increment[:n], increment[n:]
    # Noise rows for rows i0, i0 + stride, ... add at once; else one by one, in order.
    targets, sink = [i for i, _ in ev.noise], None
    stride = targets[1] - targets[0] if len(targets) > 1 else 1
    if targets and stride > 0 and targets == list(range(targets[0], targets[-1] + 1, stride)):
        sink = increment[targets[0] : targets[-1] + 1 : stride]
    adds = [(increment[i], increment[e]) for e, (i, _) in enumerate(ev.noise, start=n)]
    # With whole bytes per (step, component), only the cone's components are
    # unpacked, then spread over their noise rows; else all, then selected.
    components = list(ev.components)
    columns = [k for _, k in ev.noise]  # the sign row of each noise row
    spread = [components.index(k) for k in columns]
    spread = slice(None) if spread == list(range(len(components))) else spread
    bits = np.random.Philox(key=((cfg.seed & (2**64 - 1)) << 64) | first_path)
    total_steps = record_steps[-1]
    chunk_bytes = d * block_paths  # of signs per _SIGN_STEPS steps
    stepped = [(rows[r], rows[parent], rows[var]) for r, parent, var in ev.products[: ev.stepped]]
    functional_only = [r for r, _, _ in ev.products[ev.stepped :]]
    add, multiply, matmul, dot = np.add, np.multiply, np.matmul, np.dot
    limit = _BLOWUP_LIMIT * _BLOWUP_LIMIT
    records = iter(record_steps)
    sums: list[tuple[float, float]] = []

    def record(step: int) -> int:
        _evaluate(ev, rows)  # the step's rows again, and the functional's own
        values = ev.functional @ rows
        total, squares = float(add.reduce(values)), float(add.reduce(values * values))
        if not (math.isfinite(total) and math.isfinite(squares)):
            raise SimulationError(f"the functional's sum over paths is non-finite at t="
                                  f"{step * cfg.dt:.6g} (path block starting at {first_path})")
        rows[functional_only] = 0.0
        sums.append((total, squares))
        return next(records, -1)

    due, step = next(records), 0
    with np.errstate(all="ignore"):  # overflow is caught by the checks, not warned of
        for group in range(0, total_steps, _SIGN_STEPS):
            if group % _STEP_CHUNK == 0:
                draw = min(_STEP_CHUNK, total_steps - group) * chunk_bytes  # bits
                raw = bits.random_raw(-(-draw // 64)).astype("<u8", copy=False).view(np.uint8)
            first = group % _STEP_CHUNK * chunk_bytes // _SIGN_STEPS
            steps = min(_SIGN_STEPS, total_steps - group)
            if block_paths % 8 == 0:
                chosen = raw[first : first + steps * chunk_bytes // 8].reshape(steps, d, -1)
                signs = np.take(byte_signs, chosen[:, components], axis=0)
                signs = signs.reshape(steps, len(components), block_paths)[:, spread]
            else:
                signs = np.take(byte_signs, raw[first : first + chunk_bytes], axis=0).reshape(-1)
                signs = signs[: steps * chunk_bytes].reshape(steps, d, block_paths)[:, columns]
            for sign in signs:
                for out, a, b in stepped:
                    multiply(a, b, out=out)
                if step == due:
                    due = record(step)
                matmul(coef, rows, out=increment)
                multiply(noise, sign, out=noise)
                if sink is not None:
                    add(sink, noise, out=sink)
                else:
                    for out, term in adds:
                        add(out, term, out=out)
                add(state, drift, out=state)
                step += 1
                # Sound since max|x|^2 <= sum x^2; NaN compares false and trips both.
                if not (dot(flat, flat) if single else sum(map(dot, parts, parts))) <= limit:
                    worst = float(np.max(np.abs(state)))
                    if not worst <= _BLOWUP_LIMIT:
                        what = f"exceeded {_BLOWUP_LIMIT:.0e}" if math.isfinite(worst) else "is non-finite"
                        raise BlowUpError(f"trajectory magnitude {worst:.3g} {what} at t="
                                          f"{step * cfg.dt:.6g} (path block starting at {first_path})")
        record(total_steps)
    return sums


def _cone(model: SdeModel, functional: Polynomial) -> list[int]:
    """The variables the functional's law depends on: its own, and all they reach backward."""
    edges = build_dependency_graph(model).edges
    cone = {v for mono in functional.terms for v, e in enumerate(mono.exponents) if e}
    while more := {e.source for e in edges if e.target in cone} - cone:
        cone |= more
    return sorted(cone)


def _restrict(
    model: SdeModel, functional: Polynomial, cone: Sequence[int]
) -> tuple[SdeModel, Polynomial]:
    """The model and functional on the cone's variables; every Brownian
    component stays, so each keeps its signs."""
    def cut(poly: Polynomial) -> Polynomial:
        return Polynomial(len(cone), {tuple(m.exponents[v] for v in cone): c for m, c in poly.terms.items()})
    return SdeModel(
        name=model.name,
        variables=tuple(model.variables[v] for v in cone),
        brownian_dim=model.brownian_dim,
        drift=tuple(cut(model.drift[v]) for v in cone),
        diffusion=tuple(tuple(map(cut, model.diffusion[v])) for v in cone),
        initial=InitialCondition.from_point([model.initial.point[v] for v in cone]),
    ), cut(functional)


def _functional_estimates(
    model: SdeModel, functional: Polynomial, cfg: SimConfig
) -> list[MomentEstimate]:
    if model.initial.kind != "point":
        raise SimulationError(
            "simulation needs a deterministic initial point; "
            "moment-table initial conditions cannot be sampled"
        )
    model, functional = _restrict(model, functional, _cone(model, functional))
    start = np.array([float(v) for v in model.initial.point])
    record_steps = _record_steps(cfg)
    distinct = sorted(set(record_steps))  # two times may share a step
    ev = _evaluator(model, functional)

    blocks = [(first, min(_PATH_BLOCK, cfg.paths - first))
              for first in range(0, cfg.paths, _PATH_BLOCK)]

    from concurrent.futures import ThreadPoolExecutor
    # Row b: the bits of byte b, most significant first, as -1.0 (0) or 1.0 (1).
    signs = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1) * 2.0 - 1.0
    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        results = list(pool.map(lambda b: _simulate_block(ev, cfg, start, *b, distinct, signs), blocks))

    estimates = []
    for t, step in zip(cfg.record_times, record_steps):
        idx = distinct.index(step)
        try:
            mean = math.fsum(r[idx][0] for r in results) / cfg.paths
            total_sq = math.fsum(r[idx][1] for r in results)
        except OverflowError:
            raise SimulationError(f"the functional's sum over paths overflows at t={t:.6g}") from None
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

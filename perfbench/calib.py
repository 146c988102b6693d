"""Reference kernels that measure how fast the host runs the workload's kind
of work right now.

The host is shared: on a 2-vCPU machine whose neighbours come and go, the
same pure-Python work was measured to take up to 60 % longer in one
5-second window than in another, with no steal time reported.  How much a
neighbour slows a task depends on what the task does: dense BLAS, big-integer
``Fraction`` algebra, dict-heavy polynomial code and small numpy calls were
each slowed by different amounts at the same moment.  So each workload has a
kernel that does, with its own code and nothing from ``src/``, the kind of
work that dominates that workload.  The kernel runs in the same process
before every task and after the last; a pass's times are divided by the
median kernel time of the pass and multiplied by the kernel's nominal time
(``NOMINAL_S``).  A figure then reads as seconds at the reference speed: a
change in the program moves it in full, while a change in the host's speed
mostly cancels.
"""

from __future__ import annotations

import json
import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np
from scipy.special import ndtri

_RNG = np.random.default_rng(12345)
_DENSE = _RNG.standard_normal((400, 400)) / 400.0


def _fractions() -> object:
    """Gauss-Jordan elimination over Fractions, as in exact solving."""
    n = 15
    m = [[Fraction((3 * i + 7 * j) % 11 - 5, (i + 2 * j) % 7 + 1) for j in range(n + 1)]
         for i in range(n)]
    for i in range(n):
        m[i][i] += 20 + i  # diagonally dominant, so no pivot is zero
    for c in range(n):
        inv = 1 / m[c][c]
        m[c] = [v * inv for v in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return m[-1][-1]


def _dense() -> object:
    """Dense products and a solve of order 400, as in the matrix exponential."""
    a2 = _DENSE @ _DENSE
    a4 = a2 @ a2
    return np.linalg.solve(np.eye(400) + a4, a2)[0, 0]


def _polys() -> object:
    """Sparse polynomial products in dicts of exponent tuples, and a JSON
    dump of a dense matrix of rational strings, as in closure building and
    its export."""
    p = {(i % 4, (i * 3) % 5, (i * 7) % 3): Fraction(i + 1, 3) for i in range(40)}
    q: dict[tuple[int, ...], Fraction] = {}
    for ea, ca in p.items():
        for eb, cb in list(p.items())[:12]:
            key = tuple(x + y for x, y in zip(ea, eb))
            q[key] = q.get(key, 0) + ca * cb
    rows = [[str(Fraction(i - j, 3)) if (i + j) % 9 == 0 else "0" for j in range(200)]
            for i in range(200)]
    return len(q) + len(json.dumps({"matrix": rows}))


def _paths() -> object:
    """Per-path Philox draws, then Euler-Maruyama steps over a (paths, 3)
    state with one small numpy call per term, as in the simulator."""
    gens = [np.random.Generator(np.random.Philox(key=k)) for k in range(128)]
    noise = np.stack([ndtri(g.random((96, 2)) + 2.0**-54) for g in gens], axis=1)
    state = np.ones((2048, 3))
    for s in range(96):
        x0, x1, x2 = state[:, 0], state[:, 1], state[:, 2]
        drift = np.column_stack([1.0 - x0, x0 - 0.5 * x1, x1 * x2**2 - x2])
        increment = drift * 1e-3
        xi = np.resize(noise[s], (2048, 2))
        increment[:, 0] += 0.0316 * 0.3 * x0 * xi[:, 0]
        increment[:, 2] += 0.0316 * 0.2 * xi[:, 1]
        state = state + increment
        float(np.max(np.abs(state)))
    return float(state.sum())


KERNELS = {"exact": _fractions, "numeric": _dense, "closure": _polys, "simulate": _paths}

# About the time of one kernel call on a quiet host of the reference machine
# (2 vCPUs of an Intel Xeon, Python 3.11, numpy 2.4, one BLAS thread).  They
# only set the scale: both sides of a comparison use the same constants.
NOMINAL_S = {"exact": 0.013, "numeric": 0.017, "closure": 0.011, "simulate": 0.009}


def measure(workload: str) -> float:
    """Seconds one call of the workload's kernel takes now."""
    kernel = KERNELS[workload]
    started = perf_counter()
    kernel()
    return perf_counter() - started


def speed_factor(workload: str, samples: list[float]) -> float:
    """Factor that scales a time taken next to these kernel times to the
    reference speed."""
    return NOMINAL_S[workload] / statistics.median(samples)

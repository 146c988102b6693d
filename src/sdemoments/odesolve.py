"""Solving the closed linear moment ODE dm/dt = A m + c.

The inhomogeneous system is embedded into the augmented homogeneous system

    d/dt [m; 1] = [[A, c], [0, 0]] [m; 1],

so one matrix exponential covers both parts.  Three evaluation routes:

  * eval_numeric      — double precision at arbitrary sorted times; always
                        available.  Structurally zero moments (start and
                        constant 0, reading only zero moments) come out
                        +0.0; the state of the rest is carried through
                        each run of equal gaps between the distinct sorted
                        times by the route of less estimated work: dense
                        expm (Pade 13, scaled to theta13, in a fixed set of
                        arrays) once per run, on the matrix in SCC order,
                        with triangular products when it is triangular, and
                        a run whose gap is 2^j times the one before squares
                        that run's step j times, sharing its Pade step; or
                        a truncated Taylor series per gap on the CSR matrix,
                        steps sized by max(d_p, d_(p+1)), d_p >=
                        ||A^p||_1^(1/p) (Al-Mohy & Higham 2011).
  * solve_closed_form — exact solution, terms p(t) * exp(lambda t), at any
                        dimension, built fraction-free (one int denominator
                        per moment over int numerators, so a weighted sum
                        takes one lcm; Fractions only in the result).  The
                        moments are solved one strongly connected component
                        (SCC) of A's off-diagonal pattern at a time, after
                        the components they depend on: a 1x1 component by
                        exact variation of constants, a larger one by
                        removing one rational eigenvalue of its
                        characteristic polynomial per step (kernel vector,
                        rank-one update, one scalar solve), each found in
                        integers (_rational_spectrum).
  * solve_closed_form_float
                      — numeric eigendecomposition for irrational spectra;
                        refuses clustered/repeated eigenvalues (Jordan
                        structure is numerically ill-posed).  A functional's
                        float form is the same one expansion, with its
                        weights on [m; 1] in place of a unit vector.

best_closed_form is the one policy choosing among them: exact, else float,
else numeric only.

Also: Markov tail bounds and linear functionals of moments (e.g. the second
moment of a difference of states), which share one closure across targets.
numpy runs on first numeric use, not when this module is imported.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import accumulate, chain, groupby
from operator import add
from typing import Mapping, Sequence, Union

from .closure import ClosureBudget, DivergenceReport, MomentSystem, build_closure_multi
from .model import SdeModel, _lazy_numpy
from .poly import Monomial

np = _lazy_numpy()

Scalar = Union[Fraction, float, complex]


class OdeSolveError(RuntimeError):
    """Numeric failure (overflow / non-finite result) in the ODE evaluation."""


class ClosedFormUnsupported(Exception):
    """The requested closed form cannot be produced.

    For the exact path, `remaining_factor` carries the monic factor
    (ascending coefficients) of the first SCC block whose spectrum is not
    rational: the block's characteristic polynomial with its rational roots,
    found exactly by _rational_spectrum, divided out.
    """

    def __init__(self, reason: str, remaining_factor: tuple[Fraction, ...] | None = None):
        super().__init__(reason)
        self.reason = reason
        self.remaining_factor = remaining_factor


# ---------------------------------------------------------------------------
# Matrix exponential: scaling and squaring with a degree-13 Pade approximant.
# ---------------------------------------------------------------------------

_PADE13 = (
    64764752532480000,
    32382376266240000,
    7771770303897600,
    1187353796428800,
    129060195264000,
    10559470521600,
    670442572800,
    33522128640,
    1323241920,
    40840800,
    960960,
    16380,
    182,
    1,
)


_THETA13 = 5.371920351148152  # largest 1-norm for Pade 13 in double precision (Higham 2005)
_LEAF = 128  # a triangular product or inverse up to this size is one dense call


def _squarings(norm: float) -> int:
    """Squarings that bring a 1-norm down to _THETA13."""
    return 0 if norm <= _THETA13 else math.ceil(math.log2(norm / _THETA13))


def _tri_mul(x: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """x @ y for upper triangular x and y in about a third of the flops, split at n/2, into out if given."""
    n, m = len(x), len(x) // 2
    if n <= _LEAF:
        return np.matmul(x, y, out=out)
    out = np.empty_like(x) if out is None else out
    out[m:, :m] = 0.0
    _tri_mul(x[:m, :m], y[:m, :m], out[:m, :m])
    _tri_mul(x[m:, m:], y[m:, m:], out[m:, m:])
    out[:m, m:] = x[:m, :m] @ y[:m, m:] + x[:m, m:] @ y[m:, m:]
    return out


def _tri_inv(p: np.ndarray) -> np.ndarray:
    """p^-1 for upper triangular p, by the same split: X12 = -X11 p12 X22."""
    n, m = len(p), len(p) // 2
    if n <= _LEAF:
        return np.linalg.inv(p)
    out = np.zeros_like(p)
    out[:m, :m] = x11 = _tri_inv(p[:m, :m])
    out[m:, m:] = x22 = _tri_inv(p[m:, m:])
    out[:m, m:] = -(x11 @ p[:m, m:]) @ x22
    return out


def expm(matrix: np.ndarray) -> np.ndarray:
    """e^M in double precision; scaled so the Pade argument has 1-norm <= theta13.
    An upper triangular M takes triangular products and inverse, and the exact
    diagonal exp(m_ii 2^-j) is written back after the Pade step and each
    squaring (Al-Mohy & Higham 2009, Code Fragment 2.1).  The Pade sums and
    products fill three work arrays in place, bit for bit as b13 a6 + ... + b1 I."""
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expm needs a square matrix")
    norm = np.linalg.norm(a, 1)
    if not math.isfinite(norm):
        raise OdeSolveError("matrix exponential input is not finite")
    squarings = _squarings(norm)
    a /= 2.0**squarings
    upper = not a[np.tri(len(a), k=-1, dtype=bool)].any()  # np.tril costs more at small sizes
    mul = _tri_mul if upper and len(a) > _LEAF else np.matmul

    def series(out, spare, terms, identity=None):  # out + c x + ... (+ identity I), in place
        for c, x in terms:
            out += np.multiply(x, c, out=spare)
        if identity is not None:
            out += 0.0  # as x + c I, where the zeros off the diagonal turn -0.0 into +0.0
            out.reshape(-1)[:: len(out) + 1] += identity

    b = _PADE13
    a2 = mul(a, a)
    a4 = mul(a2, a2)
    a6 = mul(a2, a4)
    u, v, w = np.empty_like(a), np.empty_like(a), np.empty_like(a)
    series(np.multiply(a6, b[13], out=u), w, [(b[11], a4), (b[9], a2)])
    series(mul(a6, u, out=v), w, [(b[7], a6), (b[5], a4), (b[3], a2)], b[1])
    mul(a, v, out=u)
    series(np.multiply(a6, b[12], out=v), w, [(b[10], a4), (b[8], a2)])
    series(mul(a6, v, out=w), v, [(b[6], a6), (b[4], a4), (b[2], a2)], b[0])
    del a2, a4, a6
    # v - u is well conditioned at 1-norm <= theta13 (Higham 2005): invert it outright.
    np.subtract(w, u, out=v)
    w += u
    r = mul(_tri_inv(v), w, out=u) if mul is _tri_mul else np.linalg.solve(v, w)
    return _squared(r, squarings, np.diag(a) if upper else None)


def _squared(r: np.ndarray, squarings: int, diagonal: np.ndarray | None) -> np.ndarray:
    """r^(2^squarings) for r = e^a.  Given the diagonal of an upper triangular a,
    the exact diagonal exp(a_ii 2^k) of e^(a 2^k) is written back before the
    first squaring and after each, with triangular products above _LEAF, into r and one more array."""
    mul = _tri_mul if diagonal is not None and len(r) > _LEAF else np.matmul
    diagonals = None if diagonal is None else np.exp(np.outer(2.0 ** np.arange(squarings + 1), diagonal))
    spare = None
    for k in range(squarings + 1):
        r, spare = (mul(r, r, out=spare), r) if k else (r, spare)
        if diagonals is not None:
            r.flat[:: len(r) + 1] = diagonals[k]
    return r


# ---------------------------------------------------------------------------
# Augmented system and double-precision evaluation.
# ---------------------------------------------------------------------------

ExactMatrix = list[list[Fraction]]
_ZERO = Fraction(0)


def _augmented(ms: MomentSystem) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """[[A, c], [0, 0]] in floats as coordinates (data, rows, columns) in `order`, returned
    last: the SCC blocks of ms last to first, then the constant, so block upper triangular.
    Each coefficient object (the closure shares them) is converted once."""
    n = ms.dimension
    order = np.array([i for block in reversed(ms.blocks) for i in block] + [n])
    rows, constants = ms.rows + ((),), ms.vector_c + (_ZERO,)
    entries = [list(rows[i]) + ([(n, constants[i])] if constants[i] else []) for i in order]
    values = [v for row in entries for _, v in row]
    floats = {k: v.numerator / v.denominator for k, v in {id(v): v for v in values}.items()}
    data = np.array([floats[id(v)] for v in values])
    cols = np.argsort(order)[np.array([j for row in entries for j, _ in row], dtype=np.int64)]
    return data, np.repeat(np.arange(n + 1), [len(row) for row in entries]), cols, order


# Al-Mohy & Higham 2011, Table 3.1: theta_m bounds the ||t A||_1 at which m Taylor terms of
# e^{tA} b meet 2^-53.  A gap takes s steps of degree m, least m * s, s = ceil(t alpha / theta_m), alpha
# the least of ||A||_1 and each max(d_p, d_(p+1)), p (p - 1) <= m + 1, d_p >= ||A^p||_1^(1/p) (section 3).
_THETA = dict(zip([*range(1, 31), 35, 40, 45, 50, 55], [
    2.29e-16, 2.58e-8, 1.39e-5, 3.4e-4, 2.4e-3, 9.07e-3, 2.38e-2, 5.0e-2, 8.96e-2, 0.144, 0.214, 0.3, 0.4,
    0.514, 0.641, 0.781, 0.931, 1.09, 1.26, 1.44, 1.62, 1.82, 2.01, 2.22, 2.43, 2.64, 2.86, 3.08, 3.31,
    3.54, 4.7, 6.0, 7.2, 8.5, 9.9]))


def _taylor_step(aug, state: np.ndarray, gap: float, mu: float, m: int, s: int) -> np.ndarray:
    """e^{gap (aug + mu I)} state by Algorithm 3.2 of Al-Mohy & Higham 2011:
    s steps of the degree-m Taylor series of e^{gap aug / s}, each cut off
    once two successive terms fall below 2^-53 of the sum, times e^{mu gap / s}.
    max|sum| is taken only when its bound, sound under monotone rounding, lets the cut-off pass."""
    for _ in range(s):
        term, c1 = state, np.abs(state).max()
        bound = c1  # >= max|state|
        for j in range(1, m + 1):
            term = aug @ term * (gap / (s * j))
            c2 = np.abs(term).max()
            state = state + term
            bound += c2
            if c1 + c2 <= 2.0**-53 * bound and c1 + c2 <= 2.0**-53 * np.abs(state).max():
                break
            c1 = c2
        state = np.exp(mu * gap / s) * state
    return state


# Fitted with one BLAS thread on the 93 pool closures of dim 290-700, in units
# of (squarings + 8) n^3 of the triangular Pade 13: Taylor steps cost
# _SPARSE_UNIT per unit of ||aug gap||_1, and _SPARSE_GAP units more per gap.
_SPARSE_UNIT = 6e5
_SPARSE_GAP = 10


def _doublings(earlier: float, gap: float, norm: float) -> int:
    """j >= 1 if gap is exactly earlier * 2^j and expm(aug * gap), norm = ||aug||_1,
    squares at least j times: its Pade step is then that of expm(aug * earlier),
    and its result that one squared j times more.  Else 0, as for earlier = 0."""
    (m0, e0), (m1, e1) = math.frexp(earlier), math.frexp(gap)
    return e1 - e0 if m0 == m1 and 0 < e1 - e0 <= _squarings(norm * gap) else 0


def _sparse_is_cheaper(size: int, norm: float, runs: Sequence[tuple[float, int]]) -> bool:
    """Whether Taylor stepping is estimated to cost less than dense Pade 13
    over these runs of (gap, count) equal nonzero gaps, norm = ||aug||_1.  A
    dense run costs (squarings + 8) n^3, or j n^3 when its step is the step of
    the run before it squared j times (_doublings).  Ties, and no step at all,
    keep the dense route.  Raises OverflowError when the Taylor estimate is
    beyond the float range."""
    taylor = sum((norm * gap + _SPARSE_GAP) * k for gap, k in runs) * _SPARSE_UNIT
    if taylor == math.inf:  # and so is the dense one, if any ||aug gap||_1 is
        raise OverflowError("the Taylor work estimate is beyond the float range")
    gaps = [gap for gap, _ in runs]
    units = (_doublings(g0, g, norm) or _squarings(norm * g) + 8 for g0, g in zip([0.0, *gaps], gaps))
    return taylor < sum(units) * size**3


def _start(ms: MomentSystem) -> np.ndarray:
    """[m0; 1] in floats, or OdeSolveError naming a start moment beyond the float range."""
    try:
        return np.array([*(v.numerator / v.denominator for v in ms.m0), 1.0])
    except OverflowError:
        index = next(m for m, v in zip(ms.indices, ms.m0) if abs(v) > np.finfo(float).max)
        raise OdeSolveError(f"the start moment {index} is beyond the float range") from None


def eval_numeric(ms: MomentSystem, times: Sequence[float]) -> np.ndarray:
    """m(t) for each t, shape (len(times), dimension); row components follow
    ms.indices, and the structurally zero ones (ms.zeros) are +0.0.  The
    augmented state of the others is carried from t = 0 through the distinct
    sorted times, one maximal run of bit-equal gaps at a time, so a t = 0 row
    is m0 exactly and a repeated time repeats its row.  One route per call,
    by estimated work (_sparse_is_cheaper): one expm(aug * gap) per run on
    aug in SCC order, then a matrix-vector step per gap; or a Taylor step per
    gap on aug - mu I, mu = trace / size, in CSR form (only then is
    scipy.sparse imported), sized as at _THETA.  A dense run whose gap is 2^j
    times the last one, where expm(aug * gap) would square at least j times,
    squares the last step j times instead, bit for bit the same (_doublings:
    one Pade step serves 0, 0.25, 0.5, 1, 2, 4 once ||aug||_1 > 2 theta13).
    Raises OdeSolveError, naming the first non-finite time, when the state
    or the route estimate overflows."""
    times = list(times)
    if not all(0 <= t < math.inf for t in times):  # NaN fails too
        raise ValueError("times must be finite and non-negative")
    if sorted(times) != times:
        raise ValueError("times must be sorted ascending")
    if len(ms.zeros) == ms.dimension:
        return np.zeros((len(times), ms.dimension))
    start = _start(ms)
    data, rows, cols, order = _augmented(ms)
    if ms.zeros:  # keep the other moments, in the same order; a zero row reads only zero columns
        live = np.ones(len(order), bool)
        live[list(ms.zeros)] = False
        live = live[order]
        kept, position = live[cols], live.cumsum() - 1
        data, rows, cols, order = data[kept], position[rows[kept]], position[cols[kept]], order[live]
    n = len(order) - 1  # the moments left
    # ||aug||_1 and the gaps as Python floats: a product past the float range is inf, without a warning
    norm = float(np.bincount(cols, np.abs(data), n + 1).max())
    distinct = sorted({0.0, *times})
    runs = [(gap, len(list(run))) for gap, run in groupby(np.diff(distinct).tolist())]
    try:
        sparse = _sparse_is_cheaper(n + 1, norm, runs)
    except OverflowError:  # the first time whose estimate is not finite
        ends, work = accumulate(k for _, k in runs), accumulate((norm * gap + _SPARSE_GAP) * k for gap, k in runs)
        t = next((distinct[end] for end, w in zip(ends, work) if w * _SPARSE_UNIT == math.inf), distinct[-1])
        raise OdeSolveError(f"moment evaluation overflowed at t={t} (matrix norm {norm:.3g})") from None
    if sparse:
        from scipy.sparse import csr_array

        mu = data[rows == cols].sum() / (n + 1)
        eye = np.arange(n + 1)  # the shift, summed into the diagonal
        coo = (np.r_[data, np.full(n + 1, -mu)], (np.r_[rows, eye], np.r_[cols, eye]))
        aug = csr_array(coo, shape=(n + 1, n + 1))
        sums, absolute = np.bincount(aug.indices, np.abs(aug.data), n + 1), abs(aug).T  # 1^T |aug - mu I|
        # d_p >= ||(aug - mu I)^p||_1^(1/p) from 1^T |aug - mu I|^p, p = 1..9
        d = [sums.max()] + [(sums := absolute @ sums).max() ** (1 / p) for p in range(2, 10)]
        alpha = {m: min(d[0], *(max(d[p - 1 : p + 1]) for p in range(2, 9) if p * (p - 1) <= m + 1)) for m in _THETA}
    else:
        aug = np.zeros((n + 1, n + 1))
        aug[rows, cols] = data
    out = np.ones((len(distinct), n + 1))  # the state at each distinct time, in `order`
    out[0] = start[order]
    done = 1
    # Overflow shows up as a non-finite state, reported below.
    with np.errstate(over="ignore", invalid="ignore"):
        for earlier, (gap, count) in zip([0.0, *(gap for gap, _ in runs)], runs):
            if sparse:
                degrees = ((m, max(1, math.ceil(alpha[m] * gap / theta))) for m, theta in _THETA.items())
                m, s = min(degrees, key=lambda p: p[0] * p[1])
            elif j := _doublings(earlier, gap, norm):
                step = _squared(step, j, None if data[rows > cols].any() else np.diag(aug) * earlier)
            else:
                step = expm(aug * gap)
            for row in range(done, done + count):
                state = _taylor_step(aug, out[row - 1], gap, mu, m, s) if sparse else step @ out[row - 1]
                out[row, :n] = state[:n]  # the constant stays 1: the shift keeps it only to rounding
            done += count
    finite = np.isfinite(out).all(axis=1)
    if not finite.all():
        t = distinct[finite.argmin()]
        raise OdeSolveError(f"moment evaluation overflowed at t={t} (matrix norm {norm:.3g})")
    values = np.zeros((len(times), ms.dimension))
    values[:, order[:n]] = out[np.searchsorted(distinct, times), :n]
    return values


# ---------------------------------------------------------------------------
# Exact rational linear algebra (small dense systems).
# ---------------------------------------------------------------------------


def characteristic_polynomial(matrix: ExactMatrix) -> list[Fraction]:
    """Monic characteristic polynomial det(lambda I - M), ascending
    coefficients (index = power of lambda), by the Faddeev-LeVerrier
    recursion in integers: on B = L M, L the common denominator of M, every
    division by i is exact, and coefficient i is b_i / L^(k-i)."""
    k = len(matrix)
    scale = math.lcm(*(x.denominator for row in matrix for x in row))
    b = [[x.numerator * (scale // x.denominator) for x in row] for row in matrix]
    coeffs_desc = [1]
    m_cur = b
    for i in range(1, k + 1):
        if i > 1:  # b (m_cur + last I) = b m_cur + last b
            last, cols = coeffs_desc[-1], list(zip(*m_cur))
            m_cur = [[sum(u * v for u, v in zip(row, col)) + last * x for col, x in zip(cols, row)] for row in b]
        coeffs_desc.append(-sum(m_cur[j][j] for j in range(k)) // i)
    return [Fraction(c, scale ** (k - i)) for i, c in enumerate(reversed(coeffs_desc))]


def _value(p: Sequence[int], x: int) -> int:
    """p(x) by Horner's rule in integers, p ascending."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _crossing(p: Sequence[int], lo: int, hi: int, low: int, high: int) -> tuple[int, int, int]:
    """The mark of the one root of p in (lo, hi), where p is monotone and
    low = p(lo), high = p(hi) have strictly opposite signs.  Steps are false
    position with the Illinois rule (an end kept twice in a row has its
    weight halved), but every second step bisects if the two before it did
    not halve hi - lo, so hi - lo halves at least every four steps."""
    rising, last, before, second, weights = high > 0, None, hi - lo, False, [low, high]
    while hi - lo > 1:
        width = hi - lo
        halve, second = second and 2 * width > before, not second
        before = before if second else width
        x = lo + width // 2 if halve else min(max(lo - width * weights[0] // (weights[1] - weights[0]), lo + 1), hi - 1)
        if not (value := _value(p, x)):
            return x, x, 0
        side = int((value > 0) == rising)  # 1: x replaces hi
        lo, low, hi, high = (lo, low, x, value) if side else (x, value, hi, high)
        if side == last:
            weights[1 - side] //= 2
        weights[side], last = value, side
    return lo, hi, max(abs(low), abs(high))


def _root_marks(p: Sequence[int], bound: int) -> list[tuple[int, int, int]]:
    """Marks (lo, hi, size) holding every real root where p changes sign, p in
    integers, ascending, of degree >= 1, its real roots in (-bound, bound): a
    root if lo = hi, else [lo, lo + 1] with size >= max |p| on it.  Between
    marks of p', p is monotone (Rolle: see _crossing); on an interval mark of
    p', |p(x) - p(lo)| <= size |x - lo|, so if p(lo) p(hi) > 0 and |p(lo)| +
    |p(hi)| > size, p has no root there."""
    below = _root_marks([i * c for i, c in enumerate(p)][1:], bound) if len(p) > 2 else []
    slopes = {lo: size for lo, hi, size in below if hi > lo}
    ends = sorted({-bound, bound, *(x for lo, hi, _ in below for x in (lo, hi))})
    values = [_value(p, x) for x in ends]
    marks = [(x, x, 0) for x, value in zip(ends, values) if not value]
    for lo, hi, low, high in zip(ends, ends[1:], values, values[1:]):
        if lo in slopes:
            if low * high <= 0 or abs(low) + abs(high) <= slopes[lo]:
                marks.append((lo, hi, (abs(low) + abs(high) + slopes[lo] + 1) // 2))
        elif low * high < 0:
            marks.append(_crossing(p, lo, hi, low, high))
    return marks


def _kernel_vector(a: ExactMatrix, lam: Fraction) -> tuple[int, list[Fraction]]:
    """(f, v) with (a - lam) v = 0, v_f = 1 and v_l = 0 for l > f, where f
    is the first free column of the row reduction; lam must be an
    eigenvalue of a."""
    m = [[x - lam if i == j else x for j, x in enumerate(row)] for i, row in enumerate(a)]
    k = len(m)
    for c in range(k):
        pivot = next((i for i in range(c, k) if m[i][c]), None)
        if pivot is None:
            return c, [-m[i][c] for i in range(c)] + [Fraction(1)] + [_ZERO] * (k - c - 1)
        m[c], m[pivot] = m[pivot], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for i in range(k):
            if i != c and m[i][c]:
                factor = m[i][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[c])]
    raise ValueError(f"{lam} is not an eigenvalue")


# ---------------------------------------------------------------------------
# Closed forms.
# ---------------------------------------------------------------------------


def _format_float_scalar(v: Scalar) -> str:
    if isinstance(v, complex):
        return f"({v.real:.12g}{v.imag:+.12g}j)"
    return f"{float(v):.12g}"


def _decimal_sum(terms: Sequence[tuple[Fraction, Sequence[Fraction]]], t: float) -> float:
    """Value at t of exact-rational terms.  The terms of large closures cancel
    by many orders of magnitude, so they are summed in decimal, with more
    digits until two successive sums agree to double precision."""
    previous = None
    for digits in (32, 64, 128, 256, 512, 1024):
        with localcontext() as ctx:
            ctx.prec = digits
            x = Decimal(float(t))
            total = Decimal(0)
            for lam, coeffs in terms:
                poly = Decimal(0)
                for c in reversed(coeffs):
                    poly = poly * x + Decimal(c.numerator) / c.denominator
                total += poly * (Decimal(lam.numerator) / lam.denominator * x).exp()
        value = float(total)
        if previous is not None and abs(value - previous) <= 2**-52 * abs(value):
            break
        previous = value
    return value


@dataclass(frozen=True)
class ClosedForm:
    """sum over terms (lambda, coeffs) of (sum_d coeffs[d] t^d) * exp(lambda t).

    Terms are canonical: lambdas pairwise distinct, sorted by descending
    lambda (real part first for float spectra), coefficient lists free of
    trailing zeros and never empty.
    """

    terms: tuple[tuple[Scalar, tuple[Scalar, ...]], ...]
    scalar_kind: str  # "exact-rational" | "float"

    @staticmethod
    def build(term_map: Mapping[Scalar, Sequence[Scalar]], scalar_kind: str) -> "ClosedForm":
        cleaned: list[tuple[Scalar, tuple[Scalar, ...]]] = []
        for lam, coeffs in term_map.items():
            trimmed = list(coeffs)
            while trimmed and trimmed[-1] == 0:
                trimmed.pop()
            if trimmed:
                cleaned.append((lam, tuple(trimmed)))
        cleaned.sort(key=lambda entry: (-entry[0].real, -entry[0].imag))
        return ClosedForm(terms=tuple(cleaned), scalar_kind=scalar_kind)

    def evaluate(self, t: float) -> float:
        if self.scalar_kind == "exact-rational":
            return _decimal_sum(self.terms, t)
        total = 0.0 + 0.0j
        for lam, coeffs in self.terms:
            poly = 0.0 + 0.0j
            for c in reversed(coeffs):
                poly = poly * t + complex(c)
            total += poly * cmath.exp(complex(lam) * t)
        return total.real

    # -- text ---------------------------------------------------------------

    def _format_scalar(self, v: Scalar) -> str:
        if self.scalar_kind == "exact-rational":
            return str(v)
        return _format_float_scalar(v)

    def _format_poly(self, coeffs: tuple[Scalar, ...]) -> tuple[str, bool]:
        """Render the t-polynomial; second value says whether it is a single
        non-negative monomial (safe to print without parentheses)."""
        pieces: list[tuple[bool, str]] = []  # (negative, body without sign)
        for d, c in enumerate(coeffs):
            if c == 0:
                continue
            negative = not isinstance(c, complex) and c < 0
            magnitude = -c if negative else c
            mag = self._format_scalar(magnitude)
            if d == 0:
                body = mag
            else:
                tpow = "t" if d == 1 else f"t^{d}"
                body = tpow if magnitude == 1 else f"{mag}*{tpow}"
            pieces.append((negative, body))
        if not pieces:
            return "0", True
        rendered = "".join(f" - {body}" if negative else f" + {body}" for negative, body in pieces)
        return ("-" if pieces[0][0] else "") + rendered[3:], len(pieces) == 1 and not pieces[0][0]

    def _format_exponent(self, lam: Scalar) -> str:
        if lam == 0:
            return ""
        if not isinstance(lam, complex) and lam in (1, -1):
            return "exp(t)" if lam == 1 else "exp(-t)"
        return f"exp({self._format_scalar(lam)}*t)"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks: list[str] = []
        for lam, coeffs in self.terms:
            poly, simple = self._format_poly(coeffs)
            exp = self._format_exponent(lam)
            if not exp:
                chunks.append(poly if simple else f"({poly})")
            elif poly == "1":
                chunks.append(exp)
            else:
                chunks.append(f"{poly if simple else f'({poly})'}*{exp}")
        return " + ".join(chunks)


# ---------------------------------------------------------------------------
# Exact closed-form solution.
# ---------------------------------------------------------------------------


# (den, {mu: nums}): one moment's form sum_mu (sum_d nums[d] t^d / den) e^{mu t},
# int nums over one positive int den, rate mu as its (numerator, denominator)
Form = tuple[int, dict[tuple[int, int], list[int]]]
_ONE: Form = (1, {(0, 1): [1]})


def _axpy(parts) -> Form:
    """sum of weight * form over (weight, form) pairs: one lcm, then int multiply-adds."""
    parts = [(w, form) for w, form in parts if w and form[1]]
    if not parts:
        return 1, {}
    den = math.lcm(*(w.denominator * d for w, (d, _) in parts))
    acc: dict[tuple[int, int], list[int]] = {}
    for w, (d, terms) in parts:
        factor = w.numerator * (den // (w.denominator * d))
        for mu, nums in terms.items():
            row = acc.get(mu)
            if row is None:
                acc[mu] = [factor * nums[0]] if len(nums) == 1 else [factor * c for c in nums]
            elif len(nums) == 1:
                row[0] += factor * nums[0]
            else:
                row.extend([0] * (len(nums) - len(row)))
                row[: len(nums)] = map(add, row, [factor * c for c in nums])
    return den, acc


def _finished(den: int, terms: dict[tuple[int, int], list[int]]) -> Form:
    """The form without trailing zeros or zero terms, over its content gcd; lists change in place."""
    for nums in terms.values():
        while nums and not nums[-1]:
            nums.pop()
    terms = {mu: nums for mu, nums in terms.items() if nums}
    g = math.gcd(den, *chain.from_iterable(terms.values()))
    if g > 1:
        den //= g
        for nums in terms.values():
            nums[:] = [nums[0] // g] if len(nums) == 1 else [c // g for c in nums]
    return den, terms


def _closed_form(den: int, terms: dict[tuple[int, int], list[int]]) -> ClosedForm:
    terms = {Fraction(*mu): [Fraction(c, den) for c in nums] for mu, nums in terms.items()}
    return ClosedForm.build(terms, "exact-rational")


def _scalar_form(lam: Fraction, forcing: Form, start: Fraction) -> Form:
    """y' = lam y + sum_mu p_mu(t) e^{mu t}, y(0) = start, by variation of
    constants.  The particular part q_mu e^{mu t} solves
    (mu - lam) q_mu + q_mu' = p_mu, that is
    q_mu = sum_k (-1)^k p_mu^(k) / (mu - lam)^(k+1), and at resonance
    (mu = lam) q_mu = int_0^t p_mu, one degree higher.  Then
    y = sum_mu q_mu e^{mu t} + (start - sum_mu q_mu(0)) e^{lam t}.

    In integers, with p_mu = P / den of degree m and mu - lam = dn / dd,
    dn > 0: q_mu = Q / (den dn^(m+1)), Q_k = dd (P_k dn^m - (k+1) Q_{k+1} / dn),
    each division exact; at resonance den takes lcm(1..m+1).  Every rate
    goes over one lcm of those factors, so the free term is an int sum."""
    key = (lam.numerator, lam.denominator)
    den, forcing_terms = forcing
    rates = []  # (mu, p, dn, dd, scale): q_mu over den * scale
    for mu, p in forcing_terms.items():
        dn = mu[0] * key[1] - key[0] * mu[1]
        dd = mu[1] * key[1] if dn > 0 else -mu[1] * key[1]
        scale = math.lcm(*range(1, len(p) + 1)) if mu == key else abs(dn) ** len(p)
        rates.append((mu, p, abs(dn), dd, scale))
    out_den = math.lcm(den * math.lcm(*(scale for *_, scale in rates)), start.denominator)
    lift = out_den // den
    terms = {}
    for mu, p, dn, dd, scale in rates:
        if mu == key:
            terms[mu] = [0] + [c * (lift // (d + 1)) for d, c in enumerate(p)]
        elif len(p) == 1:
            terms[mu] = [dd * (lift // scale) * p[0]]
        else:
            q, r, up = [0] * len(p), 0, lift // scale * dn ** (len(p) - 1)
            for k in reversed(range(len(p))):
                r = q[k] = dd * (up * p[k] - (k + 1) * r // dn)
            terms[mu] = q
    # A resonant q is 0 at t = 0, so it takes the free term at degree 0.
    free = start.numerator * (out_den // start.denominator) - sum(nums[0] for nums in terms.values())
    terms.setdefault(key, [0])[0] = free
    return _finished(out_den, terms)


def _rational_spectrum(a: ExactMatrix) -> list[Fraction]:
    """The eigenvalues of a with multiplicity, descending.  With L the common
    denominator of a, B = L a has a monic integer characteristic polynomial
    g of degree k, whose rational roots are integers r: the eigenvalues
    r / L of a, divided out as often as they divide, found among the marks of
    g (_root_marks): exact, with no float.  The real roots of g and of its
    derivatives (Gauss-Lucas) lie within the Fujiwara bound 2 max_i
    |g_i|^(1/(k-i)), here from bit lengths.  Raises ClosedFormUnsupported
    when a factor with no rational root remains."""
    scale = math.lcm(*(x.denominator for row in a for x in row))
    g = [int(c * scale ** (len(a) - i)) for i, c in enumerate(characteristic_polynomial(a))]
    bound = 2 ** (2 + max(-(-abs(c).bit_length() // (len(g) - 1 - i)) for i, c in enumerate(g[:-1])))
    roots: list[int] = []
    for root in [lo for lo, hi, _ in _root_marks(g, bound) if lo == hi]:
        while len(g) > 1 and not _value(g, root):  # synthetic division by x - root
            g = list(accumulate(reversed(g[1:]), lambda acc, c: acc * root + c))[::-1]
            roots.append(root)
    if len(g) > 1:
        raise ClosedFormUnsupported(
            f"the spectrum is not rational: an SCC block of size {len(a)} leaves a "
            f"characteristic factor of degree {len(g) - 1} with no rational root",
            remaining_factor=tuple(Fraction(c, scale ** (len(g) - 1 - i)) for i, c in enumerate(g)),
        )
    return [Fraction(r, scale) for r in sorted(roots, reverse=True)]


def _block_forms(
    a: ExactMatrix, forcings: list[Form], start: list[Fraction], roots: list[Fraction] | None = None
) -> list[Form]:
    """m' = a m + forcing(t), m(0) = start, for one SCC diagonal block, one
    eigenvalue lam at a time (deflation).  A 1x1 block is one scalar solve.
    Otherwise take r in ker(a - lam) with r_p = 1 and write m_p = z,
    m_i = y_i + r_i z (i != p).  The y_i do not involve z: they solve the
    block a_il - r_i a_pl (i, l != p) with forcing f_i - r_i f_p from
    m0_i - r_i m0_p, whose eigenvalues are the remaining roots.  Then
    z' = lam z + sum_l a_pl y_l + f_p, z(0) = m0_p, is one scalar solve; at
    resonance its degree rises, so Jordan structure needs no special case.  A
    block with zero forcing and start stays zero, with no spectrum computed."""
    k = len(a)
    if k == 1:
        return [_scalar_form(a[0][0], forcings[0], start[0])]
    if not any(start) and not any(any(nums) for _, terms in forcings for nums in terms.values()):
        return [(1, {}) for _ in range(k)]
    if roots is None:
        roots = _rational_spectrum(a)
    lam = roots[0]
    p, r = _kernel_vector(a, lam)
    rest = [i for i in range(k) if i != p]
    ys = _block_forms(
        [[a[i][l] - r[i] * a[p][l] for l in rest] for i in rest],
        [_axpy([(1, forcings[i]), (-r[i], forcings[p])]) for i in rest],
        [start[i] - r[i] * start[p] for i in rest],
        roots[1:],
    )
    z = _scalar_form(lam, _axpy([(1, forcings[p]), *((a[p][l], y) for l, y in zip(rest, ys))]), start[p])
    forms = [_finished(*_axpy([(1, y), (r[i], z)])) if r[i] else y for i, y in zip(rest, ys)]
    forms.insert(p, z)
    return forms


def _solve_forms(ms: MomentSystem) -> list[Form]:
    """Every component of m(t).  ms.blocks lists each strongly connected
    component of A's off-diagonal pattern after every component it reaches:
    their solved forms, with c, are the block's forcing."""
    forms: list[Form] = [(1, {})] * ms.dimension
    for block in (b for b in ms.blocks if b[0] not in ms.zeros):  # the others' forms are zero
        if len(block) == 1:  # one scalar solve
            [i] = block
            diagonal, parts = _ZERO, [(ms.vector_c[i], _ONE)]
            for j, coeff in ms.rows[i]:
                if j == i:
                    diagonal = coeff
                else:
                    parts.append((coeff, forms[j]))
            forms[i] = _scalar_form(diagonal, _axpy(parts), ms.m0[i])
            continue
        local = {i: p for p, i in enumerate(block)}
        a = [[_ZERO] * len(block) for _ in block]
        forcings: list[Form] = []
        for p, i in enumerate(block):
            parts = [(ms.vector_c[i], _ONE)]
            for j, coeff in ms.rows[i]:
                if j in local:
                    a[p][local[j]] = coeff
                else:
                    parts.append((coeff, forms[j]))
            forcings.append(_axpy(parts))
        for i, form in zip(block, _block_forms(a, forcings, [ms.m0[i] for i in block])):
            forms[i] = form
    return forms


def solve_closed_form_vector(ms: MomentSystem) -> list[ClosedForm]:
    """Exact ClosedForm for every component of m(t); see solve_closed_form."""
    return [_closed_form(*form) for form in _solve_forms(ms)]


def solve_closed_form(ms: MomentSystem, component: int = 0) -> ClosedForm:
    """Exact closed form of one moment component (default: the target), by
    _solve_forms, which the module docstring describes.  Raises
    ClosedFormUnsupported, carrying the remaining characteristic factor,
    when a block's spectrum is not rational (see _rational_spectrum); the
    float-spectrum path is the fallback."""
    if not 0 <= component < ms.dimension:
        raise IndexError(f"component {component} out of range")
    return _closed_form(*_solve_forms(ms)[component])


# ---------------------------------------------------------------------------
# Float-spectrum closed form (diagonalizable spectra only).
# ---------------------------------------------------------------------------

_EIGEN_GAP = 1e-8
_EIGEN_COND_CAP = 1e7
_COEFF_PRUNE = 1e-12


def _clean_float_scalar(value: complex) -> Scalar:
    if abs(value.imag) <= _COEFF_PRUNE * max(1.0, abs(value.real)):
        return value.real
    return value


def _float_form(ms: MomentSystem, weights: np.ndarray) -> ClosedForm:
    """weights @ [m(t); 1] from one eigendecomposition V diag(lam) V^-1 of
    the augmented matrix: the coefficient of exp(lam t) is (weights @ V) *
    V^-1 [m0; 1], and those at most _COEFF_PRUNE of the largest are dropped."""
    data, rows, cols, order = _augmented(ms)
    aug = np.zeros((len(order), len(order)))
    aug[order[rows], order[cols]] = data  # in index order
    values, vectors = np.linalg.eig(aug)
    order = np.lexsort((values.imag, values.real))[::-1]
    values, vectors = values[order], vectors[:, order]
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if abs(values[i] - values[j]) < _EIGEN_GAP:
                raise ClosedFormUnsupported(
                    f"eigenvalues {values[i]:.9g} and {values[j]:.9g} are closer than "
                    f"{_EIGEN_GAP}; the numeric spectrum may be defective"
                )
    # A defective (or nearly defective) matrix shows up as an ill-conditioned
    # eigenvector basis even when rounding splits the repeated eigenvalues
    # wider than the gap threshold.
    condition = np.linalg.cond(vectors)
    if not np.isfinite(condition) or condition > _EIGEN_COND_CAP:
        raise ClosedFormUnsupported(
            f"eigenvector basis is ill-conditioned (cond ~ {condition:.3g}); "
            "the numeric spectrum may be defective"
        )
    v0 = _start(ms).astype(complex)
    coeffs = (weights @ vectors) * np.linalg.solve(vectors, v0)
    keep = np.abs(coeffs) > _COEFF_PRUNE * np.abs(coeffs).max()
    pairs = zip(values[keep].tolist(), coeffs[keep].tolist())
    terms = {_clean_float_scalar(lam): [_clean_float_scalar(c)] for lam, c in pairs}
    return ClosedForm.build(terms, "float")


def solve_closed_form_float(ms: MomentSystem, component: int = 0) -> ClosedForm:
    """Closed form from the numeric eigendecomposition (scalar_kind="float").

    Only spectra with pairwise-separated eigenvalues and a well-conditioned
    eigenvector basis are accepted; coefficients at most 1e-12 of the largest
    are pruned.  A functional's form is the same one expansion, with its
    weights in place of the unit vector (FunctionalMoment.closed_form_float)."""
    if not 0 <= component < ms.dimension:
        raise IndexError(f"component {component} out of range")
    return _float_form(ms, np.eye(1, ms.dimension + 1, component)[0])


# ---------------------------------------------------------------------------
# Linear functionals of moments, and the Markov bound.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FunctionalMoment:
    """A linear combination sum_i weights[i] * m_i(t) + offset over one
    shared closure (the functional's monomials are the leading indices)."""

    system: MomentSystem
    weights: tuple[Fraction, ...]
    offset: Fraction

    def eval_numeric(self, times: Sequence[float]) -> np.ndarray:
        vectors = eval_numeric(self.system, times)
        w = np.array([x.numerator / x.denominator for x in self.weights])
        return vectors @ w + self.offset.numerator / self.offset.denominator

    def closed_form_exact(self) -> ClosedForm:
        parts = zip((self.offset, *self.weights), (_ONE, *_solve_forms(self.system)))
        return _closed_form(*_finished(*_axpy(parts)))

    def closed_form_float(self) -> ClosedForm:
        return _float_form(self.system, np.array([*map(float, self.weights), float(self.offset)]))


def best_closed_form(fm: FunctionalMoment) -> tuple[ClosedForm | None, str, str | None]:
    """The closed-form policy: exact, else float spectrum, else none.

    Returns (form, kind, note); kind is "exact-rational", "float-spectrum" or
    "numeric-only" (form None), and the note says why the exact (and float)
    path was unavailable."""
    try:
        return fm.closed_form_exact(), "exact-rational", None
    except ClosedFormUnsupported as exc:
        exact_note = str(exc)
    try:
        return fm.closed_form_float(), "float-spectrum", f"exact path unavailable: {exact_note}"
    except ClosedFormUnsupported as exc:
        return None, "numeric-only", f"no closed form: {exact_note}; float path: {exc}"


def linear_functional_moment(
    model: SdeModel,
    coeffs: Mapping[Monomial, Fraction],
    budget: ClosureBudget | None = None,
) -> FunctionalMoment | DivergenceReport:
    """Moment of a polynomial functional sum coeffs[beta] * x^beta, expanded
    by linearity of expectation over one union closure."""
    offset = Fraction(0)
    targets: list[tuple[Monomial, Fraction]] = []
    for mono, value in coeffs.items():
        value = Fraction(value)
        if not value:
            continue
        if mono.degree == 0:
            offset += value
        else:
            targets.append((mono, value))
    if not targets:
        raise ValueError("functional has no non-constant monomials")
    targets.sort(key=lambda mc: mc[0], reverse=True)
    result = build_closure_multi(model, [m for m, _ in targets], budget=budget)
    if isinstance(result, DivergenceReport):
        return result
    weight_of = dict(targets)
    weights = tuple(weight_of.get(mono, Fraction(0)) for mono in result.indices)
    return FunctionalMoment(system=result, weights=weights, offset=offset)


def markov_tail_bound(moment_value: float, threshold: float, power: int) -> float:
    """P(|Z| >= threshold) <= min(1, E[|Z|^power] / threshold^power);
    `moment_value` must be that even-power moment."""
    if not threshold > 0:  # NaN too
        raise ValueError("threshold must be positive")
    if not isinstance(power, int) or power <= 0 or power % 2:
        raise ValueError("power must be a positive even integer")
    if not 0 <= moment_value < math.inf:  # NaN fails too
        raise ValueError("an even-power moment must be finite and non-negative")
    try:
        ratio = min(1.0, moment_value / threshold**power)
    except ZeroDivisionError:  # threshold^power underflowed to 0.0
        return 1.0
    except OverflowError:  # threshold^power overflowed
        ratio = 0.0
    return ratio if ratio or not moment_value else math.ulp(0.0)  # a positive bound never rounds to 0

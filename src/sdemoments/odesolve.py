"""Solving the closed linear moment ODE dm/dt = A m + c.

The inhomogeneous system is embedded into the augmented homogeneous system

    d/dt [m; 1] = [[A, c], [0, 0]] [m; 1],

so one matrix exponential covers both parts.  Three evaluation routes:

  * eval_numeric      — double precision at arbitrary sorted times; always
                        available.  The state is carried forward between
                        sorted times by the route of less estimated work:
                        dense expm (scaling-and-squaring, Pade 13) once per
                        distinct gap, about (squarings + 8) n^3 each, or
                        scipy's expm_multiply on the CSR augmented matrix
                        once per gap, about (6 ||aug gap||_1 + 20) sparse
                        products each.
  * solve_closed_form — exact solution, terms p(t) * exp(lambda t), at any
                        dimension, built fraction-free (int numerators over
                        one int denominator per term; Fractions only in the
                        result).  The moments are solved one strongly
                        connected component (SCC) of A's off-diagonal
                        pattern at a time, after the components they depend
                        on: a 1x1 component by exact variation of constants,
                        a larger one by removing one rational eigenvalue of
                        its characteristic polynomial per step (kernel
                        vector, rank-one update, one scalar solve).
  * solve_closed_form_float
                      — numeric eigendecomposition for irrational spectra;
                        refuses clustered/repeated eigenvalues (Jordan
                        structure is numerically ill-posed).

best_closed_form is the one policy choosing among them: exact, else float,
else numeric only.

Also: Markov tail bounds and linear functionals of moments (e.g. the second
moment of a difference of states), which share one closure across targets.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Mapping, Sequence, Union

import numpy as np

from .closure import ClosureBudget, DivergenceReport, MomentSystem, build_closure_multi
from .model import SdeModel
from .poly import Monomial
from .prosolve import _tarjan_sccs

Scalar = Union[Fraction, float, complex]


class OdeSolveError(RuntimeError):
    """Numeric failure (overflow / non-finite result) in the ODE evaluation."""


class ClosedFormUnsupported(Exception):
    """The requested closed form cannot be produced.

    For the exact path, `remaining_factor` carries the monic factor
    (ascending coefficients) of the first SCC block whose spectrum is not
    rational: the block's characteristic polynomial with its rational roots
    divided out.  Those are r / L for the integer roots r of the
    characteristic polynomial of L times the block, L its common
    denominator, each verified by exact division (see _rational_spectrum).
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


def expm(matrix: np.ndarray) -> np.ndarray:
    """e^M in double precision; scaled so the Pade argument has 1-norm <= 1/2."""
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expm needs a square matrix")
    norm = np.linalg.norm(a, 1)
    if not np.isfinite(norm):
        raise OdeSolveError("matrix exponential input is not finite")
    squarings = 0 if norm <= 0.5 else int(math.ceil(math.log2(norm / 0.5)))
    a = a / (2.0**squarings)

    b = _PADE13
    eye = np.eye(a.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        r = r @ r
    return r


# ---------------------------------------------------------------------------
# Augmented system and double-precision evaluation.
# ---------------------------------------------------------------------------

ExactMatrix = list[list[Fraction]]
_ZERO = Fraction(0)


def _augmented_csr(ms: MomentSystem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """[[A, c], [0, 0]] in double precision as CSR (data, columns, row pointers)."""
    n = ms.dimension
    entries = [list(row) + ([(n, c)] if c else []) for row, c in zip(ms.rows, ms.vector_c)]
    data = np.array([float(v) for row in entries for _, v in row])
    cols = np.array([j for row in entries for j, _ in row], dtype=np.int64)
    return data, cols, np.cumsum([0] + [len(row) for row in entries] + [0])


def _dense(data: np.ndarray, cols: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """The square matrix of CSR arrays, dense."""
    aug = np.zeros((len(indptr) - 1, len(indptr) - 1))
    aug[np.repeat(np.arange(len(indptr) - 1), np.diff(indptr)), cols] = data
    return aug


def augmented_state0(ms: MomentSystem) -> list[Fraction]:
    return list(ms.m0) + [Fraction(1)]


# Fixed cost of one sparse product (Python and call overhead) in nonzeros,
# calibrated on gene, vehicles and ou-env closures of dim 300-700.
_SPARSE_OVERHEAD = 4e5


def _sparse_is_cheaper(size: int, nnz: int, norm: float, gaps: Sequence[float]) -> bool:
    """Whether expm_multiply stepping is estimated to cost less than dense
    Pade 13 over these nonzero gaps.  Dense: (squarings + 8) * size^3 per
    distinct gap.  Sparse: about 6 * ||aug * gap||_1 + 20 products per gap
    (Al-Mohy & Higham 2011, section 3), each nnz plus a fixed overhead.
    Ties, and no step at all, keep the dense route."""
    dense = sum((np.ceil(np.log2(max(norm * gap, 0.5) / 0.5)) + 8) * size**3 for gap in set(gaps))
    sparse = sum((6 * norm * gap + 20) * (nnz + _SPARSE_OVERHEAD) for gap in gaps)
    return sparse < dense


def eval_numeric(ms: MomentSystem, times: Sequence[float]) -> np.ndarray:
    """m(t) for each t, shape (len(times), dimension); row components follow
    ms.indices.  The augmented state is carried forward through the sorted
    times; a zero gap leaves it as it is, so a t = 0 row is m0 exactly and a
    repeated time repeats its row.  One route per call, by estimated work
    (_sparse_is_cheaper): one dense expm(aug * gap) per distinct gap and a
    matrix-vector step, or scipy's expm_multiply on aug in CSR form, never
    densified, with scipy imported only then.  Raises OdeSolveError when the
    state overflows."""
    times = list(times)
    if any(t < 0 for t in times):
        raise ValueError("times must be non-negative")
    if sorted(times) != times:
        raise ValueError("times must be sorted ascending")
    n = ms.dimension
    data, cols, indptr = _augmented_csr(ms)
    norm = float(np.bincount(cols, np.abs(data), n + 1).max())  # ||aug||_1
    gaps = [t - s for s, t in zip([0.0] + times, times) if t != s]
    sparse = _sparse_is_cheaper(n + 1, len(data), norm, gaps)
    if sparse:
        from scipy.sparse import csr_array
        from scipy.sparse.linalg import expm_multiply

        aug = csr_array((data, cols, indptr), shape=(n + 1, n + 1))
    else:
        aug = _dense(data, cols, indptr)
    state = np.array([float(v) for v in augmented_state0(ms)])
    out = np.empty((len(times), n))
    previous, step_gap, step = 0.0, None, None
    # Overflow shows up as a non-finite state, reported below.
    with np.errstate(over="ignore", invalid="ignore"):
        for row, t in enumerate(times):
            gap = t - previous
            previous = t
            if gap and sparse:
                state = expm_multiply(aug * gap, state)
            elif gap:
                if gap != step_gap:
                    step, step_gap = expm(aug * gap), gap
                state = step @ state
            if not np.isfinite(state).all():
                raise OdeSolveError(f"moment evaluation overflowed at t={t} (matrix norm {norm:.3g})")
            out[row] = state[:n]
    return out


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


def _divide(coeffs_asc: Sequence[int], root: int) -> tuple[int, list[int]]:
    """(p(root), q) with p(x) = (x - root) q(x) + p(root), by synthetic
    division in integers; so p'(root) = q(root)."""
    acc, desc = 0, []
    for c in reversed(coeffs_asc):
        acc = acc * root + c
        desc.append(acc)
    return desc.pop(), desc[::-1]


def _newton(coeffs_asc: Sequence[int], x: int) -> int:
    """x after the integer Newton steps x -= round(p(x) / p'(x)), taken for
    as long as |step| strictly shrinks."""
    last = None
    while True:
        value, quotient = _divide(coeffs_asc, x)
        slope = _divide(quotient, x)[0]
        step = round(Fraction(value, slope)) if slope else 0
        if not step or (last is not None and abs(step) >= abs(last)):
            return x
        x, last = x - step, step


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

        def sort_key(entry):
            lam = entry[0]
            if isinstance(lam, complex):
                return (-lam.real, -lam.imag)
            return (-lam, 0)

        cleaned.sort(key=sort_key)
        return ClosedForm(terms=tuple(cleaned), scalar_kind=scalar_kind)

    @staticmethod
    def constant(value: Scalar, scalar_kind: str = "exact-rational") -> "ClosedForm":
        return ClosedForm.build({Fraction(0) if scalar_kind == "exact-rational" else 0.0: [value]}, scalar_kind)

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

    def at_zero(self) -> Scalar:
        """Exact value at t = 0 (sum of degree-0 coefficients)."""
        total: Scalar = Fraction(0) if self.scalar_kind == "exact-rational" else 0.0
        for _, coeffs in self.terms:
            total = total + coeffs[0]
        return total

    def derivative(self) -> "ClosedForm":
        out: dict[Scalar, list[Scalar]] = {}
        for lam, coeffs in self.terms:
            deg = len(coeffs) - 1
            new = [Fraction(0) if self.scalar_kind == "exact-rational" else 0.0] * (deg + 1)
            for d in range(deg + 1):
                new[d] = lam * coeffs[d] + ((d + 1) * coeffs[d + 1] if d < deg else 0)
            out[lam] = new
        return ClosedForm.build(out, self.scalar_kind)

    def scale(self, factor: Scalar) -> "ClosedForm":
        if factor == 0:
            return ClosedForm(terms=(), scalar_kind=self.scalar_kind)
        return ClosedForm.build(
            {lam: [factor * c for c in coeffs] for lam, coeffs in self.terms},
            self.scalar_kind,
        )

    def __add__(self, other: "ClosedForm") -> "ClosedForm":
        if not isinstance(other, ClosedForm):
            return NotImplemented
        if self.scalar_kind != other.scalar_kind:
            raise ValueError(f"cannot add a {self.scalar_kind} form to a {other.scalar_kind} form")
        merged: dict[Scalar, list[Scalar]] = {}
        for lam, coeffs in self.terms + other.terms:
            acc = merged.setdefault(lam, [])
            for d, c in enumerate(coeffs):
                if d < len(acc):
                    acc[d] = acc[d] + c
                else:
                    acc.append(c)
        return ClosedForm.build(merged, self.scalar_kind)

    def __sub__(self, other: "ClosedForm") -> "ClosedForm":
        return self + other.scale(-1)

    def prune(self, rel_tol: float = 1e-12) -> "ClosedForm":
        """Drop coefficients negligible relative to the largest one (used to
        clear cancellation residue after float-kind sums)."""
        scale = max(
            (abs(complex(c)) for _, coeffs in self.terms for c in coeffs),
            default=0.0,
        )
        if not scale:
            return self
        zero: Scalar = Fraction(0) if self.scalar_kind == "exact-rational" else 0.0
        term_map = {
            lam: [zero if abs(complex(c)) <= rel_tol * scale else c for c in coeffs]
            for lam, coeffs in self.terms
        }
        return ClosedForm.build(term_map, self.scalar_kind)

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
        rendered = ""
        for i, (negative, body) in enumerate(pieces):
            if i == 0:
                rendered = f"-{body}" if negative else body
            else:
                rendered += f" - {body}" if negative else f" + {body}"
        simple = len(pieces) == 1 and not pieces[0][0]
        return rendered, simple

    def _format_exponent(self, lam: Scalar) -> str:
        if lam == 0:
            return ""
        if not isinstance(lam, complex) and lam == 1:
            return "exp(t)"
        if not isinstance(lam, complex) and lam == -1:
            return "exp(-t)"
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
            elif simple:
                chunks.append(f"{poly}*{exp}")
            else:
                chunks.append(f"({poly})*{exp}")
        return " + ".join(chunks)


# ---------------------------------------------------------------------------
# Exact closed-form solution.
# ---------------------------------------------------------------------------


# rate mu as its (numerator, denominator) pair -> (den, nums): the term
# (sum_d nums[d] t^d / den) e^{mu t}, int nums over one positive int den
Form = dict[tuple[int, int], tuple[int, list[int]]]


def _add_terms(acc: Form, weight: Fraction | int, terms) -> None:
    """acc += weight * terms, given as (mu, (den, nums)) pairs: per rate one
    lcm of the two denominators where they differ, then int multiply-adds."""
    wn, wd = weight.numerator, weight.denominator
    for mu, (den, nums) in terms:
        den *= wd
        entry = acc.get(mu)
        if entry is None:
            acc[mu] = (den, [wn * c for c in nums])
            continue
        acc_den, acc_nums = entry
        factor, rem = divmod(acc_den, den)
        if rem:  # to the lcm, acc_den * den / g
            g = math.gcd(den, rem)
            up, factor = den // g, acc_den // g
            acc_nums = [c * up for c in acc_nums]
            acc[mu] = (acc_den * up, acc_nums)
        factor *= wn
        acc_nums.extend([0] * (len(nums) - len(acc_nums)))
        for d, c in enumerate(nums):
            acc_nums[d] += factor * c


def _reduced(form: Form) -> Form:
    """Trailing zeros (popped in place) and zero terms dropped, each term over its content gcd."""
    out: Form = {}
    for mu, (den, nums) in form.items():
        while nums and not nums[-1]:
            nums.pop()
        if nums:
            g = math.gcd(den, *nums)
            out[mu] = (den // g, [c // g for c in nums]) if g > 1 else (den, nums)
    return out


def _closed_form(form: Form) -> ClosedForm:
    terms = {Fraction(*mu): [Fraction(c, den) for c in nums] for mu, (den, nums) in form.items()}
    return ClosedForm.build(terms, "exact-rational")


def _scalar_form(lam: Fraction, forcing: Form, start: Fraction) -> Form:
    """y' = lam y + sum_mu p_mu(t) e^{mu t}, y(0) = start, by variation of
    constants.  The particular part q_mu e^{mu t} solves
    (mu - lam) q_mu + q_mu' = p_mu, that is
    q_mu = sum_k (-1)^k p_mu^(k) / (mu - lam)^(k+1), and at resonance
    (mu = lam) q_mu = int_0^t p_mu, one degree higher.  Then
    y = sum_mu q_mu e^{mu t} + (start - sum_mu q_mu(0)) e^{lam t}.

    In integers, with p_mu = P / den of degree m and mu - lam = dn / dd,
    dn > 0: q_k = R_k / (den dn^(m-k+1)), R_k = dd (P_k dn^(m-k) - (k+1)
    R_{k+1}), over den dn^(m+1); at resonance den takes lcm(1..m+1)."""
    key = (lam.numerator, lam.denominator)
    terms: Form = {}
    free = [(key, (start.denominator, [start.numerator]))]
    for mu, (den, p) in forcing.items():
        m = len(p) - 1
        if mu == key:
            scale = math.lcm(*range(1, m + 2))
            terms[mu] = (den * scale, [0] + [c * (scale // (d + 1)) for d, c in enumerate(p)])
            continue
        dn = mu[0] * key[1] - key[0] * mu[1]
        dn, dd = abs(dn), mu[1] * key[1] if dn > 0 else -mu[1] * key[1]
        q, r = [0] * (m + 1), 0
        for k in range(m, -1, -1):
            r = dd * (p[k] * dn ** (m - k) - (k + 1) * r)
            q[k] = r * dn**k
        terms[mu] = (den * dn ** (m + 1), q)
        free.append((key, (den * dn ** (m + 1), [-r])))
    _add_terms(terms, 1, free)
    return _reduced(terms)


def _rational_spectrum(a: ExactMatrix) -> list[Fraction]:
    """The eigenvalues of a with multiplicity, descending.  With L the common
    denominator of a, B = L a has a monic integer characteristic polynomial
    g, whose rational roots are integers r: the eigenvalues r / L of a.
    Float hints locate them: the roots of g written in the unscaled
    variable (so the float coefficients cannot overflow), then the roots of
    each derivative of the factor still left (a root of multiplicity m is a
    simple root of the (m-1)-th).  Each hint is scaled by L, rounded,
    refined by integer Newton steps on the polynomial it came from, and
    kept while synthetic division leaves remainder zero.  Raises
    ClosedFormUnsupported when a factor with no rational root remains."""
    scale = math.lcm(*(x.denominator for row in a for x in row))
    g = [int(c * scale ** (len(a) - i)) for i, c in enumerate(characteristic_polynomial(a))]

    def unscaled(h: list[int]) -> list[Fraction]:  # h(L x) / L^deg h, monic
        return [Fraction(c, scale ** (len(h) - 1 - i)) for i, c in enumerate(h)]

    roots: list[int] = []
    order = 0
    while order < len(g) - 1:
        source = g
        for _ in range(order):
            source = [i * c for i, c in enumerate(source)][1:]
        for hint in np.roots(np.polyder([float(c) for c in reversed(unscaled(g))], order)):
            if not math.isfinite(hint.real):
                continue
            root = _newton(source, round(Fraction(hint.real) * scale))
            while len(g) > 1:
                remainder, quotient = _divide(g, root)
                if remainder:
                    break
                g = quotient
                roots.append(root)
        order += 1
    if len(g) > 1:
        raise ClosedFormUnsupported(
            f"the spectrum is not rational: an SCC block of size {len(a)} leaves a "
            f"characteristic factor of degree {len(g) - 1} with no rational root",
            remaining_factor=tuple(unscaled(g)),
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
    resonance its degree rises, so Jordan structure needs no special case."""
    k = len(a)
    if k == 1:
        return [_scalar_form(a[0][0], forcings[0], start[0])]
    if roots is None:
        roots = _rational_spectrum(a)
    lam = roots[0]
    p, r = _kernel_vector(a, lam)
    rest = [i for i in range(k) if i != p]
    sub_forcings: list[Form] = []
    for i in rest:
        forcing = forcings[i]
        if r[i] and forcings[p]:
            forcing = {mu: (den, nums[:]) for mu, (den, nums) in forcing.items()}
            _add_terms(forcing, -r[i], forcings[p].items())
        sub_forcings.append(forcing)
    ys = _block_forms(
        [[a[i][l] - r[i] * a[p][l] for l in rest] for i in rest],
        sub_forcings,
        [start[i] - r[i] * start[p] for i in rest],
        roots[1:],
    )
    forcing = {mu: (den, nums[:]) for mu, (den, nums) in forcings[p].items()}
    for l, y in zip(rest, ys):
        if a[p][l]:
            _add_terms(forcing, a[p][l], y.items())
    z = _scalar_form(lam, forcing, start[p])
    for i, y in zip(rest, ys):
        if r[i]:
            _add_terms(y, r[i], z.items())
    forms = [_reduced(y) for y in ys]
    forms.insert(p, z)
    return forms


def _solve_forms(ms: MomentSystem) -> list[Form]:
    """Every component of m(t).  Tarjan emits each strongly connected
    component of A's off-diagonal pattern after every component it reaches:
    their solved forms, with c, are the block's forcing."""
    deps = [[j for j, _ in row if j != i] for i, row in enumerate(ms.rows)]
    forms: list[Form] = [{}] * ms.dimension
    for block in _tarjan_sccs(ms.dimension, deps.__getitem__):
        local = {i: p for p, i in enumerate(block)}
        a = [[_ZERO] * len(block) for _ in block]
        forcings: list[Form] = []
        for p, i in enumerate(block):
            c = ms.vector_c[i]
            forcing: Form = {(0, 1): (c.denominator, [c.numerator])} if c else {}
            for j, coeff in ms.rows[i]:
                if j in local:
                    a[p][local[j]] = coeff
                else:
                    _add_terms(forcing, coeff, forms[j].items())
            forcings.append(forcing)
        for i, form in zip(block, _block_forms(a, forcings, [ms.m0[i] for i in block])):
            forms[i] = form
    return forms


def solve_closed_form_vector(ms: MomentSystem) -> list[ClosedForm]:
    """Exact ClosedForm for every component of m(t); see solve_closed_form."""
    return [_closed_form(form) for form in _solve_forms(ms)]


def solve_closed_form(ms: MomentSystem, component: int = 0) -> ClosedForm:
    """Exact closed form of one moment component (default: the target).

    The indices are solved one strongly connected component of A's
    off-diagonal pattern at a time, at any dimension: a 1x1 block by exact
    variation of constants, a larger block by removing its rational
    eigenvalues one at a time, each step a kernel vector, a rank-one update
    of the block and one scalar solve.  The eigenvalues are r / L for the
    integer roots r of the characteristic polynomial of L times the block,
    L its common denominator; no denominator is guessed.  Raises
    ClosedFormUnsupported, carrying the remaining characteristic factor,
    when a block's spectrum is not rational; the float-spectrum path is the
    fallback."""
    if not 0 <= component < ms.dimension:
        raise IndexError(f"component {component} out of range")
    return _closed_form(_solve_forms(ms)[component])


# ---------------------------------------------------------------------------
# Float-spectrum closed form (diagonalizable spectra only).
# ---------------------------------------------------------------------------

_EIGEN_GAP = 1e-8
_EIGEN_COND_CAP = 1e7
_COEFF_PRUNE = 1e-12


def _float_spectral_data(ms: MomentSystem) -> list[tuple[complex, np.ndarray]]:
    values, vectors = np.linalg.eig(_dense(*_augmented_csr(ms)))
    order = np.lexsort((values.imag, values.real))[::-1]
    values = values[order]
    vectors = vectors[:, order]
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
    v0 = np.array([float(v) for v in augmented_state0(ms)], dtype=complex)
    mix = np.linalg.solve(vectors, v0)
    return [(complex(values[i]), vectors[:, i] * mix[i]) for i in range(len(values))]


def _clean_float_scalar(value: complex) -> Scalar:
    if abs(value.imag) <= _COEFF_PRUNE * max(1.0, abs(value.real)):
        return value.real
    return value


def solve_closed_form_float(ms: MomentSystem, component: int = 0) -> ClosedForm:
    """Closed form from the numeric eigendecomposition (scalar_kind="float").

    Only spectra with pairwise-separated eigenvalues and a well-conditioned
    eigenvector basis are accepted; coefficients below 1e-12 of the largest
    are pruned."""
    if not 0 <= component < ms.dimension:
        raise IndexError(f"component {component} out of range")
    return _float_component_form(_float_spectral_data(ms), component)


def _float_component_form(data: list[tuple[complex, np.ndarray]], component: int) -> ClosedForm:
    coeffs = [vec[component] for _, vec in data]
    scale = max((abs(c) for c in coeffs), default=0.0)
    term_map: dict[Scalar, list[Scalar]] = {}
    for (lam, _), c in zip(data, coeffs):
        if scale and abs(c) <= _COEFF_PRUNE * scale:
            continue
        term_map[_clean_float_scalar(lam)] = [_clean_float_scalar(c)]
    return ClosedForm.build(term_map, "float")


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
        w = np.array([float(x) for x in self.weights])
        return vectors @ w + float(self.offset)

    def closed_form_exact(self) -> ClosedForm:
        acc: Form = {(0, 1): (self.offset.denominator, [self.offset.numerator])} if self.offset else {}
        for weight, part in zip(self.weights, _solve_forms(self.system)):
            if weight:
                _add_terms(acc, weight, part.items())
        return _closed_form(_reduced(acc))

    def closed_form_float(self) -> ClosedForm:
        acc = ClosedForm((), "float")
        if self.offset:
            acc = acc + ClosedForm.build({0.0: [float(self.offset)]}, "float")
        data = _float_spectral_data(self.system)
        for component, weight in enumerate(self.weights):
            if weight:
                acc = acc + _float_component_form(data, component).scale(float(weight))
        return acc.prune(_COEFF_PRUNE)


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
    weights = tuple(
        weight_of.get(mono, Fraction(0)) for mono in result.indices
    )
    return FunctionalMoment(system=result, weights=weights, offset=offset)


def markov_tail_bound(moment_value: float, threshold: float, power: int) -> float:
    """P(|Z| >= threshold) <= E[|Z|^power] / threshold^power; `moment_value`
    must be that even-power moment."""
    if not threshold > 0:  # NaN too
        raise ValueError("threshold must be positive")
    if not isinstance(power, int) or power <= 0 or power % 2:
        raise ValueError("power must be a positive even integer")
    if moment_value < 0:
        raise ValueError("an even-power moment cannot be negative")
    return moment_value / threshold**power

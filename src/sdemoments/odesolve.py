"""Solving the closed linear moment ODE dm/dt = A m + c.

The inhomogeneous system is embedded into the augmented homogeneous system

    d/dt [m; 1] = [[A, c], [0, 0]] [m; 1],

so one matrix exponential covers both parts.  Three evaluation routes:

  * eval_numeric      — double-precision expm (scaling-and-squaring, Pade 13)
                        at arbitrary times; always available.
  * solve_closed_form — exact symbolic solution, terms p(t) * exp(lambda t)
                        with Fraction data.  When every strongly connected
                        component of A's off-diagonal pattern is 1x1 (the
                        closure is triangular up to reordering, as pro-solvable
                        models give), each moment is solved by exact variation
                        of constants after the moments it depends on; the
                        spectrum is the diagonal, at any dimension.  Otherwise
                        a dense spectral fallback, capped at dimension
                        _EXACT_DIM_CAP: characteristic polynomial over
                        Fraction, rational roots with exact deflation,
                        generalized eigenspaces by exact nullspaces.
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
from fractions import Fraction
from functools import lru_cache
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

    For the exact path, `remaining_factor` carries the monic factor of the
    characteristic polynomial (ascending coefficients) left after removing
    all rational roots.
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


def augmented_matrix_exact(ms: MomentSystem) -> ExactMatrix:
    d = ms.dimension
    rows: ExactMatrix = []
    for r in range(d):
        rows.append(list(ms.matrix_a[r]) + [ms.vector_c[r]])
    rows.append([Fraction(0)] * (d + 1))
    return rows


def augmented_state0(ms: MomentSystem) -> list[Fraction]:
    return list(ms.m0) + [Fraction(1)]


def eval_numeric(ms: MomentSystem, times: Sequence[float]) -> np.ndarray:
    """m(t) for each t, shape (len(times), dimension); row components follow
    ms.indices.  Raises OdeSolveError when the exponential overflows."""
    times = list(times)
    if any(t < 0 for t in times):
        raise ValueError("times must be non-negative")
    if sorted(times) != times:
        raise ValueError("times must be sorted ascending")
    aug = np.array([[float(v) for v in row] for row in augmented_matrix_exact(ms)])
    v0 = np.array([float(v) for v in augmented_state0(ms)])
    out = np.empty((len(times), ms.dimension))
    for row, t in enumerate(times):
        state = expm(aug * t) @ v0
        if not np.isfinite(state).all():
            raise OdeSolveError(
                f"moment evaluation overflowed at t={t} (matrix norm {np.linalg.norm(aug, 1):.3g})"
            )
        out[row] = state[: ms.dimension]
    return out


# ---------------------------------------------------------------------------
# Exact rational linear algebra (small dense systems).
# ---------------------------------------------------------------------------


def _mat_mul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    k = len(a)
    cols = len(b[0])
    inner = len(b)
    out = [[Fraction(0)] * cols for _ in range(k)]
    for i in range(k):
        ai = a[i]
        oi = out[i]
        for l in range(inner):
            ail = ai[l]
            if ail:
                bl = b[l]
                for j in range(cols):
                    if bl[j]:
                        oi[j] += ail * bl[j]
    return out


def _mat_vec(a: ExactMatrix, v: list[Fraction]) -> list[Fraction]:
    return [sum((row[j] * v[j] for j in range(len(v)) if row[j]), Fraction(0)) for row in a]


def _shift_diag(a: ExactMatrix, lam: Fraction) -> ExactMatrix:
    out = [row[:] for row in a]
    for i in range(len(out)):
        out[i][i] -= lam
    return out


def characteristic_polynomial(matrix: ExactMatrix) -> list[Fraction]:
    """Monic characteristic polynomial det(lambda I - M), ascending
    coefficients (index = power of lambda), by the Faddeev-LeVerrier
    recursion — exact over Fractions."""
    k = len(matrix)
    coeffs_desc: list[Fraction] = [Fraction(1)]
    m_cur: ExactMatrix | None = None
    for i in range(1, k + 1):
        if m_cur is None:
            m_cur = [row[:] for row in matrix]
        else:
            shifted = [row[:] for row in m_cur]
            last = coeffs_desc[-1]
            for j in range(k):
                shifted[j][j] += last
            m_cur = _mat_mul(matrix, shifted)
        trace = sum((m_cur[j][j] for j in range(k)), Fraction(0))
        coeffs_desc.append(Fraction(-trace, i))
    return list(reversed(coeffs_desc))


def _poly_eval(coeffs_asc: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs_asc):
        acc = acc * x + c
    return acc


def _deflate(coeffs_asc: Sequence[Fraction], root: Fraction) -> list[Fraction]:
    """Exact synthetic division by (lambda - root); the remainder must vanish."""
    desc = list(reversed(coeffs_asc))
    quotient_desc: list[Fraction] = []
    acc = Fraction(0)
    for c in desc[:-1]:
        acc = acc * root + c
        quotient_desc.append(acc)
    remainder = acc * root + desc[-1]
    if remainder != 0:
        raise ValueError(f"{root} is not a root (remainder {remainder})")
    return list(reversed(quotient_desc))


def _rational_candidates(hints: Sequence[complex]) -> list[Fraction]:
    """Rational guesses near the numeric spectrum, most negative last so the
    extraction below peels candidates deterministically."""
    found: set[Fraction] = {Fraction(0)}
    for h in hints:
        if abs(h.imag) > 1e-6:
            continue
        r = float(h.real)
        found.add(Fraction(round(r)))
        for denominator in (1, 2, 3, 4, 6, 8, 12, 16, 100, 10**4, 10**6):
            found.add(Fraction(r).limit_denominator(denominator))
    return sorted(found, reverse=True)


def extract_rational_roots(
    coeffs_asc: Sequence[Fraction], hints: Sequence[complex]
) -> tuple[dict[Fraction, int], list[Fraction]]:
    """All rational roots (with multiplicity, found via numeric localization
    and verified exactly) and the remaining monic factor after deflation."""
    remaining = list(coeffs_asc)
    roots: dict[Fraction, int] = {}
    for cand in _rational_candidates(hints):
        while len(remaining) > 1 and _poly_eval(remaining, cand) == 0:
            remaining = _deflate(remaining, cand)
            roots[cand] = roots.get(cand, 0) + 1
    return roots, remaining


def _rref(matrix: ExactMatrix) -> tuple[ExactMatrix, list[int]]:
    m = [row[:] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def _nullspace(matrix: ExactMatrix) -> list[list[Fraction]]:
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    rref, pivots = _rref(matrix)
    free = [c for c in range(cols) if c not in pivots]
    basis: list[list[Fraction]] = []
    for f in free:
        vec = [Fraction(0)] * cols
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -rref[r][f]
        basis.append(vec)
    return basis


def _solve_square(a: ExactMatrix, b: list[Fraction]) -> list[Fraction]:
    k = len(a)
    m = [a[i][:] + [b[i]] for i in range(k)]
    for col in range(k):
        pivot_row = next((i for i in range(col, k) if m[i][col]), None)
        if pivot_row is None:
            raise ValueError("singular matrix")
        m[col], m[pivot_row] = m[pivot_row], m[col]
        inv = Fraction(1) / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for i in range(k):
            if i != col and m[i][col]:
                factor = m[i][col]
                m[i] = [u - factor * v for u, v in zip(m[i], m[col])]
    return [m[i][k] for i in range(k)]


# ---------------------------------------------------------------------------
# Closed forms.
# ---------------------------------------------------------------------------


def _is_zero_scalar(v: Scalar) -> bool:
    return v == 0


def _format_rational(v: Fraction) -> str:
    return str(v)


def _format_float_scalar(v: Scalar) -> str:
    if isinstance(v, complex):
        return f"({v.real:.12g}{v.imag:+.12g}j)"
    return f"{float(v):.12g}"


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
            while trimmed and _is_zero_scalar(trimmed[-1]):
                trimmed.pop()
            if trimmed:
                cleaned.append((lam, tuple(trimmed)))

        def sort_key(entry):
            lam = entry[0]
            if isinstance(lam, complex):
                return (-lam.real, -lam.imag)
            return (-float(lam), 0.0)

        cleaned.sort(key=sort_key)
        return ClosedForm(terms=tuple(cleaned), scalar_kind=scalar_kind)

    @staticmethod
    def constant(value: Scalar, scalar_kind: str = "exact-rational") -> "ClosedForm":
        return ClosedForm.build({Fraction(0) if scalar_kind == "exact-rational" else 0.0: [value]}, scalar_kind)

    def evaluate(self, t: float) -> float:
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
        if _is_zero_scalar(factor):
            return ClosedForm(terms=(), scalar_kind=self.scalar_kind)
        return ClosedForm.build(
            {lam: [factor * c for c in coeffs] for lam, coeffs in self.terms},
            self.scalar_kind,
        )

    def __add__(self, other: "ClosedForm") -> "ClosedForm":
        if not isinstance(other, ClosedForm):
            return NotImplemented
        kind = (
            "exact-rational"
            if self.scalar_kind == other.scalar_kind == "exact-rational"
            else "float"
        )

        def coerce(terms):
            if kind == "float":
                return [
                    (complex(lam) if isinstance(lam, complex) else float(lam),
                     [complex(c) if isinstance(c, complex) else float(c) for c in coeffs])
                    for lam, coeffs in terms
                ]
            return [(lam, list(coeffs)) for lam, coeffs in terms]

        merged: dict[Scalar, list[Scalar]] = {}
        for lam, coeffs in coerce(self.terms) + coerce(other.terms):
            if lam in merged:
                acc = merged[lam]
                for d, c in enumerate(coeffs):
                    if d < len(acc):
                        acc[d] = acc[d] + c
                    else:
                        acc.append(c)
            else:
                merged[lam] = list(coeffs)
        return ClosedForm.build(merged, kind)

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

    # -- text / JSON ---------------------------------------------------------

    def _format_scalar(self, v: Scalar) -> str:
        if self.scalar_kind == "exact-rational":
            return _format_rational(v)
        return _format_float_scalar(v)

    def _format_poly(self, coeffs: tuple[Scalar, ...]) -> tuple[str, bool]:
        """Render the t-polynomial; second value says whether it is a single
        non-negative monomial (safe to print without parentheses)."""
        pieces: list[tuple[bool, str]] = []  # (negative, body without sign)
        for d, c in enumerate(coeffs):
            if _is_zero_scalar(c):
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
        if _is_zero_scalar(lam):
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

    def to_json_dict(self) -> dict:
        def scalar_json(v: Scalar):
            if isinstance(v, Fraction):
                return str(v)
            if isinstance(v, complex):
                return {"re": v.real, "im": v.imag}
            return float(v)

        return {
            "kind": self.scalar_kind,
            "terms": [
                {"lambda": scalar_json(lam), "coeffs": [scalar_json(c) for c in coeffs]}
                for lam, coeffs in self.terms
            ],
        }


# ---------------------------------------------------------------------------
# Exact closed-form solution.
# ---------------------------------------------------------------------------


# The dense spectral path is quartic in the dimension; past this size a
# closure that is not triangular goes to the float spectrum.
_EXACT_DIM_CAP = 40


@lru_cache(maxsize=16)
def _exact_spectral_data(
    ms: MomentSystem,
) -> tuple[tuple[Fraction, tuple[tuple[Fraction, ...], ...]], ...]:
    """Per rational eigenvalue lambda: vectors w_j = N^j v_lambda / j!, where
    v_lambda is the generalized-eigenspace component of [m(0); 1] and
    N = (aug - lambda I).  Raises ClosedFormUnsupported for irrational
    spectra, carrying the undeflatable characteristic factor."""
    aug = augmented_matrix_exact(ms)
    size = len(aug)
    char = characteristic_polynomial(aug)
    hints = np.linalg.eigvals(np.array([[float(v) for v in row] for row in aug]))
    roots, remaining = extract_rational_roots(char, list(hints))
    if len(remaining) > 1:
        raise ClosedFormUnsupported(
            "the spectrum is not rational; an irreducible factor of degree "
            f"{len(remaining) - 1} remains",
            remaining_factor=tuple(remaining),
        )

    v0 = augmented_state0(ms)
    ordered = sorted(roots, reverse=True)
    bases: dict[Fraction, list[list[Fraction]]] = {}
    columns: list[list[Fraction]] = []
    for lam in ordered:
        mult = roots[lam]
        shifted = _shift_diag(aug, lam)
        power = shifted
        for _ in range(mult - 1):
            power = _mat_mul(power, shifted)
        basis = _nullspace(power)
        if len(basis) != mult:
            raise OdeSolveError(
                f"generalized eigenspace for {lam} has dimension {len(basis)}, expected {mult}"
            )
        bases[lam] = basis
        columns.extend(basis)

    matrix_b = [[columns[j][i] for j in range(size)] for i in range(size)]
    mix = _solve_square(matrix_b, v0)

    data = []
    offset = 0
    for lam in ordered:
        mult = roots[lam]
        span = bases[lam]
        v_lam = [Fraction(0)] * size
        for j in range(mult):
            factor = mix[offset + j]
            if factor:
                for i in range(size):
                    v_lam[i] += factor * span[j][i]
        offset += mult
        if not any(v_lam):
            continue
        shifted = _shift_diag(aug, lam)
        vectors = [tuple(v_lam)]
        w = v_lam
        for j in range(1, mult):
            w = [value / j for value in _mat_vec(shifted, w)]
            if not any(w):
                break
            vectors.append(tuple(w))
        data.append((lam, tuple(vectors)))
    return tuple(data)


def _dense_forms(ms: MomentSystem) -> list[ClosedForm]:
    """Exact ClosedForm of every component from the dense spectral data."""
    data = _exact_spectral_data(ms)
    return [
        ClosedForm.build(
            {lam: [vec[component] for vec in vectors] for lam, vectors in data},
            "exact-rational",
        )
        for component in range(ms.dimension)
    ]


def _triangular_forms(ms: MomentSystem) -> list[ClosedForm] | None:
    """Exact ClosedForm of every component by variation of constants, one
    index at a time, or None when A's off-diagonal pattern has a cycle.

    Tarjan emits each strongly connected component after every component it
    reaches, so when all are 1x1 each index i comes after the indices it
    depends on.  With lambda = A[i][i], its forcing
    c_i + sum_{j != i} A[i][j] m_j(t) is a sum of p_mu(t) e^{mu t} terms of
    solved indices.  The particular part q_mu e^{mu t} solves
    (mu - lambda) q_mu + q_mu' = p_mu, that is
    q_mu = sum_k (-1)^k p_mu^(k) / (mu - lambda)^(k+1), and at resonance
    (mu = lambda) q_mu = int_0^t p_mu, one degree higher.  Then
    m_i = sum_mu q_mu e^{mu t} + (m0_i - sum_mu q_mu(0)) e^{lambda t}.
    """
    deps = [
        [j for j, v in enumerate(row) if v and j != i]
        for i, row in enumerate(ms.matrix_a)
    ]
    blocks = _tarjan_sccs(ms.dimension, deps.__getitem__)
    if any(len(block) > 1 for block in blocks):
        return None
    zero = Fraction(0)
    forms: list[ClosedForm] = [ClosedForm((), "exact-rational")] * ms.dimension
    for (i,) in blocks:
        row = ms.matrix_a[i]
        lam = row[i]
        forcing: dict[Fraction, list[Fraction]] = {}
        if ms.vector_c[i]:
            forcing[zero] = [ms.vector_c[i]]
        for j in deps[i]:
            a = row[j]
            for mu, coeffs in forms[j].terms:
                acc = forcing.setdefault(mu, [])
                acc.extend([zero] * (len(coeffs) - len(acc)))
                for d, c in enumerate(coeffs):
                    acc[d] += a * c
        terms: dict[Fraction, list[Fraction]] = {}
        free = ms.m0[i]
        for mu, p in forcing.items():
            if mu == lam:
                q = [zero] + [c / (d + 1) for d, c in enumerate(p)]
            else:
                delta = mu - lam
                q = [zero] * len(p)
                carry = zero  # (k + 1) * q[k + 1]
                for k in range(len(p) - 1, -1, -1):
                    q[k] = (p[k] - carry) / delta
                    carry = k * q[k]
                free -= q[0]
            terms[mu] = q
        terms.setdefault(lam, [zero])[0] += free
        forms[i] = ClosedForm.build(terms, "exact-rational")
    return forms


def solve_closed_form_vector(ms: MomentSystem) -> list[ClosedForm]:
    """Exact ClosedForm for every component of m(t); see solve_closed_form."""
    forms = _triangular_forms(ms)
    if forms is not None:
        return forms
    if ms.dimension > _EXACT_DIM_CAP:
        raise ClosedFormUnsupported(
            "the closure is not triangular (its dependency graph has a cycle) "
            f"and its dimension {ms.dimension} exceeds the dense exact-spectrum "
            f"cap ({_EXACT_DIM_CAP})"
        )
    return _dense_forms(ms)


def solve_closed_form(ms: MomentSystem, component: int = 0) -> ClosedForm:
    """Exact closed form of one moment component (default: the target).

    Triangular closures (every strongly connected component of A's
    off-diagonal pattern 1x1) are solved at any dimension.  Otherwise the
    dense spectral path needs dimension <= _EXACT_DIM_CAP and a rational
    augmented spectrum; it raises ClosedFormUnsupported, with the remaining
    characteristic factor for an irrational spectrum, and the float-spectrum
    path is the fallback."""
    if not 0 <= component < ms.dimension:
        raise IndexError(f"component {component} out of range")
    return solve_closed_form_vector(ms)[component]


# ---------------------------------------------------------------------------
# Float-spectrum closed form (diagonalizable spectra only).
# ---------------------------------------------------------------------------

_EIGEN_GAP = 1e-8
_EIGEN_COND_CAP = 1e7
_COEFF_PRUNE = 1e-12


def _float_spectral_data(ms: MomentSystem) -> list[tuple[complex, np.ndarray]]:
    aug = np.array([[float(v) for v in row] for row in augmented_matrix_exact(ms)])
    values, vectors = np.linalg.eig(aug)
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
    data = _float_spectral_data(ms)
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
        parts = solve_closed_form_vector(self.system)
        acc = ClosedForm.constant(self.offset) if self.offset else ClosedForm(terms=(), scalar_kind="exact-rational")
        for weight, part in zip(self.weights, parts):
            if weight:
                acc = acc + part.scale(weight)
        return acc

    def closed_form_float(self) -> ClosedForm:
        acc = ClosedForm((), "float")
        if self.offset:
            acc = acc + ClosedForm.build({0.0: [float(self.offset)]}, "float")
        for component, weight in enumerate(self.weights):
            if weight:
                part = solve_closed_form_float(self.system, component)
                acc = acc + part.scale(float(weight))
        return acc.prune(_COEFF_PRUNE)


def best_closed_form(fm: FunctionalMoment) -> tuple[ClosedForm | None, str, str | None]:
    """The closed-form policy: exact, else float spectrum, else none.

    Returns (form, kind, note); kind is "exact-rational", "float-spectrum" or
    "numeric-only" (form None), and the note says why the exact (and float)
    path was unavailable."""
    try:
        return fm.closed_form_exact(), "exact-rational", None
    except (ClosedFormUnsupported, OdeSolveError) as exc:
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
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    if not isinstance(power, int) or power <= 0 or power % 2:
        raise ValueError("power must be a positive even integer")
    if moment_value < 0:
        raise ValueError("an even-power moment cannot be negative")
    return moment_value / threshold**power

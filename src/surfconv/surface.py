"""Coefficient matrices, quadratic graph surfaces, and exact row-submatrix tools.

A k x l matrix C with rational entries c_i^j defines

* bilinear forms      L_j(x, y) = sum_i c_i^j x_i y_i,
* quadratic heights   Phi_j(y)  = L_j(y, y),
* the graph surface   {(y; Phi_1(y), ..., Phi_l(y)) : y in B(0, 1)} in R^(k+l).

The nondegeneracy condition on C ("every l x l row submatrix is nonsingular")
controls everything downstream, so the submatrix determinants, the
comparability constant, and the curvature invariant are all computed in exact
rational arithmetic, with det_fraction the one elimination.  min_submatrix_det
is the one refusal of a matrix that fails the condition.  Floats only enter
through the vectorized evaluators.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .rationals import frac_to_pair, pair_to_frac


class SingularSubmatrixError(ValueError):
    """Raised when an operation requires the row-submatrix condition to hold."""


class RowSelectionError(RuntimeError):
    """Raised when fewer than k - l rows pass the comparability test.

    With the exact comparability constant this cannot happen; seeing it means
    the constant passed in was too small for the matrix at hand.
    """


# ---------------------------------------------------------------------------
# exact linear algebra on Fractions


def det_fraction(rows) -> Fraction:
    """Exact determinant of a square matrix of Fractions."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant requires a square matrix")
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] == 0:
                continue
            factor = a[r][col] * inv
            for c in range(col, n):
                a[r][c] -= factor * a[col][c]
    return det


# ---------------------------------------------------------------------------
# the coefficient matrix


@dataclass(frozen=True)
class CoefficientMatrix:
    """A k x l rational matrix defining a quadratic graph surface."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(Fraction(x) for x in row) for row in self.entries)
        if not rows:
            raise ValueError("coefficient matrix needs at least one row")
        l = len(rows[0])
        if l < 1 or any(len(r) != l for r in rows):
            raise ValueError("coefficient matrix rows must share a positive length")
        if l > len(rows):
            raise ValueError(
                f"codimension l={l} cannot exceed surface dimension k={len(rows)}"
            )
        object.__setattr__(self, "entries", rows)

    @property
    def k(self) -> int:
        return len(self.entries)

    @property
    def l(self) -> int:
        return len(self.entries[0])

    @property
    def d(self) -> int:
        return self.k + self.l

    @cached_property
    def array(self) -> np.ndarray:
        """Float view, shape (k, l); read-only."""
        arr = np.array([[float(x) for x in row] for row in self.entries])
        arr.setflags(write=False)
        return arr

    @classmethod
    def from_rows(cls, rows) -> "CoefficientMatrix":
        return cls(tuple(tuple(Fraction(x) for x in row) for row in rows))

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "l": self.l,
            "entries": [frac_to_pair(x) for row in self.entries for x in row],
        }

    @classmethod
    def from_json(cls, obj) -> "CoefficientMatrix":
        k, l = int(obj["k"]), int(obj["l"])
        flat = [pair_to_frac(p) for p in obj["entries"]]
        if len(flat) != k * l:
            raise ValueError(f"expected {k * l} entries for a {k}x{l} matrix, got {len(flat)}")
        rows = tuple(tuple(flat[i * l : (i + 1) * l]) for i in range(k))
        return cls(rows)

    def content_hash(self) -> str:
        """Short stable identifier derived from the exact entries."""
        blob = json.dumps(self.to_json(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:10]

    def row_submatrix(self, rows: tuple[int, ...]) -> list[list[Fraction]]:
        return [list(self.entries[i]) for i in rows]


@dataclass(frozen=True)
class SubmatrixReport:
    """Outcome of the all-row-submatrices nondegeneracy check."""

    holds: bool
    min_abs_det: Fraction
    witness_rows: tuple[int, ...] | None  # 0-based rows of a singular submatrix

    def to_json(self) -> dict:
        return {
            "holds": self.holds,
            "min_abs_det": frac_to_pair(self.min_abs_det),
            "witness_rows": None
            if self.witness_rows is None
            else [i + 1 for i in self.witness_rows],
        }


@lru_cache(maxsize=64)
def check_submatrices(matrix: CoefficientMatrix) -> SubmatrixReport:
    """Exactly test that every l x l row submatrix of C is nonsingular.

    Returns the minimum |det| over all row choices and, on failure, the
    lexicographically first singular row set.  Cached for the 64 latest
    matrices, so every call with an equal matrix returns the same frozen
    report, and the up to 10 000 rejections of generate_matrix do not pile up.
    """
    best: Fraction | None = None
    for rows in itertools.combinations(range(matrix.k), matrix.l):
        d = abs(det_fraction(matrix.row_submatrix(rows)))
        if d == 0:
            return SubmatrixReport(holds=False, min_abs_det=Fraction(0), witness_rows=rows)
        if best is None or d < best:
            best = d
    return SubmatrixReport(holds=True, min_abs_det=best, witness_rows=None)


def min_submatrix_det(matrix: CoefficientMatrix) -> Fraction:
    """The scale c(C) = min |det| over l x l row submatrices.

    This is the one refusal for the paper's hypothesis: every estimator that
    needs the row-submatrix condition calls it, and a matrix that fails the
    condition raises SingularSubmatrixError naming the witness rows 1-based.
    """
    report = check_submatrices(matrix)
    if not report.holds:
        raise SingularSubmatrixError(
            "the row-submatrix condition must hold: witness rows "
            f"{[i + 1 for i in report.witness_rows]} (1-based) form a singular submatrix"
        )
    return report.min_abs_det


def check_source(matrix: CoefficientMatrix, dim: int) -> None:
    """The one refusal of an estimator's matrix and source: the row-submatrix
    condition (min_submatrix_det), then a source function (f, or the weight
    w) on R^k."""
    min_submatrix_det(matrix)
    if dim != matrix.k:
        raise ValueError(f"f must live on R^k: its dimension is {dim}, k = {matrix.k}")


# ---------------------------------------------------------------------------
# surface evaluators (vectorized, float)


def surface_heights(matrix: CoefficientMatrix, y) -> np.ndarray:
    """Heights Phi_j(y) = sum_i c_i^j y_i^2; broadcasts over leading axes."""
    y = np.asarray(y, dtype=float)
    return (y * y) @ matrix.array


def bilinear_forms(matrix: CoefficientMatrix, x, y) -> np.ndarray:
    """All l values L_j(x, y) = sum_i c_i^j x_i y_i; broadcasts."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return (x * y) @ matrix.array


def adjoint_image(matrix: CoefficientMatrix, y, zeta) -> np.ndarray:
    """The k-vector y * (C zeta), the adjoint of x -> (L_j(x, y))_j at zeta."""
    y = np.asarray(y, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    return y * (zeta @ matrix.array.T)


def row_images(matrix: CoefficientMatrix, zeta) -> np.ndarray:
    """The k-vector C zeta (adjoint image at y = all-ones); broadcasts."""
    zeta = np.asarray(zeta, dtype=float)
    return zeta @ matrix.array.T


# ---------------------------------------------------------------------------
# comparability constant and row selection


@lru_cache(maxsize=64)
def comparability_constant(matrix: CoefficientMatrix) -> float:
    """Least M with |zeta|_2 <= M * max_{i in P} |(C zeta)_i| for all zeta, P.

    For each l-row submatrix C_P the tight constant is the (inf -> 2) operator
    norm of C_P^{-1}; the maximum of |C_P^{-1} s|_2 over the cube |s|_inf <= 1
    is attained at a sign vector, so the square of the answer is an exact
    rational maximized over sign patterns.  Each coordinate of C_P^{-1} s is
    det(C_P with column i replaced by s) / det(C_P) (Cramer's rule), so
    det_fraction is the only elimination.  The float conversion at the end
    is within a few ulp of M; the square is scaled by a power
    of 4 first, so a square beyond the float range still gives M, and an M
    that is not a normal float raises ValueError.  Requires the row-submatrix
    condition (see min_submatrix_det).  Cached as check_submatrices is.
    """
    min_submatrix_det(matrix)
    best_sq = Fraction(0)
    l = matrix.l
    for rows in itertools.combinations(range(matrix.k), l):
        sub = matrix.row_submatrix(rows)
        det_sq = det_fraction(sub) ** 2
        for signs in itertools.product((1, -1), repeat=l - 1):
            s = (1,) + signs
            val = sum(
                det_fraction([row[:i] + [s_r] + row[i + 1 :] for row, s_r in zip(sub, s)]) ** 2
                for i in range(l)
            ) / det_sq
            if val > best_sq:
                best_sq = val
    # M^2 / 4^e lies in [1/2, 4); the power-of-2 scalings are exact on normal floats
    e = (best_sq.numerator.bit_length() - best_sq.denominator.bit_length()) // 2
    try:
        m = math.ldexp(math.sqrt(float(best_sq / Fraction(4) ** e)), e)
    except OverflowError:
        m = math.inf
    if not sys.float_info.min <= m < math.inf:
        raise ValueError(f"the comparability constant M ~ 2^{e} is not a normal float")
    return m


def comparable_rows(
    matrix: CoefficientMatrix, zetas: np.ndarray, constant: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The row-selection rule for each zeta of a batch zetas (N, l).

    Returns |zeta| (N,), |C zeta| (N, k), the mask (N, k) of the rows with
    |zeta| <= M |(C zeta)_i|, and the mask (N, k) of the selected rows: the
    first k - l comparable rows in increasing index order.  A relative slack
    of 1e-12 absorbs the float rounding of the exact constant M.
    """
    norms = np.linalg.norm(zetas, axis=1)
    images = np.abs(zetas @ matrix.array.T)
    comparable = norms[:, None] <= constant * (1.0 + 1e-12) * images
    selected = comparable & (np.cumsum(comparable, axis=1) <= matrix.k - matrix.l)
    return norms, images, comparable, selected


def select_comparable_rows(
    matrix: CoefficientMatrix, zeta, constant: float | None = None
) -> tuple[int, ...]:
    """The lexicographically least set Q of k - l rows with |zeta| <= M |(C zeta)_i|.

    For every nonzero zeta at least k - l rows satisfy the comparability
    inequality with the exact constant, so the first k - l satisfying rows
    (see comparable_rows) always exist.
    """
    zeta = np.asarray(zeta, dtype=float)
    if zeta.ndim != 1 or zeta.shape[0] != matrix.l:
        raise ValueError(f"zeta must be a vector of length {matrix.l}")
    if constant is None:
        constant = comparability_constant(matrix)
    norms, _, _, selected = comparable_rows(matrix, zeta[None, :], constant)
    if norms[0] == 0.0:
        raise ValueError("row selection is undefined at zeta = 0")
    picked = np.flatnonzero(selected[0])
    if picked.size < matrix.k - matrix.l:
        raise RowSelectionError(
            f"only {picked.size} rows comparable, need {matrix.k - matrix.l}; "
            "the constant passed in is too small for this matrix"
        )
    return tuple(int(i) for i in picked)


# ---------------------------------------------------------------------------
# the change-of-variables Jacobian


def _check_partition(matrix: CoefficientMatrix, partition) -> tuple[int, ...]:
    part = tuple(int(i) for i in partition)
    if sorted(part) != list(range(matrix.k)):
        raise ValueError(f"partition {part} is not a permutation of 0..{matrix.k - 1}")
    tail = part[matrix.l :]
    if any(a >= b for a, b in zip(tail, tail[1:])):
        raise ValueError("the last k - l partition entries must be strictly increasing")
    return part


def jacobian_product(matrix: CoefficientMatrix, y, zeta, partition) -> float:
    """|det DF| for the map (zeta, y_Q) -> (y_i (C zeta)_i)_{i in partition}.

    The partition lists all k rows: the first l rows hold their y-coordinates
    fixed and contribute the submatrix determinant, the rest (the set Q,
    increasing) contribute their |(C zeta)_i| factors.  The derivative matrix
    is block triangular, giving the closed form

        prod_{a <= l} |y_{i_a}| * |det C_{i_1..i_l}| * prod_{a > l} |(C zeta)_{i_a}|.
    """
    part = _check_partition(matrix, partition)
    y = np.asarray(y, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    head, tail = part[: matrix.l], part[matrix.l :]
    det = abs(float(det_fraction(matrix.row_submatrix(head))))
    w = row_images(matrix, zeta)
    out = det
    for i in head:
        out *= abs(float(y[i]))
    for i in tail:
        out *= abs(float(w[i]))
    return out


def jacobian_fd(
    matrix: CoefficientMatrix, y, zeta, partition, step: float = 1e-5
) -> float:
    """|det DF| by central differences, for cross-checking jacobian_product.

    Inputs should keep all |y_i| and the tail values |(C zeta)_i| above ~1e-6;
    configurations near the singular locus trigger a conditioning warning but
    still return the (unreliable) value.
    """
    part = _check_partition(matrix, partition)
    k, l = matrix.k, matrix.l
    y0 = np.asarray(y, dtype=float).copy()
    z0 = np.asarray(zeta, dtype=float).copy()
    tail = part[l:]

    def forward(v: np.ndarray) -> np.ndarray:
        zz = v[:l]
        yy = y0.copy()
        yy[list(tail)] = v[l:]
        w = row_images(matrix, zz)
        return np.array([yy[i] * w[i] for i in part])

    v0 = np.concatenate([z0, y0[list(tail)]])
    jac = np.empty((k, k))
    for j in range(k):
        vp, vm = v0.copy(), v0.copy()
        vp[j] += step
        vm[j] -= step
        jac[:, j] = (forward(vp) - forward(vm)) / (2.0 * step)
    sign, logdet = np.linalg.slogdet(jac)
    if sign == 0.0:
        warnings.warn(
            "difference matrix is numerically singular; Jacobian value unreliable",
            RuntimeWarning,
            stacklevel=2,
        )
        return 0.0
    cond = np.linalg.cond(jac)
    if cond > 1e8:
        warnings.warn(
            f"difference matrix is ill conditioned (cond ~ {cond:.2e}); "
            "Jacobian value may be unreliable",
            RuntimeWarning,
            stacklevel=2,
        )
    return float(np.exp(logdet))


def jacobian_bound_constant(matrix: CoefficientMatrix) -> float:
    """The constant c(C) / M^(k-l) in the shell lower bound for the Jacobian."""
    c = float(min_submatrix_det(matrix))
    m = comparability_constant(matrix)
    return c / m ** (matrix.k - matrix.l)


@dataclass(frozen=True)
class JacobianBoundReport:
    """Monte Carlo audit of J >= c(C) M^-(k-l) |zeta|^(k-l) on the unit shell."""

    n_samples: int
    min_ratio: float
    n_violations: int
    worst: dict


def verify_jacobian_bound(
    matrix: CoefficientMatrix, *, n_samples: int, seed: int
) -> JacobianBoundReport:
    """Sample the unit dyadic shell and check the Jacobian lower bound.

    y is drawn with |y_i| uniform in [1, 2) and random signs, zeta is
    standard normal, Q comes from the row selection rule, and the head of the
    partition is the complement of Q.  Ratios are J / (c(C) M^-(k-l) |zeta|^(k-l)).
    """
    k, l = matrix.k, matrix.l
    m = comparability_constant(matrix)
    const = jacobian_bound_constant(matrix)
    dets: dict[int, float] = {}
    for rows in itertools.combinations(range(k), l):
        code = sum(1 << i for i in rows)
        dets[code] = abs(float(det_fraction(matrix.row_submatrix(rows))))

    rng = np.random.Generator(np.random.PCG64(seed))
    min_ratio = math.inf
    n_violations = 0
    worst: dict = {}
    chunk = 20_000
    done = 0
    bits = 1 << np.arange(k)
    while done < n_samples:
        n = min(chunk, n_samples - done)
        y = rng.uniform(1.0, 2.0, size=(n, k)) * rng.choice([-1.0, 1.0], size=(n, k))
        zeta = rng.standard_normal(size=(n, l))
        norms, w, _, sel = comparable_rows(matrix, zeta, m)
        head_code = ((~sel) @ bits).astype(int)
        det_of = np.vectorize(dets.__getitem__)(head_code)
        jac = np.where(sel, w, np.abs(y)).prod(axis=1) * det_of
        bound = const * norms ** (k - l)
        ratio = jac / bound
        n_violations += int(np.count_nonzero(ratio < 1.0))
        i = int(np.argmin(ratio))
        if ratio[i] < min_ratio:
            min_ratio = float(ratio[i])
            worst = {
                "y": y[i].tolist(),
                "zeta": zeta[i].tolist(),
                "rows": np.flatnonzero(sel[i]).tolist(),
                "ratio": float(ratio[i]),
            }
        done += n
    return JacobianBoundReport(
        n_samples=n_samples,
        min_ratio=min_ratio,
        n_violations=n_violations,
        worst=worst,
    )


# ---------------------------------------------------------------------------
# dyadic shells


def shell_measure(index) -> Fraction:
    """Lebesgue measure of the (two-sided) dyadic shell with the given index.

    Each coordinate ranges over two intervals of length 2^(n_i), so the
    measure is prod 2^(n_i + 1), exact as a rational.
    """
    total = sum(int(n) + 1 for n in index)
    return Fraction(2) ** total


def sample_shell(rng: np.random.Generator, index, size: int) -> np.ndarray:
    """Uniform samples from the two-sided dyadic shell with the given index."""
    index = tuple(int(n) for n in index)
    k = len(index)
    lo = np.array([2.0**n for n in index])
    mag = lo * rng.uniform(1.0, 2.0, size=(size, k))
    return mag * rng.choice([-1.0, 1.0], size=(size, k))


# ---------------------------------------------------------------------------
# curvature invariant for a pair of quadratic forms (k = 2 surfaces in R^4)


def pair_curvature_invariant(form_a, form_b) -> Fraction:
    """Exact curvature-type invariant of two quadratic forms on R^2.

    Each argument is a symmetric 2x2 rational matrix Q with form value
    y^T Q y, so second partials are phi_uv = 2 Q_uv.  With

        t1 = phi^a_11 phi^b_12 - phi^b_11 phi^a_12,
        t2 = phi^b_22 phi^a_12 - phi^b_12 phi^a_22,
        t3 = phi^a_11 phi^b_22 - phi^b_11 phi^a_22,

    the invariant is t1 * t2 - t3^2; it must not vanish for a nondegenerate
    2-surface in R^4.  For the diagonal pair coming from a 2x2 coefficient
    matrix it equals -16 det^2 of that matrix.
    """
    qa = [[Fraction(x) for x in row] for row in form_a]
    qb = [[Fraction(x) for x in row] for row in form_b]
    for q in (qa, qb):
        if len(q) != 2 or any(len(r) != 2 for r in q):
            raise ValueError("each quadratic form must be a 2x2 matrix")
        if q[0][1] != q[1][0]:
            raise ValueError("quadratic form matrix must be symmetric")
    a11, a12, a22 = 2 * qa[0][0], 2 * qa[0][1], 2 * qa[1][1]
    b11, b12, b22 = 2 * qb[0][0], 2 * qb[0][1], 2 * qb[1][1]
    t1 = a11 * b12 - b11 * a12
    t2 = b22 * a12 - b12 * a22
    t3 = a11 * b22 - b11 * a22
    return t1 * t2 - t3 * t3


def diagonal_forms(matrix: CoefficientMatrix) -> tuple[list, list]:
    """The two diagonal quadratic forms of a k=2, l=2 coefficient matrix."""
    if matrix.k != 2 or matrix.l != 2:
        raise ValueError("diagonal form extraction needs a 2x2 coefficient matrix")
    e = matrix.entries
    qa = [[e[0][0], Fraction(0)], [Fraction(0), e[1][0]]]
    qb = [[e[0][1], Fraction(0)], [Fraction(0), e[1][1]]]
    return qa, qb

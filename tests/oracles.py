"""Closed forms and quadrature rules that the tests compare the package against,
a per-chunk reference of the L^q estimator, and the warm allocation peak that
the memory tests bound.

None of these is read by a run, so they live with the tests.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np

from surfconv.convolution import NORM_CHUNKS, _support_tube
from surfconv.gaussians import GaussianSpec
from surfconv.parallel import seeded_mean
from surfconv.pullback import _polar_nodes, _zeta_radius
from surfconv.quadrature import gauss_legendre_interval
from surfconv.surface import CoefficientMatrix, surface_heights


def atom_points(mu) -> np.ndarray:
    """Every atom (y; heights(y)) of a SurfaceMeasure as an (N, d) array.

    The y are the grid's cell centers inside the open unit ball, in the
    order of a C-order scan of the grid.  A grid of more than 40 M cells
    is refused with MemoryError rather than materialized.
    """
    if mu.resolution**mu.k > 40_000_000:
        raise MemoryError("refusing to materialize this grid; use the index-query paths")
    centers = -1.0 + (np.arange(mu.resolution) + 0.5) * mu.spacing
    axes = np.meshgrid(*([centers] * mu.k), indexing="ij")
    ys = np.stack([a.ravel() for a in axes], axis=-1)
    ys = ys[(ys**2).sum(axis=1) < 1.0]
    return np.concatenate([ys, surface_heights(mu.matrix, ys)], axis=1)


def ball_lens_volume(radius: float, dist) -> np.ndarray:
    """m(B ∩ (B + t)) for a ball B of R^3 and a shift t of length dist: the
    two-ball lens pi (4 r + |t|) (2 r - |t|)^2 / 12, and 0 from |t| = 2 r on."""
    gap = np.clip(2.0 * radius - dist, 0.0, None)
    return math.pi / 12.0 * (4.0 * radius + dist) * gap**2


def l2_norm_sq(mu, ball) -> float:
    """||mu * chi_B||_2^2 for a ball B of R^3, exactly up to rounding: the pair
    sum over atoms a, b of w_a w_b m(B ∩ (B + a - b)), every weight the cell
    volume s^k.  It does not depend on where B sits."""
    if mu.d != 3 or ball.dim != 3:
        raise ValueError("the lens volume is the closed form for balls of R^3")
    atoms = atom_points(mu)
    total = 0.0
    for start in range(0, len(atoms), 128):
        dist = np.linalg.norm(atoms[start : start + 128, None, :] - atoms[None, :, :], axis=-1)
        total += ball_lens_volume(ball.radius, dist).sum()
    return total * mu.spacing ** (2 * mu.k)


def lq_norm_per_chunk(mu, test_set, q: float, *, seed: int, n_tube: int) -> tuple[float, float]:
    """(norm, stderr) of lq_norm_mc, computed with one kernel call and one power
    per seeded chunk: each chunk's tube samples go through convolve_many and
    ** q on their own, and seeded_mean lays the chunks side by side."""
    c, head_half, band = _support_tube(mu, test_set)
    k, l = mu.k, mu.l
    v_tube = float(np.prod(2.0 * head_half) * np.prod(2.0 * band))

    def chunk(rng, n):
        heads = c[:k] + rng.uniform(-1.0, 1.0, (n, k)) * head_half
        offs = rng.uniform(-1.0, 1.0, (n, l)) * band
        tails = c[k:] + surface_heights(mu.matrix, heads - c[:k]) + offs
        return mu.convolve_many(test_set, np.concatenate([heads, tails], axis=1)) ** q

    [(mean, var, n)] = seeded_mean(chunk, seed, n_tube, NORM_CHUNKS)
    total = v_tube * mean
    return total ** (1.0 / q), total ** (1.0 / q - 1.0) / q * math.sqrt(v_tube**2 * (var / n))


def warm_peak(fn):
    """The tracemalloc peak in bytes of a second call of fn, after a first call
    has filled the caches (Legendre rules, matrix checks); both must agree."""
    first = fn()
    tracemalloc.start()
    try:
        second = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == second
    return peak


def dilated(matrix: CoefficientMatrix, j: int) -> CoefficientMatrix:
    """2^-j C, exactly: the surface of C with every tail scaled by 2^-j."""
    scale = Fraction(2) ** -j
    return CoefficientMatrix.from_rows([[x * scale for x in row] for row in matrix.entries])


def box_rule(n: int, box) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss-Legendre with n nodes per axis over an axis box given as
    (dim, 2) bounds: nodes (n^dim, dim) and weights (n^dim,)."""
    axes = [gauss_legendre_interval(n, lo, hi) for lo, hi in np.asarray(box, dtype=float)]
    grids = np.meshgrid(*[x for x, _ in axes], indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=-1)
    weights = np.ones(1)
    for _, w in axes:
        weights = np.multiply.outer(weights, w).ravel()
    return nodes, weights


def sphere_area(dim: int) -> float:
    """Surface area of S^(dim-1): 2 pi^(dim/2) / Gamma(dim/2)."""
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


def _erf_diff(a: float, b: float) -> float:
    """erf(a) - erf(b), through erfc where both arguments lie on one side of 0,
    so a difference of two values near +-1 keeps its digits."""
    if a > 0 and b > 0:
        return math.erfc(b) - math.erfc(a)
    if a < 0 and b < 0:
        return math.erfc(-a) - math.erfc(-b)
    return math.erf(a) - math.erf(b)


def shell_axis_integral(v: float, m: float, sigma: float) -> float:
    """J(v): the integral of exp(-(y v - m)^2 / (2 sigma^2)) over 1 <= |y| < 2.

    With t = y v each side is an erf difference over [v, 2 v] or [-2 v, -v]:
    J(v) = sigma sqrt(pi/2) / v [erf((2v - m)/(sigma sqrt2)) - erf((v - m)/(sigma sqrt2))
    - erf((-2v - m)/(sigma sqrt2)) + erf((-v - m)/(sigma sqrt2))].  Below |v| = 1e-6 it
    is its limit J(0) = 2 exp(-m^2 / (2 sigma^2)): the two sides' O(v) terms cancel, so
    the limit is off by O(v^2), less than the quotient's rounding of order 1e-16 / |v|.
    """
    if abs(v) < 1e-6:
        return 2.0 * math.exp(-(m * m) / (2.0 * sigma * sigma))
    scale = sigma * math.sqrt(2.0)
    arg = lambda t: (t - m) / scale
    pos = _erf_diff(arg(2.0 * v), arg(v))
    neg = _erf_diff(arg(-v), arg(-2.0 * v))
    return sigma * math.sqrt(math.pi / 2.0) / v * (pos + neg)


def shell_lhs_exact(matrix: CoefficientMatrix, rho: float, w: GaussianSpec, cfg) -> float:
    """The shell-frequency side that _lhs_shell_integral estimates, with its y-integral
    in closed form on the estimator's own zeta rule (_polar_nodes at _zeta_radius):
    sum_b weight_b r_b^rho A prod_i J(v_bi), v_b = C zeta_b, A the amplitude of w.
    The shell {1 <= |y_i| < 2} is a product of its axes and w a product of its axis
    Gaussians, so the y-integral of w(y * v) is A prod_i J(v_i) (shell_axis_integral);
    only the Monte Carlo over y separates the estimate from this value."""
    nodes, weights, radii = _polar_nodes(rho, matrix.l, _zeta_radius(matrix, w), cfg)
    v = nodes @ matrix.array.T
    per_node = [math.prod(shell_axis_integral(x, m, s) for x, m, s in zip(row, w.mean, w.sigmas))
                for row in v.tolist()]
    return float(np.sum(weights * radii**rho * np.array(per_node))) * w.amplitude


def gaussian_linear_pair_integral(f: GaussianSpec, h: GaussianSpec, bmat) -> float:
    """Closed form for integral f(x) h(B x) dx with B an (h.dim x f.dim) matrix.

    Writing each factor as amp * exp(-(x - m)^T D (x - m) / 2) with diagonal
    D = diag(1/sigma^2), the product is a single Gaussian with precision
    A = D_f + B^T D_h B, so the integral is

        amp_f amp_h (2 pi)^(dim/2) det(A)^(-1/2) exp((b^T A^-1 b - c0) / 2)

    with b = D_f m_f + B^T D_h m_h and c0 = m_f^T D_f m_f + m_h^T D_h m_h.
    """
    b_arr = np.asarray(bmat, dtype=float)
    if b_arr.shape != (h.dim, f.dim):
        raise ValueError(f"linear map must have shape ({h.dim}, {f.dim})")
    d_f = np.diag([1.0 / s**2 for s in f.sigmas])
    d_h = np.diag([1.0 / s**2 for s in h.sigmas])
    m_f = np.asarray(f.mean)
    m_h = np.asarray(h.mean)
    a = d_f + b_arr.T @ d_h @ b_arr
    b = d_f @ m_f + b_arr.T @ (d_h @ m_h)
    c0 = m_f @ d_f @ m_f + m_h @ d_h @ m_h
    sign, logdet = np.linalg.slogdet(a)
    if sign <= 0:
        raise ValueError("degenerate precision matrix in closed-form integral")
    quad = b @ np.linalg.solve(a, b)
    log_val = (
        math.log(f.amplitude)
        + math.log(h.amplitude)
        + 0.5 * f.dim * math.log(2.0 * math.pi)
        - 0.5 * logdet
        + 0.5 * (quad - c0)
    )
    return math.exp(log_val)

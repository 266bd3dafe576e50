"""Closed forms and quadrature rules that the tests compare the package against.

None of these is read by a run, so they live with the tests.
"""

import math

import numpy as np

from surfconv.gaussians import GaussianSpec
from surfconv.quadrature import gauss_legendre_interval


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

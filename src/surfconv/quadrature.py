"""Deterministic quadrature rules: tensor Gauss-Legendre and polar products.

The polar product rules exist because most integrals in this package carry a
radial weight |x|^rho.  In Cartesian tensor form that weight has a kink (or a
singularity) at the origin and wrecks the convergence order; in polar form the
radial factor becomes r^(dim - 1 + rho), which is smooth for every exponent
used here, and the angular factor is smooth and periodic.
"""

from __future__ import annotations

import functools
import math

import numpy as np


@functools.lru_cache(maxsize=64)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule on [-1, 1], computed once per n and shared read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_legendre_interval(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights transplanted to [a, b]."""
    if n < 1:
        raise ValueError("need at least one node")
    x, w = _leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def tensor_rule(axes: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Tensor product of one-dimensional rules.

    axes is a list of (nodes, weights) pairs; returns nodes of shape (N, dim)
    and weights of shape (N,).
    """
    grids = np.meshgrid(*[a[0] for a in axes], indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=-1)
    weights = np.ones(1)
    for _, w in axes:
        weights = np.multiply.outer(weights, w).ravel()
    return nodes, weights


def box_rule(n: int, box) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss-Legendre over an axis-aligned box given as (dim, 2) bounds."""
    box = np.asarray(box, dtype=float)
    axes = [gauss_legendre_interval(n, lo, hi) for lo, hi in box]
    return tensor_rule(axes)


def sphere_rule(dim: int, n_polar: int = 32, n_azimuth: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature for the unit sphere S^(dim-1) in R^dim.

    dim = 1 is the two-point set {+1, -1} with unit weights.  dim = 2 is the
    periodic trapezoid rule (spectrally accurate).  dim = 3 uses the exact
    cylindrical area-preserving coordinates (Gauss-Legendre in z, trapezoid in
    azimuth).  Higher dimensions recurse through the polar angle with weight
    sin^(dim-2).
    """
    if dim < 1:
        raise ValueError("dimension must be positive")
    if dim == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if dim == 2:
        t = (np.arange(n_azimuth) + 0.5) * (2.0 * math.pi / n_azimuth)
        pts = np.stack([np.cos(t), np.sin(t)], axis=-1)
        return pts, np.full(n_azimuth, 2.0 * math.pi / n_azimuth)
    if dim == 3:
        z, wz = gauss_legendre_interval(n_polar, -1.0, 1.0)
        t = (np.arange(n_azimuth) + 0.5) * (2.0 * math.pi / n_azimuth)
        rho = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
        pts = np.stack(
            [
                np.outer(rho, np.cos(t)).ravel(),
                np.outer(rho, np.sin(t)).ravel(),
                np.repeat(z, n_azimuth),
            ],
            axis=-1,
        )
        w = np.outer(wz, np.full(n_azimuth, 2.0 * math.pi / n_azimuth)).ravel()
        return pts, w
    phi, wphi = gauss_legendre_interval(n_polar, 0.0, math.pi)
    sub_pts, sub_w = sphere_rule(dim - 1, n_polar, n_azimuth)
    wphi = wphi * np.sin(phi) ** (dim - 2)
    pts = np.concatenate(
        [
            np.repeat(np.cos(phi), len(sub_w))[:, None],
            np.repeat(np.sin(phi), len(sub_w))[:, None] * np.tile(sub_pts, (n_polar, 1)),
        ],
        axis=-1,
    )
    w = np.multiply.outer(wphi, sub_w).ravel()
    return pts, w


def sphere_area(dim: int) -> float:
    """Surface area of S^(dim-1): 2 pi^(dim/2) / Gamma(dim/2)."""
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


def ball_volume(dim: int, radius: float = 1.0) -> float:
    """Volume of the Euclidean ball of the given radius in R^dim."""
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0) * radius**dim


def polar_rule(
    dim: int,
    r_max: float,
    n_radial: int = 48,
    n_polar: int = 32,
    n_azimuth: int = 64,
    r_min: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Product rule for integral over {r_min <= |x| <= r_max} in R^dim.

    Returns nodes (N, dim) and weights (N,) approximating the plain Lebesgue
    integral; the r^(dim-1) Jacobian is folded into the weights.  All radial
    nodes are strictly positive, so radially singular integrands are safe to
    evaluate as long as r_min (or the weight's own zero at 0) controls them.
    """
    if not 0.0 <= r_min < r_max:
        raise ValueError("need 0 <= r_min < r_max")
    r, wr = gauss_legendre_interval(n_radial, r_min, r_max)
    theta, wtheta = sphere_rule(dim, n_polar, n_azimuth)
    nodes = r[:, None, None] * theta[None, :, :]
    weights = np.multiply.outer(wr * r ** (dim - 1), wtheta)
    return nodes.reshape(-1, dim), weights.ravel()

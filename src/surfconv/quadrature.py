"""Deterministic quadrature rules: Gauss-Legendre and the unit sphere.

The pullback module builds polar product rules from them, because most of
its integrals carry a radial weight |x|^rho.  In Cartesian tensor form that
weight has a kink (or a singularity) at the origin and wrecks the convergence
order; in polar form the radial factor becomes r^(dim - 1 + rho), which is
smooth for every exponent used here, and the angular factor is smooth and
periodic.
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


def sphere_rule(dim: int, n_polar: int, n_azimuth: int) -> tuple[np.ndarray, np.ndarray]:
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


def ball_volume(dim: int, radius: float = 1.0) -> float:
    """Volume of the Euclidean ball of the given radius in R^dim."""
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0) * radius**dim

"""Anisotropic Gaussian test functions with closed-form norms and transforms.

These are the reference inputs for every numerical cross-check: their L^p
norms, Fourier transforms, and integrals against each other under linear maps
are all available in closed form, which is what makes honest error reporting
possible downstream.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
_LOG_MIN_NORMAL = math.log(sys.float_info.min)  # exp below this is subnormal or 0


@dataclass(frozen=True)
class GaussianSpec:
    """amplitude * exp(-sum_i (x_i - mean_i)^2 / (2 sigma_i^2)) on R^dim."""

    dim: int
    amplitude: float
    mean: tuple[float, ...]
    sigmas: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "mean", tuple(float(m) for m in self.mean))
        object.__setattr__(self, "sigmas", tuple(float(s) for s in self.sigmas))
        if len(self.mean) != self.dim or len(self.sigmas) != self.dim:
            raise ValueError("mean and sigmas must have length dim")
        if self.amplitude <= 0:
            raise ValueError("amplitude must be positive")
        if any(s <= 0 for s in self.sigmas):
            raise ValueError("sigmas must be positive")

    @classmethod
    def unit_mass(cls, dim: int, mean=None, sigmas=None) -> "GaussianSpec":
        """A Gaussian normalized to integral one."""
        mean = tuple([0.0] * dim) if mean is None else tuple(mean)
        sigmas = tuple([1.0] * dim) if sigmas is None else tuple(sigmas)
        amp = 1.0 / math.prod(math.sqrt(TWO_PI) * s for s in sigmas)
        return cls(dim=dim, amplitude=amp, mean=mean, sigmas=sigmas)

    # -- pointwise -----------------------------------------------------------

    def evaluate(self, x) -> np.ndarray:
        """Values at points of shape (..., dim)."""
        x = np.asarray(x, dtype=float)
        z = (x - np.asarray(self.mean)) / np.asarray(self.sigmas)
        return self.amplitude * np.exp(-0.5 * np.sum(z * z, axis=-1))

    def product_side(self, v) -> np.ndarray:
        """The v-side matrix R of the block w(s_a * v_b): rows [-p v^2 / 2, p m v, c].

        With precisions p_i = 1/sigma_i^2, the exponent at tau = s * v expands
        per axis into -p_i v_i^2 / 2 * s_i^2 + p_i m_i v_i * s_i - p_i m_i^2 / 2,
        so the block for rows s (A, dim) and v (B, dim) is exp([s^2, s, 1] @ R.T)
        with R of shape (B, 2 dim + 1), and no (A, B, dim) array of products.
        log(amplitude) sits in R's constant column, inside the exponent, so no
        factor applied after exp can underflow on its own.  R is written in
        place, column block by column block, as ((-p / 2) v) v and (p m) v.  It
        depends on v alone, so a caller that evaluates many s-blocks against
        the same v builds it once and passes it to product_block.
        """
        v = np.asarray(v, dtype=float)
        prec = 1.0 / np.asarray(self.sigmas) ** 2
        mean = np.asarray(self.mean)
        side = np.empty((len(v), 2 * self.dim + 1))
        np.multiply(-0.5 * prec, v, out=side[:, : self.dim])
        side[:, : self.dim] *= v
        np.multiply(prec * mean, v, out=side[:, self.dim : -1])
        side[:, -1] = math.log(self.amplitude) - 0.5 * float(np.sum(prec * mean * mean))
        return side

    def product_block(self, s, side, out=None) -> np.ndarray:
        """The (A, B) block w(s_a * v_b) for side = product_side(v).

        The exponents go into out (a C-contiguous (A, B) float buffer that a
        caller of many blocks reuses; a new array if None) and are
        exponentiated there.  An exponent below log(sys.float_info.min), whose
        exp would be subnormal or 0, gives +0.0: it is set to 0 before the
        exp, which keeps it off np.exp's slow path for such values, and the
        exp's 1 there is set back to 0.  np.exp runs unmasked over the whole
        block: gated by a mask, it costs several times more per value.  NaN
        stays NaN and +inf stays +inf.
        """
        s = np.asarray(s, dtype=float)
        left = np.concatenate([s * s, s, np.ones((len(s), 1))], axis=1)
        out = np.matmul(left, side.T, out=out)
        low = out < _LOG_MIN_NORMAL
        out[low] = 0.0
        np.exp(out, out=out)
        out[low] = 0.0
        return out

    def sample(self, rng, size: int) -> np.ndarray:
        """Draws from the normalized density proportional to this Gaussian."""
        z = rng.standard_normal(size=(size, self.dim))
        return np.asarray(self.mean) + z * np.asarray(self.sigmas)

    # -- closed-form functionals ---------------------------------------------

    @property
    def mass(self) -> float:
        """Integral over R^dim."""
        return self.amplitude * math.prod(math.sqrt(TWO_PI) * s for s in self.sigmas)

    @property
    def l2_norm_sq(self) -> float:
        return self.amplitude**2 * math.prod(math.sqrt(math.pi) * s for s in self.sigmas)

    def lp_norm(self, p: float) -> float:
        """||f||_p for any p > 0, in closed form."""
        if p <= 0:
            raise ValueError("p must be positive")
        log_int = p * math.log(self.amplitude) + sum(
            0.5 * math.log(TWO_PI / p) + math.log(s) for s in self.sigmas
        )
        return math.exp(log_int / p)

    def fourier_modulus(self, xi) -> np.ndarray:
        """|f^(xi)| for the convention f^(xi) = integral f e^(-2 pi i <x, xi>).

        For this Gaussian: mass * exp(-2 pi^2 sum sigma_i^2 xi_i^2), which is
        the transform itself when the mean vanishes.
        """
        xi = np.asarray(xi, dtype=float)
        sig = np.asarray(self.sigmas)
        return self.mass * np.exp(-2.0 * math.pi**2 * np.sum((sig * xi) ** 2, axis=-1))

    # -- support control ------------------------------------------------------

    def tail_outside_box(self, radius: float) -> float:
        """Upper bound on the mass fraction outside the box |x_i| <= radius.

        Union bound over axes with exact one-dimensional normal tails.
        """

        def sf(t: float) -> float:
            return 0.5 * math.erfc(t / math.sqrt(2.0))

        frac = 0.0
        for m, s in zip(self.mean, self.sigmas):
            frac += sf((radius - m) / s) + sf((radius + m) / s)
        return frac

    def box_for_mass(self, tail: float = 1e-9) -> float:
        """A radius R with at most the given mass fraction outside [-R, R]^dim."""
        r = max(abs(m) + s for m, s in zip(self.mean, self.sigmas))
        while self.tail_outside_box(r) > tail:
            r *= 1.25
        return r


def random_gaussian(
    rng,
    dim: int,
    sigma_range: tuple[float, float] = (0.6, 1.4),
    mean_radius: float = 1.0,
    normalized: bool = True,
) -> GaussianSpec:
    """A random anisotropic Gaussian, by default with unit mass."""
    sigmas = tuple(rng.uniform(*sigma_range, size=dim).tolist())
    mean = tuple(rng.uniform(-mean_radius, mean_radius, size=dim).tolist())
    if normalized:
        return GaussianSpec.unit_mass(dim, mean=mean, sigmas=sigmas)
    return GaussianSpec(dim=dim, amplitude=float(rng.uniform(0.5, 2.0)), mean=mean, sigmas=sigmas)

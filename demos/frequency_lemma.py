#!/usr/bin/env python3
"""The pulled-back frequency-weight identity, numerically.

The integral of |zeta|^rho w(y * C zeta) over unit-shell y and all zeta
equals a constant times the integral of |tau|^(rho-k+l) w(tau).  For k=l=1
the constant is elementary, which gives a hard oracle; in higher rank we
watch the MC ratio stabilize, split it across frequency regions, and run
the squared-transform (L2) chain where the pulled-back exponent cancels.
"""

import math

import numpy as np

from surfconv.battery import battery_entry
from surfconv.gaussians import GaussianSpec, random_gaussian
from surfconv.pullback import (
    McConfig,
    plancherel_ratio,
    pullback_weight_ratio,
    region_cover_factor,
)
from surfconv.surface import CoefficientMatrix


def one_d_oracle(c: float, rho: float) -> float:
    if rho == 0.0:
        return 2.0 * math.log(2.0) / abs(c) ** (rho + 1)
    return 2.0 * (1.0 - 2.0**-rho) / (rho * abs(c) ** (rho + 1))


def plan(seed: int, n_y: int) -> McConfig:
    """n_y shell samples and the suites' node counts: 48 radial, 64 on the sphere."""
    return McConfig(seed=seed, n_y=n_y, n_radial=48, n_sphere=64)


def main() -> None:
    scalar = CoefficientMatrix.from_rows([[1.5]])
    w1 = GaussianSpec(dim=1, amplitude=1.0, mean=(0.0,), sigmas=(0.8,))
    print("rank one sanity: ratio against the closed form")
    for rho in (0.0, 1.0, 2.0):
        rep = pullback_weight_ratio(scalar, rho, w1, plan(11, 4000))
        oracle = one_d_oracle(1.5, rho)
        print(
            f"  rho = {rho}: mc {rep.ratio:.6f}  oracle {oracle:.6f}  "
            f"rel {abs(rep.ratio - oracle) / oracle:.2e}"
        )

    banded = battery_entry("banded-3-2").matrix
    w = random_gaussian(np.random.default_rng(5), dim=3)
    print("\nbanded 3x2: ratio under sample doubling (rho = 1)")
    for n_y in (200, 400, 800, 1600):
        rep = pullback_weight_ratio(banded, 1.0, w, plan(13, n_y))
        print(f"  n_y = {n_y:>4}: ratio {rep.ratio:.6f} (stderr {rep.stderr:.1e})")

    print("\nsplitting the frequency integral across selected-row regions:")
    cfg = plan(13, 400)
    total = pullback_weight_ratio(banded, 1.0, w, cfg).lhs
    cover = region_cover_factor(banded, 1.0, w, total, cfg)
    for q, val in cover["per_region"].items():
        print(f"  region Q = ({q}): lhs {val:.6f}")
    print(f"  sum / total = {cover['cover_factor']:.6f} (regions partition the shell)")
    defining = region_cover_factor(banded, 1.0, w, total, cfg, mode="defining")
    print(f"  with overlapping defining regions instead: {defining['cover_factor']:.4f} >= 1")

    print("\nsquared-transform chain (weight |f^|^2, exponent cancels):")
    for i in range(3):
        f = random_gaussian(np.random.default_rng(20 + i), dim=3)
        rep = plancherel_ratio(banded, f, plan(30 + i, 600))
        print(
            f"  f {i}: weighted integral {rep.lhs:.6f}, "
            f"||f||_2^2 {rep.rhs:.6f}, ratio {rep.ratio:.4f}"
        )


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""The averaging transform over parallel planes, end to end.

Tf(y; u) integrates f over the plane {x : L(x, y) = u} determined by the
bilinear forms of a coefficient matrix.  We push a Gaussian through the
transform, then validate three contracts numerically:

  1. the defining pairing  <Tf(y; .), h> = <f, h(L(., y))>,
  2. the frequency identity  (Tf(y; .))^(zeta) = f^(y * C zeta),
  3. the unimodular bound  sup_u |T_{is} f| <= ||f||_1.
"""

import numpy as np

from surfconv.battery import battery_entry
from surfconv.gaussians import GaussianSpec
from surfconv.transform import (
    GridFunction,
    fourier_check,
    oscillatory_sup_bound,
    pairing_check,
    plane_transform,
)

CELLS = 96


def main() -> None:
    matrix = battery_entry("banded-3-2").matrix
    y = np.array([0.9, -1.1, 0.7])
    f = GaussianSpec(dim=3, amplitude=1.0, mean=(0.1, -0.2, 0.05), sigmas=(0.5, 0.6, 0.45))
    fg = GridFunction.from_gaussian(f, CELLS)

    print(f"transform of a Gaussian at y = {y} ({CELLS} cells per axis)")
    pf = plane_transform(fg, matrix, y, cells=CELLS)
    tg = pf.grid
    total_in = fg.values.sum() * fg.cell_volume
    total_out = tg.values.sum() * tg.cell_volume
    print(f"  mass in  {total_in:.8f}")
    print(f"  mass out {total_out:.8f}  (leak {1 - total_out / total_in:.2e})")

    h = GridFunction.from_gaussian(
        GaussianSpec(dim=2, amplitude=1.0, mean=(0.0, 0.1), sigmas=(0.6, 0.5)), CELLS
    )
    rep = pairing_check(fg, h, matrix, y, cells=CELLS)
    print(f"\npairing check: lhs {rep.lhs:.8f} rhs {rep.rhs:.8f} rel err {rep.rel_err:.2e}")

    centered = GaussianSpec(dim=3, amplitude=1.0, mean=(0.0, 0.0, 0.0), sigmas=(0.5, 0.6, 0.45))
    zetas = np.random.default_rng(2).uniform(-1.2, 1.2, (6, 2))
    fr = fourier_check(centered, matrix, y, zetas, cells=CELLS)
    print(f"\nfrequency identity on {len(zetas)} frequencies (half Nyquist {fr.nyquist / 2:.2f}):")
    print(f"  worst relative error {fr.max_rel_err:.2e}, excluded {fr.excluded or 'none'}")

    print("\nimaginary-power averages against the mass:")
    u_points = np.stack(
        [g.ravel() for g in np.meshgrid(np.linspace(-2, 2, 15), np.linspace(-2, 2, 15))],
        axis=-1,
    )
    for s in (0.0, 0.5, 1.0, 2.0, 4.0):
        osc = oscillatory_sup_bound(fg, matrix, y, s, u_points)
        flag = "==" if osc.sup_abs == osc.l1_norm else "<="
        print(f"  s = {s:>3}: sup |T_is f| = {osc.sup_abs:.8f} {flag} {osc.l1_norm:.8f}")


if __name__ == "__main__":
    main()

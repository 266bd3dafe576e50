"""Negative controls: Knapp tubes tell a flat surface from a curved one.

A tangent tube E of head half-width a and thickness 2a^2 at the vertex y0 = 0
holds the surface's a-cap.  On a curved surface mu * chi_E is then about a^k
on a set of measure about |E| = a^(k + 2l); on a flat one (C = 0) it is about
a^k on a set of measure about a^(2l), because every head in the unit ball
fits the tube.  At the critical pair (1/p0, 1/q0) the ratio
||mu * chi_E||_q0 / |E|^(1/p0) therefore scales like a^e with

    curved: e = k + (k + 2l)/q0 - (k + 2l)/p0 = 0,
    flat:   e = k + 2l/q0 - (k + 2l)/p0 < 0,

so on a flat surface the ratio grows without bound as a -> 0 and the
restricted estimate fails.  Each case fits the slope of log ratio against
log a over a = 1/4, 1/8, 1/16 at seeds 0, 1 and 2, with grid spacing a/4.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from surfconv.battery import battery_entry
from surfconv.convolution import SurfaceMeasure, TangentTubeSet, lq_norm_mc
from surfconv.exponents import critical_p0, critical_q0
from surfconv.surface import CoefficientMatrix

HALF_WIDTHS = (0.25, 0.125, 0.0625)
N_TUBE = 3000


def knapp_exponents(k: int, l: int) -> tuple[Fraction, Fraction]:
    """The exact (curved, flat) exponents of the Knapp ratio at (1/p0, 1/q0)."""
    d = k + l
    p0, q0 = critical_p0(k, d), critical_q0(k, d)
    return k + (k + 2 * l) / q0 - (k + 2 * l) / p0, k + 2 * l / q0 - (k + 2 * l) / p0


def knapp_slope(matrix: CoefficientMatrix, seed: int) -> float:
    k, d = matrix.k, matrix.d
    p0, q0 = float(critical_p0(k, d)), float(critical_q0(k, d))
    ratios = []
    for a in HALF_WIDTHS:
        tube = TangentTubeSet(matrix, (0.0,) * k, a, 2 * a * a)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a flat matrix fails the row-submatrix condition
            measure = SurfaceMeasure(matrix, round(8 / a))
        est = lq_norm_mc(measure, tube, q0, seed=seed, n_tube=N_TUBE)
        ratios.append(est.norm / tube.measure ** (1 / p0))
    return float(np.polyfit(np.log(HALF_WIDTHS), np.log(ratios), 1)[0])


def test_knapp_exponents_are_exact():
    assert knapp_exponents(2, 1) == (0, Fraction(-1, 2))
    assert knapp_exponents(3, 2) == (0, Fraction(-6, 7))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "matrix,bound",
    [
        (CoefficientMatrix.from_rows([[0], [0]]), -0.4),
        (CoefficientMatrix.from_rows([[0, 0], [0, 0], [0, 0]]), -0.7),
    ],
    ids=["flat-2-1", "flat-3-2"],
)
def test_a_flat_surface_fails_the_knapp_scan(matrix, bound, seed):
    slope = knapp_slope(matrix, seed)
    assert math.isfinite(slope) and slope <= bound, f"slope {slope:.3f}, bound {bound}"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_curved_surface_passes_the_knapp_scan(seed):
    slope = knapp_slope(battery_entry("paraboloid-2-1").matrix, seed)
    assert slope >= -0.3, f"slope {slope:.3f}, bound -0.3"

import re

import numpy as np
import pytest

from oracles import gaussian_linear_pair_integral
from surfconv.gaussians import GaussianSpec
from surfconv.surface import CoefficientMatrix
from surfconv.transform import (
    GridFunction,
    fourier_check,
    oscillatory_sup_bound,
    pairing_check,
    plane_transform,
)

BANDED = CoefficientMatrix.from_rows([[1, 0], [1, 1], [0, 1]])
PARABOLOID = CoefficientMatrix.from_rows([[1], [1]])
DEGENERATE = CoefficientMatrix.from_rows([[1, 0], [2, 0], [0, 1]])


def integral(g: GridFunction) -> float:
    return float(g.values.sum() * g.cell_volume)


def test_grid_sampling_and_interpolation():
    spec = GaussianSpec(dim=2, amplitude=1.0, mean=(0.3, -0.2), sigmas=(0.7, 0.9))
    f = GridFunction.from_gaussian(spec, 64)
    assert integral(f) == pytest.approx(spec.mass, rel=1e-3)
    centers = np.stack(
        np.meshgrid(f.centers_1d(0), f.centers_1d(1), indexing="ij"), axis=-1
    ).reshape(-1, 2)
    np.testing.assert_allclose(f.interpolate(centers), f.values.ravel(), rtol=1e-12)
    # far outside the box the interpolant vanishes
    assert f.interpolate(np.array([[99.0, 99.0]]))[0] == 0.0


def test_transform_conserves_mass():
    spec = GaussianSpec(dim=2, amplitude=1.0, mean=(0.2, 0.1), sigmas=(0.6, 0.8))
    f = GridFunction.from_gaussian(spec, 96)
    pf = plane_transform(f, PARABOLOID, [1.0, -1.5], cells=96)
    assert pf.leak_fraction < 1e-3
    assert integral(pf.grid) == pytest.approx(
        integral(f) * (1.0 - pf.leak_fraction), rel=1e-9
    )


def test_transform_rejects_bad_inputs():
    spec = GaussianSpec(dim=2, amplitude=1.0, mean=(0.0, 0.0), sigmas=(0.7, 0.7))
    f = GridFunction.from_gaussian(spec, 32)
    with pytest.raises(ValueError):
        plane_transform(f, PARABOLOID, [1.0, 0.1], cells=32)  # |y_i| below 1/2
    with pytest.raises(ValueError):
        plane_transform(f, PARABOLOID, [1.0], cells=32)  # wrong length
    spec3 = GaussianSpec(dim=3, amplitude=1.0, mean=(0.0,) * 3, sigmas=(0.7,) * 3)
    f3 = GridFunction.from_gaussian(spec3, 16)
    with pytest.raises(ValueError):
        plane_transform(f3, DEGENERATE, [1.0, 1.0, 1.0], cells=16)


CENTERED_2 = GaussianSpec(dim=2, amplitude=1.0, mean=(0.0, 0.0), sigmas=(0.7, 0.7))
CENTERED_3 = GaussianSpec(dim=3, amplitude=1.0, mean=(0.0,) * 3, sigmas=(0.7,) * 3)


@pytest.mark.parametrize(
    "call,message",
    [
        pytest.param(lambda: GridFunction(2, (0.0,), 0.1, np.zeros((2, 2))),
                     "origin and values must match dim", id="grid-origin"),
        pytest.param(lambda: GridFunction(2, (0.0, 0.0), 0.1, np.zeros(4)),
                     "origin and values must match dim", id="grid-values"),
        pytest.param(lambda: GridFunction(1, (0.0,), 0.0, np.zeros(4)),
                     "spacing must be positive", id="grid-spacing"),
        pytest.param(lambda: plane_transform(GridFunction.from_gaussian(CENTERED_3, 8), PARABOLOID,
                                             [1.0, 1.0], cells=8),
                     "f must live on R^k: its dimension is 3, k = 2", id="transform-f-dim"),
        pytest.param(lambda: pairing_check(GridFunction.from_gaussian(CENTERED_2, 8),
                                           GridFunction.from_gaussian(CENTERED_2, 8), PARABOLOID,
                                           [1.0, 1.0], cells=8),
                     "h must live on an l-dimensional grid", id="pairing-h-dim"),
        pytest.param(lambda: fourier_check(GaussianSpec(dim=2, amplitude=1.0, mean=(0.1, 0.0),
                                                        sigmas=(0.7, 0.7)),
                                           PARABOLOID, [1.0, 1.0], [[0.5]], cells=8),
                     "fourier_check requires a centered Gaussian", id="fourier-centered"),
        pytest.param(lambda: fourier_check(CENTERED_3, PARABOLOID, [1.0, 1.0], [[0.5]], cells=8),
                     "f must live on R^k: its dimension is 3, k = 2", id="fourier-f-dim"),
        pytest.param(lambda: oscillatory_sup_bound(GridFunction.from_gaussian(CENTERED_3, 8),
                                                   PARABOLOID, [1.0, 1.0], 1.0, [[0.0]]),
                     "f must live on R^k: its dimension is 3, k = 2", id="oscillatory-f-dim"),
        pytest.param(lambda: oscillatory_sup_bound(GridFunction.from_gaussian(CENTERED_2, 8),
                                                   PARABOLOID, [1.0, 1.0], 1.0, [[0.0, 0.0]]),
                     "u points must have l coordinates", id="oscillatory-u"),
    ],
)
def test_transform_input_refusals(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("matrix,y", [(PARABOLOID, [1.0, -1.5]), (BANDED, [1.0, 1.0, 1.0])])
def test_pairing_two_quadratures_agree(matrix, y):
    rng = np.random.default_rng(5)
    fspec = GaussianSpec(
        dim=matrix.k,
        amplitude=1.0,
        mean=tuple(rng.uniform(-0.3, 0.3, matrix.k)),
        sigmas=tuple(rng.uniform(0.5, 0.8, matrix.k)),
    )
    hspec = GaussianSpec(
        dim=matrix.l,
        amplitude=1.0,
        mean=tuple(rng.uniform(-0.4, 0.4, matrix.l)),
        sigmas=tuple(rng.uniform(0.6, 1.0, matrix.l)),
    )
    f = GridFunction.from_gaussian(fspec, 96)
    h = GridFunction.from_gaussian(hspec, 96)
    rep = pairing_check(f, h, matrix, y, cells=96)
    assert rep.rel_err <= 0.01
    assert rep.leak_fraction < 1e-3


def test_pairing_against_gaussian_closed_form():
    # the rhs quadrature should land on the exact integral f(x) h(L_y x) dx
    y = np.array([1.0, -1.2])
    fspec = GaussianSpec(dim=2, amplitude=1.0, mean=(0.1, -0.2), sigmas=(0.6, 0.7))
    hspec = GaussianSpec(dim=1, amplitude=1.0, mean=(0.2,), sigmas=(0.8,))
    bmat = PARABOLOID.array.T * y[None, :]
    exact = gaussian_linear_pair_integral(fspec, hspec, bmat)
    f = GridFunction.from_gaussian(fspec, 128)
    h = GridFunction.from_gaussian(hspec, 128)
    rep = pairing_check(f, h, PARABOLOID, y, cells=128)
    assert rep.lhs == pytest.approx(exact, rel=0.01)
    assert rep.rhs == pytest.approx(exact, rel=0.005)


def test_fourier_closed_form_agreement():
    spec = GaussianSpec(dim=2, amplitude=1.0, mean=(0.0, 0.0), sigmas=(0.6, 0.75))
    zetas = np.array([[0.0], [0.25], [-0.5], [0.8]])
    rep = fourier_check(spec, PARABOLOID, [1.0, 1.0], zetas, cells=128)
    assert rep.max_rel_err <= 0.02
    assert rep.excluded == ()


def test_fourier_excludes_beyond_half_nyquist():
    spec = GaussianSpec(dim=1, amplitude=1.0, mean=(0.0,), sigmas=(0.5,))
    zetas = np.array([[0.2], [1e4]])
    with pytest.warns(RuntimeWarning):
        rep = fourier_check(spec, CoefficientMatrix.from_rows([[1]]), [1.0], zetas, cells=64)
    assert rep.excluded == (1,)
    assert rep.max_rel_err <= 0.02


def test_oscillatory_sup_never_beats_l1():
    rng = np.random.default_rng(17)
    spec = GaussianSpec(dim=2, amplitude=1.0, mean=(0.1, 0.0), sigmas=(0.6, 0.7))
    f = GridFunction.from_gaussian(spec, 48)
    u = rng.uniform(-3.0, 3.0, (64, 1))
    for s in (0.5, 1.0, 2.0):
        rep = oscillatory_sup_bound(f, PARABOLOID, [1.0, 1.0], s, u)
        assert rep.sup_abs <= rep.l1_norm * (1.0 + 1e-3)


def test_oscillatory_s_zero_is_exact_equality():
    spec = GaussianSpec(dim=1, amplitude=1.0, mean=(0.0,), sigmas=(0.6,))
    f = GridFunction.from_gaussian(spec, 40)
    rep = oscillatory_sup_bound(
        f, CoefficientMatrix.from_rows([[2]]), [1.0], 0.0, np.array([[0.3], [1.0]])
    )
    assert rep.sup_abs == rep.l1_norm

import math
import re
import sys

import numpy as np
import pytest

from oracles import box_rule, gaussian_linear_pair_integral, sphere_area
from surfconv.gaussians import GaussianSpec, random_gaussian
from surfconv.pullback import McConfig, _polar_nodes
from surfconv.quadrature import ball_volume, gauss_legendre_interval, sphere_rule


def test_mass_and_norms_closed_forms():
    g = GaussianSpec(dim=2, amplitude=3.0, mean=(0.5, -1.0), sigmas=(0.7, 1.3))
    assert g.mass == pytest.approx(3.0 * 2 * math.pi * 0.7 * 1.3)
    assert g.l1_norm == pytest.approx(g.mass)  # positive amplitude
    # ||g||_2^2 = amp^2 prod sigma_i sqrt(pi)
    assert g.l2_norm_sq == pytest.approx(9.0 * (0.7 * math.sqrt(math.pi)) * (1.3 * math.sqrt(math.pi)))
    # lp consistency: ||g||_p^p = amp^p prod sigma sqrt(2 pi / p)
    p = 2.5
    expected = (3.0**p) * math.prod(s * math.sqrt(2 * math.pi / p) for s in (0.7, 1.3))
    assert g.lp_norm(p) ** p == pytest.approx(expected)


def test_unit_mass_factory():
    g = GaussianSpec.unit_mass(3, mean=(0.1, 0.2, 0.3), sigmas=(1.0, 2.0, 0.5))
    assert g.mass == pytest.approx(1.0)


def test_evaluate_against_quadrature():
    g = GaussianSpec(dim=2, amplitude=1.0, mean=(0.2, 0.0), sigmas=(0.6, 0.8))
    pts, w = box_rule(64, [(-7, 7), (-7, 7)])
    assert float(np.sum(w * g.evaluate(pts))) == pytest.approx(g.mass, rel=1e-10)


def test_fourier_closed_form_against_quadrature():
    g = GaussianSpec(dim=1, amplitude=2.0, mean=(0.3,), sigmas=(0.9,))
    xi = np.array([[0.4]])
    pts, w = box_rule(400, [(-8, 8)])
    osc = np.exp(-2j * math.pi * pts[:, 0] * 0.4)
    num = complex(np.sum(w * g.evaluate(pts) * osc))
    # modulus drops the phase
    assert abs(num) == pytest.approx(float(g.fourier_modulus(xi)[0]), rel=1e-9)


def test_sampling_matches_density_moments():
    g = GaussianSpec(dim=2, amplitude=5.0, mean=(1.0, -2.0), sigmas=(0.5, 1.5))
    rng = np.random.default_rng(7)
    xs = g.sample(rng, 200_00)
    np.testing.assert_allclose(xs.mean(axis=0), [1.0, -2.0], atol=0.05)
    np.testing.assert_allclose(xs.std(axis=0), [0.5, 1.5], atol=0.05)


def test_tail_bound_is_an_upper_bound():
    g = GaussianSpec(dim=2, amplitude=1.0, mean=(0.5, 0.0), sigmas=(1.0, 2.0))
    rng = np.random.default_rng(1)
    xs = g.sample(rng, 100_000)
    for r in (2.0, 4.0, 6.0):
        emp = np.mean(np.max(np.abs(xs), axis=1) > r)
        assert emp <= g.tail_outside_box(r) + 3e-3
    r9 = g.box_for_mass(1e-9)
    assert g.tail_outside_box(r9) <= 1e-9


def test_random_gaussian_determinism_and_mass():
    a = random_gaussian(np.random.default_rng(3), 3)
    b = random_gaussian(np.random.default_rng(3), 3)
    assert a == b
    assert a.mass == pytest.approx(1.0)


def test_gaussian_linear_pair_integral_oracle():
    # integral f(x) h(Bx) dx against brute-force quadrature
    f = GaussianSpec(dim=2, amplitude=1.3, mean=(0.2, -0.1), sigmas=(0.8, 1.1))
    h = GaussianSpec(dim=1, amplitude=0.7, mean=(0.4,), sigmas=(0.9,))
    bmat = np.array([[0.5, -1.0]])
    closed = gaussian_linear_pair_integral(f, h, bmat)
    pts, w = box_rule(160, [(-7, 7), (-7, 7)])
    brute = float(np.sum(w * f.evaluate(pts) * h.evaluate(pts @ bmat.T)))
    assert closed == pytest.approx(brute, rel=1e-8)



@pytest.mark.parametrize("dim", [1, 2, 3])
def test_evaluate_products_matches_pointwise(dim):
    rng = np.random.default_rng(40 + dim)
    g = random_gaussian(rng, dim, sigma_range=(0.3, 1.7), mean_radius=1.5, normalized=False)
    s = rng.uniform(-2.0, 2.0, size=(37, dim))
    v = rng.normal(scale=1.5, size=(53, dim))
    oracle = g.evaluate(s[:, None, :] * v[None, :, :])
    got = g.product_block(s, g.product_side(v))
    assert got.shape == (37, 53)
    assert np.max(oracle) > 0.1 * g.amplitude
    assert np.max(np.abs(got - oracle)) <= 1e-12 * np.max(oracle)


def test_evaluate_products_deep_tail_underflows_to_zero():
    g = GaussianSpec(dim=2, amplitude=2.5, mean=(0.3, -0.2), sigmas=(0.05, 0.07))
    s = np.array([[1.0, -1.5], [2.0, 0.0], [0.0, 1.2]])
    v = np.array([[1e2, -3e2], [5e4, 1e6], [-1e6, 7e5]])
    oracle = g.evaluate(s[:, None, :] * v[None, :, :])
    got = g.product_block(s, g.product_side(v))
    assert np.all(oracle == 0.0)
    assert np.all(np.isfinite(got))
    assert np.all(got == 0.0)


def test_evaluate_products_flushes_below_the_normal_range():
    g = GaussianSpec(dim=1, amplitude=1.7, mean=(0.25,), sigmas=(0.9,))
    s = np.linspace(1.0, 1.02, 9)[:, None]
    v = np.linspace(33.9, 34.7, 401)[:, None]
    # the unflushed block: exp of the documented expansion [s^2, s, 1] @ R.T
    prec = 1.0 / 0.81
    left = np.concatenate([s * s, s, np.ones((9, 1))], axis=1)
    right = np.concatenate(
        [-0.5 * prec * v * v, prec * 0.25 * v, np.full((401, 1), math.log(1.7) - 0.5 * prec * 0.0625)],
        axis=1,
    )
    exponents = left @ right.T
    assert exponents.min() < -755.0 and exponents.max() > -705.0  # spread over [-760, -700]
    oracle = g.evaluate(s[:, None, :] * v[None, :, :])
    tiny = oracle < sys.float_info.min
    assert ((oracle > 0.0) & tiny).any() and (oracle == 0.0).any() and not tiny.all()

    got = g.product_block(s, g.product_side(v))
    assert np.all(got[tiny] == 0.0)
    assert np.array_equal(got[~tiny], np.exp(exponents)[~tiny])
    assert np.all(got[~tiny] >= sys.float_info.min)


def masked_exp_block(s, side) -> np.ndarray:
    """product_block's former exp step, kept as the oracle: a mask-gated exp of
    the exponents at or above log(sys.float_info.min), then a clip at 0."""
    left = np.concatenate([s * s, s, np.ones((len(s), 1))], axis=1)
    out = np.matmul(left, side.T)
    np.exp(out, out=out, where=out >= math.log(sys.float_info.min))
    np.maximum(out, 0.0, out=out)
    return out


@pytest.mark.parametrize("reuse", [False, True])
def test_product_block_matches_the_masked_exp_bit_for_bit(reuse):
    # with dim = 1, s = 1 and a side row [a, b, c], the exponent is a + b + c;
    # the rows [0, 0, c] put c itself in the block
    bound = math.log(sys.float_info.min)
    special = [bound, np.nextafter(bound, 0.0), np.nextafter(bound, -np.inf), bound - 50.0,
               -745.2, -1e300, 0.0, -0.0, 1e-300, 700.0, 710.0, np.nan, np.inf, -np.inf]
    rng = np.random.default_rng(77)
    side = np.concatenate([
        np.column_stack([np.zeros(len(special)), np.zeros(len(special)), special]),
        rng.uniform(-400.0, 0.0, (300, 3)),
    ])
    s = np.concatenate([np.ones((1, 1)), rng.uniform(-2.0, 2.0, (40, 1))])
    out = np.full((len(s), len(side)), -7.0) if reuse else None
    with np.errstate(over="ignore"):  # exp(710) overflows to inf
        oracle = masked_exp_block(s, side)
        got = GaussianSpec(dim=1, amplitude=1.0, mean=(0.0,), sigmas=(1.0,)).product_block(
            s, side, out=out)
    assert (oracle == 0.0).any() and (oracle >= sys.float_info.min).any()
    assert np.isnan(oracle).any() and np.isposinf(oracle).any()
    assert got.view(np.uint64).tolist() == oracle.view(np.uint64).tolist()


@pytest.mark.parametrize(
    "call,message",
    [
        pytest.param(lambda: GaussianSpec(dim=2, amplitude=1.0, mean=(0.0,), sigmas=(1.0, 1.0)),
                     "mean and sigmas must have length dim", id="mean-length"),
        pytest.param(lambda: GaussianSpec(dim=1, amplitude=1.0, mean=(0.0,), sigmas=(1.0, 1.0)),
                     "mean and sigmas must have length dim", id="sigmas-length"),
        pytest.param(lambda: GaussianSpec(dim=1, amplitude=0.0, mean=(0.0,), sigmas=(1.0,)),
                     "amplitude must be positive", id="amplitude"),
        pytest.param(lambda: GaussianSpec(dim=2, amplitude=1.0, mean=(0.0, 0.0), sigmas=(1.0, 0.0)),
                     "sigmas must be positive", id="sigma"),
        pytest.param(lambda: GaussianSpec.unit_mass(2).lp_norm(0.0), "p must be positive",
                     id="lp-norm"),
    ],
)
def test_gaussian_input_refusals(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


# -- quadrature ---------------------------------------------------------------


@pytest.mark.parametrize(
    "call,message",
    [
        pytest.param(lambda: gauss_legendre_interval(0, 0.0, 1.0), "need at least one node",
                     id="no-nodes"),
        pytest.param(lambda: sphere_rule(0, 32, 64), "dimension must be positive", id="dim-0"),
    ],
)
def test_quadrature_input_refusals(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_gauss_legendre_polynomial_exactness():
    x, w = gauss_legendre_interval(6, 0.0, 2.0)
    # degree 11 is integrated exactly by 6 nodes
    assert float(np.sum(w * x**11)) == pytest.approx(2.0**12 / 12, rel=1e-13)


def test_tensor_rule_separability():
    pts, w = box_rule(9, [(0.0, 1.0), (-1.0, 1.0)])
    val = float(np.sum(w * pts[:, 0] ** 2 * pts[:, 1] ** 2))
    assert val == pytest.approx((1.0 / 3.0) * (2.0 / 3.0), rel=1e-12)


def test_sphere_rule_integrates_polynomials():
    for dim in (1, 2, 3):
        nodes, w = sphere_rule(dim, 32, 64)
        assert float(np.sum(w)) == pytest.approx(sphere_area(dim), rel=1e-10)
        # integral of x_0^2 over S^(dim-1) = area / dim
        assert float(np.sum(w * nodes[:, 0] ** 2)) == pytest.approx(
            sphere_area(dim) / dim, rel=1e-8
        )


def test_ball_volume_values():
    assert ball_volume(1, 2.0) == pytest.approx(4.0)
    assert ball_volume(2) == pytest.approx(math.pi)
    assert ball_volume(3, 0.5) == pytest.approx(4.0 / 3.0 * math.pi * 0.125)


def test_polar_rule_gaussian_mass():
    # the polar product rule of the pullback quadratures, at rho = 0
    g = GaussianSpec(dim=2, amplitude=1.0, mean=(0.0, 0.0), sigmas=(1.0, 1.0))
    pts, w, _ = _polar_nodes(0.0, 2, 8.0, McConfig(seed=0x5EED, n_y=512, n_radial=64, n_sphere=64))
    assert float(np.sum(w * g.evaluate(pts))) == pytest.approx(g.mass, rel=1e-8)

import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from oracles import dilated, warm_peak
from surfconv.battery import battery_entry
from surfconv.gaussians import GaussianSpec, random_gaussian
from surfconv.parallel import seeded_mean
from surfconv.pullback import (
    BLOCK_VALUES,
    McConfig,
    _lhs_shell_integral,
    _polar_nodes,
    _polar_rule,
    _tau_radius,
    _weight_integral,
    plancherel_ratio,
    pullback_weight_ratio,
    region_cover_factor,
    region_weight_ratio,
    squared_fourier_weight,
)
from surfconv.quadrature import gauss_legendre_interval
from surfconv.suites import run_lemma_mc
from surfconv.surface import CoefficientMatrix, det_fraction

BANDED = CoefficientMatrix.from_rows([[1, 0], [1, 1], [0, 1]])
SCALAR = CoefficientMatrix.from_rows([[Fraction(3, 2)]])
W3 = GaussianSpec(dim=3, amplitude=1.0, mean=(0.0, 0.0, 0.0), sigmas=(1.0, 0.8, 1.2))


def plan(**fields) -> McConfig:
    """A McConfig of the given fields; seed 0x5EED, 512 y-samples, 48 radial
    and 64 sphere nodes for the others."""
    return McConfig(**{"seed": 0x5EED, "n_y": 512, "n_radial": 48, "n_sphere": 64, **fields})


def one_d_oracle(c: float, rho: float) -> float:
    # exact ratio of the two frequency integrals for a single coefficient:
    # the y-average of |c y|^-(rho+1) over |y| in [1, 2), both signs
    if rho == 0.0:
        return 2.0 * abs(c) ** (-rho - 1.0) * math.log(2.0)
    return 2.0 * abs(c) ** (-rho - 1.0) * (1.0 - 2.0**-rho) / rho


@pytest.mark.parametrize("rho", [0.0, 1.0, -0.5])
def test_one_dimensional_closed_form(rho):
    w = GaussianSpec(dim=1, amplitude=1.3, mean=(0.4,), sigmas=(0.8,))
    rep = pullback_weight_ratio(SCALAR, rho, w, plan(n_y=4000, seed=11))
    assert rep.ratio == pytest.approx(one_d_oracle(1.5, rho), rel=0.02)


def test_plancherel_one_dimensional_oracle():
    f = GaussianSpec(dim=1, amplitude=0.9, mean=(0.3,), sigmas=(1.1,))
    cfg = plan(n_y=4000, seed=13)
    rep = plancherel_ratio(SCALAR, f, cfg)
    assert rep.ratio == pytest.approx(2.0 * math.log(2.0) / 1.5, rel=0.02)
    # the tau quadrature that plancherel_ratio leaves out (its rhs is in
    # closed form) reproduces ||f||_2^2 to near machine
    pullback = pullback_weight_ratio(SCALAR, 0.0, squared_fourier_weight(f), cfg)
    assert pullback.rhs == pytest.approx(f.l2_norm_sq, rel=1e-6)


def test_weighted_integral_is_dilation_invariant():
    f = GaussianSpec(dim=3, amplitude=1.0, mean=(0.2, -0.1, 0.3), sigmas=(0.9, 1.1, 0.7))
    values = []
    for t in (1.0, 2.0):
        ft = GaussianSpec(
            dim=3,
            amplitude=f.amplitude * t ** (-3 / 2),
            mean=tuple(m * t for m in f.mean),
            sigmas=tuple(s * t for s in f.sigmas),
        )
        rep = plancherel_ratio(BANDED, ft, plan(n_y=1500, seed=17))
        values.append(rep.lhs)
    assert values[1] == pytest.approx(values[0], rel=0.05)


def test_matrix_homogeneity_power():
    # scaling C by t multiplies the frequency integral by t^-(rho + l)
    rho = 1.0
    doubled = CoefficientMatrix.from_rows([[2, 0], [2, 2], [0, 2]])
    r1 = pullback_weight_ratio(BANDED, rho, W3, plan(n_y=1500, seed=19))
    r2 = pullback_weight_ratio(doubled, rho, W3, plan(n_y=1500, seed=19))
    power = math.log(r2.lhs / r1.lhs) / math.log(2.0)
    assert power == pytest.approx(-(rho + 2), abs=0.05)


def test_lemma_cover_total_is_the_lhs_of_its_first_row():
    # the cover reuses the lhs of the (rho_list[0], w00) row instead of recomputing it
    params = {"rho_list": [0.5, 1.0], "n_w": 2, "n_y": 64, "n_radial": 12, "n_sphere": 12}
    result = run_lemma_mc(battery_entry("banded-3-2").matrix, params, seed=5)
    first = result.payload["rows"][0]
    assert (first["rho"], first["w_id"]) == (0.5, "w00")
    for mode in ("selected", "defining"):
        assert result.payload["cover"][mode]["total_lhs"] == first["lhs"]


@pytest.mark.parametrize(
    "entry,rho,seed",
    [("banded-3-2", 0.0, 1), ("banded-3-2", 1.0, 2), ("banded-3-2", -0.5, 3), ("random-4-3", 0.5, 4)],
)
def test_lemma_cover_verdicts_are_identities(entry, rho, seed):
    # cover-selected cannot fail: the selected regions partition the zeta nodes
    # and reuse the total's y-draws, so their sum is the total up to rounding.
    # cover-defining cannot fail: each defining region contains its selected
    # region and the integrand is nonnegative, so the factor is at least 1.
    params = {"rho_list": [rho], "n_w": 1, "n_y": 64, "n_radial": 12, "n_sphere": 12}
    matrix = battery_entry(entry).matrix
    result = run_lemma_mc(matrix, params, seed=seed)
    cover = result.payload["cover"]
    assert set(cover["selected"]["per_region"]) == {str(i) for i in range(matrix.k)}
    assert abs(cover["selected"]["cover_factor"] - 1.0) <= 1e-12
    assert cover["defining"]["cover_factor"] >= 1.0 - 1e-12
    verdicts = {v.check_id: v.passed for v in result.verdicts}
    assert verdicts["cover-selected"] and verdicts["cover-defining"]


def test_middle_row_selected_region_is_empty():
    # on the unit circle |zeta_1| and |zeta_1 + zeta_2| cannot both be small
    # enough for row 2 to be reached before rows 0 and 1 fill the quota
    rep = region_weight_ratio(BANDED, 0.0, W3, (2,), plan(n_y=400, seed=3))
    assert rep.lhs == 0.0


SMALL = plan(n_y=32, n_radial=8, n_sphere=8)
W1 = GaussianSpec(dim=1, amplitude=1.0, mean=(0.0,), sigmas=(1.0,))


def centered_3(amplitude: float, sigma: float) -> GaussianSpec:
    return GaussianSpec(dim=3, amplitude=amplitude, mean=(0.0,) * 3, sigmas=(sigma,) * 3)


@pytest.mark.parametrize(
    "call,message",
    [
        pytest.param(lambda: plan(n_radial=0), "node counts must be positive", id="n-radial"),
        pytest.param(lambda: plan(n_sphere=-1), "node counts must be positive", id="n-sphere"),
        pytest.param(lambda: pullback_weight_ratio(BANDED, -2.5, W3, SMALL),
                     "rho = -2.5 too negative for a convergent frequency integral", id="rho-low"),
        pytest.param(lambda: pullback_weight_ratio(BANDED, 400.0, W3, SMALL),
                     "rho = 400.0: non-finite frequency estimate (the zeta quadrature weight",
                     id="zeta-overflow"),
        # C = 3/2 shrinks the zeta radius below the tau radius, so only tau overflows
        pytest.param(lambda: pullback_weight_ratio(SCALAR, 380.0, W1, SMALL),
                     "rho = 380.0: non-finite frequency estimate (the tau quadrature weight",
                     id="tau-overflow"),
        pytest.param(lambda: pullback_weight_ratio(BANDED, 0.0, centered_3(1.0, 10.0), SMALL),
                     "truncation radius 12.0 covers as little as 0.0000% of the weight's mass",
                     id="truncation"),
        pytest.param(lambda: pullback_weight_ratio(
                         CoefficientMatrix.from_rows([[1, 0], [2, 0], [0, 1]]), 0.0, W3, SMALL),
                     "the row-submatrix condition must hold", id="singular"),
        pytest.param(lambda: pullback_weight_ratio(BANDED, 0.0, GaussianSpec(
                         dim=2, amplitude=1.0, mean=(0.0, 0.0), sigmas=(1.0, 1.0)), SMALL),
                     "f must live on R^k: its dimension is 2, k = 3", id="weight-dim"),
        pytest.param(lambda: region_weight_ratio(BANDED, 0.0, W3, (0,), SMALL, mode="bogus"),
                     "unknown region mode 'bogus'", id="region-mode"),
        pytest.param(lambda: region_weight_ratio(BANDED, 0.0, W3, (0, 1), SMALL),
                     "Q must be 1 distinct rows of 0..2", id="q-size"),
        pytest.param(lambda: region_weight_ratio(BANDED, 0.0, W3, (3,), SMALL),
                     "Q must be 1 distinct rows of 0..2", id="q-row"),
        # a subnormal amplitude underflows every value of w to 0
        pytest.param(lambda: pullback_weight_ratio(BANDED, 0.0, centered_3(1e-320, 1.0), SMALL),
                     "degenerate weight: the pulled-back integral vanishes", id="vanishing"),
        # a huge amplitude overflows the sample variance
        pytest.param(lambda: pullback_weight_ratio(BANDED, 0.0, centered_3(1e300, 1.0), SMALL),
                     "rho = 0.0: non-finite estimate: lhs 1.2407195252364573e+301", id="non-finite"),
        pytest.param(lambda: plancherel_ratio(BANDED, centered_3(1e150, 1.0), SMALL),
                     "non-finite estimate: lhs 2.61339550198752e+300", id="plancherel-non-finite"),
        # |f^|^2 has amplitude mass^2, which overflows a float before any estimate runs
        pytest.param(lambda: plancherel_ratio(BANDED, centered_3(1e160, 1.0), SMALL),
                     "|f^|^2 amplitude overflows: f has amplitude 1e+160 and mass 1.57496e+161",
                     id="plancherel-amplitude-overflow"),
    ],
)
def test_pullback_input_refusals(call, message):
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


def test_one_y_sample_is_refused():
    # one sample has no spread: a stderr of 0 would read as an exact estimate
    cfg = plan(n_y=1)
    with warnings.catch_warnings(), pytest.raises(ValueError, match="seeded chunks"):
        warnings.simplefilter("error")
        pullback_weight_ratio(BANDED, 0.0, W3, cfg)


def test_plancherel_stderr_is_the_lhs_stderr():
    f = GaussianSpec(dim=3, amplitude=1.0, mean=(0.1, 0.0, -0.2), sigmas=(0.9, 1.0, 1.1))
    rep = plancherel_ratio(BANDED, f, SMALL)
    rho = float(BANDED.k - BANDED.l)
    [(lhs, stderr)] = _lhs_shell_integral(BANDED, [rho], squared_fourier_weight(f), SMALL)
    assert (rep.lhs, rep.stderr, rep.rhs) == (lhs, stderr, f.l2_norm_sq)


def test_region_ratio_refuses_a_weight_off_r_k():
    w1 = GaussianSpec(dim=1, amplitude=1.0, mean=(0.0,), sigmas=(1.0,))
    with pytest.raises(ValueError, match=re.escape("f must live on R^k: its dimension is 1, k = 3")):
        region_weight_ratio(battery_entry("banded-3-2").matrix, 0.0, w1, (0,), plan(n_y=100))


@dataclass(frozen=True)
class ChangeOfVariablesReport:
    closed_form: float
    quadrature: float
    rel_err: float


def _split_circle_rule(kink_dirs: np.ndarray, n_per_arc: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit-circle rule split at the angles where any <C_i, theta> vanishes.

    Splitting makes the integrand smooth on every arc, restoring spectral
    accuracy despite the |.| kinks of the Jacobian factors.
    """
    angles = set()
    for c in kink_dirs:
        base = math.atan2(c[0], -c[1])  # direction orthogonal to c
        for off in (0.0, math.pi):
            angles.add((base + off) % (2.0 * math.pi))
    cuts = sorted(angles)
    cuts.append(cuts[0] + 2.0 * math.pi)
    thetas, weights = [], []
    for a, b in zip(cuts[:-1], cuts[1:]):
        t, wt = gauss_legendre_interval(n_per_arc, a, b)
        thetas.append(t)
        weights.append(wt)
    t = np.concatenate(thetas)
    return np.stack([np.cos(t), np.sin(t)], axis=-1), np.concatenate(weights)


def change_of_variables_check(
    matrix: CoefficientMatrix,
    q_rows,
    y_head,
    g: GaussianSpec,
    cfg: McConfig,
) -> ChangeOfVariablesReport:
    """Verify integral g = integral (g o map) * J over (zeta, y_Q) coordinates.

    q_rows are the k - l rows whose y-coordinates vary; y_head fixes the
    remaining rows' coordinates (each in [1, 2) in magnitude).  J is the
    closed-form Jacobian of the map (zeta, y_Q) -> (y_i (C zeta)_i)_i.  The
    map covers R^k up to a null set with no overlap, so no symmetry factor
    is needed.

    The y_Q integrals use windows scaled per zeta node by 1/|(C zeta)_i| so
    the Gaussian slice is always resolved; the zeta rule is polar with the
    circle split at the Jacobian's kink directions when l = 2.
    """
    k, l = matrix.k, matrix.l
    q_rows = tuple(sorted(int(i) for i in q_rows))
    if len(q_rows) != k - l:
        raise ValueError(f"Q must have {k - l} rows")
    head_rows = tuple(i for i in range(k) if i not in q_rows)
    y_head = np.asarray(y_head, dtype=float)
    if y_head.shape != (l,):
        raise ValueError(f"y_head must fix {l} coordinates (rows {head_rows})")
    if np.any(np.abs(y_head) < 1.0) or np.any(np.abs(y_head) >= 2.0):
        raise ValueError("fixed |y| values must lie in [1, 2)")
    if g.dim != k:
        raise ValueError("g must live on R^k")

    head_mat = matrix.array[list(head_rows)]  # (l, l)
    head_det = abs(float(det_fraction(matrix.row_submatrix(head_rows))))
    if head_det == 0.0:
        raise ValueError("the fixed rows form a singular submatrix")
    scaled = y_head[:, None] * head_mat
    r_zeta = 1.2 * _tau_radius(g) / float(np.linalg.svd(scaled, compute_uv=False)[-1])

    if l == 2:
        r, wr = gauss_legendre_interval(cfg.n_radial, 0.0, r_zeta)
        theta, wtheta = _split_circle_rule(matrix.array, max(8, cfg.n_sphere // 4))
        znodes = (r[:, None, None] * theta[None, :, :]).reshape(-1, 2)
        zweights = np.multiply.outer(wr * r, wtheta).ravel()
    else:
        znodes, zweights, _ = _polar_nodes(0.0, l, r_zeta, cfg)

    images = znodes @ matrix.array.T  # (N, k)
    # head factor: product over fixed rows of g's axis slice at y_i (C zeta)_i,
    # times |y_i|, times the submatrix determinant
    sig = np.asarray(g.sigmas)
    mu = np.asarray(g.mean)
    vals = np.full(len(znodes), g.amplitude * head_det * float(np.prod(np.abs(y_head))))
    for a, i in enumerate(head_rows):
        tau_i = y_head[a] * images[:, i]
        vals = vals * np.exp(-0.5 * ((tau_i - mu[i]) / sig[i]) ** 2)

    # tail rows: per-node scaled Gauss-Legendre window in y_i, axis integral of
    # |w_i| * g_i(y w_i) over the window
    n_yq = max(24, cfg.n_radial // 2)
    base_nodes, base_weights = np.polynomial.legendre.leggauss(n_yq)
    for i in q_rows:
        w_i = images[:, i]
        extent = abs(mu[i]) + 6.0 * sig[i]
        with np.errstate(divide="ignore"):
            window = np.minimum(1e7, extent / np.abs(w_i))
        yk = window[:, None] * base_nodes[None, :]
        tau = w_i[:, None] * yk
        gi = np.exp(-0.5 * ((tau - mu[i]) / sig[i]) ** 2)
        axis_int = (gi @ base_weights) * window * np.abs(w_i)
        vals = vals * axis_int

    quadrature = float(np.sum(zweights * vals))
    closed = g.mass
    return ChangeOfVariablesReport(
        closed_form=closed,
        quadrature=quadrature,
        rel_err=abs(quadrature - closed) / max(abs(closed), 1e-300),
    )


@pytest.mark.parametrize("q", [(0,), (1,), (2,)])
def test_change_of_variables_banded(q):
    g = GaussianSpec(dim=3, amplitude=1.0, mean=(0.3, -0.2, 0.5), sigmas=(0.8, 1.0, 1.2))
    rep = change_of_variables_check(BANDED, q, (1.3, -1.6), g, plan(n_radial=64))
    assert rep.rel_err < 1e-6


def test_change_of_variables_square_cases():
    g1 = GaussianSpec(dim=1, amplitude=2.0, mean=(0.4,), sigmas=(0.9,))
    rep = change_of_variables_check(SCALAR, (), (1.5,), g1, plan())
    assert rep.rel_err < 1e-8
    m22 = CoefficientMatrix.from_rows([[1, 0], [0, 1]])
    g2 = GaussianSpec(dim=2, amplitude=1.0, mean=(0.2, -0.3), sigmas=(0.7, 1.1))
    rep = change_of_variables_check(m22, (), (1.2, -1.8), g2, plan(n_radial=64))
    assert rep.rel_err < 1e-6


def test_squared_fourier_weight_matches_modulus():
    f = GaussianSpec(dim=2, amplitude=1.4, mean=(0.3, -0.2), sigmas=(0.8, 1.2))
    w = squared_fourier_weight(f)
    xs = np.array([[0.0, 0.0], [0.3, -0.1], [1.0, 0.5]])
    np.testing.assert_allclose(w.evaluate(xs), f.fourier_modulus(xs) ** 2, rtol=1e-12)


def test_product_grid_evaluation_matches_pointwise_sums(monkeypatch):
    w = GaussianSpec(dim=3, amplitude=1.7, mean=(0.3, -0.2, 0.1), sigmas=(0.9, 0.6, 1.3))
    cfg = plan(n_y=40, n_radial=8, n_sphere=8, seed=21)
    mask = np.arange(8 * 8) % 3 != 0
    fast = [
        _lhs_shell_integral(BANDED, [0.5], w, cfg)[0],
        _lhs_shell_integral(BANDED, [0.5], w, cfg, node_mask=mask)[0],
        _weight_integral(w, -0.5, 5.0, cfg),
    ]
    nodes, weights, radii = _polar_nodes(-0.5, 3, 5.0, cfg)
    pointwise_rhs = float(np.sum(weights * radii**-0.5 * w.evaluate(nodes)))

    # the same estimators with every tau = s * v formed and evaluated one by one
    monkeypatch.setattr(GaussianSpec, "product_side", lambda self, v: np.asarray(v, dtype=float))
    monkeypatch.setattr(
        GaussianSpec,
        "product_block",
        lambda self, s, v, out=None: self.evaluate(s[:, None, :] * v[None, :, :]),
    )
    brute = [
        _lhs_shell_integral(BANDED, [0.5], w, cfg)[0],
        _lhs_shell_integral(BANDED, [0.5], w, cfg, node_mask=mask)[0],
        _weight_integral(w, -0.5, 5.0, cfg),
    ]
    for got, want in zip(fast, brute):
        np.testing.assert_allclose(got, want, rtol=1e-13)
    assert fast[2] == pytest.approx(pointwise_rhs, rel=1e-13)


def one_block_weight_integral(w, exponent, r_max, cfg):
    """_weight_integral's product with the whole (radial, sphere) block at once."""
    r, wr, theta, wtheta = _polar_rule(exponent, w.dim, r_max, cfg)
    block = w.product_block(np.repeat(r[:, None], w.dim, axis=1), w.product_side(theta))
    return float((wr * r**exponent) @ block @ wtheta)


# the shipped plancherel config's first f, and its doubled plan
PLANCHEREL_F = random_gaussian(np.random.Generator(np.random.PCG64(np.random.SeedSequence(4))), 3)
PLANCHEREL_W = squared_fourier_weight(PLANCHEREL_F)
PLANCHEREL_DOUBLED = plan(seed=4, n_y=300).doubled()


@pytest.mark.parametrize(
    "w, exponent, cfg, shape",
    [
        (PLANCHEREL_W, 0.0, PLANCHEREL_DOUBLED, (96, 8192)),
        # lemma's doubled plan: the negative tau exponent rho - k + l = -1 of rho = 0
        (W3, -1.0, plan(n_radial=32, n_sphere=32).doubled(), (400, 2048)),
    ],
    ids=["plancherel-doubled", "lemma-negative"],
)
def test_sliced_weight_integral_is_bit_equal_to_one_block(w, exponent, cfg, shape):
    r_max = _tau_radius(w)
    r, _, theta, _ = _polar_rule(exponent, w.dim, r_max, cfg)
    assert (len(r), len(theta)) == shape and len(r) * len(theta) > BLOCK_VALUES
    assert _weight_integral(w, exponent, r_max, cfg) == one_block_weight_integral(w, exponent, r_max, cfg)


@pytest.mark.parametrize("nodes", [1, 5, 7, 13])
def test_slices_are_whole_groups_of_8_sphere_nodes(monkeypatch, nodes):
    # on this 320 x 256 rule, slices of 1, 5, 7 or 13 sphere nodes each move the last bit
    cfg = plan(n_radial=8, n_sphere=16)
    monkeypatch.setattr("surfconv.pullback.BLOCK_VALUES", 320 * nodes)
    r_max = _tau_radius(W3)
    assert _weight_integral(W3, -1.0, r_max, cfg) == one_block_weight_integral(W3, -1.0, r_max, cfg)


def shell_samples(monkeypatch, *args, **kwargs):
    """_lhs_shell_integral's estimates and the sample block of each seeded chunk."""
    chunks = []

    def recording(fn, *rest):
        return seeded_mean(lambda rng, n: chunks.append(fn(rng, n)) or chunks[-1], *rest)

    monkeypatch.setattr("surfconv.pullback.seeded_mean", recording)
    return _lhs_shell_integral(*args, **kwargs), chunks


@pytest.mark.parametrize("n_y", [400, 600])
@pytest.mark.parametrize("rows", [1, 5, 7, 13])
def test_shell_slices_are_whole_groups_of_8_y_samples(monkeypatch, rows, n_y):
    # chunks of 25, or 37 and 45, y-samples against 128 nodes: each product stays on one
    # BLAS thread.  Slices of 1, 5, 7 or 13 samples move the last bit of some samples,
    # and so does a lone last sample in a slice of its own (25 = 3 * 8 + 1).
    cfg = plan(n_y=n_y, n_radial=8, n_sphere=16)
    nodes = len(_polar_nodes(0.0, BANDED.l, 1.0, cfg)[0])
    monkeypatch.setattr("surfconv.pullback.BLOCK_VALUES", nodes * n_y)
    whole, whole_chunks = shell_samples(monkeypatch, BANDED, [0.0, 1.0], W3, cfg)
    monkeypatch.setattr("surfconv.pullback.BLOCK_VALUES", nodes * rows)
    sliced, sliced_chunks = shell_samples(monkeypatch, BANDED, [0.0, 1.0], W3, cfg)
    assert [c.tobytes() for c in sliced_chunks] == [c.tobytes() for c in whole_chunks]
    assert sliced == whole


# a child interpreter: the sample blocks of plancherel's doubled plan on its first f, as hex
_THREADS_CHILD = """
import surfconv.pullback as pullback
from surfconv.battery import battery_entry
from surfconv.gaussians import GaussianSpec
from surfconv.pullback import McConfig
chunks = []
seeded_mean = pullback.seeded_mean
pullback.seeded_mean = lambda fn, *rest: seeded_mean(
    lambda rng, n: chunks.append(fn(rng, n)) or chunks[-1], *rest)
pullback.plancherel_ratio(battery_entry("banded-3-2").matrix, {f!r}, {cfg!r})
print(*(c.tobytes().hex() for c in chunks))
"""


def outputs_on_1_and_2_blas_threads(code: str) -> list[str]:
    """The stdout of code in two child interpreters, with OPENBLAS_NUM_THREADS 1 and 2."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
                   OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, check=True)
        outputs.append(proc.stdout)
    return outputs


def test_shell_samples_do_not_depend_on_the_blas_thread_count():
    # OpenBLAS splits a matrix-vector product of enough rows over its threads; a split
    # that is not on a group of 8 rows moves the last bit of samples near it
    code = _THREADS_CHILD.format(f=PLANCHEREL_F, cfg=PLANCHEREL_DOUBLED)
    one, two = ([np.frombuffer(bytes.fromhex(c)) for c in out.split()]
                for out in outputs_on_1_and_2_blas_threads(code))
    assert len(one) == len(two) == 16
    differing = {i: int(np.sum(a != b)) for i, (a, b) in enumerate(zip(one, two))
                 if a.tobytes() != b.tobytes()}
    assert differing == {}, f"differing samples per chunk: {differing}"


# a child interpreter: tau-side integrals on a rule of 96 x 192 = 18 432 sphere nodes, as hex
_TAU_THREADS_CHILD = """
from surfconv.gaussians import GaussianSpec
from surfconv.pullback import McConfig, _tau_radius, _weight_integral
for w in {weights!r}:
    for exponent in (-1.0, 0.0):
        print(_weight_integral(w, exponent, _tau_radius(w), {cfg!r}).hex())
"""


def test_weight_integral_does_not_depend_on_the_blas_thread_count():
    # OpenBLAS splits a dot product of more than about 10 000 terms over its threads;
    # a sum over all 18 432 sphere nodes in one dot moved the last bit of all four values
    cfg = plan(n_radial=4, n_sphere=192)
    assert len(_polar_rule(0.0, 3, 1.0, cfg)[2]) == 18_432
    code = _TAU_THREADS_CHILD.format(weights=[W3, PLANCHEREL_W], cfg=cfg)
    one, two = (out.split() for out in outputs_on_1_and_2_blas_threads(code))
    assert len(one) == 4 and one == two


class TestFrequencyKernelMemory:
    """Warm peaks of the frequency kernel on the doubled plans of plancherel, where
    a shell block is at most 9 x 12 288 exponents (0.9 MB) and the tau rule
    96 x 8 192, and of lemma-mc."""

    def test_plancherel_ratio_holds_one_slice_of_8_y_samples(self):
        # slices of 8 y-samples: 1.8 MB; a whole chunk of 45 per block: 5.8 MB
        matrix = battery_entry("banded-3-2").matrix
        peak = warm_peak(lambda: plancherel_ratio(matrix, PLANCHEREL_F, PLANCHEREL_DOUBLED))
        assert peak < 2_000_000

    def test_lemma_ratio_holds_one_slice_of_8_y_samples(self):
        # the shipped lemma-mc config's first weight on its doubled plan, both rhos:
        # slices of 8 y-samples: 0.94 MB; a whole chunk per block: 2.0 MB
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(11)))
        w = random_gaussian(rng, 3, normalized=False)
        cfg = plan(seed=11, n_y=300, n_radial=32, n_sphere=32).doubled()
        peak = warm_peak(lambda: pullback_weight_ratio(BANDED, [0.0, 1.0], w, cfg))
        assert peak < 1_200_000

    def test_weight_integral_holds_one_sphere_slice(self):
        # 96 x 680 values per slice: 1.0 MB; the whole 96 x 8 192 block: 8.6 MB
        w = PLANCHEREL_W
        peak = warm_peak(lambda: _weight_integral(w, 0.0, _tau_radius(w), PLANCHEREL_DOUBLED))
        assert peak < 1_500_000


@pytest.mark.parametrize("name", ["banded-3-2", "paraboloid-2-1"])
@pytest.mark.parametrize(
    "rhos, j",
    [([0.0, 1.0], j) for j in (-1, 1, 2, 3, 30)] + [([-0.5, 0.5], j) for j in (2, 30)],
)
def test_frequency_estimators_obey_the_tail_dilation_exactly(name, rhos, j):
    # zeta -> zeta / eps carries the shell integral of eps C onto that of C, so at
    # eps = 2^-j the lhs and its stderr scale by 2^(j (rho + l)) and the rhs (w alone)
    # stays; plancherel_ratio is the case rho = k - l.  With j (rho + l) whole, every
    # node, weight and r^rho scales by a power of 2 (odd j at rho = 0.5 is 1 ulp off).
    matrix = battery_entry(name).matrix
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(3)))
    w, f = random_gaussian(rng, matrix.k, normalized=False), random_gaussian(rng, matrix.k)
    cfg = plan(n_y=64, n_radial=8, n_sphere=8)
    pairs = list(zip(pullback_weight_ratio(matrix, rhos, w, cfg),
                     pullback_weight_ratio(dilated(matrix, j), rhos, w, cfg), rhos))
    pairs.append((plancherel_ratio(matrix, f, cfg), plancherel_ratio(dilated(matrix, j), f, cfg),
                  matrix.k - matrix.l))
    for base, small, rho in pairs:
        e = int(j * (rho + matrix.l))
        assert e == j * (rho + matrix.l)
        assert (small.lhs, small.stderr, small.rhs) == (
            math.ldexp(base.lhs, e), math.ldexp(base.stderr, e), base.rhs)


def test_multi_rho_shell_integral_is_bit_equal_to_single_rho_calls():
    w = GaussianSpec(dim=3, amplitude=1.2, mean=(0.1, 0.4, -0.3), sigmas=(0.8, 1.1, 0.7))
    cfg = plan(n_y=60, n_radial=8, n_sphere=8, seed=13)
    rhos = [-0.5, 0.0, 0.0, 1.0]
    shared = _lhs_shell_integral(BANDED, rhos, w, cfg)
    assert shared == [_lhs_shell_integral(BANDED, [rho], w, cfg)[0] for rho in rhos]
    for rho, rep in zip(rhos, pullback_weight_ratio(BANDED, rhos, w, cfg)):
        one = pullback_weight_ratio(BANDED, rho, w, cfg)
        assert (rep.lhs, rep.rhs, rep.stderr) == (one.lhs, one.rhs, one.stderr)


@pytest.mark.parametrize("mode", ["selected", "defining"])
def test_cover_regions_equal_region_weight_ratio_lhs(mode):
    cfg = plan(n_y=64, n_radial=12, n_sphere=12, seed=9)
    total = pullback_weight_ratio(BANDED, 0.5, W3, cfg).lhs
    cov = region_cover_factor(BANDED, 0.5, W3, total, cfg, mode=mode)
    for label, lhs in cov["per_region"].items():
        q = tuple(int(i) for i in label.split("-"))
        assert lhs == region_weight_ratio(BANDED, 0.5, W3, q, cfg, mode=mode).lhs


def test_doubling_reduces_or_keeps_error_one_d():
    w = GaussianSpec(dim=1, amplitude=1.0, mean=(0.2,), sigmas=(0.9,))
    cfg = plan(n_y=1000, seed=41)
    oracle = one_d_oracle(1.5, 1.0)
    r1 = pullback_weight_ratio(SCALAR, 1.0, w, cfg)
    r2 = pullback_weight_ratio(SCALAR, 1.0, w, cfg.doubled())
    assert abs(r2.ratio - oracle) / oracle < 0.03
    assert abs(r2.ratio - r1.ratio) / r1.ratio < 0.10

"""Surface measure, convolution norms, and the dyadic-shell estimators.

Oracles used here:
  * total mass = Lebesgue measure of the unit ball in R^k,
  * atom counts of the windowed kernel vs a brute-force sum over all atoms,
    either side of every flip of the one certificate each test set runs,
  * lq_norm_mc vs its per-chunk reference (oracles.lq_norm_per_chunk), bit for bit,
  * pushforward integrals vs direct Gauss-Legendre quadrature on the base,
  * an L^q grid oracle for the parabola (dense z-grid + power-mean),
  * a 1-d erf closed form for the shell bilinear pairing,
  * the paper's tail dilation (y; z) -> (y; z / eps), exact at eps = 2^-j.
"""

import itertools
import math
import re
import tracemalloc
import warnings
from fractions import Fraction
from math import erf

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import atom_points, dilated, l2_norm_sq, lq_norm_per_chunk
from surfconv import convolution
from surfconv.battery import battery_entry, load_battery
from surfconv.convolution import (
    _SKIP_SLACK,
    BallSet,
    BoxUnionSet,
    ShearedBoxSet,
    SurfaceMeasure,
    TangentTubeSet,
    _support_tube,
    ball_scaling_experiment,
    lq_norm_mc,
    restricted_estimate_scan,
    shell_bilinear_estimate,
    shell_sum_estimate,
    standard_set_family,
)
from surfconv.exponents import critical_q0
from surfconv.gaussians import GaussianSpec, random_gaussian
from surfconv.quadrature import gauss_legendre_interval
from surfconv.surface import CoefficientMatrix, comparability_constant, surface_heights

PARABOLOID = CoefficientMatrix.from_rows([[1], [1]])  # k=2 l=1 d=3
PARABOLA = CoefficientMatrix.from_rows([[1]])  # k=1 l=1 d=2
BANDED = CoefficientMatrix.from_rows([[1, 0], [1, 1], [0, 1]])  # k=3 l=2 d=5
MIXED_SIGNS = CoefficientMatrix.from_rows([[1, -2], [Fraction(1, 2), 1], [-1, 3]])  # k=3 l=2


def total_mass(mu):
    return len(atom_points(mu)) * mu.spacing**mu.k


@pytest.fixture(scope="module")
def mu_paraboloid():
    return SurfaceMeasure(PARABOLOID, 256)


@pytest.fixture(scope="module")
def mu_parabola():
    return SurfaceMeasure(PARABOLA, 128)


@pytest.fixture(scope="module")
def mu_parabola_fine():
    return SurfaceMeasure(PARABOLA, 256)


class TestMeasureAtoms:
    def test_total_mass_is_unit_ball_area(self, mu_paraboloid):
        assert abs(total_mass(mu_paraboloid) - math.pi) / math.pi < 0.005

    def test_parabola_atoms_sit_on_the_graph(self, mu_parabola):
        pts = atom_points(mu_parabola)
        assert np.allclose(pts[:, 1], pts[:, 0] ** 2)
        assert np.abs(pts[:, 0]).max() < 1.0
        assert abs(total_mass(mu_parabola) - 2.0) < 0.01

    def test_pushforward_integral_vs_quadrature(self, mu_parabola):
        g = GaussianSpec(dim=2, amplitude=1.0, mean=(0.2, 0.3), sigmas=(0.5, 0.7))
        val = float(np.sum(g.evaluate(atom_points(mu_parabola)))) * mu_parabola.spacing
        y, w = gauss_legendre_interval(200, -1.0, 1.0)
        oracle = float(np.sum(w * g.evaluate(np.stack([y, y * y], axis=1))))
        assert abs(val - oracle) / oracle < 0.005

    def test_coarse_resolution_rejected(self):
        with pytest.raises(ValueError):
            SurfaceMeasure(PARABOLOID, 4)

    def test_huge_grid_refuses_to_materialize(self):
        mu = SurfaceMeasure(BANDED, 512)  # 512^3 atom candidates
        with pytest.raises(MemoryError):
            atom_points(mu)

    @pytest.mark.filterwarnings("ignore:row-submatrix condition fails")
    @pytest.mark.parametrize("entry", load_battery(), ids=lambda e: e.entry_id)
    def test_atom_count_matches_the_materialized_grid(self, entry):
        # a box holding every atom's head and tail counts them all, for every k
        # including random-4-3's k = 4
        mu = SurfaceMeasure(entry.matrix, 16)
        k, l = mu.k, mu.l
        tail = 1.0 + float(np.abs(entry.matrix.array).sum())
        box = BoxUnionSet(((-1.0,) * k + (-tail,) * l,), ((1.0,) * k + (tail,) * l,))
        assert mu.convolve_many(box, np.zeros((1, mu.d)))[0] == total_mass(mu)


class TestConvolveAt:
    def test_huge_ball_recovers_total_mass(self, mu_paraboloid):
        z = np.array([0.1, 0.2, surface_heights(PARABOLOID, np.array([0.1, 0.2]))[0]])
        full = mu_paraboloid.convolve_many(BallSet((0.0, 0.0, 0.0), 10.0), z[None])[0]
        assert abs(full - total_mass(mu_paraboloid)) < 1e-12

    def test_pointwise_height_scales_like_delta_k(self, mu_paraboloid):
        # mu * chi_B(z, delta) at a point z of the surface is ~ delta^k
        z = np.array([0.1, 0.2, surface_heights(PARABOLOID, np.array([0.1, 0.2]))[0]])
        deltas = [2.0**-e for e in (3, 4, 5)]
        vals = [mu_paraboloid.convolve_many(BallSet(tuple(z), dd), z[None])[0] for dd in deltas]
        slope = np.polyfit(np.log(deltas), np.log(vals), 1)[0]
        assert abs(slope - 2.0) < 0.15

    def test_translation_invariance_exact(self, mu_paraboloid):
        z = np.array([0.1, 0.2, surface_heights(PARABOLOID, np.array([0.1, 0.2]))[0]])
        E = BallSet((0.05, -0.1, 0.2), 0.25)
        v = np.array([0.3, -0.2, 0.15])
        a = mu_paraboloid.convolve_many(E, z[None])[0]
        b = mu_paraboloid.convolve_many(BallSet(tuple(np.array(E.center) + v), E.radius),
                                        (z + v)[None])[0]
        assert a == b


def set_kinds(matrix, rng):
    """One test set of each kind, placed near the surface of the matrix."""
    k, d = matrix.k, matrix.d
    y = rng.uniform(-0.3, 0.3, k)
    on_surface = np.concatenate([y, surface_heights(matrix, y)])
    box_lo = rng.uniform(-0.4, 0.0, d)
    return {
        "ball": BallSet(tuple(on_surface), 0.15),
        "box-union": BoxUnionSet(
            (tuple(box_lo), tuple(box_lo + 0.3)),
            (tuple(box_lo + 0.1), tuple(box_lo + rng.uniform(0.35, 0.45, d))),
        ),
        "tube": TangentTubeSet(matrix, tuple(y), 0.125, 0.05),
        "sheared": ShearedBoxSet(matrix, BoxUnionSet((tuple(box_lo),), (tuple(box_lo + 0.2),))),
    }


def brute_force_counts(mu, test_set, zs):
    cols = atom_points(mu).T
    counts = [np.count_nonzero(test_set.contains_coords(z[:, None] - cols)) for z in zs]
    return np.array(counts) * mu.spacing**mu.k


def kernel_keeps(mu, test_set, z):
    lo, hi = test_set.bounding_box()
    return bool(mu._head_windows(test_set, np.asarray(lo), np.asarray(hi), z[None, :])[2][0])


def bisect_flip(test, z, far):
    """Adjacent points on the segment z -> far either side of a change in test; far's end
    when test(far) == test(z) and nothing flips."""
    start, a, b = test(z), 0.0, 1.0
    for _ in range(60):
        mid = (a + b) / 2.0
        if test(z + mid * (far - z)) == start:
            a = mid
        else:
            b = mid
    return z + a * (far - z), z + b * (far - z)


def z_battery(mu, test_set, rng):
    """z from the support tube, either side of the skip test, and off the grid."""
    k, d = mu.k, mu.d
    lo, hi = test_set.bounding_box()
    cand = rng.uniform(lo, hi, (200_000, d))
    in_set = cand[test_set.contains_coords(cand.T)][:60]
    atoms = atom_points(mu)
    support = atoms[rng.integers(0, len(atoms), len(in_set))] + in_set
    battery = [support]
    starts = [z for z in support if kernel_keeps(mu, test_set, z)][:4]
    for z in starts:
        for axis in range(d):
            for sign in (-1.0, 1.0):
                far = z.copy()
                far[axis] += sign * 4.0
                battery.append(np.stack(bisect_flip(lambda x: kernel_keeps(mu, test_set, x), z, far)))
    off_grid = support[:5].copy()
    off_grid[:, 0] = 3.0
    battery.append(off_grid)
    return np.concatenate(battery)


class TestKernelOracle:
    @pytest.mark.parametrize("kind", ["ball", "box-union", "tube", "sheared"])
    @pytest.mark.parametrize("matrix,resolution", [(PARABOLOID, 64), (BANDED, 32), (MIXED_SIGNS, 32)],
                             ids=["k2", "k3", "k3-mixed"])
    def test_counts_match_brute_force(self, matrix, resolution, kind):
        rng = np.random.default_rng(resolution)
        mu = SurfaceMeasure(matrix, resolution)
        test_set = set_kinds(matrix, rng)[kind]
        zs = z_battery(mu, test_set, rng)
        got = mu.convolve_many(test_set, zs)
        assert np.array_equal(got, brute_force_counts(mu, test_set, zs))
        keeps = [kernel_keeps(mu, test_set, z) for z in zs]
        assert any(keeps) and not all(keeps)
        assert np.count_nonzero(got) >= 60


def kept_columns(mu, test_set, z) -> int:
    """Window columns of z that the column certificate keeps; 0 where the row certificate drops z."""
    lo, hi = (np.asarray(b) for b in test_set.bounding_box())
    base, reach, may_hit = mu._head_windows(test_set, lo, hi, z[None, :])
    if not may_hit[0]:
        return 0
    mask = mu._column_certificate(test_set, lo, hi, z[None, :], base, reach)[1]
    return int(np.count_nonzero(mask(slice(None))))


class TestColumnCertificate:
    @pytest.mark.parametrize("kind", ["ball", "box-union", "tube", "sheared"])
    @pytest.mark.parametrize("matrix,resolution", [(PARABOLOID, 64), (BANDED, 32), (MIXED_SIGNS, 32)],
                             ids=["k2", "k3", "k3-mixed"])
    def test_counts_match_brute_force_where_a_column_flips(self, matrix, resolution, kind):
        # moving z along any axis drops window columns one at a time; either side of each
        # drop the kernel must count exactly what a sum over every atom counts
        rng = np.random.default_rng(resolution + 1)
        mu = SurfaceMeasure(matrix, resolution)
        test_set = set_kinds(matrix, rng)[kind]
        lo, hi = test_set.bounding_box()
        cand = rng.uniform(lo, hi, (200_000, mu.d))
        in_set = cand[test_set.contains_coords(cand.T)][:20]
        atoms = atom_points(mu)
        starts = atoms[rng.integers(0, len(atoms), len(in_set))] + in_set
        pairs = []
        for z in starts[:3]:
            for axis in range(mu.d):
                for sign in (-1.0, 1.0):
                    far = z.copy()
                    far[axis] += sign * 4.0
                    pairs.append(np.stack(bisect_flip(lambda x: kept_columns(mu, test_set, x), z, far)))
        zs = np.concatenate(pairs)
        kept = np.array([kept_columns(mu, test_set, z) for z in zs]).reshape(-1, 2)
        # most pairs straddle a column drop, not the row certificate's
        assert np.count_nonzero((kept[:, 0] != kept[:, 1]) & (kept.min(axis=1) > 0)) > len(kept) // 2
        assert np.array_equal(mu.convolve_many(test_set, zs), brute_force_counts(mu, test_set, zs))


def flip_pairs(test, starts, span):
    """Adjacent points either side of a change in test(z), on the segments from each
    start along each axis, both ways, to span away; a segment with no change gives none."""
    pairs = []
    for z in starts:
        for axis in range(len(z)):
            for sign in (-1.0, 1.0):
                far = z.copy()
                far[axis] += sign * span
                if test(far) != test(z):
                    pairs.append(np.stack(bisect_flip(test, z, far)))
    return np.concatenate(pairs)


# (matrix, resolution, ball radius): every ball test at k = 1 to 4 and l = 1 to 3, a
# radius of 2^-20, and tails thinned to 2^-30 (all but flat, where the bound is tightest)
BALL_CASES = [
    pytest.param(PARABOLA, 128, 0.15, id="parabola-1-1"),
    pytest.param(PARABOLOID, 64, 0.15, id="paraboloid-2-1"),
    pytest.param(BANDED, 32, 0.15, id="banded-3-2"),
    pytest.param(MIXED_SIGNS, 32, 0.15, id="mixed-signs"),
    pytest.param(battery_entry("random-4-3").matrix, 16, 0.3, id="random-4-3"),
    pytest.param(BANDED, 32, 2.0**-20, id="banded-3-2-radius-2^-20"),
    pytest.param(dilated(BANDED, 30), 32, 0.15, id="banded-3-2-tails-2^-30"),
]


def ball_near_atoms(mu, radius, rng, n):
    """A ball on the surface, and n z that each hold an atom: z - center within radius / 2 of one."""
    y = rng.uniform(-0.3, 0.3, mu.k)
    ball = BallSet(tuple(np.concatenate([y, surface_heights(mu.matrix, y)])), radius)
    atoms = atom_points(mu)
    v = rng.normal(size=(n, mu.d))
    v *= radius / 2.0 * rng.uniform(0.0, 1.0, (n, 1)) / np.linalg.norm(v, axis=1, keepdims=True)
    return ball, atoms[rng.integers(0, len(atoms), n)] + np.array(ball.center) + v


class TestBallTests:
    @pytest.mark.filterwarnings("ignore:row-submatrix condition fails")
    @pytest.mark.parametrize("matrix,resolution,radius", BALL_CASES)
    def test_counts_match_brute_force_where_the_row_test_flips(self, matrix, resolution, radius):
        # either side of each flip of the distance-to-graph row test the kernel must count
        # exactly what a sum over every atom counts
        mu = SurfaceMeasure(matrix, resolution)
        ball, starts = ball_near_atoms(mu, radius, np.random.default_rng(resolution), 3)
        zs = flip_pairs(lambda z: kernel_keeps(mu, ball, z), starts, 4.0)
        kept = np.array([kernel_keeps(mu, ball, z) for z in zs]).reshape(-1, 2)
        assert len(kept) >= mu.d and (kept[:, 0] != kept[:, 1]).all()
        zs = np.concatenate([starts, zs])
        got = mu.convolve_many(ball, zs)
        assert np.array_equal(got, brute_force_counts(mu, ball, zs)) and got[:3].all()

    @pytest.mark.filterwarnings("ignore:row-submatrix condition fails")
    @pytest.mark.parametrize("matrix,resolution,radius", [p for p in BALL_CASES if p.values[0].k > 1])
    def test_counts_match_brute_force_where_the_column_test_flips(self, matrix, resolution, radius):
        # the ball's column test (the disk of fixed heads, then the tangent line of the
        # column's curve) drops columns one at a time as z moves
        mu = SurfaceMeasure(matrix, resolution)
        ball, starts = ball_near_atoms(mu, radius, np.random.default_rng(resolution + 1), 3)
        zs = flip_pairs(lambda z: kept_columns(mu, ball, z), starts, 4.0)
        rows = np.array([kernel_keeps(mu, ball, z) for z in zs]).reshape(-1, 2)
        # most pairs straddle a column drop, not the row test's
        assert np.count_nonzero(rows.all(axis=1)) > len(rows) // 2
        zs = np.concatenate([starts, zs])
        got = mu.convolve_many(ball, zs)
        assert np.array_equal(got, brute_force_counts(mu, ball, zs)) and got[:3].all()


@pytest.mark.parametrize("matrix,resolution", [(PARABOLA, 128), (PARABOLOID, 64), (BANDED, 32)],
                         ids=["k1", "k2", "k3"])
def test_each_set_runs_one_certificate(matrix, resolution, monkeypatch):
    # a ball runs only the distance-to-graph tests, every other set only the box-interval tests
    def refused(*args):
        raise AssertionError("this set's kernel ran the other certificate")

    mu = SurfaceMeasure(matrix, resolution)
    rng = np.random.default_rng(resolution + 2)
    atoms = atom_points(mu)
    for kind, test_set in set_kinds(matrix, rng).items():
        # z that hold an atom (an atom plus a point of the set), and z from the support tube
        cand = rng.uniform(*test_set.bounding_box(), (20_000, mu.d))
        in_set = cand[test_set.contains_coords(cand.T)][:100]
        zs = np.concatenate([atoms[rng.integers(0, len(atoms), len(in_set))] + in_set,
                             tube_zs(mu, test_set, 200, resolution)])
        expected = brute_force_counts(mu, test_set, zs)
        with monkeypatch.context() as patch:
            patch.setattr(convolution, "_may_hit" if kind == "ball" else "_near_graph", refused)
            got = mu.convolve_many(test_set, zs)
        assert np.array_equal(got, expected) and np.count_nonzero(got) > 0, kind


def tube_zs(mu, test_set, n, seed):
    """n z drawn as lq_norm_mc draws them: uniform in the set's support tube."""
    rng = np.random.default_rng(seed)
    c, head_half, band = _support_tube(mu, test_set)
    k, l = mu.k, mu.l
    heads = c[:k] + rng.uniform(-1.0, 1.0, (n, k)) * head_half
    offs = rng.uniform(-1.0, 1.0, (n, l)) * band
    return np.concatenate([heads, c[k:] + surface_heights(mu.matrix, heads - c[:k]) + offs], axis=1)


def surface_ball(matrix, y, radius):
    y = np.asarray(y, dtype=float)
    return BallSet(tuple(np.concatenate([y, surface_heights(matrix, y)])), radius)


class TestKernelScratch:
    def test_warm_call_allocates_no_full_window_arrays(self):
        # one lq_norm_mc chunk (375 z) at the first center of the shipped k = 3 ball scan
        mu = SurfaceMeasure(BANDED, 256)
        ball = surface_ball(BANDED, (0.0, 0.0, 0.0), 1 / 32)
        zs = tube_zs(mu, ball, 375, 3)
        first = mu.convolve_many(ball, zs)
        tracemalloc.start()
        try:
            second = mu.convolve_many(ball, zs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.count_nonzero(first) > 0 and np.array_equal(first, second)
        assert peak < 1_000_000

    def test_warm_k2_call_on_a_restricted_scan_set_stays_small(self):
        # one lq_norm_mc chunk (1500 / 8 z) of the shipped restricted scan on its widest
        # box union, a 69 x 61 window: the certificate grids and the gathered last-axis
        # squares, coordinates and height terms are all bounded by the batch
        mu = SurfaceMeasure(PARABOLOID, 128)
        boxes = dict(standard_set_family(PARABOLOID, 8, 8))["boxes-7"]
        zs = tube_zs(mu, boxes, 188, 3)
        first = mu.convolve_many(boxes, zs)
        tracemalloc.start()
        try:
            second = mu.convolve_many(boxes, zs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.count_nonzero(first) > 0 and np.array_equal(first, second)
        assert peak < 500_000

    def test_results_are_not_scratch_views(self):
        mu = SurfaceMeasure(PARABOLOID, 64)
        rng = np.random.default_rng(5)
        a, b = surface_ball(PARABOLOID, (0.1, 0.2), 0.2), surface_ball(PARABOLOID, (-0.3, 0.0), 0.1)
        pts_a, pts_b = rng.uniform(-0.5, 0.5, (2, 500, 3))
        counts = mu.convolve_many(a, tube_zs(mu, a, 200, 1))
        kept_counts = counts.copy()
        mask = a.contains_coords(pts_a.T)
        kept_mask = mask.copy()
        b.contains_coords(pts_b.T)
        mu.convolve_many(b, tube_zs(mu, b, 300, 2))
        assert np.array_equal(mask, kept_mask) and np.array_equal(counts, kept_counts)
        assert mask.any() and counts.any()

    def test_cold_call_peak_is_bounded_and_nothing_outlives_it(self):
        # the same shipped k = 3 chunk, measured on its first call: every batch array is
        # freed when the call returns, so traced memory goes back to its level before it
        mu = SurfaceMeasure(BANDED, 256)
        ball = surface_ball(BANDED, (0.0, 0.0, 0.0), 1 / 32)
        zs = tube_zs(mu, ball, 375, 3)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            counts = mu.convolve_many(ball, zs)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.count_nonzero(counts) > 0
        assert peak < 1_000_000
        assert abs(after - before) < 65_536


    def test_cold_whole_estimate_call_peak_is_bounded_and_nothing_outlives_it(self):
        # all 3 000 z of one shipped k = 3 estimate in one call, as lq_norm_mc makes it
        mu = SurfaceMeasure(BANDED, 256)
        ball = surface_ball(BANDED, (0.0, 0.0, 0.0), 1 / 32)
        zs = tube_zs(mu, ball, 3000, 3)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            counts = mu.convolve_many(ball, zs)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.count_nonzero(counts) > 0
        assert peak < 1_000_000
        assert abs(after - before) < 65_536


@pytest.mark.parametrize("batch", [7, 8_192])
@pytest.mark.parametrize("name,resolution", [("paraboloid-2-1", 64), ("banded-3-2", 32)])
def test_convolve_many_on_joined_z_is_the_joined_results(name, resolution, batch, monkeypatch):
    # one call per estimate: the z of several calls joined give those calls' counts joined,
    # whether a call spans one row batch or many
    monkeypatch.setattr(convolution, "_BATCH_POINTS", batch)
    matrix = battery_entry(name).matrix
    mu = SurfaceMeasure(matrix, resolution)
    for kind, test_set in set_kinds(matrix, np.random.default_rng(3)).items():
        zs = tube_zs(mu, test_set, 300, 6)
        joined = mu.convolve_many(test_set, zs)
        parts = [mu.convolve_many(test_set, part) for part in np.split(zs, [1, 100, 163])]
        assert np.count_nonzero(joined) > 0, kind
        assert np.array_equal(joined, np.concatenate(parts)), kind


@pytest.mark.parametrize("name,resolution", [("paraboloid-2-1", 64), ("banded-3-2", 32)])
def test_convolve_many_does_not_depend_on_the_batch_size(name, resolution, monkeypatch):
    # the batch bounds memory only; at 1 and 7 every window here has more than 7 columns
    # of more than 3 last-axis points, so each batch is one row and one column
    matrix = battery_entry(name).matrix
    mu = SurfaceMeasure(matrix, resolution)
    for kind, test_set in set_kinds(matrix, np.random.default_rng(2)).items():
        zs = tube_zs(mu, test_set, 300, 5)
        results = []
        for batch in (1, 7, 64, 8_192, 32_768):
            monkeypatch.setattr(convolution, "_BATCH_POINTS", batch)
            results.append(mu.convolve_many(test_set, zs))
        assert np.count_nonzero(results[0]) > 0, kind
        assert all(np.array_equal(r, results[0]) for r in results[1:]), kind


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["ball", "box-union", "tube", "sheared"]),
    st.sampled_from([PARABOLOID, BANDED, MIXED_SIGNS]),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_contained_points_lie_in_the_bounding_box(kind, matrix, seed):
    # the empty-window skip in convolve_many relies on exactly this, up to its slack
    rng = np.random.default_rng(seed)
    test_set = set_kinds(matrix, rng)[kind]
    lo, hi = test_set.bounding_box()
    pts = lo + (hi - lo) * rng.uniform(-0.05, 1.05, (4000, matrix.d))
    inside = pts[test_set.contains_coords(pts.T)]
    assert ((inside >= lo - _SKIP_SLACK) & (inside <= hi + _SKIP_SLACK)).all()


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["ball", "box-union", "tube", "sheared"]),
    st.sampled_from([PARABOLA, PARABOLOID, BANDED]),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_support_tube_contains_every_atom_plus_set_point(kind, matrix, seed):
    # lq_norm_mc samples only this tube: mu * chi_E must vanish outside it
    rng = np.random.default_rng(seed)
    test_set = set_kinds(matrix, rng)[kind]
    mu = SurfaceMeasure(matrix, 16)
    c, head_half, band = _support_tube(mu, test_set)
    lo, hi = test_set.bounding_box()
    d, k = matrix.d, matrix.k
    corners = np.array(np.meshgrid(*zip(lo, hi), indexing="ij")).reshape(d, -1).T
    cand = np.concatenate([corners, lo + (hi - lo) * rng.uniform(0.0, 1.0, (2000, d))])
    es = cand[test_set.contains_coords(cand.T)][:300]
    assert len(es) > 0
    zs = (atom_points(mu)[:, None, :] + es[None, :, :]).reshape(-1, d)
    dh = zs[:, :k] - c[:k]
    assert (np.abs(dh) <= head_half + 1e-12).all()
    pred = c[k:] + surface_heights(matrix, dh)
    assert (np.abs(zs[:, k:] - pred) <= band + 1e-12).all()


def _plain_ball_test(ball, point) -> bool:
    """Python floats, squares summed evens first, then odds, each left to right."""
    sq = [(float(x) - c) * (float(x) - c) for x, c in zip(point, ball.center)]
    even = odd = 0.0
    for v in sq[0::2]:
        even += v
    for v in sq[1::2]:
        odd += v
    return even + odd <= ball.radius**2


def _plain_box_test(boxes, point) -> bool:
    return any(
        all(a <= float(x) < b for x, a, b in zip(point, lo, hi))
        for lo, hi in zip(boxes.lows, boxes.highs)
    )


def _plain_tube_test(tube, point) -> bool:
    """Python floats; each tail predicted as base_j + sum_i (x_i - y0_i) jac_ij, left to right."""
    k, c, y0 = tube.matrix.k, tube.matrix.array.tolist(), tube.y0
    x = [float(v) for v in point]
    dh = [x[i] - y0[i] for i in range(k)]
    if any(abs(v) > tube.half_width for v in dh):
        return False
    for j, u in enumerate(x[k:]):
        base = sum(y0[i] * y0[i] * c[i][j] for i in range(k))
        pred = base + sum(dh[i] * (2.0 * c[i][j] * y0[i]) for i in range(k))
        if abs(u - pred) > tube.thickness:
            return False
    return True


def _plain_sheared_test(sheared, point) -> bool:
    """Python floats; tail j unsheared to 2 u_j - sum_i x_i^2 c_ij, left to right."""
    k, c = sheared.matrix.k, sheared.matrix.array.tolist()
    x = [float(v) for v in point]
    tails = [2.0 * u - sum(x[i] * x[i] * c[i][j] for i in range(k)) for j, u in enumerate(x[k:])]
    return _plain_box_test(sheared.base, x[:k] + tails)


_PLAIN_TESTS = {"ball": _plain_ball_test, "box-union": _plain_box_test,
                "tube": _plain_tube_test, "sheared": _plain_sheared_test}


def _membership_case(kind, matrix, rng):
    """A test set, per-axis values that include its faces, and a point on its closed side.

    Every set sits on dyadic coordinates, so face values are exact: c + 3r/5
    and c + 4r/5 put a point at distance exactly r from the ball's center,
    the tube's tangent predictions are exact, and so is the unshearing of a
    point over the sheared box's low corner.
    """
    k, d = matrix.k, matrix.d
    corner = rng.integers(-8, 9, d) / 16.0
    if kind == "ball":
        test_set = BallSet(tuple(corner), 0.625)
        offsets = 0.625 * np.array([-1.0, -0.8, -0.6, 0.0, 0.6, 0.8, 1.0])
        values = [c + offsets for c in test_set.center]
        boundary = corner.copy()  # at distance exactly 5/8 from the center
        boundary[0] += 0.6 * 0.625
        boundary[-1] += 0.8 * 0.625
    elif kind == "box-union":
        test_set = BoxUnionSet(
            (tuple(corner), tuple(corner + 0.5)), (tuple(corner + 0.25), tuple(corner + 0.75))
        )
        values = [np.array([corner[i], corner[i] + 0.25, corner[i] + 0.5, corner[i] + 0.75])
                  for i in range(d)]
        boundary = corner  # the low corner of the first box
    elif kind == "tube":
        y0 = corner[:k] / 2.0
        test_set = TangentTubeSet(matrix, tuple(y0), 0.125, 0.0625)
        head = y0 + 0.125
        pred = surface_heights(matrix, y0) + (head - y0) @ (2.0 * matrix.array * y0[:, None])
        values = [y + 0.125 * np.array([-1.0, 0.0, 1.0]) for y in y0]
        values += [p + 0.0625 * np.array([-1.0, 0.0, 1.0]) for p in pred]
        boundary = np.concatenate([head, pred + 0.0625])  # a corner of the tube
    else:
        test_set = ShearedBoxSet(matrix, BoxUnionSet((tuple(corner),), (tuple(corner + 0.5),)))
        y = corner[:k]
        h = surface_heights(matrix, y)
        values = [np.array([c, c + 0.5]) for c in y]
        values += [(np.array([c, c + 0.5]) + hj) / 2.0 for c, hj in zip(corner[k:], h)]
        boundary = np.concatenate([y, (corner[k:] + h) / 2.0])  # unshears to the low corner
    lo, hi = test_set.bounding_box()
    values = [np.concatenate([v, rng.uniform(a - 0.1, b + 0.1, 6)])
              for v, a, b in zip(values, lo, hi)]
    return test_set, values, boundary


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["ball", "box-union", "tube", "sheared"]),
    st.sampled_from([PARABOLA, PARABOLOID, BANDED]),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_contains_coords_on_tables_and_columns_matches_a_plain_oracle(kind, matrix, seed):
    # convolve_many hands each set (B, 1, .., n_i, .., 1) head tables and full tail
    # arrays; shell_bilinear_estimate hands it (N,) columns
    rng = np.random.default_rng(seed)
    k, d = matrix.k, matrix.d
    test_set, values, boundary = _membership_case(kind, matrix, rng)
    n_rows, n = 3, 4
    full = (n_rows,) + (n,) * k
    coords = []
    for i in range(d):
        shape = [n_rows] + [n if a == i else 1 for a in range(k)] if i < k else list(full)
        coords.append(rng.choice(values[i], size=shape))
    for x, v in zip(coords, boundary):  # the point at index (0, ..., 0) lies on the boundary
        x[(0,) * x.ndim] = v
    got = test_set.contains_coords(coords)
    pts = np.stack(np.broadcast_arrays(*coords), axis=-1).reshape(-1, d)
    assert got.shape == full
    assert got[(0,) * got.ndim]
    assert np.array_equal(got.ravel(), test_set.contains_coords(pts.T))
    assert got.ravel().tolist() == [_PLAIN_TESTS[kind](test_set, p) for p in pts]


@pytest.mark.parametrize("d", range(1, 8))
def test_ball_sums_squares_in_a_fixed_order(d):
    # each radius puts r**2 exactly on the smaller of two sums of the same squares,
    # evens-then-odds and left to right, so only the fixed order gets every row right
    rng = np.random.default_rng(d)
    points = rng.uniform(-1.0, 1.0, (4000, d))
    center = tuple(float(c) for c in rng.uniform(-0.5, 0.5, d))
    checked = differ = 0
    for point in points:
        # x * x: float ** 2 goes through libm pow, which may round differently
        sq = [(float(x) - c) * (float(x) - c) for x, c in zip(point, center)]
        fixed = sum(sq[0::2]) + sum(sq[1::2])
        target = min(fixed, sum(sq))
        r = math.sqrt(target)
        for _ in range(4):
            if r**2 == target:
                break
            r = math.nextafter(r, math.inf if r**2 < target else 0.0)
        if r**2 != target or r <= 0:
            continue
        ball = BallSet(center, r)
        assert _plain_ball_test(ball, point) == (fixed <= r**2)
        assert bool(ball.contains_coords(point[:, None])[0]) == (fixed <= r**2)
        checked += 1
        differ += fixed != sum(sq)
    assert checked > 1000
    assert differ > 10 or d <= 2


class TestSetGeometry:
    def test_empty_box_union_is_refused(self):
        with pytest.raises(ValueError, match="a box union needs at least one box"):
            BoxUnionSet((), ())

    def test_tangent_tube_measure(self):
        tube = TangentTubeSet(BANDED, (0.2, -0.1, 0.3), 0.125, 0.05)
        assert abs(tube.measure - (0.25**3) * (0.1**2)) < 1e-15

    def test_sheared_box_measure_and_membership(self):
        base = BoxUnionSet(((-0.5, -0.5, -0.5, -0.4, -0.4),), ((0.5, 0.5, 0.5, 0.4, 0.4),))
        sh = ShearedBoxSet(BANDED, base)
        # shear halves the last l coordinates: factor 2^-l
        assert abs(sh.measure - base.measure / 4.0) < 1e-12
        rng = np.random.default_rng(3)
        pts = rng.uniform(-1, 1, (2000, 5))
        direct = sh.contains_coords(pts.T)
        unsheared = np.concatenate(
            [pts[:, :3], 2 * pts[:, 3:] - surface_heights(BANDED, pts[:, :3])], axis=1
        )
        assert np.array_equal(direct, base.contains_coords(unsheared.T))

    def test_sheared_box_monte_carlo_volume(self):
        base = BoxUnionSet(((-0.5, -0.5, -0.5, -0.4, -0.4),), ((0.5, 0.5, 0.5, 0.4, 0.4),))
        sh = ShearedBoxSet(BANDED, base)
        lo, hi = sh.bounding_box()
        rng = np.random.default_rng(3)
        smp = rng.uniform(lo, hi, (200_000, 5))
        mc_vol = float(np.prod(hi - lo)) * sh.contains_coords(smp.T).mean()
        assert abs(mc_vol - sh.measure) / sh.measure < 0.05


# Plans for the tests below that need no particular one.
PLAN_NORM = dict(seed=0x5EED, n_tube=4000)
PLAN_SCALING = dict(seed=0x5EED, resolution=None, n_tube=3000, n_centers=3)
PLAN_SCAN = dict(seed=0x5EED, n_tube=4000, resolution=128)
PLAN_SHELL = dict(n_samples=20000, seed=0x5EED)


class TestNormEstimation:
    def test_q1_matches_fubini_identity(self, mu_paraboloid):
        E = BallSet((0.1, 0.0, 0.15), 0.2)
        est = lq_norm_mc(mu_paraboloid, E, 1.0, seed=5, n_tube=6000)
        exact = total_mass(mu_paraboloid) * E.measure  # Fubini: |mu| m(E)
        assert abs(est.norm - exact) / exact < 0.02

    def test_norm_monotone_in_the_set(self, mu_paraboloid):
        small = BallSet((0.1, 0.0, 0.15), 0.15)
        large = BallSet((0.1, 0.0, 0.15), 0.22)
        ns = lq_norm_mc(mu_paraboloid, small, 2.0, seed=6, n_tube=3000)
        nl = lq_norm_mc(mu_paraboloid, large, 2.0, seed=6, n_tube=3000)
        slack = 3 * (ns.stderr + nl.stderr) / nl.norm
        assert ns.norm <= nl.norm * (1.0 + slack)

    def test_parabola_q3_against_grid_oracle(self, mu_parabola_fine):
        E = BallSet((0.2, 0.3), 1.0 / 16)
        est = lq_norm_mc(mu_parabola_fine, E, 3.0, seed=7, n_tube=8000)
        gx = np.linspace(-1.25, 1.25, 701)
        gy = np.linspace(-0.3, 1.45, 701)
        cell = (gx[1] - gx[0]) * (gy[1] - gy[0])
        zz = np.stack([a.ravel() for a in np.meshgrid(gx, gy, indexing="ij")], axis=-1)
        grid_norm = (np.sum(mu_parabola_fine.convolve_many(E, zz) ** 3) * cell) ** (1 / 3)
        assert abs(est.norm - grid_norm) / grid_norm < 0.05

    def test_q_below_one_rejected(self, mu_parabola):
        with pytest.raises(ValueError):
            lq_norm_mc(mu_parabola, BallSet((0.0, 0.0), 0.1), 0.5, **PLAN_NORM)

    def test_empty_set_rejected(self, mu_parabola):
        tiny = BallSet((0.0, 0.0), 1e-200)  # its measure underflows to 0.0
        assert tiny.measure == 0.0
        with pytest.raises(ValueError, match="needs positive measure"):
            lq_norm_mc(mu_parabola, tiny, 2.0, **PLAN_NORM)

    def test_zero_estimate_is_refused(self):
        # mu * chi_E > 0 on a set of positive measure, so a 0 is a miss, never an exact value
        mu = SurfaceMeasure(PARABOLOID, 8)
        E = BallSet((0.1, 0.0, 0.01), 0.01)
        with pytest.raises(ValueError) as info:
            lq_norm_mc(mu, E, 3.0, seed=1, n_tube=16)
        assert str(info.value) == (
            f"zero norm estimate on {E!r}: none of 16 tube samples met the set; raise n_tube"
        )

    def test_q2_tube_estimate_is_calibrated_against_the_lens_oracle(self):
        # ||mu * chi_B||_2^2 is an exact pair sum of lens volumes; over 40 seeds the tube's
        # squared norm must be unbiased and its stderr (of the square, 2 norm stderr) honest
        mu = SurfaceMeasure(battery_entry("paraboloid-2-1").matrix, 64)
        ball = BallSet((0.1, 0.0, 0.15), 0.2)
        exact = l2_norm_sq(mu, ball)
        ests = [lq_norm_mc(mu, ball, 2.0, seed=seed, n_tube=3000) for seed in range(40)]
        sq = np.array([e.norm**2 for e in ests])
        z = (sq - exact) / np.array([2.0 * e.norm * e.stderr for e in ests])
        assert abs(sq.mean() - exact) < 4 * sq.std(ddof=1) / math.sqrt(len(sq))
        assert 0.7 <= z.std(ddof=1) <= 1.3

    @pytest.mark.parametrize("kind", ["ball", "box-union", "tube", "sheared"])
    @pytest.mark.parametrize("name,resolution", [("paraboloid-2-1", 64), ("banded-3-2", 32)])
    def test_one_kernel_call_per_estimate_keeps_every_bit(self, name, resolution, kind):
        # the chunks' z joined into one convolve_many call and one power give the bits of
        # one call and one power per chunk; 1003 samples make chunks of 125 and 128
        matrix = battery_entry(name).matrix
        mu = SurfaceMeasure(matrix, resolution)
        test_set = set_kinds(matrix, np.random.default_rng(4))[kind]
        q = float(critical_q0(mu.k, mu.d))
        est = lq_norm_mc(mu, test_set, q, seed=11, n_tube=1003)
        norm, stderr = lq_norm_per_chunk(mu, test_set, q, seed=11, n_tube=1003)
        assert (est.norm.hex(), est.stderr.hex()) == (norm.hex(), stderr.hex())

    def test_fewer_tube_samples_than_chunks_refused(self, mu_parabola):
        with warnings.catch_warnings(), pytest.raises(ValueError, match="seeded chunks"):
            warnings.simplefilter("error")
            lq_norm_mc(mu_parabola, BallSet((0.0, 0.0), 0.1), 2.0, seed=1, n_tube=4)


class TestBallScaling:
    def test_paraboloid_exponent_and_slope_signs(self):
        p0 = Fraction(4, 3)  # critical p for k=2, d=3
        plist = [
            p0,
            1 / (Fraction(1) / p0 - Fraction(1, 20)),
            1 / (Fraction(1) / p0 + Fraction(1, 20)),
        ]
        rep = ball_scaling_experiment(
            PARABOLOID,
            [2.0**-e for e in (3, 4, 5)],
            plist,
            seed=5, resolution=256, n_tube=2500, n_centers=2,
        )
        expected = float(rep.params["expected_norm_exponent"])
        assert abs(rep.norm_exponents["mean"] - expected) < 0.4
        key_lo = f"{plist[1].numerator}/{plist[1].denominator}"
        key_hi = f"{plist[2].numerator}/{plist[2].denominator}"
        assert rep.ratio_slopes[key_lo] > -0.05
        assert rep.ratio_slopes[key_hi] < -0.05

    def test_auto_resolution_tracks_delta(self):
        rep = ball_scaling_experiment(
            PARABOLOID,
            [2.0**-e for e in (3, 4, 5)],
            [Fraction(4, 3)],
            seed=1, resolution=None, n_tube=600, n_centers=1,
        )
        # deltas ascending; spacing <= delta/4 means res = 8/delta rounded up
        assert rep.params["resolutions"] == [256, 128, 64]

    def test_fit_drops_the_smallest_radius(self):
        rep = ball_scaling_experiment(
            PARABOLOID,
            [2.0**-e for e in (1, 2, 3, 4)],
            [Fraction(4, 3)],
            seed=2, resolution=64, n_tube=400, n_centers=1,
        )
        norms = {row["delta"]: row["norm"] for row in rep.rows if row["center_id"] == 0}
        kept = sorted(norms)[1:]
        want = np.polyfit(np.log(kept), np.log([norms[x] for x in kept]), 1)[0]
        assert rep.norm_exponents["center0"] == pytest.approx(want, rel=1e-12)

    def test_too_few_radii_rejected(self):
        with pytest.raises(ValueError):
            ball_scaling_experiment(PARABOLOID, [0.5, 0.25], [Fraction(4, 3)], **PLAN_SCALING)

    def test_degenerate_matrix_rejected(self):
        bad = CoefficientMatrix.from_rows([[1, 0], [2, 0], [0, 1]])  # rows 0,1 parallel
        with pytest.raises(ValueError):
            ball_scaling_experiment(bad, [0.5, 0.25, 0.125], [Fraction(4, 3)], **PLAN_SCALING)


class TestShellEstimates:
    FK = GaussianSpec(dim=1, amplitude=1.2, mean=(0.1,), sigmas=(0.9,))

    def test_saturation_for_a_huge_set(self):
        huge = BoxUnionSet(((-50.0, -50.0),), ((50.0, 50.0),))
        rep = shell_bilinear_estimate(PARABOLA, self.FK, huge, n_samples=4000, seed=3)
        # every sample pair lands in E, so lhs == ||f||_1 * |shell| exactly
        assert abs(rep.lhs - self.FK.mass * 2.0) < 1e-12

    def test_one_d_erf_closed_form(self):
        E = BoxUnionSet(((1.2, 0.1),), ((1.9, 0.8),))
        rep = shell_bilinear_estimate(PARABOLA, self.FK, E, n_samples=400_000, seed=9)

        def fcdf(t):
            return 0.5 * (1 + np.vectorize(erf)((t - 0.1) / (0.9 * math.sqrt(2))))

        yq, wq = gauss_legendre_interval(200, 1.2, 1.9)
        oracle = self.FK.mass * float(np.sum(wq * (fcdf(0.8 / yq) - fcdf(0.1 / yq))))
        assert abs(rep.lhs - oracle) / oracle < 0.05

    def test_measure_zero_set_is_refused(self):
        tiny = BallSet((1.5, 0.5), 1e-200)  # its measure underflows to 0.0
        assert tiny.measure == 0.0
        with pytest.raises(ValueError, match="the shell estimate needs positive measure"):
            shell_bilinear_estimate(PARABOLA, self.FK, tiny, n_samples=1000, seed=4)

    @pytest.mark.parametrize("n_samples", [0, 1])
    def test_too_few_samples_refused(self, n_samples):
        E = BoxUnionSet(((1.2, 0.1),), ((1.9, 0.8),))
        with warnings.catch_warnings(), pytest.raises(ValueError, match="seeded chunks"):
            warnings.simplefilter("error")
            shell_bilinear_estimate(PARABOLA, self.FK, E, n_samples=n_samples, seed=4)

    def test_shell_sum_covers_requested_shells(self):
        E = BoxUnionSet(((1.2, 0.1),), ((1.9, 0.8),))
        out = shell_sum_estimate(PARABOLA, self.FK, E, n_min=-3, n_samples=3000, seed=12)
        assert len(out["per_shell"]) == 4  # n = -3..0
        assert out["sum_lhs"] >= max(row["lhs"] for row in out["per_shell"])



def tail_dilated(test_set, matrix: CoefficientMatrix, eps: float):
    """T^-1 E, every tail coordinate of E scaled by eps, where matrix = eps C and
    T(y; z) = (y; z / eps) carries the surface of eps C onto that of C."""
    if isinstance(test_set, TangentTubeSet):
        return TangentTubeSet(matrix, test_set.y0, test_set.half_width, test_set.thickness * eps)
    if isinstance(test_set, ShearedBoxSet):
        return ShearedBoxSet(matrix, tail_dilated(test_set.base, matrix, eps))

    def scaled(corner):
        return (*corner[: matrix.k], *(x * eps for x in corner[matrix.k :]))

    return BoxUnionSet(tuple(map(scaled, test_set.lows)), tuple(map(scaled, test_set.highs)))


@pytest.mark.parametrize("j", [2, 4, 30])
@pytest.mark.parametrize("name", ["paraboloid-2-1", "banded-3-2"])
def test_lq_norm_obeys_the_tail_dilation(name, j):
    # ||mu_(eps C) * chi_(T^-1 E)||_q = eps^(l/q) ||mu_C * chi_E||_q.  At eps = 2^-j every
    # tail, atom height and tube band scales by a power of 2, so only the q-th root and
    # eps^(l/q) round
    matrix, eps = battery_entry(name).matrix, 2.0**-j
    small = dilated(matrix, j)
    q = float(critical_q0(matrix.k, matrix.d))
    mu, mu_small = SurfaceMeasure(matrix, 32), SurfaceMeasure(small, 32)
    sets = set_kinds(matrix, np.random.default_rng(1))
    for kind in ("box-union", "tube", "sheared"):
        base = lq_norm_mc(mu, sets[kind], q, seed=3, n_tube=64)
        got = lq_norm_mc(mu_small, tail_dilated(sets[kind], small, eps), q, seed=3, n_tube=64)
        want = eps ** (matrix.l / q) * base.norm
        assert abs(got.norm - want) <= 4 * math.ulp(want), kind


@pytest.mark.parametrize("j", [2, 4, 30])
@pytest.mark.parametrize("name", ["paraboloid-2-1", "banded-3-2"])
def test_shell_lhs_and_comparability_constant_obey_the_tail_dilation(name, j):
    # the tails (x * y) @ C of the shell samples scale exactly, so the same samples
    # land in T^-1 E; the comparability constant is 1-homogeneous in 1 / eps
    matrix, eps = battery_entry(name).matrix, 2.0**-j
    small = dilated(matrix, j)
    f = random_gaussian(np.random.default_rng(5), matrix.k)
    k, l = matrix.k, matrix.l
    E = BoxUnionSet(((-2.0,) * k + (-1.0,) * l,), ((2.0,) * k + (0.5,) * l,))  # heads cover the shell
    base = shell_bilinear_estimate(matrix, f, E, n_samples=256, seed=3)
    got = shell_bilinear_estimate(small, f, tail_dilated(E, small, eps), n_samples=256, seed=3)
    assert 0 < base.lhs < f.mass * 2.0**k  # some shell samples miss E, some hit
    assert (got.lhs, got.stderr) == (base.lhs, base.stderr)
    assert comparability_constant(small) == comparability_constant(matrix) / eps

@pytest.mark.parametrize("j", [2, 4, 30])
@pytest.mark.parametrize("name", ["paraboloid-2-1", "banded-3-2"])
def test_convolve_many_obeys_the_tail_dilation(name, j):
    # (mu_(eps C) * chi_(T^-1 E))(T^-1 z) = (mu_C * chi_E)(z) at every z: at eps = 2^-j
    # every atom height, tail coordinate and tube band scales exactly, so the same
    # atoms meet the set and the sums of atom weights agree bit for bit
    matrix, eps = battery_entry(name).matrix, 2.0**-j
    small = dilated(matrix, j)
    mu, mu_small = SurfaceMeasure(matrix, 32), SurfaceMeasure(small, 32)
    rng = np.random.default_rng(7)
    for kind, test_set in set_kinds(matrix, np.random.default_rng(1)).items():
        if kind == "ball":  # T does not map a ball to a ball
            continue
        lo, hi = test_set.bounding_box()
        zs = lo + (hi - lo) * rng.uniform(-0.5, 1.5, (500, matrix.d))
        base = mu.convolve_many(test_set, zs)
        assert np.count_nonzero(base) >= 10, kind
        zs[:, matrix.k :] *= eps
        got = mu_small.convolve_many(tail_dilated(test_set, small, eps), zs)
        assert np.array_equal(got, base), kind


def permuted(matrix: CoefficientMatrix, rows, cols) -> CoefficientMatrix:
    """C with its rows (the head axes) and columns (the tail axes) reordered."""
    return CoefficientMatrix.from_rows([[matrix.entries[r][c] for c in cols] for r in rows])


@pytest.mark.parametrize("name", ["paraboloid-2-1", "banded-3-2"])
def test_convolve_many_obeys_axis_permutations(name):
    # permuting the head axes with the rows of C and the tail axes with its columns
    # carries the surface, the ball and the points onto their images, and the grid
    # of cell centers is the same on every head axis
    matrix = battery_entry(name).matrix
    k, l, d = matrix.k, matrix.l, matrix.d
    rng = np.random.default_rng(4)
    y = rng.uniform(-0.7, 0.7, (400, k))
    zs = np.concatenate([y, surface_heights(matrix, y)], axis=1) + rng.uniform(-0.1, 0.1, (400, d))
    mu = SurfaceMeasure(matrix, 32)
    for center in [np.zeros(d), rng.uniform(-0.3, 0.3, d)]:
        base = mu.convolve_many(BallSet(tuple(center), 0.45), zs)
        assert np.count_nonzero(base) >= 350
        for rows in itertools.permutations(range(k)):
            for cols in itertools.permutations(range(l)):
                axes = [*rows, *(k + c for c in cols)]
                moved = SurfaceMeasure(permuted(matrix, rows, cols), 32)
                got = moved.convolve_many(BallSet(tuple(center[axes]), 0.45), zs[:, axes])
                assert np.array_equal(got, base), (tuple(center), rows, cols)


class TestRestrictedScan:
    def test_vertex_exponent_refused(self):
        with pytest.raises(ValueError):
            restricted_estimate_scan(PARABOLOID, Fraction(4, 3), n_sets=6, **PLAN_SCAN)

    def test_fewer_than_two_sets_refused(self):
        # the growth divides the full sup by the first half's sup
        with pytest.raises(ValueError, match="n_sets must be at least 2"):
            restricted_estimate_scan(PARABOLOID, Fraction(3, 2), n_sets=1, **PLAN_SCAN)

    def test_scan_is_finite_and_deterministic(self):
        kwargs = dict(n_sets=6, seed=8, n_tube=2000, resolution=128)
        scan = restricted_estimate_scan(PARABOLOID, Fraction(3, 2), **kwargs)
        assert math.isfinite(scan.sup_ratio) and scan.sup_ratio > 0
        again = restricted_estimate_scan(PARABOLOID, Fraction(3, 2), **kwargs)
        assert again.rows == scan.rows


@pytest.mark.parametrize(
    "test_set",
    [
        BallSet((0.1, 0.2), 0.5),
        BallSet((1.5, 1.5, 0.5, 0.5), 0.5),
        BoxUnionSet(((1.0, 1.0, 0.0, 0.0),), ((2.0, 2.0, 1.0, 1.0),)),
    ],
    ids=["ball-2d", "ball-4d", "box-4d"],
)
@pytest.mark.parametrize("estimator", ["convolve_many", "lq_norm_mc", "shell_bilinear_estimate"])
def test_wrong_dimension_is_refused(estimator, test_set):
    # contains_coords zips coordinates against the set's axes: a mismatch would pass silently
    mu = SurfaceMeasure(PARABOLOID, 16)
    call = {
        "convolve_many": lambda: mu.convolve_many(test_set, np.zeros((4, 3))),
        "lq_norm_mc": lambda: lq_norm_mc(mu, test_set, 2.0, seed=1, n_tube=64),
        "shell_bilinear_estimate": lambda: shell_bilinear_estimate(
            PARABOLOID, GaussianSpec.unit_mass(2), test_set, n_samples=64, seed=0x5EED
        ),
    }[estimator]
    message = rf"test set lives in R\^{test_set.dim}, the surface in R\^3"
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize(
    "call,message",
    [
        pytest.param(lambda: BallSet((0.0, 0.0), 0.0), "ball radius must be positive",
                     id="ball-radius"),
        pytest.param(lambda: BoxUnionSet(((0.0,), (2.0,)), ((1.0,),)),
                     "lows and highs must pair up", id="box-pairing"),
        pytest.param(lambda: BoxUnionSet(((0.0, 1.0),), ((1.0, 0.5),)),
                     "each box needs lo < hi per axis", id="box-order"),
        pytest.param(lambda: BoxUnionSet(((0.0, 0.0),), ((1.0,),)),
                     "each box needs lo < hi per axis", id="box-corner-length"),
        pytest.param(lambda: BoxUnionSet(((0.0, 0.0), (0.5, 0.5)), ((1.0, 1.0), (2.0, 2.0))),
                     "boxes 0 and 1 overlap", id="box-overlap"),
        pytest.param(lambda: TangentTubeSet(PARABOLOID, (0.1,), 0.1, 0.1),
                     "base point must live in R^k", id="tube-base-point"),
        pytest.param(lambda: TangentTubeSet(PARABOLOID, (0.1, 0.1), 0.0, 0.1),
                     "tube parameters must be positive", id="tube-width"),
        pytest.param(lambda: TangentTubeSet(PARABOLOID, (0.1, 0.1), 0.1, -0.1),
                     "tube parameters must be positive", id="tube-thickness"),
        pytest.param(lambda: ShearedBoxSet(PARABOLOID, BoxUnionSet(((0.0, 0.0),), ((1.0, 1.0),))),
                     "base set must live in R^d", id="sheared-dim"),
        # a 40 963^2 index window: refused before any window array is built
        pytest.param(lambda: SurfaceMeasure(PARABOLOID, 4096).convolve_many(
                         BallSet((0.0, 0.0, 0.0), 10.0), np.zeros((1, 3))),
                     "test set too wide for this resolution's index window", id="window-40M"),
        pytest.param(lambda: shell_bilinear_estimate(
                         PARABOLOID, GaussianSpec.unit_mass(3), BallSet((0.0, 0.0, 0.0), 0.5),
                         **PLAN_SHELL),
                     "f must live on R^k", id="shell-f-dim"),
        pytest.param(lambda: shell_bilinear_estimate(
                         PARABOLOID, GaussianSpec.unit_mass(2), BallSet((0.0, 0.0, 0.0), 0.5),
                         shell=(0,), **PLAN_SHELL),
                     "shell multi-index must have k entries", id="shell-length"),
    ],
)
def test_input_refusals(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()

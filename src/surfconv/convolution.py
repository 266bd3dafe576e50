"""Discretized graph-surface measures and their convolution experiments.

The measure is the pushforward of Lebesgue measure on the unit ball of R^k
under y -> (y; heights(y)): a uniform y-grid, cells kept when their centers
lie in the open ball, each atom carrying the full cell volume.  Everything
downstream is built to avoid dense d-dimensional grids: the convolution
sums over atoms found by index-range queries on the y-grid, and L^q norms
are Monte Carlo over a support tube that provably contains
supp(mu * chi_E) and has an exact volume.  That keeps the d = 5 experiments affordable: the atom positions are
generated on the fly from grid indices and never need materializing.

The batched kernel convolve_many first drops every z whose head-index
window is certified empty by interval bounds on the heights over that window
and the test set's bounding box alone (off the grid, outside the unit
y-ball, or every tail outside the box).  For the rest it hands the set's
contains_coords one coordinate array per axis, once per batch: each head
coordinate z_i - y_i is a (B, 1, ..., n_i, ..., 1) table and each tail a
full (B, n_1, ..., n_k) array, since heads and tails are sums of per-axis
terms.  contains_coords is each set's only membership test, and every set
runs it per axis, so the head tests stay on the small tables until the tail
axes and no (B * window, d) point array is ever assembled.  Other callers
pass points as columns, points.T.

A batch holds at most _BATCH_POINTS = 65 536 window points.  Its full-window
arrays (the tails, the validity sum and mask, and the ball's squares and
running sums) are written with out= ufunc calls into the module's scratch
buffers (_scratch), which grow to the largest batch and are never shrunk,
so a run faults them in once instead of on every call.  Every call shares
them, so two calls must not run at once.  The arithmetic is
the same as with fresh arrays, in the same order, so every count is
bit-identical.  No result a public function returns is a scratch view.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .exponents import ExponentPair, critical_q0, typeset, typeset_contains
from .parallel import RatioReport, seeded_mean
from .quadrature import ball_volume
from .rationals import frac_str
from .surface import (
    CoefficientMatrix,
    check_submatrices,
    sample_shell,
    shell_measure,
    surface_heights,
)


# ---------------------------------------------------------------------------
# test sets


@dataclass(frozen=True)
class BallSet:
    """Euclidean ball in R^d with closed-form measure."""

    center: tuple
    radius: float

    kind = "ball"

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))

    @property
    def dim(self) -> int:
        return len(self.center)

    @property
    def measure(self) -> float:
        return ball_volume(self.dim, self.radius)

    def bounding_box(self):
        c = np.array(self.center)
        return c - self.radius, c + self.radius

    def contains_coords(self, coords) -> np.ndarray:
        """Membership of broadcastable per-axis coordinate arrays.

        The squares are summed in a fixed order, (sq0 + sq2 + ...) + (sq1 + sq3
        + ...), each part left to right.  For d <= 7 that is the order of the
        two-lane SSE sum-of-products loop in numpy 2.4, which computed the
        shipped outputs, so they stay bit-identical.

        Full-size squares and sums are written into the scratch buffers; the
        returned mask is a new array.
        """
        shape = np.broadcast_shapes(*(np.shape(x) for x in coords))
        even, odd, tmp = _scratch("ball", 3, shape)

        def squares(axes):
            # a full-size square lives in tmp until _ordered_sum has added it
            for i in axes:
                x, c = coords[i], self.center[i]
                if np.shape(x) == shape:
                    yield np.square(np.subtract(x, c, out=tmp), out=tmp)
                else:
                    yield np.square(x - c)

        d = len(coords)
        total = np.add(_ordered_sum(squares(range(0, d, 2)), even),
                       _ordered_sum(squares(range(1, d, 2)), odd), out=even)
        return np.less_equal(total, self.radius**2)


@dataclass(frozen=True)
class BoxUnionSet:
    """Finite nonempty union of pairwise-disjoint axis boxes; measure is exact."""

    lows: tuple
    highs: tuple

    kind = "box-union"

    def __post_init__(self):
        lows = tuple(tuple(float(v) for v in lo) for lo in self.lows)
        highs = tuple(tuple(float(v) for v in hi) for hi in self.highs)
        object.__setattr__(self, "lows", lows)
        object.__setattr__(self, "highs", highs)
        if not lows:
            raise ValueError("a box union needs at least one box")
        if len(lows) != len(highs):
            raise ValueError("lows and highs must pair up")
        for lo, hi in zip(lows, highs):
            if len(lo) != len(hi) or any(a >= b for a, b in zip(lo, hi)):
                raise ValueError("each box needs lo < hi per axis")
        for a in range(len(lows)):
            for b in range(a + 1, len(lows)):
                if all(
                    lows[a][i] < highs[b][i] and lows[b][i] < highs[a][i]
                    for i in range(len(lows[a]))
                ):
                    raise ValueError(f"boxes {a} and {b} overlap")

    @property
    def dim(self) -> int:
        return len(self.lows[0])

    @property
    def measure(self) -> float:
        return float(
            sum(
                math.prod(h - l for l, h in zip(lo, hi))
                for lo, hi in zip(self.lows, self.highs)
            )
        )

    def bounding_box(self):
        return np.min(np.array(self.lows), axis=0), np.max(np.array(self.highs), axis=0)

    def contains_coords(self, coords) -> np.ndarray:
        """Membership of broadcastable per-axis coordinate arrays, one axis at a time."""
        out = np.zeros(np.broadcast_shapes(*(np.shape(x) for x in coords)), dtype=bool)
        for lo, hi in zip(self.lows, self.highs):
            inside = True
            for x, a, b in zip(coords, lo, hi):
                inside = inside & (x >= a) & (x < b)
            out |= inside
        return out


@dataclass(frozen=True)
class TangentTubeSet:
    """Knapp-type tube hugging the tangent plane at a surface point.

    Head coordinates within half_width of y0, tail coordinates within
    thickness of the tangent-plane prediction.  The tail test is a shear of
    an axis box, so the measure is exactly (2 half_width)^k (2 thickness)^l.
    """

    matrix: CoefficientMatrix
    y0: tuple
    half_width: float
    thickness: float

    kind = "graph-tube"

    def __post_init__(self):
        object.__setattr__(self, "y0", tuple(float(v) for v in self.y0))
        if len(self.y0) != self.matrix.k:
            raise ValueError("base point must live in R^k")
        if self.half_width <= 0 or self.thickness <= 0:
            raise ValueError("tube parameters must be positive")

    @property
    def dim(self) -> int:
        return self.matrix.d

    @property
    def measure(self) -> float:
        k, l = self.matrix.k, self.matrix.l
        return (2.0 * self.half_width) ** k * (2.0 * self.thickness) ** l

    def _tangent(self):
        y0 = np.array(self.y0)
        base = surface_heights(self.matrix, y0)
        jac = 2.0 * self.matrix.array * y0[:, None]  # (k, l): d heights / dy
        return y0, base, jac

    def bounding_box(self):
        y0, base, jac = self._tangent()
        slope = np.abs(jac).sum(axis=0) * self.half_width + self.thickness
        lo = np.concatenate([y0 - self.half_width, base - slope])
        hi = np.concatenate([y0 + self.half_width, base + slope])
        return lo, hi

    def contains_coords(self, coords) -> np.ndarray:
        """Membership of broadcastable per-axis coordinate arrays, one axis at a time.

        Each tail's tangent prediction is base_j + sum_i (x_i - y0_i) jac[i, j],
        the sum taken left to right.
        """
        k = self.matrix.k
        y0, base, jac = self._tangent()
        dh = [x - c for x, c in zip(coords[:k], y0)]
        inside = True
        for x in dh:
            inside = inside & (np.abs(x) <= self.half_width)
        for j, u in enumerate(coords[k:]):
            pred = base[j] + sum(x * jac[i, j] for i, x in enumerate(dh))
            inside = inside & (np.abs(u - pred) <= self.thickness)
        return inside


@dataclass(frozen=True)
class ShearedBoxSet:
    """Box union pushed through the height shear (y; v) -> (y; (v + heights(y))/2).

    Membership of (y; u) is tested by unshearing: the base set is queried at
    (y; 2u - heights(y)).  The shear halves each tail axis, so the measure
    is exactly 2^-l times the base measure.
    """

    matrix: CoefficientMatrix
    base: BoxUnionSet

    kind = "sheared-box-union"

    def __post_init__(self):
        if self.base.dim != self.matrix.d:
            raise ValueError("base set must live in R^d")

    @property
    def dim(self) -> int:
        return self.matrix.d

    @property
    def measure(self) -> float:
        return self.base.measure * 2.0 ** (-self.matrix.l)

    def bounding_box(self):
        k = self.matrix.k
        lo, hi = self.base.bounding_box()
        h_lo, h_hi = _heights_interval(self.matrix, lo[:k], hi[:k])
        return (
            np.concatenate([lo[:k], (lo[k:] + h_lo) / 2.0]),
            np.concatenate([hi[:k], (hi[k:] + h_hi) / 2.0]),
        )

    def contains_coords(self, coords) -> np.ndarray:
        """Membership of broadcastable per-axis coordinate arrays, unsheared per axis.

        Tail j becomes 2 u_j - sum_i x_i^2 c_ij, the sum taken left to right.
        """
        k, arr = self.matrix.k, self.matrix.array
        sq = [x * x for x in coords[:k]]
        tails = [2.0 * u - sum(x * arr[i, j] for i, x in enumerate(sq))
                 for j, u in enumerate(coords[k:])]
        return self.base.contains_coords(list(coords[:k]) + tails)


# Window points per batch of convolve_many.  At d = 5 the batch's scratch
# (two tails, the ball's two sums and its square, the mask) is about 2.6 MB.
_BATCH_POINTS = 65_536

_SCRATCH: dict[str, np.ndarray] = {}


def _scratch(key: str, count: int, shape, dtype=float) -> list:
    """count arrays of `shape`, views of the scratch buffer `key`.

    A buffer grows to the largest request and is never shrunk.  The next
    request for `key` overwrites the views, so a public function never
    returns one.
    """
    n = math.prod(shape)
    buf = _SCRATCH.get(key)
    if buf is None or buf.size < count * n:
        buf = _SCRATCH[key] = np.empty(count * n, dtype)
    return [buf[i * n : (i + 1) * n].reshape(shape) for i in range(count)]


def _ordered_sum(terms, out: np.ndarray):
    """The builtin sum(terms), ((0 + t0) + t1) + ..., bit for bit.

    Each partial sum of out's shape is written into out, so the full-size
    ones allocate nothing; the smaller ones are new arrays.
    """
    acc = 0
    for t in terms:
        if np.broadcast_shapes(np.shape(acc), np.shape(t)) == out.shape:
            acc = np.add(acc, t, out=out)
        else:
            acc = acc + t
    return acc


def _squares_interval(lo: np.ndarray, hi: np.ndarray):
    """Componentwise bounds of y**2 over the interval [lo, hi]."""
    sq_lo = np.where((lo <= 0) & (hi >= 0), 0.0, np.minimum(lo**2, hi**2))
    return sq_lo, np.maximum(lo**2, hi**2)


def _heights_interval(matrix: CoefficientMatrix, lo: np.ndarray, hi: np.ndarray):
    """Componentwise interval bounds of heights(y) over the box [lo, hi].

    lo and hi are (k,) for one box or (B, k) for a batch; bounds are (l,) or (B, l).
    """
    sq_lo, sq_hi = _squares_interval(lo, hi)
    arr = matrix.array  # (k, l)
    lo_c = np.where(arr > 0, sq_lo[..., None] * arr, sq_hi[..., None] * arr).sum(axis=-2)
    hi_c = np.where(arr > 0, sq_hi[..., None] * arr, sq_lo[..., None] * arr).sum(axis=-2)
    return lo_c, hi_c


# Absolute slack of the empty-window certificate.  Coordinates are O(1), so
# rounding moves them by ~1e-15; the slack dwarfs that and stays far below
# any grid spacing, so a window is skipped only when it misses by a margin.
_SKIP_SLACK = 1e-9


def _check_dim(test_set, d: int):
    if test_set.dim != d:
        raise ValueError(f"test set lives in R^{test_set.dim}, the surface in R^{d}")


# ---------------------------------------------------------------------------
# the measure


class SurfaceMeasure:
    """Atomic discretization of the graph measure over the unit y-ball.

    Atoms sit at (y; heights(y)) for y-grid cell centers inside the open
    unit ball, each with weight spacing^k.  points materializes lazily; the
    convolution works from grid indices alone, which is what makes high
    resolutions in k = 3 viable.
    """

    def __init__(self, matrix: CoefficientMatrix, resolution: int):
        if resolution < 8:
            raise ValueError("resolution below 8 is too coarse to mean anything")
        if not check_submatrices(matrix).holds:
            warnings.warn("row-submatrix condition fails; the measure is built anyway")
        self.matrix = matrix
        self.resolution = int(resolution)
        self.spacing = 2.0 / self.resolution

    @property
    def k(self) -> int:
        return self.matrix.k

    @property
    def l(self) -> int:
        return self.matrix.l

    @property
    def d(self) -> int:
        return self.matrix.d

    def _axis_centers(self) -> np.ndarray:
        return -1.0 + (np.arange(self.resolution) + 0.5) * self.spacing

    @property
    def points(self) -> np.ndarray:
        if not hasattr(self, "_points"):
            ys = self._source_grid()
            self._points = np.concatenate([ys, surface_heights(self.matrix, ys)], axis=1)
        return self._points

    def _source_grid(self) -> np.ndarray:
        if self.resolution**self.k > 40_000_000:
            raise MemoryError(
                "refusing to materialize this grid; use the index-query paths"
            )
        axes = np.meshgrid(*([self._axis_centers()] * self.k), indexing="ij")
        ys = np.stack([a.ravel() for a in axes], axis=-1)
        return ys[(ys**2).sum(axis=1) < 1.0]

    # -- index-range convolution --

    def _head_windows(self, lo: np.ndarray, hi: np.ndarray, zs: np.ndarray):
        """Cube head-index windows of a set with bounding box [lo, hi].

        Returns each z's base index (N, k), the window's per-axis reach (k,)
        (offsets run over -reach..reach), and a mask that is False only where
        the window provably holds no atom inside the set: its index box,
        clipped to the grid, is empty, lies outside the open unit y-ball, or
        puts every tail z_tail - heights(y) outside the box's tail.
        """
        k, s = self.k, self.spacing
        center = (lo[:k] + hi[:k]) / 2.0
        reach = ((hi[:k] - lo[:k]) / 2.0 / s).astype(np.int64) + 1
        base = np.floor((zs[:, :k] - center + 1.0) / s - 0.5).astype(np.int64)
        i_lo = np.maximum(base - reach, 0)
        i_hi = np.minimum(base + reach, self.resolution - 1)
        y_lo = -1.0 + (i_lo + 0.5) * s
        y_hi = -1.0 + (i_hi + 0.5) * s
        h_lo, h_hi = _heights_interval(self.matrix, y_lo, y_hi)
        tails = zs[:, k:]
        may_hit = (i_lo <= i_hi).all(axis=1)
        may_hit &= _squares_interval(y_lo, y_hi)[0].sum(axis=1) < 1.0 + _SKIP_SLACK
        may_hit &= (tails - h_hi <= hi[k:] + _SKIP_SLACK).all(axis=1)
        may_hit &= (tails - h_lo >= lo[k:] - _SKIP_SLACK).all(axis=1)
        return base, reach, may_hit

    def convolve_many(self, test_set, zs: np.ndarray) -> np.ndarray:
        """(mu * chi_E)(z) for a batch of z, sharing one cube index window.

        z whose window is certified empty are skipped.  For the rest, E's
        contains_coords runs once per batch of at most _BATCH_POINTS window
        points, on per-axis coordinates over the (B, n_1, ..., n_k) window:
        the heads z_i - y_i as (B, n_i) tables (broadcast along the other
        axes), the tails as full arrays.  Every set tests them per axis, with
        no stacked point array.  The tails and the validity sum and mask live
        in the scratch buffers; the returned array is new.
        """
        _check_dim(test_set, self.d)
        zs = np.atleast_2d(np.asarray(zs, dtype=float))
        out = np.zeros(len(zs))
        lo, hi = (np.asarray(b, dtype=float) for b in test_set.bounding_box())
        k, l, s = self.k, self.l, self.spacing
        base, reach, may_hit = self._head_windows(lo, hi, zs)
        dims = tuple(2 * int(r) + 1 for r in reach)
        window = math.prod(dims)
        if window > 40_000_000:
            raise ValueError("test set too wide for this resolution's index window")
        # offsets[i] runs along window axis i and is 1 wide on the others
        offsets = [
            np.arange(-m, m + 1).reshape([-1 if a == i else 1 for a in range(k)])
            for i, m in enumerate(reach)
        ]
        arr = self.matrix.array
        rows = np.flatnonzero(may_hit)
        batch = max(1, _BATCH_POINTS // window)
        for b0 in range(0, len(rows), batch):
            r = rows[b0 : b0 + batch]
            z = zs[r].reshape((len(r),) + (1,) * k + (self.d,))
            idx = [base[r, i].reshape(z.shape[:-1]) + offsets[i] for i in range(k)]
            y = [-1.0 + (ix + 0.5) * s for ix in idx]
            ysq = [yi**2 for yi in y]
            shape = (len(r),) + dims
            tails = _scratch("tails", l, shape)
            (valid,) = _scratch("valid", 1, shape, bool)
            # an index off the grid puts |y_i| >= 1 + s/2, so this also keeps to the grid;
            # tails[0] holds the sum until the first tail overwrites it
            np.less(_ordered_sum(ysq, tails[0]), 1.0, out=valid)
            coords = [z[..., i] - y[i] for i in range(k)]
            for j, tail in enumerate(tails):
                heights = _ordered_sum((ysq[i] * arr[i, j] for i in range(k)), tail)
                coords.append(np.subtract(z[..., k + j], heights, out=tail))
            valid &= test_set.contains_coords(coords)
            out[r] = valid.reshape(len(r), -1).sum(axis=1) * s**k
        return out


# ---------------------------------------------------------------------------
# Lq norms


# Seeded chunks of lq_norm_mc and of shell_bilinear_estimate.  The chunk
# layout picks the random streams, so another value moves every estimate.
NORM_CHUNKS = 8
SHELL_CHUNKS = 16


@dataclass(frozen=True)
class NormMcConfig:
    seed: int = 0x5EED
    n_tube: int = 4000


@dataclass(frozen=True)
class NormEstimate:
    norm: float
    stderr: float
    low_confidence: bool


def _support_tube(measure: SurfaceMeasure, test_set):
    """Sheared box certified to contain supp(mu * chi_E), plus its geometry.

    In the sheared coordinates (z_head, z_tail - heights(z_head - c_head))
    the tube is an axis box, so its volume is exact and uniform sampling is
    direct.  The tail half-widths add the test set's own extent to the
    worst-case height variation across the set's head extent.
    """
    lo, hi = test_set.bounding_box()
    c = (np.asarray(lo) + np.asarray(hi)) / 2.0
    w = (np.asarray(hi) - np.asarray(lo)) / 2.0
    k = measure.k
    w_head, w_tail = w[:k], w[k:]
    abs_c = np.abs(measure.matrix.array)  # (k, l)
    band = w_tail + (w_head * (2.0 + w_head)) @ abs_c
    head_half = 1.0 + w_head
    return c, head_half, band


def lq_norm_mc(
    measure: SurfaceMeasure,
    test_set,
    q: float,
    cfg: NormMcConfig | None = None,
) -> NormEstimate:
    """(integral |mu * chi_E|^q)^(1/q) by Monte Carlo over the support tube.

    The sheared tube of _support_tube provably contains the convolution's
    support, so uniform samples of the tube times its exact volume estimate
    the whole integral; outside it the integrand is identically 0.  The
    error bar passes through the q-th root by the delta method.

    An estimate of exactly 0 is refused: for m(E) > 0 the L^1 norm is the
    measure's total mass times m(E), which is positive, so mu * chi_E is
    positive on a set of positive measure inside the tube and every L^q norm
    is positive.
    """
    cfg = cfg or NormMcConfig()
    if q < 1:
        raise ValueError("q must be at least 1")
    if test_set.measure <= 0:
        raise ValueError("degenerate test set: norm estimation needs positive measure")
    _check_dim(test_set, measure.d)
    c, head_half, band = _support_tube(measure, test_set)
    k, l = measure.k, measure.l
    v_tube = float(np.prod(2.0 * head_half) * np.prod(2.0 * band))

    def tube_chunk(rng, n):
        heads = c[:k] + rng.uniform(-1.0, 1.0, (n, k)) * head_half
        offs = rng.uniform(-1.0, 1.0, (n, l)) * band
        tails = c[k:] + surface_heights(measure.matrix, heads - c[:k]) + offs
        zs = np.concatenate([heads, tails], axis=1)
        g = measure.convolve_many(test_set, zs)
        return g**q

    seq = np.random.SeedSequence(cfg.seed)
    [(mean, var, n)] = seeded_mean(tube_chunk, seq, cfg.n_tube, NORM_CHUNKS)
    total = v_tube * mean
    var = v_tube**2 * (var / n)
    if total <= 0:
        raise ValueError(
            f"zero norm estimate on {test_set!r}: none of {cfg.n_tube} tube samples "
            "met the set; raise n_tube"
        )
    norm = total ** (1.0 / q)
    stderr = total ** (1.0 / q - 1.0) / q * math.sqrt(var)
    return NormEstimate(norm=norm, stderr=stderr, low_confidence=bool(stderr > 0.1 * norm))


# ---------------------------------------------------------------------------
# ball-scaling experiment


@dataclass(frozen=True)
class ScalingConfig:
    seed: int = 0x5EED
    resolution: int | None = None           # default: spacing = delta_min / 4
    n_tube: int = 3000
    n_centers: int = 3


@dataclass(frozen=True)
class ScalingReport:
    rows: list
    norm_exponents: dict
    ratio_slopes: dict
    q0: float
    params: dict = field(default_factory=dict)


def _fit_slope(xs, ys) -> float:
    return float(np.polyfit(np.log(np.asarray(xs)), np.log(np.asarray(ys)), 1)[0])


def ball_scaling_experiment(
    matrix: CoefficientMatrix,
    deltas,
    p_list,
    cfg: ScalingConfig | None = None,
) -> ScalingReport:
    """Norms of mu * chi_ball(delta) across dyadic delta, at the critical q.

    For each center on the surface and each delta, estimates
    N = ||mu * chi_B||_q0 and tabulates N / m_d(B)^(1/p) per p.  Slopes of
    log-quantities against log delta are fit with the finest (smallest)
    delta dropped.  The height of the convolution is ~ delta^k on a tube of
    measure ~ delta^l, so the norm's delta-exponent is k + l/q0; the ratio's
    slope is that minus d/p, crossing zero exactly at the triangle vertex.
    """
    cfg = cfg or ScalingConfig()
    deltas = sorted(float(x) for x in deltas)
    if len(set(deltas)) < 3:
        # with fewer, the fitted radii can coincide and the slope is not determined
        raise ValueError("need at least 3 distinct dyadic radii for a slope")
    if not check_submatrices(matrix).holds:
        raise ValueError("the row-submatrix condition must hold")
    if cfg.resolution and 2.0 / cfg.resolution > deltas[0]:
        # the grid cannot resolve the smallest ball: its norms would be 0
        raise ValueError(
            f"resolution {cfg.resolution} gives grid spacing {2.0 / cfg.resolution}, "
            f"coarser than the smallest delta {deltas[0]}"
        )
    p_list = [Fraction(p) for p in p_list]
    k, l, d = matrix.k, matrix.l, matrix.d
    q0 = float(critical_q0(k, d))

    def _res_for(delta: float) -> int:
        # spacing <= delta / 4, uniformly across radii, so the relative
        # discretization bias is the same at every delta and cancels in the
        # log-log slope; a fixed global grid would blow the atom windows up
        # at the coarse radii for k = 3.
        if cfg.resolution:
            return int(cfg.resolution)
        return min(1024, max(32, 2 ** math.ceil(math.log2(8.0 / delta))))

    resolutions = {delta: _res_for(delta) for delta in deltas}
    measures = {delta: SurfaceMeasure(matrix, resolutions[delta]) for delta in deltas}

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))
    ys = [np.zeros(k)]
    while len(ys) < cfg.n_centers:
        cand = rng.uniform(-0.7, 0.7, k)
        if (cand**2).sum() < 0.49:
            ys.append(cand)
    centers = [np.concatenate([y, surface_heights(matrix, y)]) for y in ys]

    rows = []
    norms = {}
    for cid, center in enumerate(centers):
        for j, delta in enumerate(deltas):
            ball = BallSet(tuple(center), delta)
            est = lq_norm_mc(
                measures[delta],
                ball,
                q0,
                NormMcConfig(seed=cfg.seed + 1000 * cid + j, n_tube=cfg.n_tube),
            )
            norms[(cid, delta)] = est.norm
            for p in p_list:
                ratio = est.norm / ball.measure ** float(1 / p)
                rows.append(
                    {
                        "delta": delta,
                        "p_num": p.numerator,
                        "p_den": p.denominator,
                        "norm": est.norm,
                        "ratio": ratio,
                        "stderr": est.stderr,
                        "center_id": cid,
                    }
                )

    fit_deltas = deltas[1:]  # deltas ascend: drop the finest
    norm_exponents = {
        f"center{cid}": _fit_slope(fit_deltas, [norms[(cid, x)] for x in fit_deltas])
        for cid in range(len(centers))
    }
    norm_exponents["mean"] = float(np.mean(list(norm_exponents.values())))
    ratio_slopes = {}
    for p in p_list:
        per_center = []
        for cid in range(len(centers)):
            vals = [norms[(cid, x)] / ball_volume(d, x) ** float(1 / p) for x in fit_deltas]
            per_center.append(_fit_slope(fit_deltas, vals))
        ratio_slopes[frac_str(p)] = float(np.mean(per_center))

    return ScalingReport(
        rows=rows,
        norm_exponents=norm_exponents,
        ratio_slopes=ratio_slopes,
        q0=q0,
        params={
            "deltas": deltas,
            "resolutions": [resolutions[x] for x in deltas],
            "expected_norm_exponent": k + l / q0,
            "seed": cfg.seed,
            "n_centers": len(centers),
        },
    )


# ---------------------------------------------------------------------------
# restricted-set scan


@dataclass(frozen=True)
class ScanReport:
    rows: list
    sup_ratio: float
    max_set_id: str
    half_sup: float
    growth: float
    params: dict = field(default_factory=dict)


def standard_set_family(matrix: CoefficientMatrix, n_sets: int, seed: int):
    """Deterministic family of test sets inside [-1, 1]^d: balls, box unions, tangent tubes.

    Extending the family (larger n_sets, same seed) keeps the earlier sets
    as a prefix, which is what the doubling-stability checks rely on.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    k, d = matrix.k, matrix.d
    sets = []
    while len(sets) < n_sets:
        kind = len(sets) % 3
        if kind == 0:
            y = rng.uniform(-0.4, 0.4, k)
            center = np.concatenate([y, surface_heights(matrix, y)])
            radius = float(rng.choice([0.25, 0.125, 0.0625]))
            if np.max(np.abs(center)) + radius <= 1.0:
                sets.append((f"ball-{len(sets)}", BallSet(tuple(center), radius)))
                continue
        if kind == 1:
            n_boxes = int(rng.integers(1, 4))
            lows, highs = [], []
            for _ in range(n_boxes):
                lo = rng.uniform(-1.0, 0.8, d)
                hi = lo + rng.uniform(0.05, 0.2, d)
                if not any(
                    all(lo[i] < h[i] and lw[i] < hi[i] for i in range(d))
                    for lw, h in zip(lows, highs)
                ):
                    lows.append(lo)
                    highs.append(hi)
            sets.append(
                (
                    f"boxes-{len(sets)}",
                    BoxUnionSet(tuple(map(tuple, lows)), tuple(map(tuple, highs))),
                )
            )
            continue
        y0 = rng.uniform(-0.4, 0.4, k)
        a = float(rng.choice([0.25, 0.125]))
        b = a * a * float(np.abs(matrix.array).sum(axis=0).max() + 1.0)
        tube = TangentTubeSet(matrix, tuple(y0), a, b)
        lo, hi = tube.bounding_box()
        if np.max(np.abs(np.concatenate([lo, hi]))) <= 1.0:
            sets.append((f"tube-{len(sets)}", tube))
        else:
            y0 = y0 * 0.3
            sets.append((f"tube-{len(sets)}", TangentTubeSet(matrix, tuple(y0), a, b)))
    return sets


def restricted_estimate_scan(
    matrix: CoefficientMatrix,
    p: Fraction,
    n_sets: int = 12,
    cfg: NormMcConfig | None = None,
    resolution: int = 128,
) -> ScanReport:
    """Sup of ||mu * chi_E||_q0 / m_d(E)^(1/p) over a deterministic family.

    The exponent pair (1/p, 1/q0) must be strictly inside the admissible
    region; the sup over the family's first half is reported alongside the
    full sup so growth under doubling is visible.
    """
    cfg = cfg or NormMcConfig()
    p = Fraction(p)
    if n_sets < 2:
        raise ValueError("n_sets must be at least 2: the growth compares the family's halves")
    if not check_submatrices(matrix).holds:
        raise ValueError("the row-submatrix condition must hold")
    k, d = matrix.k, matrix.d
    q0 = critical_q0(k, d)
    ts = typeset(k, d)
    point = ExponentPair(Fraction(1) / p, Fraction(1) / q0)
    if not typeset_contains(ts, point, mode="interior"):
        raise ValueError(
            f"exponent point (1/p, 1/q0) = ({point.inv_p}, {point.inv_q}) is not "
            f"interior to the admissible region for k={k}, d={d}"
        )
    measure = SurfaceMeasure(matrix, resolution)
    family = standard_set_family(matrix, n_sets, cfg.seed)

    rows = []
    sup, max_id, half_sup = 0.0, "", 0.0
    for idx, (set_id, test_set) in enumerate(family):
        est = lq_norm_mc(measure, test_set, float(q0), cfg)
        ratio = est.norm / test_set.measure ** float(1 / p)
        rows.append(
            {"set_id": set_id, "kind": test_set.kind, "measure": test_set.measure, "ratio": ratio}
        )
        if ratio > sup:
            sup, max_id = ratio, set_id
        if idx == len(family) // 2 - 1:
            half_sup = sup
    growth = sup / half_sup - 1.0
    return ScanReport(
        rows=rows,
        sup_ratio=sup,
        max_set_id=max_id,
        half_sup=half_sup,
        growth=growth,
        params={"p": frac_str(p), "n_sets": n_sets, "seed": cfg.seed,
                "resolution": resolution},
    )


# ---------------------------------------------------------------------------
# the bilinear shell estimate


def shell_bilinear_estimate(
    matrix: CoefficientMatrix,
    f,
    test_set,
    n_samples: int = 20000,
    seed: int = 0x5EED,
    shell: tuple | None = None,
) -> RatioReport:
    """MC check of the shell-restricted bilinear bound.

    lhs = integral over x in R^k and y in the dyadic shell of
    f(x) chi_E(y; L(x, y)); rhs = ||f||_(d/k) m_d(E)^(k/d).  x is importance
    sampled from f (nonnegative Gaussian), y uniformly from the shell
    {2^(n_i) <= |y_i| < 2^(n_i+1)}, default the unit shell n = 0.
    """
    k, l, d = matrix.k, matrix.l, matrix.d
    if f.dim != k:
        raise ValueError("f must live on R^k")
    _check_dim(test_set, d)
    if test_set.measure <= 0:
        raise ValueError("degenerate test set: the shell estimate needs positive measure")
    shell = tuple(int(n) for n in (shell or (0,) * k))
    if len(shell) != k:
        raise ValueError("shell multi-index must have k entries")
    shell_vol = float(shell_measure(shell))

    def chunk(rng, n):
        xs = f.sample(rng, n)
        ys = sample_shell(rng, shell, n)
        tails = (xs * ys) @ matrix.array
        return test_set.contains_coords([*ys.T, *tails.T]).astype(float)

    seq = np.random.SeedSequence(seed)
    [(mean, var, n)] = seeded_mean(chunk, seq, n_samples, SHELL_CHUNKS)
    scale = f.l1_norm * shell_vol
    lhs = scale * mean
    stderr = scale * math.sqrt(var) / math.sqrt(n)
    rhs = f.lp_norm(d / k) * test_set.measure ** (k / d)
    return RatioReport(lhs=lhs, rhs=rhs, ratio=lhs / rhs, stderr=stderr)


def shell_sum_estimate(
    matrix: CoefficientMatrix,
    f,
    test_set,
    n_min: int = -3,
    n_samples: int = 4000,
    seed: int = 0x5EED,
) -> dict:
    """Sum of the shell estimates over all multi-indices n_min <= n_i <= 0.

    Mirrors the dyadic summation argument: each shell's set slice has
    measure at most 2^(sum(n_i + 1)), so with 1/ptilde = k/d - epsilon the
    shell sums converge geometrically.  Reports per-shell lhs values, the
    cumulative sum, and the epsilon-weighted bound side.
    """
    k, d = matrix.k, matrix.d
    epsilon = 0.05
    shells = list(itertools.product(range(n_min, 1), repeat=k))
    per_shell = []
    total = 0.0
    bound_side = 0.0
    rhs_base = f.lp_norm(d / k) * test_set.measure ** (k / d - epsilon)
    for i, shell in enumerate(shells):
        rep = shell_bilinear_estimate(
            matrix, f, test_set, n_samples=n_samples, seed=seed + i, shell=shell
        )
        total += rep.lhs
        slack = 2.0 ** (epsilon * sum(n + 1 for n in shell))
        bound_side += rhs_base * slack
        per_shell.append({"shell": list(shell), "lhs": rep.lhs, "slack_weight": slack})
    return {
        "per_shell": per_shell,
        "sum_lhs": total,
        "epsilon": epsilon,
        "bound_side": bound_side,
        "params": {"n_min": n_min, "n_samples": n_samples, "seed": seed},
    }

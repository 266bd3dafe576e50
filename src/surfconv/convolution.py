"""Discretized graph-surface measures and their convolution experiments.

The measure is the pushforward of Lebesgue measure on the unit ball of R^k
under y -> (y; heights(y)): a uniform y-grid, cells kept when their centers
lie in the open ball, each atom carrying the full cell volume.  Everything
downstream is built to avoid dense d-dimensional grids: the convolution
sums over atoms found by index-range queries on the y-grid, and L^q norms
are Monte Carlo over a support tube that provably contains
supp(mu * chi_E) and has an exact volume.  That keeps the d = 5 experiments affordable: the atom positions are
generated on the fly from grid indices and never need materializing.

The batched kernel convolve_many works on a cube head-index window around
each z, pruned by a two-level empty-window certificate built on one helper,
_may_hit: interval bounds of |y|^2 and of the heights over a box of y drop
the box when it lies outside the open unit y-ball or puts a tail outside
the test set's bounding box.  The row level (_head_windows) drops every z
whose whole window, clipped to the grid, is empty or certified.  The column
level (_column_certificate) certifies each window column of the kept z: the
first k - 1 head indices fixed, the last running over the row's clipped
index interval, and the fixed heads z_i - y_i inside the box.  Only the
kept columns reach the set's contains_coords, gathered as (n_cols, n_k)
tables and handed over as one coordinate array per axis: each fixed head
an (n_cols, 1) column, the last head and each tail a full table.  Heads and
tails are sums of per-axis terms, contains_coords is each set's only
membership test, and every set runs it per axis, so no (B * window, d)
point array is ever assembled.  Other callers pass points as columns,
points.T.  np.bincount adds the column counts into per-z counts.

A certificate batch holds at most _BATCH_POINTS = 32 768 window columns,
and a membership batch at most as many points.  The membership batch's
full-size arrays (the tails, the last head's squares and coordinates, the
validity sum and mask, and the ball's squares and running sums) are
written with out= ufunc calls into the module's scratch buffers (_scratch),
which grow to the largest batch and are never shrunk, so a run faults them
in once instead of on every call.  Every call shares them, so two calls
must not run at once.  Every point's arithmetic is the one a full scan of
the cube does, in the same order, so every count is bit-identical.  No
result a public function returns is a scratch view.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import parallel
from .exponents import ExponentPair, critical_q0, typeset, typeset_contains
from .parallel import RatioReport, seeded_mean
from .quadrature import ball_volume
from .rationals import frac_str
from .surface import (
    CoefficientMatrix,
    check_source,
    check_submatrices,
    min_submatrix_det,
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
        _, h_lo, h_hi = _box_bounds(self.matrix.array, lo[:k], hi[:k])
        return (
            np.concatenate([lo[:k], (lo[k:] + np.array(h_lo)) / 2.0]),
            np.concatenate([hi[:k], (hi[k:] + np.array(h_hi)) / 2.0]),
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


# Batch size of convolve_many: window columns per certificate batch, and
# kept-column points per membership batch.  At d = 5 a membership batch's
# scratch (two tails, the last head's squares and coordinates, the ball's
# two sums and its square, the mask) is about 1.8 MB.  The last head axis
# is full-size here, so 65 536 points, the batch of a whole-cube scan, raise
# restricted_paraboloid's max RSS above that scan's; 32 768 keep every
# shipped config at or below it.
_BATCH_POINTS = 32_768

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
        if np.broadcast(acc, t).shape == out.shape:
            acc = np.add(acc, t, out=out)
        else:
            acc = acc + t
    return acc


def _squares_interval(lo, hi):
    """Componentwise bounds of y**2 over the interval [lo, hi]."""
    lo2, hi2 = np.square(lo), np.square(hi)
    return np.where((lo <= 0) & (hi >= 0), 0.0, np.minimum(lo2, hi2)), np.maximum(lo2, hi2)


def _box_bounds(arr: np.ndarray, y_lo, y_hi):
    """Bounds over the head box prod_i [y_lo[i], y_hi[i]]: a lower bound of |y|^2,
    and per-tail lists of lower and upper bounds of heights(y).

    y_lo and y_hi hold one broadcastable array (or scalar) per head axis, and
    arr is the (k, l) coefficient array.  Every sum runs left to right over
    the axes, the order of numpy's reduction over a length-k axis, so the
    bounds are bit-identical to that reduction's.
    """
    sq = [_squares_interval(a, b) for a, b in zip(y_lo, y_hi)]

    def ordered(terms):
        return sum(terms[1:], terms[0])

    h_lo = [ordered([(lo2 if ci > 0 else hi2) * ci for ci, (lo2, hi2) in zip(c, sq)]) for c in arr.T]
    h_hi = [ordered([(hi2 if ci > 0 else lo2) * ci for ci, (lo2, hi2) in zip(c, sq)]) for c in arr.T]
    return ordered([lo2 for lo2, _ in sq]), h_lo, h_hi


# Absolute slack of the empty-window certificate.  Coordinates are O(1), so
# rounding moves them by ~1e-15; the slack dwarfs that and stays far below
# any grid spacing, so a window is skipped only when it misses by a margin.
_SKIP_SLACK = 1e-9


def _may_hit(arr: np.ndarray, y_lo, y_hi, tails, lo_tail, hi_tail):
    """False only where no atom with head in prod_i [y_lo[i], y_hi[i]] puts z into the box.

    Such an atom lies in the open unit y-ball, so the box's least |y|^2 must
    be below 1; and each tail z_tail_j - heights_j(y) must reach the box's
    tail [lo_tail[j], hi_tail[j]].  Arguments are per-axis and broadcast.
    """
    r2, h_lo, h_hi = _box_bounds(arr, y_lo, y_hi)
    keep = r2 < 1.0 + _SKIP_SLACK
    for t, bottom, top, a, b in zip(tails, h_lo, h_hi, lo_tail, hi_tail):
        keep &= t - top <= b + _SKIP_SLACK
        keep &= t - bottom >= a - _SKIP_SLACK
    return keep


def _check_dim(test_set, d: int):
    if test_set.dim != d:
        raise ValueError(f"test set lives in R^{test_set.dim}, the surface in R^{d}")


# ---------------------------------------------------------------------------
# the measure


class SurfaceMeasure:
    """Atomic discretization of the graph measure over the unit y-ball.

    Atoms sit at (y; heights(y)) for y-grid cell centers inside the open
    unit ball, each with weight spacing^k.  They are never materialized: the
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

    # -- index-range convolution --

    def _grid_y(self, ix):
        return -1.0 + (ix + 0.5) * self.spacing

    def _head_windows(self, lo: np.ndarray, hi: np.ndarray, zs: np.ndarray):
        """Cube head-index windows of a set with bounding box [lo, hi]: the row certificate.

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
        # per-axis columns: a reduction over the short head axis costs more than k column ops
        may_hit = _may_hit(self.matrix.array, self._grid_y(i_lo).T, self._grid_y(i_hi).T,
                           zs[:, k:].T, lo[k:], hi[k:])
        for a, b in zip(i_lo.T, i_hi.T):
            may_hit &= a <= b
        return base, reach, may_hit

    def _column_certificate(self, lo, hi, z, base, reach):
        """The column certificate of a batch of rows that passed the row certificate.

        A column fixes the window's first k - 1 head indices; its last index
        runs over the row's index interval clipped to the grid.  Returns the
        fixed axes' y as (B, n_i) tables, and a (B, n_1, ..., n_{k-1}) mask
        that is False only where the column provably holds no atom inside
        the set: a fixed head z_i - y_i lies outside the box, or _may_hit
        refuses the column's index box.  A fixed index off the grid has
        |y_i| >= 1 + s/2, so _may_hit refuses it.
        """
        k, m = self.k, reach[-1]
        lead = (len(z),) + (1,) * (k - 1)
        y_fixed, y_box, heads_in = [], [], True
        for i in range(k - 1):
            y = self._grid_y(base[:, i, None] + np.arange(-reach[i], reach[i] + 1))
            y_fixed.append(y)
            y = y.reshape([len(z)] + [-1 if a == i else 1 for a in range(k - 1)])
            y_box.append(y)
            head = z[:, i].reshape(lead) - y
            heads_in = heads_in & (head >= lo[i] - _SKIP_SLACK) & (head <= hi[i] + _SKIP_SLACK)
        last = base[:, -1]
        y_lo = self._grid_y(np.maximum(last - m, 0)).reshape(lead)
        y_hi = self._grid_y(np.minimum(last + m, self.resolution - 1)).reshape(lead)
        tails = [z[:, j].reshape(lead) for j in range(k, self.d)]
        keep = _may_hit(self.matrix.array, y_box + [y_lo], y_box + [y_hi], tails, lo[k:], hi[k:])
        return y_fixed, keep & heads_in

    def convolve_many(self, test_set, zs: np.ndarray) -> np.ndarray:
        """(mu * chi_E)(z) for a batch of z, over one cube index window each.

        The row certificate drops every z whose whole window is certified
        empty.  The column certificate takes the kept z in batches of at
        most _BATCH_POINTS window columns and keeps the columns that can
        hold a hit.  E's contains_coords runs on at most _BATCH_POINTS
        points of kept columns at a time, each column the whole run of
        2 reach_k + 1 last-axis indices (an index off the grid fails the
        unit-ball test), and np.bincount adds the column counts into per-z
        counts.  The full-size arrays live in the scratch buffers; the
        returned array is new.
        """
        _check_dim(test_set, self.d)
        zs = np.atleast_2d(np.asarray(zs, dtype=float))
        out = np.zeros(len(zs))
        lo, hi = (np.asarray(b, dtype=float) for b in test_set.bounding_box())
        k, s = self.k, self.spacing
        base, reach, may_hit = self._head_windows(lo, hi, zs)
        window = math.prod(2 * int(r) + 1 for r in reach)
        if window > 40_000_000:
            raise ValueError("test set too wide for this resolution's index window")
        rows = np.flatnonzero(may_hit)
        run = np.arange(-reach[-1], reach[-1] + 1)  # the last axis's offsets
        row_batch = max(1, _BATCH_POINTS // (window // len(run)))
        col_batch = max(1, _BATCH_POINTS // len(run))
        for b0 in range(0, len(rows), row_batch):
            r = rows[b0 : b0 + row_batch]
            y_fixed, keep = self._column_certificate(lo, hi, zs[r], base[r], reach)
            row, *fixed = np.nonzero(keep)
            # every column of a row shares the last axis's y: square it and subtract it once
            y_last = self._grid_y(base[r, -1, None] + run)
            sq_last, head_last = y_last**2, zs[r, k - 1, None] - y_last
            counts = np.zeros(len(r))
            for c0 in range(0, len(row), col_batch):
                sel = row[c0 : c0 + col_batch]
                z = zs[r[sel]]
                y = [t[sel, c[c0 : c0 + col_batch], None] for t, c in zip(y_fixed, fixed)]
                sq, head = _scratch("last", 2, (len(sel), len(run)))
                # mode="clip" lets take write straight into out; every index is in range
                np.take(sq_last, sel, axis=0, out=sq, mode="clip")
                np.take(head_last, sel, axis=0, out=head, mode="clip")
                ysq = [yi**2 for yi in y] + [sq]
                heads = [z[:, i, None] - yi for i, yi in enumerate(y)] + [head]
                counts += np.bincount(sel, self._column_hits(test_set, z, ysq, heads), len(r))
            out[r] = counts * s**k
        return out

    def _column_hits(self, test_set, z, ysq, heads) -> np.ndarray:
        """Atoms inside the set, per kept column, from the columns' z (n, d).

        ysq and heads hold each head axis's y_i^2 and z_i - y_i: (n, 1)
        columns on the fixed axes, (n, n_k) tables on the last.
        """
        k, arr = self.k, self.matrix.array
        shape = ysq[-1].shape
        tails = _scratch("tails", self.l, shape)
        (valid,) = _scratch("valid", 1, shape, bool)
        # an index off the grid puts |y_i| >= 1 + s/2, so this also keeps to the grid;
        # tails[0] holds the sum until the first tail overwrites it
        np.less(_ordered_sum(ysq, tails[0]), 1.0, out=valid)
        coords = list(heads)
        for j, tail in enumerate(tails):
            # the last axis's term goes into tail first, so the sum allocates nothing full-size
            np.multiply(ysq[-1], arr[-1, j], out=tail)
            heights = _ordered_sum([ysq[i] * arr[i, j] for i in range(k - 1)] + [tail], tail)
            coords.append(np.subtract(z[:, k + j, None], heights, out=tail))
        valid &= test_set.contains_coords(coords)
        return valid.sum(axis=1)


# ---------------------------------------------------------------------------
# Lq norms


# Seeded chunks of lq_norm_mc and of shell_bilinear_estimate.  The chunk
# layout picks the random streams, so another value moves every estimate.
NORM_CHUNKS = 8
SHELL_CHUNKS = 16


@dataclass(frozen=True)
class NormEstimate:
    norm: float
    stderr: float

    @property
    def low_confidence(self) -> bool:
        return self.stderr > 0.1 * self.norm


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
    *,
    seed: int,
    n_tube: int,
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

    [(mean, var, n)] = seeded_mean(tube_chunk, seed, n_tube, NORM_CHUNKS)
    total = v_tube * mean
    var = v_tube**2 * (var / n)
    if total <= 0:
        raise ValueError(
            f"zero norm estimate on {test_set!r}: none of {n_tube} tube samples "
            "met the set; raise n_tube"
        )
    norm = total ** (1.0 / q)
    stderr = total ** (1.0 / q - 1.0) / q * math.sqrt(var)
    return NormEstimate(norm=norm, stderr=stderr)


# ---------------------------------------------------------------------------
# ball-scaling experiment


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
    *,
    seed: int,
    resolution: int | None,
    n_tube: int,
    n_centers: int,
) -> ScalingReport:
    """Norms of mu * chi_ball(delta) across dyadic delta, at the critical q.

    For each center on the surface and each delta, estimates
    N = ||mu * chi_B||_q0 and tabulates N / m_d(B)^(1/p) per p.  Slopes of
    log-quantities against log delta are fit with the finest (smallest)
    delta dropped.  The height of the convolution is ~ delta^k on a tube of
    measure ~ delta^l, so the norm's delta-exponent is k + l/q0; the ratio's
    slope is that minus d/p, crossing zero exactly at the triangle vertex.
    resolution None gives each delta its own grid (see _res_for).
    """
    deltas = sorted(float(x) for x in deltas)
    if len(set(deltas)) < 3:
        # with fewer, the fitted radii can coincide and the slope is not determined
        raise ValueError("need at least 3 distinct dyadic radii for a slope")
    min_submatrix_det(matrix)
    if resolution and 2.0 / resolution > deltas[0]:
        # the grid cannot resolve the smallest ball: its norms would be 0
        raise ValueError(
            f"resolution {resolution} gives grid spacing {2.0 / resolution}, "
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
        if resolution:
            return int(resolution)
        return min(1024, max(32, 2 ** math.ceil(math.log2(8.0 / delta))))

    resolutions = {delta: _res_for(delta) for delta in deltas}
    measures = {delta: SurfaceMeasure(matrix, resolutions[delta]) for delta in deltas}

    rng = parallel.rng(seed)
    ys = [np.zeros(k)]
    while len(ys) < n_centers:
        cand = rng.uniform(-0.7, 0.7, k)
        if (cand**2).sum() < 0.49:
            ys.append(cand)
    centers = [np.concatenate([y, surface_heights(matrix, y)]) for y in ys]

    rows = []
    norms = {}
    for cid, center in enumerate(centers):
        for j, delta in enumerate(deltas):
            ball = BallSet(tuple(center), delta)
            est = lq_norm_mc(measures[delta], ball, q0, seed=seed + 1000 * cid + j, n_tube=n_tube)
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
            "seed": seed,
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
    rng = parallel.rng(seed)
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
        if np.max(np.abs(np.concatenate([lo, hi]))) > 1.0:
            tube = TangentTubeSet(matrix, tuple(y0 * 0.3), a, b)
        sets.append((f"tube-{len(sets)}", tube))
    return sets


def restricted_estimate_scan(
    matrix: CoefficientMatrix,
    p: Fraction,
    *,
    n_sets: int,
    seed: int,
    n_tube: int,
    resolution: int,
) -> ScanReport:
    """Sup of ||mu * chi_E||_q0 / m_d(E)^(1/p) over a deterministic family.

    The exponent pair (1/p, 1/q0) must be strictly inside the admissible
    region; the sup over the family's first half is reported alongside the
    full sup so growth under doubling is visible.
    """
    p = Fraction(p)
    if n_sets < 2:
        raise ValueError("n_sets must be at least 2: the growth compares the family's halves")
    min_submatrix_det(matrix)
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
    family = standard_set_family(matrix, n_sets, seed)

    rows = []
    sup, max_id, half_sup = 0.0, "", 0.0
    for idx, (set_id, test_set) in enumerate(family):
        est = lq_norm_mc(measure, test_set, float(q0), seed=seed, n_tube=n_tube)
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
        params={"p": frac_str(p), "n_sets": n_sets, "seed": seed, "resolution": resolution},
    )


# ---------------------------------------------------------------------------
# the bilinear shell estimate


def shell_bilinear_estimate(
    matrix: CoefficientMatrix,
    f,
    test_set,
    *,
    n_samples: int,
    seed: int,
    shell: tuple | None = None,
) -> RatioReport:
    """MC check of the shell-restricted bilinear bound.

    lhs = integral over x in R^k and y in the dyadic shell of
    f(x) chi_E(y; L(x, y)); rhs = ||f||_(d/k) m_d(E)^(k/d).  x is importance
    sampled from f (nonnegative Gaussian), y uniformly from the shell
    {2^(n_i) <= |y_i| < 2^(n_i+1)}, default the unit shell n = 0.
    """
    check_source(matrix, f.dim)
    k, l, d = matrix.k, matrix.l, matrix.d
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

    [(mean, var, n)] = seeded_mean(chunk, seed, n_samples, SHELL_CHUNKS)
    scale = f.mass * shell_vol
    lhs = scale * mean
    stderr = scale * math.sqrt(var) / math.sqrt(n)
    rhs = f.lp_norm(d / k) * test_set.measure ** (k / d)
    return RatioReport(lhs=lhs, rhs=rhs, stderr=stderr)


def shell_sum_estimate(
    matrix: CoefficientMatrix,
    f,
    test_set,
    *,
    n_min: int,
    n_samples: int,
    seed: int,
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

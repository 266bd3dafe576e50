"""The restricted plane transform as a pushforward, plus its consistency checks.

For fixed y the linear map x -> (L_1(x, y), ..., L_l(x, y)) fibers R^k into
parallel (k-l)-planes.  Integrating a function f over those fibers is, by
definition, the pushforward of f dm_k under the map, so the transform is
realized as a histogram deposit: each source cell sends its mass to the target
cell containing its image, and the density is recovered by dividing by target
cell volume.  The defining pairing

    integral Tf(y; u) h(u) du = integral f(x) h(L_y x) dx

then holds by construction up to discretization, and everything else in this
module (mass conservation, the Fourier identity, the unimodular sup bound)
cross-checks that realization against closed forms.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .gaussians import GaussianSpec
from .surface import CoefficientMatrix, adjoint_image, bilinear_forms, check_source


@dataclass(frozen=True)
class GridFunction:
    """A function sampled at the cell centers of a uniform axis-aligned grid."""

    dim: int
    origin: tuple[float, ...]
    spacing: float
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "origin", tuple(float(o) for o in self.origin))
        vals = np.asarray(self.values, dtype=float)
        if len(self.origin) != self.dim or vals.ndim != self.dim:
            raise ValueError("origin and values must match dim")
        if not self.spacing > 0:
            raise ValueError("spacing must be positive")
        object.__setattr__(self, "values", vals)

    @property
    def extents(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    def centers_1d(self, axis: int) -> np.ndarray:
        n = self.extents[axis]
        return self.origin[axis] + (np.arange(n) + 0.5) * self.spacing

    def interpolate(self, points) -> np.ndarray:
        """Multilinear interpolation with zero fill outside the grid."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        rel = (pts - np.asarray(self.origin)) / self.spacing - 0.5
        base = np.floor(rel).astype(int)
        frac = rel - base
        out = np.zeros(pts.shape[0])
        for corner in range(1 << self.dim):
            idx = base.copy()
            weight = np.ones(pts.shape[0])
            for a in range(self.dim):
                if corner >> a & 1:
                    idx[:, a] += 1
                    weight *= frac[:, a]
                else:
                    weight *= 1.0 - frac[:, a]
            ok = np.all((idx >= 0) & (idx < np.asarray(self.extents)), axis=1)
            if np.any(ok):
                flat = np.ravel_multi_index(tuple(idx[ok].T), self.extents)
                out[ok] += weight[ok] * self.values.ravel()[flat]
        return out

    @classmethod
    def from_gaussian(cls, spec: GaussianSpec, cells: int) -> "GridFunction":
        """Sample a Gaussian on a centered box covering essentially all its mass."""
        radius = spec.box_for_mass()
        origin = tuple(m - radius for m in spec.mean)
        spacing = 2.0 * radius / cells
        axes = [o + (np.arange(cells) + 0.5) * spacing for o in origin]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        vals = np.asarray(spec.evaluate(pts), dtype=float).reshape((cells,) * spec.dim)
        return cls(dim=spec.dim, origin=origin, spacing=spacing, values=vals)


@dataclass(frozen=True)
class PushforwardDensity:
    """The transform Tf(y; .) on its target grid."""

    grid: GridFunction
    leak_fraction: float


def _check_transform_inputs(matrix: CoefficientMatrix, y, source_dim: int) -> np.ndarray:
    """The one input check of the transform layer: check_source, and a
    well-conditioned y of length k."""
    check_source(matrix, source_dim)
    y = np.asarray(y, dtype=float)
    if y.shape != (matrix.k,):
        raise ValueError(f"y must be a vector of length {matrix.k}")
    mags = np.abs(y)
    if np.any(mags < 0.5) or np.any(mags > 4.0):
        raise ValueError("all |y_i| must lie in [1/2, 4] for a well-conditioned transform")
    return y


def _target_grid(f: GridFunction, matrix: CoefficientMatrix, y: np.ndarray, cells: int):
    """Half-width and spacing of the transform's target grid.

    The half-width is 1.05 times the largest |L_y x| over the source-box
    corners, and `cells` cells span it on each axis.
    """
    lo = np.asarray(f.origin)
    hi = lo + np.asarray(f.extents) * f.spacing
    best = 0.0
    for code in range(1 << f.dim):
        corner = np.where([(code >> a) & 1 for a in range(f.dim)], hi, lo)
        img = bilinear_forms(matrix, corner, y)
        best = max(best, float(np.max(np.abs(img))))
    radius = 1.05 * best
    return radius, 2.0 * radius / cells


def _source_cells(f: GridFunction, matrix: CoefficientMatrix, y: np.ndarray):
    """Yield, slab by slab, the images L_y x (N, l) of f's source cell centers x
    and f's values there (N,).

    The slabs are 16 contiguous groups of source rows (axis 0), fewer if f
    has fewer rows.  The slab count fixes the order of every sum over source
    cells, and hence its float bits: another value moves payload bytes.
    """
    n0 = f.extents[0]
    bounds = np.linspace(0, n0, min(16, n0) + 1).astype(int)
    rest = [f.centers_1d(ax) for ax in range(1, f.dim)]
    for a, b in zip(bounds[:-1], bounds[1:]):
        if b > a:
            mesh = np.meshgrid(f.centers_1d(0)[a:b], *rest, indexing="ij")
            pts = np.stack([m.ravel() for m in mesh], axis=-1)
            yield bilinear_forms(matrix, pts, np.broadcast_to(y, pts.shape)), f.values[a:b].ravel()


def plane_transform(
    f: GridFunction,
    matrix: CoefficientMatrix,
    y,
    cells: int,
) -> PushforwardDensity:
    """Pushforward of f dm_k under x -> L_y x, as a density on an l-grid.

    Each source cell deposits its mass in the target cell holding its image.
    Mass landing outside the target box is counted in leak_fraction rather
    than silently dropped.  Each slab deposits into a grid of its own, and
    the grids are added in slab order, which fixes the float sums.
    """
    y = _check_transform_inputs(matrix, y, f.dim)
    l = matrix.l
    radius, spacing = _target_grid(f, matrix, y, cells)
    origin = (-radius,) * l
    acc = np.zeros((cells,) * l)
    leaked = 0.0
    total = 0.0
    for img, vals in _source_cells(f, matrix, y):
        part = np.zeros((cells,) * l)
        weights = vals * f.cell_volume
        idx = np.floor((img - np.asarray(origin)) / spacing).astype(int)
        ok = np.all((idx >= 0) & (idx < cells), axis=1)
        if np.any(ok):
            np.add.at(part, tuple(idx[ok].T), weights[ok])
        acc += part
        leaked += float(np.abs(weights[~ok]).sum())
        total += float(np.abs(weights).sum())
    grid = GridFunction(dim=l, origin=origin, spacing=spacing, values=acc / spacing**l)
    frac = leaked / total if total > 0 else 0.0
    return PushforwardDensity(grid=grid, leak_fraction=frac)


@dataclass(frozen=True)
class PairingReport:
    lhs: float
    rhs: float
    rel_err: float
    leak_fraction: float


def pairing_check(
    f: GridFunction,
    h: GridFunction,
    matrix: CoefficientMatrix,
    y,
    cells: int,
) -> PairingReport:
    """Both sides of the defining pairing, each by its own grid quadrature.

    lhs integrates Tf(y; u) h(u) on the transform's target grid; rhs
    integrates f(x) h(L_y x) on the source grid with h interpolated
    multilinearly.  Their relative gap measures pure discretization error.
    """
    if h.dim != matrix.l:
        raise ValueError("h must live on an l-dimensional grid")
    pf = plane_transform(f, matrix, y, cells=cells)  # checks the matrix, y and f
    tgrid = pf.grid
    axes = [tgrid.centers_1d(a) for a in range(tgrid.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    centers = np.stack([m.ravel() for m in mesh], axis=-1)
    lhs = float(np.sum(tgrid.values.ravel() * h.interpolate(centers)) * tgrid.cell_volume)

    rhs = 0.0
    for img, vals in _source_cells(f, matrix, y):
        rhs += float(np.sum(vals * h.interpolate(img)))
    rhs *= f.cell_volume

    denom = max(abs(lhs), abs(rhs), 1e-300)
    return PairingReport(
        lhs=lhs, rhs=rhs, rel_err=abs(lhs - rhs) / denom, leak_fraction=pf.leak_fraction
    )


@dataclass(frozen=True)
class FourierReport:
    max_rel_err: float
    nyquist: float
    excluded: tuple[int, ...]


def fourier_check(
    spec: GaussianSpec,
    matrix: CoefficientMatrix,
    y,
    zeta_list,
    cells: int,
) -> FourierReport:
    """Compare the transform of Tf(y; .) against the closed form f^(y * C zeta).

    With the convention f^(xi) = integral f(x) e^(-2 pi i <x, xi>) dx, the
    transform of the pushforward at frequency zeta equals f^ at the adjoint
    image y * (C zeta).  f must be a centered Gaussian so the closed form is
    real and positive.

    The discrete side is the exact Fourier transform of the pushforward of
    the sampled f, i.e. the atomic sum h^k sum_x f(x) e^(-2 pi i <L_y x, zeta>).
    Reading the same number off the deposited target grid would fold in bin
    quantization, whose lattice-beat noise (~1e-3 of the mass at 128 cells)
    buries every frequency where the true transform is small; the atomic sum
    has no such artifact.  Frequencies above half the target Nyquist rate are
    excluded (with a warning); per-frequency errors are measured relative to
    max(closed form, 1e-8 * mass) so that fully decayed frequencies are
    compared against quadrature noise honestly rather than by a 0/0 ratio.
    """
    if any(m != 0.0 for m in spec.mean):
        raise ValueError("fourier_check requires a centered Gaussian")
    y = _check_transform_inputs(matrix, y, spec.dim)
    f = GridFunction.from_gaussian(spec, cells=cells)
    nyquist = 1.0 / (2.0 * _target_grid(f, matrix, y, cells)[1])

    floor = 1e-8 * spec.mass
    excluded = []
    max_err = 0.0
    kept: list[np.ndarray] = []
    for idx, zeta in enumerate(zeta_list):
        z = np.asarray(zeta, dtype=float).reshape(matrix.l)
        if float(np.linalg.norm(z)) > 0.5 * nyquist:
            excluded.append(idx)
        else:
            kept.append(z)
    sums = np.zeros(len(kept), dtype=complex)
    if kept:
        zmat = np.stack(kept, axis=0)
        for img, vals in _source_cells(f, matrix, y):
            sums += np.exp(-2j * math.pi * (zmat @ img.T)) @ vals
        sums *= f.cell_volume
    for z, disc in zip(kept, sums):
        exact = float(spec.fourier_modulus(adjoint_image(matrix, y, z)))
        max_err = max(max_err, abs(disc - exact) / max(exact, floor))
    if excluded:
        warnings.warn(
            f"{len(excluded)} frequencies above Nyquist/2 = {0.5 * nyquist:.3g} excluded",
            RuntimeWarning,
            stacklevel=2,
        )
    return FourierReport(max_rel_err=max_err, nyquist=nyquist, excluded=tuple(excluded))


@dataclass(frozen=True)
class OscillatoryReport:
    sup_abs: float
    l1_norm: float


def oscillatory_sup_bound(
    f: GridFunction,
    matrix: CoefficientMatrix,
    y,
    s: float,
    u_points,
) -> OscillatoryReport:
    """sup over u of |integral f(x) |u - L_y x|^(is) dx| against ||f||_1.

    The integrand is unimodular (|t|^(is) = e^(is log t), with |0|^(is) taken
    as 1), so the sup can never exceed ||f||_1 beyond quadrature slack; at
    s = 0 every term is exactly 1 and the two numbers agree to the bit.
    """
    y = _check_transform_inputs(matrix, y, f.dim)
    u = np.atleast_2d(np.asarray(u_points, dtype=float))
    if u.shape[1] != matrix.l:
        raise ValueError("u points must have l coordinates")

    l1 = 0.0
    g = np.zeros(u.shape[0], dtype=complex)
    for img, vals in _source_cells(f, matrix, y):
        w = vals * f.cell_volume
        l1 += float(np.abs(w).sum())
        if s == 0.0:
            # every phase is exactly 1; adding the plain slab sum keeps the
            # bit-level tie to l1 for nonnegative f (a matmul would not)
            g += w.sum()
            continue
        # distance from each u to each image point, in manageable chunks
        for lo in range(0, u.shape[0], 256):
            hi = min(lo + 256, u.shape[0])
            diff = u[lo:hi, None, :] - img[None, :, :]
            t = np.linalg.norm(diff, axis=-1)
            with np.errstate(divide="ignore"):
                ang = s * np.log(t)
            phase = np.exp(1j * np.where(np.isfinite(ang), ang, 0.0))
            g[lo:hi] += phase @ w
    return OscillatoryReport(sup_abs=float(np.max(np.abs(g))), l1_norm=l1)

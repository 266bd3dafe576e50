"""Verification of the shell-averaged frequency identity and its consequences.

The central claim being exercised: for nonnegative weights w on R^k, with y
ranging over the unit dyadic shell {1 <= |y_i| < 2, both signs} and zeta over
R^l,

    integral_shell integral |zeta|^rho w(y * C zeta) dzeta dy
        <= c * integral |tau|^(rho - k + l) w(tau) dtau,

with a constant independent of w.  Everything here estimates both sides
honestly and reports their ratio: the left side by Monte Carlo in y crossed
with a deterministic polar quadrature in zeta, the right side by polar
quadrature alone.  The radial weight is why the rules are polar: in
r-coordinates the integrand carries r^(rho + l - 1) (left) or
r^(rho + l - 1) (right, after the r^(k-1) Jacobian), which is smooth for
rho >= 0 and dyadic-panel-friendly for the permitted negative rho.

The same machinery restricted to frequency regions (per comparable-row set Q),
the change-of-variables identity behind it, and the L2 chain with
w = |f^|^2 all live here.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import overload

import numpy as np

from .gaussians import GaussianSpec
from .parallel import RatioReport, seeded_mean
from .quadrature import gauss_legendre_interval, sphere_area, sphere_rule
from .surface import (
    CoefficientMatrix,
    check_submatrices,
    comparability_constant,
    comparable_rows,
    det_fraction,
    sample_shell,
    shell_measure,
)

# Seeded chunks of y-samples per shell integral.  The chunk layout picks the random
# streams, so another value moves every estimate.
Y_CHUNKS = 16

# Largest tau-space radius of the quadratures.  It must cover at least 99.9%
# of every weight's mass (validated analytically for Gaussians); the rules
# tighten it to the ball holding all but 1e-9 of a more concentrated weight.
TRUNCATION_RADIUS = 12.0


@dataclass(frozen=True)
class McConfig:
    """Sampling plan shared by the ratio estimators."""

    seed: int = 0x5EED
    n_y: int = 512
    n_radial: int = 48
    n_sphere: int = 64

    def __post_init__(self):
        if self.n_radial <= 0 or self.n_sphere <= 0:
            raise ValueError("node counts must be positive")

    def doubled(self) -> "McConfig":
        """The same plan with twice the y-samples and denser quadrature."""
        return McConfig(
            seed=self.seed,
            n_y=2 * self.n_y,
            n_radial=2 * self.n_radial,
            n_sphere=2 * self.n_sphere,
        )


def _finite_power(base: float, exponent: float) -> bool:
    try:
        return math.isfinite(base**exponent)
    except OverflowError:
        return False


def _check_inputs(matrix: CoefficientMatrix, rhos, w: GaussianSpec) -> None:
    """What every ratio estimator needs: the row-submatrix condition, a weight
    on R^k whose mass TRUNCATION_RADIUS covers, and convergent rhos whose
    quadrature weights r^rho (zeta side) and r^(rho - k + l) (tau side) stay
    finite out to the rule's radius."""
    if not check_submatrices(matrix).holds:
        raise ValueError("the row-submatrix condition must hold")
    if w.dim != matrix.k:
        raise ValueError("weight must live on R^k")
    r_tau = _tau_radius(w)
    r_zeta = _zeta_radius(matrix, w)
    for rho in rhos:
        if rho <= -matrix.l + 0.1:
            raise ValueError(f"rho = {rho} too negative for a convergent frequency integral")
        for side, radius, exponent in (("zeta", r_zeta, rho),
                                       ("tau", r_tau, rho - matrix.k + matrix.l)):
            if not _finite_power(radius, exponent):
                raise ValueError(
                    f"rho = {rho}: non-finite frequency estimate (the {side} quadrature "
                    f"weight {radius:.6g}^{exponent:g} overflows)"
                )
    outside = w.tail_outside_box(TRUNCATION_RADIUS / math.sqrt(matrix.k))
    if outside > 1e-3:
        raise ValueError(
            f"truncation radius {TRUNCATION_RADIUS} covers only {1 - outside:.4%} of the weight's mass"
        )


def _tau_radius(w: GaussianSpec) -> float:
    """Radius of the tau ball: the origin-centered ball holding all but 1e-9
    of w's mass, capped at TRUNCATION_RADIUS."""
    return min(TRUNCATION_RADIUS, math.sqrt(w.dim) * w.box_for_mass(1e-9))


def _radial_rule(rho: float, dim: int, r_max: float, n_radial: int):
    """Nodes/weights in r for integral r^(dim-1+rho) g(r) dr on (0, r_max].

    The returned weights contain r^(dim-1) only; the caller multiplies by
    r^rho at the nodes.  For rho >= 0 a single Gauss-Legendre rule is
    spectrally accurate.  For rho < 0 the integrand is singular at 0, so the
    interval is split into dyadic panels down to 2^-40 r_max; the remaining
    core contributes at most w_max * S^(dim-1) * eps^(rho+dim) / (rho+dim),
    which the caller records as a bound.
    """
    if rho >= 0:
        r, wr = gauss_legendre_interval(n_radial, 0.0, r_max)
        return r, wr * r ** (dim - 1)
    nodes, weights = [], []
    n_per = max(8, n_radial // 6)
    hi = r_max
    for _ in range(40):
        lo = hi / 2.0
        r, wr = gauss_legendre_interval(n_per, lo, hi)
        nodes.append(r)
        weights.append(wr * r ** (dim - 1))
        hi = lo
    return np.concatenate(nodes[::-1]), np.concatenate(weights[::-1])


def _excluded_core_bound(rho: float, dim: int, r_max: float, w_max: float) -> float:
    """Bound on the integral of |x|^rho w over the excluded core ball."""
    if rho >= 0:
        return 0.0
    eps = r_max * 2.0**-40
    return w_max * sphere_area(dim) * eps ** (rho + dim) / (rho + dim)


def _polar_rule(rho: float, dim: int, r_max: float, cfg: McConfig):
    """The radial rule (see _radial_rule) and the sphere rule of a polar product rule."""
    r, wr = _radial_rule(rho, dim, r_max, cfg.n_radial)
    theta, wtheta = sphere_rule(dim, max(16, cfg.n_sphere // 2), cfg.n_sphere)
    return r, wr, theta, wtheta


def _polar_nodes(rho: float, dim: int, r_max: float, cfg: McConfig):
    """Polar product nodes (N, dim), weights (N,), and node radii r (N,).

    The rule depends on rho only through its sign (see _radial_rule); the
    caller multiplies the weights by radii**rho for the rho it integrates.
    """
    r, wr, theta, wtheta = _polar_rule(rho, dim, r_max, cfg)
    nodes = (r[:, None, None] * theta[None, :, :]).reshape(-1, dim)
    weights = np.multiply.outer(wr, wtheta).ravel()
    return nodes, weights, np.repeat(r, len(wtheta))


def _weight_integral(w: GaussianSpec, exponent: float, r_max: float, cfg: McConfig) -> tuple[float, float]:
    """integral |tau|^exponent w(tau) dtau over the ball of radius r_max.

    The polar rule is a product of radial nodes r and sphere nodes theta, so
    w is evaluated as the (n_r, n_theta) block w(r_a * theta_b) and contracted
    as (wr * r^exponent) @ W @ wtheta.  Returns the quadrature value and the
    analytic bound on the excluded core (nonzero only for exponent < 0).
    """
    r, wr, theta, wtheta = _polar_rule(exponent, w.dim, r_max, cfg)
    block = w.product_block(np.repeat(r[:, None], w.dim, axis=1), w.product_side(theta))
    val = float((wr * r**exponent) @ block @ wtheta)
    return val, _excluded_core_bound(exponent, w.dim, r_max, w.amplitude)


def _region_masks(
    matrix: CoefficientMatrix, rho: float, w: GaussianSpec, cfg: McConfig, mode: str
) -> dict[tuple[int, ...], np.ndarray]:
    """Which zeta nodes of the rho rule belong to the region of each row set Q.

    The keys are the increasing (k - l)-row sets.  mode "defining":
    |zeta| <= M |(C zeta)_i| for every i in Q; the regions of different Q
    overlap.  mode "selected": the row-selection rule (see
    surface.comparable_rows) applied to zeta yields exactly Q; the regions
    partition frequency space (up to the measure-zero boundaries), so
    per-region contributions sum to the total.  Membership is
    scale-invariant either way, both sides of the inequality being
    1-homogeneous in zeta.
    """
    if mode not in ("defining", "selected"):
        raise ValueError(f"unknown region mode {mode!r}")
    k, l = matrix.k, matrix.l
    nodes, _, _ = _polar_nodes(rho, l, _zeta_radius(matrix, w), cfg)
    _, _, comparable, selected = comparable_rows(matrix, nodes, comparability_constant(matrix))
    masks = {}
    for q in itertools.combinations(range(k), k - l):
        if mode == "defining":
            masks[q] = comparable[:, list(q)].all(axis=1)
        else:
            want = np.zeros(k, dtype=bool)
            want[list(q)] = True
            masks[q] = (selected == want).all(axis=1)
    return masks


def _zeta_radius(matrix: CoefficientMatrix, w: GaussianSpec) -> float:
    """Radius of the zeta rule: C zeta covers the tau ball that holds w's mass."""
    return 1.2 * _tau_radius(w) / float(np.linalg.svd(matrix.array, compute_uv=False)[-1])


def _lhs_shell_integral(
    matrix: CoefficientMatrix,
    rhos,
    w: GaussianSpec,
    cfg: McConfig,
    node_mask: np.ndarray | None = None,
) -> list[tuple[float, float]]:
    """MC x quadrature estimates of the shell-frequency side, with stderr, per rho.

    Each y-sample contributes sum_b r_b^rho * weight_b * w(y * C zeta_b) over
    the zeta nodes.  The polar rule depends on rho only through its sign, so
    the rhos are grouped by sign and each group shares its nodes: a block of
    y-samples against all nodes is one GaussianSpec.product_block call, whose
    node side (built from v = C zeta) is built once per group, and the block
    is contracted with each rho's factor vector in its own matrix-vector
    product.  The block's exponents below the normal range give 0 without
    calling exp.  The y-samples are drawn in Y_CHUNKS seeded chunks and
    parallel.seeded_mean reduces each rho's row on its own, so results do
    not depend on which other rhos share the call.  node_mask, if
    given, selects among the nodes of the rule that all rhos share.
    Returns one (lhs, stderr) pair per entry of rhos, in order.
    """
    unit_shell = (0,) * matrix.k
    l = matrix.l
    rhos = [float(rho) for rho in rhos]
    r_zeta = _zeta_radius(matrix, w)
    rows = []  # the rho of each sample row, group by group
    groups = []  # (node side, factor vectors) per radial rule
    for negative in (False, True):
        group = list(dict.fromkeys(rho for rho in rhos if (rho < 0) == negative))
        if not group:
            continue
        nodes, weights, radii = _polar_nodes(group[0], l, r_zeta, cfg)
        if node_mask is not None:
            nodes, weights, radii = nodes[node_mask], weights[node_mask], radii[node_mask]
        if len(nodes) == 0:
            continue
        side = w.product_side(nodes @ matrix.array.T)  # from C zeta per node
        groups.append((side, [weights * radii**rho for rho in group]))
        rows += group

    def chunk_values(rng, n) -> np.ndarray:
        ys = sample_shell(rng, unit_shell, n)
        out = np.empty((len(rows), n))
        row = 0
        for side, factors in groups:
            step = max(1, 2_000_000 // len(side))
            for lo in range(0, n, step):
                block = w.product_block(ys[lo : lo + step], side)
                for i, f in enumerate(factors):
                    out[row + i, lo : lo + step] = block @ f
            row += len(factors)
        return out

    estimates = {}
    if groups:
        seq = np.random.SeedSequence(cfg.seed)
        shell_volume = float(shell_measure(unit_shell))
        for rho, (mean, var, n) in zip(rows, seeded_mean(chunk_values, seq, cfg.n_y, Y_CHUNKS)):
            estimates[rho] = (shell_volume * mean, shell_volume * math.sqrt(var) / math.sqrt(n))
    return [estimates.get(rho, (0.0, 0.0)) for rho in rhos]


def _ratio_report(
    matrix: CoefficientMatrix,
    rho: float,
    w: GaussianSpec,
    cfg: McConfig,
    lhs: float,
    stderr: float,
    params: dict,
) -> RatioReport:
    """The report for one rho: lhs against the pulled-back side
    integral |tau|^(rho - k + l) w(tau) over the tau ball.  Refuses a
    vanishing rhs and any number that is not finite."""
    rhs, core_bound = _weight_integral(w, rho - matrix.k + matrix.l, _tau_radius(w), cfg)
    if rhs <= 0:
        raise ValueError("degenerate weight: the pulled-back integral vanishes")
    ratio = lhs / rhs
    if not all(math.isfinite(x) for x in (lhs, stderr, rhs, ratio)):
        raise ValueError(
            f"rho = {rho}: non-finite frequency estimate "
            f"(lhs {lhs}, rhs {rhs}, stderr {stderr})"
        )
    params = {
        "rho": rho,
        **params,
        "n_y": cfg.n_y,
        "seed": cfg.seed,
        "rhs_excluded_core_bound": core_bound,
    }
    return RatioReport(lhs=lhs, rhs=rhs, ratio=ratio, stderr=stderr, params=params)


@overload
def pullback_weight_ratio(
    matrix: CoefficientMatrix,
    rho: float,
    w: GaussianSpec,
    cfg: McConfig | None = ...,
    w_id: str = ...,
) -> RatioReport: ...


@overload
def pullback_weight_ratio(
    matrix: CoefficientMatrix,
    rho: Sequence[float],
    w: GaussianSpec,
    cfg: McConfig | None = ...,
    w_id: str = ...,
) -> list[RatioReport]: ...


def pullback_weight_ratio(
    matrix: CoefficientMatrix,
    rho: float | Sequence[float],
    w: GaussianSpec,
    cfg: McConfig | None = None,
    w_id: str = "w",
) -> RatioReport | list[RatioReport]:
    """Ratio of the shell-frequency integral to the pulled-back weight integral.

    lhs = integral over the unit shell and R^l of |zeta|^rho w(y * C zeta);
    rhs = integral over R^k of |tau|^(rho - k + l) w(tau).  The report's
    ratio estimates the constant relating them; MC error bars cover the
    y-sampling only (the zeta and tau quadratures are deterministic).

    rho is one number, giving one RatioReport, or a sequence, giving a list
    of reports in the same order.  The rhos of a sequence share the shell
    integral's blocks (see _lhs_shell_integral), and each report is
    bit-identical to the one a single-rho call gives.  Raises ValueError when
    an estimate is not finite, e.g. when |zeta|^rho overflows.
    """
    cfg = cfg or McConfig()
    rhos = [float(r) for r in np.atleast_1d(rho)]
    _check_inputs(matrix, rhos, w)
    reports = [
        _ratio_report(matrix, r, w, cfg, lhs, stderr, {"w_id": w_id})
        for r, (lhs, stderr) in zip(rhos, _lhs_shell_integral(matrix, rhos, w, cfg))
    ]
    return reports if np.ndim(rho) else reports[0]


def region_weight_ratio(
    matrix: CoefficientMatrix,
    rho: float,
    w: GaussianSpec,
    q_rows,
    cfg: McConfig | None = None,
    mode: str = "selected",
    w_id: str = "w",
) -> RatioReport:
    """pullback_weight_ratio with zeta restricted to the region of a row set Q.

    Empty regions are legal and reported with zero mass.  See _region_masks
    for the two membership modes; "selected" regions partition frequency
    space, "defining" regions overlap (their total measures the overlap).
    """
    cfg = cfg or McConfig()
    q_rows = tuple(int(i) for i in q_rows)
    _check_inputs(matrix, [rho], w)
    mask = _region_masks(matrix, rho, w, cfg, mode).get(tuple(sorted(q_rows)))
    if mask is None:
        raise ValueError(f"Q must be {matrix.k - matrix.l} distinct rows of 0..{matrix.k - 1}")
    ((lhs, stderr),) = _lhs_shell_integral(matrix, [rho], w, cfg, node_mask=mask)
    params = {
        "w_id": w_id,
        "q_rows": list(q_rows),
        "mode": mode,
        "empty_region": bool(not mask.any()),
    }
    return _ratio_report(matrix, rho, w, cfg, lhs, stderr, params)


def region_cover_factor(
    matrix: CoefficientMatrix,
    rho: float,
    w: GaussianSpec,
    total_lhs: float,
    cfg: McConfig | None = None,
    mode: str = "selected",
) -> dict:
    """Sum of per-region lhs over all Q against the unrestricted lhs total_lhs.

    total_lhs is pullback_weight_ratio(matrix, rho, w, cfg).lhs, which the
    caller already holds.  In "selected" mode the regions partition
    frequency space and the factor is 1 up to float summation order; in
    "defining" mode the factor measures how much the overlapping regions
    overcount (always >= 1 up to MC noise).  Each region's lhs is the masked
    shell integral, equal to region_weight_ratio(...).lhs, without that
    function's rhs.
    """
    cfg = cfg or McConfig()
    _check_inputs(matrix, [rho], w)
    parts = {}
    for q, mask in _region_masks(matrix, rho, w, cfg, mode).items():
        ((parts[q], _),) = _lhs_shell_integral(matrix, [rho], w, cfg, node_mask=mask)
    s = float(sum(parts.values()))
    return {
        "total_lhs": total_lhs,
        "sum_of_regions": s,
        "cover_factor": s / total_lhs if total_lhs > 0 else math.nan,
        "per_region": {"-".join(str(i) for i in q): v for q, v in parts.items()},
        "mode": mode,
    }


@dataclass(frozen=True)
class ChangeOfVariablesReport:
    closed_form: float
    quadrature: float
    rel_err: float
    params: dict = field(default_factory=dict)


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
    cfg: McConfig | None = None,
) -> ChangeOfVariablesReport:
    """Verify integral g = integral (g o map) * J over (zeta, y_Q) coordinates.

    q_rows are the k - l rows whose y-coordinates vary; y_head fixes the
    remaining rows' coordinates (each in [1, 2) in magnitude).  J is the
    closed-form Jacobian of the map (zeta, y_Q) -> (y_i (C zeta)_i)_i.  The
    map covers R^k up to a null set with no overlap, so no symmetry factor
    is needed; symmetry_factor 1.0 is recorded for transparency.

    The y_Q integrals use windows scaled per zeta node by 1/|(C zeta)_i| so
    the Gaussian slice is always resolved; the zeta rule is polar with the
    circle split at the Jacobian's kink directions when l = 2.
    """
    cfg = cfg or McConfig()
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
        params={
            "q_rows": list(q_rows),
            "y_head": y_head.tolist(),
            "symmetry_factor": 1.0,
        },
    )


def squared_fourier_weight(f: GaussianSpec) -> GaussianSpec:
    """|f^|^2 as a Gaussian weight: amplitude mass^2, sigma_i' = 1/(2 sqrt2 pi sigma_i)."""
    sig = tuple(1.0 / (2.0 * math.sqrt(2.0) * math.pi * s) for s in f.sigmas)
    return GaussianSpec(dim=f.dim, amplitude=f.mass**2, mean=(0.0,) * f.dim, sigmas=sig)


def plancherel_ratio(
    matrix: CoefficientMatrix,
    f: GaussianSpec,
    cfg: McConfig | None = None,
    f_id: str = "f",
) -> RatioReport:
    """The L2 chain: shell-frequency integral of |f^|^2 against ||f||_2^2.

    A = integral over the shell and R^l of |f^(y * C zeta)|^2 |zeta|^(d-2l);
    B = ||f||_2^2 in closed form.  Applying the pullback identity with
    w = |f^|^2 and rho = d - 2l makes the pulled-back weight exponent
    rho - (k - l) = 0, so the identity's right side is exactly ||f^||_2^2,
    which is B again: the reported ratio is the identity's constant itself.
    """
    cfg = cfg or McConfig()
    rho = float(matrix.k - matrix.l)  # d - 2l with d = k + l
    w = squared_fourier_weight(f)
    rep = pullback_weight_ratio(matrix, rho, w, cfg, w_id=f"|{f_id}^|^2")
    b = f.l2_norm_sq
    return RatioReport(
        lhs=rep.lhs,
        rhs=b,
        ratio=rep.lhs / b,
        stderr=rep.stderr / b,
        params={
            "rho": rho,
            "f_id": f_id,
            "n_y": cfg.n_y,
            "seed": cfg.seed,
            "pullback_rhs_quadrature": rep.rhs,
        },
    )

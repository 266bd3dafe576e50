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

The same machinery restricted to frequency regions (per comparable-row set Q)
and the L2 chain with w = |f^|^2 also live here.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .gaussians import GaussianSpec
from .parallel import RatioReport, seeded_mean
from .quadrature import gauss_legendre_interval, sphere_rule
from .surface import (
    CoefficientMatrix,
    check_source,
    comparability_constant,
    comparable_rows,
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

# About the most values of w in one block of either quadrature: their memory bound.
BLOCK_VALUES = 65_536

# The most sphere nodes in one dot product: OpenBLAS splits a longer dot over its
# threads, and the split moves the last bit with the thread count.
DOT_NODES = 8_192


@dataclass(frozen=True)
class McConfig:
    """Sampling plan shared by the ratio estimators."""

    seed: int
    n_y: int
    n_radial: int
    n_sphere: int

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
    on R^k (check_source) whose mass TRUNCATION_RADIUS covers, and convergent
    rhos whose quadrature weights r^rho (zeta side) and r^(rho - k + l) (tau
    side) stay finite out to the rule's radius."""
    check_source(matrix, w.dim)
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
            f"truncation radius {TRUNCATION_RADIUS} covers as little as {max(0.0, 1 - outside):.4%} "
            "of the weight's mass"
        )


def _tau_radius(w: GaussianSpec) -> float:
    """Radius of the tau ball: the origin-centered ball holding all but 1e-9
    of w's mass, capped at TRUNCATION_RADIUS."""
    return min(TRUNCATION_RADIUS, math.sqrt(w.dim) * w.box_for_mass())


def _radial_rule(rho: float, dim: int, r_max: float, n_radial: int):
    """Nodes/weights in r for integral r^(dim-1+rho) g(r) dr on (0, r_max].

    The returned weights contain r^(dim-1) only; the caller multiplies by
    r^rho at the nodes.  For rho >= 0 a single Gauss-Legendre rule is
    spectrally accurate.  For rho < 0 the integrand is singular at 0, so the
    interval is split into dyadic panels down to eps = 2^-40 r_max; the rule
    drops the core ball of radius eps, which contributes at most
    w_max * |S^(dim-1)| * eps^(rho+dim) / (rho+dim).
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


def _slice_rows(row_values: int) -> int:
    """Rows per block slice of either quadrature: about BLOCK_VALUES values, in
    whole groups of 8 rows, so each row keeps its bits from one whole-block product."""
    return max(8, BLOCK_VALUES // row_values // 8 * 8)


def _weight_integral(w: GaussianSpec, exponent: float, r_max: float, cfg: McConfig) -> float:
    """integral |tau|^exponent w(tau) dtau over the ball of radius r_max.

    The polar rule is a product of radial nodes r and sphere nodes theta, so
    the integral is (wr * r^exponent) @ W @ wtheta for the (n_r, n_theta)
    block W = w(r_a * theta_b).  W is built and contracted with the radial
    factor in slices of sphere nodes (see _slice_rows; other widths moved
    some bits), and the sphere sum is taken in order over slices of
    DOT_NODES nodes, so no bit depends on the BLAS thread count.  For
    exponent < 0 the rule leaves out a core ball (see _radial_rule).
    """
    r, wr, theta, wtheta = _polar_rule(exponent, w.dim, r_max, cfg)
    radial, factor = np.repeat(r[:, None], w.dim, axis=1), wr * r**exponent
    step = _slice_rows(len(r))
    per_node = np.empty(len(theta))
    for lo in range(0, len(theta), step):
        side = w.product_side(theta[lo : lo + step])
        per_node[lo : lo + step] = factor @ w.product_block(radial, side)
    return float(sum(per_node[lo : lo + DOT_NODES] @ wtheta[lo : lo + DOT_NODES]
                     for lo in range(0, len(theta), DOT_NODES)))


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


def _node_group(matrix: CoefficientMatrix, group: list[float], w: GaussianSpec, r_zeta: float,
                cfg: McConfig, node_mask: np.ndarray | None):
    """Node side, block row step (y-samples per slice, see _slice_rows) and
    per-rho factor vectors of rhos sharing one polar rule; None if node_mask
    keeps no node.  The rule's nodes, weights and radii die on return, so the
    chunk loop does not hold them."""
    nodes, weights, radii = _polar_nodes(group[0], matrix.l, r_zeta, cfg)
    if node_mask is not None:
        nodes, weights, radii = nodes[node_mask], weights[node_mask], radii[node_mask]
    if len(nodes) == 0:
        return None
    side = w.product_side(nodes @ matrix.array.T)  # from C zeta per node
    return side, _slice_rows(len(side)), [weights * radii**rho for rho in group]


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
    product.  A block is a slice of whole groups of 8 y-samples, and a lone
    last sample joins the slice before it (numpy contracts a one-row block
    by another BLAS path), so each sample keeps every bit of one product
    with its whole chunk, on any number of BLAS threads.  The blocks share
    one buffer per call, of step + 1 rows.  The y-samples are drawn
    in Y_CHUNKS seeded chunks and parallel.seeded_mean reduces each rho's
    row on its own, so results do not depend on which other rhos share the
    call.  node_mask, if given, selects among the nodes of the rule that
    all rhos share.
    Returns one (lhs, stderr) pair per entry of rhos, in order.
    """
    unit_shell = (0,) * matrix.k
    rhos = [float(rho) for rho in rhos]
    r_zeta = _zeta_radius(matrix, w)
    rows = []  # the rho of each sample row, group by group
    groups = []  # (node side, block rows, factor vectors) per radial rule
    for negative in (False, True):
        group = list(dict.fromkeys(rho for rho in rhos if (rho < 0) == negative))
        built = _node_group(matrix, group, w, r_zeta, cfg, node_mask) if group else None
        if built is not None:
            groups.append(built)
            rows += group

    buffer = np.empty(max(((step + 1) * len(side) for side, step, _ in groups), default=0))

    def chunk_values(rng, n) -> np.ndarray:
        ys = sample_shell(rng, unit_shell, n)
        out = np.empty((len(rows), n))
        row = 0
        for side, step, factors in groups:
            for lo, hi in itertools.pairwise([0, *range(step, n - 1, step), n]):
                s = ys[lo:hi]
                block = w.product_block(s, side, out=buffer[: len(s) * len(side)].reshape(len(s), -1))
                for i, f in enumerate(factors):
                    out[row + i, lo:hi] = block @ f
            row += len(factors)
        return out

    estimates = {}
    if groups:
        shell_volume = float(shell_measure(unit_shell))
        for rho, (mean, var, n) in zip(rows, seeded_mean(chunk_values, cfg.seed, cfg.n_y, Y_CHUNKS)):
            estimates[rho] = (shell_volume * mean, shell_volume * math.sqrt(var) / math.sqrt(n))
    return [estimates.get(rho, (0.0, 0.0)) for rho in rhos]


def _ratio_report(
    matrix: CoefficientMatrix,
    rho: float,
    w: GaussianSpec,
    cfg: McConfig,
    lhs: float,
    stderr: float,
) -> RatioReport:
    """The report for one rho: lhs against the pulled-back side
    integral |tau|^(rho - k + l) w(tau) over the tau ball.  Refuses a
    vanishing rhs; RatioReport refuses any number that is not finite, and
    the refusal names rho."""
    rhs = _weight_integral(w, rho - matrix.k + matrix.l, _tau_radius(w), cfg)
    if rhs <= 0:
        raise ValueError("degenerate weight: the pulled-back integral vanishes")
    try:
        return RatioReport(lhs=lhs, rhs=rhs, stderr=stderr)
    except ValueError as exc:
        raise ValueError(f"rho = {rho}: {exc}") from exc


def pullback_weight_ratio(
    matrix: CoefficientMatrix,
    rho: float | Sequence[float],
    w: GaussianSpec,
    cfg: McConfig,
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
    rhos = [float(r) for r in np.atleast_1d(rho)]
    _check_inputs(matrix, rhos, w)
    reports = [
        _ratio_report(matrix, r, w, cfg, lhs, stderr)
        for r, (lhs, stderr) in zip(rhos, _lhs_shell_integral(matrix, rhos, w, cfg))
    ]
    return reports if np.ndim(rho) else reports[0]


def region_weight_ratio(
    matrix: CoefficientMatrix,
    rho: float,
    w: GaussianSpec,
    q_rows,
    cfg: McConfig,
    mode: str = "selected",
) -> RatioReport:
    """pullback_weight_ratio with zeta restricted to the region of a row set Q.

    Empty regions are legal and reported with zero mass.  See _region_masks
    for the two membership modes; "selected" regions partition frequency
    space, "defining" regions overlap (their total measures the overlap).
    """
    q_rows = tuple(int(i) for i in q_rows)
    _check_inputs(matrix, [rho], w)
    mask = _region_masks(matrix, rho, w, cfg, mode).get(tuple(sorted(q_rows)))
    if mask is None:
        raise ValueError(f"Q must be {matrix.k - matrix.l} distinct rows of 0..{matrix.k - 1}")
    ((lhs, stderr),) = _lhs_shell_integral(matrix, [rho], w, cfg, node_mask=mask)
    return _ratio_report(matrix, rho, w, cfg, lhs, stderr)


def region_cover_factor(
    matrix: CoefficientMatrix,
    rho: float,
    w: GaussianSpec,
    total_lhs: float,
    cfg: McConfig,
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


def squared_fourier_weight(f: GaussianSpec) -> GaussianSpec:
    """|f^|^2 as a Gaussian weight: amplitude mass^2, sigma_i' = 1/(2 sqrt2 pi sigma_i).
    Refuses an f whose mass^2 overflows."""
    sig = tuple(1.0 / (2.0 * math.sqrt(2.0) * math.pi * s) for s in f.sigmas)
    try:
        amplitude = f.mass**2
    except OverflowError:
        raise ValueError(
            f"|f^|^2 amplitude overflows: f has amplitude {f.amplitude:g} and mass {f.mass:g}"
        ) from None
    return GaussianSpec(dim=f.dim, amplitude=amplitude, mean=(0.0,) * f.dim, sigmas=sig)


def plancherel_ratio(
    matrix: CoefficientMatrix,
    f: GaussianSpec,
    cfg: McConfig,
) -> RatioReport:
    """The L2 chain: shell-frequency integral of |f^|^2 against ||f||_2^2.

    A = integral over the shell and R^l of |f^(y * C zeta)|^2 |zeta|^(d-2l);
    B = ||f||_2^2 in closed form.  Applying the pullback identity with
    w = |f^|^2 and rho = d - 2l makes the pulled-back weight exponent
    rho - (k - l) = 0, so the identity's right side is exactly ||f^||_2^2,
    which is B again: the reported ratio is the identity's constant itself,
    and no tau quadrature is run.  The report's stderr is A's.
    """
    rho = float(matrix.k - matrix.l)  # d - 2l with d = k + l
    w = squared_fourier_weight(f)
    _check_inputs(matrix, [rho], w)
    ((lhs, stderr),) = _lhs_shell_integral(matrix, [rho], w, cfg)
    return RatioReport(lhs=lhs, rhs=f.l2_norm_sq, stderr=stderr)

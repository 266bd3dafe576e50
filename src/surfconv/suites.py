"""Experiment suites: named, configuration-driven bundles of checks.

Each suite takes (matrix, params, seed), runs its experiments, and
returns a SuiteResult whose payload is a pure function of those inputs.
Wall-clock measurement and file writing stay in the CLI layer so payloads
can be compared byte for byte across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import parallel
from .battery import load_battery
from .convolution import (
    BallSet,
    BoxUnionSet,
    ShearedBoxSet,
    ball_scaling_experiment,
    restricted_estimate_scan,
    shell_bilinear_estimate,
    shell_sum_estimate,
)
from .exponents import critical_p0, critical_q0, ricci_gap, typeset
from .gaussians import GaussianSpec, random_gaussian
from .pullback import (
    McConfig,
    plancherel_ratio,
    pullback_weight_ratio,
    region_cover_factor,
)
from .quadrature import gauss_legendre_interval
from .rationals import frac_str
from .surface import check_submatrices, comparability_constant
from .transform import (
    GridFunction,
    fourier_check,
    oscillatory_sup_bound,
    pairing_check,
)


@dataclass(frozen=True)
class Verdict:
    check_id: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class SuiteResult:
    payload: dict
    verdicts: list
    tables: dict = field(default_factory=dict)  # name -> rows, dicts whose keys are the columns
    sample_counts: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)


# ---------------------------------------------------------------------------


def run_check_star(matrix, params, seed) -> SuiteResult:
    if matrix is None:
        cases = [(e.entry_id, e.matrix, e.expect_star) for e in load_battery()]
    else:
        cases = [("inline", matrix, None)]
    rows, verdicts, payload = [], [], {"reports": {}}
    for mid, mat, expect in cases:
        rep = check_submatrices(mat)
        const = comparability_constant(mat) if rep.holds else None
        payload["reports"][mid] = {
            "report": rep.to_json(),
            "comparability_constant": const,
        }
        rows.append({
            "matrix_id": mid, "k": mat.k, "l": mat.l, "holds": rep.holds,
            "min_abs_det": frac_str(rep.min_abs_det),
            "witness_rows": ";".join(str(i + 1) for i in rep.witness_rows or ()),
            "comparability_constant": const if const is not None else "",
        })
        detail = (
            f"min |det| = {frac_str(rep.min_abs_det)}"
            if rep.holds
            else f"witness rows {[i + 1 for i in rep.witness_rows]} (1-based)"
        )
        expected = "" if expect is None else f", expected {expect}"
        verdicts.append(Verdict(f"star-{mid}", expect is None or rep.holds == expect,
                                f"holds={rep.holds}{expected}, {detail}"))
    return SuiteResult(payload, verdicts, {"star": rows}, {"matrices": len(cases)})


def run_typeset(matrix, params, seed) -> SuiteResult:
    k, d = int(params["k"]), int(params["d"])
    ts = typeset(k, d)
    q0, p0 = critical_q0(k, d), critical_p0(k, d)
    gap = ricci_gap(k, d)
    l = d - k
    identity = Fraction(k) + Fraction(l) / q0 == Fraction(d) / p0
    dual_closed = all(
        any(v.dual() == w for w in ts.vertices) for v in ts.vertices
    )
    rows = [
        {"label": label, "inv_p_num": v.inv_p.numerator, "inv_p_den": v.inv_p.denominator,
         "inv_q_num": v.inv_q.numerator, "inv_q_den": v.inv_q.denominator}
        for label, v in zip(["origin", "diagonal", "critical"], ts.vertices)
    ]
    payload = {
        "k": k,
        "d": d,
        "typeset": ts.to_json(),
        "q0": frac_str(q0),
        "p0": frac_str(p0),
        "ricci_gap": frac_str(gap) if gap is not None else None,
    }
    verdicts = [
        Verdict("vertex-identity", identity, f"k + l/q0 = {Fraction(k) + Fraction(l)/q0}, d/p0 = {Fraction(d)/p0}"),
        Verdict("vertex-self-duality", dual_closed, "vertex set closed under (1/p,1/q) -> (1-1/q,1-1/p)"),
    ]
    return SuiteResult(payload, verdicts, {"vertices": rows}, {})


def _mc_config(params, seed, n_y: int) -> McConfig:
    """The frequency suites' sampling plan; only the n_y default differs between them."""
    count = lambda key, default: int(params.get(key, default))
    return McConfig(seed, count("n_y", n_y), count("n_radial", 48), count("n_sphere", 64))


def _drift(value: float, doubled: float) -> float:
    """The relative move of an estimate when its samples double."""
    return abs(doubled - value) / value


def _default_p_list(k: int, d: int):
    p0 = critical_p0(k, d)
    lo = 1 / (Fraction(1) / p0 - Fraction(1, 20))
    hi = 1 / (Fraction(1) / p0 + Fraction(1, 20))
    return [p0, lo, hi]


def run_ball_scan(matrix, params, seed) -> SuiteResult:
    k, d = matrix.k, matrix.d
    deltas = params.get("deltas") or [2.0**-e for e in (3, 4, 5, 6)]
    p_list = (
        [Fraction(s) for s in params["p_list"]]
        if "p_list" in params
        else _default_p_list(k, d)
    )
    tol = float(params.get("tolerance", 0.15))
    n_tube = int(params.get("n_tube", 3000))
    n_centers = int(params.get("n_centers", 3))
    rep = ball_scaling_experiment(
        matrix, deltas, p_list,
        seed=seed, resolution=params.get("resolution"), n_tube=n_tube, n_centers=n_centers,
    )
    expected = rep.params["expected_norm_exponent"]
    fitted = rep.norm_exponents["mean"]
    verdicts = [
        Verdict(
            "norm-exponent",
            abs(fitted - expected) <= tol,
            f"fitted {fitted:.4f} vs expected {expected:.4f} (tol {tol})",
        )
    ]
    p0 = critical_p0(k, d)
    for p in p_list:
        key = frac_str(p)
        slope = rep.ratio_slopes[key]
        if Fraction(1) / p < Fraction(1) / p0:
            verdicts.append(
                Verdict(f"slope-bounded-{key}", slope >= -0.05, f"slope {slope:.4f} >= -0.05")
            )
        elif Fraction(1) / p > Fraction(1) / p0:
            verdicts.append(
                Verdict(f"slope-decaying-{key}", slope <= -0.05, f"slope {slope:.4f} <= -0.05")
            )
    return SuiteResult(
        {"report": rep},
        verdicts,
        {"ball_scan": rep.rows},
        {"n_tube": n_tube, "deltas": len(deltas), "centers": n_centers},
    )


def run_restricted_scan(matrix, params, seed) -> SuiteResult:
    k, d = matrix.k, matrix.d
    p = Fraction(params["p"]) if "p" in params else _default_p_list(k, d)[1]
    n_sets = int(params.get("n_sets", 12))
    n_tube = int(params.get("n_tube", 2500))
    rep = restricted_estimate_scan(
        matrix, p, n_sets=n_sets, seed=seed, n_tube=n_tube,
        resolution=int(params.get("resolution", 128)),
    )
    verdicts = [
        Verdict("sup-finite", math.isfinite(rep.sup_ratio) and rep.sup_ratio > 0,
                f"sup ratio {rep.sup_ratio:.4f} at {rep.max_set_id}"),
        Verdict("doubling-growth", rep.growth < 0.25,
                f"family doubling grew the sup by {rep.growth:.2%}"),
    ]
    return SuiteResult(
        {"report": rep},
        verdicts,
        {"restricted_scan": rep.rows},
        {"n_sets": n_sets, "n_tube": n_tube},
    )


def run_lemma_mc(matrix, params, seed) -> SuiteResult:
    k, l, d = matrix.k, matrix.l, matrix.d
    rho_list = params.get("rho_list") or [0.0, 1.0, float(d - 2 * l)]
    n_w = int(params.get("n_w", 20))
    cfg = _mc_config(params, seed, n_y=512)
    rng = parallel.rng(seed)
    weights = [random_gaussian(rng, k, normalized=False) for _ in range(n_w)]

    # each weight's shell blocks are evaluated once for all rhos; rows stay in (rho, w) order
    rhos = [float(rho) for rho in rho_list]
    per_weight = [
        list(
            zip(
                pullback_weight_ratio(matrix, rhos, w, cfg),
                pullback_weight_ratio(matrix, rhos, w, cfg.doubled()),
            )
        )
        for w in weights
    ]
    rows = []
    for j, rho in enumerate(rho_list):
        for i, reps in enumerate(per_weight):
            rep, rep2 = reps[j]
            rows.append({
                "rho": rho, "w_id": f"w{i:02d}", "lhs": rep.lhs, "rhs": rep.rhs,
                "ratio": rep.ratio, "stderr": rep.stderr, "ratio_doubled": rep2.ratio,
                "drift": _drift(rep.ratio, rep2.ratio),
            })

    max_drift = max(r["drift"] for r in rows)
    verdicts = [
        Verdict(
            "doubling-drift",
            max_drift < 0.10,
            f"max ratio drift under sample doubling {max_drift:.2%}",
        )
    ]
    payload = {"rows": rows}

    if k == 1 and l == 1:
        c = abs(float(matrix.entries[0][0]))
        oracle_rels = []
        for rho in rho_list:
            rho = float(rho)
            # (1 - 2^-rho) / rho, without the cancellation that gives 0 for tiny rho
            factor = math.log(2.0) if rho == 0 else -math.expm1(-rho * math.log(2.0)) / rho
            oracle = 2.0 * c ** (-rho - 1.0) * factor
            measured = [r["ratio"] for r in rows if r["rho"] == rho]
            oracle_rels.extend(abs(m - oracle) / oracle for m in measured)
        verdicts.append(
            Verdict(
                "closed-form-1d",
                max(oracle_rels) < 0.02,
                f"max deviation from the exact 1-d ratio {max(oracle_rels):.2%}",
            )
        )
        payload["closed_form_max_rel"] = max(oracle_rels)

    cover_rows = []
    if k > l:
        # the lhs of the (rho_list[0], w00) row is the unrestricted total of the cover
        total = per_weight[0][0][0].lhs
        cov_sel = region_cover_factor(matrix, rhos[0], weights[0], total, cfg, mode="selected")
        cov_def = region_cover_factor(matrix, rhos[0], weights[0], total, cfg, mode="defining")
        payload["cover"] = {"selected": cov_sel, "defining": cov_def}
        verdicts.append(
            Verdict(
                "cover-selected",
                0.98 <= cov_sel["cover_factor"] <= 1.10,
                f"partitioned region sum / total = {cov_sel['cover_factor']:.6f}",
            )
        )
        verdicts.append(
            Verdict(
                "cover-defining",
                cov_def["cover_factor"] >= 0.98,
                f"overlapping region sum / total = {cov_def['cover_factor']:.4f} (overlap measured)",
            )
        )
        for mode, cov in (("selected", cov_sel), ("defining", cov_def)):
            for q_label, lhs in cov["per_region"].items():
                cover_rows.append({
                    "mode": mode, "q_rows": q_label, "region_lhs": lhs,
                    "total_lhs": cov["total_lhs"], "cover_factor": cov["cover_factor"],
                })

    tables = {"lemma_mc": rows}
    if cover_rows:
        tables["cover"] = cover_rows
    return SuiteResult(
        payload,
        verdicts,
        tables,
        {"n_w": n_w, "n_y": cfg.n_y, "rho_values": len(rho_list)},
    )


def _check_row(check: str, value: float, bound: float, passed: bool) -> dict:
    return {"check": check, "value": value, "bound": bound, "passed": passed}


def run_transform_check(matrix, params, seed) -> SuiteResult:
    k, l = matrix.k, matrix.l
    if k > 3:
        raise ValueError("transform-check needs k <= 3 (dense source grids)")
    cells = int(params.get("cells", 128))
    n_f = int(params.get("n_f", 3))
    y = np.array(params.get("y", [1.0] * k), dtype=float)
    rng = parallel.rng(seed)

    rows, verdicts = [], []
    worst_pair, worst_leak = 0.0, 0.0
    for i in range(n_f):
        f_spec = random_gaussian(rng, k, sigma_range=(0.5, 0.9), mean_radius=0.4)
        h_spec = random_gaussian(rng, l, sigma_range=(0.6, 1.2), mean_radius=0.5)
        f = GridFunction.from_gaussian(f_spec, cells)
        h = GridFunction.from_gaussian(h_spec, cells)
        rep = pairing_check(f, h, matrix, y, cells=cells)
        worst_leak = max(worst_leak, rep.leak_fraction)
        worst_pair = max(worst_pair, rep.rel_err)
        rows.append(_check_row(f"pairing-{i}", rep.rel_err, 0.01, rep.rel_err <= 0.01))
    verdicts.append(Verdict("pairing", worst_pair <= 0.01, f"worst pairing rel err {worst_pair:.2%}"))
    verdicts.append(Verdict("mass-leak", worst_leak < 0.001, f"worst leak fraction {worst_leak:.3%}"))
    rows.append(_check_row("mass-leak", worst_leak, 0.001, worst_leak < 0.001))

    f_spec = GaussianSpec(
        dim=k, amplitude=1.0, mean=(0.0,) * k, sigmas=tuple(rng.uniform(0.5, 0.8, k))
    )
    zetas = rng.uniform(-2.0, 2.0, (8, l))
    frep = fourier_check(f_spec, matrix, y, zetas, cells=cells)
    rows.append(_check_row("fourier", frep.max_rel_err, 0.02, frep.max_rel_err <= 0.02))
    verdicts.append(
        Verdict("fourier", frep.max_rel_err <= 0.02, f"max Fourier rel err {frep.max_rel_err:.2e}")
    )

    f = GridFunction.from_gaussian(f_spec, 48)
    u_points = rng.uniform(-3.0, 3.0, (64, l))
    worst_osc, eq0 = 0.0, True
    for s in (0.0, 0.5, 1.0, 2.0):
        orep = oscillatory_sup_bound(f, matrix, y, s, u_points)
        excess = orep.sup_abs / orep.l1_norm - 1.0
        if s == 0.0:
            eq0 = abs(excess) < 1e-12
        else:
            worst_osc = max(worst_osc, excess)
        rows.append(
            _check_row(f"oscillatory-s{s}", orep.sup_abs / orep.l1_norm, 1.0 + 1e-3, excess <= 1e-3)
        )
    verdicts.append(
        Verdict("oscillatory", worst_osc <= 1e-3 and eq0,
                f"worst sup/l1 excess {worst_osc:.2e}; s=0 exact: {eq0}")
    )

    payload = {
        "worst_pairing_rel_err": worst_pair,
        "worst_leak_fraction": worst_leak,
        "fourier_max_rel_err": frep.max_rel_err,
        "fourier_excluded": list(frep.excluded),
        "oscillatory_worst_excess": worst_osc,
        "y": y.tolist(),
        "cells": cells,
    }
    return SuiteResult(
        payload,
        verdicts,
        {"transform": rows},
        {"n_f": n_f, "cells": cells},
    )


def run_plancherel(matrix, params, seed) -> SuiteResult:
    k, l, d = matrix.k, matrix.l, matrix.d
    n_f = int(params.get("n_f", 20))
    cfg = _mc_config(params, seed, n_y=400)
    rng = parallel.rng(seed)
    rows = []
    for i in range(n_f):
        f = random_gaussian(rng, k)
        rep = plancherel_ratio(matrix, f, cfg)
        rep2 = plancherel_ratio(matrix, f, cfg.doubled())
        rows.append({
            "f_id": f"f{i:02d}", "weighted_integral": rep.lhs, "l2_norm_sq": rep.rhs,
            "ratio": rep.ratio,
            "stderr": rep.stderr / rep.rhs,  # the ratio's: the lhs's over the exact l2_norm_sq
            "ratio_doubled": rep2.ratio, "drift": _drift(rep.ratio, rep2.ratio),
        })
    exponent_zero = Fraction(d - 2 * l) - Fraction(k - l) == 0
    max_drift = max(r["drift"] for r in rows)
    verdicts = [
        Verdict("doubling-drift", max_drift < 0.10,
                f"max ratio drift under sample doubling {max_drift:.2%}"),
        Verdict("exponent-identity", exponent_zero,
                f"(d - 2l) - (k - l) = {d - 2 * l} - {k - l} = 0 exactly"),
    ]
    payload = {
        "rows": rows,
        "all_ratios_finite": all(math.isfinite(r["ratio"]) for r in rows),
    }
    return SuiteResult(
        payload,
        verdicts,
        {"plancherel": rows},
        {"n_f": n_f, "n_y": cfg.n_y},
    )


def _interval_mass(f: GaussianSpec, a: float, b: float) -> float:
    m, s = f.mean[0], f.sigmas[0]
    z = lambda t: 0.5 * (1.0 + math.erf((t - m) / (s * math.sqrt(2.0))))
    return f.mass * (z(b) - z(a))


def _shell_oracle_1d(matrix, f, box_set) -> float:
    """Exact unit-shell bilinear value for k = l = 1 and a box-union set."""
    c = float(matrix.array[0, 0])
    total = 0.0
    for lo, hi in zip(box_set.lows, box_set.highs):
        for sgn in (1.0, -1.0):
            y_lo = max(1.0, lo[0]) if sgn > 0 else max(1.0, -hi[0])
            y_hi = min(2.0, hi[0]) if sgn > 0 else min(2.0, -lo[0])
            if y_lo >= y_hi:
                continue
            y, wq = gauss_legendre_interval(200, y_lo, y_hi)
            ys = sgn * y
            t0, t1 = lo[1] / (c * ys), hi[1] / (c * ys)
            lo_t, hi_t = np.minimum(t0, t1), np.maximum(t0, t1)
            vals = np.array([_interval_mass(f, a_, b_) for a_, b_ in zip(lo_t, hi_t)])
            total += float(np.sum(wq * vals))
    return total


def _shell_set_family(matrix, f, n_sets, seed):
    """Test sets whose head coordinates meet the unit dyadic shell.

    Balls sit at (y0, L(mean_f, y0)) so the importance-sampled x actually
    lands in them; boxes span a per-axis slab of the shell with a tail
    window around the same image point.  Prefix-stable in n_sets.
    """
    rng = parallel.rng(seed)
    k, l = matrix.k, matrix.l
    arr = matrix.array
    mean = np.asarray(f.mean)
    sets = []
    while len(sets) < n_sets:
        i = len(sets)
        signs = rng.choice([-1.0, 1.0], k)
        if i % 2 == 0:
            y0 = signs * rng.uniform(1.1, 1.8, k)
            u0 = (mean * y0) @ arr
            radius = float(rng.choice([0.35, 0.2]))
            sets.append((f"ball-{i}", BallSet(tuple(np.concatenate([y0, u0])), radius)))
        else:
            width = rng.uniform(0.5, 0.9, k)
            a = rng.uniform(1.0, 2.0 - width)
            lo_h = np.minimum(signs * a, signs * (a + width))
            hi_h = np.maximum(signs * a, signs * (a + width))
            u0 = (mean * signs * (a + 0.5 * width)) @ arr
            half = rng.uniform(0.4, 1.2, l)
            lo = np.concatenate([lo_h, u0 - half])
            hi = np.concatenate([hi_h, u0 + half])
            sets.append((f"box-{i}", BoxUnionSet((tuple(lo),), (tuple(hi),))))
    return sets


def run_ineq6(matrix, params, seed) -> SuiteResult:
    k, l, d = matrix.k, matrix.l, matrix.d
    n_sets = int(params.get("n_sets", 8))
    n_samples = int(params.get("n_samples", 20000))
    rng = parallel.rng(seed)
    f = random_gaussian(rng, k, sigma_range=(0.7, 1.2), mean_radius=0.5)

    family = _shell_set_family(matrix, f, n_sets, seed)
    extra = []
    for set_id, ts in family:
        if isinstance(ts, BoxUnionSet):
            extra.append((f"sheared-{set_id}", ShearedBoxSet(matrix, ts)))
    family = family + extra

    rows = []
    sup_half, sup_full = 0.0, 0.0
    for set_id, ts in family:
        rep = shell_bilinear_estimate(matrix, f, ts, n_samples=n_samples, seed=seed)
        rep2 = shell_bilinear_estimate(matrix, f, ts, n_samples=2 * n_samples, seed=seed)
        rows.append({
            "set_id": set_id, "kind": ts.kind, "measure": ts.measure,
            "lhs": rep.lhs, "rhs": rep.rhs, "ratio": rep.ratio, "stderr": rep.stderr,
        })
        sup_half = max(sup_half, rep.ratio)
        sup_full = max(sup_full, rep2.ratio)
    zero = [row["set_id"] for row in rows if row["lhs"] <= 0]
    if zero:
        # every set has positive measure and meets the shell: a 0 is a miss, not a value
        raise ValueError(
            f"zero shell estimate on {', '.join(zero)}: no sample met the set; raise n_samples"
        )
    growth = _drift(sup_half, sup_full)
    verdicts = [
        Verdict("sup-finite", math.isfinite(sup_half) and sup_half > 0,
                f"sup LHS/RHS = {sup_half:.4f}"),
        Verdict("doubling-stability", growth < 0.25,
                f"sup moved {growth:.2%} when samples doubled"),
    ]
    payload = {
        "rows": rows,
        "sup_ratio": sup_half,
        "sup_ratio_doubled": sup_full,
    }

    if k == 1 and l == 1:
        box = BoxUnionSet(((1.1, 0.05),), ((1.9, 0.9),))
        rep = shell_bilinear_estimate(matrix, f, box, n_samples=max(n_samples, 200000), seed=seed + 7)
        oracle = _shell_oracle_1d(matrix, f, box)
        rel = abs(rep.lhs - oracle) / oracle
        payload["closed_form_1d"] = {"mc": rep.lhs, "oracle": oracle, "rel_err": rel}
        verdicts.append(
            Verdict("closed-form-1d", rel <= 0.05, f"1-d quadrature oracle rel err {rel:.2%}")
        )

    shell_sum = shell_sum_estimate(
        matrix, f, family[0][1], n_min=-2, n_samples=max(500, n_samples // 8), seed=seed,
    )
    payload["shell_sum"] = shell_sum

    return SuiteResult(
        payload,
        verdicts,
        {"ineq6": rows},
        {"n_sets": len(family), "n_samples": n_samples},
    )


SUITES = {
    "check-star": run_check_star,
    "typeset": run_typeset,
    "ball-scan": run_ball_scan,
    "restricted-scan": run_restricted_scan,
    "lemma-mc": run_lemma_mc,
    "transform-check": run_transform_check,
    "plancherel": run_plancherel,
    "ineq6": run_ineq6,
}


def run_suite(name: str, matrix, params, seed: int) -> SuiteResult:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    return SUITES[name](matrix, params, seed)

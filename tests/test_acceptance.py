"""The thirteen acceptance gates for this package, one verdict line each.

Every test prints `acceptance NN PASS/FAIL: <label>` straight to the
terminal (bypassing capture) and then asserts, so a plain pytest run shows
the full scoreboard.  Tolerances are pinned here and nowhere else.
"""

import json
import math
from fractions import Fraction

import numpy as np

from surfconv.battery import battery_entry, load_battery
from surfconv.cli import main as cli_main
from surfconv.convolution import ball_scaling_experiment
from surfconv.exponents import (
    critical_p0,
    critical_q0,
    ricci_gap,
    triangle_vertices,
)
from surfconv.gaussians import GaussianSpec, random_gaussian
from surfconv.pullback import (
    McConfig,
    plancherel_ratio,
    pullback_weight_ratio,
    region_cover_factor,
)
from surfconv.surface import (
    CoefficientMatrix,
    adjoint_image,
    bilinear_forms,
    check_submatrices,
    comparability_constant,
    det_fraction,
    diagonal_forms,
    jacobian_fd,
    jacobian_product,
    pair_curvature_invariant,
    row_images,
    select_comparable_rows,
    verify_jacobian_bound,
)
from surfconv.suites import run_suite
from surfconv.transform import (
    GridFunction,
    fourier_check,
    oscillatory_sup_bound,
    pairing_check,
)

BANDED = battery_entry("banded-3-2").matrix
PARABOLA = battery_entry("parabola-1-1").matrix
PARABOLOID = battery_entry("paraboloid-2-1").matrix
STAR_MATRICES = [e.matrix for e in load_battery() if e.expect_star]
NODES = dict(n_radial=48, n_sphere=64)  # the quadrature node counts of the suites


def announce(capsys, num, label, failures):
    ok = not failures
    with capsys.disabled():
        print(f"\nacceptance {num:02d} {'PASS' if ok else 'FAIL'}: {label}")
    assert ok, f"acceptance {num:02d} ({label}): " + "; ".join(failures)


def test_01_submatrix_condition_exact(capsys):
    failures = []
    rep = check_submatrices(BANDED)
    if not rep.holds:
        failures.append("banded example should satisfy the condition")
    if rep.min_abs_det != Fraction(1):
        failures.append(f"banded min |det| is {rep.min_abs_det}, want 1")
    neg = check_submatrices(battery_entry("degenerate-3-2").matrix)
    if neg.holds:
        failures.append("negative control should fail")
    if neg.witness_rows != (0, 1):
        failures.append(f"witness rows {neg.witness_rows}, want (0, 1)")
    announce(capsys, 1, "row-submatrix condition exact on the battery", failures)


def test_02_exponent_triangle(capsys):
    failures = []
    known = {
        (1, 2): (Fraction(2, 3), Fraction(1, 3), Fraction(3), Fraction(3, 2)),
        (2, 3): (Fraction(3, 4), Fraction(1, 4), Fraction(4), Fraction(4, 3)),
        (3, 5): (Fraction(5, 7), Fraction(2, 7), Fraction(7, 2), Fraction(7, 5)),
        (4, 7): (Fraction(7, 10), Fraction(3, 10), Fraction(10, 3), Fraction(10, 7)),
    }
    for (k, d), (inv_p, inv_q, q0, p0) in known.items():
        origin, diagonal, critical = triangle_vertices(k, d)
        if (origin.inv_p, origin.inv_q) != (0, 0) or (diagonal.inv_p, diagonal.inv_q) != (1, 1):
            failures.append(f"trivial vertices off for {(k, d)}")
        if (critical.inv_p, critical.inv_q) != (inv_p, inv_q):
            failures.append(f"critical vertex off for {(k, d)}: {critical}")
        if critical_q0(k, d) != q0 or critical_p0(k, d) != p0:
            failures.append(f"q0/p0 off for {(k, d)}")
        if critical.dual() != critical:
            failures.append(f"critical vertex not self-dual for {(k, d)}")
    for k in range(1, 9):
        for l in range(1, k + 1):
            d = k + l
            if k + l / critical_q0(k, d) != d / critical_p0(k, d):
                failures.append(f"exponent identity broken at k={k}, l={l}")
    if ricci_gap(1, 3) != Fraction(1, 6):
        failures.append(f"gap(1,3) = {ricci_gap(1, 3)}, want 1/6")
    announce(capsys, 2, "exponent triangle arithmetic exact", failures)


def test_03_adjoint_identity(capsys):
    failures = []
    rng = np.random.default_rng(301)
    for matrix in STAR_MATRICES:
        k, l = matrix.k, matrix.l
        n = 10_000
        x = rng.standard_normal((n, k))
        y = rng.standard_normal((n, k))
        zeta = rng.standard_normal((n, l))
        adj_terms = adjoint_image(matrix, y, zeta) * x
        form_terms = zeta * bilinear_forms(matrix, x, y)
        lhs = np.sum(adj_terms, axis=1)
        rhs = np.sum(form_terms, axis=1)
        # scale by the term mass so cancellation near zero is not penalized
        scale = np.abs(adj_terms).sum(axis=1) + np.abs(form_terms).sum(axis=1)
        worst = float(np.max(np.abs(lhs - rhs) / np.maximum(scale, 1e-300)))
        if worst > 1e-12:
            failures.append(f"adjoint gap {worst:.2e} on {k}x{l}")
    announce(capsys, 3, "adjoint identity to 1e-12 over 1e4 triples per matrix", failures)


def test_04_jacobian_closed_form_and_bound(capsys):
    failures = []
    rng = np.random.default_rng(401)
    worst = 0.0
    for matrix in STAR_MATRICES:
        k, l = matrix.k, matrix.l
        partition = tuple(range(k))  # head = first l rows, tail increasing
        done = 0
        while done < 250:
            y = rng.uniform(0.5, 1.5, k) * rng.choice([-1.0, 1.0], k)
            zeta = rng.standard_normal(l)
            if np.linalg.norm(zeta) < 0.3 or np.abs(row_images(matrix, zeta)).min() < 1e-2:
                continue
            closed = jacobian_product(matrix, y, zeta, partition)
            fd = jacobian_fd(matrix, y, zeta, partition)
            worst = max(worst, abs(fd - closed) / closed)
            done += 1
    if worst > 1e-6:
        failures.append(f"closed form vs finite differences: rel err {worst:.2e}")
    for matrix in (BANDED, battery_entry("random-4-3").matrix):
        rep = verify_jacobian_bound(matrix, n_samples=100_000, seed=0)
        if rep.n_violations != 0 or rep.min_ratio < 1.0:
            failures.append(
                f"shell bound violated on {matrix.k}x{matrix.l}: "
                f"min ratio {rep.min_ratio:.6f}, {rep.n_violations} violations"
            )
    announce(capsys, 4, "jacobian closed form (1e-6) and shell lower bound", failures)


def test_05_comparability_certificate(capsys):
    failures = []
    rng = np.random.default_rng(501)
    for matrix in STAR_MATRICES:
        k, l = matrix.k, matrix.l
        m_const = comparability_constant(matrix)
        zeta = rng.standard_normal((100_000, l))
        norms = np.linalg.norm(zeta, axis=1)
        keep = norms > 1e-9
        zeta, norms = zeta[keep], norms[keep]
        w = np.sort(np.abs(zeta @ matrix.array.T), axis=1)
        # the weakest l-row subset is the l smallest |C zeta| values
        bad = norms > m_const * (1.0 + 1e-12) * w[:, l - 1]
        if np.any(bad):
            failures.append(f"certificate fails on {int(bad.sum())} samples for {k}x{l}")
        for row in zeta[:300]:
            picked = select_comparable_rows(matrix, row, m_const)
            images = np.abs(row_images(matrix, row))
            if len(picked) != k - l or np.any(
                np.linalg.norm(row) > m_const * (1.0 + 1e-12) * images[list(picked)]
            ):
                failures.append(f"invalid row selection {picked} for {k}x{l}")
                break
    announce(capsys, 5, "comparability constant certified on 1e5 frequencies", failures)


def test_06_transform_contract(capsys):
    failures = []
    cases = [
        (PARABOLA, np.array([1.0]), (0.6,), (0.5,)),
        (PARABOLOID, np.array([1.0, -1.5]), (0.5, 0.6), (0.5,)),
        (BANDED, np.array([0.9, -1.1, 0.7]), (0.5, 0.6, 0.45), (0.6, 0.5)),
    ]
    rng = np.random.default_rng(601)
    for matrix, y, f_sigmas, h_sigmas in cases:
        k, l = matrix.k, matrix.l
        f = GaussianSpec(dim=k, amplitude=1.0, mean=(0.1,) * k, sigmas=f_sigmas)
        h_spec = GaussianSpec(dim=l, amplitude=1.0, mean=(0.0,) * l, sigmas=h_sigmas)
        fg = GridFunction.from_gaussian(f, 128)
        hg = GridFunction.from_gaussian(h_spec, 128)
        rep = pairing_check(fg, hg, matrix, y, cells=128)
        if rep.rel_err > 0.01:
            failures.append(f"pairing rel err {rep.rel_err:.2%} on {k}x{l}")
        if rep.leak_fraction >= 0.001:
            failures.append(f"mass leak {rep.leak_fraction:.2e} on {k}x{l}")
        centered = GaussianSpec(dim=k, amplitude=1.0, mean=(0.0,) * k, sigmas=f_sigmas)
        zetas = rng.uniform(-1.2, 1.2, (8, l))
        fr = fourier_check(centered, matrix, y, zetas, cells=128)
        if fr.excluded:
            failures.append(f"frequencies {fr.excluded} beyond half Nyquist on {k}x{l}")
        if fr.max_rel_err > 0.02:
            failures.append(f"frequency-side rel err {fr.max_rel_err:.2%} on {k}x{l}")
    announce(capsys, 6, "transform pairing (1%), mass leak (0.1%), frequency side (2%)", failures)


def test_07_oscillatory_bound(capsys):
    failures = []
    rng = np.random.default_rng(701)
    u_points = np.linspace(-2.0, 2.0, 41)[:, None]
    for i in range(10):
        spec = random_gaussian(rng, dim=2)
        fg = GridFunction.from_gaussian(spec, 64)
        for s in (0.5, 1.0, 2.0):
            rep = oscillatory_sup_bound(fg, PARABOLOID, np.array([1.0, -1.2]), s, u_points)
            if rep.sup_abs > rep.l1_norm * (1.0 + 1e-3):
                failures.append(f"f {i}, s = {s}: sup {rep.sup_abs} > l1 {rep.l1_norm}")
        rep0 = oscillatory_sup_bound(fg, PARABOLOID, np.array([1.0, -1.2]), 0.0, u_points)
        if rep0.sup_abs != rep0.l1_norm:
            failures.append(f"f {i}: s = 0 should be an exact equality")
    announce(capsys, 7, "oscillatory modulus bounded by the mass, equality at s = 0", failures)


def test_08_weighted_frequency_identity(capsys):
    failures = []
    scalar = CoefficientMatrix.from_rows([[Fraction(3, 2)]])
    w1 = GaussianSpec(dim=1, amplitude=1.0, mean=(0.0,), sigmas=(0.8,))
    rep = pullback_weight_ratio(scalar, 0.0, w1, McConfig(seed=801, n_y=4000, **NODES))
    oracle = 2.0 * math.log(2.0) / 1.5
    if abs(rep.ratio - oracle) / oracle > 0.02:
        failures.append(f"1-d closed form off by {abs(rep.ratio - oracle) / oracle:.2%}")

    rng = np.random.default_rng(802)
    d, l = BANDED.d, BANDED.l
    rho_list = sorted({0.0, 1.0, float(d - 2 * l)})
    for i in range(20):
        w = random_gaussian(rng, dim=BANDED.k)
        for rho in rho_list:
            r1 = pullback_weight_ratio(BANDED, rho, w, McConfig(seed=810 + i, n_y=400, **NODES))
            r2 = pullback_weight_ratio(BANDED, rho, w, McConfig(seed=810 + i, n_y=800, **NODES))
            drift = abs(r2.ratio - r1.ratio) / r1.ratio
            if drift > 0.10:
                failures.append(f"w {i}, rho {rho}: drift {drift:.2%}")
    w = random_gaussian(np.random.default_rng(803), dim=3)
    cfg = McConfig(seed=804, n_y=300, **NODES)
    total = pullback_weight_ratio(BANDED, 1.0, w, cfg).lhs
    cover = region_cover_factor(BANDED, 1.0, w, total, cfg)
    if not 0.98 <= cover["cover_factor"] <= 1.10:
        failures.append(f"region cover factor {cover['cover_factor']:.4f}")
    announce(capsys, 8, "frequency-weight identity: oracle, stability, region cover", failures)


def test_09_squared_transform_chain(capsys):
    failures = []
    rng = np.random.default_rng(901)
    for i in range(20):
        f = random_gaussian(rng, dim=BANDED.k)
        r1 = plancherel_ratio(BANDED, f, McConfig(seed=910 + i, n_y=400, **NODES))
        r2 = plancherel_ratio(BANDED, f, McConfig(seed=910 + i, n_y=800, **NODES))
        if not (math.isfinite(r1.ratio) and r1.ratio > 0):
            failures.append(f"f {i}: ratio {r1.ratio}")
            continue
        drift = abs(r2.ratio - r1.ratio) / r1.ratio
        if drift > 0.10:
            failures.append(f"f {i}: drift {drift:.2%}")
    k, l, d = Fraction(BANDED.k), Fraction(BANDED.l), Fraction(BANDED.d)
    if (d - 2 * l) - (k - l) != 0:
        failures.append("pulled-back weight exponent should vanish identically")
    announce(capsys, 9, "squared-transform chain finite and stable over 20 inputs", failures)


def _scaling_case(matrix, tol):
    k, d = matrix.k, matrix.d
    p0 = critical_p0(k, d)
    plist = [p0, 1 / (1 / p0 - Fraction(1, 20)), 1 / (1 / p0 + Fraction(1, 20))]
    rep = ball_scaling_experiment(
        matrix,
        [2.0**-e for e in (3, 4, 5, 6)],
        plist,
        seed=1234,
        resolution=None,
        n_tube=3000,
        n_centers=3,
    )
    failures = []
    expected = float(k + matrix.l / critical_q0(k, d))
    got = rep.norm_exponents["mean"]
    if abs(got - expected) > tol:
        failures.append(f"{k}x{matrix.l}: exponent {got:.4f} vs {expected:.4f} (tol {tol})")
    key = lambda p: f"{p.numerator}/{p.denominator}"
    if rep.ratio_slopes[key(plist[1])] <= -0.05:
        failures.append(f"{k}x{matrix.l}: ratio should stay bounded below the vertex")
    if rep.ratio_slopes[key(plist[2])] >= -0.05:
        failures.append(f"{k}x{matrix.l}: ratio should decay above the vertex")
    return failures


def test_10_ball_scaling_necessity(capsys):
    failures = _scaling_case(PARABOLOID, 0.15) + _scaling_case(BANDED, 0.20)
    announce(capsys, 10, "ball scaling exponent and slope sign flip", failures)


def test_11_shell_bilinear_and_restricted(capsys):
    failures = []
    res = run_suite("ineq6", PARABOLA, {"n_sets": 8, "n_samples": 60_000}, seed=1101)
    for v in res.verdicts:
        if not v.passed:
            failures.append(f"ineq6 parabola {v.check_id}: {v.detail}")
    if not any(v.check_id == "closed-form-1d" for v in res.verdicts):
        failures.append("1-d closed-form check missing")
    res_b = run_suite("ineq6", BANDED, {"n_sets": 8, "n_samples": 30_000}, seed=1102)
    for v in res_b.verdicts:
        if not v.passed:
            failures.append(f"ineq6 banded {v.check_id}: {v.detail}")
    scan = run_suite("restricted-scan", PARABOLOID, {"n_sets": 10}, seed=1103)
    for v in scan.verdicts:
        if not v.passed:
            failures.append(f"restricted scan {v.check_id}: {v.detail}")
    announce(capsys, 11, "shell bilinear and restricted scans bounded and stable", failures)


def test_12_curvature_invariant(capsys):
    failures = []
    rng = np.random.default_rng(1201)
    vanished = 0
    for i in range(100):
        entries = rng.integers(-9, 10, size=(2, 2))
        dens = rng.integers(1, 4, size=(2, 2)) if i % 3 == 0 else np.ones((2, 2), int)
        m = CoefficientMatrix.from_rows(
            [[Fraction(int(entries[r][c]), int(dens[r][c])) for c in range(2)] for r in range(2)]
        )
        inv = pair_curvature_invariant(*diagonal_forms(m))
        det = det_fraction(m.entries)
        if inv != -16 * det * det:
            failures.append(f"matrix {i}: invariant {inv} vs -16 det^2 = {-16 * det * det}")
            break
        if (inv == 0) != (not check_submatrices(m).holds):
            failures.append(f"matrix {i}: vanishing does not track the condition")
            break
        vanished += inv == 0
    if not failures and vanished == 0:
        # the draw should have hit at least one singular matrix; if not, force one
        m = CoefficientMatrix.from_rows([[1, 2], [2, 4]])
        if pair_curvature_invariant(*diagonal_forms(m)) != 0:
            failures.append("singular matrix should have vanishing invariant")
    announce(capsys, 12, "curvature invariant equals -16 det^2 exactly", failures)


def test_13_reproducibility(capsys, tmp_path):
    failures = []
    configs = {
        "check-star": {"suite": "check-star", "seed": 7},
        "lemma-mc": {
            "suite": "lemma-mc",
            "seed": 3,
            "matrix": {"battery": "parabola-1-1"},
            "params": {"n_w": 2, "n_y": 200, "n_radial": 24, "n_sphere": 12, "rho_list": [0.0]},
        },
        "ineq6": {
            "suite": "ineq6",
            "seed": 5,
            "matrix": {"battery": "parabola-1-1"},
            "params": {"n_sets": 3, "n_samples": 4000},
        },
    }
    for name, doc in configs.items():
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(doc))
        dirs = [tmp_path / f"{name}-{i}" for i in (1, 2)]
        for out in dirs:
            code = cli_main(["run", "--config", str(cfg), "--out", str(out)])
            if code != 0:
                failures.append(f"{name}: exit {code}")
        for fname in sorted(p.name for p in dirs[0].iterdir()):
            if fname == "report.json":  # wall clock lives here by design
                continue
            if (dirs[0] / fname).read_bytes() != (dirs[1] / fname).read_bytes():
                failures.append(f"{name}: {fname} differs between reruns")
    announce(capsys, 13, "reruns byte-identical for payloads and tables", failures)

import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from surfconv.battery import battery_entry, load_battery
from surfconv.convolution import (
    BallSet,
    ball_scaling_experiment,
    restricted_estimate_scan,
    shell_bilinear_estimate,
)
from surfconv.gaussians import GaussianSpec
from surfconv.pullback import McConfig, plancherel_ratio, pullback_weight_ratio
from surfconv.surface import (
    CoefficientMatrix,
    RowSelectionError,
    SingularSubmatrixError,
    adjoint_image,
    bilinear_forms,
    check_submatrices,
    comparability_constant,
    det_fraction,
    diagonal_forms,
    jacobian_bound_constant,
    jacobian_fd,
    jacobian_product,
    min_submatrix_det,
    pair_curvature_invariant,
    row_images,
    sample_shell,
    select_comparable_rows,
    shell_measure,
    surface_heights,
    verify_jacobian_bound,
)
from surfconv.transform import GridFunction, plane_transform

F = Fraction

BANDED = CoefficientMatrix.from_rows([[1, 0], [1, 1], [0, 1]])
PARABOLA = CoefficientMatrix.from_rows([[1]])
DEGENERATE = CoefficientMatrix.from_rows([[1, 0], [2, 0], [0, 1]])


def test_det_fraction_exact():
    assert det_fraction([[F(1)]]) == 1
    assert det_fraction([[1, 2], [3, 4]]) == -2
    assert det_fraction([[2, 0, 1], [1, 1, 0], [0, 3, 5]]) == 13
    # a singular case
    assert det_fraction([[1, 2], [2, 4]]) == 0


@given(
    st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    )
)
def test_det_fraction_matches_numpy(rows):
    exact = det_fraction(rows)
    approx = np.linalg.det(np.array(rows, dtype=float))
    assert math.isclose(float(exact), approx, rel_tol=1e-9, abs_tol=1e-9)


def test_matrix_shape_and_json_roundtrip():
    assert (BANDED.k, BANDED.l, BANDED.d) == (3, 2, 5)
    again = CoefficientMatrix.from_json(BANDED.to_json())
    assert again == BANDED
    assert again.content_hash() == BANDED.content_hash()
    assert len(BANDED.content_hash()) == 10


def test_submatrix_condition_banded_holds():
    rep = check_submatrices(BANDED)
    assert rep.holds and rep.min_abs_det == 1 and rep.witness_rows is None
    assert min_submatrix_det(BANDED) == 1


def test_submatrix_condition_witness_is_first_failure():
    rep = check_submatrices(DEGENERATE)
    assert not rep.holds
    assert rep.witness_rows == (0, 1)
    assert rep.to_json()["witness_rows"] == [1, 2]  # reported 1-based
    with pytest.raises(SingularSubmatrixError, match=re.escape(
        "the row-submatrix condition must hold: witness rows [1, 2] (1-based)"
    )):
        min_submatrix_det(DEGENERATE)
    with pytest.raises(SingularSubmatrixError):
        comparability_constant(DEGENERATE)  # refused before any Cramer quotient divides by 0


DEGENERATE_3_2 = battery_entry("degenerate-3-2").matrix
UNIT_3 = GaussianSpec.unit_mass(3)
PLAN_MC = McConfig(seed=0x5EED, n_y=512, n_radial=48, n_sphere=64)  # any plan: they refuse first


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: ball_scaling_experiment(
            DEGENERATE_3_2, [0.25, 0.125, 0.0625], [F(3, 2)],
            seed=0x5EED, resolution=None, n_tube=16, n_centers=3),
            id="ball_scaling_experiment"),
        pytest.param(lambda: restricted_estimate_scan(
            DEGENERATE_3_2, F(3, 2), n_sets=2, seed=0x5EED, n_tube=4000, resolution=128),
                     id="restricted_estimate_scan"),
        pytest.param(lambda: pullback_weight_ratio(DEGENERATE_3_2, 0.0, UNIT_3, PLAN_MC),
                     id="pullback_weight_ratio"),
        pytest.param(lambda: plancherel_ratio(DEGENERATE_3_2, UNIT_3, PLAN_MC), id="plancherel_ratio"),
        pytest.param(lambda: plane_transform(GridFunction.from_gaussian(UNIT_3, 8),
                                             DEGENERATE_3_2, [1.0, 1.0, 1.0], cells=8),
                     id="plane_transform"),
        pytest.param(lambda: shell_bilinear_estimate(
            DEGENERATE_3_2, UNIT_3, BallSet((1.5,) * 5, 0.5), n_samples=64, seed=0x5EED),
            id="shell_bilinear_estimate"),
    ],
)
def test_every_estimator_under_the_hypothesis_refuses(call):
    # rows 1 and 2 of degenerate-3-2 are proportional; min_submatrix_det is the one refusal
    with pytest.raises(SingularSubmatrixError, match=re.escape(
        "the row-submatrix condition must hold: witness rows [1, 2] (1-based)"
    )):
        call()


def test_exact_checks_are_computed_once_per_matrix():
    fresh = CoefficientMatrix.from_rows([[1, 0], [1, 1], [0, 1]])
    report, constant = check_submatrices(fresh), comparability_constant(fresh)
    assert check_submatrices(fresh) is report and comparability_constant(fresh) is constant
    assert report == check_submatrices(BANDED) and constant == comparability_constant(BANDED)
    assert fresh == BANDED and hash(fresh) == hash(BANDED)  # the cache leaves eq and hash alone


def test_comparability_constant_values():
    # l = 1 star matrices: some |c_i| = max, constant 1 after normalizing;
    # the banded 3x2 matrix needs sqrt(5)
    assert comparability_constant(PARABOLA) == pytest.approx(1.0, abs=1e-12)
    assert comparability_constant(BANDED) == pytest.approx(math.sqrt(5.0), abs=1e-12)


def solve_exactly(rows, rhs) -> list[Fraction]:
    """x with rows @ x = rhs, by Gauss-Jordan elimination over the rationals."""
    a = [[F(x) for x in row] + [F(b)] for row, b in zip(rows, rhs)]
    for i in range(len(a)):
        pivot = next(r for r in range(i, len(a)) if a[r][i] != 0)
        a[i], a[pivot] = a[pivot], a[i]
        a[i] = [x / a[i][i] for x in a[i]]
        a = [row if r == i else [x - row[i] * y for x, y in zip(row, a[i])]
             for r, row in enumerate(a)]
    return [row[-1] for row in a]


def comparability_square(matrix: CoefficientMatrix) -> Fraction:
    """M^2 = max |C_P^-1 s|^2 over l-row sets P and sign vectors s, by elimination
    rather than Cramer's rule."""
    return max(
        sum(x * x for x in solve_exactly([matrix.entries[i] for i in rows], s))
        for rows in itertools.combinations(range(matrix.k), matrix.l)
        for s in itertools.product((1, -1), repeat=matrix.l)
    )


ROUNDING_CASES = {
    **{e.entry_id: e.matrix for e in load_battery() if check_submatrices(e.matrix).holds},
    # the entries whose square leaves the float range; M is 1e200, 1e300 and 1e-200
    **{f"entry-{label}": CoefficientMatrix.from_rows([[F(num, den)]])
       for label, num, den in [("1e-200", 1, 10**200), ("1e-300", 1, 10**300),
                               ("1e200", 10**200, 1)]},
}


@pytest.mark.parametrize("matrix", ROUNDING_CASES.values(), ids=ROUNDING_CASES)
def test_comparability_constant_is_the_correctly_rounded_root(matrix):
    # M^2 lies between the squares of the midpoints from m to its float neighbours
    m = comparability_constant(matrix)
    below, above = ((F(m) + F(math.nextafter(m, to))) / 2 for to in (0.0, math.inf))
    assert below**2 <= comparability_square(matrix) <= above**2


def test_comparability_constant_is_rounded_once():
    # rounding M^2 to a float before its square root gave 9.999999999999999e+299
    assert comparability_constant(CoefficientMatrix.from_rows([[F(1, 10**300)]])) == 1e300


# integer k x l matrices with k <= 4 and l <= min(k, 3)
INTEGER_MATRICES = st.integers(1, 4).flatmap(lambda k: st.integers(1, min(k, 3)).flatmap(
    lambda l: st.lists(st.lists(st.integers(-6, 6), min_size=l, max_size=l),
                       min_size=k, max_size=k)
))


@settings(max_examples=60, deadline=None)
@given(INTEGER_MATRICES)
def test_comparability_constant_is_the_float_operator_norm(rows):
    # the exact Cramer's-rule constant against a float solve over every row set and sign vector
    mat = CoefficientMatrix.from_rows(rows)
    assume(check_submatrices(mat).holds)
    k, l = mat.k, mat.l
    expected = max(
        np.linalg.norm(np.linalg.solve(mat.array[list(rows_p)], np.array(s, dtype=float)))
        for rows_p in itertools.combinations(range(k), l)
        for s in itertools.product((1.0, -1.0), repeat=l)
    )
    assert comparability_constant(mat) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "call,message",
    [
        pytest.param(lambda: det_fraction([[1, 2]]), "determinant requires a square matrix",
                     id="det-non-square"),
        pytest.param(lambda: CoefficientMatrix(()), "coefficient matrix needs at least one row",
                     id="matrix-empty"),
        pytest.param(lambda: CoefficientMatrix.from_rows([[]]),
                     "coefficient matrix rows must share a positive length", id="matrix-empty-row"),
        pytest.param(lambda: CoefficientMatrix.from_rows([[1, 2], [3]]),
                     "coefficient matrix rows must share a positive length", id="matrix-ragged"),
        pytest.param(lambda: CoefficientMatrix.from_rows([[1, 2]]),
                     "codimension l=2 cannot exceed surface dimension k=1", id="matrix-wide"),
        pytest.param(lambda: select_comparable_rows(BANDED, np.ones(3)),
                     "zeta must be a vector of length 2", id="zeta-length"),
        pytest.param(lambda: pair_curvature_invariant([[1]], [[1, 0], [0, 1]]),
                     "each quadratic form must be a 2x2 matrix", id="curvature-1x1"),
        pytest.param(lambda: pair_curvature_invariant([[1, 0], [0, 1]], [[1, 0, 0], [0, 1, 0]]),
                     "each quadratic form must be a 2x2 matrix", id="curvature-2x3"),
        pytest.param(lambda: pair_curvature_invariant([[1, 2], [0, 1]], [[1, 0], [0, 1]]),
                     "quadratic form matrix must be symmetric", id="curvature-asymmetric"),
        pytest.param(lambda: diagonal_forms(BANDED),
                     "diagonal form extraction needs a 2x2 coefficient matrix", id="diagonal-3x2"),
    ],
)
def test_exact_layer_input_refusals(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_select_comparable_rows_always_succeeds():
    rng = np.random.default_rng(42)
    m = comparability_constant(BANDED)
    for _ in range(500):
        zeta = rng.standard_normal(2)
        rows = select_comparable_rows(BANDED, zeta)
        assert len(rows) == 1
        w = np.abs(row_images(BANDED, zeta))
        assert np.linalg.norm(zeta) <= m * (1 + 1e-9) * w[rows[0]]
    with pytest.raises(ValueError):
        select_comparable_rows(BANDED, np.zeros(2))


def test_select_with_too_small_constant_raises():
    with pytest.raises(RowSelectionError):
        # constant far below the true one cannot cover the bad directions
        select_comparable_rows(BANDED, np.array([1.0, -1.0]), constant=0.2)


def test_surface_heights_banded_closed_form():
    y = np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose(surface_heights(BANDED, y), [1 + 4, 4 + 9])


def test_bilinear_and_adjoint_are_transposes():
    rng = np.random.default_rng(3)
    x, y, zeta = rng.standard_normal(3), rng.standard_normal(3), rng.standard_normal(2)
    lhs = float(bilinear_forms(BANDED, x, y) @ zeta)
    rhs = float(x @ adjoint_image(BANDED, y, zeta))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_jacobian_product_matches_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(25):
        y = rng.uniform(1.0, 2.0, 3) * rng.choice([-1.0, 1.0], 3)
        zeta = rng.standard_normal(2)
        q = select_comparable_rows(BANDED, zeta)
        head = tuple(i for i in range(3) if i not in q)
        part = head + q
        closed = jacobian_product(BANDED, y, zeta, part)
        fd = jacobian_fd(BANDED, y, zeta, part)
        assert fd == pytest.approx(closed, rel=1e-6)


def test_jacobian_fd_warns_near_the_singular_locus():
    zeta, part = (0.7, -0.4), (0, 1, 2)
    with pytest.warns(RuntimeWarning, match="numerically singular"):
        assert jacobian_fd(BANDED, (0.0, 1.5, 1.2), zeta, part) == 0.0
    with pytest.warns(RuntimeWarning, match="ill conditioned"):
        jacobian_fd(BANDED, (1e-9, 1.5, 1.2), zeta, part)


def test_jacobian_partition_validation():
    with pytest.raises(ValueError):
        jacobian_product(BANDED, np.ones(3), np.ones(2), (0, 0, 1))
    tall = CoefficientMatrix.from_rows([[1], [1], [1]])
    with pytest.raises(ValueError):
        jacobian_product(tall, np.ones(3), np.ones(1), (0, 2, 1))  # tail not increasing


def test_jacobian_bound_on_shell_sample():
    rep = verify_jacobian_bound(BANDED, n_samples=20_000, seed=5)
    assert rep.n_violations == 0
    assert rep.min_ratio >= 1.0
    assert jacobian_bound_constant(BANDED) == pytest.approx(1.0 / 5.0**0.5)


def test_shell_measure_and_membership():
    assert shell_measure((0,)) == 2
    assert shell_measure((0, 0)) == 4
    assert shell_measure((-1, 1)) == F(2) ** 2


def test_sample_shell_uniform():
    rng = np.random.default_rng(0)
    pts = sample_shell(rng, (0, -1), 4000)
    a = np.abs(pts)
    assert np.all((a[:, 0] >= 1.0) & (a[:, 0] < 2.0))
    assert np.all((a[:, 1] >= 0.5) & (a[:, 1] < 1.0))
    # both signs appear in roughly equal numbers
    assert abs(np.mean(pts[:, 0] > 0) - 0.5) < 0.05


def test_pair_curvature_diagonal_is_minus_16_detsq():
    rng = np.random.default_rng(9)
    for _ in range(100):
        entries = rng.integers(-9, 10, size=(2, 2))
        mat = CoefficientMatrix.from_rows(entries.tolist())
        qa, qb = diagonal_forms(mat)
        inv = pair_curvature_invariant(qa, qb)
        det = det_fraction(mat.entries)
        assert inv == -16 * det * det
        # the invariant vanishes exactly when the 2x2 condition fails
        assert (inv == 0) == (det == 0) == (not check_submatrices(mat).holds)


def test_pair_curvature_vanishes_iff_determinant_does():
    singular = CoefficientMatrix.from_rows([[2, 4], [1, 2]])
    qa, qb = diagonal_forms(singular)
    assert pair_curvature_invariant(qa, qb) == 0
    regular = CoefficientMatrix.from_rows([[1, 0], [0, 1]])
    qa, qb = diagonal_forms(regular)
    assert pair_curvature_invariant(qa, qb) == -16


def test_pair_curvature_validates_symmetry():
    with pytest.raises(ValueError):
        pair_curvature_invariant([[1, 2], [3, 4]], [[1, 0], [0, 1]])


@settings(max_examples=40)
@given(
    st.lists(
        st.lists(st.integers(min_value=-5, max_value=5), min_size=2, max_size=2),
        min_size=3,
        max_size=3,
    ),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_selected_rows_satisfy_certificate(rows, seed):
    mat = CoefficientMatrix.from_rows(rows)
    rep = check_submatrices(mat)
    if not rep.holds:
        return
    m = comparability_constant(mat)
    rng = np.random.default_rng(seed)
    zeta = rng.standard_normal(2)
    if np.linalg.norm(zeta) == 0:
        return
    picked = select_comparable_rows(mat, zeta, constant=m)
    w = np.abs(row_images(mat, zeta))
    for i in picked:
        assert np.linalg.norm(zeta) <= m * (1 + 1e-9) * w[i]

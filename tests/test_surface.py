import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    invert_fraction_matrix,
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


def test_invert_fraction_matrix_roundtrip():
    rows = [[F(2), F(1)], [F(1), F(1)]]
    inv = invert_fraction_matrix(rows)
    prod = [
        [sum(rows[i][t] * inv[t][j] for t in range(2)) for j in range(2)]
        for i in range(2)
    ]
    assert prod == [[1, 0], [0, 1]]
    with pytest.raises(SingularSubmatrixError):
        invert_fraction_matrix([[F(1), F(2)], [F(2), F(4)]])


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
    with pytest.raises(SingularSubmatrixError):
        min_submatrix_det(DEGENERATE)


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

"""Shipped matrix battery and the seeded generator."""

from fractions import Fraction

import pytest

from surfconv.battery import (
    ThresholdTooHighError,
    battery_entry,
    generate_matrix,
    load_battery,
)
from surfconv.surface import check_submatrices, min_submatrix_det


def test_battery_has_the_expected_entries():
    entries = {e.entry_id: e for e in load_battery()}
    assert set(entries) == {
        "banded-3-2",
        "parabola-1-1",
        "paraboloid-2-1",
        "random-4-3",
        "degenerate-3-2",
    }
    assert entries["degenerate-3-2"].expect_star is False
    for entry_id, entry in entries.items():
        assert check_submatrices(entry.matrix).holds == entry.expect_star, entry_id


def test_battery_shapes():
    for entry in load_battery():
        k_str, l_str = entry.entry_id.rsplit("-", 2)[-2:]
        assert (entry.matrix.k, entry.matrix.l) == (int(k_str), int(l_str))


def test_unknown_entry_lists_known_ids():
    with pytest.raises(KeyError, match="banded-3-2"):
        battery_entry("no-such-matrix")


def test_generator_is_deterministic():
    a, report = generate_matrix(3, 2, seed=11)
    b, _ = generate_matrix(3, 2, seed=11)
    assert a.entries == b.entries
    assert report == check_submatrices(a) and report.holds


def test_generator_respects_threshold():
    m, report = generate_matrix(4, 2, seed=2, min_det_threshold=5)
    assert min_submatrix_det(m) == report.min_abs_det >= 5


def test_frozen_random_entry_is_pinned():
    entry = battery_entry("random-4-3")
    assert [[int(x) for x in row] for row in entry.matrix.entries] == [
        [-1, 0, 5],
        [9, -9, -7],
        [6, 9, -5],
        [-4, 7, -1],
    ]
    assert min_submatrix_det(entry.matrix) == Fraction(77)


def test_unreachable_threshold_raises():
    with pytest.raises(ThresholdTooHighError):
        generate_matrix(2, 1, seed=0, min_det_threshold=10**6, max_rejections=50)


def test_bad_shape_rejected():
    with pytest.raises(ValueError):
        generate_matrix(2, 3, seed=0)

"""The shipped matrix battery and seeded random matrix generation.

The battery covers the shapes the test suites exercise end to end: the
banded 3x2 instance, the parabola and paraboloid columns (l = 1), one
frozen random 4x3 instance, and a deliberately degenerate matrix kept as a
negative control for the submatrix condition.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from . import parallel
from .surface import CoefficientMatrix, SubmatrixReport, check_submatrices


@dataclass(frozen=True)
class BatteryEntry:
    entry_id: str
    matrix: CoefficientMatrix
    expect_star: bool


def _battery_text() -> str:
    return resources.files("surfconv").joinpath("data/battery.json").read_text()


def load_battery() -> list[BatteryEntry]:
    doc = json.loads(_battery_text())
    return [
        BatteryEntry(
            entry_id=e["id"],
            matrix=CoefficientMatrix.from_json(e["matrix"]),
            expect_star=bool(e["expect_star"]),
        )
        for e in doc["entries"]
    ]


def battery_entry(entry_id: str) -> BatteryEntry:
    for entry in load_battery():
        if entry.entry_id == entry_id:
            return entry
    known = ", ".join(e.entry_id for e in load_battery())
    raise KeyError(f"no battery entry {entry_id!r}; known: {known}")


class ThresholdTooHighError(RuntimeError):
    pass


def generate_matrix(
    k: int, l: int, seed: int, min_det_threshold=1, max_rejections: int = 10_000
) -> tuple[CoefficientMatrix, SubmatrixReport]:
    """Draw integer matrices in [-9, 9] until the submatrix condition holds
    with minimal |det| at least the threshold; exact-rational output.

    Returns the matrix and its submatrix report."""
    if not 1 <= l <= k:
        raise ValueError("need 1 <= l <= k")
    rng = parallel.rng(seed)
    for _ in range(max_rejections):
        entries = rng.integers(-9, 10, size=(k, l))
        matrix = CoefficientMatrix.from_rows(entries.tolist())
        report = check_submatrices(matrix)
        if report.holds and report.min_abs_det >= min_det_threshold:
            return matrix, report
    raise ThresholdTooHighError(
        f"no admissible matrix after {max_rejections} draws; lower the threshold"
    )

"""Deterministic work distribution, the one random stream constructor and the
one seeded Monte Carlo reduction.

Tasks are always enumerated, chunked, and reduced in a fixed order, so the
chunk layout alone picks every random stream and every float sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RatioReport:
    """Both sides of a verified inequality, the Monte Carlo stderr of lhs, and
    ratio = lhs / rhs.  A zero rhs, or a number that is not finite, is refused."""

    lhs: float
    rhs: float
    stderr: float

    def __post_init__(self):
        numbers = (self.lhs, self.rhs, self.stderr)
        # rhs == 0 is tested first: lhs / 0 raises instead of giving inf or nan
        if self.rhs == 0 or not all(map(math.isfinite, (*numbers, self.ratio))):
            raise ValueError(
                f"non-finite estimate: lhs {self.lhs}, rhs {self.rhs}, stderr {self.stderr}"
            )

    @property
    def ratio(self) -> float:
        return self.lhs / self.rhs


def ordered_map(fn, items) -> list:
    """Map fn over items, returning results in item order.

    A function of its own so that a profiler can count the chunked loops.
    """
    return [fn(it) for it in items]


def chunk_counts(total: int, parts: int) -> list[int]:
    """total // parts draws per chunk, the last also taking the remainder.
    Every chunk must draw, so total < parts is refused."""
    if total < parts:
        raise ValueError(f"{total} samples cannot fill {parts} seeded chunks")
    return [total // parts] * (parts - 1) + [total - (parts - 1) * (total // parts)]


def rng(seed) -> np.random.Generator:
    """PCG64 seeded by an int or a SeedSequence.  It is pinned here, not left to
    np.random.default_rng, because numpy reserves the right to change that
    default (NEP 19), and a change would move every seeded payload byte."""
    return np.random.Generator(np.random.PCG64(seed))


def seeded_mean(fn, seed: int, total: int, parts: int) -> list:
    """(mean, ddof=1 variance, count) of each row of fn's samples.

    fn(rng, n) returns n samples along its last axis, as an (n,) array (one
    row) or an (m, n) block (m rows).  Chunk i draws
    chunk_counts(total, parts)[i] samples from child i of
    SeedSequence(seed).spawn(parts).  The refusal of total < parts in
    chunk_counts is every estimator's sample-count rule.
    """
    counts = chunk_counts(total, parts)

    def run(chunk):
        child, n = chunk
        return fn(rng(child), n)

    children = np.random.SeedSequence(seed).spawn(parts)
    samples = np.concatenate(ordered_map(run, zip(children, counts)), axis=-1)
    return [(float(v.mean()), float(v.var(ddof=1)), len(v)) for v in np.atleast_2d(samples)]

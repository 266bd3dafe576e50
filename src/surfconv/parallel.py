"""Deterministic work distribution, the one random stream constructor, the one
seeded chunk split and the one Monte Carlo reduction.

Tasks are always enumerated, chunked, and reduced in a fixed order, so the
chunk layout alone picks every random stream and every float sum.
seeded_draws spawns the chunks' streams and sample_moments reduces a sample
block in place; seeded_mean joins them, holding one (rows, total) sample
block plus one chunk at its peak: each chunk is copied into the block as it
is drawn.  An estimator that must see all its draws at once (lq_norm_mc
hands them to one kernel call) takes seeded_draws and sample_moments apart.
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


def seeded_draws(fn, seed: int, total: int, parts: int) -> list:
    """fn(rng, n) of each seeded chunk, in chunk order.

    Chunk i draws chunk_counts(total, parts)[i] samples from child i of
    SeedSequence(seed).spawn(parts).  The refusal of total < parts in
    chunk_counts is every estimator's sample-count rule.
    """
    children = np.random.SeedSequence(seed).spawn(parts)
    return ordered_map(lambda chunk: fn(rng(chunk[0]), chunk[1]),
                       zip(children, chunk_counts(total, parts)))


def sample_moments(block) -> list:
    """(mean, ddof=1 variance, count) of each row of a float64 (total,) or
    (rows, total) sample block, which is reduced in place.

    Each row is reduced by the operations of ndarray.mean and
    ndarray.var(ddof=1): a pairwise sum over the whole contiguous row, so
    the numbers are theirs to the last bit.
    """
    block = np.atleast_2d(block)
    total = block.shape[1]
    rows = []
    for v in block:
        mean = np.add.reduce(v) / total
        v -= mean
        v *= v
        rows.append((float(mean), float(np.add.reduce(v) / (total - 1)), total))
    return rows


def seeded_mean(fn, seed: int, total: int, parts: int) -> list:
    """sample_moments of fn's seeded_draws, the chunks laid side by side.

    fn(rng, n) returns n float64 samples along its last axis, as an (n,)
    array (one row) or an (m, n) block (m rows).  One (rows, total) block is
    allocated when the first chunk returns, and each chunk is copied into
    its columns, so the peak is that block plus one chunk.
    """
    block, start = None, 0  # the block is allocated once the first chunk has given its row count

    def fill(gen, n):
        nonlocal block, start
        samples = np.atleast_2d(fn(gen, n))
        if block is None:
            block = np.empty((len(samples), total))
        block[:, start : start + n] = samples
        start += n

    seeded_draws(fill, seed, total, parts)
    return sample_moments(block)

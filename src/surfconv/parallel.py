"""Deterministic work distribution and the one seeded Monte Carlo reduction.

Tasks are always enumerated, chunked, and reduced in a fixed order, so the
chunk layout alone picks every random stream and every float sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RatioReport:
    """Both sides of a verified inequality and their ratio, with MC error.

    stderr is the lhs's for shell_bilinear_estimate and the pullback ratios, but the
    ratio's (lhs's / rhs) for plancherel_ratio.  The suites' CSVs call both `stderr`.
    """

    lhs: float
    rhs: float
    ratio: float
    stderr: float


def ordered_map(fn, items) -> list:
    """Map fn over items, returning results in item order.

    A function of its own so that a profiler can count the chunked loops.
    """
    return [fn(it) for it in items]


def seeded_mean(fn, seq: np.random.SeedSequence, total: int, parts: int) -> list:
    """(mean, ddof=1 variance, count) of each row of fn's samples.

    fn(rng, n) returns n samples along its last axis, as an (n,) array (one
    row) or an (m, n) block (m rows).  Chunk i draws from the i-th child
    spawned from seq now, and gets total // parts draws; the last chunk also
    gets the remainder.  spawn continues seq's child counter, so a second
    call on the same seq draws the next `parts` streams, never the first
    call's again.  Every chunk must draw, so total < parts is refused: that
    one rule is every estimator's sample-count rule.
    """
    if total < parts:
        raise ValueError(f"{total} samples cannot fill {parts} seeded chunks")
    counts = [total // parts] * parts
    counts[-1] += total - sum(counts)

    def run(chunk):
        child, n = chunk
        return fn(np.random.Generator(np.random.PCG64(child)), n)

    samples = np.concatenate(ordered_map(run, zip(seq.spawn(parts), counts)), axis=-1)
    return [(float(v.mean()), float(v.var(ddof=1)), len(v)) for v in np.atleast_2d(samples)]

"""Deterministic work distribution.

Tasks are always enumerated, chunked, and reduced in a fixed order, so the
chunk layout alone picks every random stream and every float sum.
"""

from __future__ import annotations

import numpy as np


def ordered_map(fn, items) -> list:
    """Map fn over items, returning results in item order.

    A function of its own so that a profiler can count the chunked loops.
    """
    return [fn(it) for it in items]


def seeded_map(fn, seq: np.random.SeedSequence, total: int, parts: int) -> list:
    """fn(rng, n) over `parts` chunks of `total` draws, in chunk order.

    Chunk i draws from the i-th child spawned from seq now, and gets
    total // parts draws; the last chunk also gets the remainder.  spawn
    continues seq's child counter, so a second call on the same seq draws
    the next `parts` streams, never the first call's again.
    """
    counts = [total // parts] * parts
    counts[-1] += total - sum(counts)

    def run(chunk):
        child, n = chunk
        return fn(np.random.Generator(np.random.PCG64(child)), n)

    return ordered_map(run, zip(seq.spawn(parts), counts))

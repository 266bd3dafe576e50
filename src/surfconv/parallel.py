"""Deterministic work distribution.

Tasks are always enumerated, chunked, and reduced in a fixed order that does
not depend on the worker count, so a run with --threads 8 is bit-identical to
a run with --threads 1.  Threads only help where numpy releases the GIL, which
is exactly where the heavy work lives.
"""

from __future__ import annotations

import numpy as np


def ordered_map(fn, items, threads: int = 1) -> list:
    """Map fn over items, returning results in item order."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    # imported here: a single-threaded run should not pay for concurrent.futures at start-up
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def seeded_map(fn, seq: np.random.SeedSequence, total: int, parts: int, threads: int = 1) -> list:
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

    return ordered_map(run, list(zip(seq.spawn(parts), counts)), threads)

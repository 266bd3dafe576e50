"""Deterministic work distribution.

Tasks are always enumerated, chunked, and reduced in a fixed order that does
not depend on the worker count, so a run with --threads 8 is bit-identical to
a run with --threads 1.  Threads only help where numpy releases the GIL, which
is exactly where the heavy work lives.
"""

from __future__ import annotations


def ordered_map(fn, items, threads: int = 1) -> list:
    """Map fn over items, returning results in item order."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    # imported here: a single-threaded run should not pay for concurrent.futures at start-up
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))

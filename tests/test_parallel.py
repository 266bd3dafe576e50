"""Seeded-chunk Monte Carlo: the streams each chunk draws, and how the draws split."""

import numpy as np

from surfconv.parallel import seeded_map


def draws(rng, n):
    return rng.uniform(size=n)


def test_two_calls_continue_one_spawn_split():
    seq = np.random.SeedSequence(17)
    first = seeded_map(draws, seq, 40, 4)
    second = seeded_map(draws, seq, 24, 4)
    children = np.random.SeedSequence(17).spawn(8)
    counts = [10] * 4 + [6] * 4
    want = [np.random.Generator(np.random.PCG64(c)).uniform(size=n) for c, n in zip(children, counts)]
    for got, expected in zip(first + second, want):
        np.testing.assert_array_equal(got, expected)


def test_remainder_lands_on_the_last_chunk():
    sizes = seeded_map(lambda rng, n: n, np.random.SeedSequence(0), 23, 5)
    assert sizes == [4, 4, 4, 4, 7]
    assert seeded_map(lambda rng, n: n, np.random.SeedSequence(0), 3, 4) == [0, 0, 0, 3]

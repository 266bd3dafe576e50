"""Seeded-chunk Monte Carlo: the streams each chunk draws, how the draws
split, and how seeded_mean reduces them; and the RatioReport contract."""

import dataclasses
import math

import numpy as np
import pytest

from oracles import warm_peak
from surfconv.parallel import RatioReport, chunk_counts, rng, seeded_mean


def draws(rng, n):
    return rng.uniform(size=n)


def pcg64_draws(seed, n):
    return np.random.Generator(np.random.PCG64(seed)).uniform(size=n)


def test_chunk_i_draws_from_child_i_of_the_seed():
    chunks = []
    for _ in range(2):  # a second call on the same seed draws the same streams again
        seeded_mean(lambda rng, n: chunks.append(draws(rng, n)) or chunks[-1], 17, 43, 4)
    children = np.random.SeedSequence(17).spawn(4)
    want = [pcg64_draws(c, n) for c, n in zip(children, chunk_counts(43, 4))]
    assert [c.tolist() for c in chunks] == [w.tolist() for w in want * 2]
    # an int seed and its SeedSequence give one stream
    assert draws(rng(17), 9).tolist() == pcg64_draws(np.random.SeedSequence(17), 9).tolist()


def test_remainder_lands_on_the_last_chunk():
    sizes = []

    def record(rng, n):
        sizes.append(n)
        return np.arange(n, dtype=float)

    [(_, _, n)] = seeded_mean(record, 0, 23, 5)
    assert sizes == [4, 4, 4, 4, 7] == chunk_counts(23, 5)
    assert n == 23


def test_block_reduces_row_by_row():
    def block(rng, n):
        u = rng.uniform(size=n)
        return np.stack([u, u**2, np.exp(u)])

    rows = seeded_mean(block, 5, 101, 8)
    singles = [
        seeded_mean(lambda rng, n, i=i: block(rng, n)[i], 5, 101, 8)[0]
        for i in range(3)
    ]
    assert rows == singles
    assert [n for _, _, n in rows] == [101] * 3


def recorded(fn):
    """fn, and the list its samples are appended to, chunk by chunk."""
    chunks = []

    def record(rng, n):
        chunks.append(fn(rng, n))
        return chunks[-1]

    return record, chunks


SAMPLERS = {
    "uniform": lambda rng, n: rng.uniform(size=n),
    "block": lambda rng, n: np.stack([u := rng.uniform(size=n), u**2, -np.exp(u)]),
    # one row from 1e-150 to 1e150 (its squares stay finite), one at unit scale
    "wide": lambda rng, n: np.stack([10.0 ** rng.uniform(-150, 150, n), rng.normal(size=n)]),
}


@pytest.mark.parametrize("total, parts", [(43, 4), (8, 8), (5003, 16)],
                         ids=["remainder", "one-each", "pairwise-blocks"])
@pytest.mark.parametrize("sampler", SAMPLERS)
def test_reduction_is_numpys_mean_and_variance(sampler, total, parts):
    # the block reduced in place gives the bits of mean and var(ddof=1) of the
    # concatenated samples, row by row
    record, chunks = recorded(SAMPLERS[sampler])
    got = seeded_mean(record, 9, total, parts)
    samples = np.atleast_2d(np.concatenate(chunks, axis=-1))
    assert got == [(float(v.mean()), float(v.var(ddof=1)), len(v)) for v in samples]
    assert [len(c) if c.ndim == 1 else c.shape[1] for c in chunks] == chunk_counts(total, parts)


@pytest.mark.parametrize("rows", [1, 2])
def test_reduction_holds_one_sample_block(rows):
    # 200 000 samples over 16 chunks: the block plus one chunk is 1.07 blocks;
    # concatenating the chunks and then taking var's deviations held 2.00
    def draw(rng, n):
        return rng.uniform(size=(n,) if rows == 1 else (rows, n))

    peak = warm_peak(lambda: seeded_mean(draw, 3, 200_000, 16))
    assert peak <= 1.25 * rows * 200_000 * 8


@pytest.mark.parametrize("total", [0, 1, 7])
def test_fewer_samples_than_chunks_are_refused(total):
    with pytest.raises(ValueError, match="seeded chunks"):
        seeded_mean(draws, 0, total, 8)
    with pytest.raises(ValueError, match="seeded chunks"):
        chunk_counts(total, 8)


def test_ratio_is_derived_from_both_sides():
    rep = RatioReport(lhs=0.3, rhs=0.7, stderr=0.01)
    assert rep.ratio == 0.3 / 0.7
    assert [f.name for f in dataclasses.fields(rep)] == ["lhs", "rhs", "stderr"]
    assert isinstance(RatioReport.ratio, property)


@pytest.mark.parametrize("field", ["lhs", "rhs", "stderr"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_ratio_report_refuses_a_non_finite_field(field, value):
    with pytest.raises(ValueError, match="non-finite estimate"):
        RatioReport(**{"lhs": 1.0, "rhs": 2.0, "stderr": 0.1, field: value})


@pytest.mark.parametrize("lhs, rhs", [(1e300, 1e-300), (1.0, 0.0), (0.0, 0.0)],
                         ids=["overflow", "zero-rhs", "zero-over-zero"])
def test_ratio_report_refuses_a_non_finite_ratio(lhs, rhs):
    # finite sides whose quotient is not a finite number
    with pytest.raises(ValueError, match="non-finite estimate"):
        RatioReport(lhs=lhs, rhs=rhs, stderr=0.0)

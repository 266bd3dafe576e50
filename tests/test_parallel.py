"""Seeded-chunk Monte Carlo: the streams each chunk draws, how the draws
split, and how seeded_mean reduces them; and the RatioReport contract."""

import dataclasses
import math

import numpy as np
import pytest

from surfconv.parallel import RatioReport, chunk_counts, seeded_mean


def draws(rng, n):
    return rng.uniform(size=n)


def test_two_calls_continue_one_spawn_split():
    seq = np.random.SeedSequence(17)
    first = seeded_mean(draws, seq, 40, 4)
    second = seeded_mean(draws, seq, 24, 4)
    children = np.random.SeedSequence(17).spawn(8)
    counts = [10] * 4 + [6] * 4
    want = [np.random.Generator(np.random.PCG64(c)).uniform(size=n) for c, n in zip(children, counts)]
    for got, expected in zip(first + second, [np.concatenate(want[:4]), np.concatenate(want[4:])]):
        assert got == (float(expected.mean()), float(expected.var(ddof=1)), len(expected))


def test_remainder_lands_on_the_last_chunk():
    sizes = []

    def record(rng, n):
        sizes.append(n)
        return np.arange(n, dtype=float)

    [(_, _, n)] = seeded_mean(record, np.random.SeedSequence(0), 23, 5)
    assert sizes == [4, 4, 4, 4, 7] == chunk_counts(23, 5)
    assert n == 23


def test_block_reduces_row_by_row():
    def block(rng, n):
        u = rng.uniform(size=n)
        return np.stack([u, u**2, np.exp(u)])

    rows = seeded_mean(block, np.random.SeedSequence(5), 101, 8)
    singles = [
        seeded_mean(lambda rng, n, i=i: block(rng, n)[i], np.random.SeedSequence(5), 101, 8)[0]
        for i in range(3)
    ]
    assert rows == singles
    assert [n for _, _, n in rows] == [101] * 3


@pytest.mark.parametrize("total", [0, 1, 7])
def test_fewer_samples_than_chunks_are_refused(total):
    with pytest.raises(ValueError, match="seeded chunks"):
        seeded_mean(draws, np.random.SeedSequence(0), total, 8)
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

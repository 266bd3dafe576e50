"""Helpers for exact rationals and their JSON wire format.

Rationals travel through every JSON interface as ``[numerator, denominator]``
pairs of integers, so that no file format ever commits to a binary float for
a quantity that is exact by construction.  Where a rational is a key, a
label or a display value it is the string "numerator/denominator" instead.
"""

from __future__ import annotations

from fractions import Fraction


def frac_to_pair(x) -> list[int]:
    """Serialize an exact number as a reduced [numerator, denominator] pair."""
    f = Fraction(x)
    return [f.numerator, f.denominator]


def frac_str(x) -> str:
    """Format an exact number as "numerator/denominator", always with both parts."""
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def pair_to_frac(pair) -> Fraction:
    """Parse a [numerator, denominator] pair into a Fraction."""
    if isinstance(pair, (list, tuple)):
        if len(pair) != 2:
            raise ValueError(f"rational pair must have two entries, got {pair!r}")
        num, den = pair
        if int(den) == 0:
            raise ValueError(f"rational pair {pair!r} has a zero denominator")
        return Fraction(int(num), int(den))
    raise TypeError(f"cannot parse {pair!r} as an exact rational")

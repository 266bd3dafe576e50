"""Exact geometry of the admissible (1/p, 1/q) exponent region.

For a k-dimensional quadratic graph surface in R^d (d = k + l), the candidate
type set is the closed triangle with vertices (0, 0), (1, 1) and

    V = (d / (2d - k), (d - k) / (2d - k)),

intersected, when k(k + 3) < 2d, with the band

    1/p - 1/q <= 2k / (6d - k^2 - 5k).

Everything in this module is computed with arbitrary precision rationals;
floats appear only when a caller explicitly asks for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .rationals import frac_to_pair


class InvalidDimensionError(ValueError):
    """Raised when a (k, d) pair does not describe a proper submanifold."""


def _check_dims(k: int, d: int) -> None:
    if not (isinstance(k, int) and isinstance(d, int)):
        raise InvalidDimensionError(f"dimensions must be integers, got k={k!r}, d={d!r}")
    if k < 1:
        raise InvalidDimensionError(f"surface dimension must be positive, got k={k}")
    if d <= k:
        raise InvalidDimensionError(
            f"ambient dimension d={d} must exceed surface dimension k={k}"
        )


@dataclass(frozen=True)
class ExponentPair:
    """A point (1/p, 1/q) of the unit square, stored exactly."""

    inv_p: Fraction
    inv_q: Fraction

    def __post_init__(self):
        object.__setattr__(self, "inv_p", Fraction(self.inv_p))
        object.__setattr__(self, "inv_q", Fraction(self.inv_q))
        for v in (self.inv_p, self.inv_q):
            if not 0 <= v <= 1:
                raise ValueError(f"exponent coordinate {v} outside [0, 1]")

    def dual(self) -> "ExponentPair":
        """Reflect across the self-dual line: (a, b) -> (1 - b, 1 - a)."""
        return ExponentPair(1 - self.inv_q, 1 - self.inv_p)

    def as_floats(self) -> tuple[float, float]:
        return float(self.inv_p), float(self.inv_q)

    def to_json(self) -> list[list[int]]:
        return [frac_to_pair(self.inv_p), frac_to_pair(self.inv_q)]


def triangle_vertices(k: int, d: int) -> tuple[ExponentPair, ExponentPair, ExponentPair]:
    """The three vertices (0,0), (1,1), V of the candidate triangle."""
    _check_dims(k, d)
    den = 2 * d - k
    far = ExponentPair(Fraction(d, den), Fraction(d - k, den))
    return ExponentPair(0, 0), ExponentPair(1, 1), far


def ricci_gap(k: int, d: int) -> Fraction | None:
    """Width bound on 1/p - 1/q forced by low surface dimension.

    Returns 2k / (6d - k^2 - 5k) when k(k + 3) < 2d, else None (no band
    constraint applies).
    """
    _check_dims(k, d)
    if k * (k + 3) >= 2 * d:
        return None
    # k(k + 3) < 2d gives 6d - k^2 - 5k > 2k^2 + 4k > 0
    return Fraction(2 * k, 6 * d - k * k - 5 * k)


def critical_q0(k: int, d: int) -> Fraction:
    """The q-exponent of the nontrivial triangle vertex: (2d - k)/(d - k)."""
    _check_dims(k, d)
    return Fraction(2 * d - k, d - k)


def critical_p0(k: int, d: int) -> Fraction:
    """The p-exponent of the nontrivial triangle vertex: (2d - k)/d."""
    _check_dims(k, d)
    return Fraction(2 * d - k, d)


@dataclass(frozen=True)
class TypeSet:
    """The candidate exponent region for a k-surface in R^(k+l)."""

    k: int
    l: int
    vertices: tuple[ExponentPair, ExponentPair, ExponentPair]
    ricci_gap: Fraction | None

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "l": self.l,
            "vertices": [v.to_json() for v in self.vertices],
            "ricci_gap": None if self.ricci_gap is None else frac_to_pair(self.ricci_gap),
        }


def typeset(k: int, d: int) -> TypeSet:
    """Build the exact candidate type set for a k-surface in R^d."""
    _check_dims(k, d)
    return TypeSet(
        k=k,
        l=d - k,
        vertices=triangle_vertices(k, d),
        ricci_gap=ricci_gap(k, d),
    )


def _edge_side(a: ExponentPair, b: ExponentPair, p: ExponentPair) -> Fraction:
    """Signed area of the triangle (a, b, p); zero exactly on line ab."""
    return (b.inv_p - a.inv_p) * (p.inv_q - a.inv_q) - (b.inv_q - a.inv_q) * (
        p.inv_p - a.inv_p
    )


def typeset_contains(ts: TypeSet, point: ExponentPair, mode: str = "interior") -> bool:
    """Exact membership test for the candidate region.

    mode "interior" tests the topological interior (strict inequalities);
    mode "boundary" tests the closed region.
    """
    if mode not in ("interior", "boundary"):
        raise ValueError(f"mode must be 'interior' or 'boundary', got {mode!r}")
    strict = mode == "interior"
    va, vb, vc = ts.vertices
    for a, b, c in ((va, vb, vc), (vb, vc, va), (vc, va, vb)):
        ref = _edge_side(a, b, c)
        side = _edge_side(a, b, point)
        # same side as the opposite vertex; sign(ref) != 0 for a real triangle
        val = side * ref
        if val < 0 or (strict and val == 0):
            return False
    if ts.ricci_gap is not None:
        width = point.inv_p - point.inv_q
        if width > ts.ricci_gap or (strict and width == ts.ricci_gap):
            return False
    return True

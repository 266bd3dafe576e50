#!/usr/bin/env python3
"""Walk through the exponent triangle for a few surface shapes.

For a k-dimensional quadratic graph in R^d the admissible (1/p, 1/q)
pairs form a closed triangle with vertices at (0,0), (1,1), and the
critical point (d/(2d-k), (d-k)/(2d-k)).  This script prints the vertices,
the critical exponents, the duality symmetry, and where a few concrete
exponent pairs land.
"""

from fractions import Fraction

from surfconv.exponents import (
    ExponentPair,
    critical_p0,
    critical_q0,
    ricci_gap,
    triangle_vertices,
    typeset,
    typeset_contains,
)


def describe(k: int, d: int) -> None:
    ts = typeset(k, d)
    origin, diagonal, critical = triangle_vertices(k, d)
    print(f"\nsurface dimension k={k} in R^{d} (codimension l={d - k})")
    print(f"  vertices: {origin.as_floats()}, {diagonal.as_floats()}, {critical.as_floats()}")
    print(f"  critical q0 = {critical_q0(k, d)}, p0 = {critical_p0(k, d)}")
    print(f"  self-dual critical vertex: {critical.dual() == critical}")
    identity = Fraction(k) + (d - k) / critical_q0(k, d)
    print(f"  k + l/q0 = {identity} = d/p0 = {Fraction(d) / critical_p0(k, d)}")
    gap = ricci_gap(k, d)
    if gap is None:
        print("  no curvature-driven widening applies at this codimension")
    else:
        print(f"  curvature widening of the p-range: {gap}")

    probes = [
        ExponentPair(Fraction(1, 2), Fraction(1, 4)),
        critical,
        ExponentPair(Fraction(9, 10), Fraction(1, 10)),
    ]
    for pt in probes:
        inside = typeset_contains(ts, pt, mode="interior")
        closed = typeset_contains(ts, pt, mode="boundary")
        where = "interior" if inside else ("boundary" if closed else "outside")
        print(f"  (1/p, 1/q) = ({pt.inv_p}, {pt.inv_q}) -> {where}")


def main() -> None:
    print("exponent triangle tour")
    print("=" * 60)
    for k, d in [(1, 2), (2, 3), (3, 5), (4, 7)]:
        describe(k, d)

    print("\nwhere the curvature widening exists (k(k+3) < 2d):")
    for k in range(1, 5):
        ds = [d for d in range(k + 1, 17) if ricci_gap(k, d) is not None]
        if ds:
            gaps = ", ".join(f"d={d}: {ricci_gap(k, d)}" for d in ds[:4])
            print(f"  k={k}: {gaps}{' ...' if len(ds) > 4 else ''}")
        else:
            print(f"  k={k}: none up to d = 16")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Why the critical exponent is where it is: shrink balls, fit slopes.

Convolving the surface measure with a shrinking ball indicator produces a
function of height ~ delta^k supported on a tube of measure ~ delta^l, so

    ||mu * chi_B(delta)||_q0 ~ delta^(k + l/q0).

Dividing by m(B)^(1/p) = (c delta^d)^(1/p) gives a ratio whose log-log
slope crosses zero exactly at 1/p = d/(2d-k): below the vertex the ratio
stays bounded, above it the estimate degenerates as delta -> 0.
"""

from fractions import Fraction

from surfconv.battery import battery_entry
from surfconv.convolution import ScalingConfig, ball_scaling_experiment
from surfconv.exponents import critical_p0


def run_case(entry_id: str) -> None:
    matrix = battery_entry(entry_id).matrix
    k, l, d = matrix.k, matrix.l, matrix.d
    p0 = critical_p0(k, d)
    offsets = [Fraction(0), Fraction(-1, 20), Fraction(-1, 10), Fraction(1, 20), Fraction(1, 10)]
    p_list = [1 / (1 / p0 + off) for off in offsets]

    rep = ball_scaling_experiment(
        matrix,
        [2.0**-e for e in (3, 4, 5, 6)],
        p_list,
        ScalingConfig(seed=1234, n_tube=3000, n_centers=3),
    )

    print(f"\n{entry_id}: k={k}, l={l}, d={d}, critical p0 = {p0}")
    expected = rep.params["expected_norm_exponent"]
    got = rep.norm_exponents["mean"]
    print(f"  fitted norm exponent {got:.4f} vs k + l/q0 = {expected}")
    print(f"  grid resolutions per radius: {rep.params['resolutions']}")
    print("  ratio slopes by p (negative slope = estimate degenerates):")
    for p in p_list:
        key = f"{p.numerator}/{p.denominator}"
        slope = rep.ratio_slopes[key]
        side = "at the vertex" if p == p0 else ("below" if 1 / p < 1 / p0 else "above")
        print(f"    p = {key:>7} ({side:<13}): slope {slope:+.4f}")


def main() -> None:
    print("dyadic ball scaling on two surfaces")
    print("=" * 60)
    run_case("paraboloid-2-1")
    run_case("banded-3-2")
    print("\nslopes flip sign across the critical vertex; the bounded side")
    print("is exactly the triangle the exponent geometry predicts.")


if __name__ == "__main__":
    main()

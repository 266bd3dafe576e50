#!/usr/bin/env python3
"""Exact checks on the coefficient-matrix battery.

Runs the row-submatrix nonsingularity check, the comparability constant,
frequency-dependent row selection, and the Monte Carlo audit of the
Jacobian lower bound on the unit dyadic shell.  All determinant work is
exact rational arithmetic; only the shell audit samples.
"""

import numpy as np

from surfconv.battery import load_battery
from surfconv.surface import (
    check_submatrices,
    comparability_constant,
    jacobian_bound_constant,
    min_submatrix_det,
    select_comparable_rows,
    verify_jacobian_bound,
)


def main() -> None:
    print("coefficient matrix battery")
    print("=" * 64)
    for entry in load_battery():
        m = entry.matrix
        rep = check_submatrices(m)
        print(f"\n{entry.entry_id}  ({m.k} rows x {m.l} cols)")
        for row in m.entries:
            print("   ", [str(x) for x in row])
        if not rep.holds:
            rows_1b = [i + 1 for i in rep.witness_rows]
            print(f"  condition FAILS: rows {rows_1b} give a singular submatrix")
            continue
        print(f"  condition holds, min |det| over row submatrices = {min_submatrix_det(m)}")
        const = comparability_constant(m)
        print(f"  comparability constant M = {const:.12f}")

        rng = np.random.default_rng(7)
        zeta = rng.standard_normal(m.l)
        picked = select_comparable_rows(m, zeta, const)
        print(f"  sample frequency {np.round(zeta, 3)} -> comparable rows {picked}")

        audit = verify_jacobian_bound(m, n_samples=50_000, seed=1)
        print(
            f"  jacobian shell bound (constant {jacobian_bound_constant(m):.6f}): "
            f"min ratio {audit.min_ratio:.4f} over {audit.n_samples} samples, "
            f"{audit.n_violations} violations"
        )


if __name__ == "__main__":
    main()

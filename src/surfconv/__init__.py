"""Numerical experiments for convolution bounds on quadratic graph surfaces.

The package splits into exact combinatorial layers (exponent geometry,
integer coefficient matrices, row-submatrix certificates) and floating-point
experiment layers (plane pushforwards, frequency-side quadrature, surface
measures with Monte Carlo norms).  The `surfconv` CLI wires the pieces into
reproducible, config-driven suites.
"""

from .exponents import (
    ExponentPair,
    TypeSet,
    critical_p0,
    critical_q0,
    ricci_gap,
    triangle_vertices,
    typeset,
    typeset_contains,
)
from .surface import (
    CoefficientMatrix,
    check_submatrices,
    comparability_constant,
    min_submatrix_det,
    select_comparable_rows,
    surface_heights,
)
from .gaussians import GaussianSpec, random_gaussian
from .transform import (
    GridFunction,
    fourier_check,
    oscillatory_sup_bound,
    pairing_check,
    plane_transform,
)
from .pullback import (
    McConfig,
    change_of_variables_check,
    plancherel_ratio,
    pullback_weight_ratio,
    region_cover_factor,
    region_weight_ratio,
    squared_fourier_weight,
)
from .convolution import (
    BallSet,
    BoxUnionSet,
    NormMcConfig,
    ScalingConfig,
    ShearedBoxSet,
    SurfaceMeasure,
    TangentTubeSet,
    ball_scaling_experiment,
    lq_norm_mc,
    restricted_estimate_scan,
    shell_bilinear_estimate,
    shell_sum_estimate,
    standard_set_family,
)
from .battery import battery_entry, generate_matrix, load_battery
from .suites import SUITES, run_suite

__version__ = "0.1.0"

__all__ = [
    "ExponentPair",
    "TypeSet",
    "critical_p0",
    "critical_q0",
    "ricci_gap",
    "triangle_vertices",
    "typeset",
    "typeset_contains",
    "CoefficientMatrix",
    "check_submatrices",
    "comparability_constant",
    "min_submatrix_det",
    "select_comparable_rows",
    "surface_heights",
    "GaussianSpec",
    "random_gaussian",
    "GridFunction",
    "fourier_check",
    "oscillatory_sup_bound",
    "pairing_check",
    "plane_transform",
    "McConfig",
    "change_of_variables_check",
    "plancherel_ratio",
    "pullback_weight_ratio",
    "region_cover_factor",
    "region_weight_ratio",
    "squared_fourier_weight",
    "BallSet",
    "BoxUnionSet",
    "NormMcConfig",
    "ScalingConfig",
    "ShearedBoxSet",
    "SurfaceMeasure",
    "TangentTubeSet",
    "ball_scaling_experiment",
    "lq_norm_mc",
    "restricted_estimate_scan",
    "shell_bilinear_estimate",
    "shell_sum_estimate",
    "standard_set_family",
    "battery_entry",
    "generate_matrix",
    "load_battery",
    "SUITES",
    "run_suite",
    "__version__",
]

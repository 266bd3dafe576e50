"""Numerical experiments for convolution bounds on quadratic graph surfaces.

The package splits into exact combinatorial layers (exponent geometry,
integer coefficient matrices, row-submatrix certificates) and floating-point
experiment layers (plane pushforwards, frequency-side quadrature, surface
measures with Monte Carlo norms).  The `surfconv` CLI wires the pieces into
reproducible, config-driven suites.
"""

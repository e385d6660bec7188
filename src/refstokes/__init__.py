"""Dilute rigid-particle suspensions in Stokes flow.

Method-of-reflections solver for the per-particle strain coefficients of a
well-separated particle cloud, closed-form Stokes kernels, coefficient-field
homogenization diagnostics (negative Sobolev distance, mean-field correction
velocity), and the dilute-limit effective-viscosity coefficient.

Import names from their modules (`from refstokes import cloud`); the package
itself exports only `__version__`.
"""

__version__ = "0.1.0"

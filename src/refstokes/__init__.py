"""Dilute rigid-particle suspensions in Stokes flow.

Method-of-reflections solver for the per-particle strain coefficients of a
well-separated particle cloud, closed-form Stokes kernels, coefficient-field
homogenization diagnostics (negative Sobolev distance, mean-field correction
velocity), and the dilute-limit effective-viscosity coefficient.
"""

from .cloud import (
    FIELD_EXCLUSION_FACTOR,
    SEPARATION_FACTOR,
    CloudStats,
    ParticleCloud,
    brute_force_min_distance,
    cloud_from_json,
    cloud_to_json,
    generate_lattice,
    generate_rsa,
    load_cloud,
    save_cloud,
    validate,
)
from .effective import (
    EffectiveModel,
    assemble_MN,
    einstein_coefficient,
    einstein_work,
    fixed_point_vc,
    hminus1_distance,
    lp_field_distance,
    outside_balls,
    tilde_vc,
    uniform_Meff,
)
from .errors import (
    GateError,
    GridMismatchError,
    KernelDomainError,
    SaturationError,
    SeparationError,
)
from .fields import GridField
from .kernels import (
    mean_value_reconstruct,
    mobility_from_boundary_integral,
    oseen,
    oseen_gradient,
    oseen_pressure,
    sphere_disturbance,
    sphere_mobility,
    sphere_remainder,
    stresslet_field,
    stresslet_strain,
)
from .reflections import (
    EPS0_GATE_DEFAULT,
    ReflectionState,
    StressletSolution,
    contraction_diagnostic,
    dense_fixed_point,
    evaluate_velocity,
    init_reflections,
    reflect_step,
    run_reflections,
)
from .sym3 import (
    BASIS,
    apply_mobility,
    embed,
    frobenius,
    project_sym_tracefree,
)

__version__ = "0.1.0"

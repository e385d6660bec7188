"""Method of reflections for the strain coefficients of a particle cloud.

Starting from the ambient strain on every particle, each sweep replaces the
per-particle strain level with the strain induced at its center by all other
particles' stresslets,

    level'_l = sum_{m != l} D(K)[ mobility_m . level_m ](x_l - x_m),

and accumulates the levels into running totals. The accumulated totals are
the Neumann series of the linear fixed-point problem (I - T) total = ambient,
which `dense_fixed_point` solves directly as an independent oracle.

A sweep is one application of `kernels.strain_operator` (the bits of
`kernels.stresslet_strain_sum`), built by a state's first sweep and carried on;
the velocity sums through `kernels.velocity_sum` and the dense matrix through
`kernels.pair_blocks`, so the kernels here are the ones the point functions in
`kernels` evaluate, and repeated runs on identical input are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels
from .cloud import ParticleCloud, validate
from .errors import GateError, KernelDomainError
from .sym3 import apply_mobility, embed, sym_coefficients, sym_from_list, sym_matrix

__all__ = [
    "EPS0_GATE_DEFAULT",
    "ReflectionState",
    "StressletSolution",
    "init_reflections",
    "reflect_step",
    "run_reflections",
    "DENSE_MAX_UNKNOWNS",
    "dense_fixed_point",
    "evaluate_velocity",
    "contraction_diagnostic",
    "level_ratios",
    "solution_to_json",
    "solution_from_json",
]

EPS0_GATE_DEFAULT = 1e-2   # admissible a^3/d^3 (times the mobility factor) for the solver
DENSE_MAX_UNKNOWNS = 5000  # largest 5N that `dense_fixed_point` solves


@dataclass
class ReflectionState:
    cloud: ParticleCloud
    A_current: np.ndarray          # (N, 5) current strain level
    A_total: np.ndarray            # (N, 5) accumulated levels
    n: int                         # number of sweeps performed
    norm_history: list = field(default_factory=list)  # l2 norm of each level
    sweep: object = None           # `kernels.strain_operator` of the cloud's centres


@dataclass
class StressletSolution:
    cloud: ParticleCloud
    A_hat: np.ndarray              # (N, 5) converged per-particle strains
    iterations: int
    converged: bool
    residual: float                # l2 norm of the last (smallest) level
    norm_history: list


def _level_norm(levels, q=2.0):
    mags = np.sqrt(np.einsum("la,la->l", levels, levels))
    if q == np.inf:
        return float(np.max(mags, initial=0.0))
    return float(np.sum(mags ** q) ** (1.0 / q)) if len(mags) else 0.0


def init_reflections(cloud, A):
    """Initial state: every particle carries the ambient strain."""
    A = sym_from_list(A)
    cur = np.tile(A, (cloud.n, 1))
    return ReflectionState(cloud=cloud, A_current=cur.copy(), A_total=cur.copy(),
                           n=0, norm_history=[_level_norm(cur)])


def reflect_step(state):
    """One sweep: new level from the previous one, totals accumulated. The first sweep of
    a state with no operator builds `kernels.strain_operator`, and the new state carries it."""
    sweep = state.sweep or kernels.strain_operator(state.cloud.centers)
    new = sweep(apply_mobility(state.cloud.mobilities, state.A_current))
    return replace(state, A_current=new, A_total=state.A_total + new, n=state.n + 1,
                   norm_history=state.norm_history + [_level_norm(new)], sweep=sweep)


def _check_gate(cloud, gate, force):
    """Gate a^3/d^3 scaled by the largest mobility, max_l |M_l|_2 / |M_sphere|_2
    (exactly 1 for spheres): the strain of one sweep grows with both. A gate
    that is not a positive number is refused, force or not."""
    if not gate > 0:
        raise ValueError(f"gate must be a positive number, got {gate}")
    stats = validate(cloud)
    factor = (np.max(np.linalg.norm(cloud.mobilities, 2, axis=(1, 2)), initial=0.0)
              / np.linalg.norm(kernels.sphere_mobility(cloud.a), 2))
    if not force and stats.phi_local * factor > gate:
        raise GateError(
            f"a^3/d^3 = {stats.phi_local:.3g} times the mobility factor {factor:.3g} "
            f"above the convergence gate {gate:.3g}; pass force=True to override")
    return stats


def _diverged(h):
    """A non-finite last level, or two consecutive level ratios >= 1."""
    return not np.isfinite(h[-1]) or len(h) >= 3 and h[-1] >= h[-2] >= h[-3]


def run_reflections(cloud, A, tol=1e-10, max_iter=100, fixed_n=None,
                    gate=EPS0_GATE_DEFAULT, force=False):
    """Iterate reflection sweeps and sum the levels.

    In tolerance mode the iteration stops once the l2 norm of the current
    level drops below tol * |A|; failure to converge within max_iter returns
    a non-converged result (no exception), history attached. A diverging
    solve (a non-finite level, or two consecutive level ratios >= 1) stops
    the same way. With fixed_n the totals include exactly the strain levels
    0..fixed_n-1 (the velocity approximation of order fixed_n).
    """
    A = sym_from_list(A)
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    sweeps = kernels.check_count(max_iter, "max_iter", 0)
    if fixed_n is not None:
        sweeps = kernels.check_count(fixed_n, "fixed_n", 1) - 1
    _check_gate(cloud, gate, force)
    ref = np.linalg.norm(A)
    state = init_reflections(cloud, A)
    converged = False
    while state.n < sweeps and not (
            fixed_n is None and (converged or _diverged(state.norm_history))):
        state = reflect_step(state)
        converged = state.norm_history[-1] <= tol * ref
    return StressletSolution(cloud=cloud, A_hat=state.A_total, iterations=state.n,
                             converged=bool(converged), residual=state.norm_history[-1],
                             norm_history=list(state.norm_history))


def pair_interaction_matrix(cloud):
    """Dense (5N, 5N) matrix of one reflection sweep (zero diagonal blocks).

    Column c of block (l, m) is the strain at x_l of the moment
    mobility_m e_c at x_m. The matrix is filled transposed, as contiguous rows
    TT[m, c] of a C-ordered (N, 5, N, 5) array, one `kernels.pair_blocks` row
    block of sources m at a time: the strain kernel is even in z, so the
    offsets x_m - x_l give T's bits. Returns the Fortran-ordered transpose,
    which LAPACK reads in one contiguous pass.
    """
    n = cloud.n
    TT = np.empty((n, 5, n, 5))
    moments = [sym_matrix(mob.T)[..., None] for mob in np.moveaxis(cloud.mobilities, 2, 0)]
    for rows, z, r2 in kernels.pair_blocks(cloud.centers, cloud.centers, exclude_within=0.0):
        for c, moment in enumerate(moments):    # M_m e_c, one per source row
            strain = kernels.stresslet_strain_kernel(moment[:, :, rows], z, r2)
            TT[rows, c] = np.stack(sym_coefficients(strain), axis=-1)
    return TT.reshape(5 * n, 5 * n).T


def dense_fixed_point(cloud, A):
    """Direct solve of (I - T) total = ambient; oracle for `run_reflections`.

    T is the dense matrix of one reflection sweep. Guarded to 5N <=
    DENSE_MAX_UNKNOWNS. Raises on a singular system (outside the contraction
    regime).
    """
    A, n = sym_from_list(A), cloud.n
    if 5 * n > DENSE_MAX_UNKNOWNS:
        raise ValueError(f"dense solve guarded to 5N <= {DENSE_MAX_UNKNOWNS} (got N = {n})")
    I_minus_T = pair_interaction_matrix(cloud)
    np.negative(I_minus_T, out=I_minus_T)
    np.fill_diagonal(I_minus_T, 1.0)      # the diagonal blocks of T are zero
    rhs = np.tile(A, n)
    try:
        x = np.linalg.solve(I_minus_T, rhs)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"(I - T) singular; configuration outside the contraction regime: {exc}")
    A_hat = x.reshape(n, 5)
    residual = float(np.linalg.norm(I_minus_T @ x - rhs))
    return StressletSolution(cloud=cloud, A_hat=A_hat, iterations=0,
                             converged=True, residual=residual,
                             norm_history=[_level_norm(A_hat)])


def evaluate_velocity(solution, A, points):
    """Approximate velocity A x plus per-particle disturbances at the points.

    The cloud picks the kernel: when every particle carries the closed-form
    sphere mobility (`ParticleCloud.spherical`) each contributes the full
    sphere disturbance of its accumulated strain; otherwise each contributes
    the point-stresslet field of its moment. Points inside a particle raise
    KernelDomainError naming the point and the particle; points on a surface
    are allowed.
    """
    points = kernels.check_points(points, "points")
    cloud, A = solution.cloud, sym_from_list(A)
    u = points @ embed(A).T
    t, s, z = kernels.pairs_within(points, cloud.centers, cloud.a)
    inside = np.flatnonzero(np.einsum("ki,ki->k", z, z) < cloud.a ** 2 * (1.0 - 1e-12))
    if len(inside):
        raise KernelDomainError(
            f"evaluation point {t[inside[0]]} inside particle {s[inside[0]]}")
    if cloud.spherical:
        return u + kernels.velocity_sum(solution.A_hat, points, cloud.centers, cloud.a)
    return u + kernels.velocity_sum(apply_mobility(cloud.mobilities, solution.A_hat),
                                    points, cloud.centers)


def contraction_diagnostic(cloud, A, q=2.0, n_levels=5,
                           gate=EPS0_GATE_DEFAULT, force=False):
    """Per-sweep lq-norm ratios of consecutive strain levels.

    Returns n_levels ratios ||level_{k+1}||_q / ||level_k||_q; a vanishing
    level reports 0. These track the geometric contraction of the sweeps.
    """
    A = sym_from_list(A)
    n_levels = kernels.check_count(n_levels, "n_levels", 2)
    if not q > 1.0:
        raise ValueError("q must be > 1")
    _check_gate(cloud, gate, force)
    state = init_reflections(cloud, A)
    norms = [_level_norm(state.A_current, q)]
    for _ in range(n_levels):
        state = reflect_step(state)
        norms.append(_level_norm(state.A_current, q))
    return level_ratios(norms)


def level_ratios(norms):
    """Ratios norms[k+1] / norms[k] of consecutive levels; 0 after a vanishing level."""
    return [0.0 if prev == 0.0 else cur / prev for prev, cur in zip(norms, norms[1:])]


def solution_to_json(solution):
    return {
        "a_hat": np.asarray(solution.A_hat, float).tolist(),
        "iterations": int(solution.iterations),
        "converged": bool(solution.converged),
        "residual": float(solution.residual),
        "norm_history": [float(v) for v in solution.norm_history],
    }


def solution_from_json(doc, cloud):
    A_hat = np.asarray(doc["a_hat"], dtype=float).reshape(-1, 5)
    if len(A_hat) != cloud.n:
        raise ValueError(f"a_hat has {len(A_hat)} rows for a cloud of {cloud.n} particles")
    return StressletSolution(
        cloud=cloud, A_hat=A_hat,
        iterations=int(doc["iterations"]),
        converged=bool(doc["converged"]),
        residual=float(doc["residual"]),
        norm_history=[float(v) for v in doc["norm_history"]],
    )

"""Method of reflections for the strain coefficients of a particle cloud.

Starting from the ambient strain on every particle, each sweep replaces the
per-particle strain level with the strain induced at its center by all other
particles' stresslets,

    level'_l = sum_{m != l} D(K)[ mobility_m . level_m ](x_l - x_m),

and accumulates the levels into running totals. The accumulated totals are
the Neumann series of the linear fixed-point problem (I - T) total = ambient,
which `dense_fixed_point` solves directly as an independent oracle.

Every pair sum goes through `kernels.pair_sum`, so the strain and velocity
kernels here are the ones the point functions in `kernels` evaluate, and
repeated runs on identical input are bit-identical.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy import linalg

from . import kernels
from .cloud import ParticleCloud, validate
from .errors import GateError, KernelDomainError
from .sym3 import embed

__all__ = [
    "EPS0_GATE_DEFAULT",
    "ReflectionState",
    "StressletSolution",
    "init_reflections",
    "reflect_step",
    "run_reflections",
    "dense_fixed_point",
    "evaluate_velocity",
    "contraction_diagnostic",
    "solution_to_json",
    "solution_from_json",
    "save_solution",
    "load_solution",
    "convergence_table_to_csv",
]

EPS0_GATE_DEFAULT = 1e-2   # admissible a^3/d^3 for the iterative solver


@dataclass
class ReflectionState:
    cloud: ParticleCloud
    A_current: np.ndarray          # (N, 5) current strain level
    A_total: np.ndarray            # (N, 5) accumulated levels
    n: int                         # number of sweeps performed
    norm_history: list = field(default_factory=list)  # l2 norm of each level


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
    A = np.asarray(A, dtype=float).reshape(5)
    cur = np.tile(A, (cloud.n, 1))
    return ReflectionState(cloud=cloud, A_current=cur.copy(), A_total=cur.copy(),
                           n=0, norm_history=[_level_norm(cur)])


def reflect_step(state):
    """One sweep: new level from the previous one, totals accumulated."""
    moments = np.einsum("lab,lb->la", state.cloud.mobilities, state.A_current)
    centers = state.cloud.centers
    new = kernels.pair_sum(kernels.stresslet_strain_kernel, moments, centers, centers,
                           np.zeros_like(moments), exclude_within=0.0)
    return ReflectionState(
        cloud=state.cloud,
        A_current=new,
        A_total=state.A_total + new,
        n=state.n + 1,
        norm_history=state.norm_history + [_level_norm(new)],
    )


def _check_gate(cloud, gate, force):
    stats = validate(cloud)
    if not force and stats.phi_local > gate:
        raise GateError(
            f"a^3/d^3 = {stats.phi_local:.3g} above the convergence gate {gate:.3g}; "
            "pass force=True to override")
    return stats


def run_reflections(cloud, A, tol=1e-10, max_iter=100, fixed_n=None,
                    gate=EPS0_GATE_DEFAULT, force=False):
    """Iterate reflection sweeps and sum the levels.

    In tolerance mode the iteration stops once the l2 norm of the current
    level drops below tol * |A|; failure to converge within max_iter returns
    a non-converged result (no exception), history attached. With fixed_n
    the totals include exactly the strain levels 0..fixed_n-1 (the velocity
    approximation of order fixed_n).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if fixed_n is not None and fixed_n < 1:
        raise ValueError("fixed_n must be >= 1")
    _check_gate(cloud, gate, force)
    A = np.asarray(A, dtype=float).reshape(5)
    ref = np.linalg.norm(A)
    state = init_reflections(cloud, A)
    sweeps = max_iter if fixed_n is None else fixed_n - 1
    converged = False
    while state.n < sweeps and not (converged and fixed_n is None):
        state = reflect_step(state)
        converged = state.norm_history[-1] <= tol * ref
    return StressletSolution(cloud=cloud, A_hat=state.A_total, iterations=state.n,
                             converged=bool(converged), residual=state.norm_history[-1],
                             norm_history=list(state.norm_history))


def pair_interaction_matrix(cloud):
    """Dense (5N, 5N) matrix of one reflection sweep (zero diagonal blocks).

    Column c of block (l, m) is the strain at x_l of the moment
    mobility_m e_c at x_m.
    """
    n = cloud.n
    z, r2 = kernels.pair_offsets(cloud.centers, cloud.centers, exclude_within=0.0)
    T = np.empty((n, 5, n, 5))
    for c in range(5):
        columns = kernels.stresslet_strain_kernel(cloud.mobilities[:, :, c].T, z, r2)
        for a, part in enumerate(columns):
            T[:, a, :, c] = part
    return T.reshape(5 * n, 5 * n)


def dense_fixed_point(cloud, A):
    """Direct solve of (I - T) total = ambient; oracle for `run_reflections`.

    T is the dense matrix of one reflection sweep. Guarded to 5N <= 5000
    unknowns. Raises on a singular system (outside the contraction regime).
    """
    n = cloud.n
    if 5 * n > 5000:
        raise ValueError(f"dense solve guarded to 5N <= 5000 (got N = {n})")
    A = np.asarray(A, dtype=float).reshape(5)
    I_minus_T = -pair_interaction_matrix(cloud)
    np.fill_diagonal(I_minus_T, 1.0)      # the diagonal blocks of T are zero
    rhs = np.tile(A, n)
    try:
        x = linalg.solve(I_minus_T, rhs)
    except linalg.LinAlgError as exc:
        raise linalg.LinAlgError(
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
    cloud = solution.cloud
    points = np.atleast_2d(np.asarray(points, dtype=float))
    A = np.asarray(A, dtype=float).reshape(5)
    u = points @ embed(A).T
    t, s, z = kernels.pairs_within(points, cloud.centers, cloud.a)
    inside = np.flatnonzero(np.einsum("ki,ki->k", z, z) < cloud.a ** 2 * (1.0 - 1e-12))
    if len(inside):
        raise KernelDomainError(
            f"evaluation point {t[inside[0]]} inside particle {s[inside[0]]}")
    if cloud.spherical:
        kernel = partial(kernels.sphere_disturbance_kernel, a=cloud.a)
        weights = solution.A_hat
    else:
        kernel = kernels.stresslet_velocity_kernel
        weights = np.einsum("mab,mb->ma", cloud.mobilities, solution.A_hat)
    return kernels.pair_sum(kernel, weights, points, cloud.centers, u)


def contraction_diagnostic(cloud, A, q=2.0, n_levels=5,
                           gate=EPS0_GATE_DEFAULT, force=False):
    """Per-sweep lq-norm ratios of consecutive strain levels.

    Returns n_levels ratios ||level_{k+1}||_q / ||level_k||_q; a vanishing
    level reports 0. These track the geometric contraction of the sweeps.
    """
    if n_levels < 2:
        raise ValueError("need at least 2 levels for a ratio")
    if q <= 1.0:
        raise ValueError("q must be > 1")
    _check_gate(cloud, gate, force)
    state = init_reflections(cloud, np.asarray(A, dtype=float).reshape(5))
    norms = [_level_norm(state.A_current, q)]
    for _ in range(n_levels):
        state = reflect_step(state)
        norms.append(_level_norm(state.A_current, q))
    return [0.0 if norms[k] == 0.0 else norms[k + 1] / norms[k]
            for k in range(n_levels)]


def solution_to_json(solution):
    return {
        "a_hat": [[float(v) for v in row] for row in solution.A_hat],
        "iterations": int(solution.iterations),
        "converged": bool(solution.converged),
        "residual": float(solution.residual),
        "norm_history": [float(v) for v in solution.norm_history],
    }


def solution_from_json(doc, cloud):
    return StressletSolution(
        cloud=cloud,
        A_hat=np.asarray(doc["a_hat"], dtype=float).reshape(-1, 5),
        iterations=int(doc["iterations"]),
        converged=bool(doc["converged"]),
        residual=float(doc["residual"]),
        norm_history=[float(v) for v in doc["norm_history"]],
    )


def save_solution(solution, path):
    text = json.dumps(solution_to_json(solution), indent=1, sort_keys=True,
                      allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def load_solution(path, cloud):
    with open(path) as fh:
        return solution_from_json(json.load(fh), cloud)


def convergence_table_to_csv(norm_history, path):
    """CSV of level norms and consecutive ratios, one row per sweep."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "level_norm", "ratio"])
        for k, v in enumerate(norm_history):
            ratio = "" if k == 0 else repr(
                0.0 if norm_history[k - 1] == 0.0 else v / norm_history[k - 1])
            writer.writerow([k, repr(float(v)), ratio])

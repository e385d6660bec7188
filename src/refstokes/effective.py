"""Homogenized side: coefficient fields, negative Sobolev distance, the
effective-medium velocity, and the dilute-limit work functional.

The particle cloud is coarse-grained into a matrix-valued coefficient field
(each ball deposits its strain-to-stresslet map, normalized by the ball
volume). Candidate effective media are compared against it in the
homogeneous H^{-1} norm, and drive a mean-field Stokes correction velocity
computed by convolution with the stresslet kernel. The excess dissipation of
the suspension is summarized by a dimensionless coefficient that equals 5/2
for spheres at first order in the volume fraction.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels
from .cloud import FIELD_EXCLUSION_FACTOR, validate
from .errors import GateError, GridMismatchError
from .fields import GridField
from .sym3 import frobenius, project_sym_tracefree

__all__ = [
    "assemble_MN",
    "EffectiveModel",
    "uniform_Meff",
    "hminus1_distance",
    "tilde_vc",
    "fixed_point_vc",
    "clear_kernel_cache",
    "einstein_work",
    "einstein_coefficient",
    "outside_balls",
    "lp_field_distance",
]

# rasterization: coverage of a boundary cell from _RASTER_SUB^3 midpoints
_RASTER_SUB = 8
# H^-1 quadrature: zero-padding factor, half-width in spectral cells of the
# refined near cube, and its subcells per spectral cell (even)
_HM1_PAD, _HM1_KMAX, _HM1_SUB = 2, 6, 6
# mean-field quadrature: source cells within _NEAR_FACTOR * max cell size are
# split into _NEAR_SUB^3 subcells; `tilde_vc` and the FFT kernels share both
_NEAR_FACTOR, _NEAR_SUB = 2.0, 4
# integral of 1/|xi|^2 over the unit cube, for the residual origin microcell
_C0_UNIT_CUBE = 7.674124


# ---------------------------------------------------------------------------
# coefficient fields


def _subcell_offsets(h, sub):
    """Midpoints of the sub^3 subcells of a cell of size h, relative to the
    cell centre, shape (sub^3, 3)."""
    t = (np.arange(sub) + 0.5) / sub - 0.5
    grids = np.meshgrid(t * h[0], t * h[1], t * h[2], indexing="ij")
    return np.stack(grids, axis=-1).reshape(-1, 3)


def assemble_MN(cloud, box, n):
    """Rasterize the per-ball coefficient density onto a grid.

    Each particle contributes its mobility scaled by 3/(4 pi a^3) on its own
    ball; boundary cells receive the covered fraction (estimated from
    _RASTER_SUB^3 midpoints per cell, on the cells `kernels.pairs_within`
    finds near each ball), so strictly interior cells carry the
    exact matrix and the total integral matches sum of mobilities to a
    fraction of a percent even when the balls are a few cells wide.
    """
    field = GridField.zeros(box, n, (5, 5))
    h = field.cell_size
    if cloud.n and np.max(h) > cloud.a / 2.0:
        warnings.warn(
            f"grid spacing {np.max(h):.3g} is coarser than a/2 = {cloud.a / 2:.3g}; "
            "rasterization is under-resolved", stacklevel=2)
    # every subcell midpoint lies within (7/16)|h| of its cell centre
    cells = field.cell_centers().reshape(-1, 3)
    t, s, _ = kernels.pairs_within(cells, cloud.centers,
                                   cloud.a + 0.5 * np.linalg.norm(h))
    cell, center = cells[t], cloud.centers[s]
    count = np.zeros(len(t))
    for offset in _subcell_offsets(h, _RASTER_SUB):
        rel = cell + offset - center
        count += np.einsum("...i,...i->...", rel, rel) <= cloud.a ** 2
    scale = 3.0 / (4.0 * np.pi * cloud.a ** 3)
    # pairs come sorted by (cell, particle): each cell sums in particle order
    np.add.at(field.values.reshape(-1, 5, 5), t,
              (scale * (count / _RASTER_SUB ** 3))[:, None, None] * cloud.mobilities[s])
    return field


@dataclass(frozen=True)
class EffectiveModel:
    """Candidate effective coefficient: a constant 5x5 matrix on a support
    box, zero outside it."""

    box: np.ndarray                  # support box K
    matrix: np.ndarray               # (5,5)

    def rasterize(self, box, n):
        """Sample the model on the requested grid (zero outside the support)."""
        out = GridField.zeros(box, n, (5, 5))
        centers = out.cell_centers()
        inside = np.all((centers >= self.box[0]) & (centers <= self.box[1]),
                        axis=-1)
        out.values[inside] = self.matrix
        return out

    def sup_norm(self):
        """Operator 2-norm of the coefficient matrix."""
        return float(np.linalg.norm(self.matrix, 2))


def uniform_Meff(box, phi, coefficient=5.0):
    """Uniform effective model c * phi * I on the box (the sphere weak limit
    has c = 5)."""
    if phi < 0:
        raise ValueError("phi must be nonnegative")
    return EffectiveModel(box=np.asarray(box, float),
                          matrix=coefficient * phi * np.eye(5))


# ---------------------------------------------------------------------------
# homogeneous H^{-1} distance


@functools.lru_cache(maxsize=1)
def _refined_weights(kmax):
    """Cell-integrated 1/|xi|^2 weights on the refined spectral subgrid.

    The near region is the cube of (2 kmax + 1)^3 spectral cells around the
    origin, split into subcells of width 1/_HM1_SUB (units of one spectral
    cell). The origin falls on a subcell corner, so no weight is singular: the 8
    corner-touching subcells get their exact integral (a quarter of the
    unit-cube constant), subcells nearby are subdivided, the rest use the
    midpoint value. Scale-invariant: multiply by the spectral cell width.
    """
    m = (2 * kmax + 1) * _HM1_SUB
    s = 1.0 / _HM1_SUB
    c1 = (np.arange(m) + 0.5) * s - (kmax + 0.5)
    CX, CY, CZ = np.meshgrid(c1, c1, c1, indexing="ij")
    r2 = CX ** 2 + CY ** 2 + CZ ** 2
    w = s ** 3 / r2
    # subdivide subcells within a couple of subcells of the origin
    mid = np.max(np.abs(np.stack([CX, CY, CZ], axis=-1)), axis=-1) < 2.6 * s
    t = ((np.arange(24) + 0.5) / 24 - 0.5) * s
    TX, TY, TZ = np.meshgrid(t, t, t, indexing="ij")
    for i, j, l in np.argwhere(mid):
        rr = (c1[i] + TX) ** 2 + (c1[j] + TY) ** 2 + (c1[l] + TZ) ** 2
        w[i, j, l] = np.mean(1.0 / rr) * s ** 3
    # the 8 subcells whose corner touches the origin, exactly
    corner = (np.abs(CX) < 0.6 * s) & (np.abs(CY) < 0.6 * s) & (np.abs(CZ) < 0.6 * s)
    w[corner] = (_C0_UNIT_CUBE / 4.0) * s
    w.setflags(write=False)
    return w


def hminus1_distance(f, g):
    """Componentwise homogeneous H^{-1} distance of two grid fields.

    Continuum convention (2 pi)^{-3} integral of |fourier(f-g)|^2/|xi|^2,
    approximated on the zero-padded DFT grid. The integrable 1/|xi|^2
    singularity is never point-evaluated: the cube of spectral cells around
    the origin (the zero mode included) is integrated against exact spectrum
    samples on a refined subgrid (zoom transform) with cell-integrated
    weights. The whole estimate is a fixed positive quadratic form of the
    field difference, so it is a genuine grid norm: symmetric, triangle
    inequality and translation invariance hold to rounding. Requires cubic
    cells.
    """
    if not f.same_grid(g):
        raise GridMismatchError("fields must share one grid")
    h = f.cell_size
    if not np.allclose(h, h[0], rtol=1e-12, atol=0.0):
        raise ValueError("the spectral quadrature requires cubic cells")
    n, dx, lo = f.n, float(h[0]), float(f.box[0][0])
    npad = n * _HM1_PAD
    kmax = min(_HM1_KMAX, npad // 2 - 1)
    if kmax < 1:
        raise ValueError("padded grid too small for the spectral quadrature")
    k1 = np.fft.fftfreq(npad, d=dx) * 2.0 * np.pi
    dxi = k1[1]
    k2 = k1[:, None, None] ** 2 + k1[None, :, None] ** 2 + k1[None, None, :] ** 2
    # the near cube around the origin is handled on the refined subgrid
    j1 = np.abs(np.rint(np.fft.fftfreq(npad) * npad).astype(int))
    nx = j1 <= kmax
    near = nx[:, None, None] & nx[None, :, None] & nx[None, None, :]
    k2[near] = np.inf
    # zoom transform: exact spectrum samples on the refined subgrid of the
    # near cube (keeps the whole estimate a positive quadratic form of the
    # field, so symmetry/triangle/translation hold to rounding)
    weights = _refined_weights(kmax)
    m = weights.shape[0]
    xi = ((np.arange(m) + 0.5) / _HM1_SUB - (kmax + 0.5)) * dxi
    x1 = lo + (np.arange(n) + 0.5) * dx
    E = np.exp(-1j * np.outer(xi, x1))
    diff = (f.values - g.values).reshape(n, n, n, -1)
    total = 0.0
    for c in range(diff.shape[-1]):
        arr = diff[..., c]
        if not arr.any():
            continue
        H = np.fft.fftn(arr, s=(npad,) * 3, axes=(0, 1, 2))
        far_sq = float(np.sum((H.real ** 2 + H.imag ** 2) / k2)) * dx ** 6 * dxi ** 3
        Z = np.tensordot(E, arr, axes=(1, 0))            # (m, n, n)
        Z = np.tensordot(E, Z, axes=(1, 1))              # (m_y, m_x, n)
        Z = np.tensordot(E, Z, axes=(1, 2))              # (m_z, m_y, m_x)
        Z = Z.transpose(2, 1, 0) * dx ** 3
        near_sq = float(np.sum((Z.real ** 2 + Z.imag ** 2) * weights)) * dxi
        total += far_sq + near_sq
    return float(np.sqrt(total / (2.0 * np.pi) ** 3))


# ---------------------------------------------------------------------------
# mean-field correction velocity


def _subcell_velocity(m, z, h):
    """Stresslet velocity at offsets z (K, 3) from the centres of near cells
    of size h, by the midpoint rule over the _NEAR_SUB^3 subcells of each
    cell. m holds the 5 coefficients of a whole cell, each a scalar or a
    (K, 1) array; a subcell centre within 1e-9 max(h) of its target is
    dropped."""
    w = np.asarray(m) / _NEAR_SUB ** 3
    out = np.zeros((len(z), 3))
    for delta in _subcell_offsets(h, _NEAR_SUB):
        zs, r2 = kernels.pair_offsets(z, delta[None],
                                      exclude_within=1e-9 * np.max(h))
        out += np.hstack(kernels.stresslet_velocity_kernel(w, zs, r2))
    return out


def tilde_vc(field, A, points):
    """Correction velocity of a coefficient field by direct quadrature.

    Evaluates the convolution of the per-cell sources coeff(A) with the
    stresslet kernel by the midpoint rule over source cells; cells closer
    than _NEAR_FACTOR * max cell size to an evaluation point are subdivided
    _NEAR_SUB^3 times (the kernel is degree -2, locally integrable). `field`
    is a rank-2 GridField.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.zeros((len(points), 3))
    S = np.einsum("xyzab,b->xyza", field.values, np.asarray(A, float).reshape(5))
    mask = np.any(S != 0.0, axis=-1)
    centers, S = field.cell_centers()[mask], S[mask]
    h = field.cell_size
    near = _NEAR_FACTOR * float(np.max(h))
    kernels.pair_sum(kernels.stresslet_velocity_kernel, field.cell_volume * S,
                     points, centers, out, exclude_within=near)
    # the near cells pair_sum skipped, subdivided
    pn, cn, zn = kernels.pairs_within(points, centers, near)
    weights = (field.cell_volume * S[cn]).T[..., None]
    np.add.at(out, pn, _subcell_velocity(weights, zn, h))
    return out


@functools.lru_cache(maxsize=1)
def _stresslet_cell_kernels(n, box):
    """rfft of the cell-averaged stresslet velocity kernels on the padded lag
    grid of the n^3 grid on box (a flat 6-tuple): [i, c] is velocity
    component i of one cell carrying unit coefficient c. Near lags are
    subdivided exactly as in `tilde_vc`. Only the last grid is kept."""
    h = (np.array(box[3:]) - np.array(box[:3])) / n
    m = 2 * n
    lag = np.where(np.arange(m) < n, np.arange(m), np.arange(m) - m)
    z = np.meshgrid(lag * h[0], lag * h[1], lag * h[2], indexing="ij")
    r2 = z[0] * z[0] + z[1] * z[1] + z[2] * z[2]
    near = r2 <= (_NEAR_FACTOR * float(np.max(h))) ** 2
    r2[near] = np.inf
    zn = np.stack([zi[near] for zi in z], axis=-1)
    khat = np.empty((3, 5, m, m, n + 1), dtype=complex)
    for c, unit in enumerate(np.prod(h) * np.eye(5)):
        kern = kernels.stresslet_velocity_kernel(unit, z, r2)
        close = _subcell_velocity(unit, zn, h)
        for i in range(3):
            kern[i][near] = close[:, i]
            khat[i, c] = np.fft.rfftn(kern[i])
    khat.setflags(write=False)
    return khat


clear_kernel_cache = _stresslet_cell_kernels.cache_clear


def _convolve_sources(sources, box, n):
    """FFT convolution of per-cell stresslet coefficients (n,n,n,5) with the
    cell-averaged kernels; returns the velocity on the same grid."""
    box = tuple(np.asarray(box, float).ravel().tolist())
    khat = _stresslet_cell_kernels(int(n), box)
    s = (2 * n,) * 3
    shat = [np.fft.rfftn(sources[..., c], s=s, axes=(0, 1, 2)) for c in range(5)]
    out = np.empty((n, n, n, 3))
    for i in range(3):
        acc = shat[0] * khat[i, 0]
        for c in range(1, 5):
            acc += shat[c] * khat[i, c]
        out[..., i] = np.fft.irfftn(acc, s=s, axes=(0, 1, 2))[:n, :n, :n]
    return out


def fixed_point_vc(model, A, box, n, tol=1e-8, max_iter=50):
    """Solve the effective-medium correction velocity by fixed-point iteration.

    Iterates v <- conv(coeff(D(v) + A)) on the grid, strains by centered
    differences, convolution by padded FFT with the cell-averaged stresslet
    kernel. The coefficient's sup norm must not exceed 1/8 (the contraction
    gate). The first iterate coincides with `tilde_vc` sampled on the grid.
    Returns (velocity GridField, log dict).
    """
    sup = model.sup_norm()
    if sup > 0.125 + 1e-12:
        raise GateError(f"sup-norm {sup:.3g} of the coefficient exceeds the 1/8 gate")
    raster = model.rasterize(box, n)
    A = np.asarray(A, dtype=float).reshape(5)
    h = raster.cell_size
    vol = raster.cell_volume
    v = np.zeros((n, n, n, 3))
    increments = []
    converged = False
    for _ in range(max_iter):
        if increments:
            grads = np.gradient(v, *h, axis=(0, 1, 2))
            gmat = np.stack(grads, axis=-1)          # [..., i, j] = dv_i/dx_j
            strain = project_sym_tracefree(gmat)
        else:
            strain = np.zeros((n, n, n, 5))
        rhs = np.einsum("xyzab,xyzb->xyza", raster.values, strain + A)
        v_new = _convolve_sources(rhs, box, n)
        inc = float(np.sqrt(np.sum((v_new - v) ** 2) * vol))
        increments.append(inc)
        v = v_new
        if inc <= tol:
            converged = True
            break
    log = {"increments": increments, "iterations": len(increments),
           "converged": converged}
    return GridField(box=np.asarray(box, float), n=n, values=v), log


# ---------------------------------------------------------------------------
# dilute-limit work functional


def einstein_work(cloud, A, strains):
    """First-order excess rate of work of the suspension, per unit viscosity.

    sum_l < mobility_l(strains_l), A >_F; with sphere mobilities and strains
    equal to the ambient A this is N (20 pi/3) a^3 A:A.
    """
    A = np.asarray(A, dtype=float).reshape(5)
    strains = np.asarray(strains, dtype=float).reshape(cloud.n, 5)
    moments = np.einsum("lab,lb->la", cloud.mobilities, strains)
    return float(np.sum(moments @ A))


def einstein_coefficient(cloud, A, strains):
    """Excess work of the per-particle strains (N, 5) normalized by
    2 mu A:A |K| phi (mu cancels, so none is taken).

    The ambient strain on every particle gives the first-order coefficient
    (exactly 5/2 for spheres); the reflected strains give the converged one.
    """
    phi = validate(cloud).phi_global
    if phi <= 0.0:
        raise ValueError("einstein coefficient undefined at zero volume fraction")
    A = np.asarray(A, dtype=float).reshape(5)
    work = einstein_work(cloud, A, strains)
    return work / (2.0 * frobenius(A, A) * cloud.box_volume * phi)


# ---------------------------------------------------------------------------
# local Lp comparison


def outside_balls(points, cloud):
    """Mask of the points farther than FIELD_EXCLUSION_FACTOR * a from every
    particle centre (a point at exactly that distance is excluded)."""
    keep = np.ones(len(points), dtype=bool)
    keep[kernels.pairs_within(points, cloud.centers, FIELD_EXCLUSION_FACTOR * cloud.a)[0]] = False
    return keep


def lp_field_distance(u, v, p, cell_volume):
    """Midpoint-rule Lp distance of two vector fields sampled at cell centres
    (arrays (P, k)), each sample weighted by the cell volume. p is
    restricted to [1, 3/2), the local integrability range of the stresslet
    kernel.
    """
    if not (1.0 <= p < 1.5):
        raise ValueError(f"p must lie in [1, 3/2), got {p}")
    du = np.asarray(u, dtype=float) - np.asarray(v, dtype=float)
    mags = np.sqrt(np.einsum("pi,pi->p", du, du))
    return (float(np.sum(mags ** p)) * cell_volume) ** (1.0 / p)

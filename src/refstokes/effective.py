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

import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels
from .cloud import FIELD_EXCLUSION_FACTOR, validate
from .errors import GateError, GridMismatchError
from .fields import GridField
from .reflections import run_reflections
from .sym3 import embed, frobenius, project_sym_tracefree

__all__ = [
    "assemble_MN",
    "EffectiveModel",
    "uniform_Meff",
    "model_from_cloud",
    "model_from_grid",
    "hminus1_distance",
    "tilde_vc",
    "fixed_point_vc",
    "clear_kernel_cache",
    "einstein_work",
    "einstein_coefficient",
    "ExclusionRegion",
    "lp_field_distance",
]

_C38 = 3.0 / (8.0 * np.pi)
# integral of 1/|xi|^2 over the unit cube, for the residual origin microcell
_C0_UNIT_CUBE = 7.674124


# ---------------------------------------------------------------------------
# coefficient fields


def assemble_MN(cloud, box, n, subsample=8):
    """Rasterize the per-ball coefficient density onto a grid.

    Each particle contributes its mobility scaled by 3/(4 pi a^3) on its own
    ball; boundary cells receive the covered fraction (estimated from
    subsample^3 midpoints per cell), so strictly interior cells carry the
    exact matrix and the total integral matches sum of mobilities to a
    fraction of a percent even when the balls are a few cells wide.
    """
    field = GridField.zeros(box, n, (5, 5))
    h = field.cell_size
    if cloud.n and np.max(h) > cloud.a / 2.0:
        warnings.warn(
            f"grid spacing {np.max(h):.3g} is coarser than a/2 = {cloud.a / 2:.3g}; "
            "rasterization is under-resolved", stacklevel=2)
    axes = field.axes()
    t = (np.arange(subsample) + 0.5) / subsample - 0.5
    sx, sy, sz = np.meshgrid(t * h[0], t * h[1], t * h[2], indexing="ij")
    offsets = np.stack([sx, sy, sz], axis=-1).reshape(-1, 3)
    scale = 3.0 / (4.0 * np.pi * cloud.a ** 3)
    values = field.values
    for center, mob in zip(cloud.centers, cloud.mobilities):
        ranges = []
        for k in range(3):
            lo = int(np.floor((center[k] - cloud.a - field.box[0][k]) / h[k] - 0.5))
            hi = int(np.ceil((center[k] + cloud.a - field.box[0][k]) / h[k] + 0.5))
            ranges.append((max(lo, 0), min(hi + 1, n)))
        (i0, i1), (j0, j1), (k0, k1) = ranges
        if i0 >= i1 or j0 >= j1 or k0 >= k1:
            continue
        cx, cy, cz = np.meshgrid(axes[0][i0:i1], axes[1][j0:j1], axes[2][k0:k1],
                                 indexing="ij")
        cells = np.stack([cx, cy, cz], axis=-1)
        rel = cells[..., None, :] + offsets - center
        inside = np.einsum("...i,...i->...", rel, rel) <= cloud.a ** 2
        coverage = inside.mean(axis=-1)
        values[i0:i1, j0:j1, k0:k1] += (scale * coverage)[..., None, None] * mob
    return field


@dataclass(frozen=True)
class EffectiveModel:
    """Candidate effective coefficient: a 5x5 matrix field supported in a box.

    kinds: "uniform" (constant matrix on the support box), "from_cloud"
    (rasterized cloud coefficient), "custom_grid" (user-supplied field).
    """

    kind: str
    box: np.ndarray                  # support box K
    matrix: np.ndarray = None        # (5,5), uniform kind only
    field: GridField = None          # grid kinds only

    def rasterize(self, box, n):
        """Sample the model on the requested grid (zero outside the support)."""
        if self.kind == "uniform":
            out = GridField.zeros(box, n, (5, 5))
            centers = out.cell_centers()
            inside = np.all((centers >= self.box[0]) & (centers <= self.box[1]),
                            axis=-1)
            out.values[inside] = self.matrix
            return out
        if self.field.n != int(n) or not np.array_equal(
                self.field.box, np.asarray(box, float)):
            raise GridMismatchError(
                "grid-backed effective model can only be sampled on its own grid")
        return self.field

    def sup_norm(self):
        """Max over cells of the operator 2-norm of the coefficient matrix."""
        if self.kind == "uniform":
            return float(np.linalg.norm(self.matrix, 2))
        mats = self.field.values.reshape(-1, 5, 5)
        return float(np.linalg.norm(mats, 2, axis=(1, 2)).max(initial=0.0))


def uniform_Meff(box, phi, coefficient=5.0):
    """Uniform effective model c * phi * I on the box (the sphere weak limit
    has c = 5)."""
    if phi < 0:
        raise ValueError("phi must be nonnegative")
    return EffectiveModel(kind="uniform", box=np.asarray(box, float),
                          matrix=coefficient * phi * np.eye(5))


def model_from_cloud(cloud, box, n, subsample=8):
    return EffectiveModel(kind="from_cloud", box=np.asarray(cloud.box, float),
                          field=assemble_MN(cloud, box, n, subsample=subsample))


def model_from_grid(field, support_box=None):
    box = field.box if support_box is None else np.asarray(support_box, float)
    return EffectiveModel(kind="custom_grid", box=box, field=field)


# ---------------------------------------------------------------------------
# homogeneous H^{-1} distance


_REFINED_WEIGHT_CACHE = {}


def _refined_weights(kmax, sub):
    """Cell-integrated 1/|xi|^2 weights on the refined spectral subgrid.

    The near region is the cube of (2 kmax + 1)^3 spectral cells around the
    origin, split into subcells of width 1/sub (units of one spectral cell).
    The origin falls on a subcell corner, so no weight is singular: the 8
    corner-touching subcells get their exact integral (a quarter of the
    unit-cube constant), subcells nearby are subdivided, the rest use the
    midpoint value. Scale-invariant: multiply by the spectral cell width.
    """
    if sub % 2:
        raise ValueError("sub must be even so the origin falls on subcell corners")
    key = (kmax, sub)
    if key in _REFINED_WEIGHT_CACHE:
        return _REFINED_WEIGHT_CACHE[key]
    m = (2 * kmax + 1) * sub
    s = 1.0 / sub
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
    _REFINED_WEIGHT_CACHE[key] = w
    return w


def _hm1_component_sq(arr, lo, dx, pad, kmax, sub):
    n = arr.shape[0]
    npad = n * pad
    kmax = min(kmax, npad // 2 - 1)
    if kmax < 1:
        raise ValueError("padded grid too small for the spectral quadrature")
    H = np.fft.fftn(arr, s=(npad,) * 3, axes=(0, 1, 2))
    k1 = np.fft.fftfreq(npad, d=dx) * 2.0 * np.pi
    dxi = k1[1]
    KX, KY, KZ = np.meshgrid(k1, k1, k1, indexing="ij")
    k2 = KX ** 2 + KY ** 2 + KZ ** 2
    # the near cube around the origin is handled on the refined subgrid
    j1 = np.abs(np.rint(np.fft.fftfreq(npad) * npad).astype(int))
    nx = j1 <= kmax
    near = nx[:, None, None] & nx[None, :, None] & nx[None, None, :]
    k2[near] = np.inf
    total = float(np.sum((H.real ** 2 + H.imag ** 2) / k2)) * dx ** 6 * dxi ** 3

    # zoom transform: exact spectrum samples on the refined subgrid of the
    # near cube (keeps the whole estimate a positive quadratic form of the
    # field, so symmetry/triangle/translation hold to rounding)
    weights = _refined_weights(kmax, sub)
    m = weights.shape[0]
    xi = ((np.arange(m) + 0.5) / sub - (kmax + 0.5)) * dxi
    x1 = lo + (np.arange(n) + 0.5) * dx
    E = np.exp(-1j * np.outer(xi, x1))
    Z = np.tensordot(E, arr, axes=(1, 0))            # (m, n, n)
    Z = np.tensordot(E, Z, axes=(1, 1))              # (m_y, m_x, n)
    Z = np.tensordot(E, Z, axes=(1, 2))              # (m_z, m_y, m_x)
    Z = Z.transpose(2, 1, 0) * dx ** 3
    near_sq = float(np.sum((Z.real ** 2 + Z.imag ** 2) * weights)) * dxi
    return total + near_sq


def hminus1_distance(f, g, pad=2, kmax=6, sub=6):
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
    if pad < 1:
        raise ValueError("pad must be >= 1")
    diff = (f.values - g.values).reshape(f.n, f.n, f.n, -1)
    total = 0.0
    for c in range(diff.shape[-1]):
        comp = diff[..., c]
        if not comp.any():
            continue
        total += _hm1_component_sq(comp, float(f.box[0][0]), float(h[0]),
                                   pad, kmax, sub)
    return float(np.sqrt(total / (2.0 * np.pi) ** 3))


# ---------------------------------------------------------------------------
# mean-field correction velocity


def tilde_vc(field, A, points, near_factor=2.0, sub=4):
    """Correction velocity of a coefficient field by direct quadrature.

    Evaluates the convolution of the per-cell sources coeff(A) with the
    stresslet kernel by the midpoint rule over source cells; cells closer
    than near_factor * max cell size to an evaluation point are subdivided
    sub^3 times (the kernel is degree -2, locally integrable). Accepts a
    rank-2 GridField or a grid-backed EffectiveModel (rasterize a uniform
    model first to pick its resolution).
    """
    if isinstance(field, EffectiveModel):
        if field.field is None:
            raise ValueError(
                "uniform effective model carries no grid; rasterize it first")
        field = field.field
    points = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.zeros((len(points), 3))
    S = np.einsum("xyzab,b->xyza", field.values, np.asarray(A, float).reshape(5))
    mask = np.any(S != 0.0, axis=-1)
    centers, S = field.cell_centers()[mask], S[mask]
    h = field.cell_size
    near = near_factor * float(np.max(h))
    kernels.pair_sum(kernels.stresslet_velocity_kernel, field.cell_volume * S,
                     points, centers, out, exclude_within=near)
    # the near cells pair_sum skipped, subdivided sub^3 times; one offset at a time
    pn, cn, zn = kernels.pairs_within(points, centers, near)
    t = (np.arange(sub) + 0.5) / sub - 0.5
    ox, oy, oz = np.meshgrid(t * h[0], t * h[1], t * h[2], indexing="ij")
    deltas = np.stack([ox, oy, oz], axis=-1).reshape(-1, 3)
    weights = ((field.cell_volume / sub ** 3) * S[cn]).T[..., None]
    near_sum = np.zeros((len(pn), 3))
    for delta in deltas:
        z, r2 = kernels.pair_offsets(zn, delta[None], exclude_within=1e-9 * np.max(h))
        near_sum += np.hstack(kernels.stresslet_velocity_kernel(weights, z, r2))
    np.add.at(out, pn, near_sum)
    return out


_KERNEL_CACHE = {}


def clear_kernel_cache():
    _KERNEL_CACHE.clear()


def _stresslet_cell_kernels(box, n, near_factor, sub):
    """rfft of the 18 cell-averaged stresslet kernels K_ijk on the padded
    lag grid (j <= k pairs; the near lags are subdivided like `tilde_vc`)."""
    box = np.asarray(box, float)
    key = (n, box.tobytes(), near_factor, sub)
    if key in _KERNEL_CACHE:
        return _KERNEL_CACHE[key]
    h = (box[1] - box[0]) / n
    vol = float(np.prod(h))
    m = 2 * n
    lag = np.where(np.arange(m) < n, np.arange(m), np.arange(m) - m)
    zx, zy, zz = np.meshgrid(lag * h[0], lag * h[1], lag * h[2], indexing="ij")
    z = np.stack([zx, zy, zz], axis=-1)
    r2 = np.einsum("...i,...i->...", z, z)
    near = r2 <= (near_factor * float(np.max(h))) ** 2
    rr = np.where(near, 1.0, r2)
    r5 = rr * rr * np.sqrt(rr)
    pairs = [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)]
    kern = np.empty((3, 6, m, m, m))
    for i in range(3):
        for p, (j, k) in enumerate(pairs):
            kern[i, p] = np.where(near, 0.0,
                                  -_C38 * vol * z[..., i] * z[..., j] * z[..., k] / r5)
    # subdivided near lags
    t = (np.arange(sub) + 0.5) / sub - 0.5
    ox, oy, oz = np.meshgrid(t * h[0], t * h[1], t * h[2], indexing="ij")
    deltas = np.stack([ox, oy, oz], axis=-1).reshape(-1, 3)
    idx = np.argwhere(near)
    zn = z[near]
    zs = zn[:, None, :] - deltas[None, :, :]
    rs2 = np.einsum("ksi,ksi->ks", zs, zs)
    good = rs2 > (1e-9 * np.max(h)) ** 2
    rr = np.where(good, rs2, 1.0)
    rs5 = rr * rr * np.sqrt(rr)
    for i in range(3):
        for p, (j, k) in enumerate(pairs):
            w = np.where(good, zs[..., i] * zs[..., j] * zs[..., k] / rs5, 0.0)
            kern[i, p][tuple(idx.T)] = -_C38 * (vol / sub ** 3) * np.sum(w, axis=1)
    khat = np.stack([[np.fft.rfftn(kern[i, p]) for p in range(6)] for i in range(3)])
    _KERNEL_CACHE[key] = khat
    return khat


def _convolve_sources(field_values_sym, box, n, near_factor=2.0, sub=4):
    """FFT convolution of a symmetric per-cell source field (n,n,n,3,3) with
    the stresslet kernel; returns the velocity on the same grid."""
    khat = _stresslet_cell_kernels(box, n, near_factor, sub)
    m = 2 * n
    pairs = [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)]
    weights = [1.0, 1.0, 1.0, 2.0, 2.0, 2.0]
    shat = [np.fft.rfftn(field_values_sym[..., j, k], s=(m, m, m), axes=(0, 1, 2))
            for (j, k) in pairs]
    out = np.empty((n, n, n, 3))
    for i in range(3):
        acc = np.zeros_like(shat[0])
        for p in range(6):
            acc += weights[p] * shat[p] * khat[i, p]
        out[..., i] = np.fft.irfftn(acc, s=(m, m, m), axes=(0, 1, 2))[:n, :n, :n]
    return out


def fixed_point_vc(model, A, box, n, tol=1e-8, max_iter=50,
                   near_factor=2.0, sub=4):
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
        v_new = _convolve_sources(embed(rhs), box, n, near_factor, sub)
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


def einstein_work(cloud, A, strains, mu=1.0):
    """First-order excess rate of work of the suspension.

    mu * sum_l < mobility_l(strains_l), A >_F; with sphere mobilities and
    strains equal to the ambient A this is mu N (20 pi/3) a^3 A:A.
    """
    A = np.asarray(A, dtype=float).reshape(5)
    strains = np.asarray(strains, dtype=float).reshape(cloud.n, 5)
    moments = np.einsum("lab,lb->la", cloud.mobilities, strains)
    return float(mu * np.sum(moments @ A))


def einstein_coefficient(cloud, A, order="first", mu=1.0, solver_kwargs=None):
    """Excess work normalized by 2 mu A:A |K| phi.

    order="first" uses the ambient strain on every particle (exactly 5/2 for
    spheres); order="converged" uses the reflected strains.
    """
    if order not in ("first", "converged"):
        raise ValueError(f"unknown order {order!r}")
    stats = validate(cloud)
    if stats.phi_global <= 0.0:
        raise ValueError("einstein coefficient undefined at zero volume fraction")
    A = np.asarray(A, dtype=float).reshape(5)
    if order == "first":
        strains = np.tile(A, (cloud.n, 1))
    else:
        strains = run_reflections(cloud, A, **(solver_kwargs or {})).A_hat
    work = einstein_work(cloud, A, strains, mu=mu)
    denom = 2.0 * mu * frobenius(A, A) * cloud.box_volume * stats.phi_global
    return work / denom


# ---------------------------------------------------------------------------
# local Lp comparison


@dataclass(frozen=True)
class ExclusionRegion:
    """Axis-aligned box minus a union of balls around particle centers.

    A point is kept when it lies in the closed box and its squared distance
    to every center exceeds radius^2.
    """

    box: np.ndarray
    centers: np.ndarray = None
    radius: float = 0.0

    def contains(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        box = np.asarray(self.box, dtype=float)
        mask = np.all((points >= box[0]) & (points <= box[1]), axis=-1)
        if self.centers is not None and len(self.centers) and self.radius > 0:
            mask[kernels.pairs_within(points, self.centers, self.radius)[0]] = False
        return mask


def exclusion_region_for_cloud(cloud, box=None, factor=FIELD_EXCLUSION_FACTOR):
    return ExclusionRegion(box=np.asarray(cloud.box if box is None else box, float),
                           centers=cloud.centers, radius=factor * cloud.a)


def lp_field_distance(u_sampler, v_sampler, region, p, box, n):
    """Midpoint-rule Lp distance of two point-sampled fields over a region.

    Samples both fields at the centers of the n^3 cells of `box` that lie in
    `region` (excluded balls are skipped entirely). p is restricted to
    [1, 3/2), the local integrability range of the stresslet kernel.
    """
    if not (1.0 <= p < 1.5):
        raise ValueError(f"p must lie in [1, 3/2), got {p}")
    box = np.asarray(box, dtype=float)
    h = (box[1] - box[0]) / n
    vol = float(np.prod(h))
    axes = [box[0][k] + (np.arange(n) + 0.5) * h[k] for k in range(3)]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([gx, gy, gz], axis=-1).reshape(-1, 3)
    pts = pts[region.contains(pts)]
    du = np.asarray(u_sampler(pts)) - np.asarray(v_sampler(pts))
    if du.ndim == 1:
        mags = np.abs(du)
    else:
        mags = np.sqrt(np.einsum("pi,pi->p", du, du))
    total = float(np.sum(mags ** p)) * vol
    return total ** (1.0 / p)

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
from .cloud import FIELD_EXCLUSION_FACTOR, _as_points, validate
from .errors import GateError, GridMismatchError
from .fields import GridField
from .sym3 import apply_mobility, frobenius, project_sym_tracefree, sym_from_list, sym_matrix

__all__ = [
    "assemble_MN",
    "EffectiveModel",
    "uniform_Meff",
    "hminus1_distance",
    "sphere_hminus1_distance",
    "tilde_vc",
    "fixed_point_vc",
    "clear_kernel_cache",
    "einstein_coefficient",
    "outside_balls",
    "lp_field_distance",
]

# rasterization: coverage of a boundary cell from _RASTER_SUB^3 midpoints
_RASTER_SUB = 8
# H^-1 quadrature: zero-padding factor, half-width in spectral cells of the
# refined near cube, and its subcells per spectral cell (even)
_HM1_PAD, _HM1_KMAX, _HM1_SUB = 2, 6, 6
# mean-field quadrature: the near-cell rule of `_near_radius`, _NEAR_SUB^3 subcells
_NEAR_FACTOR, _NEAR_SUB = 2.0, 4
# integral of 1/|xi|^2 over the unit cube, for the residual origin microcell
_C0_UNIT_CUBE = 7.674124


# ---------------------------------------------------------------------------
# coefficient fields


def _subcell_planes(h, sub):
    """Per axis, the midpoint coordinates of the sub subcells of a cell of
    size h, relative to the cell centre, shape (3, sub)."""
    return ((np.arange(sub) + 0.5) / sub - 0.5) * h[:, None]


def _subcell_offsets(h, sub):
    """Midpoints of the sub^3 subcells of a cell of size h, relative to the
    cell centre, shape (sub^3, 3)."""
    grids = np.meshgrid(*_subcell_planes(h, sub), indexing="ij")
    return np.stack(grids, axis=-1).reshape(-1, 3)


def _coverage(cloud, field):
    """(flat cell, particle, weight) of the cells `kernels.pairs_within` finds
    near each ball, sorted by (cell, particle); weight is 3/(4 pi a^3) times
    the fraction of the cell's _RASTER_SUB^3 subcell midpoints in the ball."""
    h = field.cell_size
    if cloud.n and np.max(h) > cloud.a / 2.0:
        warnings.warn(
            f"grid spacing {np.max(h):.3g} is coarser than a/2 = {cloud.a / 2:.3g}; "
            "rasterization is under-resolved", stacklevel=3)
    # every subcell midpoint lies within (7/16)|h| of its cell centre
    cells = field.cell_centers().reshape(-1, 3)
    t, s, _ = kernels.pairs_within(cells, cloud.centers,
                                   cloud.a + 0.5 * np.linalg.norm(h))
    cell, center = cells[t], cloud.centers[s]
    # per axis, the squared offsets of the midpoint planes from the ball's
    # centre, (pairs, 3, sub); the squares add in the order x, y, z
    planes = _subcell_planes(h, _RASTER_SUB)
    count = np.empty(len(t))
    for rows in kernels.row_blocks(len(t), _RASTER_SUB ** 3):
        d = ((cell[rows, :, None] + planes) - center[rows, :, None]) ** 2
        r2 = d[:, 0, :, None, None] + d[:, 1, None, :, None] + d[:, 2, None, None, :]
        count[rows] = np.count_nonzero((r2 <= cloud.a ** 2).reshape(-1, _RASTER_SUB ** 3),
                                       axis=1)
    scale = 3.0 / (4.0 * np.pi * cloud.a ** 3)
    return t, s, scale * (count / _RASTER_SUB ** 3)


def assemble_MN(cloud, box, n):
    """Rasterize the per-ball coefficient density onto an (n, n, n, 5, 5) grid:
    each mobility times 3/(4 pi a^3) on its ball, boundary cells times their
    covered fraction (`_coverage`), so strictly interior cells carry the exact
    matrix and the total integral matches the sum of mobilities to a fraction
    of a percent even when the balls are a few cells wide."""
    field = GridField.zeros(box, n, (5, 5))
    t, s, weight = _coverage(cloud, field)
    # pairs come sorted by (cell, particle): each cell sums in particle order
    np.add.at(field.values.reshape(-1, 5, 5), t, weight[:, None, None] * cloud.mobilities[s])
    return field


@dataclass(frozen=True)
class EffectiveModel:
    """Candidate effective coefficient: a constant 5x5 matrix on a support
    box, zero outside it."""

    box: np.ndarray                  # support box K
    matrix: np.ndarray               # (5,5)

    def __post_init__(self):
        object.__setattr__(self, "box", kernels.check_box(self.box))
        if np.shape(self.matrix) != (5, 5) or not np.isfinite(self.matrix).all():
            raise ValueError("matrix must be a finite 5x5 array")

    def support(self, grid):
        """Per-axis slices of the block of cells of `grid` (a GridField) whose
        centres lie in the closed support box. Cell centres increase along
        each axis, so those cells form one block; a slice is empty (stop <=
        start) when no centre on its axis lies in the box."""
        return tuple(slice(int(np.searchsorted(ax, lo, "left")),
                           int(np.searchsorted(ax, hi, "right")))
                     for ax, lo, hi in zip(grid.axes(), self.box[0], self.box[1]))

    def rasterize(self, box, n):
        """Sample the model on the requested grid: the matrix on its
        `support` block, written by slices, zero elsewhere."""
        out = GridField.zeros(box, n, (5, 5))
        out.values[self.support(out)] = self.matrix
        return out

    def sup_norm(self):
        """Operator 2-norm of the coefficient matrix."""
        return float(np.linalg.norm(self.matrix, 2))


def uniform_Meff(box, phi, coefficient=5.0):
    """Uniform effective model c * phi * I on the box (the sphere weak limit
    has c = 5)."""
    if not 0 <= phi < np.inf:
        raise ValueError("phi must be nonnegative and finite")
    return EffectiveModel(box=box, matrix=coefficient * phi * np.eye(5))


# ---------------------------------------------------------------------------
# homogeneous H^{-1} distance


@functools.lru_cache(maxsize=1)
def _near_origin_weights(kmax):
    """The block of `_refined_weights` subcells within 2.6 subcells of the
    origin (one slice for every axis) and their weights: means over 24^3
    points, exact (a quarter of the unit-cube constant) on the 8 corner ones."""
    s = 1.0 / _HM1_SUB
    c1 = (np.arange((2 * kmax + 1) * _HM1_SUB) + 0.5) * s - (kmax + 0.5)
    near = np.flatnonzero(np.abs(c1) < 2.6 * s)
    row = (c1[near, None] + ((np.arange(24) + 0.5) / 24 - 0.5) * s) ** 2
    w = np.empty((len(near),) * 3)
    for i, j, l in np.ndindex(w.shape):
        rr = row[i][:, None, None] + row[j][None, :, None] + row[l][None, None, :]
        w[i, j, l] = np.mean(1.0 / rr) * s ** 3
    c = np.abs(c1[near]) < 0.6 * s
    w[c[:, None, None] & c[None, :, None] & c[None, None, :]] = (_C0_UNIT_CUBE / 4.0) * s
    w.setflags(write=False)
    return slice(int(near[0]), int(near[-1]) + 1), w


def _refined_weights(kmax, rows=slice(None)):
    """Cell-integrated 1/|xi|^2 weights on the refined spectral subgrid, [x, y, z]
    for the z indices in `rows` (all by default), laid out (z, y, x).

    The near region is the cube of (2 kmax + 1)^3 spectral cells around the
    origin, split into subcells of width 1/_HM1_SUB (units of one spectral
    cell). The origin falls on a subcell corner, so no weight is singular: the
    subcells near it take `_near_origin_weights`, the rest the midpoint value.
    Scale-invariant: multiply by the spectral cell width.
    """
    m = (2 * kmax + 1) * _HM1_SUB
    s = 1.0 / _HM1_SUB
    c2 = ((np.arange(m) + 0.5) * s - (kmax + 0.5)) ** 2
    w = s ** 3 / ((c2[None, :] + c2[:, None]) + c2[rows, None, None])    # [z, y, x]
    near, block = _near_origin_weights(kmax)
    z = np.arange(m)[rows] - near.start
    inside = (z >= 0) & (z < block.shape[2])
    w[inside, near, near] = block.T[z[inside]]
    return w.T


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
    cells. The difference is formed afresh one component at a time. Each of
    its two sums reads one real array filled over `kernels.row_blocks` slabs,
    with bits that do not depend on their size: the far one from the n padded
    planes of the transform on axes 2 and 1, the zoom one from a slab of its
    last contraction and of the weights. The zoom transform of a component
    runs over the bounding block of its nonzero cells. A nonzero component
    whose inputs in both fields equal an earlier integrated one's (the
    diagonal of a sphere field against c phi I, the (b, a) twin of a
    symmetric (a, b)) adds that sum again; only (component, sum) pairs stay.
    """
    if not f.same_grid(g) or f.values.shape != g.values.shape:
        raise GridMismatchError("fields must share one grid and component shape")
    h = f.cell_size
    if not np.allclose(h, h[0], rtol=1e-12, atol=0.0):
        raise ValueError("the spectral quadrature requires cubic cells")
    n, dx = f.n, float(h[0])
    npad = n * _HM1_PAD
    kmax = min(_HM1_KMAX, npad // 2 - 1)
    if kmax < 1:
        raise ValueError("padded grid too small for the spectral quadrature")
    k1 = np.fft.fftfreq(npad, d=dx) * 2.0 * np.pi
    dxi = k1[1]
    # the near cube around the origin is handled on the refined subgrid
    nx = np.abs(np.rint(np.fft.fftfreq(npad) * npad).astype(int)) <= kmax
    # zoom transform: exact spectrum samples on the refined subgrid of the
    # near cube (keeps the whole estimate a positive quadratic form of the
    # field, so symmetry/triangle/translation hold to rounding)
    m = (2 * kmax + 1) * _HM1_SUB
    xi = ((np.arange(m) + 0.5) / _HM1_SUB - (kmax + 0.5)) * dxi
    E = np.exp(-1j * np.outer(xi, f.axes()[0]))
    fv, gv = f.values.reshape(n, n, n, -1), g.values.reshape(n, n, n, -1)
    total, done = 0.0, []                    # (an integrated component, its far + near sum)
    for c in range(fv.shape[-1]):
        arr = fv[..., c] - gv[..., c]
        if not arr.any():
            continue
        sq = next((v for d, v in done if np.array_equal(fv[..., d], fv[..., c])
                   and np.array_equal(gv[..., d], gv[..., c])), None)
        if sq is None:
            # axes 2 and 1, then axis 0 over slabs of axis 1 (fftn's order and
            # bits), each slab squared and over |xi|^2, inf on the near cube
            H = np.fft.fftn(arr, s=(npad, npad), axes=(1, 2))
            t = np.empty((npad,) * 3)
            for rows in kernels.row_blocks(npad, npad * npad):
                G = np.fft.fft(H[:, rows], n=npad, axis=0)
                k2 = k1[:, None, None] ** 2 + k1[None, rows, None] ** 2 + k1[None, None, :] ** 2
                k2[nx[:, None, None] & nx[None, rows, None] & nx[None, None, :]] = np.inf
                np.divide(np.square(G.real) + np.square(G.imag), k2, out=t[:, rows])
            del H, G, k2                     # freed before the zoom
            far_sq = float(np.sum(t)) * dx ** 6 * dxi ** 3
            del t
            # the zoom sums run over the component's nonzero block only: the
            # columns of E it drops would multiply exact zeros
            cx, cy, cz = _nonzero_block(arr)
            Z = np.tensordot(E[:, cx], arr[cx, cy, cz], axes=(1, 0))   # (m, ., .)
            Z = np.tensordot(E[:, cy], Z, axes=(1, 1))               # (m_y, m_x, .)
            # the last contraction over slabs of whole pairs of xi_z rows (m is
            # even; one row would go to gemv, which rounds otherwise than gemm),
            # weighted into t laid out (z, y, x)
            t = np.empty((m, m, m))
            for half in kernels.row_blocks(m // 2, 2 * m * m):
                rows = slice(2 * half.start, 2 * half.stop)
                S = np.tensordot(E[rows, cz], Z, axes=(1, 2)) * dx ** 3   # (., m_y, m_x)
                np.multiply(np.square(S.real) + np.square(S.imag),
                            _refined_weights(kmax, rows).T, out=t[rows])
            sq = far_sq + float(np.sum(t)) * dxi
            del t
            done.append((c, sq))
        total += sq
    return float(np.sqrt(total / (2.0 * np.pi) ** 3))


def sphere_hminus1_distance(cloud, model, box, n):
    """`hminus1_distance(assemble_MN(cloud, box, n), model.rasterize(box, n))`
    of a sphere cloud and a model c I without (n, n, n, 5, 5) fields: both are
    a scalar field times I, so it is sqrt(5) times the distance of the scalar
    fields, the cloud's summed over the `_coverage` pairs as in `assemble_MN`."""
    matrix = np.asarray(model.matrix, dtype=float)
    if not (cloud.spherical and np.array_equal(matrix, matrix[0, 0] * np.eye(5))):
        raise ValueError("the scalar H^-1 distance needs a sphere cloud and a model c I")
    f, g = GridField.zeros(box, n), GridField.zeros(box, n)
    t, s, weight = _coverage(cloud, f)
    np.add.at(f.values.reshape(-1), t, weight * cloud.mobilities[s, 0, 0])
    g.values[model.support(g)] = matrix[0, 0]
    return float(np.sqrt(5.0) * hminus1_distance(f, g))


# ---------------------------------------------------------------------------
# mean-field correction velocity


def _near_radius(h):
    """The near-cell rule of `tilde_vc` and the FFT kernel fill: subdivide the
    source cells within _NEAR_FACTOR * max(h), widened by the relative margin
    of `kernels.pairs_within` so that rounding never moves a lattice cell across."""
    return _NEAR_FACTOR * float(np.max(h)) * (1.0 + 1e-9)


def _subcell_velocity(m, z, h, offsets):
    """Stresslet velocity at offsets z (K, 3) from the centres of near cells
    of size h, by the midpoint rule over the subcell `offsets` of each cell
    (`_subcell_offsets(h, _NEAR_SUB)`). m holds the 5 coefficients of a whole
    cell, each a scalar or a (K, 1) array; a subcell centre within 1e-9 max(h) of its target is
    dropped. The kernel is evaluated on the `kernels.pair_blocks` of the
    (K x _NEAR_SUB^3) block, and each row adds its subcells one after
    another in subcell order."""
    w = sym_matrix(np.asarray(m) / _NEAR_SUB ** 3)
    out = np.zeros((len(z), 3))
    for rows, zs, r2 in kernels.pair_blocks(z, offsets, exclude_within=1e-9 * np.max(h)):
        v = np.stack(kernels.stresslet_velocity_kernel(
            w if w.ndim == 2 else w[:, :, rows], zs, r2), axis=-1)
        for j in range(len(offsets)):
            out[rows] += v[:, j]
    return out


def tilde_vc(field, A, points):
    """Correction velocity of a coefficient field by direct quadrature.

    Evaluates the convolution of the per-cell sources coeff(A) with the
    stresslet kernel by the midpoint rule over source cells; the cells within
    `_near_radius` of an evaluation point are subdivided (the kernel is degree
    -2, locally integrable). `field` is a rank-2 GridField. Every cell is
    summed by `kernels.velocity_sum`; each near pair then swaps its point
    kernel value for its subcells, which costs about 1e-16 (h/d)^2 of the
    velocity at a point a distance d from a cell centre it is not on.
    """
    points = _as_points(points, "points")
    S = apply_mobility(field.values, sym_from_list(A))
    mask = np.any(S != 0.0, axis=-1)
    centers, S = field.cell_centers()[mask], field.cell_volume * S[mask]
    h = field.cell_size
    # the near pairs, found first (the search refuses non-finite points)
    pn, cn, zn = kernels.pairs_within(points, centers, _near_radius(h))
    out = kernels.velocity_sum(S, points, centers)
    # velocity_sum adds nothing at zero offset, and r2 = inf subtracts nothing
    r2 = np.where(zn.any(axis=1), np.einsum("ki,ki->k", zn, zn), np.inf)
    point = kernels.stresslet_velocity_kernel(sym_matrix(S[cn].T), zn.T, r2)
    near = _subcell_velocity(S[cn].T[..., None], zn, h, _subcell_offsets(h, _NEAR_SUB))
    np.add.at(out, pn, near - point.T)
    return out


def _padded_length(n, span):
    """FFT length of an axis of n target and `span` source cells: the smallest
    even 2^a 3^b >= n + span - 1 (Hockney and Eastwood's free-space size),
    but never above 2n, so a full span keeps the 2n layout."""
    bits = int(n).bit_length()
    smooth = (2 ** a * 3 ** b for a in range(1, bits + 2) for b in range(bits))
    return int(min(2 * n, min(m for m in smooth if m >= n + span - 1)))


@functools.lru_cache(maxsize=1)
def _stresslet_cell_kernels(n, box, lo, m):
    """Unset spectra of the cell-averaged stresslet velocity kernels of the n^3
    grid on box (a flat 6-tuple) for sources from cell lo on, padded to lengths
    m, laid out [c, i] so that each coefficient's 3 spectra are one block, and
    the set of unit coefficients c whose block is filled. One grid is kept."""
    return np.empty((5, 3, m[0], m[1], m[2] // 2 + 1), dtype=complex), set()


def _fill_cell_kernels(khat, filled, comps, n, box, lo, m):
    """Fill [c, i], the rfftn of velocity component i of one cell carrying unit
    coefficient c, for each c in comps, over the `kernels.row_blocks` slabs of
    the lag grid, each with offsets shared by the coefficients (lag q at index
    q <= n - 1 - lo, else q - m; lags within `_near_radius` subdivided, as in
    `tilde_vc`), transformed on axes 2 and 1, then on axis 0 (rfftn's order)."""
    h = (np.array(box[3:]) - np.array(box[:3])) / n
    x, y, z = (np.where(np.arange(k) <= n - 1 - l, np.arange(k), np.arange(k) - k) * hk
               for l, k, hk in zip(lo, m, h))
    units = np.prod(h) * np.eye(5)
    offsets = _subcell_offsets(h, _NEAR_SUB)
    for rows in kernels.row_blocks(m[0], m[1] * m[2]):
        zs = np.stack(np.meshgrid(x[rows], y, z, indexing="ij", copy=False))
        r2 = zs[0] * zs[0] + zs[1] * zs[1] + zs[2] * zs[2]
        near = r2 <= _near_radius(h) ** 2
        r2[near] = np.inf
        zn = zs[:, near].T
        for c in comps:
            kern = kernels.stresslet_velocity_kernel(sym_matrix(units[c]), zs, r2)
            if len(zn):
                kern[:, near] = _subcell_velocity(units[c], zn, h, offsets).T
            khat[c, :, rows] = np.fft.fft(np.fft.rfft(kern, axis=3), axis=2)
    for c in comps:
        for i in range(3):
            np.fft.fft(khat[c, i], axis=0, out=khat[c, i])
        filled.add(c)


clear_kernel_cache = _stresslet_cell_kernels.cache_clear


def _nonzero_block(values):
    """Per-axis slices of the bounding block of the cells (leading three axes)
    where `values` does not vanish, or None when it vanishes everywhere."""
    nonzero = np.any(values != 0.0, axis=tuple(range(3, values.ndim)))
    cells = [np.flatnonzero(nonzero.any(axis=tuple({0, 1, 2} - {k}))) for k in range(3)]
    if not len(cells[0]):
        return None
    return tuple(slice(int(c[0]), int(c[-1]) + 1) for c in cells)


def _convolve_sources(sources, box, n, at=(0, 0, 0)):
    """FFT convolution of per-cell stresslet coefficients with the
    cell-averaged kernels of the n^3 grid on box. `sources` (., ., ., 5) is a
    block of the grid whose first cell is `at`, the grid itself by default;
    the sources outside it vanish. The block is transformed as given, padded
    per axis to `_padded_length` of its span; the inverse is `irfftn` axis by
    axis, keeping the n cells (i - at) mod m of each axis as soon as it is
    transformed. Only the nonzero components are transformed, and their
    products summed in component order. Returns the velocity on the whole
    grid, the number of coefficients whose kernel spectra the call filled
    (each on first use), and the padded lengths (None when every component
    vanishes, which gives exact zeros)."""
    comps = [c for c in range(5) if sources[..., c].any()]
    if not comps:
        return np.zeros((n, n, n, 3)), 0, None
    m = tuple(_padded_length(n, span) for span in sources.shape[:3])
    lo = tuple(int(a) for a in at)
    box = tuple(np.asarray(box, float).ravel().tolist())
    khat, filled = _stresslet_cell_kernels(int(n), box, lo, m)
    missing = [c for c in comps if c not in filled]
    if missing:
        _fill_cell_kernels(khat, filled, missing, int(n), box, lo, m)
    shat = [np.fft.rfftn(sources[..., c], s=m, axes=(0, 1, 2)) for c in comps]
    keep = [(np.arange(n) - l) % k for l, k in zip(lo, m)]
    out = np.empty((n, n, n, 3))
    for i in range(3):
        acc = shat[0] * khat[comps[0], i]
        for c, sc in zip(comps[1:], shat[1:]):
            acc += sc * khat[c, i]
        acc = np.fft.ifft(np.fft.ifft(acc, axis=0)[keep[0]], axis=1)[:, keep[1]]
        out[..., i] = np.fft.irfft(acc, m[2], axis=2)[..., keep[2]]
    return out, len(missing), m


def fixed_point_vc(model, A, box, n, tol=1e-8, max_iter=50):
    """Solve the effective-medium correction velocity by fixed-point iteration.

    Iterates v <- conv(coeff(D(v) + A)) on the grid, strains by centered
    differences, convolution by padded FFT with the cell-averaged stresslet
    kernel. The coefficient's sup norm must not exceed 1/8 (the contraction
    gate); tol must be positive and finite and max_iter at least 1. On any grid
    the first iterate is `tilde_vc` at the cell centres, to rounding: both
    subdivide the cells `_near_radius` selects. The model is never
    rasterized: its matrix is broadcast over its `support` block, found once
    per solve, so the strain, the projection and the mobility are computed on
    that block only (the differences of v on it plus a one-cell halo, so each
    cell has the same neighbours as on the whole grid), and the block goes to
    the convolution as is. Zero sources (a zero matrix or an empty support)
    converge on the first iterate. Returns (velocity GridField, log dict); the
    log also holds the padded FFT lengths of the last iterate (`fft_shape`,
    None when every source vanishes) and whether the solve filled no kernel
    spectra (`kernels_cached`).
    """
    A = sym_from_list(A)
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    max_iter = kernels.check_count(max_iter, "max_iter", 1)
    sup = model.sup_norm()
    if sup > 0.125 + 1e-12:
        raise GateError(f"sup-norm {sup:.3g} of the coefficient exceeds the 1/8 gate")
    grid = GridField.zeros(box, n, (3,))     # the grid and the zero first iterate
    h, vol = grid.cell_size, grid.cell_volume
    block, matrix = model.support(grid), np.asarray(model.matrix, dtype=float)
    at = tuple(b.start for b in block)
    halo = tuple(slice(max(b.start - 1, 0), min(b.stop + 1, n)) for b in block)
    inner = tuple(slice(b.start - g.start, b.stop - g.start) for b, g in zip(block, halo))
    v = grid.values
    increments, converged, filled = [], False, 0
    for _ in range(max_iter):
        if increments:
            grads = np.gradient(v[halo], *h, axis=(0, 1, 2))
            gmat = np.stack([g[inner] for g in grads], axis=-1)   # [..., i, j] = dv_i/dx_j
            strain = project_sym_tracefree(gmat)
        else:
            strain = np.zeros(v[block].shape[:3] + (5,))
        rhs = apply_mobility(matrix, strain + A)
        v_new, new_spectra, lengths = _convolve_sources(rhs, box, n, at)
        filled += new_spectra
        inc = float(np.sqrt(np.sum((v_new - v) ** 2) * vol))
        increments.append(inc)
        v = v_new
        if inc <= tol:
            converged = True
            break
    log = {"increments": increments, "iterations": len(increments), "converged": converged,
           "fft_shape": list(lengths) if lengths else None, "kernels_cached": filled == 0}
    return GridField(box=grid.box, n=n, values=v), log


# ---------------------------------------------------------------------------
# dilute-limit work functional


def einstein_coefficient(cloud, A, strains):
    """Excess rate of work sum_l < mobility_l(strains_l), A >_F of the
    per-particle strains (N, 5), normalized by 2 mu A:A |K| phi (mu cancels,
    so none is taken).

    The ambient strain on every particle gives the first-order coefficient
    (exactly 5/2 for spheres); the reflected strains give the converged one.
    """
    A, phi = sym_from_list(A), validate(cloud).phi_global
    if phi <= 0.0:
        raise ValueError("einstein coefficient undefined at zero volume fraction")
    norm2 = frobenius(A, A)
    if norm2 == 0.0:
        raise ValueError("einstein coefficient undefined at zero strain")
    if not np.isfinite(strains).all():
        raise ValueError("per-particle strains must be finite")
    moments = apply_mobility(cloud.mobilities, np.reshape(strains, (cloud.n, 5)))
    work = float(np.sum(moments @ A))
    return work / (2.0 * norm2 * cloud.box_volume * phi)


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

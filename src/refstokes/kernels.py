"""Closed-form Stokes kernels.

Free-space fundamental solution (Stokeslet) with the standard positive
normalization,

    O_ij(x) = (1/8pi) (delta_ij/|x| + x_i x_j/|x|^3),
    q_j(x)  = (1/4pi) x_j/|x|^3,

so that -lap O_ij + d_i q_j = 0 away from the origin. With this sign the
stresslet far field of a unit sphere driven by a strain A is the physical
disturbance -(5/2) a^3 (x.Ax) x/|x|^5 and the strain-to-stresslet map of the
sphere is +(20 pi/3) a^3 I.

All strain/stresslet coefficients are 5-vectors in the `sym3` basis. The
"moment" of a particle is its mobility applied to the ambient strain; it has
units of length^3 because particle mobilities carry the a^3 scaling.

The stresslet strain, the stresslet velocity and the sphere disturbance are
each written once, as a component-major pair kernel `f(m, z, r2)`: the moment
m is a (3, 3, ...) `sym3.sym_matrix`, the offsets z a (3, ...) array and
r2 = |z|^2, broadcasting together; a kernel returns its components stacked in
its docstring's order, never writes its inputs, and an infinite r2 gives exactly
zero. The strain and velocity kernels compute in place, where the dense oracle
and the FFT fill measure them (`_moment_terms`); the rest are plain. The strain
kernel's six entries of sym(z (x) v) are summed, then projected by the linear
`sym3.sym_coefficients`: `stresslet_strain_sum` returns coefficients. The point
functions are the single-pair case; the sphere's pressure and traction are
closed forms on the same moment terms. `row_blocks`, slices of whole rows of
at most `PAIR_BUDGET` elements, sizes every pair evaluation and the FFT kernel
fill of `effective`. `pair_blocks` cuts (targets x sources) pairs into its row
blocks for the dense reflection matrix and the near-cell quadrature. Every pair
sum, the sweep's `stresslet_strain_sum` and `velocity_sum` (the velocity at
grid points and the cells of `tilde_vc`), runs on one engine: BLAS products of
target monomials and the features of compact blocks of sources, only radial
factors per pair. The pair kernels trust their inputs; the pair search and
sums refuse non-finite points, and they, the offsets, blocks, sphere functions
and `mean_value_reconstruct` apply `check_length`, the one length rule, first.
`check_count` is the one rule for a count or a seed, `check_box` the one rule for
a box (the cloud's, a grid's, a model's support); their callers apply them first.

Point functions broadcast over leading axes of the evaluation points.
"""

from __future__ import annotations

import numpy as np

from .errors import KernelDomainError
from .sym3 import apply_mobility, project_sym_tracefree, sym_coefficients, sym_matrix

__all__ = ["oseen", "oseen_pressure", "stresslet_field", "stresslet_strain",
           "sphere_disturbance", "sphere_pressure", "sphere_traction",
           "sphere_mobility", "mobility_from_boundary_integral",
           "mean_value_reconstruct", "PAIR_BUDGET", "check_length", "check_count", "check_box",
           "stresslet_strain_kernel", "stresslet_velocity_kernel", "sphere_disturbance_kernel",
           "pair_offsets", "row_blocks", "pair_blocks", "stresslet_strain_sum",
           "velocity_sum", "pairs_within"]

_C8 = 1.0 / (8.0 * np.pi)
_C4 = 1.0 / (4.0 * np.pi)
_C38 = 3.0 * _C8

# elements per `row_blocks` slice, (target, source) pairs in a pair block: each
# block temporary is then 128 KiB, so the dozen a block keeps live stay in a
# core's L2 cache.
PAIR_BUDGET = 16_384


def check_length(value, name, positive=True):
    """`value` when it is a finite number > 0 (a radius, `positive`) or >= 0 (a
    search radius or an exclusion distance); else ValueError naming `name`."""
    if not (0 < value < np.inf if positive else 0 <= value < np.inf):
        rule = "radius must be positive" if positive else "distance must be non-negative"
        raise ValueError(f"{rule} and finite, got {name} = {value}")
    return value


def check_count(value, name, minimum):
    """`value` as an int when it is a Python or numpy integer or float, whole and
    >= `minimum`; else (NaN, inf, a fraction, a bool, None) ValueError naming `name`."""
    if not (np.dtype(type(value)).kind in "iuf" and minimum <= value < np.inf and value % 1 == 0):
        raise ValueError(f"{name} must be >= {minimum} and a whole number, got {value}")
    return int(value)


def check_box(box):
    """`box` as a C-contiguous float (2, 3) array [lo, hi] when its corners are real
    numbers, finite, with hi > lo on every axis; else (a ragged or non-numeric box,
    another shape, a complex, NaN or infinite corner, a flat or inverted axis) ValueError."""
    try:
        box = np.asarray(box)
    except ValueError:      # a ragged box
        box = np.empty(0)
    box = np.ascontiguousarray(box, float) if box.dtype.kind in "biuf" else np.empty(0)
    if box.shape != (2, 3) or not np.all(np.isfinite(box) & (box[1] > box[0])):
        raise ValueError("box must be [[lo],[hi]], finite, with hi > lo per axis")
    return box


def _radii(x, what):
    """Checked points and their squared norms."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != 3:
        raise ValueError(f"expected trailing axis of length 3, got shape {x.shape}")
    r2 = np.einsum("...i,...i->...", x, x)
    if np.any(r2 <= 0.0):
        raise KernelDomainError(f"{what} evaluated at x = 0")
    return x, r2


def oseen(x):
    """Oseen tensor O(x), shape (...,3,3). Velocity response to a point force."""
    x, r2 = _radii(x, "oseen")
    r = np.sqrt(r2)[..., None, None]
    return _C8 * (np.eye(3) / r + x[..., :, None] * x[..., None, :] / r ** 3)


def oseen_pressure(x):
    """Pressure vector q(x) = x/(4 pi |x|^3) paired with the Oseen tensor."""
    x, r2 = _radii(x, "oseen_pressure")
    return _C4 * x / np.sqrt(r2)[..., None] ** 3


# ---------------------------------------------------------------------------
# component-major pair kernels


# In place where a workload measures it: plain, the dense oracle's strain kernel took 0.9-1.7 vs
# 0.27-0.52 ms a 16 x 1000 block, and the FFT fill's velocity kernel moved meanfield_fft's RSS level
def _moment_terms(m, z, r2, rows):
    """One fresh array w of `rows` >= 6 rows over the broadcast shape of m, z
    and r2: b = mz in w[0:3], s = z.b in w[3], |z|^5 in w[4], the rest scratch.
    b sums the symmetric m over its slowest axis, so numpy's einsum loop (never
    BLAS) adds the 3 terms in order whatever the layout; s is added explicitly."""
    w = np.empty((rows,) + np.broadcast_shapes(np.shape(m)[2:], np.shape(z)[1:], np.shape(r2)))
    np.einsum("ji...,j...->i...", m, z, out=w[:3])
    np.multiply(z, w[:3], out=w[3:6])
    w[3] += w[4]
    w[3] += w[5]
    np.multiply(r2, r2, out=w[4, ...])
    w[4] *= np.sqrt(r2, out=w[-1, ...])
    return w


def stresslet_strain_kernel(m, z, r2):
    """Strain of a point stresslet: six entries of sym(z (x) v), stacked, whose
    `sym_coefficients` are P_sym(grad K)[m](z).

    <E_a, D(K)> = -(3/8pi) [ 2 <E_a, z (x) b>/r^5 - 5 s <E_a, z (x) z>/r^7 ]
    with b = Mz and s = z.Mz; the delta term drops because the basis is
    trace-free. Even in z and homogeneous of degree -3. It is <E_a, z (x) v>
    with v = p b - q z, p = (-2 C38)/r5, q = (-5 C38) s/(r5 r2); the entries are
    zi vi and zi vj + zj vi, (i, j) = (0, 1), (0, 2), (1, 2), summable before projecting."""
    w = _moment_terms(m, z, r2, 7)
    v, q, r5, p, t = w[:3], w[3, ...], w[4, ...], w[5, ...], w[6, ...]
    np.divide(-2.0 * _C38, r5, out=p)
    q *= -5.0 * _C38
    q /= np.multiply(r5, r2, out=t)
    v *= p
    for i in range(3):
        v[i, ...] -= np.multiply(q, z[i], out=t)
    for c, (i, j) in zip((q, r5, p), ((0, 1), (0, 2), (1, 2))):
        np.multiply(z[i], v[j], out=c)
        c += np.multiply(z[j], v[i], out=t)
    v *= z
    return w[:6]


def stresslet_velocity_kernel(m, z, r2):
    """Velocity of a point stresslet: k z with k = -(3/8pi) (z.Mz)/|z|^5."""
    w = _moment_terms(m, z, r2, 6)
    w[3] *= -_C38
    w[3] /= w[4]
    return np.multiply(w[3], z, out=w[:3])


def sphere_disturbance_kernel(m, z, r2, a):
    """Disturbance of a sphere of radius a in the strain m (see `sphere_disturbance`),
    evaluated as c b + k z with k = 2.5 s (a^5/r2 - a^3)/r5 and c = -a^5/r5."""
    w = _moment_terms(m, z, r2, 6)
    k = 2.5 * w[3] * (a ** 5 / r2 - a ** 3) / w[4]
    return -a ** 5 / w[4] * w[:3] + k * z


def _point_args(m, x, what, a=None):
    """`sym_matrix` of the coefficients m (..., 5), component-major points z of
    x (..., 3) broadcast against m, and r2 = |x|^2 (see `_radii`); given a
    sphere radius a, a point inside |x| = a raises KernelDomainError."""
    x, r2 = _radii(x, what)
    if a is not None and np.any(r2 < check_length(a, "a") * a * (1.0 - 1e-12)):
        raise KernelDomainError(f"{what} evaluated inside the sphere")
    m = np.asarray(m, dtype=float)
    x = np.broadcast_to(x, np.broadcast_shapes(m.shape[:-1], x.shape[:-1]) + (3,))
    return sym_matrix(np.moveaxis(m, -1, 0)), np.moveaxis(x, -1, 0), r2


def stresslet_field(mobility, strain, x):
    """Far-field stresslet velocity of a particle with the given mobility.

    For the symmetric trace-free moment M = embed(mobility . strain) the
    contraction of M with the Oseen gradient collapses to
    -(3/8pi) (x.Mx) x / |x|^5. The moment broadcasts against the leading
    axes of x.
    """
    m = apply_mobility(mobility, strain)
    return np.stack(stresslet_velocity_kernel(*_point_args(m, x, "stresslet_field")), axis=-1)


def stresslet_strain(mobility, strain, x):
    """Strain coefficients induced at x by a particle with the given mobility.

    Closed form of P_sym(grad K)[mobility . strain](x); homogeneous of
    degree -3.
    """
    m = apply_mobility(mobility, strain)
    return np.stack(sym_coefficients(stresslet_strain_kernel(
        *_point_args(m, x, "stresslet_strain"))), axis=-1)


# ---------------------------------------------------------------------------
# pair sums


def pair_offsets(targets, sources, exclude_within=None):
    """Offsets z = target - source, (3, targets, sources), and r2 = |z|^2 of a
    (targets x sources) block, fresh arrays that belong to the block. Pairs with
    |z| <= exclude_within get r2 = inf, so the kernels give them zero;
    exclude_within=0 drops self-pairs."""
    z = np.stack([targets[:, i, None] - sources[:, i] for i in range(3)])
    r2 = z[0] * z[0] + z[1] * z[1] + z[2] * z[2]
    if exclude_within is not None:
        r2[r2 <= check_length(exclude_within, "exclude_within", positive=False) ** 2] = np.inf
    return z, r2


def row_blocks(rows, row_size):
    """Consecutive slices of `rows` rows of `row_size` elements each, in order,
    each at most PAIR_BUDGET elements (one row when a row is larger): the one
    chunk policy of every pair loop."""
    step = max(1, PAIR_BUDGET // max(row_size, 1))
    return (slice(start, start + step) for start in range(0, rows, step))


def pair_blocks(targets, sources, exclude_within=None):
    """The (targets x sources) pairs as `pair_offsets` blocks of whole target
    rows, one per `row_blocks` slice, lazily: (rows, z, r2), rows the slice of
    targets, in target order. `exclude_within` is checked on the call."""
    if exclude_within is not None:
        check_length(exclude_within, "exclude_within", positive=False)
    return ((rows, *pair_offsets(targets[rows], sources, exclude_within))
            for rows in row_blocks(len(targets), len(sources)))


def _check_finite(what, targets, sources):
    """ValueError naming `what` unless every coordinate of both point sets is finite."""
    if not (np.isfinite(targets).all() and np.isfinite(sources).all()):
        raise ValueError(f"{what} needs finite points")


# sources per block of the block-moment sums
_BLOCK = 64


def _compact_blocks(x, idx=None):
    """Index arrays of 1 to _BLOCK points, the leaves of a kd-tree that halves
    each set at the median of its widest axis (stable sort)."""
    idx = np.arange(len(x)) if idx is None else idx
    if len(idx) <= _BLOCK:
        return [idx] if len(idx) else []
    idx = idx[np.argsort(x[idx, np.ptp(x[idx], axis=0).argmax()], kind="stable")]
    return _compact_blocks(x, idx[:len(idx) // 2]) + _compact_blocks(x, idx[len(idx) // 2:])


def _block_moment_sum(weights, targets, sources, kernel, block, rows):
    """Sum over the sources, (targets, rows), of a pair kernel made of polynomials in
    z = x_l - x_m and factors of r2 and s = z.Sz, S = `sym_matrix` of the weights.
    Each of the `_compact_blocks` takes its centroid o as origin: with g = x_l - o and
    y = x_m - o, r2 and s are matmuls of target monomials (g g, g, 1) by source
    features. `block(y, [S | -Sy])` returns add(g, p, u, s, total), which adds the
    block's sum over a chunk to its (rows, chunk) view total, from (block, chunk)
    arrays u = 1/r2 and p = u^(5/2) it may overwrite. Chunks have the `row_blocks`
    width of _BLOCK sources, the last padded with its last target, so every product
    has one shape and a target's bits do not depend on the other targets. Pairs at
    computed r2 <= (rho/16)^2, rho the block's radius, get u = 0 and, unless they
    coincide, add `kernel` at exact offsets to the first rows. A non-finite point
    raises ValueError first."""
    _check_finite("a block-moment sum", targets, sources)
    m, n = sym_matrix(np.asarray(weights, dtype=float).T), len(targets)
    width = max(1, PAIR_BUDGET // _BLOCK)
    acc = np.zeros((-(-n // width) * width, rows))
    tail = np.concatenate([targets[len(acc) - width:], np.repeat(targets[-1:], len(acc) - n, 0)])
    for idx in _compact_blocks(sources):
        o = sources[idx].mean(axis=0)
        y, sm, b = sources[idx] - o, m[:, :, idx].transpose(2, 0, 1), len(idx)
        # z.Mz = g.Mg - 2 g.My + y.My for M = I and S, on the monomials of g
        ms = np.concatenate([np.broadcast_to(np.eye(3), (b, 3, 3)), sm]).reshape(-1, 9)
        my = np.einsum("bjk,bk->bj", ms.reshape(-1, 3, 3), np.concatenate([y, y]))
        quad = np.concatenate([ms[:, [0, 4, 8]], 2.0 * ms[:, [1, 2, 5]], -2.0 * my,
                               np.einsum("bj,bj->b", my, np.concatenate([y, y]))[:, None]], 1)
        add = block(y, np.concatenate([sm, -my[b:, :, None]], axis=2))
        near = quad[:b, 9].max() / 256.0
        for start in range(0, n, width):
            x = (targets[start:start + width] if start + width <= n else tail).T
            g = np.subtract(x, o[:, None], order="C")
            mono = np.concatenate([g[[0, 1, 2, 0, 0, 1]] * g[[0, 1, 2, 1, 2, 2]], g,
                                   np.ones((1, width))])
            r2, s = quad[:b] @ mono, quad[b:] @ mono
            close = np.flatnonzero(r2 <= near)
            if len(close):
                r2.flat[close] = np.inf
                z = x[:, close % width] - sources[idx[close // width]].T
                keep = z.any(axis=0)
                close, z = close[keep], z[:, keep]
                if len(close):
                    e = kernel(m[:, :, idx[close // width]], z,
                               z[0] * z[0] + z[1] * z[1] + z[2] * z[2])
                    np.add.at(acc[:, :len(e)], start + close % width, e.T)
            u = np.reciprocal(r2, out=r2)
            p = u * u
            p *= np.sqrt(u)
            add(g, p, u, s, acc[start:start + width].T)
    return acc[:n]


def _strain_block(y, sa):
    """`_block_moment_sum` accumulator of sum z (x) v, v of `stresslet_strain_kernel`:
    with p = -2 C38/r^5 and q = -5 C38 s/r^7, V = sum p Sz - q z and X = sum y (x) v
    are matmuls of P by (A, y (x) A), A = [S | -Sy], and of Q by (1, y, y (x) y),
    contracted with (g, 1). Rows ij of g (x) V - X: the kernel's 00, 11, 22, 01, 02, 12,
    then 10, 20, 21."""
    ya = np.concatenate([sa[:, None], y[:, :, None, None] * sa[:, None]], axis=1)
    fp = -2.0 * _C38 * ya.transpose(3, 1, 2, 0).reshape(48, len(y))
    fq = -5.0 * _C38 * np.concatenate([np.ones((len(y), 1)), y,
                                       (y[:, :, None] * y[:, None]).reshape(-1, 9)], 1).T

    def add(g, p, u, s, total):
        s *= p
        s *= u
        f = (fp @ p).reshape(4, 4, 3, -1)
        h = fq @ s
        vx = f[3] + f[0] * g[0] + f[1] * g[1] + f[2] * g[2]
        vx[0] += h[1:4] - g * h[0]
        vx[1:] += h[4:].reshape(3, 3, -1) - h[1:4, None] * g
        total[[0, 3, 4, 6, 1, 5, 7, 8, 2]] += (g[:, None] * vx[0] - vx[1:]).reshape(9, -1)
    return add


def stresslet_strain_sum(weights, targets, sources):
    """Strain coefficients, (targets, 5): summed `stresslet_strain_kernel` entries, projected."""
    e = _block_moment_sum(weights, targets, sources, stresslet_strain_kernel, _strain_block, 9).T
    return np.stack(sym_coefficients([*e[:3], *(e[3:6] + e[6:])]), axis=1)


def velocity_sum(weights, targets, sources, a=None):
    """Velocity summed over the sources, (targets, 3): `sphere_disturbance_kernel` of
    radius a and each source's strain, or with no a `stresslet_velocity_kernel` and each
    moment. Each is c Sz + k z, c = -a^5/r^5 and k = 2.5 s (a^5/r2 - a^3)/r^5, or c = 0
    and k = -C38 s/r^5; in `_block_moment_sum`, sum c Sz = (sum c S) g - sum c Sy and
    sum k z = (sum k) g - sum k y are matmuls of C by [S | -Sy] and of K by (1, y)."""
    sphere = a is not None and check_length(a, "a") > 0
    kernel = ((lambda m, z, r2: sphere_disturbance_kernel(m, z, r2, a)) if sphere
              else stresslet_velocity_kernel)

    def block(y, sa):
        fk = (2.5 if sphere else -_C38) * np.concatenate([np.ones((len(y), 1)), y], 1).T
        fc = -a ** 5 * sa.transpose(2, 1, 0).reshape(12, len(y)) if sphere else None

        def add(g, p, u, s, total):
            s *= p
            if sphere:
                s *= np.subtract(np.multiply(u, a ** 5, out=u), a ** 3, out=u)
                f = (fc @ p).reshape(4, 3, -1)
                total += f[3] + f[0] * g[0] + f[1] * g[1] + f[2] * g[2]
            h = fk @ s
            total += g * h[0] - h[1:]
        return add
    return _block_moment_sum(weights, targets, sources, kernel, block, 3)


def pairs_within(targets, sources, radius):
    """Index pairs (l, m), sorted, with |targets_l - sources_m| <= radius,
    and their offsets (K, 3).

    A cell list proposes candidates: the larger set is binned in cubes of side
    at least radius, and each point of the smaller set looks in the 27 cubes
    around its own, as 9 runs of 3 consecutive cell keys. The distance test
    itself uses the arithmetic of `pair_offsets`, so a pair is kept here
    exactly when `pair_offsets(..., exclude_within=radius)` excludes it.
    A non-finite point, or a radius `check_length` refuses, raises ValueError.
    """
    _check_finite("pairs_within", targets, sources)
    check_length(radius, "radius", positive=False)
    swap = len(targets) > len(sources)
    big, small = (targets, sources) if swap else (sources, targets)
    if len(small) == 0:
        return np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros((0, 3))
    lo = big.min(axis=0)
    # at most 2**20 cubes a side, so the cell keys fit in int64
    h = max(radius * (1.0 + 1e-9), float((big.max(axis=0) - lo).max()) / 2 ** 20) or 1.0
    cells = np.floor((big - lo) / h).astype(np.int64)
    n = cells.max(axis=0) + 1
    # cube indices shifted by +3 have key (i*(n1+6) + j)*(n2+6) + k; a small point
    # more than a cube outside the binned box is clipped to a cube with no
    # binned neighbour, and its runs start at cubes (i+a, j+b, k-1), a, b in -1..1
    strides = np.array([(n[1] + 6) * (n[2] + 6), n[2] + 6, 1])
    keys = (cells + 3) @ strides
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    near = (np.clip(np.floor((small - lo) / h), -2, n + 1).astype(np.int64) + 3) @ strides
    # looking the small points up in cube order keeps the searches local
    by_cube = np.argsort(near)
    starts = (near[by_cube, None]
              + (np.indices((3, 3, 1)).reshape(3, -1).T - 1) @ strides).ravel()
    first = np.searchsorted(keys, starts, "left")
    count = np.searchsorted(keys, starts + 2, "right") - first
    ends = np.cumsum(count)
    rows = np.repeat(np.repeat(by_cube, 9), count)
    cols = order[np.arange(ends[-1]) + np.repeat(first + count - ends, count)]
    t, s = (cols, rows) if swap else (rows, cols)
    z = targets[t] - sources[s]
    keep = z[:, 0] * z[:, 0] + z[:, 1] * z[:, 1] + z[:, 2] * z[:, 2] <= radius ** 2
    t, s, z = t[keep], s[keep], z[keep]
    order = np.lexsort((s, t))
    return t[order], s[order], z[order]


def sphere_disturbance(strain, a, x):
    """Exterior disturbance velocity of a rigid sphere held in a strain flow.

    u(x) = -(5/2) a^3 (x.Ax) x/|x|^5 - a^5 [Ax/|x|^5 - (5/2)(x.Ax) x/|x|^7].
    On |x| = a this equals -Ax (the two quintic terms cancel the strain).
    Force- and torque-free; defined for |x| >= a.
    """
    return np.stack(sphere_disturbance_kernel(*_point_args(strain, x, "sphere_disturbance", a),
                                              a=a), axis=-1)


def sphere_pressure(strain, a, x):
    """Pressure of the sphere disturbance solution: p = -5 a^3 (x.Ax)/|x|^5."""
    w = _moment_terms(*_point_args(strain, x, "sphere_pressure", a), 6)
    return -5.0 * a ** 3 * w[3] / w[4]


def sphere_traction(strain, a, x):
    """Traction (grad u + grad u^T - p) n of the disturbance solution on the
    sphere through x, n = x/r the outward normal and r = |x|:

        t = [(8 a^5/r^5 - 5 a^3/r^3) Ax + 20 (x.Ax)(a^3/r^5 - a^5/r^7) x] / r.

    On |x| = a it is 3An; with the ambient 2An the total is 5An (Kim and
    Karrila, Microhydrodynamics, ch. 2-3).
    """
    m, z, r2 = _point_args(strain, x, "sphere_traction", a)
    w = _moment_terms(m, z, r2, 6)
    r6 = w[4] * np.sqrt(r2)
    c = a ** 3 * (8.0 * a * a - 5.0 * r2) / r6
    k = 20.0 * a ** 3 * w[3] * (r2 - a * a) / (r6 * r2)
    return np.moveaxis(c * w[:3] + k * z, 0, -1)


def sphere_mobility(a):
    """Strain-to-stresslet map of a rigid sphere of radius a: (20 pi/3) a^3 I."""
    return (20.0 * np.pi / 3.0) * check_length(a, "a") ** 3 * np.eye(5)


# Gauss-Legendre order of the surface rule in `mobility_from_boundary_integral`
_BOUNDARY_ORDER = 6


def _surface_quadrature(a, order):
    """Product Gauss-Legendre (cos theta) x trapezoid (phi) grid on the sphere."""
    nodes, wts = np.polynomial.legendre.leggauss(order)
    nphi = 2 * order
    phi = 2.0 * np.pi * np.arange(nphi) / nphi
    ct = np.repeat(nodes, nphi)
    st = np.sqrt(1.0 - ct ** 2)
    ph = np.tile(phi, order)
    xhat = np.stack([st * np.cos(ph), st * np.sin(ph), ct], axis=-1)
    w = np.repeat(wts, nphi) * (2.0 * np.pi / nphi) * a ** 2
    return xhat, w


def mobility_from_boundary_integral(a):
    """Strain-to-stresslet map of a sphere, from its boundary traction moments.

    For each basis strain, evaluates the analytic disturbance solution's
    traction and velocity on a spherical quadrature grid and assembles the
    projected first moment

        P_sym[ integral( -(Sigma n) (x) y + 2 U (x) n ) dsigma ]

    with the normal pointing into the particle. Converges to (20 pi/3) a^3 I;
    the integrand is a low-degree spherical polynomial, so any order >= 2 is
    already exact to rounding.
    """
    xhat, w = _surface_quadrature(check_length(a, "a"), _BOUNDARY_ORDER)
    y = a * xhat
    traction = sphere_traction(np.eye(5)[:, None], a, y)   # basis strain j; outward normal
    u = sphere_disturbance(np.eye(5)[:, None], a, y)
    # n points into the particle: -(Sigma n)(x)y + 2U(x)n = (Sigma nhat)(x)y - 2U(x)nhat
    integrand = traction[..., :, None] * y[:, None, :] - 2.0 * u[..., :, None] * xhat[:, None, :]
    return project_sym_tracefree(np.einsum("p,jpik->jik", w, integrand)).T


def mean_value_reconstruct(ball_avg_u, r, f_radial_avgs):
    """Recover a center value from a ball average and radial source averages.

    For lap u = f, the value at the ball center is

        u(x) = avg_{B(x,r)} u + (1/3) int_0^r (rho^4/r^3 - rho) avg_{B(x,rho)} f drho.

    `f_radial_avgs(rho)` must return the average of f over B(x, rho). The
    radial integral is a 16-point Gauss-Legendre rule on [0, r]: exact when
    that average is a polynomial in rho of degree <= 27, as it is for every
    polynomial f of that degree; for analytic ones the error falls geometrically.
    """
    check_length(r, "r")
    nodes, wts = np.polynomial.legendre.leggauss(16)
    rho = 0.5 * r * (nodes + 1.0)
    avgs = np.array([f_radial_avgs(p) for p in rho], dtype=float)
    if not np.all(np.isfinite(avgs)):
        raise ValueError(f"non-finite radial average at rho={rho[~np.isfinite(avgs)][0]}")
    correction = 0.5 * r * float(wts @ ((rho ** 4 / r ** 3 - rho) * avgs))
    return float(ball_avg_u) + correction / 3.0

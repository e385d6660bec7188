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
each written once, as a component-major pair kernel `f(m, z, r2)`: the
coefficients m and the offsets z are sequences of separate arrays (5 and 3
of them) and r2 = |z|^2, all broadcasting together, so a (targets x sources)
block is plain elementwise arithmetic. An infinite r2 gives exactly zero.
The public point functions are the single-pair case of these kernels.
`pair_blocks` is the one chunk loop: row blocks of at most `PAIR_BUDGET`
pairs, sized so their temporaries stay in cache, from which `pair_sum`, the
dense reflection matrix and the near-cell quadrature all evaluate. Each
kernel computes in a few arrays of its own (`out=`, in place), never in its
inputs, in its docstring's order.

Point functions broadcast over leading axes of the evaluation points.
"""

from __future__ import annotations

import numpy as np

from .errors import KernelDomainError
from .sym3 import apply_mobility, embed, project_sym_tracefree

__all__ = ["oseen", "oseen_pressure", "stresslet_field", "stresslet_strain",
           "sphere_disturbance", "sphere_pressure", "sphere_velocity_gradient",
           "sphere_traction", "sphere_mobility", "mobility_from_boundary_integral",
           "mean_value_reconstruct", "PAIR_BUDGET", "stresslet_strain_kernel",
           "stresslet_velocity_kernel", "sphere_disturbance_kernel",
           "pair_offsets", "pair_blocks", "pair_sum", "pairs_within"]

_C8 = 1.0 / (8.0 * np.pi)
_C4 = 1.0 / (4.0 * np.pi)
_C38 = 3.0 * _C8
_IS2 = 1.0 / np.sqrt(2.0)
_IS6 = 1.0 / np.sqrt(6.0)

# (target, source) pairs per block of `pair_blocks`: each block temporary is
# then 128 KiB, so the dozen a block keeps live stay in a core's L2 cache.
PAIR_BUDGET = 16_384


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


def _products(out, t, *pairs):
    """out = a0 b0 + a1 b1 + ... over the (a, b) pairs, summed left to right
    with t as scratch; only the first pair may read out."""
    np.multiply(*pairs[0], out=out)
    for a, b in pairs[1:]:
        out += np.multiply(a, b, out=t)
    return out


def _moment_terms(m, z, r2, rows):
    """`rows` fresh arrays w over the broadcast shape of m, z and r2: b = Mz
    in w[0:3], s = z.b in w[3], |z|^5 in w[4], and w[-1] for scratch."""
    mxx = m[0] * _IS2 + m[1] * _IS6
    myy = m[1] * _IS6 - m[0] * _IS2
    mzz = -2.0 * _IS6 * m[1]
    mxy, mxz, myz = m[2] * _IS2, m[3] * _IS2, m[4] * _IS2
    shape = np.broadcast_shapes(np.shape(m[0]), np.shape(z[0]), np.shape(r2))
    w = [np.empty(shape) for _ in range(rows)]
    for bi, mi in zip(w, ((mxx, mxy, mxz), (mxy, myy, myz), (mxz, myz, mzz))):
        _products(bi, w[-1], *zip(mi, z))
    _products(w[3], w[-1], *zip(z, w))
    np.multiply(r2, r2, out=w[4])
    w[4] *= np.sqrt(r2, out=w[-1])
    return w


def stresslet_strain_kernel(m, z, r2):
    """Strain coefficients P_sym(grad K)[m](z) of a point stresslet.

    <E_a, D(K)> = -(3/8pi) [ 2 <E_a, z (x) b>/r^5 - 5 s <E_a, z (x) z>/r^7 ]
    with b = Mz and s = z.Mz; the delta term drops because the basis is
    trace-free. Even in z and homogeneous of degree -3. Evaluated as
    <E_a, z (x) v> with v = p b - q z, p = (-2 C38)/r5, q = (-5 C38) s/(r5 r2),
    written out per component (x = z0 v0, y = z1 v1): (x - y)/sqrt2,
    (x + y - 2 z2 v2)/sqrt6 and (zi vj + zj vi)/sqrt2 for i < j; a test pins
    this to sym3.BASIS.
    """
    v0, v1, v2, q, r5, p, t = _moment_terms(m, z, r2, 7)
    np.divide(-2.0 * _C38, r5, out=p)
    q *= -5.0 * _C38
    q /= np.multiply(r5, r2, out=t)
    for vi, zi in zip((v0, v1, v2), z):
        vi *= p
        vi -= np.multiply(q, zi, out=t)
    x, y, c1 = np.multiply(z[0], v0, out=r5), np.multiply(z[1], v1, out=p), q
    np.add(x, y, out=c1)
    x -= y
    c1 -= np.multiply(np.multiply(2.0, z[2], out=y), v2, out=y)
    c = [x, c1, _products(y, t, (z[0], v1), (z[1], v0)),
         _products(v0, t, (z[2], v0), (z[0], v2)), _products(v1, t, (z[2], v1), (z[1], v2))]
    return [np.multiply(ca, scale, out=ca) for ca, scale in zip(c, (_IS2, _IS6, _IS2, _IS2, _IS2))]


def stresslet_velocity_kernel(m, z, r2):
    """Velocity of a point stresslet: k z with k = -(3/8pi) (z.Mz)/|z|^5."""
    w = _moment_terms(m, z, r2, 6)
    w[3] *= -_C38
    w[3] /= w[4]
    return [np.multiply(w[3], zi, out=bi) for bi, zi in zip(w, z)]


def sphere_disturbance_kernel(m, z, r2, a):
    """Disturbance of a sphere of radius a in the strain m (see `sphere_disturbance`),
    evaluated as k z + c b with k = 2.5 s (a^5/r2 - a^3)/r5 and c = -a^5/r5."""
    b0, b1, b2, k, c, t = _moment_terms(m, z, r2, 6)
    k *= 2.5
    k *= np.subtract(np.divide(a ** 5, r2, out=t), a ** 3, out=t)
    k /= c
    np.divide(-a ** 5, c, out=c)
    return [_products(bi, t, (c, bi), (k, zi)) for bi, zi in zip((b0, b1, b2), z)]


def _point_kernel(kernel, m, x, r2, **params):
    """A pair kernel at points x (..., 3) with coefficients m (..., 5)."""
    m = np.moveaxis(np.asarray(m, dtype=float), -1, 0)
    return np.stack(kernel(m, np.moveaxis(x, -1, 0), r2, **params), axis=-1)


def stresslet_field(mobility, strain, x):
    """Far-field stresslet velocity of a particle with the given mobility.

    For the symmetric trace-free moment M = embed(mobility . strain) the
    contraction of M with the Oseen gradient collapses to
    -(3/8pi) (x.Mx) x / |x|^5. The moment broadcasts against the leading
    axes of x.
    """
    x, r2 = _radii(x, "stresslet_field")
    return _point_kernel(stresslet_velocity_kernel, apply_mobility(mobility, strain),
                         x, r2)


def stresslet_strain(mobility, strain, x):
    """Strain coefficients induced at x by a particle with the given mobility.

    Closed form of P_sym(grad K)[mobility . strain](x); homogeneous of
    degree -3.
    """
    x, r2 = _radii(x, "stresslet_strain")
    return _point_kernel(stresslet_strain_kernel, apply_mobility(mobility, strain),
                         x, r2)


# ---------------------------------------------------------------------------
# pair sums


def pair_offsets(targets, sources, exclude_within=None):
    """Component-major offsets z = target - source of a (targets x sources)
    block, and r2 = |z|^2. Pairs with |z| <= exclude_within get r2 = inf, so
    the kernels give them zero; exclude_within=0 drops self-pairs."""
    z = [targets[:, None, i] - sources[None, :, i] for i in range(3)]
    r2 = z[0] * z[0] + z[1] * z[1] + z[2] * z[2]
    if exclude_within is not None:
        r2[r2 <= exclude_within ** 2] = np.inf
    return z, r2


def pair_blocks(targets, sources, exclude_within=None):
    """The (targets x sources) pairs as `pair_offsets` blocks of whole target
    rows, at most PAIR_BUDGET pairs each (one row when a row is larger):
    yields (rows, z, r2), rows the slice of targets, in target order."""
    step = max(1, PAIR_BUDGET // max(len(sources), 1))
    for start in range(0, len(targets), step):
        rows = slice(start, start + step)
        yield (rows, *pair_offsets(targets[rows], sources, exclude_within))


def pair_sum(kernel, weights, targets, sources, out, exclude_within=None):
    """Add sum_m kernel(weights_m, targets_l - sources_m) to out[l] for every l.

    weights has one row of coefficients per source; out has one row per
    target. Each target's sum over sources is numpy's pairwise sum within
    its `pair_blocks` row, so the bits do not depend on the block size and
    reruns on identical input are bit-identical. Returns out.
    """
    w = np.ascontiguousarray(np.asarray(weights, dtype=float).T)
    for rows, z, r2 in pair_blocks(targets, sources, exclude_within):
        for c, part in enumerate(kernel(w, z, r2)):
            out[rows, c] += part.sum(axis=1)
    return out


def pairs_within(targets, sources, radius):
    """Index pairs (l, m), sorted, with |targets_l - sources_m| <= radius,
    and their offsets (K, 3).

    A cell list proposes candidates: the larger set is binned in cubes of side
    at least radius, and each point of the smaller set looks in the 27 cubes
    around its own, as 9 runs of 3 consecutive cell keys. The distance test
    itself uses the arithmetic of `pair_offsets`, so a pair is kept here
    exactly when `pair_offsets(..., exclude_within=radius)` excludes it.
    """
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


def _sphere_terms(strain, a, x):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    A = embed(np.asarray(strain, dtype=float))
    r2 = np.einsum("...i,...i->...", x, x)
    b = np.einsum("ij,...j->...i", A, x)
    s = np.einsum("...i,...i->...", x, b)
    return x, A, r2, b, s


def sphere_disturbance(strain, a, x):
    """Exterior disturbance velocity of a rigid sphere held in a strain flow.

    u(x) = -(5/2) a^3 (x.Ax) x/|x|^5 - a^5 [Ax/|x|^5 - (5/2)(x.Ax) x/|x|^7].
    On |x| = a this equals -Ax (the two quintic terms cancel the strain).
    Force- and torque-free; defined for |x| >= a.
    """
    x, r2 = _radii(x, "sphere_disturbance")
    if np.any(r2 < a * a * (1.0 - 1e-12)):
        raise KernelDomainError("sphere_disturbance evaluated inside the sphere")
    return _point_kernel(sphere_disturbance_kernel, strain, x, r2, a=a)


def sphere_pressure(strain, a, x):
    """Pressure of the sphere disturbance solution: p = -5 a^3 (x.Ax)/|x|^5."""
    xb, A, r2, b, s = _sphere_terms(strain, a, x)
    if np.any(r2 < a * a * (1.0 - 1e-12)):
        raise KernelDomainError("sphere_pressure evaluated inside the sphere")
    return (-5.0 * a ** 3 * s / np.sqrt(r2) ** 5).reshape(np.shape(x)[:-1])


def sphere_velocity_gradient(strain, a, x):
    """Analytic gradient du_i/dx_j of `sphere_disturbance`, shape (...,3,3)."""
    xb, A, r2, b, s = _sphere_terms(strain, a, x)
    if np.any(r2 < a * a * (1.0 - 1e-12)):
        raise KernelDomainError("sphere_velocity_gradient evaluated inside the sphere")
    r = np.sqrt(r2)
    r5 = (r ** 5)[..., None, None]
    r7 = (r ** 7)[..., None, None]
    r9 = (r ** 9)[..., None, None]
    I = np.eye(3)
    xi_bj = xb[..., :, None] * b[..., None, :]
    bi_xj = b[..., :, None] * xb[..., None, :]
    xi_xj = xb[..., :, None] * xb[..., None, :]
    sI = s[..., None, None] * I
    g = -2.5 * a ** 3 * ((2.0 * xi_bj + sI) / r5 - 5.0 * s[..., None, None] * xi_xj / r7)
    g += -a ** 5 * (A / r5 - 5.0 * bi_xj / r7)
    g += 2.5 * a ** 5 * ((2.0 * xi_bj + sI) / r7 - 7.0 * s[..., None, None] * xi_xj / r9)
    return g.reshape(np.shape(x) + (3,))


def sphere_traction(strain, a, x):
    """Traction Sigma.n of the disturbance solution, n the outward unit normal."""
    x = np.asarray(x, dtype=float)
    grad = sphere_velocity_gradient(strain, a, x)
    p = sphere_pressure(strain, a, x)
    sigma = grad + np.swapaxes(grad, -1, -2) - p[..., None, None] * np.eye(3)
    r = np.sqrt(np.einsum("...i,...i->...", x, x))
    return np.einsum("...ij,...j->...i", sigma, x / r[..., None])


def sphere_mobility(a):
    """Strain-to-stresslet map of a rigid sphere of radius a: (20 pi/3) a^3 I."""
    return (20.0 * np.pi / 3.0) * a ** 3 * np.eye(5)


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
    xhat, w = _surface_quadrature(a, _BOUNDARY_ORDER)
    y = a * xhat
    M = np.zeros((5, 5))
    for j in range(5):
        e = np.zeros(5)
        e[j] = 1.0
        traction = sphere_traction(e, a, y)          # with outward normal
        u = sphere_disturbance(e, a, y)
        # n points into the particle: -(Sigma n)(x)y + 2U(x)n = (Sigma nhat)(x)y - 2U(x)nhat
        integrand = traction[:, :, None] * y[:, None, :] - 2.0 * u[:, :, None] * xhat[:, None, :]
        M[:, j] = project_sym_tracefree(np.einsum("p,pij->ij", w, integrand))
    return M


def mean_value_reconstruct(ball_avg_u, r, f_radial_avgs):
    """Recover a center value from a ball average and radial source averages.

    For lap u = f, the value at the ball center is

        u(x) = avg_{B(x,r)} u + (1/3) int_0^r (rho^4/r^3 - rho) avg_{B(x,rho)} f drho.

    `f_radial_avgs(rho)` must return the average of f over B(x, rho). The
    radial integral is a 16-point Gauss-Legendre rule on [0, r]: exact when
    that average is a polynomial in rho of degree <= 27, as it is for every
    polynomial f of that degree; for analytic ones the error falls geometrically.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    nodes, wts = np.polynomial.legendre.leggauss(16)
    rho = 0.5 * r * (nodes + 1.0)
    avgs = np.array([f_radial_avgs(p) for p in rho], dtype=float)
    if not np.all(np.isfinite(avgs)):
        raise ValueError(f"non-finite radial average at rho={rho[~np.isfinite(avgs)][0]}")
    correction = 0.5 * r * float(wts @ ((rho ** 4 / r ** 3 - rho) * avgs))
    return float(ball_avg_u) + correction / 3.0

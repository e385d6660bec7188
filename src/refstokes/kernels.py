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
The public point functions are the single-pair case of these kernels, and
`pair_sum` sums them over all pairs in chunks of at most `PAIR_BUDGET`.

Point functions broadcast over leading axes of the evaluation points.
"""

from __future__ import annotations

import numpy as np
from scipy import integrate
from scipy.spatial import cKDTree

from .errors import KernelDomainError
from .sym3 import apply_mobility, embed, project_sym_tracefree

__all__ = [
    "oseen",
    "oseen_gradient",
    "oseen_pressure",
    "stresslet_field",
    "stresslet_strain",
    "stresslet_field_from_moment",
    "stresslet_strain_from_moment",
    "sphere_disturbance",
    "sphere_pressure",
    "sphere_velocity_gradient",
    "sphere_traction",
    "sphere_remainder",
    "sphere_mobility",
    "mobility_from_boundary_integral",
    "mean_value_reconstruct",
    "PAIR_BUDGET",
    "stresslet_strain_kernel",
    "stresslet_velocity_kernel",
    "sphere_disturbance_kernel",
    "pair_offsets",
    "pair_sum",
    "pairs_within",
]

_C8 = 1.0 / (8.0 * np.pi)
_C4 = 1.0 / (4.0 * np.pi)
_C38 = 3.0 * _C8
_IS2 = 1.0 / np.sqrt(2.0)
_IS6 = 1.0 / np.sqrt(6.0)

# (target, source) pairs per chunk of `pair_sum`: each temporary of a chunk
# holds this many float64 values (16 MB).
PAIR_BUDGET = 2_000_000


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


def oseen_gradient(x):
    """Gradient d_k O_ij(x), shape (...,3,3,3) indexed [i,j,k]."""
    x, r2 = _radii(x, "oseen_gradient")
    r = np.sqrt(r2)[..., None, None, None]
    I = np.eye(3)
    xi = x[..., :, None, None]
    xj = x[..., None, :, None]
    xk = x[..., None, None, :]
    return _C8 * ((-I[:, :, None] * xk + I[:, None, :] * xj + I[None, :, :] * xi) / r ** 3
                  - 3.0 * xi * xj * xk / r ** 5)


# ---------------------------------------------------------------------------
# component-major pair kernels


def _moment_terms(m, z, r2):
    """b = embed(m) z (components), s = z.b and |z|^5."""
    mxx = m[0] * _IS2 + m[1] * _IS6
    myy = m[1] * _IS6 - m[0] * _IS2
    mzz = -2.0 * _IS6 * m[1]
    mxy, mxz, myz = m[2] * _IS2, m[3] * _IS2, m[4] * _IS2
    b = (mxx * z[0] + mxy * z[1] + mxz * z[2],
         mxy * z[0] + myy * z[1] + myz * z[2],
         mxz * z[0] + myz * z[1] + mzz * z[2])
    return b, z[0] * b[0] + z[1] * b[1] + z[2] * b[2], r2 * r2 * np.sqrt(r2)


def _basis_coeffs(u, v):
    """Coefficients <E_a, u (x) v> in the sym3 basis, written out component by
    component (each basis matrix has at most three nonzero entries). Must
    stay in sync with sym3.BASIS; pinned by a test."""
    xx, yy = u[0] * v[0], u[1] * v[1]
    return [(xx - yy) * _IS2,
            (xx + yy - 2.0 * u[2] * v[2]) * _IS6,
            (u[0] * v[1] + u[1] * v[0]) * _IS2,
            (u[0] * v[2] + u[2] * v[0]) * _IS2,
            (u[1] * v[2] + u[2] * v[1]) * _IS2]


def stresslet_strain_kernel(m, z, r2):
    """Strain coefficients P_sym(grad K)[m](z) of a point stresslet.

    <E_a, D(K)> = -(3/8pi) [ 2 <E_a, z (x) b>/r^5 - 5 s <E_a, z (x) z>/r^7 ]
    with b = Mz and s = z.Mz; the delta term drops because the basis is
    trace-free. Even in z and homogeneous of degree -3.
    """
    b, s, r5 = _moment_terms(m, z, r2)
    p = (-2.0 * _C38) / r5
    q = (-5.0 * _C38) * s / (r5 * r2)
    return _basis_coeffs(z, [p * bi - q * zi for bi, zi in zip(b, z)])


def stresslet_velocity_kernel(m, z, r2):
    """Velocity of a point stresslet: -(3/8pi) (z.Mz) z/|z|^5."""
    b, s, r5 = _moment_terms(m, z, r2)
    k = (-_C38) * s / r5
    return [k * zi for zi in z]


def sphere_disturbance_kernel(m, z, r2, a):
    """Disturbance of a sphere of radius a in the strain m (see
    `sphere_disturbance`), grouped as z (5/2)(z.Az)(a^5/r^2 - a^3)/r^5 -
    a^5 Az/r^5."""
    b, s, r5 = _moment_terms(m, z, r2)
    k = 2.5 * s * (a ** 5 / r2 - a ** 3) / r5
    c = -a ** 5 / r5
    return [k * zi + c * bi for zi, bi in zip(z, b)]


def _point_kernel(kernel, m, x, r2, **params):
    """A pair kernel at points x (..., 3) with coefficients m (..., 5)."""
    m = np.moveaxis(np.asarray(m, dtype=float), -1, 0)
    return np.stack(kernel(m, np.moveaxis(x, -1, 0), r2, **params), axis=-1)


def stresslet_field_from_moment(moment, x):
    """Velocity of a point stresslet with coefficient `moment` (5-vector).

    For symmetric trace-free M = embed(moment) the contraction of M with the
    Oseen gradient collapses to -(3/8pi) (x.Mx) x / |x|^5.
    `moment` broadcasts against the leading axes of x.
    """
    x, r2 = _radii(x, "stresslet_field")
    return _point_kernel(stresslet_velocity_kernel, moment, x, r2)


def stresslet_strain_from_moment(moment, x):
    """Symmetric trace-free gradient of the stresslet velocity, as coefficients.

    Closed form of P_sym(grad K)[moment](x); homogeneous of degree -3.
    """
    x, r2 = _radii(x, "stresslet_strain")
    return _point_kernel(stresslet_strain_kernel, moment, x, r2)


def stresslet_field(mobility, strain, x):
    """Far-field stresslet velocity of a particle with the given mobility."""
    return stresslet_field_from_moment(apply_mobility(mobility, strain), x)


def stresslet_strain(mobility, strain, x):
    """Strain coefficients induced at x by a particle with the given mobility."""
    return stresslet_strain_from_moment(apply_mobility(mobility, strain), x)


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


def pair_sum(kernel, weights, targets, sources, out, exclude_within=None):
    """Add sum_m kernel(weights_m, targets_l - sources_m) to out[l] for every l.

    weights has one row of coefficients per source; out has one row per
    target. Targets are taken in chunks of at most PAIR_BUDGET pairs, and
    each target's sum over sources is numpy's pairwise sum, so reruns on
    identical input are bit-identical. Returns out.
    """
    w = np.asarray(weights, dtype=float).T
    rows = max(1, PAIR_BUDGET // max(len(sources), 1))
    for start in range(0, len(targets), rows):
        z, r2 = pair_offsets(targets[start:start + rows], sources, exclude_within)
        for c, part in enumerate(kernel(w, z, r2)):
            out[start:start + rows, c] += part.sum(axis=1)
    return out


def pairs_within(targets, sources, radius):
    """Index pairs (l, m), sorted, with |targets_l - sources_m| <= radius,
    and their offsets (K, 3).

    A KD-tree proposes candidates; the distance test itself uses the
    arithmetic of `pair_offsets`, so a pair is kept here exactly when
    `pair_offsets(..., exclude_within=radius)` excludes it.
    """
    found = cKDTree(targets).sparse_distance_matrix(
        cKDTree(sources), radius * (1.0 + 1e-9), output_type="ndarray")
    order = np.lexsort((found["j"], found["i"]))
    t, s = found["i"][order], found["j"][order]
    z = targets[t] - sources[s]
    keep = z[:, 0] * z[:, 0] + z[:, 1] * z[:, 1] + z[:, 2] * z[:, 2] <= radius ** 2
    return t[keep], s[keep], z[keep]


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


def sphere_remainder(strain, a, x):
    """Sphere far-field remainder: disturbance minus the point stresslet.

    H(x) = -a^5 [Ax/|x|^5 - (5/2)(x.Ax) x/|x|^7]; exactly degree 5 in a,
    decays like |x|^{-3}. Defined for |x| > 4a.
    """
    xb, A, r2, b, s = _sphere_terms(strain, a, x)
    if np.any(r2 <= (4.0 * a) ** 2):
        raise KernelDomainError("sphere_remainder requires |x| > 4a")
    r = np.sqrt(r2)
    r5 = r ** 5
    r7 = r5 * r2
    u = -a ** 5 * (b / r5[..., None] - 2.5 * (s / r7)[..., None] * xb)
    return u.reshape(np.shape(x))


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
    radial integral is evaluated by adaptive quadrature to 1e-10 absolute.
    """
    if r <= 0:
        raise ValueError("radius must be positive")

    def integrand(rho):
        v = (rho ** 4 / r ** 3 - rho) * f_radial_avgs(rho)
        if not np.isfinite(v):
            raise ValueError(f"non-finite integrand at rho={rho}")
        return v

    correction, _ = integrate.quad(integrand, 0.0, r, epsabs=1e-10, limit=200)
    return float(ball_avg_u) + correction / 3.0

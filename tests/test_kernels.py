import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest

from refstokes import kernels, sym3
from refstokes.errors import KernelDomainError

from conftest import central_difference, second_difference_laplacian

UNIAXIAL = sym3.project_sym_tracefree(np.diag([1.0, -0.5, -0.5]))


# ---------------------------------------------------------------------------
# fundamental solution


def test_oseen_reference_point():
    O = kernels.oseen(np.array([1.0, 0.0, 0.0]))
    assert np.allclose(O, np.diag([2.0, 1.0, 1.0]) / (8 * np.pi), atol=1e-16)


def test_oseen_symmetric_in_x():
    x = np.array([0.3, -1.2, 2.1])
    assert np.allclose(kernels.oseen(x), kernels.oseen(-x), atol=0.0)


def test_oseen_homogeneity():
    x = np.array([0.4, 1.0, -0.7])
    for lam in (2.0, 4.0, 8.0):
        assert np.allclose(kernels.oseen(lam * x), kernels.oseen(x) / lam, rtol=1e-12)


def test_oseen_row_divergence():
    # sum_i d_i O_ij = 0, by central differences
    x = np.array([1.0, 2.0, 3.0])
    fd = np.zeros(3)
    for i in range(3):
        e = np.zeros(3)
        e[i] = 1e-4
        fd += (kernels.oseen(x + e)[i] - kernels.oseen(x - e)[i]) / 2e-4
    assert np.max(np.abs(fd)) < 1e-6


def test_point_functions_need_three_coordinates():
    for fn in (kernels.oseen, kernels.oseen_pressure):
        with pytest.raises(ValueError, match=r"trailing axis of length 3, got shape \(4, 2\)"):
            fn(np.ones((4, 2)))


def test_oseen_zero_input_raises():
    with pytest.raises(KernelDomainError):
        kernels.oseen(np.zeros(3))
    with pytest.raises(KernelDomainError):
        kernels.oseen_pressure(np.zeros(3))


def test_pressure_reference_and_homogeneity():
    q = kernels.oseen_pressure(np.array([1.0, 0.0, 0.0]))
    assert np.allclose(q, [1 / (4 * np.pi), 0, 0], atol=1e-16)
    x = np.array([0.5, -0.2, 0.9])
    for lam in (2.0, 4.0):
        assert np.allclose(kernels.oseen_pressure(lam * x),
                           kernels.oseen_pressure(x) / lam ** 2, rtol=1e-12)


def test_pressure_harmonic():
    lap = second_difference_laplacian(kernels.oseen_pressure,
                                      np.array([1.0, 1.0, 1.0]), 1e-4)
    assert np.max(np.abs(lap)) < 1e-5


def test_stokes_residual_of_fundamental_pair(rng):
    # -lap(O_ij) + d_i q_j = 0 away from the origin
    for _ in range(100):
        x = rng.uniform(-10, 10, size=3)
        r = np.linalg.norm(x)
        if not (1.0 < r < 10.0):
            x *= 5.0 / max(r, 1e-9)
        lap = second_difference_laplacian(lambda y: kernels.oseen(y).reshape(9),
                                          x, 1e-4).reshape(3, 3)
        gq = central_difference(kernels.oseen_pressure, x, 1e-4)  # [j, i] = d_i q_j
        assert np.max(np.abs(-lap + gq.T)) < 1e-4


# ---------------------------------------------------------------------------
# stresslet field and its strain


def test_stresslet_field_sphere_example():
    mob = kernels.sphere_mobility(1.0)
    u = kernels.stresslet_field(mob, UNIAXIAL, np.array([2.0, 0.0, 0.0]))
    assert np.allclose(u, [-5.0 / 8.0, 0.0, 0.0], atol=1e-14)


def test_stresslet_field_far_limit_of_sphere():
    # |x|^2 u_sphere -> the stresslet field amplitude at large |x|
    mob = kernels.sphere_mobility(1.0)
    x = np.array([10.0, -4.0, 3.0])
    x *= 100.0 / np.linalg.norm(x)
    full = kernels.sphere_disturbance(UNIAXIAL, 1.0, x)
    ff = kernels.stresslet_field(mob, UNIAXIAL, x)
    assert np.linalg.norm(full - ff) < 1e-3 * np.linalg.norm(ff)
    # the sphere disturbance is the point stresslet plus a part exactly degree 5 in a
    y = np.array([5.0, 1.0, -2.0])
    h1, h2 = (kernels.sphere_disturbance(UNIAXIAL, a, y)
              - kernels.stresslet_field(kernels.sphere_mobility(a), UNIAXIAL, y)
              for a in (1.0, 0.5))
    assert np.max(np.abs(h1 - 32.0 * h2)) < 1e-13 * np.max(np.abs(h1))


def test_stresslet_field_homogeneity(rng):
    mob = kernels.sphere_mobility(1.0)
    x = np.array([1.1, 0.4, -0.8])
    for lam in (2.0, 4.0, 8.0):
        u1 = kernels.stresslet_field(mob, UNIAXIAL, lam * x)
        u0 = kernels.stresslet_field(mob, UNIAXIAL, x)
        assert np.max(np.abs(u1 * lam ** 2 - u0)) < 1e-12 * np.max(np.abs(u0))


def test_stresslet_field_mobility_scaling():
    # scaling the mobility by a^3 scales the field by a^3 exactly
    x = np.array([1.5, -2.0, 0.3])
    base = kernels.stresslet_field(kernels.sphere_mobility(1.0), UNIAXIAL, x)
    for a in (0.5, 0.25):
        scaled = kernels.stresslet_field(kernels.sphere_mobility(a), UNIAXIAL, x)
        assert np.array_equal(scaled, a ** 3 * base)


def test_stresslet_field_divergence_free(rng):
    mob = kernels.sphere_mobility(1.0)
    for _ in range(20):
        x = rng.normal(size=3)
        x *= rng.uniform(1.0, 10.0) / np.linalg.norm(x)
        fd = central_difference(
            lambda y: kernels.stresslet_field(mob, UNIAXIAL, y), x, 1e-4)
        assert abs(np.trace(fd)) < 1e-6


def test_stresslet_strain_sphere_example():
    mob = kernels.sphere_mobility(1.0)
    out = kernels.stresslet_strain(mob, UNIAXIAL, np.array([10.0, 0.0, 0.0]))
    assert np.allclose(out, 0.005 * UNIAXIAL, atol=1e-15)
    # independent oracle: projected central differences of the velocity field
    grad = central_difference(
        lambda y: kernels.stresslet_field(mob, UNIAXIAL, y),
        np.array([10.0, 0.0, 0.0]), 1e-5 * 10.0)
    fd = sym3.project_sym_tracefree(grad)
    assert np.max(np.abs(out - fd)) < 1e-8


def test_stresslet_strain_matches_fd_random(rng):
    mob = kernels.sphere_mobility(1.0)
    strains = rng.normal(size=(100, 5))
    for s in strains:
        x = rng.normal(size=3)
        x *= rng.uniform(1.0, 10.0) / np.linalg.norm(x)
        out = kernels.stresslet_strain(mob, s, x)
        grad = central_difference(
            lambda y: kernels.stresslet_field(mob, s, y), x, 1e-5 * np.linalg.norm(x))
        fd = sym3.project_sym_tracefree(grad)
        assert np.max(np.abs(out - fd)) < 1e-7 * max(np.max(np.abs(out)), 1.0)


def test_stresslet_strain_homogeneity_and_trace(rng):
    mob = kernels.sphere_mobility(1.0)
    x = np.array([0.9, -1.4, 0.5])
    d0 = kernels.stresslet_strain(mob, UNIAXIAL, x)
    for lam in (2.0, 4.0, 8.0):
        d1 = kernels.stresslet_strain(mob, UNIAXIAL, lam * x)
        assert np.max(np.abs(d1 * lam ** 3 - d0)) < 1e-12 * np.max(np.abs(d0))
    assert abs(np.trace(sym3.embed(d0))) < 1e-13


# ---------------------------------------------------------------------------
# sphere disturbance, traction


def test_sphere_boundary_condition(rng):
    a = 0.7
    pts = rng.normal(size=(500, 3))
    pts *= a / np.linalg.norm(pts, axis=1, keepdims=True)
    u = kernels.sphere_disturbance(UNIAXIAL, a, pts)
    target = -pts @ sym3.embed(UNIAXIAL).T
    err = np.max(np.linalg.norm(u - target, axis=1))
    assert err < 1e-12 * np.linalg.norm(UNIAXIAL) * a


def test_sphere_disturbance_divergence_free():
    a = 0.8
    x = np.array([2 * a, a, 0.0])
    fd = central_difference(lambda y: kernels.sphere_disturbance(UNIAXIAL, a, y),
                            x, 1e-4 * a)
    assert abs(np.trace(fd)) < 1e-6


def test_sphere_disturbance_inside_raises():
    with pytest.raises(KernelDomainError):
        kernels.sphere_disturbance(UNIAXIAL, 1.0, np.array([0.5, 0.0, 0.0]))


@pytest.mark.parametrize("fn", [kernels.sphere_disturbance, kernels.sphere_pressure,
                                kernels.sphere_traction])
def test_sphere_point_functions_refuse_the_interior(fn):
    a = 0.3
    on_surface = np.array([[0.0, a, 0.0], [a, 0.0, 0.0]])
    assert np.all(np.isfinite(fn(UNIAXIAL, a, on_surface)))
    with pytest.raises(KernelDomainError, match=f"{fn.__name__} evaluated inside the sphere"):
        fn(UNIAXIAL, a, np.array([[2 * a, 0.0, 0.0], [0.0, 0.99 * a, 0.0]]))
    with pytest.raises(KernelDomainError, match=f"{fn.__name__} evaluated at x = 0"):
        fn(UNIAXIAL, a, np.zeros(3))


@pytest.mark.parametrize("a", [1.0, 0.05])
def test_sphere_traction_matches_finite_differences(rng, a):
    # t = (grad u + grad u^T) n - p n (mu = 1) away from the surface
    for _ in range(5):
        strain = rng.normal(size=5)
        x = rng.normal(size=(50, 3))
        x *= rng.uniform(1.05 * a, 4.0 * a, size=(50, 1)) / np.linalg.norm(x, axis=1, keepdims=True)
        n = x / np.linalg.norm(x, axis=1, keepdims=True)
        grad = central_difference(lambda y: kernels.sphere_disturbance(strain, a, y), x, 1e-5 * a)
        sigma = grad + np.swapaxes(grad, -1, -2)
        p = kernels.sphere_pressure(strain, a, x)
        fd = np.einsum("pij,pj->pi", sigma, n) - p[:, None] * n
        t = kernels.sphere_traction(strain, a, x)
        assert t.shape == x.shape and p.shape == (50,)
        assert np.max(np.abs(t - fd)) <= 1e-7 * np.max(np.abs(t))


def test_sphere_stokes_residual(rng):
    # -lap u + grad p = 0 outside the sphere (mu = 1)
    a = 1.0
    for _ in range(10):
        x = rng.normal(size=3)
        x *= rng.uniform(1.5, 4.0) / np.linalg.norm(x)
        lap = second_difference_laplacian(
            lambda y: kernels.sphere_disturbance(UNIAXIAL, a, y), x, 1e-5)
        gp = central_difference(
            lambda y: np.atleast_1d(kernels.sphere_pressure(UNIAXIAL, a, y)), x, 1e-5)
        assert np.max(np.abs(-lap + gp[0])) < 1e-4


# ---------------------------------------------------------------------------
# boundary-integral mobility


def test_mobility_boundary_integral_sphere():
    M = kernels.mobility_from_boundary_integral(1.0)
    target = (20 * np.pi / 3) * np.eye(5)
    assert np.max(np.abs(M - target)) < 1e-8
    off = M - np.diag(np.diag(M))
    assert np.max(np.abs(off)) < 1e-8


def test_mobility_boundary_integral_radius_scaling():
    M = kernels.mobility_from_boundary_integral(0.5)
    assert np.max(np.abs(M - (20 * np.pi / 3) / 8 * np.eye(5))) < 1e-8


def test_mobility_boundary_integral_convergence(monkeypatch):
    # the integrand is a low-degree spherical polynomial: order 2 is already
    # exact, order growth keeps the error at rounding level. Monitor the drop
    # with a one-point rule computed by the same assembly for contrast.
    target = (20 * np.pi / 3) * np.eye(5)
    errs = []
    for order in (2, 4, 8, 16):
        monkeypatch.setattr(kernels, "_BOUNDARY_ORDER", order)
        errs.append(np.max(np.abs(kernels.mobility_from_boundary_integral(1.0) - target)))
    assert all(e < 1e-12 for e in errs)
    # the same rule on a non-polynomial surface integrand converges at its
    # theoretical (spectral) rate: errors drop by orders of magnitude per step
    exact = 4 * np.pi * np.sinh(1.0)   # integral of exp(z) over the unit sphere
    prev = np.inf
    for order in (2, 4, 8):
        xhat, w = kernels._surface_quadrature(1.0, order)
        err = abs(float(w @ np.exp(xhat[:, 2])) - exact)
        assert err < max(0.51 * prev, 1e-14)
        prev = err


# ---------------------------------------------------------------------------
# ball-average reconstruction


def test_mean_value_quadratic():
    # u = |y|^2, lap u = 6; ball average over B(0,1) is 3/5 and the radial
    # correction integrates to -3/5, recovering u(0) = 0
    val = kernels.mean_value_reconstruct(3.0 / 5.0, 1.0, lambda rho: 6.0)
    assert abs(val) < 1e-10


def test_mean_value_zero_source_identity():
    assert kernels.mean_value_reconstruct(1.234, 0.7, lambda rho: 0.0) == 1.234


def test_mean_value_affine_exact(rng):
    for _ in range(10):
        c = rng.normal(size=3)
        x = rng.normal(size=3)
        r = rng.uniform(0.1, 2.0)
        val = kernels.mean_value_reconstruct(c @ x + 1.0, r, lambda rho: 0.0)
        assert abs(val - (c @ x + 1.0)) < 1e-10


@pytest.mark.parametrize("r", [0.1, 1.0, 2.0])
@pytest.mark.parametrize("avg", [lambda rho: np.exp(-rho * rho),
                                 lambda rho: 1.0 / (1.0 + rho * rho),
                                 lambda rho: np.cos(3.0 * rho)], ids=["gauss", "lorentz", "cos3"])
def test_mean_value_matches_adaptive_quadrature(avg, r):
    # the fixed radial rule against adaptive quadrature, on smooth averages no
    # polynomial rule integrates exactly
    from scipy import integrate

    ref, _ = integrate.quad(lambda rho: (rho ** 4 / r ** 3 - rho) * avg(rho), 0.0, r,
                            epsabs=1e-13, limit=200)
    assert abs(kernels.mean_value_reconstruct(0.5, r, avg) - (0.5 + ref / 3.0)) <= 1e-13


def test_mean_value_errors():
    with pytest.raises(ValueError):
        kernels.mean_value_reconstruct(0.0, -1.0, lambda rho: 0.0)
    with pytest.raises(ValueError):
        kernels.mean_value_reconstruct(0.0, 1.0, lambda rho: np.nan)


# ---------------------------------------------------------------------------
# pair engine: chunked pair sums against plain loops over the point functions

SPHERE_A = 0.05
PAIR_KERNELS = {
    "strain": (kernels.stresslet_strain_kernel, partial(kernels.stresslet_strain, np.eye(5))),
    "velocity": (kernels.stresslet_velocity_kernel, partial(kernels.stresslet_field, np.eye(5))),
    "sphere": (partial(kernels.sphere_disturbance_kernel, a=SPHERE_A),
               lambda w, x: kernels.sphere_disturbance(w, SPHERE_A, x)),
}


def loop_pair_sum(point, weights, targets, sources, skip_self=False):
    """The point function summed over the sources, one call per target (the
    point functions broadcast over the sources); skip_self leaves out source l
    at target l. Offsets are x_l - x_m, target minus source; the velocity and
    sphere kernels are odd in the offset, so a flipped orientation fails the tests."""
    rows = []
    for l, x in enumerate(targets):
        keep = np.arange(len(sources)) != l if skip_self else slice(None)
        rows.append(point(weights[keep], x - sources[keep]).sum(axis=0))
    return np.array(rows)


def test_row_blocks_hold_whole_rows_within_the_budget(monkeypatch):
    monkeypatch.setattr(kernels, "PAIR_BUDGET", 16)
    assert list(kernels.row_blocks(11, 5)) == [slice(s, s + 3) for s in (0, 3, 6, 9)]
    assert list(kernels.row_blocks(40, 1)) == [slice(0, 16), slice(16, 32), slice(32, 48)]
    # a row larger than the budget is a block of its own; no rows, no blocks
    assert list(kernels.row_blocks(2, 100)) == [slice(0, 1), slice(1, 2)]
    assert list(kernels.row_blocks(0, 5)) == []


@pytest.mark.parametrize("budget, starts", [(3, range(11)), (16, [0, 3, 6, 9])])
def test_pair_blocks_cover_each_target_row_once(monkeypatch, rng, budget, starts):
    # 11 targets x 5 sources: budget 3 is less than one row, 16 holds three
    monkeypatch.setattr(kernels, "PAIR_BUDGET", budget)
    targets, sources = rng.normal(size=(11, 3)), rng.normal(size=(5, 3))
    blocks = list(kernels.pair_blocks(targets, sources, exclude_within=0.5))
    assert [rows.start for rows, _, _ in blocks] == list(starts)
    assert np.array_equal(np.concatenate([np.arange(11)[rows] for rows, _, _ in blocks]),
                          np.arange(11))
    for rows, z, r2 in blocks:
        want_z, want_r2 = kernels.pair_offsets(targets[rows], sources, exclude_within=0.5)
        assert np.array_equal(z, want_z) and np.array_equal(r2, want_r2)
    assert not list(kernels.pair_blocks(targets[:0], sources))


@pytest.mark.parametrize("name", sorted(PAIR_KERNELS))
def test_pair_kernels_leave_their_inputs_alone(rng, name):
    # pair_interaction_matrix passes one z and r2 to five kernel calls, so a
    # kernel that wrote to its inputs would corrupt the dense oracle silently
    kernel, _ = PAIR_KERNELS[name]
    z = rng.normal(size=(3, 6, 7))
    r2 = np.einsum("i...,i...->...", z, z)
    r2[2, 3] = np.inf
    inputs = (sym3.sym_matrix(rng.normal(size=(5, 6, 7))),
              sym3.sym_matrix(rng.normal(size=(5, 7))), z, r2)
    before = [a.copy() for a in inputs]
    for m in inputs[:2]:
        first = np.stack(kernel(m, z, r2))
        assert np.array_equal(first, np.stack(kernel(m, z, r2)))
    assert all(np.array_equal(a, b) for a, b in zip(inputs, before))


@pytest.mark.parametrize("name", sorted(PAIR_KERNELS))
def test_pair_kernels_give_exact_zeros_at_infinite_r2(rng, name):
    # an excluded pair (r2 = inf) adds exactly nothing, at a zero offset or not,
    # without a RuntimeWarning; pair_offsets excludes the self-pairs that way
    kernel, _ = PAIR_KERNELS[name]
    m = sym3.sym_matrix(rng.normal(size=(5, 2)))
    z = np.stack([np.zeros(3), rng.normal(size=3)], axis=1)
    x = rng.normal(size=(7, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert np.all(np.stack(kernel(m, z, np.full(2, np.inf))) == 0.0)
        out = np.stack(kernel(sym3.sym_matrix(rng.normal(size=(5, 7))),
                              *kernels.pair_offsets(x, x, exclude_within=0.0)))
    assert np.all(out[:, np.arange(7), np.arange(7)] == 0.0)
    assert np.all(out[:, ~np.eye(7, dtype=bool)] != 0.0)


# ---------------------------------------------------------------------------
# the reflection sweep's strain sum


def long_double_strain_sum(weights, points):
    """The entries of `stresslet_strain_kernel` summed over every other point, by
    the kernel's own formula, v = p Mz - q z, in np.longdouble, 50 targets at a time."""
    ld = np.longdouble
    m, x = sym3.sym_matrix(weights.T.astype(ld)), points.astype(ld)
    c = ld(3) / (ld(8) * ld(np.pi))
    out = np.empty((len(x), 6), dtype=ld)
    for start in range(0, len(x), 50):
        z = x[start:start + 50, None, :] - x[None, :, :]
        r2 = np.sum(z * z, axis=-1)
        r2[r2 == 0] = np.inf
        b = np.einsum("ijm,tmj->tmi", m, z)
        s = np.sum(z * b, axis=-1)
        v = (-2 * c / r2 ** 2 / np.sqrt(r2))[..., None] * b \
            - (-5 * c * s / r2 ** 3 / np.sqrt(r2))[..., None] * z
        e = np.einsum("tmi,tmj->tij", z, v)
        out[start:start + 50] = np.stack([e[:, 0, 0], e[:, 1, 1], e[:, 2, 2],
                                          e[:, 0, 1] + e[:, 1, 0], e[:, 0, 2] + e[:, 2, 0],
                                          e[:, 1, 2] + e[:, 2, 1]], axis=1)
    return out


def projected(entries):
    """The (targets, 5) coefficients of (targets, 6) summed strain kernel entries."""
    return np.stack(sym3.sym_coefficients(entries.T), axis=1)


def strain_sums(weights, targets, sources):
    """`stresslet_strain_sum` and the six summed `stresslet_strain_kernel` entries
    it projects, (targets, 6), read from the engine; the sum must be exactly their
    projection, so a check of the coefficients checks the projected entries too."""
    e = kernels._block_moment_sum(weights, targets, sources, kernels.stresslet_strain_kernel,
                                  kernels._strain_block, 9)
    entries = np.concatenate([e[:, :3], e[:, 3:6] + e[:, 6:]], axis=1)
    got = kernels.stresslet_strain_sum(weights, targets, sources)
    assert np.array_equal(got, projected(entries))
    return got, entries


def test_strain_sum_matches_a_long_double_direct_sum(rng):
    # the 1000-particle cloud of the bench's reflect_rsa, with random SPD mobilities
    from refstokes import cloud as cl
    c = cl.generate_rsa(np.array([[0.0] * 3, [1.0] * 3]), 1000, 0.003, 0.03, seed=0)
    root = rng.normal(size=(c.n, 5, 5))
    spd = root @ root.transpose(0, 2, 1) + 0.1 * np.eye(5)
    weights = sym3.apply_mobility(spd, rng.normal(size=(c.n, 5)))
    got, entries = strain_sums(weights, c.centers, c.centers)
    want = long_double_strain_sum(weights, c.centers)
    assert np.linalg.norm(entries - want) <= 1e-12 * np.linalg.norm(want)
    want = projected(want)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def lattice(n):
    return np.stack(np.meshgrid(*[np.arange(n) / n] * 3, indexing="ij"), axis=-1).reshape(-1, 3)


TWO_POINTS = np.array([[0.0, 0.0, 0.0], [0.3, 0.1, -0.2]])


@pytest.mark.parametrize("points", [lattice(7), lattice(1), TWO_POINTS],
                         ids=["lattice", "one", "two"])
def test_strain_sum_matches_pair_sum(rng, points):
    # 343 lattice sites: several source blocks and two target chunks
    weights = rng.normal(size=(len(points), 5))
    got, _ = strain_sums(weights, points, points)
    want = loop_pair_sum(PAIR_KERNELS["strain"][1], weights, points, points, skip_self=True)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_strain_sum_of_coincident_points_is_zero(rng):
    # self-pairs and coincident centres add exactly zero, in one block or many
    for copies in (2, 3, 100):
        points = np.tile([[0.1, 0.2, 0.3]], (copies, 1))
        weights = rng.normal(size=(copies, 5))
        got, entries = strain_sums(weights, points, points)
        assert np.all(entries == 0.0) and np.all(got == 0.0)
    # a coincident pair next to a third point sees only the third point
    points = np.array([[0.1, 0.2, 0.3], [0.1, 0.2, 0.3], [0.6, -0.1, 0.2]])
    weights = rng.normal(size=(3, 5))
    got, _ = strain_sums(weights, points, points)
    point = PAIR_KERNELS["strain"][1]
    assert np.allclose(got[2:], loop_pair_sum(point, weights[:2], points[2:], points[:2]),
                       rtol=1e-13, atol=0.0)
    one = loop_pair_sum(point, weights[2:], points[:1], points[2:])
    assert np.allclose(got[:2], one, rtol=1e-13, atol=0.0)


def test_strain_sum_takes_close_pairs_through_the_kernel(rng):
    # a pair 1e-4 apart in a block of radius ~0.5: expanded about the block's
    # centroid, its r2 and s would lose about 8 of 16 digits to cancellation
    points = np.concatenate([lattice(4), lattice(4)[21:22] + 1e-4])
    weights = rng.normal(size=(len(points), 5))
    got, _ = strain_sums(weights, points, points)
    want = loop_pair_sum(PAIR_KERNELS["strain"][1], weights, points, points, skip_self=True)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_strain_sum_memory_is_within_the_pair_sum(rng):
    # the block features and (targets x block) temporaries, not the 2000 x 2000
    # pairs, set the peak (1.0 MiB): within the 1.6 MiB of the pair-by-pair sum
    # this engine replaced
    centers = rng.uniform(-1.0, 1.0, size=(2000, 3))
    weights = rng.normal(size=(2000, 5))
    tracemalloc.start()
    try:
        assert np.all(np.isfinite(kernels.stresslet_strain_sum(weights, centers, centers)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * 2 ** 20


def test_block_sums_do_not_depend_on_the_other_targets(rng):
    # every target chunk is padded to one width, so every product of a call has
    # one shape: rows computed alone or in any slice keep the bits of the whole call
    from refstokes import cloud as cl
    c = cl.generate_rsa(np.array([[0.0] * 3, [1.0] * 3]), 1000, 0.003, 0.03, seed=0)
    weights = rng.normal(size=(c.n, 5))
    targets = rng.uniform(0.0, 1.0, size=(600, 3))
    sums = [(lambda p: kernels.stresslet_strain_sum(weights, p, c.centers), c.centers),
            (lambda p: kernels.velocity_sum(weights, p, c.centers), targets),
            (lambda p: kernels.velocity_sum(weights, p, c.centers, 0.003), targets)]
    for call, points in sums:
        whole = call(points)
        for rows in (slice(0, 44), slice(1, 45), slice(0, 257), slice(100, 400)):
            assert np.array_equal(call(points[rows]), whole[rows])


def operator_clouds(rng):
    """Point sets for the sweep operator: RSA clouds of 1 to 1000 centres (one leaf, one
    leaf and one, several leaves and target chunks), a lattice, whose distances tie and
    whose leaves split at equal coordinates, and centres with coincident copies."""
    from refstokes import cloud as cl
    box = np.array([[0.0] * 3, [1.0] * 3])
    for n in (1, 2, 63, 64, 65, 300, 1000):
        yield cl.generate_rsa(box, n, 0.04 * n ** (-1.0 / 3.0), 0.2 * n ** (-1.0 / 3.0),
                              seed=1).centers
    yield lattice(7)
    points = rng.uniform(0.0, 1.0, size=(150, 3))
    yield np.concatenate([points, points[::3], points[:5]])
    yield np.tile([[0.1, 0.2, 0.3]], (70, 1))


def test_strain_operator_is_the_strain_sum_bit_for_bit(rng):
    # targets in leaf order, scattered back: each target keeps its bits, because
    # they do not depend on its chunk mates; one operator serves any weights
    for points in operator_clouds(rng):
        apply = kernels.strain_operator(points)
        for _ in range(2):
            weights = rng.normal(size=(len(points), 5))
            want = kernels.stresslet_strain_sum(weights, points, points)
            assert np.array_equal(apply(weights), want), len(points)


def test_strain_operator_holds_o_n_floats(rng):
    # the leaves, their y, r2 and strain features and the centres in leaf order:
    # about 34 floats a centre, where a (leaf, chunk) feature would grow as N^2
    for n in (1000, 4000):
        points = rng.uniform(0.0, 1.0, size=(n, 3))
        tracemalloc.start()
        try:
            apply = kernels.strain_operator(points)
            resident, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert resident <= peak <= 8 * 40 * n + 2 ** 14, (n, resident, peak)
        assert apply(np.ones((n, 5))).shape == (n, 5)


# ---------------------------------------------------------------------------
# the velocity sum


def long_double_velocity_sum(weights, targets, sources, a=None):
    """The velocity of every source at every target by the closed forms, in
    np.longdouble, 50 targets at a time: the sphere disturbance of radius a,
    c Sz + k z, or with no a the point stresslet -(3/8pi) (z.Sz) z/r^5."""
    ld = np.longdouble
    m, y = sym3.sym_matrix(weights.T.astype(ld)), sources.astype(ld)
    out = np.empty((len(targets), 3), dtype=ld)
    for start in range(0, len(targets), 50):
        z = targets[start:start + 50, None, :].astype(ld) - y[None]
        r2 = np.sum(z * z, axis=-1)
        b = np.einsum("ijm,tmj->tmi", m, z)
        s = np.sum(z * b, axis=-1)
        r5 = r2 ** 2 * np.sqrt(r2)
        if a is None:
            u = (-ld(3) / (ld(8) * ld(np.pi)) * s / r5)[..., None] * z
        else:
            a = ld(a)
            u = (-a ** 5 / r5)[..., None] * b \
                + (ld(2.5) * s * (a ** 5 / r2 - a ** 3) / r5)[..., None] * z
        out[start:start + 50] = u.sum(axis=1)
    return out


@pytest.mark.parametrize("n", [200, 2000])
@pytest.mark.parametrize("sphere", [True, False], ids=["sphere", "point"])
def test_velocity_sum_matches_a_long_double_direct_sum(rng, n, sphere):
    # RSA clouds of the compare workload's volume fraction 1e-3 (dmin 0.08 at
    # N = 200, the bench's compare_rsa cloud); targets outside 4a of every
    # centre, and on particle surfaces, which lie within rho/16 of their centre
    # for every source block, so those pairs take the pair kernel
    from refstokes import cloud as cl, effective
    a = (3e-3 / (4.0 * np.pi * n)) ** (1.0 / 3.0)
    c = cl.generate_rsa(np.array([[0.0] * 3, [1.0] * 3]), n, a,
                        0.08 if n == 200 else 0.6 * n ** (-1.0 / 3.0), seed=1)
    rho = min(np.max(np.linalg.norm(c.centers[i] - c.centers[i].mean(axis=0), axis=1))
              for i in kernels._compact_blocks(c.centers))
    assert a < rho / 16.0
    targets = rng.uniform(-0.2, 1.2, size=(700, 3))
    normals = rng.normal(size=(300, 3))
    normals *= a / np.linalg.norm(normals, axis=1, keepdims=True)
    targets = np.concatenate([targets[effective.outside_balls(targets, c)],
                              c.centers[rng.integers(0, n, 300)] + normals])
    if sphere:
        weights = rng.normal(size=(n, 5))
    else:
        root = rng.normal(size=(n, 5, 5))
        weights = sym3.apply_mobility(a ** 3 * (root @ root.transpose(0, 2, 1) + 0.1 * np.eye(5)),
                                      rng.normal(size=(n, 5)))
    radius = a if sphere else None
    got = kernels.velocity_sum(weights, targets, c.centers, radius)
    want = long_double_velocity_sum(weights, targets, c.centers, radius)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    surface = slice(len(targets) - 300, None)
    assert np.linalg.norm(got[surface] - want[surface]) <= 1e-12 * np.linalg.norm(want[surface])


@pytest.mark.parametrize("sphere", [True, False], ids=["sphere", "point"])
@pytest.mark.parametrize("points", [lattice(7), lattice(1), TWO_POINTS],
                         ids=["lattice", "one", "two"])
def test_velocity_sum_matches_pair_sum(rng, points, sphere):
    # 343 lattice sites: several source blocks; the targets, cell centres of the
    # lattice and a shifted copy, fill two target chunks and part of a third
    weights = rng.normal(size=(len(points), 5))
    targets = np.concatenate([lattice(7) + 0.5 / 7, lattice(7) + [0.03, 0.0, 0.0]])
    point = ((lambda w, x: kernels.sphere_disturbance(w, 0.02, x)) if sphere
             else PAIR_KERNELS["velocity"][1])
    got = kernels.velocity_sum(weights, targets, points, 0.02 if sphere else None)
    want = loop_pair_sum(point, weights, targets, points)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_velocity_sum_memory_does_not_grow_with_targets(rng):
    # the block features, a chunk's (block x chunk) temporaries and its near
    # pairs are dropped when the next chunk takes their place, so beyond the
    # result the peak of 16,384 targets holds for 100,000 to 16 KiB; a
    # (3, targets) copy alone would add 2 MiB
    sources = rng.uniform(0.0, 1.0, size=(50, 3))
    weights = rng.normal(size=(50, 5))
    peaks = []
    for n_targets in (16_384, 100_000):
        targets = rng.uniform(-1.0, 2.0, size=(n_targets, 3))
        tracemalloc.start()
        try:
            out = kernels.velocity_sum(weights, targets, sources, 0.01)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(out))
        peaks.append(peak - out.nbytes)
    assert peaks[1] < peaks[0] + 2 ** 14


def brute_force_pairs(targets, sources, radius):
    # every pair, kept by the arithmetic of pair_offsets, in (target, source) order
    z, r2 = kernels.pair_offsets(targets, sources)
    t, s = np.nonzero(r2 <= radius ** 2)
    return t, s, np.stack([part[t, s] for part in z], axis=-1)


def pair_search_cases(rng):
    box = rng.uniform(0, 1, size=(300, 3))
    yield box, box[:40], 0.15               # more targets than sources
    yield box[:40], box, 0.15               # more sources than targets
    yield box, box, 0.1                     # self-pairs
    yield box[:0], box, 0.1                 # empty sets
    yield box, box[:0], 0.1
    yield box[:1], box[1:2], 2.0            # single points
    yield box[:1], box, 0.3
    yield box[:1], box[:1], 0.0             # a zero radius keeps coincident points
    grid = np.stack(np.meshgrid(*[np.arange(5) * 0.25] * 3, indexing="ij"),
                    axis=-1).reshape(-1, 3)
    yield grid, grid[::3], 0.25             # many pairs exactly at the radius
    steps = rng.normal(size=(40, 3))
    steps *= 0.1 / np.linalg.norm(steps, axis=1, keepdims=True)
    yield box[:40] + steps, box, 0.1        # pairs at the radius up to rounding
    yield rng.uniform(-3, 4, size=(500, 3)), box, 0.3   # targets outside the sources
    yield rng.uniform(-3, 4, size=(100, 3)), box, 0.3
    near = box + rng.uniform(-1e-7, 1e-7, size=box.shape)
    yield near, box, 1e-7                   # 10^7 cubes a side: keys past int64
    yield box, box[:50], 1e-300             # cube indices past int64
    # a pair exactly at the radius that would span three cubes of side
    # 0.25 * (1 - 1e-9): the cubes must be no smaller than the radius
    edge = np.array([[0.0, 0.0, 0.0], [0.5 - 2.0 ** -31, 0.5, 0.5], [1.0, 1.0, 1.0]])
    yield edge[1:2] - [0.25, 0.0, 0.0], edge, 0.25


def test_pairs_within_matches_brute_force(rng):
    for targets, sources, radius in pair_search_cases(rng):
        expected = brute_force_pairs(targets, sources, radius)
        got = kernels.pairs_within(targets, sources, radius)
        for a, b in zip(got, expected):
            assert a.shape == b.shape
            assert np.array_equal(a, b)

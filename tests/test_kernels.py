import tracemalloc
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
    # offsets are x_l - x_m, target minus source; the velocity and sphere
    # kernels are odd in the offset, so a flipped orientation fails the tests
    return np.array([np.sum([point(weights[m], x - y) for m, y in enumerate(sources)
                             if not (skip_self and m == l)], axis=0)
                     for l, x in enumerate(targets)])


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


@pytest.mark.parametrize("budget", [5, 16])
@pytest.mark.parametrize("name", sorted(PAIR_KERNELS))
def test_pair_sum_matches_point_loop(monkeypatch, rng, name, budget):
    # 9 targets x 7 sources: budget 5 gives one-row chunks, 16 gives 2,2,2,2,1
    kernel, point = PAIR_KERNELS[name]
    monkeypatch.setattr(kernels, "PAIR_BUDGET", budget)
    sources = rng.uniform(-1.0, 1.0, size=(7, 3))
    targets = rng.uniform(-1.0, 1.0, size=(9, 3))
    gaps = np.linalg.norm(targets[:, None] - sources[None], axis=-1)
    assert np.min(gaps) > 2 * SPHERE_A
    weights = rng.normal(size=(7, 5))
    expected = loop_pair_sum(point, weights, targets, sources)
    got = kernels.pair_sum(kernel, weights, targets, sources,
                           np.zeros(expected.shape))
    assert np.max(np.abs(got - expected)) < 1e-13 * np.max(np.abs(expected))


@pytest.mark.parametrize("name", ["strain", "velocity"])
def test_pair_sum_excludes_self_pairs(monkeypatch, rng, name):
    kernel, point = PAIR_KERNELS[name]
    monkeypatch.setattr(kernels, "PAIR_BUDGET", 16)
    centers = rng.uniform(-1.0, 1.0, size=(9, 3))
    weights = rng.normal(size=(9, 5))
    expected = loop_pair_sum(point, weights, centers, centers, skip_self=True)
    got = kernels.pair_sum(kernel, weights, centers, centers,
                           np.zeros(expected.shape), exclude_within=0.0)
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - expected)) < 1e-13 * np.max(np.abs(expected))


@pytest.mark.parametrize("name", sorted(PAIR_KERNELS))
def test_pair_sum_bits_do_not_depend_on_chunking(monkeypatch, rng, name):
    # 200 x 200 pairs: budget 16 gives one-row chunks, the default three
    # chunks, and 40,000 one chunk; each target sums its sources in one row
    kernel, _ = PAIR_KERNELS[name]
    centers = rng.uniform(-1.0, 1.0, size=(200, 3))
    weights = rng.normal(size=(200, 5))
    width = 5 if name == "strain" else 3
    sums = []
    for budget in (16, kernels.PAIR_BUDGET, 200 * 200):
        monkeypatch.setattr(kernels, "PAIR_BUDGET", budget)
        sums.append(kernels.pair_sum(kernel, weights, centers, centers,
                                     np.zeros((200, width)), exclude_within=0.0))
    assert all(np.array_equal(sums[0], other) for other in sums[1:])


@pytest.mark.parametrize("name", sorted(PAIR_KERNELS))
def test_pair_kernels_leave_their_inputs_alone(rng, name):
    # pair_interaction_matrix passes one z and r2 to five kernel calls, so a
    # kernel that wrote to its inputs would corrupt the dense oracle silently
    kernel, _ = PAIR_KERNELS[name]
    z = rng.normal(size=(3, 6, 7))
    r2 = np.einsum("i...,i...->...", z, z)
    r2[2, 3] = np.inf
    inputs = (rng.normal(size=(5, 6, 7)), rng.normal(size=(5, 7)), z, r2)
    before = [a.copy() for a in inputs]
    for m in inputs[:2]:
        first = np.stack(kernel(m, z, r2))
        assert np.array_equal(first, np.stack(kernel(m, z, r2)))
    assert all(np.array_equal(a, b) for a, b in zip(inputs, before))


def test_strain_pair_sum_memory_is_bounded(rng):
    # the chunk temporaries, not the 2000 x 2000 pairs, set the peak
    centers = rng.uniform(-1.0, 1.0, size=(2000, 3))
    weights = rng.normal(size=(2000, 5))
    out = np.zeros((2000, 5))
    tracemalloc.start()
    try:
        kernels.pair_sum(kernels.stresslet_strain_kernel, weights, centers, centers,
                         out, exclude_within=0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(out))
    assert peak < 8 * 2 ** 20


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

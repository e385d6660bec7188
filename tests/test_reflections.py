import json
import tracemalloc

import numpy as np
import pytest

from refstokes import cloud as cl
from refstokes import kernels, reflections as refl, sym3
from refstokes.errors import GateError, KernelDomainError

UNIT_BOX = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
UNIAXIAL = sym3.project_sym_tracefree(np.diag([1.0, -0.5, -0.5]))


def two_sphere_cloud(separation=10.0, a=1.0):
    box = np.array([[-2.0, -2.0, -2.0], [separation + 2.0, 2.0, 2.0]])
    return cl.ParticleCloud.spheres([[0.0, 0.0, 0.0], [separation, 0.0, 0.0]], a, box)


def small_rsa(seed, n=30, a=0.008, dmin=0.08):
    return cl.generate_rsa(UNIT_BOX, n, a, dmin, seed)


def test_init_state():
    c = cl.generate_lattice(UNIT_BOX, 2, 0.02)
    state = refl.init_reflections(c, UNIAXIAL)
    assert np.array_equal(state.A_current, np.tile(UNIAXIAL, (8, 1)))
    assert state.n == 0
    assert len(state.norm_history) == 1


def test_reflect_step_single_particle():
    c = cl.generate_lattice(UNIT_BOX, 1, 0.02)
    state = refl.reflect_step(refl.init_reflections(c, UNIAXIAL))
    assert np.all(state.A_current == 0.0)
    assert np.array_equal(state.A_total[0], UNIAXIAL)


def test_reflect_step_two_spheres():
    state = refl.reflect_step(refl.init_reflections(two_sphere_cloud(), UNIAXIAL))
    # each sphere sees the strain of the other's stresslet: (5/R^3) A at R=10
    for level in state.A_current:
        assert np.allclose(level, 0.005 * UNIAXIAL, atol=1e-15)


def test_reflect_step_dilation_scaling():
    c1 = two_sphere_cloud(10.0)
    c2 = two_sphere_cloud(20.0)
    s1 = refl.reflect_step(refl.init_reflections(c1, UNIAXIAL))
    s2 = refl.reflect_step(refl.init_reflections(c2, UNIAXIAL))
    assert np.array_equal(s1.A_current, 8.0 * s2.A_current)


def test_run_single_particle_exact():
    c = cl.generate_lattice(UNIT_BOX, 1, 0.02)
    sol = refl.run_reflections(c, UNIAXIAL)
    assert sol.converged
    assert sol.iterations == 1
    assert np.array_equal(sol.A_hat[0], UNIAXIAL)


def test_run_matches_dense_two_spheres():
    c = two_sphere_cloud()
    sol = refl.run_reflections(c, UNIAXIAL, tol=1e-14, force=True)
    dense = refl.dense_fixed_point(c, UNIAXIAL)
    assert np.max(np.abs(sol.A_hat - dense.A_hat)) < 1e-10


def test_lattice_contraction_ratio():
    # 27 spheres, a/d = 0.1: observed per-sweep decay well below one
    c = cl.generate_lattice(UNIT_BOX, 3, 0.1 / 3.0)
    sol = refl.run_reflections(c, UNIAXIAL, force=True)
    ratios = [sol.norm_history[k + 1] / sol.norm_history[k]
              for k in range(min(3, len(sol.norm_history) - 1))]
    assert all(r <= 0.1 for r in ratios)
    assert sol.converged


def test_gate_violation():
    c = cl.generate_lattice(UNIT_BOX, 2, 0.12)  # a/d = 0.24 -> phi_local > 1e-2
    with pytest.raises(GateError):
        refl.run_reflections(c, UNIAXIAL)
    sol = refl.run_reflections(c, UNIAXIAL, force=True)
    assert sol.converged


def test_gate_scales_with_mobility():
    c = cl.generate_rsa(UNIT_BOX, 200, 0.01, 0.08, seed=3)   # a^3/d^3 = 1.9e-3
    # 500x the sphere mobility makes the sweeps diverge (ratio ~7 per sweep)
    strong = cl.ParticleCloud(centers=c.centers, a=c.a, mobilities=500.0 * c.mobilities,
                              box=c.box)
    with pytest.raises(GateError, match="mobility factor 500 "):
        refl.run_reflections(strong, UNIAXIAL)
    sol = refl.run_reflections(strong, UNIAXIAL, max_iter=5, force=True)
    assert not sol.converged
    assert sol.norm_history[-1] > sol.norm_history[0]
    # sphere mobilities: the factor is exactly 1
    phi_local = cl.validate(c).phi_local
    refl.run_reflections(c, UNIAXIAL, fixed_n=1, gate=phi_local)
    with pytest.raises(GateError, match="mobility factor 1 "):
        refl.run_reflections(c, UNIAXIAL, fixed_n=1, gate=phi_local * (1.0 - 1e-12))


def test_divergent_forced_solve_stops():
    # 500x the sphere mobility: each level several times the last
    c = cl.generate_rsa(UNIT_BOX, 200, 0.01, 0.08, seed=3)
    strong = cl.ParticleCloud(centers=c.centers, a=c.a, mobilities=500.0 * c.mobilities,
                              box=c.box)
    sol = refl.run_reflections(strong, UNIAXIAL, force=True)
    assert not sol.converged
    assert sol.iterations <= 3 and len(sol.norm_history) == sol.iterations + 1
    assert np.isfinite(sol.residual) and sol.residual == sol.norm_history[-1]
    assert sol.norm_history[-1] >= sol.norm_history[-2] >= sol.norm_history[-3]
    # fixed_n keeps its exact level count, diverging or not
    assert refl.run_reflections(strong, UNIAXIAL, fixed_n=6, force=True).iterations == 5


def test_non_finite_level_stops_the_solve(monkeypatch):
    c = two_sphere_cloud()
    step = refl.reflect_step

    def blow_up(state):
        new = step(state)
        new.A_current[0, 0] = np.inf
        new.norm_history[-1] = np.inf
        return new
    monkeypatch.setattr(refl, "reflect_step", blow_up)
    sol = refl.run_reflections(c, UNIAXIAL, force=True)
    assert not sol.converged and sol.iterations == 1


def test_non_convergence_reported_not_raised():
    c = two_sphere_cloud()
    sol = refl.run_reflections(c, UNIAXIAL, tol=1e-30, max_iter=3, force=True)
    assert not sol.converged
    assert sol.iterations == 3
    assert len(sol.norm_history) == 4


def test_max_iter_zero_runs_no_sweep():
    sol = refl.run_reflections(two_sphere_cloud(), UNIAXIAL, max_iter=0, force=True)
    assert sol.iterations == 0
    assert not sol.converged
    assert np.array_equal(sol.A_hat, np.tile(UNIAXIAL, (2, 1)))


def test_fixed_n_zero_rejected_before_gate():
    c = two_sphere_cloud(separation=4.5)     # a^3/d^3 = 0.011 > 1e-2
    with pytest.raises(GateError):
        refl.run_reflections(c, UNIAXIAL)
    with pytest.raises(ValueError, match="fixed_n"):
        refl.run_reflections(c, UNIAXIAL, fixed_n=0)


@pytest.mark.parametrize("tol", [0.0, -1e-10, float("nan"), float("inf")])
def test_tol_must_be_positive(tol):
    with pytest.raises(ValueError, match="tol must be positive"):
        refl.run_reflections(two_sphere_cloud(), UNIAXIAL, tol=tol)


def test_fixed_n_levels():
    c = two_sphere_cloud()
    sol3 = refl.run_reflections(c, UNIAXIAL, fixed_n=3, force=True)
    assert sol3.iterations == 2
    state = refl.init_reflections(c, UNIAXIAL)
    state = refl.reflect_step(refl.reflect_step(state))
    assert np.array_equal(sol3.A_hat, state.A_total)


def test_outer_coeffs_matches_basis_contraction(rng):
    # the strain kernel writes <E_a, z (x) v> out component by component
    from refstokes.sym3 import BASIS
    m = rng.normal(size=(40, 7, 5))
    z = rng.normal(size=(40, 7, 3))
    r2 = np.einsum("...i,...i->...", z, z)
    b = np.einsum("...ij,...j->...i", sym3.embed(m), z)
    s = np.einsum("...i,...i->...", z, b)
    c38 = 3.0 / (8.0 * np.pi)
    v = (-2.0 * c38 / r2 ** 2.5)[..., None] * b + (5.0 * c38 * s / r2 ** 3.5)[..., None] * z
    ref = np.einsum("aij,...i,...j->...a", BASIS, z, v)
    fast = np.stack(sym3.sym_coefficients(kernels.stresslet_strain_kernel(
        sym3.sym_matrix(np.moveaxis(m, -1, 0)), np.moveaxis(z, -1, 0), r2)), axis=-1)
    assert np.max(np.abs(fast - ref)) < 1e-14 * np.max(np.abs(ref))


def test_pair_chunking_keeps_reflection_bits(monkeypatch):
    c = small_rsa(3, n=300, a=0.004, dmin=0.04)
    solutions = []
    for budget in (16_384, 2_000_000):
        monkeypatch.setattr(kernels, "PAIR_BUDGET", budget)
        solutions.append(refl.run_reflections(c, UNIAXIAL))
    assert solutions[0].converged and solutions[0].iterations >= 2
    assert np.array_equal(solutions[0].A_hat, solutions[1].A_hat)


def tree_builds(monkeypatch):
    """Counts of the kd-trees `kernels._compact_blocks` builds, its calls on a whole
    point set (its recursion passes the index set of a node)."""
    builds, original = [], kernels._compact_blocks

    def counting(x, idx=None):
        builds.extend([len(x)] if idx is None else [])
        return original(x, idx)
    monkeypatch.setattr(kernels, "_compact_blocks", counting)
    return builds


def test_one_tree_per_solve(monkeypatch):
    # the sweep operator is built by the first sweep and carried on the state:
    # five sweeps of a tolerance-mode solve, or of the diagnostic, build one tree
    c = small_rsa(3, n=300, a=0.004, dmin=0.04)
    builds = tree_builds(monkeypatch)
    sol = refl.run_reflections(c, UNIAXIAL, tol=1e-30, max_iter=5)
    assert sol.iterations == 5 and builds == [c.n]
    builds.clear()
    assert len(refl.contraction_diagnostic(c, UNIAXIAL, n_levels=5)) == 5
    assert builds == [c.n]
    builds.clear()
    assert refl.run_reflections(c, UNIAXIAL, fixed_n=1).iterations == 0 and builds == []


def test_reflect_step_on_a_state_without_an_operator(monkeypatch):
    # a state of the five fields before the operator (as the bench's fixed-point
    # check builds one) sweeps to the bits of `stresslet_strain_sum` and of the
    # operator, and passes on the operator it built
    c = small_rsa(3, n=300, a=0.004, dmin=0.04)
    A = np.tile(UNIAXIAL, (c.n, 1)) * np.linspace(0.5, 1.5, c.n)[:, None]
    state = refl.ReflectionState(cloud=c, A_current=A, A_total=np.zeros_like(A), n=0,
                                 norm_history=[])
    moments = sym3.apply_mobility(c.mobilities, A)
    want = kernels.stresslet_strain_sum(moments, c.centers, c.centers)
    builds = tree_builds(monkeypatch)
    one = refl.reflect_step(state)
    assert state.sweep is None and one.sweep is not None and builds == [c.n]
    assert np.array_equal(one.A_current, want) and np.array_equal(one.A_total, want)
    assert one.n == 1 and len(one.norm_history) == 1 and one.norm_history[0] > 0.0
    assert np.array_equal(one.sweep(moments), want)
    two = refl.reflect_step(one)
    assert two.sweep is one.sweep and builds == [c.n]
    assert np.array_equal(two.A_current, kernels.stresslet_strain_sum(
        sym3.apply_mobility(c.mobilities, want), c.centers, c.centers))


def test_norm_history_length_tracks_sweeps():
    c = two_sphere_cloud()
    state = refl.init_reflections(c, UNIAXIAL)
    for expected in (1, 2, 3, 4):
        assert len(state.norm_history) == expected == state.n + 1
        assert all(v > 0.0 for v in state.norm_history)
        state = refl.reflect_step(state)


def test_fixed_n_one_is_first_order():
    c = two_sphere_cloud()
    sol = refl.run_reflections(c, UNIAXIAL, fixed_n=1, force=True)
    assert sol.iterations == 0
    assert np.array_equal(sol.A_hat, np.tile(UNIAXIAL, (2, 1)))


def test_dense_single_particle():
    c = cl.generate_lattice(UNIT_BOX, 1, 0.02)
    dense = refl.dense_fixed_point(c, UNIAXIAL)
    assert np.array_equal(dense.A_hat[0], UNIAXIAL)


def test_dense_guard():
    centers = np.random.default_rng(0).uniform(0, 1, size=(1001, 3))
    c = cl.ParticleCloud.spheres(centers, 1e-4, UNIT_BOX)
    with pytest.raises(ValueError):
        refl.dense_fixed_point(c, UNIAXIAL)


def test_dense_solve_matches_scipy():
    from scipy import linalg
    c = cl.generate_rsa(UNIT_BOX, 200, 0.004, 0.05, seed=3)
    I_minus_T = -refl.pair_interaction_matrix(c)
    np.fill_diagonal(I_minus_T, 1.0)
    expected = linalg.solve(I_minus_T, np.tile(UNIAXIAL, c.n)).reshape(c.n, 5)
    assert np.array_equal(refl.dense_fixed_point(c, UNIAXIAL).A_hat, expected)


def unchunked_interaction_matrix(cloud):
    """`pair_interaction_matrix` as one (N x N) block of pair offsets."""
    n = cloud.n
    z, r2 = kernels.pair_offsets(cloud.centers, cloud.centers, exclude_within=0.0)
    T = np.empty((n, 5, n, 5))
    for c, mob in enumerate(np.moveaxis(cloud.mobilities, 2, 0)):
        strain = kernels.stresslet_strain_kernel(sym3.sym_matrix(mob.T), z, r2)
        for a, part in enumerate(sym3.sym_coefficients(strain)):
            T[:, a, :, c] = part
    return T.reshape(5 * n, 5 * n)


def test_interaction_matrix_blocks_keep_the_bits(monkeypatch, rng):
    # 40 particles, 3 rows per block: 13 full blocks and a one-row tail;
    # random mobilities tell the five moment columns apart
    c = small_rsa(3, n=40)
    mob = rng.normal(size=(c.n, 5, 5))
    c = cl.ParticleCloud(centers=c.centers, a=c.a, mobilities=mob + mob.transpose(0, 2, 1),
                         box=c.box)
    monkeypatch.setattr(kernels, "PAIR_BUDGET", 3 * c.n)
    assert np.array_equal(refl.pair_interaction_matrix(c), unchunked_interaction_matrix(c))


def test_sweep_projects_after_the_sum(rng):
    # the sweep projects each target's summed entries, the dense matrix each pair's
    c = small_rsa(3, n=40)
    mob = rng.normal(size=(c.n, 5, 5))
    c = cl.ParticleCloud(centers=c.centers, a=c.a, mobilities=mob + mob.transpose(0, 2, 1),
                         box=c.box)
    state = refl.init_reflections(c, UNIAXIAL)
    state.A_current = rng.normal(size=(c.n, 5))
    got = refl.reflect_step(state).A_current
    want = (refl.pair_interaction_matrix(c) @ state.A_current.ravel()).reshape(c.n, 5)
    assert np.linalg.norm(got - want) < 1e-13 * np.linalg.norm(want)


def test_dense_solve_holds_one_matrix():
    # (I - T) is T negated in place, not a second (5N)^2 matrix; at N = 200
    # the pair-block temporaries add about 0.3 of a matrix
    c = small_rsa(3, n=200)
    tracemalloc.start()
    try:
        refl.dense_fixed_point(c, UNIAXIAL)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * (5 * c.n) ** 2 * 8


def test_dense_singular_system_raises(monkeypatch):
    # T swaps the two particles' levels, so (I - T) maps (A, A) to zero
    c = two_sphere_cloud()
    monkeypatch.setattr(refl, "pair_interaction_matrix",
                        lambda cloud: np.kron([[0.0, 1.0], [1.0, 0.0]], np.eye(5)))
    with pytest.raises(np.linalg.LinAlgError, match="outside the contraction regime"):
        refl.dense_fixed_point(c, UNIAXIAL)


def test_oracle_equivalence_rsa(rng):
    for seed in (11, 12, 13, 14, 15):
        c = small_rsa(seed)
        assert cl.validate(c).phi_local <= 1e-2
        sol = refl.run_reflections(c, UNIAXIAL, tol=1e-13)
        dense = refl.dense_fixed_point(c, UNIAXIAL)
        assert np.linalg.norm(sol.A_hat - dense.A_hat) \
            < 1e-8 * np.linalg.norm(UNIAXIAL)


def test_interaction_operator_contraction():
    c = small_rsa(3, n=40)
    T = refl.pair_interaction_matrix(c)
    # power iteration estimate of the spectral radius
    rng = np.random.default_rng(0)
    v = rng.normal(size=T.shape[0])
    for _ in range(50):
        v = T @ v
        v /= np.linalg.norm(v)
    estimate = np.linalg.norm(T @ v)
    assert estimate < 1.0


def test_linearity_in_ambient_strain(rng):
    c = small_rsa(21)
    A1 = rng.normal(size=5)
    A2 = rng.normal(size=5)
    alpha, beta = 0.6, -1.7
    s1 = refl.run_reflections(c, A1, tol=1e-13)
    s2 = refl.run_reflections(c, A2, tol=1e-13)
    s12 = refl.run_reflections(c, alpha * A1 + beta * A2, tol=1e-13)
    err = np.linalg.norm(s12.A_hat - alpha * s1.A_hat - beta * s2.A_hat)
    assert err < 1e-10 * np.linalg.norm(alpha * A1 + beta * A2)


def test_dilation_covariance():
    # scaling centers and radius together leaves every level invariant
    c = cl.generate_lattice(UNIT_BOX, 2, 0.02)
    c2 = cl.ParticleCloud.spheres(2.0 * c.centers, 2.0 * c.a, 2.0 * UNIT_BOX)
    s1 = refl.run_reflections(c, UNIAXIAL, tol=1e-13)
    s2 = refl.run_reflections(c2, UNIAXIAL, tol=1e-13)
    assert np.allclose(s1.A_hat, s2.A_hat, rtol=1e-12, atol=1e-15)


def test_permutation_equivariance(rng):
    c = small_rsa(33, n=20)
    perm = rng.permutation(c.n)
    cp = cl.ParticleCloud(centers=c.centers[perm], a=c.a,
                          mobilities=c.mobilities[perm], box=c.box)
    s = refl.run_reflections(c, UNIAXIAL, tol=1e-13)
    sp = refl.run_reflections(cp, UNIAXIAL, tol=1e-13)
    assert np.allclose(sp.A_hat, s.A_hat[perm], rtol=1e-12, atol=1e-16)


def test_determinism_bit_identical():
    c = small_rsa(5, n=40)
    s1 = refl.run_reflections(c, UNIAXIAL)
    s2 = refl.run_reflections(c, UNIAXIAL)
    assert np.array_equal(s1.A_hat, s2.A_hat)
    assert s1.norm_history == s2.norm_history


# ---------------------------------------------------------------------------
# velocity evaluation


def test_velocity_empty_cloud():
    empty = cl.ParticleCloud(centers=np.zeros((0, 3)), a=0.1,
                             mobilities=np.zeros((0, 5, 5)), box=UNIT_BOX)
    sol = refl.StressletSolution(cloud=empty, A_hat=np.zeros((0, 5)), iterations=0,
                                 converged=True, residual=0.0, norm_history=[0.0])
    pts = np.array([[0.1, 0.2, 0.3], [2.0, -1.0, 0.5]])
    u = refl.evaluate_velocity(sol, UNIAXIAL, pts)
    assert np.allclose(u, pts @ sym3.embed(UNIAXIAL).T, atol=0.0)


def test_velocity_single_particle_boundary_rigid():
    box = np.array([[-2.0, -2.0, -2.0], [2.0, 2.0, 2.0]])
    c = cl.ParticleCloud.spheres([[0.0, 0.0, 0.0]], 0.5, box)
    sol = refl.run_reflections(c, UNIAXIAL)
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(50, 3))
    pts *= 0.5 / np.linalg.norm(pts, axis=1, keepdims=True)
    u = refl.evaluate_velocity(sol, UNIAXIAL, pts)
    # on the surface the disturbance cancels the strain: u is a rigid motion
    # (here exactly zero since the particle sits at the origin)
    assert np.max(np.linalg.norm(u, axis=1)) < 1e-12


def test_velocity_far_vs_full_modes():
    box = np.array([[-25.0, -25.0, -25.0], [25.0, 25.0, 25.0]])
    c = cl.ParticleCloud.spheres([[0.0, 0.0, 0.0]], 1.0, box)
    sol = refl.run_reflections(c, UNIAXIAL)
    a, r = 1.0, 20.0
    dirs = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [2, 1, 1], [3, 1, 2]],
                    dtype=float)
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pts = r * dirs
    background = pts @ sym3.embed(UNIAXIAL).T
    u_far = kernels.stresslet_field(c.mobilities[0], sol.A_hat[0], pts)
    u_full = refl.evaluate_velocity(sol, UNIAXIAL, pts) - background
    rel = np.linalg.norm(u_far - u_full, axis=1) / np.linalg.norm(u_full, axis=1)
    assert np.max(rel) < (a / r) * 5e-2


def test_velocity_point_inside_particle_raises():
    # two points and one particle: the velocity would run in strips; two
    # points and eight particles: in row blocks
    for per_axis, point, particle in ((1, [0.5, 0.5, 0.52], 0), (2, [0.75, 0.27, 0.75], 5)):
        c = cl.generate_lattice(UNIT_BOX, per_axis, 0.1)
        sol = refl.run_reflections(c, UNIAXIAL)
        pts = np.array([[0.1, 0.1, 0.1], point])
        with pytest.raises(KernelDomainError,
                           match=f"evaluation point 1 inside particle {particle}"):
            refl.evaluate_velocity(sol, UNIAXIAL, pts)


def test_velocity_sphere_full_requires_spheres():
    # the sphere disturbance only when every mobility is the sphere map,
    # point stresslets of the moments otherwise
    centers = np.array([[0.3, 0.3, 0.3], [0.7, 0.7, 0.7]])
    x = np.array([[0.1, 0.1, 0.1], [0.5, 0.45, 0.6]])
    background = x @ sym3.embed(UNIAXIAL).T
    spheres = cl.ParticleCloud.spheres(centers, 0.01, UNIT_BOX)
    bent = cl.ParticleCloud(centers=centers, a=0.01, box=UNIT_BOX,
                            mobilities=spheres.mobilities * (1.0 + 1e-10))
    mob = np.tile(np.eye(5) * 1e-3, (2, 1, 1))
    custom = cl.ParticleCloud(centers=centers, a=0.01, mobilities=mob, box=UNIT_BOX)
    assert spheres.spherical and not bent.spherical and not custom.spherical
    for c in (bent, custom):
        sol = refl.run_reflections(c, UNIAXIAL)
        far = background + sum(kernels.stresslet_field(c.mobilities[m], sol.A_hat[m],
                                                       x - centers[m]) for m in range(2))
        assert np.allclose(refl.evaluate_velocity(sol, UNIAXIAL, x), far,
                           rtol=1e-13, atol=0.0)
    sol = refl.run_reflections(spheres, UNIAXIAL)
    full = background + sum(kernels.sphere_disturbance(sol.A_hat[m], 0.01,
                                                       x - centers[m]) for m in range(2))
    assert np.allclose(refl.evaluate_velocity(sol, UNIAXIAL, x), full, rtol=1e-13, atol=0.0)


# ---------------------------------------------------------------------------
# contraction diagnostics


def test_diagnostic_single_particle():
    c = cl.generate_lattice(UNIT_BOX, 1, 0.02)
    ratios = refl.contraction_diagnostic(c, UNIAXIAL, q=2.0, n_levels=3)
    assert ratios == [0.0, 0.0, 0.0]


def test_diagnostic_dilation_scaling():
    c = cl.generate_lattice(UNIT_BOX, 3, 0.02)
    r1 = refl.contraction_diagnostic(c, UNIAXIAL, q=2.0, n_levels=3)
    r2 = refl.contraction_diagnostic(c.dilate(2.0), UNIAXIAL, q=2.0, n_levels=3)
    for a, b in zip(r1, r2):
        assert abs(a / b - 8.0) < 1e-10 * 8.0


def test_diagnostic_slope_envelope():
    # across random clouds the q=2 ratios vs a/d fit a slope between the
    # worst-case envelope exponent 3/2 and the homogeneity exponent 3
    ratios = []
    seps = []
    for target, seed in ((0.05, 101), (0.1, 102), (0.2, 103)):
        dmin = 0.12
        a = target * dmin
        c = cl.generate_rsa(UNIT_BOX, 60, a, dmin, seed)
        d = cl.validate(c).d
        r = refl.contraction_diagnostic(c, UNIAXIAL, q=2.0, n_levels=2)
        ratios.append(r[0])
        seps.append(a / d)
    slope = np.polyfit(np.log(seps), np.log(ratios), 1)[0]
    assert 1.4 <= slope <= 3.1


def test_diagnostic_max_norm():
    # q = inf: ratios of the largest per-particle level norms
    c = cl.generate_lattice(UNIT_BOX, 2, 0.02)
    state = refl.init_reflections(c, UNIAXIAL)
    norms = [np.max(np.linalg.norm(state.A_current, axis=1))]
    for _ in range(2):
        state = refl.reflect_step(state)
        norms.append(np.max(np.linalg.norm(state.A_current, axis=1)))
    ratios = refl.contraction_diagnostic(c, UNIAXIAL, q=np.inf, n_levels=2)
    assert ratios == pytest.approx(refl.level_ratios(norms), rel=1e-13)
    assert 0.0 < ratios[0] < 1.0


def test_diagnostic_parameter_checks():
    c = cl.generate_lattice(UNIT_BOX, 2, 0.02)
    with pytest.raises(ValueError):
        refl.contraction_diagnostic(c, UNIAXIAL, q=2.0, n_levels=1)
    with pytest.raises(ValueError):
        refl.contraction_diagnostic(c, UNIAXIAL, q=0.5)


# ---------------------------------------------------------------------------
# serialization


def test_solution_json_roundtrip():
    c = small_rsa(8, n=10)
    sol = refl.run_reflections(c, UNIAXIAL)
    doc = json.loads(json.dumps(refl.solution_to_json(sol)))
    back = refl.solution_from_json(doc, c)
    assert np.array_equal(back.A_hat, sol.A_hat)
    assert back.norm_history == sol.norm_history
    assert back.converged == sol.converged
    assert back.iterations == sol.iterations
    assert back.residual == sol.residual


@pytest.mark.parametrize("rows", [16, 7, 0])
def test_solution_from_json_refuses_a_hat_of_another_cloud(rows):
    # a 16-row a_hat for an 8-particle lattice was read, and evaluate_velocity
    # silently used its first 8 rows
    c = cl.generate_lattice(UNIT_BOX, 2, 0.02)
    doc = refl.solution_to_json(refl.run_reflections(c, UNIAXIAL))
    doc["a_hat"] = np.resize(doc["a_hat"], (rows, 5)).tolist()
    with pytest.raises(ValueError, match=rf"^a_hat has {rows} rows for a cloud of 8 particles$"):
        refl.solution_from_json(doc, c)


def test_solution_json_same_bytes_as_per_value_floats(rng):
    c = small_rsa(8, n=10)
    A_hat = rng.normal(size=(10, 5)) * 10.0 ** rng.integers(-320, 308, size=(10, 5))
    A_hat[0] = [-0.0, 5e-324, -2.2e-308, 1e308, -1e308]
    sol = refl.StressletSolution(cloud=c, A_hat=A_hat, iterations=3, converged=True,
                                 residual=1e-12, norm_history=[1.0, 0.1, 1e-12])
    per_value = dict(refl.solution_to_json(sol),
                     a_hat=[[float(v) for v in row] for row in A_hat])
    assert (json.dumps(refl.solution_to_json(sol), sort_keys=True, allow_nan=False)
            == json.dumps(per_value, sort_keys=True, allow_nan=False))


def test_level_ratios():
    assert refl.level_ratios([1.0, 0.5, 0.25]) == [0.5, 0.5]
    assert refl.level_ratios([2.0, 0.0, 0.0]) == [0.0, 0.0]   # 0 after a vanishing level
    assert refl.level_ratios([3.0]) == []

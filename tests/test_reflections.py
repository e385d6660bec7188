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


def test_fixed_n_levels():
    c = two_sphere_cloud()
    sol3 = refl.run_reflections(c, UNIAXIAL, fixed_n=3, force=True)
    assert sol3.iterations == 2
    state = refl.init_reflections(c, UNIAXIAL)
    state = refl.reflect_step(refl.reflect_step(state))
    assert np.array_equal(sol3.A_hat, state.A_total)


def test_outer_coeffs_matches_basis_contraction(rng):
    from refstokes.sym3 import BASIS
    u = rng.normal(size=(40, 7, 3))
    v = rng.normal(size=(40, 7, 3))
    fast = np.stack(kernels._basis_coeffs(np.moveaxis(u, -1, 0),
                                          np.moveaxis(v, -1, 0)), axis=-1)
    ref = np.einsum("aij,...i,...j->...a", BASIS, u, v)
    assert np.max(np.abs(fast - ref)) < 1e-14


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
    c = cl.generate_lattice(UNIT_BOX, 1, 0.1)
    sol = refl.run_reflections(c, UNIAXIAL)
    pts = np.array([[0.1, 0.1, 0.1], [0.5, 0.5, 0.52]])
    with pytest.raises(KernelDomainError, match="evaluation point 1 inside particle 0"):
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


def test_diagnostic_parameter_checks():
    c = cl.generate_lattice(UNIT_BOX, 2, 0.02)
    with pytest.raises(ValueError):
        refl.contraction_diagnostic(c, UNIAXIAL, q=2.0, n_levels=1)
    with pytest.raises(ValueError):
        refl.contraction_diagnostic(c, UNIAXIAL, q=0.5)


# ---------------------------------------------------------------------------
# serialization


def test_solution_json_roundtrip(tmp_path):
    c = small_rsa(8, n=10)
    sol = refl.run_reflections(c, UNIAXIAL)
    path = tmp_path / "sol.json"
    refl.save_solution(sol, path)
    back = refl.load_solution(path, c)
    assert np.array_equal(back.A_hat, sol.A_hat)
    assert back.norm_history == sol.norm_history
    assert back.converged == sol.converged


def test_save_solution_refuses_non_finite(tmp_path):
    sol = refl.run_reflections(small_rsa(8, n=10), UNIAXIAL)
    sol.residual = np.inf
    path = tmp_path / "sol.json"
    with pytest.raises(ValueError):
        refl.save_solution(sol, path)
    assert not path.exists()


def test_convergence_csv(tmp_path):
    path = tmp_path / "table.csv"
    refl.convergence_table_to_csv([1.0, 0.5, 0.25], path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,level_norm,ratio"
    assert len(lines) == 4
    assert lines[2].split(",")[2] == "0.5"

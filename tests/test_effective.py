import numpy as np
import pytest

from refstokes import cloud as cl
from refstokes import effective as eff
from refstokes import kernels, sym3
from refstokes import reflections as refl
from refstokes.errors import GateError, GridMismatchError
from refstokes.fields import GridField

from conftest import central_difference

UNIT_BOX = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
UNIAXIAL = sym3.project_sym_tracefree(np.diag([1.0, -0.5, -0.5]))
HM1_GAUSSIAN = np.sqrt(2.0 * np.pi ** 1.5)


def gaussian_field(n=64, side=16.0, center=(0.0, 0.0, 0.0), width=1.0):
    box = np.array([[-side / 2] * 3, [side / 2] * 3])
    f = GridField.zeros(box, n)
    c = f.cell_centers() - np.asarray(center)
    f.values[:] = np.exp(-np.einsum("...i,...i->...", c, c) / (2 * width ** 2))
    return f


def bump_field(rng, n=32, side=8.0, k=3):
    """Random superposition of narrow bumps, supported well inside the box."""
    box = np.array([[-side / 2] * 3, [side / 2] * 3])
    f = GridField.zeros(box, n)
    pts = f.cell_centers()
    for _ in range(k):
        c = rng.uniform(-side / 8, side / 8, size=3)
        w = rng.uniform(side / 24, side / 10)
        amp = rng.normal()
        d = pts - c
        f.values[:] += amp * np.exp(-np.einsum("...i,...i->...", d, d) / (2 * w ** 2))
    return f


# ---------------------------------------------------------------------------
# coefficient assembly


def test_assemble_single_sphere_cell_values():
    a = 0.25
    box = np.array([[-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]])
    c = cl.ParticleCloud.spheres([[0.0, 0.0, 0.0]], a, box)
    field = eff.assemble_MN(c, box, 32)
    centers = field.cell_centers()
    r = np.linalg.norm(centers, axis=-1)
    h = float(np.max(field.cell_size))
    interior = r < a - h  # strictly inside
    exterior = r > a + h
    assert np.allclose(field.values[interior],
                       5.0 * np.eye(5), rtol=1e-12, atol=1e-12)
    assert np.all(field.values[exterior] == 0.0)


def test_assemble_empty_cloud_zero():
    empty = cl.ParticleCloud(centers=np.zeros((0, 3)), a=0.1,
                             mobilities=np.zeros((0, 5, 5)), box=UNIT_BOX)
    field = eff.assemble_MN(empty, UNIT_BOX, 8)
    assert np.all(field.values == 0.0)


def test_assemble_integral_matches_total_mobility():
    a = 0.06
    c = cl.generate_lattice(UNIT_BOX, 2, a)
    with pytest.warns(UserWarning):   # h slightly above a/2 by construction
        field = eff.assemble_MN(c, UNIT_BOX, 32)
    integral = np.sum(field.values, axis=(0, 1, 2)) * field.cell_volume
    exact = np.sum(c.mobilities, axis=0) * 3.0 / (4.0 * np.pi * a ** 3)\
        * (4.0 * np.pi * a ** 3 / 3.0)
    h = float(np.max(field.cell_size))
    rel = np.linalg.norm(integral - exact) / np.linalg.norm(exact)
    assert rel < 3.0 * h / a
    assert rel < 0.01   # subsampled coverage does much better than the bound


def test_assemble_matches_brute_force_loop(rng):
    # grid 8 on the unit box: the first ball crosses the lower x face, the
    # other two share boundary cells; anisotropic mobilities pin the order in
    # which each cell sums its balls
    a, n = 0.3, 8
    c = cl.ParticleCloud(centers=[[0.1, 0.5, 0.5], [0.55, 0.3, 0.6], [0.6, 0.75, 0.45]],
                         a=a, mobilities=rng.normal(size=(3, 5, 5)),
                         box=[[-1.0] * 3, [2.0] * 3])
    field = eff.assemble_MN(c, UNIT_BOX, n)
    h = field.cell_size
    t = (np.arange(eff._RASTER_SUB) + 0.5) / eff._RASTER_SUB - 0.5
    offsets = np.stack(np.meshgrid(t * h[0], t * h[1], t * h[2], indexing="ij"),
                       axis=-1).reshape(-1, 3)
    scale = 3.0 / (4.0 * np.pi * a ** 3)
    cells = field.cell_centers()
    expected = np.zeros((n, n, n, 5, 5))
    for idx in np.ndindex(n, n, n):
        for center, mob in zip(c.centers, c.mobilities):
            rel = cells[idx] + offsets - center
            count = np.sum(np.einsum("...i,...i->...", rel, rel) <= a ** 2)
            expected[idx] += (scale * (count / len(offsets))) * mob
    assert np.any(expected[0] != 0.0)
    assert np.array_equal(field.values, expected)


def test_assemble_warns_when_unresolved():
    c = cl.ParticleCloud.spheres([[0.5, 0.5, 0.5]], 0.01, UNIT_BOX)
    with pytest.warns(UserWarning):
        eff.assemble_MN(c, UNIT_BOX, 8)


# ---------------------------------------------------------------------------
# effective models


def test_uniform_model_basics():
    model = eff.uniform_Meff(UNIT_BOX, 0.0)
    assert model.sup_norm() == 0.0
    model = eff.uniform_Meff(UNIT_BOX, 0.01, 5.0)
    assert np.isclose(model.sup_norm(), 0.05, atol=1e-15)
    raster = model.rasterize(np.array([[-0.5] * 3, [1.5] * 3]), 16)
    inside = raster.cell_centers()
    mask = np.all((inside >= 0.0) & (inside <= 1.0), axis=-1)
    assert np.allclose(raster.values[mask], 0.05 * np.eye(5))
    assert np.all(raster.values[~mask] == 0.0)


def test_uniform_model_gate_class():
    eps0 = 0.05
    assert eff.uniform_Meff(UNIT_BOX, 0.009, 5.0).sup_norm() <= eps0
    assert eff.uniform_Meff(UNIT_BOX, 0.011, 5.0).sup_norm() > eps0


def test_negative_phi_rejected():
    with pytest.raises(ValueError):
        eff.uniform_Meff(UNIT_BOX, -0.1)


# ---------------------------------------------------------------------------
# negative Sobolev distance


def test_hminus1_identical_fields_zero(rng):
    f = bump_field(rng)
    assert eff.hminus1_distance(f, f) == 0.0


def test_hminus1_gaussian_value():
    f = gaussian_field(n=64, side=16.0)
    zero = GridField.zeros(f.box, f.n)
    val = eff.hminus1_distance(f, zero)
    assert abs(val - HM1_GAUSSIAN) < 0.01 * HM1_GAUSSIAN


def test_hminus1_translation_invariance():
    f = gaussian_field(n=64, side=16.0)
    zero = GridField.zeros(f.box, f.n)
    shifted = GridField(box=f.box, n=f.n, values=np.roll(f.values, 3, axis=1))
    v1 = eff.hminus1_distance(f, zero)
    v2 = eff.hminus1_distance(shifted, zero)
    assert abs(v1 - v2) < 1e-10


def test_hminus1_metric_properties(rng):
    f = bump_field(rng)
    g = bump_field(rng)
    w = bump_field(rng)
    dfg = eff.hminus1_distance(f, g)
    dgf = eff.hminus1_distance(g, f)
    assert abs(dfg - dgf) < 1e-12 * max(dfg, 1.0)
    dfw = eff.hminus1_distance(f, w)
    dwg = eff.hminus1_distance(w, g)
    assert dfg <= dfw + dwg + 1e-10


def test_hminus1_componentwise(rng):
    f = bump_field(rng)
    g = GridField.zeros(f.box, f.n)
    # stacking the same scalar into 4 identical components doubles the norm
    fv = GridField(box=f.box, n=f.n,
                   values=np.repeat(f.values[..., None], 4, axis=-1))
    gv = GridField.zeros(f.box, f.n, (4,))
    assert np.isclose(eff.hminus1_distance(fv, gv),
                      2.0 * eff.hminus1_distance(f, g), rtol=1e-12)


def test_hminus1_grid_refinement_stable():
    vals = []
    for n in (64, 128):
        f = gaussian_field(n=n, side=16.0)
        vals.append(eff.hminus1_distance(f, GridField.zeros(f.box, f.n)))
    assert abs(vals[1] - vals[0]) < 0.02 * vals[0]


def test_hminus1_grid_mismatch():
    f = gaussian_field(n=32, side=16.0)
    g = gaussian_field(n=64, side=16.0)
    with pytest.raises(GridMismatchError):
        eff.hminus1_distance(f, g)


def test_hminus1_requires_cubic_cells():
    box = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 2.0]])
    f = GridField.zeros(box, 8)
    with pytest.raises(ValueError):
        eff.hminus1_distance(f, GridField.zeros(box, 8))


# ---------------------------------------------------------------------------
# correction velocity


def one_sphere_setup(a=0.25, n=32):
    box = np.array([[-2 * a] * 3, [2 * a] * 3])
    c = cl.ParticleCloud.spheres([[0.0, 0.0, 0.0]], a, box)
    field = eff.assemble_MN(c, box, n)
    return c, field


def test_tilde_vc_zero_model():
    field = GridField.zeros(UNIT_BOX, 8, (5, 5))
    out = eff.tilde_vc(field, UNIAXIAL, np.array([[2.0, 0.0, 0.0]]))
    assert np.all(out == 0.0)


def test_tilde_vc_bilinear():
    _, field = one_sphere_setup()
    pts = np.array([[1.0, 0.3, -0.2], [2.0, 0.0, 0.0]])
    base = eff.tilde_vc(field, UNIAXIAL, pts)
    doubled_strain = eff.tilde_vc(field, 2.0 * UNIAXIAL, pts)
    assert np.max(np.abs(doubled_strain - 2.0 * base)) < 1e-12 * np.max(np.abs(base))
    field2 = GridField(box=field.box, n=field.n, values=2.0 * field.values)
    doubled_field = eff.tilde_vc(field2, UNIAXIAL, pts)
    assert np.max(np.abs(doubled_field - 2.0 * base)) < 1e-12 * np.max(np.abs(base))


def test_tilde_vc_single_sphere_far_consistency():
    # ball-averaged source vs the point stresslet of the same total moment
    a = 0.25
    c, field = one_sphere_setup(a=a)
    x = np.array([[20 * a, 0.0, 0.0]])
    ref = kernels.stresslet_field(kernels.sphere_mobility(a), UNIAXIAL, x[0])
    out = eff.tilde_vc(field, UNIAXIAL, x)[0]
    assert np.linalg.norm(out - ref) < 0.02 * np.linalg.norm(ref)


def test_tilde_vc_divergence_free_far():
    _, field = one_sphere_setup()
    x = np.array([2.5, 0.5, -0.5])   # more than two box-sides away
    fd = central_difference(
        lambda y: eff.tilde_vc(field, UNIAXIAL, y[None, :])[0], x, 1e-5)
    assert abs(np.trace(fd)) < 1e-4 * np.max(np.abs(fd))


def test_fixed_point_zero_model():
    model = eff.uniform_Meff(UNIT_BOX, 0.0)
    v, log = eff.fixed_point_vc(model, UNIAXIAL, UNIT_BOX, 8)
    assert log["converged"] and log["iterations"] == 1
    assert np.all(v.values == 0.0)


def test_fixed_point_gate():
    model = eff.uniform_Meff(UNIT_BOX, 0.03, 5.0)   # sup = 0.15 > 1/8
    with pytest.raises(GateError):
        eff.fixed_point_vc(model, UNIAXIAL, UNIT_BOX, 8)


def test_fixed_point_first_iterate_matches_tilde_vc():
    model = eff.uniform_Meff(UNIT_BOX, 0.02, 5.0)
    gbox = np.array([[-0.5] * 3, [1.5] * 3])
    n = 16
    raster = model.rasterize(gbox, n)
    # UNIAXIAL has only coefficients 0 and 1; the second strain sends all
    # five source coefficients, the off-diagonal ones included, through the FFT
    for A in (UNIAXIAL, np.array([0.3, -0.7, 0.5, 0.2, -0.4])):
        v1, _ = eff.fixed_point_vc(model, A, gbox, n, max_iter=1)
        pts = v1.cell_centers().reshape(-1, 3)
        direct = eff.tilde_vc(raster, A, pts).reshape(n, n, n, 3)
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(v1.values - direct)) < 1e-6 * scale


def test_kernel_cache_holds_one_grid():
    model = eff.uniform_Meff(UNIT_BOX, 0.02, 5.0)
    gbox = np.array([[-0.5] * 3, [1.5] * 3])
    for n in (8, 4):
        eff.fixed_point_vc(model, UNIAXIAL, gbox, n, max_iter=1)
    assert eff._stresslet_cell_kernels.cache_info().currsize == 1
    khat = eff._stresslet_cell_kernels(4, tuple(gbox.ravel().tolist()))
    assert khat.shape == (3, 5, 8, 8, 5) and not khat.flags.writeable
    eff.clear_kernel_cache()
    assert eff._stresslet_cell_kernels.cache_info().currsize == 0


def test_fixed_point_non_convergence_reported():
    model = eff.uniform_Meff(UNIT_BOX, 0.02, 5.0)
    gbox = np.array([[-0.5] * 3, [1.5] * 3])
    v, log = eff.fixed_point_vc(model, UNIAXIAL, gbox, 8, tol=1e-30, max_iter=2)
    assert not log["converged"]
    assert log["iterations"] == 2
    assert len(log["increments"]) == 2


def test_fixed_point_contraction():
    model = eff.uniform_Meff(UNIT_BOX, 0.02, 5.0)   # sup = 0.1
    gbox = np.array([[-0.5] * 3, [1.5] * 3])
    v, log = eff.fixed_point_vc(model, UNIAXIAL, gbox, 16, tol=1e-10)
    inc = log["increments"]
    assert log["converged"]
    assert inc[-1] <= 1e-10
    ratios = [inc[k + 1] / inc[k] for k in range(1, len(inc) - 1) if inc[k] > 0]
    assert all(r <= 4.0 * model.sup_norm() for r in ratios)


# ---------------------------------------------------------------------------
# work functional


def test_einstein_first_order_exact():
    for c in (cl.generate_lattice(UNIT_BOX, 2, 0.05),
              cl.generate_rsa(UNIT_BOX, 40, 0.01, 0.05, seed=4)):
        coeff = eff.einstein_coefficient(c, UNIAXIAL, np.tile(UNIAXIAL, (c.n, 1)))
        assert abs(coeff - 2.5) < 1e-12


def test_einstein_zero_strains():
    c = cl.generate_lattice(UNIT_BOX, 2, 0.05)
    assert eff.einstein_work(c, UNIAXIAL, np.zeros((8, 5))) == 0.0


def test_einstein_work_sphere_value():
    c = cl.generate_lattice(UNIT_BOX, 2, 0.05)
    strains = np.tile(UNIAXIAL, (8, 1))
    w = eff.einstein_work(c, UNIAXIAL, strains)
    expected = 8 * (20 * np.pi / 3) * 0.05 ** 3 * sym3.frobenius(UNIAXIAL, UNIAXIAL)
    assert np.isclose(w, expected, rtol=1e-13)


def test_einstein_anisotropic_mobility():
    box = np.array([[0.0] * 3, [10.0] * 3])
    base = cl.generate_lattice(box, 2, 1.0)
    c_val = 3.7
    c = cl.ParticleCloud(centers=base.centers, a=1.0,
                         mobilities=np.tile(c_val * np.eye(5), (8, 1, 1)), box=box)
    coeff = eff.einstein_coefficient(c, UNIAXIAL, np.tile(UNIAXIAL, (8, 1)))
    assert np.isclose(coeff, 3.0 * c_val / (8.0 * np.pi), rtol=1e-12)
    # brute-force check through the work functional
    work = eff.einstein_work(c, UNIAXIAL, np.tile(UNIAXIAL, (8, 1)))
    phi = cl.validate(c).phi_global
    assert np.isclose(coeff, work / (2 * sym3.frobenius(UNIAXIAL, UNIAXIAL)
                                     * 1000.0 * phi), rtol=1e-13)


def test_einstein_converged_near_first_order_at_low_phi():
    phi = 1e-4
    a = (3 * phi / (4 * np.pi * 27)) ** (1 / 3)
    c = cl.generate_lattice(UNIT_BOX, 3, a)
    coeff = eff.einstein_coefficient(c, UNIAXIAL, refl.run_reflections(c, UNIAXIAL).A_hat)
    assert abs(coeff - 2.5) < 1e-2


def test_einstein_rejects_empty_cloud():
    empty = cl.ParticleCloud(centers=np.zeros((0, 3)), a=0.05,
                             mobilities=np.zeros((0, 5, 5)), box=UNIT_BOX)
    with pytest.raises(ValueError, match="zero volume fraction"):
        eff.einstein_coefficient(empty, UNIAXIAL, np.zeros((0, 5)))


# ---------------------------------------------------------------------------
# Lp field distance


def grid_points(n):
    """Cell centres (n^3, 3) and cell volume of the n^3 grid on the unit box."""
    g = GridField.zeros(UNIT_BOX, n)
    return g.cell_centers().reshape(-1, 3), g.cell_volume


def test_lp_identical_zero():
    pts, vol = grid_points(8)
    assert eff.lp_field_distance(pts, pts, 1.2, vol) == 0.0


def test_lp_constant_difference():
    pts, vol = grid_points(8)
    u = np.full((len(pts), 1), 2.0)
    v = np.full((len(pts), 1), -1.0)
    for p in (1.0, 1.2, 1.4):
        val = eff.lp_field_distance(u, v, p, vol)
        assert np.isclose(val, 3.0, rtol=1e-12)


def test_lp_p_range():
    pts, vol = grid_points(8)
    for p in (0.9, 1.5, 1.6):
        with pytest.raises(ValueError):
            eff.lp_field_distance(pts, pts, p, vol)


def test_lp_grid_refinement_stable():
    def u(pts):
        return np.exp(-4 * np.einsum("pi,pi->p", pts - 0.4, pts - 0.4))[:, None]

    def v(pts):
        return 0.5 * np.exp(-3 * np.einsum("pi,pi->p", pts - 0.6, pts - 0.6))[:, None]

    vals = []
    for n in (16, 32):
        pts, vol = grid_points(n)
        vals.append(eff.lp_field_distance(u(pts), v(pts), 1.2, vol))
    assert abs(vals[1] - vals[0]) < 0.02 * vals[0]


def test_lp_exclusion_region():
    c = cl.generate_lattice(UNIT_BOX, 2, 0.05)
    pts = c.centers + np.array([0.0, 0.0, 0.1])   # within 4a = 0.2 of centers
    assert not eff.outside_balls(pts, c).any()
    assert eff.outside_balls(np.array([[0.5, 0.5, 0.5]]), c).all()
    # indicator of the kept cells: the distance only integrates over them
    pts, vol = grid_points(16)
    keep = eff.outside_balls(pts, c)
    val = eff.lp_field_distance(np.ones((keep.sum(), 1)), np.zeros((keep.sum(), 1)),
                                1.0, vol)
    excluded_volume = 8 * (4 / 3) * np.pi * 0.2 ** 3
    assert abs(val - (1.0 - excluded_volume)) < 0.05


def test_exclusion_mask_matches_brute_force(rng):
    # dyadic coordinates: distances to the first center are exact in floats
    radius = 0.125
    centers = np.vstack([[0.5, 0.5, 0.5], [0.25, 0.75, 0.25],
                         rng.uniform(0.3, 0.7, size=(20, 3))])
    c = cl.ParticleCloud.spheres(centers, radius / cl.FIELD_EXCLUSION_FACTOR, UNIT_BOX)
    g = np.arange(-1, 18) / 16.0              # points on and beyond the box faces too
    pts = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
    got = eff.outside_balls(pts, c)
    z = pts[:, None, :] - centers[None, :, :]
    brute = np.all(np.einsum("pci,pci->pc", z, z) > radius ** 2, axis=1)
    assert np.array_equal(got, brute)
    # exactly 4a = radius from a center: excluded
    assert not eff.outside_balls(np.array([[0.625, 0.5, 0.5], [0.5, 0.5, 0.375]]), c).any()

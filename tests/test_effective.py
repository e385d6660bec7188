import tracemalloc

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


def brute_force_assembly(c, n):
    """assemble_MN on UNIT_BOX by a loop over cells, balls and subcell
    midpoints, and the number of midpoints exactly at distance a."""
    field = GridField.zeros(UNIT_BOX, n, (5, 5))
    h = field.cell_size
    t = (np.arange(eff._RASTER_SUB) + 0.5) / eff._RASTER_SUB - 0.5
    offsets = np.stack(np.meshgrid(t * h[0], t * h[1], t * h[2], indexing="ij"),
                       axis=-1).reshape(-1, 3)
    scale = 3.0 / (4.0 * np.pi * c.a ** 3)
    cells = field.cell_centers()
    on_sphere = 0
    for idx in np.ndindex(n, n, n):
        for center, mob in zip(c.centers, c.mobilities):
            rel = cells[idx] + offsets - center
            r2 = np.einsum("...i,...i->...", rel, rel)
            on_sphere += np.count_nonzero(r2 == c.a ** 2)
            field.values[idx] += (scale * (np.sum(r2 <= c.a ** 2) / len(offsets))) * mob
    return field.values, on_sphere


def test_assemble_matches_brute_force_loop(rng):
    # grid 8 on the unit box: the first ball crosses the lower x face, the
    # other two share boundary cells; anisotropic mobilities pin the order in
    # which each cell sums its balls
    c = cl.ParticleCloud(centers=[[0.1, 0.5, 0.5], [0.55, 0.3, 0.6], [0.6, 0.75, 0.45]],
                         a=0.3, mobilities=rng.normal(size=(3, 5, 5)),
                         box=[[-1.0] * 3, [2.0] * 3])
    expected, _ = brute_force_assembly(c, 8)
    assert np.any(expected[0] != 0.0)
    assert np.array_equal(eff.assemble_MN(c, UNIT_BOX, 8).values, expected)


def test_assemble_matches_brute_force_loop_at_the_radius(rng):
    # grid 16: subcell midpoints sit at odd multiples of 1/256 and the centres
    # 1/256 past a multiple of 1/128, so every offset is an exact multiple of
    # 1/128; a = 18/128 is |(18, 0, 0)|, |(16, 8, 2)| and |(12, 12, 6)| / 128,
    # so many midpoints lie exactly at distance a and count as covered
    shift = 0.5 + 1.0 / 256.0
    c = cl.ParticleCloud(centers=[[shift] * 3, [shift - 0.25, shift, shift + 0.125]],
                         a=18.0 / 128.0, mobilities=rng.normal(size=(2, 5, 5)),
                         box=[[-1.0] * 3, [2.0] * 3])
    expected, on_sphere = brute_force_assembly(c, 16)
    assert on_sphere >= 2 * 6
    assert np.array_equal(eff.assemble_MN(c, UNIT_BOX, 16).values, expected)


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


def reference_rasterize(model, box, n):
    """`EffectiveModel.rasterize` by a boolean mask over all cell centres."""
    out = GridField.zeros(box, n, (5, 5))
    centers = out.cell_centers()
    inside = np.all((centers >= model.box[0]) & (centers <= model.box[1]), axis=-1)
    out.values[inside] = model.matrix
    return out


@pytest.mark.parametrize("support", [
    [[0.0] * 3, [1.0] * 3],                   # inside the padded grid
    [[-0.5] * 3, [1.5] * 3],                  # the whole grid
    [[0.1875, -0.5, 0.0], [0.8125, 1.0, 1.5]],  # faces exactly on cell centres
    [[0.01] * 3, [0.02] * 3],                 # covers no cell centre
    [[2.0] * 3, [3.0] * 3],                   # outside the grid
])
def test_rasterize_matches_mask_reference(rng, support):
    # grid 16 on [-0.5, 1.5]: the centres are -0.4375 + k/8, so 0.1875 and
    # 0.8125 are centres, and a face there keeps its cell
    gbox = np.array([[-0.5] * 3, [1.5] * 3])
    model = eff.EffectiveModel(box=np.array(support), matrix=rng.normal(size=(5, 5)))
    want = reference_rasterize(model, gbox, 16)
    assert np.array_equal(model.rasterize(gbox, 16).values, want.values)
    if support[0][0] == 0.1875:
        assert np.any(want.values[5]) and np.any(want.values[10]) and not np.any(want.values[11])


@pytest.mark.parametrize("make, message", [
    # swapped corners read as a zero coefficient: `fixed_point_vc` returned a
    # zero velocity with converged: True
    (lambda: eff.uniform_Meff([[1, 1, 1], [0, 0, 0]], 0.02), "box must be"),
    (lambda: eff.EffectiveModel(box=np.array([[0.6, 0.0, 0.0], [0.4, 1.0, 1.0]]),
                                matrix=np.eye(5)), "box must be"),
    (lambda: eff.EffectiveModel(box=np.array([[0.0, 0.0, 0.0], [1.0, np.nan, 1.0]]),
                                matrix=np.eye(5)), "box must be"),
    (lambda: eff.EffectiveModel(box=UNIT_BOX, matrix=np.full((5, 5), np.nan)), "finite 5x5"),
    (lambda: eff.EffectiveModel(box=UNIT_BOX, matrix=np.eye(3)), "finite 5x5"),
], ids=["swapped_box", "inverted_axis", "nan_box", "nan_matrix", "matrix_shape"])
def test_effective_model_refuses_bad_inputs(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_uniform_model_gate_class():
    eps0 = 0.05
    assert eff.uniform_Meff(UNIT_BOX, 0.009, 5.0).sup_norm() <= eps0
    assert eff.uniform_Meff(UNIT_BOX, 0.011, 5.0).sup_norm() > eps0


def test_negative_phi_rejected():
    # an infinite phi built a NaN matrix after a RuntimeWarning
    for phi in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError):
            eff.uniform_Meff(UNIT_BOX, phi)


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


def reference_hminus1(f, g):
    """`hminus1_distance` as a plain per-component loop: one spectral sum
    for every nonzero component, equal ones included."""
    n, dx, lo = f.n, float(f.cell_size[0]), float(f.box[0][0])
    npad = n * eff._HM1_PAD
    kmax = min(eff._HM1_KMAX, npad // 2 - 1)
    k1 = np.fft.fftfreq(npad, d=dx) * 2.0 * np.pi
    dxi = k1[1]
    k2 = k1[:, None, None] ** 2 + k1[None, :, None] ** 2 + k1[None, None, :] ** 2
    j1 = np.abs(np.rint(np.fft.fftfreq(npad) * npad).astype(int))
    nx = j1 <= kmax
    k2[nx[:, None, None] & nx[None, :, None] & nx[None, None, :]] = np.inf
    weights = eff._refined_weights(kmax)
    xi = ((np.arange(weights.shape[0]) + 0.5) / eff._HM1_SUB - (kmax + 0.5)) * dxi
    E = np.exp(-1j * np.outer(xi, lo + (np.arange(n) + 0.5) * dx))
    diff = (f.values - g.values).reshape(n, n, n, -1)
    total = 0.0
    for c in range(diff.shape[-1]):
        arr = diff[..., c]
        if not arr.any():
            continue
        H = np.fft.fftn(arr, s=(npad,) * 3, axes=(0, 1, 2))
        far_sq = float(np.sum((H.real ** 2 + H.imag ** 2) / k2)) * dx ** 6 * dxi ** 3
        Z = np.tensordot(E, arr, axes=(1, 0))
        Z = np.tensordot(E, Z, axes=(1, 1))
        Z = np.tensordot(E, Z, axes=(1, 2))
        Z = Z.transpose(2, 1, 0) * dx ** 3
        near_sq = float(np.sum((Z.real ** 2 + Z.imag ** 2) * weights)) * dxi
        total += far_sq + near_sq
    return float(np.sqrt(total / (2.0 * np.pi) ** 3))


def test_hminus1_reuses_equal_components_bit_for_bit(rng):
    # zero, equal (the diagonal), symmetric-pair and distinct components
    f = GridField.zeros(np.array([[-4.0] * 3, [4.0] * 3]), 16, (5, 5))
    bumps = [bump_field(rng, n=16).values for _ in range(4)]
    for i in range(5):
        f.values[..., i, i] = bumps[0]
    f.values[..., 0, 1] = f.values[..., 1, 0] = bumps[1]
    f.values[..., 2, 4] = f.values[..., 4, 2] = bumps[2]
    f.values[..., 3, 4] = bumps[3]
    f.values[..., 1, 3] = -bumps[3]
    g = GridField.zeros(f.box, f.n, (5, 5))
    g.values[..., 3, 4] = 0.5 * bumps[0]
    assert eff.hminus1_distance(f, g) == reference_hminus1(f, g)
    assert eff.hminus1_distance(g, f) == reference_hminus1(g, f)


@pytest.mark.parametrize("block", [
    (slice(3, 9), slice(0, 16), slice(10, 12)),    # touches two faces of one axis
    (slice(5, 6), slice(7, 8), slice(15, 16)),     # a single cell on a face
    (slice(0, 16),) * 3,                           # the whole grid
])
def test_hminus1_on_a_sub_block_matches_reference(rng, block):
    # the zoom sums run over each component's nonzero block only
    f = GridField.zeros(np.array([[-4.0] * 3, [4.0] * 3]), 16, (5, 5))
    f.values[block] = rng.normal(size=f.values[block].shape)
    f.values[block + (2, 2)] = 0.0
    # a component whose block is smaller than the field's
    inner = tuple(slice(b.start, b.start + max(1, (b.stop - b.start) // 2)) for b in block)
    f.values[..., 3, 4] = 0.0
    f.values[inner + (3, 4)] = rng.normal(size=f.values[inner + (3, 4)].shape)
    g = eff.uniform_Meff(np.array([[0.0] * 3, [2.0] * 3]), 0.02).rasterize(f.box, f.n)
    assert eff.hminus1_distance(f, g) == reference_hminus1(f, g)


def test_hminus1_one_fft_per_distinct_component(rng, monkeypatch):
    box = np.array([[-0.5] * 3, [1.5] * 3])
    c = cl.generate_rsa(UNIT_BOX, 20, 0.03, 0.15, seed=2)
    with pytest.warns(UserWarning, match="under-resolved"):
        MN = eff.assemble_MN(c, box, 16)
    Meff = eff.uniform_Meff(UNIT_BOX, 0.01).rasterize(box, 16)
    B = rng.normal(size=(16, 16, 16, 5, 5))
    sym = GridField(box=box, n=16, values=B + np.swapaxes(B, -1, -2))
    calls, fftn = [], np.fft.fftn
    monkeypatch.setattr(np.fft, "fftn", lambda *a, **k: calls.append(1) or fftn(*a, **k))
    eff.hminus1_distance(MN, Meff)
    assert len(calls) == 1
    eff.hminus1_distance(sym, Meff)
    assert len(calls) == 1 + 15


def traced_peak(call):
    """Peak traced allocation of call(), in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_hminus1_memory_is_bounded():
    # one sphere against c phi I at n = 32: one component's difference, the
    # padded spectrum and the zoom cube are alive at a time, not the whole
    # (n, n, n, 25) difference and full-size squared magnitudes (23 MiB), and
    # |xi|^2 is built a slab at a time, not as a padded grid (13.4 MiB); the
    # peak is 11.3 MiB, the zoom cube and its squared magnitudes
    box = np.array([[-0.5] * 3, [1.5] * 3])
    c = cl.generate_lattice(UNIT_BOX, 1, 0.15)
    MN = eff.assemble_MN(c, box, 32)
    Meff = eff.uniform_Meff(UNIT_BOX, cl.validate(c).phi_global).rasterize(box, 32)
    eff.hminus1_distance(MN, Meff)      # the refined weights are cached
    assert traced_peak(lambda: eff.hminus1_distance(MN, Meff)) < 12 * 2 ** 20


SPHERE_CLOUDS = {
    "lattice": lambda: cl.generate_lattice(UNIT_BOX, 2, 0.1),
    "rsa": lambda: cl.generate_rsa(UNIT_BOX, 30, 0.03, 0.15, seed=5),
}


@pytest.mark.filterwarnings("ignore:grid spacing")
@pytest.mark.parametrize("kind", sorted(SPHERE_CLOUDS))
@pytest.mark.parametrize("n", [8, 16, 24])
@pytest.mark.parametrize("padding", [0.0, 0.3, 0.5])
def test_sphere_hminus1_matches_the_assembled_fields(kind, n, padding):
    # the scalar path against the 25-component fields it replaces
    c = SPHERE_CLOUDS[kind]()
    box = np.array([UNIT_BOX[0] - padding, UNIT_BOX[1] + padding])
    model = eff.uniform_Meff(UNIT_BOX, cl.validate(c).phi_global)
    want = eff.hminus1_distance(eff.assemble_MN(c, box, n), model.rasterize(box, n))
    got = eff.sphere_hminus1_distance(c, model, box, n)
    assert want > 0 and abs(got - want) <= 1e-15 * want


def test_sphere_hminus1_refuses_what_is_not_a_scalar_field():
    c = cl.generate_lattice(UNIT_BOX, 2, 0.1)
    model = eff.uniform_Meff(UNIT_BOX, 0.01)
    mob = np.array(c.mobilities)
    mob[3, 0, 1] = mob[3, 1, 0] = 1e-3 * mob[3, 0, 0]
    rod = cl.ParticleCloud(centers=c.centers, a=c.a, mobilities=mob, box=c.box)
    with pytest.raises(ValueError, match="needs a sphere cloud and a model c I"):
        eff.sphere_hminus1_distance(rod, model, UNIT_BOX, 8)
    for matrix in (0.01 * np.diag([1.0, 1.0, 1.0, 1.0, 2.0]),
                   0.01 * (np.eye(5) + 1e-3 * np.eye(5, k=1))):
        anisotropic = eff.EffectiveModel(box=UNIT_BOX, matrix=matrix)
        with pytest.raises(ValueError, match="needs a sphere cloud and a model c I"):
            eff.sphere_hminus1_distance(c, anisotropic, UNIT_BOX, 8)


def reference_refined_weights(kmax):
    """`_refined_weights` built on (m, m, m) coordinate grids."""
    m = (2 * kmax + 1) * eff._HM1_SUB
    s = 1.0 / eff._HM1_SUB
    c1 = (np.arange(m) + 0.5) * s - (kmax + 0.5)
    CX, CY, CZ = np.meshgrid(c1, c1, c1, indexing="ij")
    w = s ** 3 / (CX ** 2 + CY ** 2 + CZ ** 2)
    mid = np.max(np.abs(np.stack([CX, CY, CZ], axis=-1)), axis=-1) < 2.6 * s
    t = ((np.arange(24) + 0.5) / 24 - 0.5) * s
    TX, TY, TZ = np.meshgrid(t, t, t, indexing="ij")
    for i, j, l in np.argwhere(mid):
        rr = (c1[i] + TX) ** 2 + (c1[j] + TY) ** 2 + (c1[l] + TZ) ** 2
        w[i, j, l] = np.mean(1.0 / rr) * s ** 3
    corner = (np.abs(CX) < 0.6 * s) & (np.abs(CY) < 0.6 * s) & (np.abs(CZ) < 0.6 * s)
    w[corner] = (eff._C0_UNIT_CUBE / 4.0) * s
    return w


@pytest.mark.parametrize("kmax", range(1, 7))
def test_refined_weights_bit_for_bit(kmax):
    assert np.array_equal(eff._refined_weights(kmax), reference_refined_weights(kmax))


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
    # one grid, different component shapes
    with pytest.raises(GridMismatchError):
        eff.hminus1_distance(GridField.zeros(f.box, 8, (5, 5)), GridField.zeros(f.box, 8, (3,)))


def test_hminus1_refuses_a_one_cell_grid():
    one = GridField.zeros(UNIT_BOX, 1)
    with pytest.raises(ValueError, match="padded grid too small"):
        eff.hminus1_distance(one, one)


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


def reference_subcell_velocity(m, z, h):
    """`_subcell_velocity` as one kernel call per subcell offset."""
    w = sym3.sym_matrix(np.asarray(m) / eff._NEAR_SUB ** 3)
    out = np.zeros((len(z), 3))
    for delta in eff._subcell_offsets(h, eff._NEAR_SUB):
        zs, r2 = kernels.pair_offsets(z, delta[None], exclude_within=1e-9 * np.max(h))
        out += np.hstack(kernels.stresslet_velocity_kernel(w, zs, r2))
    return out


def test_subcell_velocity_bit_for_bit(rng):
    # more rows than one pair chunk holds, and a target on a subcell centre
    h = np.array([0.05, 0.04, 0.06])
    z = rng.uniform(-0.1, 0.1, size=(kernels.PAIR_BUDGET // 64 * 2 + 7, 3))
    offsets = eff._subcell_offsets(h, eff._NEAR_SUB)
    z[5] = offsets[9]
    for m in (np.prod(h) * rng.normal(size=5), rng.normal(size=(5, len(z), 1))):
        assert np.array_equal(eff._subcell_velocity(m, z, h, offsets),
                              reference_subcell_velocity(m, z, h))


def cold_kernel_spectra(n, gbox, lo, m):
    """All five coefficients' kernel spectra of one grid, filled at once into a
    fresh array, outside the cache."""
    khat = np.empty((3, 5, m[0], m[1], m[2] // 2 + 1), dtype=complex)
    eff._fill_cell_kernels(khat, set(), range(5), n, tuple(gbox.ravel().tolist()), lo, m)
    return khat


def test_cell_kernel_spectra_do_not_depend_on_chunking(monkeypatch):
    # slabs of one lag row, slabs of 5 rows (12 = 5 + 5 + 2) and the whole
    # lag grid in one slab (the default budget) fill the same spectra
    n, gbox, lo, m = 8, np.array([[-0.5] * 3, [1.5] * 3]), (2, 2, 0), (12, 16, 12)
    spectra = []
    for budget in (1, 5 * m[1] * m[2], kernels.PAIR_BUDGET):
        monkeypatch.setattr(kernels, "PAIR_BUDGET", budget)
        spectra.append(cold_kernel_spectra(n, gbox, lo, m))
    assert all(np.array_equal(spectra[0], other) for other in spectra[1:])


def reference_kernel_spectra(n, gbox, lo, m):
    """The kernel spectra as `rfftn` of whole lag-grid kernels: lag q at index
    q <= n - 1 - lo, else q - m, the near lags subdivided."""
    h = (gbox[1] - gbox[0]) / n
    lags = (np.where(np.arange(k) <= n - 1 - l, np.arange(k), np.arange(k) - k) * hk
            for l, k, hk in zip(lo, m, h))
    z = np.stack(np.meshgrid(*lags, indexing="ij"))
    r2 = z[0] * z[0] + z[1] * z[1] + z[2] * z[2]
    near = r2 <= eff._near_radius(h) ** 2
    r2[near] = np.inf
    khat = np.empty((3, 5, m[0], m[1], m[2] // 2 + 1), dtype=complex)
    for c, unit in enumerate(np.prod(h) * np.eye(5)):
        kern = kernels.stresslet_velocity_kernel(sym3.sym_matrix(unit), z, r2)
        kern[:, near] = eff._subcell_velocity(unit, z[:, near].T, h,
                                              eff._subcell_offsets(h, eff._NEAR_SUB)).T
        for i in range(3):
            khat[i, c] = np.fft.rfftn(kern[i])
    return khat


@pytest.mark.parametrize("n, gbox, lo, m", [
    (8, np.array([[-0.5] * 3, [1.5] * 3]), (2, 2, 0), (12, 16, 12)),
    (16, np.array([[-0.5, -0.2, 0.0], [1.5, 1.0, 0.9]]), (3, 0, 5), (24, 32, 24)),  # 2 slabs
])
def test_cell_kernel_spectra_are_rfftn_of_the_lag_grid(n, gbox, lo, m):
    # the slabs' transforms on axes 2 and 1, finished on axis 0, keep rfftn's bits
    assert np.array_equal(cold_kernel_spectra(n, gbox, lo, m),
                          reference_kernel_spectra(n, gbox, lo, m))


def five_component_convolution(sources, gbox, n):
    """`_convolve_sources` of sources filling the grid: all five components
    transformed, their products summed, and one full padded irfftn."""
    khat = cold_kernel_spectra(n, gbox, (0, 0, 0), (2 * n,) * 3)
    shat = [np.fft.rfftn(sources[..., c], s=(2 * n,) * 3, axes=(0, 1, 2)) for c in range(5)]
    out = np.empty((n, n, n, 3))
    for i in range(3):
        acc = shat[0] * khat[i, 0]
        for c in range(1, 5):
            acc += shat[c] * khat[i, c]
        out[..., i] = np.fft.irfftn(acc, s=(2 * n,) * 3, axes=(0, 1, 2))[:n, :n, :n]
    return out


def test_convolve_sources_bit_for_bit(rng):
    # the pruned inverse against the full padded irfftn
    n, gbox = 8, np.array([[-0.5] * 3, [1.5] * 3])
    sources = rng.normal(size=(n, n, n, 5))
    eff.clear_kernel_cache()
    out, filled, lengths = eff._convolve_sources(sources, gbox, n)
    assert filled == 5 and lengths == (2 * n,) * 3
    assert np.array_equal(out, five_component_convolution(sources, gbox, n))


@pytest.mark.parametrize("nonzero", [(1,), (0, 2, 4)])
def test_convolve_sources_skips_zero_components(rng, nonzero):
    # transforming only the nonzero components drops terms that add exact zeros
    n, gbox = 8, np.array([[-0.5] * 3, [1.5] * 3])
    sources = np.zeros((n, n, n, 5))
    sources[..., list(nonzero)] = rng.normal(size=(n, n, n, len(nonzero)))
    eff.clear_kernel_cache()
    out, filled, _ = eff._convolve_sources(sources, gbox, n)
    # only the nonzero components' kernel spectra are filled
    assert filled == len(nonzero)
    assert eff._stresslet_cell_kernels(n, tuple(gbox.ravel().tolist()), (0, 0, 0),
                                       (2 * n,) * 3)[1] == set(nonzero)
    assert np.array_equal(out, five_component_convolution(sources, gbox, n))


def test_kernel_fill_order_does_not_matter(rng):
    # spectra filled over three calls equal a cold build of all five at once
    n, gbox = 8, np.array([[-0.5] * 3, [1.5] * 3])
    key = (n, tuple(gbox.ravel().tolist()), (0, 0, 0), (2 * n,) * 3)
    eff.clear_kernel_cache()
    for comps, new in (([2], 1), ([0, 2, 4], 2), (range(5), 2)):
        sources = np.zeros((n, n, n, 5))
        sources[..., list(comps)] = rng.normal(size=(n, n, n, len(comps)))
        assert eff._convolve_sources(sources, gbox, n)[1] == new
        assert eff._stresslet_cell_kernels(*key)[1] == set(comps)
    assert eff._stresslet_cell_kernels.cache_info().misses == 1
    assert np.array_equal(eff._stresslet_cell_kernels(*key)[0],
                          cold_kernel_spectra(n, gbox, (0, 0, 0), (2 * n,) * 3))


def full_padding_convolution(sources, box, n):
    """The convolution on the 2n-padded grid, whatever the sources' support:
    kernels on lags 0..n-1, -n..-1 per axis and a full irfftn."""
    h = (box[1] - box[0]) / n
    lag = np.where(np.arange(2 * n) < n, np.arange(2 * n), np.arange(2 * n) - 2 * n)
    z = np.meshgrid(lag * h[0], lag * h[1], lag * h[2], indexing="ij")
    r2 = z[0] * z[0] + z[1] * z[1] + z[2] * z[2]
    near = r2 <= eff._near_radius(h) ** 2
    r2[near] = np.inf
    zn = np.stack([zi[near] for zi in z], axis=-1)
    out = np.zeros((n, n, n, 3))
    for c, unit in enumerate(np.prod(h) * np.eye(5)):
        kern = kernels.stresslet_velocity_kernel(sym3.sym_matrix(unit), z, r2)
        close = eff._subcell_velocity(unit, zn, h, eff._subcell_offsets(h, eff._NEAR_SUB))
        shat = np.fft.rfftn(sources[..., c], s=(2 * n,) * 3, axes=(0, 1, 2))
        for i in range(3):
            kern[i][near] = close[:, i]
            acc = shat * np.fft.rfftn(kern[i])
            out[..., i] += np.fft.irfftn(acc, s=(2 * n,) * 3, axes=(0, 1, 2))[:n, :n, :n]
    return out


@pytest.mark.parametrize("block", [
    (slice(0, 3), slice(0, 5), slice(0, 2)),        # touches the low faces
    (slice(7, 10), slice(4, 10), slice(9, 10)),     # touches the high faces
    (slice(3, 6), slice(5, 6), slice(2, 8)),        # neither; unequal spans
    (slice(4, 5),) * 3,                             # a single cell
    (slice(0, 10), slice(2, 4), slice(0, 10)),      # two axes spanned
])
def test_convolve_sources_block_matches_full_padding(rng, block):
    n = 10
    for gbox in (np.array([[-0.5] * 3, [1.5] * 3]),
                 np.array([[-0.5, -0.2, 0.0], [1.5, 1.0, 0.9]])):    # non-cubic cells
        sources = np.zeros((n, n, n, 5))
        sources[block] = rng.normal(size=sources[block].shape)
        want = full_padding_convolution(sources, gbox, n)
        # the whole grid, the block at its first cell, and the block with a
        # margin of zero cells: each is transformed as given
        parts = [(slice(0, n),) * 3, block]
        for _ in range(3):
            parts.append(tuple(slice(int(rng.integers(0, b.start + 1)),
                                     int(rng.integers(b.stop, n + 1))) for b in block))
        for part in parts:
            at = tuple(p.start for p in part)
            got, _, lengths = eff._convolve_sources(sources[part], gbox, n, at)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
            assert lengths == tuple(eff._padded_length(n, p.stop - p.start) for p in part)


def test_convolve_sources_zero_sources_give_exact_zeros():
    out, filled, lengths = eff._convolve_sources(np.zeros((6, 6, 6, 5)), UNIT_BOX, 6)
    assert out.shape == (6, 6, 6, 3) and not out.any() and filled == 0 and lengths is None


def test_padded_length():
    # n + span - 1 rounded up to an even 2^a 3^b, never above 2n
    assert [eff._padded_length(32, s) for s in (1, 16, 17, 32)] == [32, 48, 48, 64]
    assert eff._padded_length(10, 3) == 12 and eff._padded_length(10, 7) == 16
    for n in (5, 7, 10, 13, 32):
        assert eff._padded_length(n, n) == 2 * n


def reference_fixed_point(model, A, box, n, tol=1e-8, max_iter=50):
    """`fixed_point_vc` on the whole grid: differences, projection and
    mobility on all n^3 cells, and the convolution of the bounding block of
    the nonzero sources, cut here from the whole-grid right-hand side."""
    raster = reference_rasterize(model, box, n)
    A = np.asarray(A, dtype=float).reshape(5)
    h, vol = raster.cell_size, raster.cell_volume
    v = np.zeros((n, n, n, 3))
    increments, converged, filled = [], False, 0
    for _ in range(max_iter):
        if increments:
            strain = sym3.project_sym_tracefree(
                np.stack(np.gradient(v, *h, axis=(0, 1, 2)), axis=-1))
        else:
            strain = np.zeros((n, n, n, 5))
        rhs = sym3.apply_mobility(raster.values, strain + A)
        cut = eff._nonzero_block(rhs) or (slice(0, n),) * 3
        v_new, new_spectra, lengths = eff._convolve_sources(rhs[cut], box, n,
                                                            tuple(c.start for c in cut))
        filled += new_spectra
        increments.append(float(np.sqrt(np.sum((v_new - v) ** 2) * vol)))
        v = v_new
        if increments[-1] <= tol:
            converged = True
            break
    return v, {"increments": increments, "iterations": len(increments), "converged": converged,
               "fft_shape": list(lengths) if lengths else None,
               "kernels_cached": filled == 0}


PADDED = np.array([[-0.5] * 3, [1.5] * 3])
SUPPORTS = {   # (model box, grid box, phi)
    "inside": (UNIT_BOX, PADDED, 0.02),
    "padding 0": (UNIT_BOX, UNIT_BOX, 0.02),
    "flush with a face": (np.array([[-0.5, 0.0, 0.1], [0.3, 1.0, 0.9]]), PADDED, 0.02),
    "no cell centre": (np.array([[0.01] * 3, [0.02] * 3]), PADDED, 0.02),
    "no cell centre at a face": (np.array([[-0.5, 0.0, 0.1], [-0.45, 1.0, 0.9]]), PADDED, 0.02),
    "phi 0": (UNIT_BOX, PADDED, 0.0),
}


@pytest.mark.parametrize("support", SUPPORTS)
@pytest.mark.parametrize("n", [8, 16])
def test_fixed_point_matches_full_grid_loop(support, n):
    # the support-block engine keeps every bit of the whole-grid iteration:
    # velocity, increments and the log, for one, two and all iterations
    mbox, gbox, phi = SUPPORTS[support]
    model = eff.uniform_Meff(mbox, phi)
    for A in (UNIAXIAL, np.array([0.3, -0.7, 0.5, 0.2, -0.4])):
        for max_iter in (1, 2, 50):
            eff.clear_kernel_cache()
            v, log = eff.fixed_point_vc(model, A, gbox, n, max_iter=max_iter)
            eff.clear_kernel_cache()
            want_v, want_log = reference_fixed_point(model, A, gbox, n, max_iter=max_iter)
            assert np.array_equal(v.values, want_v)
            assert log == want_log
    assert log["converged"]


def test_fixed_point_convolves_the_support_block(monkeypatch):
    # padding 0.5 at n = 32: the coefficient covers cells 8..23 of each axis
    seen, convolve = [], eff._convolve_sources
    monkeypatch.setattr(eff, "_convolve_sources",
                        lambda s, *a: seen.append((s.shape, a[2:])) or convolve(s, *a))
    eff.fixed_point_vc(eff.uniform_Meff(UNIT_BOX, 0.02), UNIAXIAL, PADDED, 32, max_iter=2)
    assert seen == [((16, 16, 16, 5), ((8, 8, 8),))] * 2


@pytest.mark.parametrize("support", SUPPORTS)
def test_support_is_the_raster_block(support):
    mbox, gbox, _ = SUPPORTS[support]
    model = eff.EffectiveModel(box=mbox, matrix=np.eye(5))   # "phi 0" included
    block = model.support(GridField.zeros(gbox, 16))
    want = eff._nonzero_block(model.rasterize(gbox, 16).values)
    if support == "no cell centre":
        assert want is None and all(b.stop <= b.start for b in block)
    elif support == "no cell centre at a face":
        assert want is None and block[0] == slice(0, 0)
    else:
        assert block == want


def test_fixed_point_never_rasterizes(monkeypatch):
    # the solve broadcasts the matrix over its support block
    def rasterize(self, box, n):
        raise AssertionError("fixed_point_vc rasterized the model")
    monkeypatch.setattr(eff.EffectiveModel, "rasterize", rasterize)
    for mbox, gbox, phi in SUPPORTS.values():
        _, log = eff.fixed_point_vc(eff.uniform_Meff(mbox, phi), UNIAXIAL, gbox, 8)
        assert log["converged"]
    # a warm one-iterate solve at n = 32 peaks below one (n, n, n, 5, 5) field
    model = eff.uniform_Meff(UNIT_BOX, 0.02)
    eff.fixed_point_vc(model, UNIAXIAL, PADDED, 32, max_iter=1)
    peak = traced_peak(lambda: eff.fixed_point_vc(model, UNIAXIAL, PADDED, 32, max_iter=1))
    assert peak < 32 ** 3 * 25 * 8


def test_fixed_point_zero_model():
    model = eff.uniform_Meff(UNIT_BOX, 0.0)
    v, log = eff.fixed_point_vc(model, UNIAXIAL, UNIT_BOX, 8)
    assert log["converged"] and log["iterations"] == 1
    assert np.all(v.values == 0.0)


@pytest.mark.parametrize("bad", [{"max_iter": 0}, {"tol": 0.0}, {"tol": -1.0},
                                 {"tol": np.nan}, {"tol": np.inf}])
def test_fixed_point_input_contract(bad):
    # an empty support at a grid face too: no iterate runs on a bad input
    for support in ("inside", "no cell centre at a face"):
        mbox, gbox, phi = SUPPORTS[support]
        with pytest.raises(ValueError):
            eff.fixed_point_vc(eff.uniform_Meff(mbox, phi), UNIAXIAL, gbox, 8, **bad)


def test_fixed_point_gate():
    model = eff.uniform_Meff(UNIT_BOX, 0.03, 5.0)   # sup = 0.15 > 1/8
    with pytest.raises(GateError):
        eff.fixed_point_vc(model, UNIAXIAL, UNIT_BOX, 8)


def test_fixed_point_first_iterate_matches_tilde_vc():
    # the unit box padded by 0.5 has dyadic cells, 2/n; padding 0.3 (cells
    # 1.6/n) and the box of side 0.3 (cells 0.6/n) do not, so a source cell
    # at exactly the near radius has offsets that round either way, and n
    # takes values that are not powers of two
    grids = [(UNIT_BOX, 0.5, 16)] + [(box, padding, n) for box, padding in
                                     ((UNIT_BOX, 0.3), (0.3 * UNIT_BOX, 0.5))
                                     for n in (12, 16, 24)]
    for box, padding, n in grids:
        model = eff.uniform_Meff(box, 0.02, 5.0)
        gbox = box + padding * (box[1] - box[0]) * np.array([[-1.0], [1.0]])
        raster = model.rasterize(gbox, n)
        # UNIAXIAL has only coefficients 0 and 1; the second strain sends all
        # five source coefficients, the off-diagonal ones included, through the FFT
        for A in (UNIAXIAL, np.array([0.3, -0.7, 0.5, 0.2, -0.4])):
            v1, _ = eff.fixed_point_vc(model, A, gbox, n, max_iter=1)
            pts = v1.cell_centers().reshape(-1, 3)
            direct = eff.tilde_vc(raster, A, pts).reshape(n, n, n, 3)
            scale = np.max(np.abs(direct))
            assert np.max(np.abs(v1.values - direct)) < 1e-6 * scale, (box[1][0], padding, n)


def test_kernel_cache_holds_one_grid():
    model = eff.uniform_Meff(UNIT_BOX, 0.02, 5.0)
    gbox = np.array([[-0.5] * 3, [1.5] * 3])
    for n in (8, 4):
        eff.fixed_point_vc(model, UNIAXIAL, gbox, n, max_iter=1)
    assert eff._stresslet_cell_kernels.cache_info().currsize == 1
    # at n = 4 the unit box covers cells 1..2 per axis: 4 + 2 - 1 -> 6
    misses = eff._stresslet_cell_kernels.cache_info().misses
    khat, filled = eff._stresslet_cell_kernels(4, tuple(gbox.ravel().tolist()), (1, 1, 1),
                                               (6, 6, 6))
    assert eff._stresslet_cell_kernels.cache_info().misses == misses
    # one iterate of UNIAXIAL, which has coefficients 0 and 1 only
    assert khat.shape == (3, 5, 6, 6, 4) and filled == {0, 1}
    eff.clear_kernel_cache()
    assert eff._stresslet_cell_kernels.cache_info().currsize == 0


def test_kernels_built_once_per_support():
    # two solves at different phi on one support share the cached spectra
    gbox, n = np.array([[-0.5] * 3, [1.5] * 3]), 32
    eff.clear_kernel_cache()
    assert eff._stresslet_cell_kernels.cache_info().currsize == 0
    logs = [eff.fixed_point_vc(eff.uniform_Meff(UNIT_BOX, phi), UNIAXIAL, gbox, n,
                               max_iter=2)[1] for phi in (0.02, 0.01)]
    info = eff._stresslet_cell_kernels.cache_info()
    assert (info.misses, info.hits) == (1, 3)
    assert [log["kernels_cached"] for log in logs] == [False, True]
    assert all(log["fft_shape"] == [48, 48, 48] for log in logs)
    # the unit box covers cells 8..23 of 32 per axis: 32 + 16 - 1 -> 48
    khat, filled = eff._stresslet_cell_kernels(n, tuple(gbox.ravel().tolist()), (8, 8, 8),
                                               (48, 48, 48))
    assert khat.shape == (3, 5, 48, 48, 25) and filled == set(range(5))
    assert eff._stresslet_cell_kernels.cache_info().misses == 1
    eff.clear_kernel_cache()
    assert eff._stresslet_cell_kernels.cache_info().currsize == 0
    v, log = eff.fixed_point_vc(eff.uniform_Meff(UNIT_BOX, 0.0), UNIAXIAL, gbox, 8)
    assert log["fft_shape"] is None and log["kernels_cached"]


def test_kernel_transforms_only_for_the_components_used(monkeypatch):
    # a basis strain's first iterate has sources in coefficient 0 alone
    gbox, n = np.array([[-0.5] * 3, [1.5] * 3]), 16
    model = eff.uniform_Meff(UNIT_BOX, 0.01)
    calls, fft = [], np.fft.fft
    # each kernel spectrum is finished by one fft along axis 0 (the slab
    # transforms run along later axes, the convolution uses rfftn and ifft)
    monkeypatch.setattr(np.fft, "fft",
                        lambda *a, **k: calls.append(k.get("axis") == 0) or fft(*a, **k))
    eff.clear_kernel_cache()
    logs = []
    for max_iter, kernel_transforms in ((1, 3), (50, 12), (50, 0)):
        calls.clear()
        logs.append(eff.fixed_point_vc(model, np.eye(5)[0], gbox, n, max_iter=max_iter)[1])
        assert sum(calls) == kernel_transforms
    assert [log["kernels_cached"] for log in logs] == [False, False, True]
    assert logs[1]["converged"] and logs[2]["converged"]


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
    assert eff.einstein_coefficient(c, UNIAXIAL, np.zeros((8, 5))) == 0.0


def test_einstein_anisotropic_mobility():
    box = np.array([[0.0] * 3, [10.0] * 3])
    base = cl.generate_lattice(box, 2, 1.0)
    c_val = 3.7
    c = cl.ParticleCloud(centers=base.centers, a=1.0,
                         mobilities=np.tile(c_val * np.eye(5), (8, 1, 1)), box=box)
    coeff = eff.einstein_coefficient(c, UNIAXIAL, np.tile(UNIAXIAL, (8, 1)))
    assert np.isclose(coeff, 3.0 * c_val / (8.0 * np.pi), rtol=1e-12)
    # brute force: sum_l <M_l A, A>_F, each term an explicit 3x3 contraction
    work = sum(np.sum(sym3.embed(m @ UNIAXIAL) * sym3.embed(UNIAXIAL)) for m in c.mobilities)
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

import json

import numpy as np
import pytest

from refstokes import cli
from refstokes import cloud as cl
from refstokes.errors import SaturationError, SeparationError

UNIT_BOX = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])


def test_lattice_basic():
    c = cl.generate_lattice(UNIT_BOX, 2, 0.05)
    assert c.n == 8
    stats = cl.validate(c)
    assert stats.d == 0.5
    assert np.isclose(stats.phi_local, 1e-3, rtol=1e-12)


def test_lattice_single_particle_at_center():
    c = cl.generate_lattice(UNIT_BOX, 1, 0.05)
    assert c.n == 1
    assert np.allclose(c.centers[0], [0.5, 0.5, 0.5])
    stats = cl.validate(c)
    assert stats.d == np.inf
    assert stats.phi_local == 0.0


def test_lattice_spacing_violation():
    with pytest.raises(SeparationError):
        cl.generate_lattice(UNIT_BOX, 2, 0.2)   # h = 0.5 <= 4a = 0.8


def test_lattice_deterministic():
    c1 = cl.generate_lattice(UNIT_BOX, 3, 0.02)
    c2 = cl.generate_lattice(UNIT_BOX, 3, 0.02)
    assert np.array_equal(c1.centers, c2.centers)


def test_rsa_reproducible():
    c1 = cl.generate_rsa(UNIT_BOX, 50, 0.01, 0.05, seed=42)
    c2 = cl.generate_rsa(UNIT_BOX, 50, 0.01, 0.05, seed=42)
    assert np.array_equal(c1.centers, c2.centers)
    c3 = cl.generate_rsa(UNIT_BOX, 50, 0.01, 0.05, seed=43)
    assert not np.array_equal(c1.centers, c3.centers)


def test_rsa_respects_min_distance():
    c = cl.generate_rsa(UNIT_BOX, 100, 0.01, 0.05, seed=1)
    d, _ = cl.brute_force_min_distance(c.centers)
    assert d >= 0.05


def test_rsa_saturation():
    with pytest.raises(SaturationError):
        cl.generate_rsa(UNIT_BOX, 10 ** 6, 0.01, 0.05, seed=0)


def hash_grid_rsa(box, n, a, dmin, seed):
    """The placement loop of `generate_rsa` with a spatial-hash class, one
    cell per cube of side dmin; returns the centers or the error text."""
    class HashGrid:
        def __init__(self, cell):
            self.cell, self.table = cell, {}

        def key(self, p):
            return tuple(np.floor(p / self.cell).astype(np.int64))

        def neighbors(self, p):
            kx, ky, kz = self.key(p)
            for i in (kx - 1, kx, kx + 1):
                for j in (ky - 1, ky, ky + 1):
                    for k in (kz - 1, kz, kz + 1):
                        yield from self.table.get((i, j, k), ())

        def insert(self, p, idx):
            self.table.setdefault(self.key(p), []).append(idx)

    lo, hi = box[0] + a, box[1] - a
    rng = np.random.default_rng(seed)
    grid, centers, placed, attempts = HashGrid(dmin), np.empty((n, 3)), 0, 0
    dmin2 = dmin * dmin
    while placed < n:
        if attempts >= 10_000 * n:
            return f"saturation: placed {placed}/{n} centers after {attempts} attempts"
        attempts += 1
        p = lo + rng.random(3) * (hi - lo)
        if not any((centers[j] - p) @ (centers[j] - p) < dmin2 for j in grid.neighbors(p)):
            centers[placed] = p
            grid.insert(p, placed)
            placed += 1
    return centers


@pytest.mark.parametrize("n, a, dmin", [(1, 0.01, 0.05), (200, 0.01, 0.05), (300, 0.02, 0.1)])
def test_rsa_matches_hash_grid_loop(n, a, dmin):
    for seed in (1, 2, 7):
        want = hash_grid_rsa(UNIT_BOX, n, a, dmin, seed)
        assert np.array_equal(cl.generate_rsa(UNIT_BOX, n, a, dmin, seed).centers, want)


def test_rsa_saturation_matches_hash_grid_loop():
    # two centers 1.5 apart do not fit in a placement cube of diagonal 0.8 sqrt3
    want = hash_grid_rsa(UNIT_BOX, 2, 0.1, 1.5, 3)
    assert want == "saturation: placed 1/2 centers after 20000 attempts"
    with pytest.raises(SaturationError) as err:
        cl.generate_rsa(UNIT_BOX, 2, 0.1, 1.5, seed=3)
    assert str(err.value) == want


def test_rsa_dmin_violation():
    with pytest.raises(SeparationError):
        cl.generate_rsa(UNIT_BOX, 10, 0.02, 0.05, seed=0)   # dmin <= 4a


ONE_CENTER = {"centers": [[0.5, 0.5, 0.5]], "a": 0.01, "mobilities": np.eye(5)[None],
              "box": UNIT_BOX}


@pytest.mark.parametrize("change, message", [
    ({"box": [[0.0, 0.0, 0.0], [1.0, 0.0, 1.0]]}, "box must be"),
    ({"box": [[0.0, 0.0, 0.0], [1.0, np.nan, 1.0]]}, "box must be"),
    # validated with phi_global 0, so the Einstein coefficient was undefined
    ({"box": [[0.0, 0.0, 0.0], [np.inf, 1.0, 1.0]]}, "box must be"),
    ({"mobilities": np.eye(5)[None].repeat(2, axis=0)}, r"mobilities must have shape \(N, 5, 5\)"),
    ({"centers": [[np.nan, 0.5, 0.5]]}, "^centers must be finite$"),
    ({"a": 0.0}, "radius must be positive"),
    # a NaN radius with custom mobilities got as far as `validate`, which
    # blamed containment
    ({"a": np.nan}, "radius must be positive and finite"),
    ({"a": np.inf}, "radius must be positive and finite"),
], ids=["flat_box", "nan_box", "infinite_box", "mobility_rows", "nan_center", "zero_radius", "nan_radius",
        "infinite_radius"])
def test_cloud_refuses_bad_data(change, message):
    with pytest.raises(ValueError, match=message):
        cl.ParticleCloud(**dict(ONE_CENTER, **change))


@pytest.mark.parametrize("make, error, message", [
    (lambda: cl.generate_lattice(UNIT_BOX, 0, 0.01), ValueError, "n_per_axis must be >= 1"),
    # the length rule runs before the separation test
    (lambda: cl.generate_lattice(UNIT_BOX, 2, np.nan), ValueError,
     "^radius must be positive and finite, got a = nan$"),
    (lambda: cl.generate_rsa(UNIT_BOX, 0, 0.01, 0.05, seed=0), ValueError, "n must be >= 1"),
    (lambda: cl.generate_rsa(UNIT_BOX, 1, 0.6, 2.5, seed=0), SeparationError, "box too small"),
    # a NaN dmin placed 20 centres that ignored it
    (lambda: cl.generate_rsa(UNIT_BOX, 20, 0.01, np.nan, seed=1), SeparationError,
     "dmin = nan must exceed"),
    (lambda: cl.generate_rsa(UNIT_BOX, 20, np.nan, 0.05, seed=1), ValueError,
     "^radius must be positive and finite, got a = nan$"),
    # an infinite dmin burnt the whole trial budget, then raised SaturationError
    (lambda: cl.generate_rsa(UNIT_BOX, 3, 0.01, np.inf, seed=1), SeparationError,
     "dmin = inf must exceed"),
], ids=["lattice_no_cells", "lattice_nan_radius", "rsa_no_centers", "rsa_box_too_small",
        "rsa_nan_dmin", "rsa_nan_radius", "rsa_infinite_dmin"])
def test_generators_refuse_bad_sizes(make, error, message):
    with pytest.raises(error, match=message):
        make()


def test_brute_force_min_distance_of_one_particle():
    for centers in ([[0.5, 0.5, 0.5]], np.zeros((0, 3))):
        assert cl.brute_force_min_distance(centers) == (np.inf, None)


def test_validate_coincident_centers():
    # the pair names two particles, never one particle with itself
    centers = [[0.5, 0.5, 0.5], [0.5, 0.5, 0.5], [0.2, 0.2, 0.2]]
    c = cl.ParticleCloud.spheres(centers, 0.01, UNIT_BOX)
    with pytest.raises(SeparationError) as err:
        cl.validate(c)
    assert err.value.pair == (0, 1)


def test_validate_containment():
    c = cl.ParticleCloud.spheres([[0.0, 0.5, 0.5]], 0.01, UNIT_BOX)
    with pytest.raises(SeparationError):
        cl.validate(c)


def test_validate_reports_offending_pair():
    centers = [[0.2, 0.2, 0.2], [0.8, 0.8, 0.8], [0.2, 0.2, 0.23]]
    c = cl.ParticleCloud.spheres(centers, 0.01, UNIT_BOX)
    with pytest.raises(SeparationError) as err:
        cl.validate(c)
    assert set(err.value.pair) == {0, 2}


def test_generators_always_validate(rng):
    for _ in range(25):
        seed = int(rng.integers(0, 2 ** 31))
        n = int(rng.integers(2, 6))
        a = float(rng.uniform(0.005, 0.04))
        if 1.0 / n > 4 * a:
            stats = cl.validate(cl.generate_lattice(UNIT_BOX, n, a))
            assert stats.phi_global < 1.0
        dmin = float(rng.uniform(4.2 * a, 8 * a))
        cap = min(80, max(3, int(0.05 / dmin ** 3)))   # keep well below jamming
        count = int(rng.integers(2, cap))
        stats = cl.validate(cl.generate_rsa(UNIT_BOX, count, a, dmin, seed))
        assert stats.d >= dmin


def min_distance_clouds(rng):
    for _ in range(200):
        yield rng.uniform(0, 1, size=(int(rng.integers(2, 500)), 3))
    for n in (2, 3, 5):     # every nearest pair ties with many others
        yield np.stack(np.meshgrid(*[np.linspace(0.1, 0.9, n)] * 3, indexing="ij"),
                       axis=-1).reshape(-1, 3)
    for _ in range(20):
        centers = rng.uniform(0, 1, size=(int(rng.integers(2, 60)), 3))
        yield np.concatenate([centers, centers[rng.integers(0, len(centers), 3)]])
    yield np.zeros((4, 3))
    direction = np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0)
    yield np.linspace(0, 1, 9)[:, None] * direction
    yield rng.uniform(0, 1, size=(50, 1)) * direction
    yield np.linspace(0, 1, 7)[:, None] * np.array([0.0, 1.0, 0.0])
    # zero extents: the search starts from the largest extent over N
    for axis in range(3):
        plane = rng.uniform(0, 1, size=(80, 3))
        plane[:, axis] = 0.25
        yield plane
    yield rng.uniform(0, 1, size=(40, 1)) * np.array([0.0, 0.0, 1.0]) + 0.5
    yield np.array([[0.3, 0.3, 0.3], [0.3, 0.3, 0.3]])
    yield np.stack(np.meshgrid(np.linspace(0, 1, 6), np.linspace(0, 2, 4), [0.5], indexing="ij"),
                   axis=-1).reshape(-1, 3)


def test_min_distance_matches_brute_force(rng):
    for centers in min_distance_clouds(rng):
        d_brute, pair_brute = cl.brute_force_min_distance(centers)
        d, pair = cl._min_distance(centers)
        assert d == d_brute
        assert pair == pair_brute


def test_json_roundtrip(tmp_path):
    c = cl.generate_lattice(UNIT_BOX, 2, 0.05)
    path = tmp_path / "cloud.json"
    cl.save_cloud(c, path)
    c2 = cl.load_cloud(path)
    assert np.array_equal(c.centers, c2.centers)
    assert np.array_equal(c.mobilities, c2.mobilities)
    assert c.a == c2.a
    # default sphere mobilities are omitted from the document
    doc = json.loads(path.read_text())
    assert "mobilities" not in doc


def test_json_keeps_custom_mobilities(rng):
    centers = [[0.3, 0.3, 0.3], [0.7, 0.7, 0.7]]
    mob = rng.normal(size=(2, 5, 5))
    c = cl.ParticleCloud(centers=np.array(centers), a=0.01,
                         mobilities=mob, box=UNIT_BOX)
    doc = cl.cloud_to_json(c)
    assert "mobilities" in doc
    c2 = cl.cloud_from_json(doc)
    assert np.array_equal(c2.mobilities, mob)


def test_json_same_bytes_as_per_value_floats(rng):
    centers = rng.uniform(size=(6, 3))
    centers[0] = [-0.0, 5e-324, 2.2e-308]
    mob = rng.normal(size=(6, 5, 5)) * 10.0 ** rng.integers(-320, 308, size=(6, 5, 5))
    mob[0, 0, :3] = [-0.0, 1e308, -1e308]
    c = cl.ParticleCloud(centers=centers, a=0.01, mobilities=mob, box=UNIT_BOX)
    per_value = {
        "a": 0.01,
        "box": [[float(v) for v in c.box[0]], [float(v) for v in c.box[1]]],
        "centers": [[float(v) for v in row] for row in c.centers],
        "mobilities": [[float(v) for v in m.reshape(25)] for m in c.mobilities],
    }
    assert (json.dumps(cl.cloud_to_json(c), sort_keys=True, allow_nan=False)
            == json.dumps(per_value, sort_keys=True, allow_nan=False))


def test_json_rejects_mobilities_not_one_row_per_particle(rng):
    doc = {"a": 0.01, "box": UNIT_BOX.tolist(), "centers": [[0.3, 0.3, 0.3], [0.7, 0.7, 0.7]]}
    rows = rng.normal(size=(2, 25))
    assert cl.cloud_from_json(dict(doc, mobilities=rows.tolist())).n == 2
    for bad in ([rows.ravel().tolist()], rows[:, :20].tolist(), rows.ravel().tolist()):
        with pytest.raises(ValueError, match="one row of 25 numbers per particle"):
            cl.cloud_from_json(dict(doc, mobilities=bad))


def test_json_rejects_malformed_centers():
    doc = {"a": 0.01, "box": UNIT_BOX.tolist(),
           "centers": [[0.2, 0.2], [0.5, 0.5], [0.8, 0.8]]}
    with pytest.raises(ValueError, match=r"centers must have shape \(N, 3\)"):
        cl.cloud_from_json(doc)
    assert cl.cloud_from_json(dict(doc, centers=[])).n == 0
    assert cl.ParticleCloud.spheres([], 0.01, UNIT_BOX).n == 0


def test_json_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cloud.json"
    path.write_text(json.dumps({"a": 0.01, "box": UNIT_BOX.tolist(), "n": 1,
                                "centers": [[0.5, 0.5, 0.5]], "mobilites": []}))
    with pytest.raises(ValueError, match=r"unknown cloud keys \['mobilites', 'n'\]"):
        cl.load_cloud(path)


def test_csv_export(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "seed": 0,
        "cloud": {"kind": "lattice", "box": UNIT_BOX.tolist(), "n_per_axis": 2,
                  "a": 0.05},
        "strain": [1.0, 0.0, 0.0, 0.0, 0.0]}))
    path = tmp_path / "centers.csv"
    assert cli.main(["generate", "--config", str(config),
                     "--out", str(tmp_path / "cloud.json"), "--csv", str(path)]) == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,y,z"
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.array_equal(rows, cl.generate_lattice(UNIT_BOX, 2, 0.05).centers)


def test_cloud_immutable():
    c = cl.generate_lattice(UNIT_BOX, 2, 0.05)
    with pytest.raises(ValueError):
        c.centers[0, 0] = 99.0


def test_dilate():
    c = cl.generate_lattice(UNIT_BOX, 2, 0.05)
    d = c.dilate(2.0)
    assert cl.validate(d).d == 1.0
    assert d.a == c.a

"""Particle configurations: generation, validation, geometric statistics.

A cloud is a set of equal-radius particles with centers x_l inside an
axis-aligned box, each carrying a 5x5 strain-to-stresslet mobility (defaults
to the sphere value (20 pi/3) a^3 I). Valid configurations satisfy

  * every ball B(x_l, a) lies inside the box,
  * the minimum center separation d exceeds SEPARATION_FACTOR * a.

The separation constant (4) and the field-evaluation exclusion radius
(FIELD_EXCLUSION_FACTOR * a, also 4a) are distinct knobs that happen to share
a value; they are kept as separate named constants on purpose.
"""

from __future__ import annotations

import csv
import functools
import json
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import SaturationError, SeparationError
from .kernels import sphere_mobility

__all__ = [
    "SEPARATION_FACTOR",
    "FIELD_EXCLUSION_FACTOR",
    "ParticleCloud",
    "CloudStats",
    "generate_lattice",
    "generate_rsa",
    "validate",
    "brute_force_min_distance",
    "cloud_to_json",
    "cloud_from_json",
    "save_cloud",
    "load_cloud",
    "centers_to_csv",
]

SEPARATION_FACTOR = 4.0        # hypothesis: d > SEPARATION_FACTOR * a
FIELD_EXCLUSION_FACTOR = 4.0   # field comparisons exclude B(x_l, FIELD_EXCLUSION_FACTOR*a)


@dataclass(frozen=True, eq=False)
class ParticleCloud:
    """Immutable particle configuration (arrays are set read-only)."""

    centers: np.ndarray     # (N, 3)
    a: float
    mobilities: np.ndarray  # (N, 5, 5), units length^3
    box: np.ndarray         # (2, 3): [lower, upper]

    def __post_init__(self):
        centers = np.ascontiguousarray(np.atleast_2d(self.centers), dtype=float)
        if centers.size == 0:
            centers = centers.reshape(0, 3)
        if centers.ndim != 2 or centers.shape[1] != 3:
            raise ValueError("centers must have shape (N, 3)")
        box = np.ascontiguousarray(self.box, dtype=float)
        if box.shape != (2, 3) or np.any(box[1] <= box[0]):
            raise ValueError("box must be [[lo],[hi]] with hi > lo per axis")
        mob = np.ascontiguousarray(self.mobilities, dtype=float)
        if mob.shape != (len(centers), 5, 5):
            raise ValueError("mobilities must have shape (N, 5, 5)")
        if not (np.isfinite(centers).all() and np.isfinite(mob).all()):
            raise ValueError("non-finite cloud data")
        if self.a <= 0:
            raise ValueError("radius must be positive")
        for arr in (centers, box, mob):
            arr.setflags(write=False)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "mobilities", mob)

    @classmethod
    def spheres(cls, centers, a, box):
        """Cloud of rigid spheres with the closed-form mobility."""
        centers = np.atleast_2d(np.asarray(centers, dtype=float))
        mob = np.broadcast_to(sphere_mobility(a), (len(centers), 5, 5)).copy()
        return cls(centers=centers, a=a, mobilities=mob, box=np.asarray(box, float))

    @property
    def n(self):
        return len(self.centers)

    @property
    def spherical(self):
        """True when every mobility is the closed-form sphere map (rtol 1e-12)."""
        return np.allclose(self.mobilities, sphere_mobility(self.a), rtol=1e-12, atol=0.0)

    @property
    def box_volume(self):
        side = self.box[1] - self.box[0]
        return float(side[0] * side[1] * side[2])

    def dilate(self, factor):
        """Scale centers and box about the box lower corner; radius unchanged."""
        lo = self.box[0]
        return ParticleCloud(
            centers=lo + factor * (self.centers - lo),
            a=self.a,
            mobilities=self.mobilities.copy(),
            box=np.stack([lo, lo + factor * (self.box[1] - lo)]),
        )


@dataclass(frozen=True)
class CloudStats:
    n: int
    d: float            # minimum center separation (inf for N <= 1)
    phi_global: float   # 4 pi N a^3 / (3 |K|)
    phi_local: float    # a^3 / d^3 (0 for N <= 1)


def generate_lattice(box, n_per_axis, a):
    """Cubic-lattice cloud: n_per_axis^3 sphere centers at cell midpoints.

    Deterministic; the minimum separation equals the smallest lattice
    spacing, which must exceed SEPARATION_FACTOR * a.
    """
    box = np.asarray(box, dtype=float)
    if n_per_axis < 1:
        raise ValueError("n_per_axis must be >= 1")
    side = box[1] - box[0]
    h = side / n_per_axis
    if np.min(h) <= SEPARATION_FACTOR * a:
        raise SeparationError(
            f"lattice spacing {np.min(h):.6g} <= {SEPARATION_FACTOR}*a = "
            f"{SEPARATION_FACTOR * a:.6g} (adjacent pair (0, 1))",
            pair=(0, 1))
    idx = np.arange(n_per_axis) + 0.5
    gx, gy, gz = np.meshgrid(idx * h[0], idx * h[1], idx * h[2], indexing="ij")
    centers = box[0] + np.stack([gx, gy, gz], axis=-1).reshape(-1, 3)
    return ParticleCloud.spheres(centers, a, box)


class _HashGrid:
    """Uniform spatial hash with cell size = the exclusion distance."""

    def __init__(self, cell):
        self.cell = cell
        self.table = {}

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


def generate_rsa(box, n, a, dmin, seed):
    """Random sequential addition of n centers with pairwise distance >= dmin.

    Reproducible for a fixed seed. Uses a spatial hash with cell size dmin so
    each trial checks only 27 cells. Raises SaturationError when the request
    is provably infeasible or when placement exceeds the attempt budget of
    10^4 * n trials.
    """
    box = np.asarray(box, dtype=float)
    if dmin <= SEPARATION_FACTOR * a:
        raise SeparationError(
            f"dmin = {dmin:.6g} must exceed {SEPARATION_FACTOR}*a = {SEPARATION_FACTOR * a:.6g}")
    if n < 1:
        raise ValueError("n must be >= 1")
    lo = box[0] + a
    hi = box[1] - a
    if np.any(hi <= lo):
        raise SeparationError("box too small to contain a single ball")
    # disjoint balls of radius dmin/2 must fit in the inflated placement region
    region = np.prod((hi - lo) + dmin)
    if n * (np.pi / 6.0) * dmin ** 3 > region:
        raise SaturationError(
            f"saturation: {n} centers with spacing {dmin:.6g} cannot fit "
            f"(packing bound {region / ((np.pi / 6.0) * dmin ** 3):.0f})")
    budget = 10_000 * n
    rng = np.random.default_rng(seed)
    grid = _HashGrid(dmin)
    centers = np.empty((n, 3))
    placed = 0
    attempts = 0
    dmin2 = dmin * dmin
    while placed < n:
        if attempts >= budget:
            raise SaturationError(
                f"saturation: placed {placed}/{n} centers after {attempts} attempts")
        attempts += 1
        p = lo + rng.random(3) * (hi - lo)
        ok = True
        for j in grid.neighbors(p):
            diff = centers[j] - p
            if diff @ diff < dmin2:
                ok = False
                break
        if ok:
            centers[placed] = p
            grid.insert(p, placed)
            placed += 1
    return ParticleCloud.spheres(centers, a, box)


def brute_force_min_distance(centers):
    """O(N^2) oracle for the minimum pairwise distance. Returns (d, pair)."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    n = len(centers)
    if n <= 1:
        return np.inf, None
    diff = centers[:, None, :] - centers[None, :, :]
    d2 = np.einsum("lmi,lmi->lm", diff, diff)
    d2[np.arange(n), np.arange(n)] = np.inf
    flat = np.argmin(d2)
    i, j = divmod(flat, n)
    return float(np.sqrt(d2[i, j])), (int(i), int(j))


def _min_distance(centers):
    """Exact minimum separation via a KD-tree (nearest neighbor per center).

    The tree only selects candidate pairs; distances are recomputed with the
    same arithmetic as the brute-force oracle so the two agree bit-for-bit.
    """
    n = len(centers)
    if n <= 1:
        return np.inf, None
    tree = cKDTree(centers)
    _, idx = tree.query(centers, k=2)
    diff = centers - centers[idx[:, 1]]
    d2 = np.einsum("li,li->l", diff, diff)
    l = int(np.argmin(d2))
    return float(np.sqrt(d2[l])), (l, int(idx[l, 1]))


@functools.lru_cache(maxsize=1)
def validate(cloud):
    """Check containment and separation; return geometric statistics.

    Raises SeparationError (naming the offending pair or particle) instead of
    warning. For N <= 1 the separation is infinite and phi_local is zero.
    Clouds are immutable and compare by identity, so the statistics of the
    last valid cloud are kept: the several stages of one run that validate
    the same cloud check it once. Failures are not kept.
    """
    c = cloud.centers
    inside = (c >= cloud.box[0] + cloud.a - 1e-15) & (c <= cloud.box[1] - cloud.a + 1e-15)
    if not inside.all():
        bad = int(np.argwhere(~inside.all(axis=1))[0, 0])
        raise SeparationError(
            f"particle {bad} at {c[bad]} not contained in the box with radius {cloud.a}",
            pair=(bad,))
    d, pair = _min_distance(c)
    if d <= SEPARATION_FACTOR * cloud.a:
        raise SeparationError(
            f"minimum separation {d:.6g} (pair {pair}) <= "
            f"{SEPARATION_FACTOR}*a = {SEPARATION_FACTOR * cloud.a:.6g}",
            pair=pair)
    vol = cloud.box_volume
    phi_global = 4.0 * np.pi * cloud.n * cloud.a ** 3 / (3.0 * vol)
    phi_local = 0.0 if not np.isfinite(d) else (cloud.a / d) ** 3
    return CloudStats(n=cloud.n, d=d, phi_global=phi_global, phi_local=phi_local)


def cloud_to_json(cloud):
    """JSON document for a cloud. Mobilities are included only when they
    differ from the sphere default."""
    doc = {
        "a": float(cloud.a),
        "box": [[float(v) for v in cloud.box[0]], [float(v) for v in cloud.box[1]]],
        "centers": [[float(v) for v in row] for row in cloud.centers],
    }
    if not cloud.spherical:
        doc["mobilities"] = [[float(v) for v in m.reshape(25)] for m in cloud.mobilities]
    return doc


def cloud_from_json(doc):
    centers = np.asarray(doc["centers"], dtype=float).reshape(-1, 3)
    a = float(doc["a"])
    box = np.asarray(doc["box"], dtype=float)
    if "mobilities" in doc:
        mob = np.asarray(doc["mobilities"], dtype=float).reshape(-1, 5, 5)
    else:
        mob = np.broadcast_to(sphere_mobility(a), (len(centers), 5, 5)).copy()
    return ParticleCloud(centers=centers, a=a, mobilities=mob, box=box)


def save_cloud(cloud, path):
    text = json.dumps(cloud_to_json(cloud), indent=1, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def load_cloud(path):
    with open(path) as fh:
        return cloud_from_json(json.load(fh))


def centers_to_csv(cloud, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "z"])
        for row in cloud.centers:
            writer.writerow([repr(float(v)) for v in row])

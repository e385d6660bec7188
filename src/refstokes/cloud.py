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

import functools
import itertools
import json
from dataclasses import dataclass

import numpy as np

from .errors import SaturationError, SeparationError
from .kernels import (check_box, check_count, check_length, check_points, pairs_within,
                      sphere_mobility)

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
]

SEPARATION_FACTOR = 4.0        # hypothesis: d > SEPARATION_FACTOR * a
FIELD_EXCLUSION_FACTOR = 4.0   # field comparisons exclude B(x_l, FIELD_EXCLUSION_FACTOR*a)
_CLOUD_KEYS = {"a", "box", "centers", "mobilities"}   # the keys of a cloud document


@dataclass(frozen=True, eq=False)
class ParticleCloud:
    """Immutable particle configuration (arrays are set read-only)."""

    centers: np.ndarray     # (N, 3)
    a: float
    mobilities: np.ndarray  # (N, 5, 5), units length^3
    box: np.ndarray         # (2, 3): [lower, upper]

    def __post_init__(self):
        centers = check_points(self.centers, "centers")
        box = check_box(self.box)
        mob = np.ascontiguousarray(self.mobilities, dtype=float)
        if mob.shape != (len(centers), 5, 5) or not np.isfinite(mob).all():
            raise ValueError("mobilities must have shape (N, 5, 5) and be finite")
        check_length(self.a, "a")
        for arr in (centers, box, mob):
            arr.setflags(write=False)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "mobilities", mob)

    @classmethod
    def spheres(cls, centers, a, box):
        """Cloud of rigid spheres with the closed-form mobility."""
        centers = check_points(centers, "centers")
        mob = np.broadcast_to(sphere_mobility(a), (len(centers), 5, 5)).copy()
        return cls(centers=centers, a=a, mobilities=mob, box=box)

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
    box = check_box(box)
    n_per_axis = check_count(n_per_axis, "n_per_axis", 1)
    h = (box[1] - box[0]) / n_per_axis
    if not np.min(h) > SEPARATION_FACTOR * check_length(a, "a"):
        raise SeparationError(
            f"lattice spacing {np.min(h):.6g} <= {SEPARATION_FACTOR}*a = "
            f"{SEPARATION_FACTOR * a:.6g} (adjacent pair (0, 1))",
            pair=(0, 1))
    idx = np.arange(n_per_axis) + 0.5
    gx, gy, gz = np.meshgrid(idx * h[0], idx * h[1], idx * h[2], indexing="ij")
    centers = box[0] + np.stack([gx, gy, gz], axis=-1).reshape(-1, 3)
    return ParticleCloud.spheres(centers, a, box)


def generate_rsa(box, n, a, dmin, seed):
    """Random sequential addition of n centers with pairwise distance >= dmin.

    Reproducible for a fixed seed, a whole number >= 0. Placed centers are
    kept by their cube of side dmin, so each trial checks only the 27 cubes
    around its own. Raises SaturationError when the request is provably
    infeasible or when placement exceeds the attempt budget of 10^4 * n trials.
    """
    box = check_box(box)
    if not SEPARATION_FACTOR * check_length(a, "a") < dmin < np.inf:
        raise SeparationError(f"dmin = {dmin:.6g} must exceed {SEPARATION_FACTOR}*a = "
                              f"{SEPARATION_FACTOR * a:.6g} and be finite")
    n, seed = check_count(n, "n", 1), check_count(seed, "seed", 0)
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
    cubes = {}                      # cube (i, j, k) of side dmin -> placed indices
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
        i, j, k = np.floor(p / dmin).astype(np.int64).tolist()
        near = itertools.product(range(i - 1, i + 2), range(j - 1, j + 2), range(k - 1, k + 2))
        if not any((centers[q] - p) @ (centers[q] - p) < dmin2
                   for cube in near for q in cubes.get(cube, ())):
            centers[placed] = p
            cubes.setdefault((i, j, k), []).append(placed)
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
    """Exact minimum separation via `kernels.pairs_within`, at a radius that
    starts at the mean spacing (prod extent / N)^(1/3), or at the largest
    extent over N when the centres are collinear or coplanar, and doubles
    until it finds a pair.

    The search only selects candidate pairs, in sorted order; distances are
    recomputed with the same arithmetic as the brute-force oracle, so the two
    agree bit-for-bit, pair included.
    """
    n = len(centers)
    if n <= 1:
        return np.inf, None
    extent = np.ptp(centers, axis=0)
    r = float(np.prod(extent) / n) ** (1.0 / 3.0) or float(extent.max()) / n or 1.0
    while True:
        t, s, z = pairs_within(centers, centers, r)
        if len(t) > n:                  # more than the n self-pairs
            break
        r *= 2.0
    other = t != s
    t, s, z = t[other], s[other], z[other]
    d2 = np.einsum("li,li->l", z, z)
    l = int(np.argmin(d2))
    return float(np.sqrt(d2[l])), (int(t[l]), int(s[l]))


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
        "box": cloud.box.tolist(),
        "centers": cloud.centers.tolist(),
    }
    if not cloud.spherical:
        doc["mobilities"] = cloud.mobilities.reshape(-1, 25).tolist()
    return doc


def cloud_from_json(doc):
    unknown = sorted(set(doc) - _CLOUD_KEYS)
    if unknown:
        raise ValueError(f"unknown cloud keys {unknown}; expected {sorted(_CLOUD_KEYS)}")
    a = float(doc["a"])
    if "mobilities" not in doc:
        return ParticleCloud.spheres(doc["centers"], a, doc["box"])
    mob = np.asarray(doc["mobilities"], dtype=float)
    if mob.size and mob.shape != (len(mob), 25):
        raise ValueError("mobilities must be one row of 25 numbers per particle")
    return ParticleCloud(centers=doc["centers"], a=a, mobilities=mob.reshape(-1, 5, 5),
                         box=doc["box"])


def save_cloud(cloud, path):
    text = json.dumps(cloud_to_json(cloud), indent=1, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def load_cloud(path):
    with open(path) as fh:
        return cloud_from_json(json.load(fh))


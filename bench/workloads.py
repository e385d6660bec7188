"""Workload definitions shared by the runner, the child and the checker.

Every input a workload hands the program is a pure function of the workload
name and the seed: the config document written here drives the cloud
generation (random sequential addition, seeded by the config's `seed`), and
the child derives everything else from that config.
"""

from __future__ import annotations

import math

UNIT_BOX = [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]
STRAIN = [1.0, 0.0, 0.0, 0.0, 0.0]

# Each entry: how the measured step reaches the program ("cli" verb or
# "library" calls), the RSA cloud, and the config sections it needs. The
# sizes keep a child to 1.5-3 s of work, so a 25 s run holds 5-12 children
# (bench/README.md, "Workloads").
WORKLOADS = {
    # matrix-free strain sweeps at particle centres; phi_local ~ 1e-3
    "reflect_rsa": {
        "api": "cli",
        "argv": ["reflect", "--cloud", "cloud.json", "--out", "solution.json"],
        "cloud": {"n": 1000, "a": 0.003, "dmin": 0.03},
        "solver": {"tol": 1e-10},
        "outputs": ["cloud.json", "solution.json", "stdout.txt"],
    },
    # velocity at grid points, exclusion mask, H^-1, one FFT iteration
    "compare_rsa": {
        "api": "cli",
        "argv": ["compare", "--out", "report.json"],
        "cloud": {"n": 200, "dmin": 0.08},
        "phis": [1e-3],
        "grid": {"n": 32, "padding": 0.5},
        "outputs": ["cloud.json", "report.json", "stdout.txt"],
    },
    # FFT path only: rasterization, H^-1 and the correction-velocity solve
    "meanfield_fft": {
        "api": "library",
        "cloud": {"n": 125, "a": 0.02, "dmin": 0.1},
        "phis": [0.02, 0.01],
        "grid": {"n": 32, "padding": 0.5},
        "fixed_point_tol": 1e-8,
        "outputs": ["cloud.json", "meanfield.json"],
    },
    # dense (5N, 5N) assembly and LAPACK solve behind `reflect --oracle`
    "oracle_dense": {
        "api": "cli",
        "argv": ["reflect", "--cloud", "cloud.json", "--out", "solution.json",
                 "--oracle"],
        "cloud": {"n": 500, "a": 0.004, "dmin": 0.04},
        "solver": {"tol": 1e-10},
        "outputs": ["cloud.json", "solution.json", "stdout.txt"],
    },
}


def radius_for_phi(n, phi):
    """The particle radius `compare` uses for a global volume fraction."""
    vol = math.prod(hi - lo for lo, hi in zip(*UNIT_BOX))
    return (3.0 * phi * vol / (4.0 * math.pi * n)) ** (1.0 / 3.0)


def config(name, seed):
    """The config document of a workload for a seed."""
    spec = WORKLOADS[name]
    cloud = {"kind": "rsa", "box": UNIT_BOX, **spec["cloud"]}
    if "a" not in cloud:
        cloud["a"] = radius_for_phi(cloud["n"], spec["phis"][0])
    doc = {"seed": int(seed), "cloud": cloud, "strain": STRAIN}
    if "solver" in spec:
        doc["solver"] = dict(spec["solver"])
    if "grid" in spec:
        doc["grid"] = dict(spec["grid"])
    if "phis" in spec:
        doc["sweep"] = {"phis": list(spec["phis"])}
    return doc


def grid_box(doc):
    """The padded grid box `compare` uses, from a config document."""
    lo, hi = doc["cloud"]["box"]
    pad = doc["grid"]["padding"]
    return [[l - pad * (h - l) for l, h in zip(lo, hi)],
            [h + pad * (h - l) for l, h in zip(lo, hi)]]


def sample_cells(n):
    """A few fixed grid cells (inside and outside the support box) at which
    the mean-field velocity is recorded and checked."""
    return [(n // 2, n // 2, n // 2), (n // 4, n // 2, 3 * n // 4),
            (n // 3, 2 * n // 3, n // 5), (1, n // 2, n - 2), (n - 3, 2, n // 2)]

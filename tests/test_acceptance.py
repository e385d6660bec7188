"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -q -s` to see the per-criterion
lines and timings; each starts its own line, after pytest's progress mark.
"""

import contextlib
import time
import warnings

import numpy as np
import pytest

from refstokes import cli
from refstokes import cloud as cl
from refstokes import effective as eff
from refstokes import kernels, reflections as refl, sym3

UNIT_BOX = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
UNIAXIAL = sym3.project_sym_tracefree(np.diag([1.0, -0.5, -0.5]))


@contextlib.contextmanager
def criterion(number, description, limit_seconds):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number:2d} FAIL  {description}")
        raise
    elapsed = time.monotonic() - start
    within = elapsed < limit_seconds      # a criterion over its budget does not print PASS
    print(f"\nACCEPTANCE {number:2d} {'PASS' if within else 'FAIL'}  {description}  "
          f"[{elapsed:.2f}s]")
    assert within, (
        f"criterion {number} exceeded its runtime budget: "
        f"{elapsed:.1f}s >= {limit_seconds}s")


def test_criterion_1_sphere_mobility():
    with criterion(1, "boundary-integral sphere mobility = (20 pi/3) I to 1e-8", 1.0):
        M = kernels.mobility_from_boundary_integral(1.0)
        assert np.max(np.abs(M - (20 * np.pi / 3) * np.eye(5))) < 1e-8


def test_criterion_2_einstein_coefficient():
    with criterion(2, "first-order viscosity coefficient 2.5 (lattice+rsa, "
                      "N in {27,125,500}); converged within 0.1 at phi<=1e-3", 30.0):
        specs = [
            {"kind": "lattice", "box": UNIT_BOX.tolist(), "n_per_axis": 3, "a": 0.01},
            {"kind": "lattice", "box": UNIT_BOX.tolist(), "n_per_axis": 5, "a": 0.01},
            {"kind": "rsa", "box": UNIT_BOX.tolist(), "n": 27, "a": 0.01, "dmin": 0.12},
            {"kind": "rsa", "box": UNIT_BOX.tolist(), "n": 125, "a": 0.01, "dmin": 0.07},
            {"kind": "rsa", "box": UNIT_BOX.tolist(), "n": 500, "a": 0.01, "dmin": 0.042},
        ]
        for spec in specs:
            cfg = cli.ExperimentConfig.from_json({
                "seed": 3, "cloud": spec, "strain": [0.3, -0.2, 0.5, 0.1, -0.4],
                "sweep": {"phis": [1e-4, 1e-3]}})
            for phi, first, converged in cli.run_einstein_sweep(cfg):
                assert abs(first - 2.5) < 1e-12
                assert abs(converged - 2.5) < 0.1


def test_criterion_3_oracle_equivalence():
    with criterion(3, "reflection totals match the dense fixed-point solve "
                      "to 1e-8 |A| on 20 random clouds", 60.0):
        rng = np.random.default_rng(314)
        for trial in range(20):
            n = int(rng.integers(10, 51))
            a = float(rng.uniform(0.004, 0.012))
            dmin = float(rng.uniform(5.0 * a, 10.0 * a))
            c = cl.generate_rsa(UNIT_BOX, n, a, dmin, seed=1000 + trial)
            stats = cl.validate(c)
            assert stats.phi_local <= 1e-2
            A = rng.normal(size=5)
            sol = refl.run_reflections(c, A, tol=1e-13)
            dense = refl.dense_fixed_point(c, A)
            assert np.linalg.norm(sol.A_hat - dense.A_hat) <= 1e-8 * np.linalg.norm(A)


def test_criterion_4_contraction_scaling():
    with criterion(4, "contraction ratios: exact lambda^-3 dilation scaling and "
                      "single-constant (a/d)^(3/2) envelope across ensembles", 120.0):
        base = cl.generate_lattice(UNIT_BOX, 3, 0.02)
        r1 = refl.contraction_diagnostic(base, UNIAXIAL, q=2.0, n_levels=3)
        for lam in (2.0, 4.0):
            rl = refl.contraction_diagnostic(base.dilate(lam), UNIAXIAL,
                                             q=2.0, n_levels=3)
            for a, b in zip(r1, rl):
                assert abs(a / b - lam ** 3) < 1e-10 * lam ** 3
        # ensemble envelope with one fitted constant
        seps, ratios = [], []
        for target, seed in ((0.05, 41), (0.1, 42), (0.2, 43)):
            dmin = 0.12
            c = cl.generate_rsa(UNIT_BOX, 60, target * dmin, dmin, seed)
            d = cl.validate(c).d
            r = refl.contraction_diagnostic(c, UNIAXIAL, q=2.0, n_levels=2,
                                            force=True)
            seps.append(target * dmin / d)
            ratios.append(r[0])
        seps = np.array(seps)
        ratios = np.array(ratios)
        constant = float(np.max(ratios / seps ** 1.5))
        assert np.all(ratios <= constant * seps ** 1.5 + 1e-15)
        assert constant < 10.0
        slope = np.polyfit(np.log(seps), np.log(ratios), 1)[0]
        assert 1.4 <= slope <= 3.1


def test_criterion_5_kernel_identities():
    with criterion(5, "fundamental-solution identities: Stokes residual, "
                      "divergence, homogeneity, sphere boundary, moment scaling",
                   10.0):
        rng = np.random.default_rng(2718)
        mob = kernels.sphere_mobility(1.0)
        # Stokes residual of the velocity/pressure pair, 100 random points
        for _ in range(100):
            x = rng.normal(size=3)
            x *= rng.uniform(1.0, 10.0) / np.linalg.norm(x)
            lap = np.zeros((3, 3))
            f0 = kernels.oseen(x)
            gq = np.zeros((3, 3))
            h = 1e-4
            for k in range(3):
                e = np.zeros(3)
                e[k] = h
                lap += (kernels.oseen(x + e) + kernels.oseen(x - e) - 2 * f0) / h ** 2
                gq[k] = (kernels.oseen_pressure(x + e)
                         - kernels.oseen_pressure(x - e)) / (2 * h)
            assert np.max(np.abs(-lap + gq.T)) < 1e-4   # gq[k, j] = d_k q_j
        # stresslet field is divergence-free
        for _ in range(20):
            x = rng.normal(size=3)
            x *= rng.uniform(1.0, 10.0) / np.linalg.norm(x)
            h = 1e-4
            div = 0.0
            for k in range(3):
                e = np.zeros(3)
                e[k] = h
                div += (kernels.stresslet_field(mob, UNIAXIAL, x + e)[k]
                        - kernels.stresslet_field(mob, UNIAXIAL, x - e)[k]) / (2 * h)
            assert abs(div) < 1e-6
        # homogeneity of the field (-2) and its strain (-3)
        x = np.array([1.3, -0.4, 0.8])
        u0 = kernels.stresslet_field(mob, UNIAXIAL, x)
        d0 = kernels.stresslet_strain(mob, UNIAXIAL, x)
        for lam in (2.0, 4.0, 8.0):
            u1 = kernels.stresslet_field(mob, UNIAXIAL, lam * x) * lam ** 2
            d1 = kernels.stresslet_strain(mob, UNIAXIAL, lam * x) * lam ** 3
            assert np.max(np.abs(u1 - u0)) < 1e-12 * np.max(np.abs(u0))
            assert np.max(np.abs(d1 - d0)) < 1e-12 * np.max(np.abs(d0))
        # sphere boundary condition on 500 surface points
        a = 0.6
        pts = rng.normal(size=(500, 3))
        pts *= a / np.linalg.norm(pts, axis=1, keepdims=True)
        u = kernels.sphere_disturbance(UNIAXIAL, a, pts)
        err = np.max(np.linalg.norm(u + pts @ sym3.embed(UNIAXIAL).T, axis=1))
        assert err < 1e-12 * np.linalg.norm(UNIAXIAL) * a
        # moment scaling: radius factor a^3 passes through the far field exactly
        for a in (0.5, 0.25):
            lhs = kernels.stresslet_field(kernels.sphere_mobility(a), UNIAXIAL, x)
            rhs = a ** 3 * kernels.stresslet_field(mob, UNIAXIAL, x)
            assert np.array_equal(lhs, rhs)


def _ball_average(fn, center, r, n_rad=32, n_ang=32):
    """Independent quadrature oracle for the average of fn over B(center, r)."""
    nodes, wts = np.polynomial.legendre.leggauss(n_rad)
    rad = (nodes + 1.0) / 2.0 * r
    wrad = wts * r / 2.0
    cnodes, cwts = np.polynomial.legendre.leggauss(n_ang)
    phi = 2.0 * np.pi * np.arange(2 * n_ang) / (2 * n_ang)
    st = np.sqrt(1.0 - cnodes ** 2)
    dirs = np.stack([np.outer(st, np.cos(phi)).ravel(),
                     np.outer(st, np.sin(phi)).ravel(),
                     np.outer(cnodes, np.ones_like(phi)).ravel()], axis=-1)
    wang = np.outer(cwts, np.full(2 * n_ang, np.pi / n_ang)).ravel()
    total = 0.0
    for rho, wr in zip(rad, wrad):
        vals = fn(center + rho * dirs)
        total += wr * rho ** 2 * float(vals @ wang)
    return total / (4.0 / 3.0 * np.pi * r ** 3) * (4.0 * np.pi) / (4.0 * np.pi)


def test_criterion_6_mean_value_formula():
    with criterion(6, "ball-average reconstruction exact for |x|^2 (source 6) "
                      "and harmonic fields (source 0), 20 random cases", 1.0):
        rng = np.random.default_rng(99)
        for _ in range(20):
            x0 = rng.normal(size=3)
            r = float(rng.uniform(0.1, 1.5))
            # u = |y|^2: ball average is |x0|^2 + (3/5) r^2
            avg = float(x0 @ x0) + 0.6 * r ** 2
            val = kernels.mean_value_reconstruct(avg, r, lambda rho: 6.0)
            assert abs(val - float(x0 @ x0)) <= 1e-9
            # harmonic u = 1/|y - c| with the singularity well outside the ball
            c = x0 + (3.0 * r + 1.0) * _unit(rng.normal(size=3))
            u = lambda pts: 1.0 / np.linalg.norm(pts - c, axis=-1)
            avg = _ball_average(u, x0, r)
            val = kernels.mean_value_reconstruct(avg, r, lambda rho: 0.0)
            assert abs(val - u(x0[None, :])[0]) <= 1e-9


def _unit(v):
    return v / np.linalg.norm(v)


def test_criterion_7_hminus1_gaussian():
    with criterion(7, "spectral H^-1 norm of the unit Gaussian = sqrt(2 pi^1.5) "
                      "within 1% on the n=128, side-16 grid", 10.0):
        from refstokes.fields import GridField
        box = np.array([[-8.0] * 3, [8.0] * 3])
        f = GridField.zeros(box, 128)
        c = f.cell_centers()
        f.values[:] = np.exp(-np.einsum("...i,...i->...", c, c) / 2.0)
        val = eff.hminus1_distance(f, GridField.zeros(box, 128))
        target = np.sqrt(2.0 * np.pi ** 1.5)
        assert abs(val - target) < 0.01 * target


def test_criterion_8_single_sphere_homogenization():
    with criterion(8, "coefficient-field correction velocity of one sphere "
                      "matches its point stresslet at 20a within 2%", 10.0):
        a = 0.25
        box = np.array([[-2 * a] * 3, [2 * a] * 3])
        c = cl.ParticleCloud.spheres([[0.0, 0.0, 0.0]], a, box)
        field = eff.assemble_MN(c, box, 32)
        x = np.array([[20 * a, 0.0, 0.0]])
        ref = kernels.stresslet_field(kernels.sphere_mobility(a), UNIAXIAL, x[0])
        out = eff.tilde_vc(field, UNIAXIAL, x)[0]
        assert np.linalg.norm(out - ref) < 0.02 * np.linalg.norm(ref)


def test_criterion_9_homogenization_trend():
    with criterion(9, "comparison sweep: Lp proxy decreases monotonically and "
                      "the error-bound terms scale like phi_local^(1+theta) "
                      "within 30% on the log-log slope", 300.0):
        cfg = cli.ExperimentConfig.from_json({
            "seed": 7,
            "cloud": {"kind": "lattice", "box": UNIT_BOX.tolist(),
                      "n_per_axis": 3, "a": 0.01},
            "strain": [1.0, 0.0, 0.0, 0.0, 0.0],
            "grid": {"n": 32, "padding": 0.5},
            "sweep": {"phis": [1e-2, 1e-3, 1e-4]},
            "compare": {"p": 1.2, "coefficient": 5.0},
        })
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # coarse rasterization is intended
            report = cli.run_compare_sweep(cfg)
        entries = report["entries"]
        assert len(entries) == 3
        theta = report["theta"]
        assert theta == pytest.approx(1.0 / 1.2 - 2.0 / 3.0)
        lp = np.array([e["lp_proxy"] for e in entries])
        assert np.all(np.diff(lp) < 0.0)            # monotone decrease
        phis = np.array([e["phi_local"] for e in entries])
        for key in ("hminus1", "local_term", "meff_sup_sq", "bound_sum"):
            vals = np.array([e[key] for e in entries])
            assert np.all(np.diff(vals) < 0.0)
        # slope of the combined bound (and of its distance-type terms)
        window = ((1.0 + theta) * 0.7, (1.0 + theta) * 1.3)
        for key in ("bound_sum", "hminus1", "local_term"):
            vals = np.array([e[key] for e in entries])
            slope = np.polyfit(np.log(phis), np.log(vals), 1)[0]
            assert window[0] <= slope <= window[1], (key, slope)


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "reflect command is byte-identical across reruns", 60.0):
        import json
        doc = {"seed": 4,
               "cloud": {"kind": "rsa", "box": UNIT_BOX.tolist(), "n": 40,
                         "a": 0.008, "dmin": 0.07},
               "strain": [0.3, -0.2, 0.5, 0.1, -0.4],
               "solver": {"deterministic": True}}
        cfgp = tmp_path / "config.json"
        cfgp.write_text(json.dumps(doc))
        cloud_path = tmp_path / "cloud.json"
        assert cli.main(["generate", "--config", str(cfgp),
                         "--out", str(cloud_path)]) == 0
        s1, s2 = tmp_path / "s1.json", tmp_path / "s2.json"
        assert cli.main(["reflect", "--config", str(cfgp), "--cloud",
                         str(cloud_path), "--out", str(s1)]) == 0
        assert cli.main(["reflect", "--config", str(cfgp), "--cloud",
                         str(cloud_path), "--out", str(s2)]) == 0
        assert s1.read_bytes() == s2.read_bytes()

import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from refstokes import cli
from refstokes import cloud as cl
from refstokes import effective as eff
from refstokes import kernels
from refstokes import reflections as refl
from refstokes import sym3
from refstokes.errors import SeparationError

UNIT_BOX = [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def lattice_config(tmp_path, n_per_axis=3, a=0.02, **extra):
    doc = {
        "seed": 11,
        "cloud": {"kind": "lattice", "box": UNIT_BOX,
                  "n_per_axis": n_per_axis, "a": a},
        "strain": [1.0, 0.0, 0.0, 0.0, 0.0],
    }
    doc.update(extra)
    return write_config(tmp_path, doc)


def test_config_roundtrip():
    doc = {
        "seed": 5,
        "cloud": {"kind": "rsa", "box": UNIT_BOX, "n": 10, "a": 0.01, "dmin": 0.08},
        "strain": [0.1, 0.2, 0.3, 0.4, 0.5],
        "solver": {"tol": 1e-9, "max_iter": 17, "fixed_n": 3, "gate": 0.02,
                   "force": True, "deterministic": True},
        "grid": {"n": 16, "padding": 0.5},
        "sweep": {"phis": [1e-3]},
        "compare": {"p": 1.3, "coefficient": 5.0},
    }
    cfg = cli.ExperimentConfig.from_json(doc)
    assert cli.ExperimentConfig.from_json(asdict(cfg)) == cfg
    assert cfg.solver["max_iter"] == 17
    assert cfg.compare.p == 1.3


def test_generate_lattice(tmp_path, capsys):
    cfgp = lattice_config(tmp_path)
    out = tmp_path / "cloud.json"
    rc = cli.main(["generate", "--config", cfgp, "--out", str(out)])
    assert rc == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["n"] == 27
    assert np.isclose(stats["d"], 1.0 / 3.0)
    cloud = cl.load_cloud(out)
    assert cloud.n == 27


def test_generate_deterministic_bytes(tmp_path):
    doc = {"seed": 9,
           "cloud": {"kind": "rsa", "box": UNIT_BOX, "n": 25, "a": 0.01,
                     "dmin": 0.08},
           "strain": [1, 0, 0, 0, 0]}
    cfgp = write_config(tmp_path, doc)
    o1, o2 = tmp_path / "c1.json", tmp_path / "c2.json"
    assert cli.main(["generate", "--config", cfgp, "--out", str(o1)]) == 0
    assert cli.main(["generate", "--config", cfgp, "--out", str(o2)]) == 0
    assert o1.read_bytes() == o2.read_bytes()
    # the library's own cloud writer encodes the same bytes
    o3 = tmp_path / "c3.json"
    cl.save_cloud(cli.build_cloud(cli.load_config(cfgp)), o3)
    assert o3.read_bytes() == o1.read_bytes()


def test_generate_infeasible_exit_code(tmp_path, capsys):
    doc = {"seed": 0,
           "cloud": {"kind": "rsa", "box": UNIT_BOX, "n": 10 ** 6, "a": 0.01,
                     "dmin": 0.05},
           "strain": [1, 0, 0, 0, 0]}
    cfgp = write_config(tmp_path, doc)
    rc = cli.main(["generate", "--config", cfgp, "--out", str(tmp_path / "c.json")])
    assert rc == 2
    assert "saturation" in capsys.readouterr().err


def test_generate_h2_violation_exit_code(tmp_path):
    cfgp = lattice_config(tmp_path, n_per_axis=2, a=0.2)
    rc = cli.main(["generate", "--config", cfgp, "--out", str(tmp_path / "c.json")])
    assert rc == 2


def test_reflect_two_sphere_fixture(tmp_path, capsys):
    box = [[-2.0, -2.0, -2.0], [12.0, 2.0, 2.0]]
    cloud = cl.ParticleCloud.spheres([[0, 0, 0], [10, 0, 0]], 1.0, np.array(box))
    cloud_path = tmp_path / "cloud.json"
    cl.save_cloud(cloud, cloud_path)
    doc = {"seed": 0, "cloud": {"kind": "lattice", "box": box, "n_per_axis": 1,
                                "a": 1.0},
           "strain": [float(v) for v in
                      sym3.project_sym_tracefree(np.diag([1.0, -0.5, -0.5]))],
           "solver": {"force": True}}
    cfgp = write_config(tmp_path, doc)
    sol_path = tmp_path / "sol.json"
    csv_path = tmp_path / "conv.csv"
    rc = cli.main(["reflect", "--config", cfgp, "--cloud", str(cloud_path),
                   "--out", str(sol_path), "--csv", str(csv_path)])
    assert rc == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "iteration,level_norm,ratio"
    first_ratio = float(lines[2].split(",")[2])
    assert np.isclose(first_ratio, 0.005, rtol=1e-10)   # 5 a^3 / R^3 at R = 10
    summary = json.loads(capsys.readouterr().out)
    assert summary["converged"]


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_one_particle_summaries_are_json(tmp_path, capsys):
    # a single particle has no separation: `d` is null, never Infinity
    doc = {"seed": 3, "cloud": {"kind": "rsa", "box": UNIT_BOX, "n": 1, "a": 0.01,
                                "dmin": 0.05},
           "strain": [1, 0, 0, 0, 0]}
    cloud_path = str(tmp_path / "cloud.json")
    assert cli.main(["generate", "--config", write_config(tmp_path, doc),
                     "--out", cloud_path]) == 0
    assert cli.main(["validate", "--cloud", cloud_path]) == 0
    lines = capsys.readouterr().out.splitlines()
    generated = json.loads(lines[0], parse_constant=refuse_constant)
    validated = json.loads(lines[-1], parse_constant=refuse_constant)
    assert generated == dict(validated, cloud_file=cloud_path)
    assert validated["n"] == 1 and validated["d"] is None


def test_reflect_single_particle_one_row(tmp_path, capsys):
    cfgp = lattice_config(tmp_path, n_per_axis=1)
    cloud_path = tmp_path / "cloud.json"
    cli.main(["generate", "--config", cfgp, "--out", str(cloud_path)])
    capsys.readouterr()
    csv_path = tmp_path / "conv.csv"
    rc = cli.main(["reflect", "--config", cfgp, "--cloud", str(cloud_path),
                   "--out", str(tmp_path / "s.json"), "--csv", str(csv_path)])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["iterations"] == 1
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 3   # header + initial level + the vanishing level


def test_reflect_oracle_deviation(tmp_path, capsys):
    doc = {"seed": 2,
           "cloud": {"kind": "rsa", "box": UNIT_BOX, "n": 50, "a": 0.008,
                     "dmin": 0.08},
           "strain": [1, 0, 0, 0, 0]}
    cfgp = write_config(tmp_path, doc)
    cloud_path = tmp_path / "cloud.json"
    cli.main(["generate", "--config", cfgp, "--out", str(cloud_path)])
    capsys.readouterr()
    rc = cli.main(["reflect", "--config", cfgp, "--cloud", str(cloud_path),
                   "--out", str(tmp_path / "s.json"), "--oracle"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["oracle_max_deviation"] < 1e-8


def test_reflect_oracle_reports_the_largest_particle_deviation(tmp_path, capsys):
    # a loose tol leaves a deviation well above rounding, spread over the rows
    doc = {"seed": 2, "solver": {"tol": 1e-4},
           "cloud": {"kind": "rsa", "box": UNIT_BOX, "n": 50, "a": 0.015, "dmin": 0.08},
           "strain": [1, 0, 0, 0, 0]}
    cfgp = write_config(tmp_path, doc)
    cloud_path, sol_path = tmp_path / "cloud.json", tmp_path / "s.json"
    assert cli.main(["generate", "--config", cfgp, "--out", str(cloud_path)]) == 0
    capsys.readouterr()
    assert cli.main(["reflect", "--config", cfgp, "--cloud", str(cloud_path),
                     "--out", str(sol_path), "--oracle"]) == 0
    summary = json.loads(capsys.readouterr().out)
    cloud = cl.load_cloud(cloud_path)
    a_hat = np.array(json.loads(sol_path.read_text())["a_hat"])
    dense = refl.dense_fixed_point(cloud, sym3.sym_from_list(doc["strain"]))
    rows = np.linalg.norm(a_hat - dense.A_hat, axis=1)
    assert 0 < summary["oracle_max_particle_deviation"] < summary["oracle_max_deviation"]
    assert summary["oracle_max_particle_deviation"] == pytest.approx(rows.max(), rel=1e-9)
    assert summary["oracle_max_deviation"] == pytest.approx(np.linalg.norm(rows), rel=1e-9)


def test_reflect_gate_exit_code(tmp_path, capsys):
    cfgp = lattice_config(tmp_path, n_per_axis=2, a=0.115)
    cloud_path = tmp_path / "cloud.json"
    assert cli.main(["generate", "--config", cfgp, "--out", str(cloud_path)]) == 0
    capsys.readouterr()
    rc = cli.main(["reflect", "--config", cfgp, "--cloud", str(cloud_path),
                   "--out", str(tmp_path / "s.json")])
    assert rc == 3
    forced = write_config(tmp_path, dict(json.loads(Path(cfgp).read_text()),
                                         solver={"force": True}), name="forced.json")
    rc = cli.main(["reflect", "--config", forced, "--cloud", str(cloud_path),
                   "--out", str(tmp_path / "s.json")])
    assert rc == 0


def test_reflect_tol_override(tmp_path, capsys):
    doc = {"seed": 4,
           "cloud": {"kind": "rsa", "box": UNIT_BOX, "n": 40, "a": 0.008,
                     "dmin": 0.07},
           "strain": [1, 0, 0, 0, 0]}
    cfgp = write_config(tmp_path, dict(doc, solver={"tol": 1e-10}))
    coarse_cfg = write_config(tmp_path, dict(doc, solver={"tol": 1e-3}), name="coarse.json")
    cloud_path = tmp_path / "cloud.json"
    cli.main(["generate", "--config", cfgp, "--out", str(cloud_path)])
    capsys.readouterr()
    for config in (cfgp, coarse_cfg):
        assert cli.main(["reflect", "--config", config, "--cloud", str(cloud_path),
                         "--out", str(tmp_path / "s.json")]) == 0
    fine, coarse = (json.loads(line) for line in capsys.readouterr().out.splitlines())
    assert fine["converged"] and coarse["converged"]
    assert coarse["iterations"] < fine["iterations"]


GOOD_CLOUD = {"a": 0.01, "box": UNIT_BOX,
              "centers": [[0.2, 0.2, 0.2], [0.5, 0.5, 0.5], [0.8, 0.8, 0.8]]}


@pytest.mark.parametrize("doc, message", [
    (dict(GOOD_CLOUD, centers=[[0.2, 0.2], [0.5, 0.5], [0.8, 0.8]]), "is too short"),
    (dict(GOOD_CLOUD, n=3), "'n' was unexpected"),
    (dict(GOOD_CLOUD, centers=[[0.2, 0.2, 0.2], [float("nan"), 0.5, 0.5], [0.8, 0.8, 0.8]]),
     "NaN is not a JSON number"),
], ids=["two_coordinates", "extra_key", "nan_center"])
def test_reflect_rejects_invalid_cloud_file(tmp_path, capsys, doc, message):
    cloud_path = write_config(tmp_path, doc, name="cloud.json")
    assert cli.main(["validate", "--cloud", cloud_path]) == 4
    validate_err = capsys.readouterr().err
    assert message in validate_err
    sol_path = tmp_path / "s.json"
    rc = cli.main(["reflect", "--config", lattice_config(tmp_path),
                   "--cloud", cloud_path, "--out", str(sol_path)])
    assert rc == 4
    assert capsys.readouterr().err == validate_err
    assert not sol_path.exists()


NAN_LATTICE = {"seed": 1, "strain": [1, 0, 0, 0, 0],
               "cloud": {"kind": "lattice", "box": UNIT_BOX, "n_per_axis": 3, "a": 0.08}}
OVERFLOW = 123.25   # written as 1e400, which Python's json reads as inf


@pytest.mark.parametrize("doc, constant", [
    # a^3/d^3 = 0.0138 is above the default gate: a NaN or infinite gate switched it off
    (dict(NAN_LATTICE, solver={"gate": float("nan")}), "NaN"),
    (dict(NAN_LATTICE, solver={"gate": float("inf")}), "Infinity"),
    # a NaN dmin placed centres that ignored it, a NaN tol ran every sweep
    (dict(NAN_LATTICE, cloud={"kind": "rsa", "box": UNIT_BOX, "n": 50, "a": 0.001,
                              "dmin": float("nan")}), "NaN"),
    (dict(NAN_LATTICE, solver={"tol": float("nan")}), "NaN"),
    # 1e400 switched the gate off, made 200,000 draws before a saturation
    # error, and stopped after one sweep with "converged": true
    (dict(NAN_LATTICE, solver={"gate": OVERFLOW}), "1e400"),
    (dict(NAN_LATTICE, cloud={"kind": "rsa", "box": UNIT_BOX, "n": 20, "a": 0.001,
                              "dmin": OVERFLOW}), "1e400"),
    (dict(NAN_LATTICE, solver={"tol": OVERFLOW}), "1e400"),
], ids=["gate_nan", "gate_infinity", "dmin_nan", "tol_nan", "gate_overflow", "dmin_overflow",
        "tol_overflow"])
def test_config_refuses_non_finite_numbers(tmp_path, capsys, doc, constant):
    cloud_path = tmp_path / "cloud.json"
    assert cli.main(["generate", "--config", lattice_config(tmp_path, a=0.08),
                     "--out", str(cloud_path)]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc).replace(str(OVERFLOW), "1e400"))
    for argv in (["generate", "--config", str(bad), "--out", str(tmp_path / "c.json")],
                 ["reflect", "--config", str(bad), "--cloud", str(cloud_path),
                  "--out", str(tmp_path / "s.json")]):
        assert cli.main(argv) == 4
        assert f"{constant} is not a JSON number" in capsys.readouterr().err
    assert not (tmp_path / "c.json").exists() and not (tmp_path / "s.json").exists()


def test_reflect_determinism(tmp_path, capsys):
    doc = {"seed": 4,
           "cloud": {"kind": "rsa", "box": UNIT_BOX, "n": 40, "a": 0.008,
                     "dmin": 0.07},
           "strain": [0.3, -0.2, 0.5, 0.1, -0.4]}
    cfgp = write_config(tmp_path, doc)
    cloud_path = tmp_path / "cloud.json"
    cli.main(["generate", "--config", cfgp, "--out", str(cloud_path)])
    s1, s2 = tmp_path / "s1.json", tmp_path / "s2.json"
    assert cli.main(["reflect", "--config", cfgp, "--cloud", str(cloud_path),
                     "--out", str(s1)]) == 0
    assert cli.main(["reflect", "--config", cfgp, "--cloud", str(cloud_path),
                     "--out", str(s2)]) == 0
    assert s1.read_bytes() == s2.read_bytes()


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    # reflect (without --oracle, whose dense LAPACK solve is thread-dependent
    # in its last digits), compare and einstein write the same bytes under 1
    # and 2 BLAS threads
    doc = {"seed": 4,
           "cloud": {"kind": "rsa", "box": UNIT_BOX, "n": 40, "a": 0.008,
                     "dmin": 0.07},
           "strain": [0.3, -0.2, 0.5, 0.1, -0.4],
           "grid": {"n": 16, "padding": 0.5}, "sweep": {"phis": [1e-4]}}
    cfgp = write_config(tmp_path, doc)
    assert cli.main(["generate", "--config", cfgp, "--out", str(tmp_path / "cloud.json")]) == 0
    src = str(Path(cli.__file__).parents[1])
    outputs = ("solution.json", "convergence.csv", "report.json", "einstein.csv")
    for threads in ("1", "2"):
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        env.update(PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        out = tmp_path / threads
        out.mkdir()
        argv = [["reflect", "--config", cfgp, "--cloud", str(tmp_path / "cloud.json"),
                 "--out", str(out / outputs[0]), "--csv", str(out / outputs[1])],
                ["compare", "--config", cfgp, "--out", str(out / outputs[2])],
                ["einstein", "--config", cfgp, "--out", str(out / outputs[3])]]
        code = f"import sys; from refstokes import cli; sys.exit(any(cli.main(a) for a in {argv!r}))"
        subprocess.run([sys.executable, "-W", "ignore", "-c", code], env=env, check=True,
                       capture_output=True)
    for name in outputs:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


def test_einstein_sweep_table(tmp_path):
    cfgp = lattice_config(tmp_path, sweep={"phis": [1e-4, 1e-3, 1e-2]})
    out = tmp_path / "einstein.csv"
    rc = cli.main(["einstein", "--config", cfgp, "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "phi,first_order,converged"
    assert len(lines) == 4
    for line in lines[1:]:
        phi, first, conv = (float(v) for v in line.split(","))
        assert abs(first - 2.5) < 1e-12


def test_einstein_fixed_n_one_is_the_first_order(tmp_path):
    # one strain level and no sweep: every particle sees the ambient strain
    cfgp = lattice_config(tmp_path, n_per_axis=2, solver={"fixed_n": 1},
                          sweep={"phis": [1e-3, 1e-2]})
    out = tmp_path / "einstein.csv"
    assert cli.main(["einstein", "--config", cfgp, "--out", str(out)]) == 0
    header, *rows = (line.split(",") for line in out.read_text().splitlines())
    assert header == ["phi", "first_order", "converged"] and len(rows) == 2
    assert all(first == conv for _, first, conv in rows)


def test_einstein_empty_sweep(tmp_path):
    cfgp = lattice_config(tmp_path, sweep={"phis": []})
    out = tmp_path / "einstein.csv"
    assert cli.main(["einstein", "--config", cfgp, "--out", str(out)]) == 0
    assert out.read_text().strip() == "phi,first_order,converged"


def test_einstein_zero_strain_exit_code(tmp_path, capsys):
    cfgp = lattice_config(tmp_path, n_per_axis=2, strain=[0.0] * 5, sweep={"phis": [1e-3]})
    out = tmp_path / "einstein.csv"
    assert cli.main(["einstein", "--config", cfgp, "--out", str(out)]) == 4
    assert capsys.readouterr().err == "error: einstein coefficient undefined at zero strain\n"
    assert not out.exists()


def test_compare_p_out_of_range(tmp_path, capsys):
    cfgp = lattice_config(tmp_path, sweep={"phis": [1e-3]},
                          compare={"p": 1.6, "coefficient": 5.0})
    rc = cli.main(["compare", "--config", cfgp, "--out", str(tmp_path / "r.json")])
    assert rc == 4
    assert "got 1.6" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("kind, message", [
    ("rsa", "cloud kind 'rsa' needs keys ['dmin', 'n']"),
    ("lattice", "cloud kind 'lattice' needs keys ['n_per_axis']")])
def test_config_names_missing_size_keys(tmp_path, capsys, kind, message):
    cfgp = write_config(tmp_path, {"seed": 1, "cloud": {"kind": kind, "box": UNIT_BOX, "a": 0.01},
                                   "strain": [1, 0, 0, 0, 0]})
    assert cli.main(["generate", "--config", cfgp, "--out", str(tmp_path / "c.json")]) == 4
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("cloud", [{"kind": "rsa", "n": 20, "dmin": 0.1},
                                   {"kind": "lattice", "n_per_axis": 2}])
def test_config_refuses_a_negative_seed(tmp_path, capsys, cloud):
    cfgp = write_config(tmp_path, {"seed": -1, "cloud": dict(cloud, box=UNIT_BOX, a=0.01),
                                   "strain": [1, 0, 0, 0, 0]})
    out = tmp_path / "c.json"
    assert cli.main(["generate", "--config", cfgp, "--out", str(out)]) == 4
    assert "minimum of 0" in capsys.readouterr().err   # the schema check, before any RSA trial
    assert not out.exists()


def test_config_refuses_size_keys_of_another_kind(tmp_path, capsys):
    cfgp = write_config(tmp_path, {"seed": 1, "cloud": {"kind": "lattice", "box": UNIT_BOX,
                                                        "n_per_axis": 2, "a": 0.01,
                                                        "n": 500, "dmin": 0.5},
                                   "strain": [1, 0, 0, 0, 0]})
    out = tmp_path / "c.json"
    assert cli.main(["generate", "--config", cfgp, "--out", str(out)]) == 4
    assert (capsys.readouterr().err
            == "error: cloud kind 'lattice' does not take keys ['dmin', 'n']\n")
    assert not out.exists()


@pytest.mark.parametrize("cloud", [{"kind": "lattice", "n_per_axis": 2, "a": 0.02},
                                   {"kind": "rsa", "n": 5, "a": 0.01, "dmin": 0.05}],
                         ids=["lattice", "rsa"])
@pytest.mark.parametrize("box", [[[0, 0, 0], [-1, 1, 1]], [[0, 0, 0], [1, 1, 0]]],
                         ids=["inverted", "flat"])
@pytest.mark.parametrize("verb", ["generate", "einstein", "compare"])
def test_every_verb_refuses_a_bad_box(tmp_path, capsys, verb, box, cloud):
    # `kernels.check_box` runs as the config loads, before any cloud or grid
    cfgp = write_config(tmp_path, {"seed": 1, "cloud": dict(cloud, box=box),
                                   "strain": [1, 0, 0, 0, 0], "sweep": {"phis": [1e-3]}})
    out = tmp_path / "out"
    assert cli.main([verb, "--config", cfgp, "--out", str(out)]) == 4
    assert capsys.readouterr().err.startswith("error: box must be ")
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:grid spacing")
@pytest.mark.parametrize("box, grid_n, message", [
    ([[0, 0, 0], [2, 2, 0.5]], 16, "the spectral quadrature requires cubic cells")])
def test_compare_checks_its_grid_before_the_solve(tmp_path, capsys, monkeypatch,
                                                  box, grid_n, message):
    def solve(*args, **kwargs):
        raise AssertionError("the reflection solve ran")

    monkeypatch.setattr(refl, "run_reflections", solve)
    cfgp = write_config(tmp_path, {
        "seed": 1, "cloud": {"kind": "lattice", "box": box, "n_per_axis": 3, "a": 0.01},
        "strain": [1, 0, 0, 0, 0], "grid": {"n": grid_n, "padding": 0.5},
        "sweep": {"phis": [1e-3]}})
    assert cli.main(["compare", "--config", cfgp, "--out", str(tmp_path / "r.json")]) == 4
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.filterwarnings("ignore:grid spacing")
def test_compare_makes_no_coefficient_grid(monkeypatch):
    # spheres against c phi I: the H^-1 distance of scalar fields. No block
    # the size of an (n, n, n, 5, 5) field is alive when the quadrature
    # starts, and the traced peak before the reflection solve stays below two
    # of them (the 25-component fields peak at 25.9 MiB here, 11.8 without,
    # 6.7 with the quadrature filled slab by slab). The quadrature caches no
    # weight cube, so a cold run is traced as it is
    n = 32
    field_bytes = n ** 3 * 25 * 8
    cfg = cli.ExperimentConfig.from_json({
        "seed": 1, "strain": [1.0, 0.0, 0.0, 0.0, 0.0],
        "cloud": {"kind": "lattice", "box": UNIT_BOX, "n_per_axis": 2, "a": 0.02},
        "grid": {"n": n, "padding": 0.5}, "sweep": {"phis": [1e-3]}})
    largest, before_solve = [], []
    hminus1, solve = eff.hminus1_distance, refl.run_reflections

    def quadrature(f, g):
        largest.append(max(t.size for t in tracemalloc.take_snapshot().traces))
        return hminus1(f, g)

    def reflections(*args, **kwargs):
        before_solve.append(tracemalloc.get_traced_memory()[1])
        return solve(*args, **kwargs)

    monkeypatch.setattr(eff, "hminus1_distance", quadrature)
    monkeypatch.setattr(refl, "run_reflections", reflections)
    tracemalloc.start()
    try:
        cli.run_compare_sweep(cfg)
    finally:
        tracemalloc.stop()
    assert largest and max(largest) < field_bytes
    assert before_solve and before_solve[0] < 2 * field_bytes


@pytest.mark.filterwarnings("ignore:grid spacing")
def test_compare_runs_on_a_grid_of_twelve(tmp_path):
    # no power of two: the FFT lengths are 2^a 3^b, the H^-1 grid is padded to 24
    cfgp = lattice_config(tmp_path, sweep={"phis": [1e-3]}, grid={"n": 12, "padding": 0.5})
    out = tmp_path / "report.json"
    assert cli.main(["compare", "--config", cfgp, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["grid_n"] == 12 and len(report["entries"]) == 1
    assert report["entries"][0]["hminus1"] > 0 and report["entries"][0]["lp_proxy"] > 0


@pytest.mark.filterwarnings("ignore:grid spacing")
def test_compare_reaches_the_mean_field_gate(tmp_path, capsys):
    # a^3/d^3 = 0.0072 passes the reflection gate; the coefficient 5 phi = 0.15
    # of the uniform model then exceeds the 1/8 gate of the mean-field solve
    cfgp = lattice_config(tmp_path, sweep={"phis": [0.03]}, grid={"n": 16, "padding": 0.5})
    assert cli.main(["compare", "--config", cfgp, "--out", str(tmp_path / "r.json")]) == 3
    assert capsys.readouterr().err == (
        "error: sup-norm 0.15 of the coefficient exceeds the 1/8 gate\n")


@pytest.mark.filterwarnings("ignore:grid spacing")
def test_compare_report(tmp_path, capsys):
    cfgp = lattice_config(
        tmp_path, sweep={"phis": [1e-2, 1e-3]},
        grid={"n": 16, "padding": 0.5},
        compare={"p": 1.2, "coefficient": 5.0})
    out = tmp_path / "report.json"
    rc = cli.main(["compare", "--config", cfgp, "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert len(report["entries"]) == 2
    e = report["entries"][0]
    for key in ("phi", "phi_local", "hminus1", "lp_proxy", "local_term",
                "meff_sup_sq", "bound_sum"):
        assert key in e
    assert report["theta"] == pytest.approx(1 / 1.2 - 2 / 3)


@pytest.mark.filterwarnings("ignore:grid spacing")
def test_compare_sums_three_levels_whatever_the_solver_section(tmp_path):
    reports = []
    for name, extra in (("plain", {}),
                        ("set", {"solver": {"fixed_n": 5, "tol": 1e-2, "max_iter": 1}})):
        folder = tmp_path / name
        folder.mkdir()
        cfgp = lattice_config(folder, n_per_axis=2, grid={"n": 8, "padding": 0.5},
                              sweep={"phis": [1e-3, 1e-2]}, **extra)
        assert cli.main(["compare", "--config", cfgp, "--out", str(folder / "report.json")]) == 0
        reports.append((folder / "report.json").read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.filterwarnings("ignore:grid spacing")
def test_compare_lp_proxy_matches_slow_oracle(tmp_path):
    # lp_proxy by explicit loops over grid cells and particles: points within
    # 4a of a centre dropped by explicit distances, u_app = A x plus the
    # sphere disturbances of the fixed_n = 3 strains, u_eff = A x plus the
    # fixed_point_vc velocity of the same cell
    strain = [0.3, -0.7, 0.5, 0.2, -0.4]
    cfg = cli.load_config(lattice_config(tmp_path, n_per_axis=2, strain=strain,
                                         sweep={"phis": [1e-3, 8e-3]},
                                         grid={"n": 8, "padding": 0.5}))
    report = cli.run_compare_sweep(cfg)
    A = sym3.sym_from_list(strain)
    Amat = sym3.embed(A)
    p, n = report["p"], 8
    gbox = np.array([[-0.5] * 3, [1.5] * 3])
    h = 2.0 / n
    excluded = []
    for entry in report["entries"]:
        a = entry["a"]
        cloud = cl.generate_lattice(np.array(UNIT_BOX), 2, a)
        strains = refl.run_reflections(cloud, A, fixed_n=3).A_hat
        model = eff.uniform_Meff(cloud.box, entry["phi"])
        vc, _ = eff.fixed_point_vc(model, A, gbox, n, max_iter=1)
        total, dropped = 0.0, 0
        for i, j, k in itertools.product(range(n), repeat=3):
            x = gbox[0] + (np.array([i, j, k]) + 0.5) * h
            if any(np.linalg.norm(x - c) <= 4.0 * a for c in cloud.centers):
                dropped += 1
                continue
            u_app = Amat @ x
            for s, c in zip(strains, cloud.centers):
                u_app = u_app + kernels.sphere_disturbance(s, a, x - c)
            u_eff = Amat @ x + vc.values[i, j, k]
            total += np.linalg.norm(u_app - u_eff) ** p * h ** 3
        excluded.append(dropped)
        assert entry["lp_proxy"] == pytest.approx(total ** (1.0 / p), rel=1e-12, abs=0.0)
    assert excluded == [0, 64]        # 8 cells around each of the 8 balls


@pytest.mark.filterwarnings("ignore:grid spacing")
def test_compare_self_rasterization_small(tmp_path):
    # comparing the assembled coefficient against itself leaves only the
    # rasterization error in the report's distance entry
    from refstokes import effective as eff
    c = cl.generate_lattice(np.array(UNIT_BOX), 2, 0.06)
    gbox = np.array([[-0.5] * 3, [1.5] * 3])
    MN = eff.assemble_MN(c, gbox, 32)
    assert eff.hminus1_distance(MN, MN) == 0.0


def test_validate_battery(capsys):
    rc = cli.main(["validate"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_validate_cloud_file(tmp_path, capsys):
    cfgp = lattice_config(tmp_path)
    cloud_path = tmp_path / "cloud.json"
    cli.main(["generate", "--config", cfgp, "--out", str(cloud_path)])
    capsys.readouterr()
    rc = cli.main(["validate", "--cloud", str(cloud_path)])
    assert rc == 0


@pytest.mark.parametrize("verb, flag", [("generate", "--config"), ("generate", "--out"),
                                        ("reflect", "--config"), ("reflect", "--cloud"),
                                        ("reflect", "--out"), ("validate", "--cloud")])
def test_a_directory_for_a_file_exits_4(tmp_path, capsys, verb, flag):
    # a file a verb cannot open is an invalid parameter, not an internal error
    cfgp = lattice_config(tmp_path, n_per_axis=2)
    cloud_path, out, folder = str(tmp_path / "cloud.json"), tmp_path / "out.json", tmp_path / "dir"
    assert cli.main(["generate", "--config", cfgp, "--out", cloud_path]) == 0
    folder.mkdir()
    files = {"generate": {"--config": cfgp, "--out": str(out)},
             "reflect": {"--config": cfgp, "--cloud": cloud_path, "--out": str(out)},
             "validate": {"--cloud": cloud_path}}[verb]
    files[flag] = str(folder)
    capsys.readouterr()
    assert cli.main([verb, *itertools.chain.from_iterable(files.items())]) == 4
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists() and not any(folder.iterdir())


@pytest.mark.parametrize("verb", ["generate", "reflect"])
@pytest.mark.parametrize("folder_flag", ["--out", "--csv"])
def test_no_partial_output_when_a_file_cannot_be_written(tmp_path, capsys, verb, folder_flag):
    # a verb writes every output or none: a --csv it cannot open leaves no --out
    cfgp = lattice_config(tmp_path, n_per_axis=2)
    cloud_path, folder = str(tmp_path / "cloud.json"), tmp_path / "dir"
    assert cli.main(["generate", "--config", cfgp, "--out", cloud_path]) == 0
    folder.mkdir()
    files = {"--out": tmp_path / "out.json", "--csv": tmp_path / "out.csv"}
    files[folder_flag] = folder
    argv = [verb, "--config", cfgp] + (["--cloud", cloud_path] if verb == "reflect" else [])
    capsys.readouterr()
    assert cli.main(argv + [a for flag, path in files.items() for a in (flag, str(path))]) == 4
    assert "Is a directory" in capsys.readouterr().err
    assert not any(path.exists() for path in files.values() if path != folder)
    assert not any(folder.iterdir())


def test_bad_arguments_exit_code(capsys):
    assert cli.main(["reflect"]) == 4          # missing required flags
    assert cli.main(["frobnicate"]) == 4       # unknown verb


def test_unknown_cloud_kind():
    cfg = cli.ExperimentConfig(cloud={"kind": "poisson", "box": UNIT_BOX, "a": 0.01})
    with pytest.raises(ValueError, match="unknown cloud kind 'poisson'"):
        cli.build_cloud(cfg)


def test_internal_error_exit_code(monkeypatch, capsys):
    def broken(cfg, args):
        raise RuntimeError("broken handler")
    monkeypatch.setattr(cli, "cmd_validate", broken)
    assert cli.main(["validate"]) == 1
    assert capsys.readouterr().err == "internal error: broken handler\n"


def test_bad_config_schema(tmp_path):
    cfgp = write_config(tmp_path, {"seed": "not-an-int", "cloud": {}, "strain": []})
    assert cli.main(["generate", "--config", cfgp,
                     "--out", str(tmp_path / "c.json")]) == 4


def test_seed_override(tmp_path, capsys):
    doc = {"seed": 1,
           "cloud": {"kind": "rsa", "box": UNIT_BOX, "n": 10, "a": 0.01,
                     "dmin": 0.1},
           "strain": [1, 0, 0, 0, 0]}
    o1, o2 = tmp_path / "c1.json", tmp_path / "c2.json"
    for seed, out in ((1, o1), (2, o2)):
        cfgp = write_config(tmp_path, dict(doc, seed=seed), name=f"config{seed}.json")
        assert cli.main(["generate", "--config", cfgp, "--out", str(out)]) == 0
    assert o1.read_bytes() != o2.read_bytes()


@pytest.mark.parametrize("verb, flag", [
    ("generate", ["--seed", "2"]), ("reflect", ["--tol", "1e-3"]), ("reflect", ["--force"]),
    ("compare", ["--p", "1.3"]), ("validate", ["--config", "config.json"])],
    ids=["generate_seed", "reflect_tol", "reflect_force", "compare_p", "validate_config"])
def test_run_parameters_are_not_flags(tmp_path, capsys, verb, flag):
    # every run parameter lives in the config, so a run is rebuilt from its files
    cfgp = lattice_config(tmp_path, sweep={"phis": [1e-3]}, grid={"n": 8, "padding": 0.5})
    cloud_path = tmp_path / "cloud.json"
    assert cli.main(["generate", "--config", cfgp, "--out", str(cloud_path)]) == 0
    capsys.readouterr()
    out = tmp_path / "out.json"
    argv = {"generate": ["--config", cfgp, "--out", str(out)],
            "reflect": ["--config", cfgp, "--cloud", str(cloud_path), "--out", str(out)],
            "compare": ["--config", cfgp, "--out", str(out)],
            "validate": ["--cloud", str(cloud_path)]}[verb]
    assert cli.main([verb] + argv + flag) == 4
    assert capsys.readouterr().err == f"error: unrecognized arguments: {' '.join(flag)}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cloud.json", "config.json"]


def test_reflect_oracle_size_limit_exit_code(tmp_path, capsys):
    centers = np.random.default_rng(0).uniform(0.01, 0.99, size=(1001, 3))
    cloud_path = tmp_path / "cloud.json"
    cl.save_cloud(cl.ParticleCloud.spheres(centers, 1e-4, np.array(UNIT_BOX)),
                  cloud_path)
    cfgp = lattice_config(tmp_path, solver={"fixed_n": 1})
    rc = cli.main(["reflect", "--config", cfgp, "--cloud", str(cloud_path),
                   "--out", str(tmp_path / "solution.json"), "--oracle"])
    assert rc == 4
    assert "5N <= 5000" in capsys.readouterr().err


def test_reflect_oracle_guard_before_the_solve(tmp_path, capsys):
    cfgp = lattice_config(tmp_path, n_per_axis=11, a=0.002)
    cloud_path, out = tmp_path / "cloud.json", tmp_path / "solution.json"
    assert cli.main(["generate", "--config", cfgp, "--out", str(cloud_path)]) == 0
    capsys.readouterr()
    rc = cli.main(["reflect", "--config", cfgp, "--cloud", str(cloud_path),
                   "--out", str(out), "--oracle"])
    assert rc == 4
    assert "5N <= 5000 (got N = 1331)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:grid spacing")
def test_each_cloud_validated_once_per_run(tmp_path, monkeypatch):
    calls = []
    min_distance = cl._min_distance

    def counted(centers):
        calls.append(len(centers))
        return min_distance(centers)

    monkeypatch.setattr(cl, "_min_distance", counted)
    cfg = cli.load_config(lattice_config(tmp_path, sweep={"phis": [1e-3]},
                                         grid={"n": 16, "padding": 0.5}))
    cli.run_einstein_sweep(cfg)
    assert len(calls) == 1
    cli.run_compare_sweep(cfg)
    assert len(calls) == 2
    bad = cl.ParticleCloud.spheres([[0.5, 0.5, 0.5], [0.5, 0.5, 0.51]], 0.01,
                                   np.array(UNIT_BOX))
    for _ in range(2):
        with pytest.raises(SeparationError):
            cl.validate(bad)
    assert len(calls) == 4


def test_dump_json_refuses_non_finite(tmp_path):
    path = tmp_path / "solution.json"
    for bad in (float("nan"), float("inf")):
        # a schema-valid solution document: the schema lets NaN/Infinity through
        doc = {"a_hat": [[1.0, 0.0, 0.0, 0.0, 0.0]], "iterations": 1,
               "converged": False, "residual": bad, "norm_history": [1.0, bad]}
        cli.validate_document(doc, "solution.schema.json")
        with pytest.raises(ValueError):
            cli._dump_json(doc, path, "solution.schema.json")
        assert not path.exists()

"""Command-line front end.

Verbs: generate | reflect | einstein | compare | validate. One JSON config
document holds every run parameter; a flag names a file a verb reads or
writes, or is the `reflect --oracle` cross-check. All outputs (cloud files,
solution files, CSV tables, reports) are deterministic functions of the
config, so re-runs are byte-identical. This module reads and writes them
through one schema-checked JSON reader and one file writer, which writes all
of a verb's files or none; `cloud.save_cloud`/`load_cloud` (bench/) skip the
schema.

Exit codes: 0 success, 2 generation infeasible (separation/saturation),
3 convergence-gate violation, 4 invalid parameter or a file that cannot be read
or written, 1 internal error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from . import cloud as cloudmod
from . import effective, kernels, reflections, sym3
from .errors import GateError, KernelDomainError, SaturationError, SchemaError, SeparationError

__all__ = ["main", "ExperimentConfig", "load_config", "run_compare_sweep",
           "run_einstein_sweep"]

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INFEASIBLE = 2
EXIT_GATE = 3
EXIT_PARAM = 4


# ---------------------------------------------------------------------------
# configuration


@dataclass
class GridConfig:
    n: int = 32
    padding: float = 0.5         # margin per side, as a fraction of the box side


@dataclass
class CompareConfig:
    p: float = 1.2
    coefficient: float = 5.0


@dataclass
class ExperimentConfig:
    seed: int = 0
    cloud: dict = field(default_factory=dict)
    strain: list = field(default_factory=lambda: [1.0, 0.0, 0.0, 0.0, 0.0])
    solver: dict = field(default_factory=dict)    # run_reflections' keywords
    grid: GridConfig = field(default_factory=GridConfig)
    sweep: dict = field(default_factory=lambda: {"phis": []})
    compare: CompareConfig = field(default_factory=CompareConfig)

    @classmethod
    def from_json(cls, doc):
        cfg = cls()
        cfg.seed = int(doc.get("seed", 0))
        cfg.cloud = dict(doc.get("cloud", {}))
        kernels.check_box(cfg.cloud.get("box"))
        kind, keys = cfg.cloud.get("kind"), set(cfg.cloud)
        sizes = {"lattice": {"n_per_axis"}, "rsa": {"n", "dmin"}}
        if kind in sizes:
            if missing := sorted(sizes[kind] - keys):
                raise ValueError(f"cloud kind {kind!r} needs keys {missing}")
            if extra := sorted(keys & {"n_per_axis", "n", "dmin"} - sizes[kind]):
                raise ValueError(f"cloud kind {kind!r} does not take keys {extra}")
        cfg.strain = [float(v) for v in doc.get("strain", cfg.strain)]
        # old configs may set `deterministic`; summation is always ordered, so it is dropped
        cfg.solver = {k: v for k, v in doc.get("solver", {}).items() if k != "deterministic"}
        cfg.grid = GridConfig(**doc.get("grid", {}))
        cfg.sweep = dict(doc.get("sweep", {"phis": []}))
        cfg.compare = CompareConfig(**doc.get("compare", {}))
        return cfg


# ---------------------------------------------------------------------------
# files: every document the CLI reads or writes passes through these


@functools.lru_cache(maxsize=4)      # one per file in refstokes/schemas
def _schema(schema_name):
    return json.loads(resources.files("refstokes.schemas").joinpath(schema_name).read_text())


_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
          "null": type(None), "number": (int, float), "integer": int}
_KEYWORDS = {"$schema", "title", "type", "enum", "required", "properties", "additionalProperties",
             "items", "minItems", "maxItems", "minimum", "exclusiveMinimum"}


def _proven(x, schema):
    """True only if x is valid under schema by Draft 2020-12. False means "not proven":
    another keyword, neither `type` nor `enum`, an integral float as an integer, etc."""
    if isinstance(schema, bool):
        return schema
    types = [schema["type"]] if isinstance(schema.get("type"), str) else schema.get("type", ())
    number = isinstance(x, (int, float)) and not isinstance(x, bool)
    if (not _KEYWORDS.issuperset(schema) or ("type" not in schema and "enum" not in schema)
            # a bool is an int to Python, but neither a number nor an integer to JSON
            or types and not ("boolean" in types if isinstance(x, bool) else
                              any(isinstance(x, _TYPES[t]) for t in types))
            or "enum" in schema and not (isinstance(x, str) and x in schema["enum"])
            # a missing bound defaults to NaN, with which every comparison is False
            or number and (x < schema.get("minimum", math.nan)
                           or x <= schema.get("exclusiveMinimum", math.nan))):
        return False
    if isinstance(x, list):
        items = schema.get("items", True)
        # rows of plain numbers, the bulk of every document, at C speed
        return (schema.get("minItems", 0) <= len(x) <= schema.get("maxItems", len(x))
                and (items == {"type": "number"} and set(map(type, x)) <= {int, float}
                     or all(_proven(v, items) for v in x)))
    if isinstance(x, dict):
        props, extra = schema.get("properties", {}), schema.get("additionalProperties", True)
        return (all(k in x for k in schema.get("required", ()))
                and all(_proven(v, props[k] if k in props else extra) for k, v in x.items()))
    return True


def validate_document(doc, schema_name):
    """Raise SchemaError with jsonschema's `best_match` message if doc fails its schema.

    jsonschema is imported only for a document `_proven` cannot accept. The
    schema files are checked against their meta-schema by the tests.
    """
    schema = _schema(schema_name)
    if not _proven(doc, schema):
        from jsonschema import Draft202012Validator, exceptions
        error = exceptions.best_match(Draft202012Validator(schema).iter_errors(doc))
        if error is not None:
            raise SchemaError(error.message)


def _finite_number(text):   # NaN, Infinity, and numbers such as 1e400 that overflow to inf
    value = float(text)
    if not math.isfinite(value):
        raise SchemaError(f"{text} is not a JSON number in float range")
    return value


def _read_json(path, schema_name):
    with open(path) as fh:
        doc = json.load(fh, parse_constant=_finite_number, parse_float=_finite_number)
    validate_document(doc, schema_name)
    return doc


def _write_files(files):
    """Write each (path, text) pair; if one fails, remove those this call opened."""
    opened = []
    try:
        for path, text in files:
            with open(path, "w", newline="") as fh:
                opened.append(path)
                fh.write(text)
    except OSError:
        for path in opened:
            os.remove(path)
        raise


def _dump_json(doc, path, schema_name, *tables):
    """Write doc to path, and each (path, text) of `tables`, through `_write_files`."""
    validate_document(doc, schema_name)
    text = json.dumps(doc, indent=1, sort_keys=True, allow_nan=False)
    _write_files([(path, text + "\n"), *tables])


def _print_json(doc):
    """One stdout summary line; like the JSON files, it refuses NaN and Infinity."""
    print(json.dumps(doc, sort_keys=True, allow_nan=False))


def _stats_json(stats):
    # a cloud of fewer than 2 particles has no separation: null, not Infinity
    return {"n": stats.n, "d": stats.d if stats.n > 1 else None,
            "phi_global": stats.phi_global, "phi_local": stats.phi_local}


def _csv_text(header, rows):
    """Header and rows of str, int and float cells; a float is written as its repr."""
    buf = io.StringIO()
    csv.writer(buf).writerows([header, *rows])
    return buf.getvalue()


def load_config(path):
    return ExperimentConfig.from_json(_read_json(path, "config.schema.json"))


def build_cloud(cfg, phi=None):
    """The config's cloud; given a volume fraction phi, with the radius that fills it."""
    spec, kind = cfg.cloud, cfg.cloud.get("kind")
    if kind not in ("lattice", "rsa"):
        raise ValueError(f"unknown cloud kind {kind!r}")
    a = float(spec["a"])
    if phi is not None:     # the radius at which the cloud's balls fill phi of its box
        count = int(spec["n_per_axis"]) ** 3 if kind == "lattice" else int(spec["n"])
        box = np.asarray(spec["box"], dtype=float)
        vol = float(np.prod(box[1] - box[0]))
        a = (3.0 * phi * vol / (4.0 * np.pi * count)) ** (1.0 / 3.0)
    if kind == "lattice":
        return cloudmod.generate_lattice(spec["box"], spec["n_per_axis"], a)
    return cloudmod.generate_rsa(spec["box"], spec["n"], a, float(spec["dmin"]), cfg.seed)


# ---------------------------------------------------------------------------
# commands


def cmd_generate(cfg, args):
    cloud = build_cloud(cfg)
    stats = cloudmod.validate(cloud)
    tables = [(args.csv, _csv_text(["x", "y", "z"], cloud.centers.tolist()))] if args.csv else []
    _dump_json(cloudmod.cloud_to_json(cloud), args.out, "cloud.schema.json", *tables)
    _print_json(dict(_stats_json(stats), cloud_file=args.out))
    return EXIT_OK


def cmd_reflect(cfg, args):
    cloud = cloudmod.cloud_from_json(_read_json(args.cloud, "cloud.schema.json"))
    if args.oracle and 5 * cloud.n > reflections.DENSE_MAX_UNKNOWNS:
        raise ValueError(f"--oracle: dense solve guarded to 5N <= "
                         f"{reflections.DENSE_MAX_UNKNOWNS} (got N = {cloud.n})")
    A = sym3.sym_from_list(cfg.strain)
    sol = reflections.run_reflections(cloud, A, **cfg.solver)
    tables = []
    if args.csv:
        ratios = [""] + reflections.level_ratios(sol.norm_history)
        levels = [[k, v, r] for k, (v, r) in enumerate(zip(sol.norm_history, ratios))]
        tables.append((args.csv, _csv_text(["iteration", "level_norm", "ratio"], levels)))
    _dump_json(reflections.solution_to_json(sol), args.out, "solution.schema.json", *tables)
    summary = {"solution_file": args.out, "iterations": sol.iterations,
               "converged": sol.converged, "residual": sol.residual}
    if args.oracle:
        diff = sol.A_hat - reflections.dense_fixed_point(cloud, A).A_hat
        rows = np.linalg.norm(diff, axis=1)          # one norm per particle
        summary["oracle_max_deviation"] = float(np.linalg.norm(diff))
        summary["oracle_max_particle_deviation"] = float(rows.max(initial=0.0))
    _print_json(summary)
    return EXIT_OK


def run_einstein_sweep(cfg):
    """Rows (phi, first-order coefficient, converged coefficient)."""
    rows = []
    A = sym3.sym_from_list(cfg.strain)
    for phi in cfg.sweep.get("phis", []):
        cloud = build_cloud(cfg, phi)
        sol = reflections.run_reflections(cloud, A, **cfg.solver)
        first = effective.einstein_coefficient(cloud, A, np.tile(A, (cloud.n, 1)))
        conv = effective.einstein_coefficient(cloud, A, sol.A_hat)
        rows.append((float(phi), float(first), float(conv)))
    return rows


def cmd_einstein(cfg, args):
    rows = run_einstein_sweep(cfg)
    _write_files([(args.out, _csv_text(["phi", "first_order", "converged"], rows))])
    _print_json({"table": args.out, "rows": len(rows)})
    return EXIT_OK


def _grid_box(cfg):
    box = np.asarray(cfg.cloud["box"], dtype=float)
    side = box[1] - box[0]
    return np.stack([box[0] - cfg.grid.padding * side,
                     box[1] + cfg.grid.padding * side])


def run_compare_sweep(cfg):
    """Homogenization error report across the configured volume fractions.

    Per phi: rasterized cloud coefficient vs the matched uniform model in the
    negative Sobolev norm, the Lp distance between the reflected velocity and
    the mean-field approximation away from the particles, and the two scalar
    error terms (local volume fraction power, squared coefficient sup-norm).
    """
    p = cfg.compare.p
    if not (1.0 <= p < 1.5):
        raise ValueError(f"p must lie in [1, 3/2), got {p}")
    theta = 1.0 / p - 2.0 / 3.0
    A = sym3.sym_from_list(cfg.strain)
    n = cfg.grid.n
    gbox = _grid_box(cfg)
    entries = []
    for phi in cfg.sweep.get("phis", []):
        cloud = build_cloud(cfg, phi)
        stats = cloudmod.validate(cloud)
        # the grid checks (n >= 1, cubic cells) fail here, before the solve;
        # spheres against c phi I need scalar fields only, no 5x5 grid
        model = effective.uniform_Meff(cloud.box, phi, cfg.compare.coefficient)
        hm1 = effective.sphere_hminus1_distance(cloud, model, gbox, n)
        # three strain levels whatever the config's tol, max_iter and fixed_n
        sol = reflections.run_reflections(cloud, A, **dict(cfg.solver, fixed_n=3))
        vc, _ = effective.fixed_point_vc(model, A, gbox, n, max_iter=1)
        pts = vc.cell_centers().reshape(-1, 3)
        keep = effective.outside_balls(pts, cloud)
        u_app = reflections.evaluate_velocity(sol, A, pts[keep])
        u_eff = pts[keep] @ sym3.embed(A).T + vc.values.reshape(-1, 3)[keep]
        lp = effective.lp_field_distance(u_app, u_eff, p, vc.cell_volume)
        sup = model.sup_norm()
        entry = {
            "phi": float(phi),
            "phi_local": stats.phi_local,
            "a": float(cloud.a),
            "n_particles": cloud.n,
            "hminus1": hm1,
            "lp_proxy": lp,
            "local_term": stats.phi_local ** (1.0 + theta),
            "meff_sup_sq": sup ** 2,
        }
        entry["bound_sum"] = entry["hminus1"] + entry["local_term"] + entry["meff_sup_sq"]
        entries.append(entry)
    return {"p": p, "theta": theta, "grid_n": n, "entries": entries}


def cmd_compare(cfg, args):
    report = run_compare_sweep(cfg)
    _dump_json(report, args.out, "compare.schema.json")
    _print_json({"report": args.out, "entries": len(report["entries"])})
    return EXIT_OK


def _selfcheck_battery():
    checks = []
    # basis orthonormality
    gram = np.einsum("aij,bij->ab", sym3.BASIS, sym3.BASIS)
    checks.append(("basis gram = identity", np.max(np.abs(gram - np.eye(5))) < 1e-14))
    # projection idempotence on random matrices
    rng = np.random.default_rng(0)
    M = rng.normal(size=(256, 3, 3))
    c1 = sym3.project_sym_tracefree(M)
    c2 = sym3.project_sym_tracefree(sym3.embed(c1))
    checks.append(("projection idempotent", np.max(np.abs(c1 - c2)) < 1e-13))
    # fundamental solution at a reference point
    O = kernels.oseen(np.array([1.0, 0.0, 0.0]))
    checks.append(("point-force response at e1",
                   np.allclose(O, np.diag([2.0, 1.0, 1.0]) / (8 * np.pi), atol=1e-15)))
    # sphere strain-to-stresslet map
    M = kernels.mobility_from_boundary_integral(1.0)
    checks.append(("sphere boundary-integral map",
                   np.max(np.abs(M - kernels.sphere_mobility(1.0))) < 1e-8))
    # ball-average reconstruction, quadratic test function
    val = kernels.mean_value_reconstruct(3.0 / 5.0, 1.0, lambda rho: 6.0)
    checks.append(("ball-average reconstruction", abs(val) < 1e-9))
    return checks


def cmd_validate(cfg, args):
    ok = True
    for name, passed in _selfcheck_battery():
        print(f"{'PASS' if passed else 'FAIL'} {name}")
        ok &= passed
    if args.cloud:
        doc = _read_json(args.cloud, "cloud.schema.json")
        stats = cloudmod.validate(cloudmod.cloud_from_json(doc))
        _print_json(_stats_json(stats))
    return EXIT_OK if ok else EXIT_INTERNAL


# ---------------------------------------------------------------------------
# argument plumbing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def _build_parser():
    parser = _Parser(prog="refstokes",
                     description="Dilute Stokes suspensions: particle clouds, "
                                 "reflection sweeps, homogenization reports")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate and validate a particle cloud")
    gen.add_argument("--config", required=True)
    gen.add_argument("--out", default="cloud.json")
    gen.add_argument("--csv", default=None, help="optional CSV of centers")

    ref = sub.add_parser("reflect", help="run the reflection solver on a cloud")
    ref.add_argument("--config", required=True)
    ref.add_argument("--cloud", required=True)
    ref.add_argument("--out", default="solution.json")
    ref.add_argument("--csv", default=None, help="convergence table CSV")
    ref.add_argument("--oracle", action="store_true",
                     help="cross-check against the dense solve "
                          f"(5N <= {reflections.DENSE_MAX_UNKNOWNS})")

    ein = sub.add_parser("einstein", help="effective-viscosity coefficient sweep")
    ein.add_argument("--config", required=True)
    ein.add_argument("--out", default="einstein.csv")

    cmp_ = sub.add_parser("compare", help="homogenization error report")
    cmp_.add_argument("--config", required=True)
    cmp_.add_argument("--out", default="compare.json")

    val = sub.add_parser("validate", help="run the built-in invariant battery")
    val.add_argument("--cloud", default=None)
    return parser


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        # validate's battery reads no config
        cfg = load_config(args.config) if args.command != "validate" else None
        handler = {"generate": cmd_generate, "reflect": cmd_reflect,
                   "einstein": cmd_einstein, "compare": cmd_compare,
                   "validate": cmd_validate}[args.command]
        return handler(cfg, args)
    except (SaturationError, SeparationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except GateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GATE
    except (ValueError, KernelDomainError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAM
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

"""Output checks of one workload run, against oracles and recorded references.

Usage: python3 check.py WORKLOAD SEED [--record], run in the workload's
directory after a child has written its outputs. Prints one JSON line
{"ok": bool, "failures": [...], "notes": [...]}. Nothing here is timed.

Tolerances are the test suite's:
  * strains within 1e-8 |A| (the dense-oracle tests);
  * report entries within rtol 1e-8;
  * the first FFT iterate within 1e-6 of its maximum of `tilde_vc`.

References were recorded from the outputs of the seed commit with
--record; `refs/WORKLOAD.json` maps a seed to the values its outputs must
keep. A seed without a recorded reference skips only the reference
comparison, and says so in "notes".
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import numpy as np  # noqa: E402

from refstokes import cli, effective, reflections, sym3  # noqa: E402
from refstokes import cloud as cloudmod  # noqa: E402

STRAIN_TOL = 1e-8          # times |A|
REPORT_RTOL = 1e-8
FIRST_ITERATE_TOL = 1e-6   # times max |first iterate|
REF_PARTICLES = 16


class Checks:
    def __init__(self):
        self.failures = []
        self.notes = []

    def require(self, ok, message):
        if not ok:
            self.failures.append(message)


def _strain_scale(cfg):
    return float(np.linalg.norm(sym3.sym_from_list(cfg.strain)))


def _ref_indices(n):
    return [int(i) for i in np.linspace(0, n - 1, REF_PARTICLES)]


def _summary():
    return json.loads(Path("stdout.txt").read_text().strip().splitlines()[-1])


def _solution(checks):
    c = cloudmod.load_cloud("cloud.json")
    sol = reflections.solution_from_json(json.loads(Path("solution.json").read_text()), c)
    checks.require(sol.converged, f"reflection solve not converged "
                                  f"after {sol.iterations} sweeps")
    checks.require(_summary()["converged"], "CLI summary reports no convergence")
    return sol


def _strain_fingerprint(sol):
    idx = _ref_indices(sol.cloud.n)
    return {"iterations": int(sol.iterations), "particles": idx,
            "a_hat": [[float(v) for v in sol.A_hat[i]] for i in idx]}


def _compare_strains(checks, sol, ref, scale):
    got = sol.A_hat[ref["particles"]]
    dev = float(np.max(np.linalg.norm(got - np.asarray(ref["a_hat"]), axis=1)))
    checks.require(dev <= STRAIN_TOL * scale,
                   f"strains deviate from the reference by {dev:.3g}")


def check_reflect(checks, cfg):
    """Converged, and one more sweep leaves the result a fixed point."""
    sol = _solution(checks)
    A = sym3.sym_from_list(cfg.strain)
    state = reflections.ReflectionState(
        cloud=sol.cloud, A_current=sol.A_hat, A_total=np.zeros_like(sol.A_hat),
        n=0, norm_history=[])
    image = reflections.reflect_step(state).A_current
    residual = float(np.linalg.norm(A + image - sol.A_hat))
    checks.require(residual <= STRAIN_TOL * _strain_scale(cfg),
                   f"fixed-point residual {residual:.3g} above tolerance")
    return sol, _strain_fingerprint(sol)


def check_oracle(checks, cfg):
    """Converged, and the reported dense-oracle deviation is small."""
    sol = _solution(checks)
    dev = _summary().get("oracle_max_deviation")
    checks.require(dev is not None and dev <= STRAIN_TOL * _strain_scale(cfg),
                   f"oracle deviation {dev!r} above tolerance")
    return sol, _strain_fingerprint(sol)


def _numbers(doc):
    if isinstance(doc, dict):
        for v in doc.values():
            yield from _numbers(v)
    elif isinstance(doc, list):
        for v in doc:
            yield from _numbers(v)
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        yield doc


def check_compare(checks, cfg):
    """Schema-valid, finite, one entry per phi for the whole cloud."""
    report = json.loads(Path("report.json").read_text())
    cli.validate_document(report, "compare.schema.json")
    checks.require(all(math.isfinite(v) for v in _numbers(report)),
                   "non-finite value in the report")
    entries = report["entries"]
    checks.require(len(entries) == len(cfg.sweep["phis"]),
                   f"{len(entries)} report entries")
    checks.require(all(e["n_particles"] == cfg.cloud["n"] for e in entries),
                   "report covers a different particle count")
    return report, report


def check_meanfield(checks, cfg):
    """Both solves converged; the first iterate matches direct quadrature."""
    doc = json.loads(Path("meanfield.json").read_text())
    checks.require(all(e["converged"] for e in doc["entries"]),
                   "a fixed-point solve did not converge")
    n = cfg.grid.n
    gbox = np.asarray(workloads.grid_box(json.loads(Path("config.json").read_text())))
    A = sym3.sym_from_list(cfg.strain)
    model = effective.uniform_Meff(np.asarray(cfg.cloud["box"]), cfg.sweep["phis"][0])
    first, _ = effective.fixed_point_vc(model, A, gbox, n, max_iter=1)
    idx = tuple(np.asarray(workloads.sample_cells(n)).T)
    direct = effective.tilde_vc(model.rasterize(gbox, n), A, first.cell_centers()[idx])
    dev = float(np.max(np.abs(first.values[idx] - direct)))
    scale = float(np.max(np.abs(first.values)))
    checks.require(dev <= FIRST_ITERATE_TOL * scale,
                   f"first FFT iterate deviates from tilde_vc by {dev:.3g} "
                   f"(max {scale:.3g})")
    return doc, doc


def _close(got, ref, rtol, scale=None):
    if isinstance(ref, dict):
        # extra keys in the output (new report fields) are allowed
        return (isinstance(got, dict) and ref.keys() <= got.keys()
                and all(_close(got[k], ref[k], rtol, scale) for k in ref))
    if isinstance(ref, list):
        return (isinstance(got, list) and len(got) == len(ref)
                and all(_close(g, r, rtol, scale) for g, r in zip(got, ref)))
    if isinstance(ref, float):
        return abs(got - ref) <= rtol * (abs(ref) if scale is None else scale)
    return got == ref


def compare_reference(checks, name, cfg, output, refs, seed):
    """Outputs against the seed commit's reference for this seed.

    The mean-field solves do not depend on the cloud, so their iteration
    counts and velocities are checked for every seed against any recorded one.
    """
    ref = refs.get(seed)
    if ref is None:
        checks.notes.append(f"no recorded reference for seed {seed}")
    if name in ("reflect_rsa", "oracle_dense") and ref is not None:
        _compare_strains(checks, output, ref, _strain_scale(cfg))
    elif name == "compare_rsa" and ref is not None:
        checks.require(_close(output, ref, REPORT_RTOL),
                       "report differs from the reference beyond rtol 1e-8")
    elif name == "meanfield_fft" and refs:
        any_ref = ref if ref is not None else next(iter(refs.values()))
        for got, want in zip(output["entries"], any_ref["entries"]):
            checks.require(got["iterations"] == want["iterations"],
                           f"{got['iterations']} fixed-point iterations, "
                           f"reference {want['iterations']}")
            scale = float(np.max(np.abs(want["vc_samples"])))
            checks.require(_close(got["vc_samples"], want["vc_samples"],
                                  REPORT_RTOL, scale),
                           "mean-field velocity differs from the reference")
            if ref is not None:
                checks.require(abs(got["hminus1"] - want["hminus1"])
                               <= REPORT_RTOL * abs(want["hminus1"]),
                               "H^-1 distance differs from the reference")


def reference_of(name, fingerprint):
    """The part of a checked output a reference keeps."""
    if name == "meanfield_fft":
        return {"entries": [{k: e[k] for k in ("phi", "hminus1", "iterations",
                                                "vc_samples")}
                            for e in fingerprint["entries"]]}
    return fingerprint


CHECKS = {"reflect_rsa": check_reflect, "oracle_dense": check_oracle,
          "compare_rsa": check_compare, "meanfield_fft": check_meanfield}


def main():
    name, seed, record = sys.argv[1], sys.argv[2], "--record" in sys.argv[3:]
    cfg = cli.load_config("config.json")
    checks = Checks()
    output, fingerprint = CHECKS[name](checks, cfg)
    ref_path = BENCH / "refs" / f"{name}.json"
    refs = json.loads(ref_path.read_text()) if ref_path.exists() else {}
    if record and not checks.failures:
        refs[seed] = reference_of(name, fingerprint)
        ref_path.parent.mkdir(exist_ok=True)
        ref_path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    compare_reference(checks, name, cfg, output, refs, seed)
    print(json.dumps({"ok": not checks.failures, "failures": checks.failures,
                      "notes": checks.notes}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One fresh process of a workload: set up, run the measured step, report.

Usage: python3 child.py WORKLOAD TRACED, run with the workload's directory
as the working directory (it holds `config.json`). Every process pays the
import cost, the cold FFT kernel build and its own peak memory, as every
CLI invocation does.

Writes `child.json` with two clock stamps (inputs ready, output written),
the peak resident set size and, when TRACED is 1, the recorded spans. The
stamps come from CLOCK_MONOTONIC, which is system-wide on Linux, so the
runner can subtract its own spawn stamp from them.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent


def peak_rss_kb():
    """High-water resident set size of this process (not of its parent)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def provenance():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def run_meanfield(spec, cfg):
    """Library calls: rasterize, then H^-1 and the FFT solve per phi."""
    import numpy as np
    from refstokes import cloud, effective, sym3

    c = cloud.load_cloud("cloud.json")
    n = cfg.grid.n
    gbox = np.asarray(workloads.grid_box(json.loads(Path("config.json").read_text())))
    A = sym3.sym_from_list(cfg.strain)
    effective.clear_kernel_cache()
    MN = effective.assemble_MN(c, gbox, n)
    idx = workloads.sample_cells(n)
    entries = []
    for phi in cfg.sweep["phis"]:
        model = effective.uniform_Meff(c.box, phi)
        hm1 = effective.hminus1_distance(MN, model.rasterize(gbox, n))
        vc, log = effective.fixed_point_vc(model, A, gbox, n,
                                           tol=spec["fixed_point_tol"])
        entries.append({
            "phi": phi, "hminus1": hm1, "iterations": log["iterations"],
            "converged": log["converged"], "increments": log["increments"],
            "vc_samples": [[float(v) for v in vc.values[i, j, k]] for i, j, k in idx],
        })
    with open("meanfield.json", "w") as fh:
        json.dump({"grid_n": n, "entries": entries}, fh, indent=1, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")
    return 0


def main():
    name, traced = sys.argv[1], sys.argv[2] == "1"
    spec = workloads.WORKLOADS[name]
    sys.path.insert(0, str(ROOT / "src"))
    import refstokes
    from refstokes import cli, cloud, effective, reflections

    if not Path(refstokes.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"refstokes imported from {refstokes.__file__}, "
                         f"not from {ROOT / 'src'}")
    tracer = spans.Tracer() if traced else None
    if tracer is not None:
        tracer.install({"cli": cli, "cloud": cloud, "effective": effective,
                        "reflections": reflections})

    def phase(label):
        return tracer.span(label) if tracer else contextlib.nullcontext()

    with phase("bench.setup"):
        cfg = cli.load_config("config.json")
        cs = cfg.cloud
        c = cloud.generate_rsa(cs["box"], cs["n"], cs["a"], cs["dmin"], cfg.seed)
        cloud.validate(c)
        cloud.save_cloud(c, "cloud.json")
    ready = time.monotonic()
    with phase("bench.work"):
        if spec["api"] == "cli":
            rc = cli.main(spec["argv"] + ["--config", "config.json"])
        else:
            rc = run_meanfield(spec, cfg)
    done = time.monotonic()
    peak = peak_rss_kb()
    doc = {"ready": ready, "done": done, "peak_rss_kb": peak, "rc": rc,
           "provenance": provenance()}
    if tracer is not None:
        doc["spans"] = tracer.spans
        doc["missing"] = tracer.missing
    Path("child.json").write_text(json.dumps(doc))
    return rc


if __name__ == "__main__":
    sys.exit(main())

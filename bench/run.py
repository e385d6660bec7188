"""refstokes benchmark: one workload, measured in fresh child processes.

Usage (from the repository root):

    python3 bench/run.py --workload reflect_rsa --seed 1 --seconds 25 --trace 0

The runner writes the workload's config for the seed into
`.bench_work/WORKLOAD/`, then starts children (`child.py`) one after another
until `--seconds` of measuring is used (at least MIN_CHILDREN). Each child
imports refstokes from `src/`, sets up its inputs and runs the measured step
through the public CLI or library. The outputs left by the last child are
checked by `check.py` once the measuring ends; every child must have written
byte-identical outputs.

With --trace 0 the last line holds the end-to-end metrics (medians over the
children); with --trace 1 untraced and traced children alternate and the last
line holds the per-layer metrics (medians over the traced children) and the
tracing overhead, under the names and units BENCHMARK.json declares. The
line before it holds the provenance and every child's raw figures. The runner itself never imports numpy, so its own memory stays
out of the children's peak RSS.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_CHILDREN = {False: 3, True: 2}   # per run, by tracing mode
RUN_LIMIT_S = 120       # start no child past this ...
CHILD_LIMIT_S = 140     # ... kill one still running then ...
CHECK_TIMEOUT_S = 30    # ... and the whole run still ends inside 180 s


def provenance(seed):
    sha = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        sha = out.stdout.strip() or None
    threads = {k: v for k, v in sorted(os.environ.items())
               if k.endswith("_NUM_THREADS") or k == "REFSTOKES_THREADS"}
    return {"git_sha": sha, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "thread_env": threads,
            "seed": seed}


def digest(workdir, names):
    out = {}
    for name in names:
        path = workdir / name
        out[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
    return out


def run_child(name, workdir, traced, timeout):
    """One child process and its figures; a failed one keeps its stderr."""
    (workdir / "child.json").unlink(missing_ok=True)
    spawn = time.monotonic()
    with open(workdir / "stdout.txt", "w") as out, open(workdir / "stderr.txt", "w") as err:
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), name, "1" if traced else "0"],
                cwd=workdir, stdout=out, stderr=err, timeout=timeout)
            rc = proc.returncode
        except subprocess.TimeoutExpired:
            rc = "timeout"
    end = time.monotonic()
    if rc == 0 and not (workdir / "child.json").exists():
        rc = "no child.json"
    record = {"traced": traced, "rc": rc, "elapsed": end - spawn,
              "outputs": digest(workdir, workloads.WORKLOADS[name]["outputs"])}
    if rc == 0:
        doc = json.loads((workdir / "child.json").read_text())
        record.update(setup_s=doc["ready"] - spawn, wall_s=doc["done"] - doc["ready"],
                      peak_rss_mb=doc["peak_rss_kb"] / 1024.0,
                      provenance=doc["provenance"])
        if traced:
            record["layers"] = spans.layer_metrics(doc["spans"])
            record["missing"] = doc["missing"]
            (workdir / "spans.json").write_text(json.dumps(doc["spans"]))
    else:
        record["stderr"] = (workdir / "stderr.txt").read_text()[-2000:]
    return record


def run_check(name, workdir, seed, record):
    argv = [sys.executable, str(BENCH / "check.py"), name, str(seed)]
    if record:
        argv.append("--record")
    try:
        proc = subprocess.run(argv, cwd=workdir, capture_output=True, text=True,
                              timeout=CHECK_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"ok": False, "failures": ["checker timed out"], "notes": []}
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"ok": False, "failures": ["checker crashed"],
                "notes": [proc.stderr[-2000:]]}


def measure(name, workdir, seconds, traced_too, least):
    """Children until `seconds` of measuring is used, at least `least` of
    each kind. With traced_too, untraced and traced children alternate.
    A failed child ends the measuring: the run is wrong either way."""
    kinds = [False, True] if traced_too else [False]
    children = []
    start = time.monotonic()
    while True:
        used = time.monotonic() - start
        estimate = statistics.median(c["elapsed"] for c in children) if children else 0.0
        enough = all(sum(c["traced"] == k for c in children) >= least for k in kinds)
        if children and (children[-1]["rc"] != 0 or used + estimate > RUN_LIMIT_S
                         or (enough and used + estimate > seconds)):
            return children
        traced = kinds[len(children) % len(kinds)]
        children.append(run_child(name, workdir, traced, CHILD_LIMIT_S - used))


def judge(children, check, checked):
    """Mark each child passed: it finished and wrote the checked outputs."""
    for c in children:
        c["passed"] = c["rc"] == 0 and check["ok"] and c["outputs"] == checked
    return sum(not c["passed"] for c in children)


def median(children, key):
    return statistics.median(c[key] for c in children)


def end_to_end(children):
    good = [c for c in children if c["passed"]]
    values = {"pass_frac": len(good) / len(children)}
    if good:
        values.update({key: median(good, key)
                       for key in ("wall_s", "setup_s", "peak_rss_mb")})
    return values


def per_layer(children, failures):
    traced = [c for c in children if c["passed"] and c["traced"]]
    plain = [c for c in children if c["passed"] and not c["traced"]]
    if not traced or not plain:
        return {}
    values = {}
    for key in traced[0]["layers"]:
        seen = [c["layers"][key] for c in traced]
        if key in spans.COUNTS and len(set(seen)) > 1:
            failures.append(f"count {key} differs between children: {seen}")
        values[key] = statistics.median(seen)
    values["trace.overhead_frac"] = median(traced, "wall_s") / median(plain, "wall_s") - 1.0
    return values


def declared_units(section):
    """Metric name -> unit, as BENCHMARK.json declares them for a section."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[section]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="(re)write this seed's reference outputs after checking")
    args = parser.parse_args()
    if not (ROOT / "src" / "refstokes" / "__init__.py").is_file():
        print(f"error: no refstokes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    config = workloads.config(args.workload, args.seed)
    (workdir / "config.json").write_text(json.dumps(config, indent=1) + "\n")

    least = 1 if args.record else MIN_CHILDREN[bool(args.trace)]
    children = measure(args.workload, workdir, args.seconds, bool(args.trace), least)
    first = next((c for c in children if c["rc"] == 0), None)
    checked = digest(workdir, workloads.WORKLOADS[args.workload]["outputs"])
    check = (run_check(args.workload, workdir, args.seed, args.record) if first
             else {"ok": False, "failures": ["no child finished"], "notes": []})
    failed = judge(children, check, checked)
    failures = list(check["failures"])
    values = per_layer(children, failures) if args.trace else end_to_end(children)
    units = declared_units("per_layer" if args.trace else "end_to_end")
    metrics = {key: {"value": v, "unit": units[key]} for key, v in values.items()}

    info = {"workload": args.workload, "provenance": provenance(args.seed),
            "program": first["provenance"] if first else None,
            "check": check, "count_failures": failures[len(check["failures"]):],
            "children": [{k: v for k, v in c.items() if k not in ("outputs", "provenance")}
                         for c in children]}
    (workdir / "result.json").write_text(json.dumps(info, indent=1) + "\n")
    print(json.dumps(info))
    correct = failed == 0 and not failures and metrics.keys() == units.keys()
    print(json.dumps({"correct": correct, "attempted": len(children),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

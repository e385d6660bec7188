"""Spans recorded from outside the program, and the layer metrics they give.

The traced child replaces module attributes of refstokes (the public ones
`cli.py` calls, plus `cli._dump_json`) with wrappers that record one span
per call: name, start, end, parent span and a few counts read from the
arguments and the result. Spans stay in memory and are written out when the
child ends.

Known gap: only calls that go through a module attribute (or, for
`ExclusionRegion.contains`, the class attribute) are seen. A call through a
name imported into another module, such as `_check_gate -> validate` inside
`reflections`, or `kernels`/`sym3`/`fields` helpers, is not seen; its time
counts as self time of the nearest wrapped caller.

This module imports nothing from numpy, so the runner can use `layer_metrics`
without loading it.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


def _sweep_counts(args, result):
    n = args[0].n
    return {"sweeps": int(result.iterations),
            "pairs": int(result.iterations) * n * (n - 1)}


def _velocity_counts(args, result):
    points = len(result)
    return {"points": points, "pairs": points * args[0].cloud.n}


def _contains_counts(args, result):
    return {"points": len(result), "inside": int(result.sum())}


def _fixed_point_counts(args, result):
    return {"iterations": int(result[1]["iterations"])}


# (owner, attribute, span name, counts read from (args, result))
TARGETS = [
    ("cli", "main", "cli.main", None),
    ("cli", "load_config", "cli.load_config", None),
    ("cli", "_dump_json", "cli.dump_json", None),
    ("cloud", "generate_rsa", "cloud.generate", None),
    ("cloud", "validate", "cloud.validate", None),
    ("cloud", "load_cloud", "cloud.load", None),
    ("cloud", "save_cloud", "cloud.save", None),
    ("reflections", "run_reflections", "reflections.run_reflections", _sweep_counts),
    ("reflections", "evaluate_velocity", "reflections.evaluate_velocity", _velocity_counts),
    ("reflections", "dense_fixed_point", "reflections.dense_fixed_point", None),
    ("effective", "assemble_MN", "effective.assemble_MN", None),
    ("effective", "hminus1_distance", "effective.hminus1_distance", None),
    ("effective", "fixed_point_vc", "effective.fixed_point_vc", _fixed_point_counts),
    ("effective", "lp_field_distance", "effective.lp_field_distance", None),
    ("effective", "exclusion_region_for_cloud", "effective.exclusion_region_for_cloud", None),
    ("effective.ExclusionRegion", "contains", "effective.ExclusionRegion.contains",
     _contains_counts),
]


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.missing = []

    @contextmanager
    def span(self, name):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None}
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.monotonic()
        try:
            yield record
        finally:
            record["end"] = time.monotonic()
            self._stack.pop()

    def wrap(self, owner, attr, name, counts=None):
        fn = getattr(owner, attr)

        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if counts is not None:
                record.update(counts(args, result))
            return result

        setattr(owner, attr, traced)

    def install(self, modules):
        """Wrap every target found in `modules` (name -> module object).

        A target the program no longer has is listed in `self.missing`
        instead of failing, so a renamed function shows up in the result.
        """
        for owner_path, attr, name, counts in TARGETS:
            head, *rest = owner_path.split(".")
            owner = modules[head]
            for part in rest:
                owner = getattr(owner, part, None)
            if owner is None or not callable(getattr(owner, attr, None)):
                self.missing.append(f"{owner_path}.{attr}")
                continue
            self.wrap(owner, attr, name, counts)


def _durations(spans):
    """Per span id: (duration, self time = duration minus direct children)."""
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
    return {s["id"]: (s["end"] - s["start"],
                      s["end"] - s["start"] - child.get(s["id"], 0.0))
            for s in spans}


def layer_metrics(spans):
    """Per-layer metrics of one traced child; 0 where a layer did not run."""
    times = _durations(spans)

    def total(name, key=None):
        out = 0
        for s in spans:
            if s["name"] == name:
                out += times[s["id"]][0] if key is None else s.get(key, 0)
        return out

    def self_time(name):
        return sum(times[s["id"]][1] for s in spans if s["name"] == name)

    fixed = sorted((s for s in spans if s["name"] == "effective.fixed_point_vc"),
                   key=lambda s: s["start"])
    fixed_s = [times[s["id"]][0] for s in fixed]
    solve_s = total("reflections.run_reflections")
    pairs = total("reflections.run_reflections", "pairs")
    velocity_s = total("reflections.evaluate_velocity")
    velocity_pairs = total("reflections.evaluate_velocity", "pairs")
    return {
        "reflections.solve_s": solve_s,
        "reflections.ns_per_pair": 1e9 * solve_s / pairs if pairs else 0.0,
        "reflections.sweeps": total("reflections.run_reflections", "sweeps"),
        "reflections.pair_evals": pairs,
        "reflections.dense_s": total("reflections.dense_fixed_point"),
        "reflections.velocity_s": velocity_s,
        "reflections.velocity_pairs": velocity_pairs,
        "reflections.velocity_ns_per_pair":
            1e9 * velocity_s / velocity_pairs if velocity_pairs else 0.0,
        "effective.exclusion_s": total("effective.ExclusionRegion.contains"),
        "effective.lp_self_s": self_time("effective.lp_field_distance"),
        "effective.lp_points": total("effective.ExclusionRegion.contains", "inside"),
        "effective.hminus1_s": total("effective.hminus1_distance"),
        "effective.fixed_point_cold_s": fixed_s[0] if fixed_s else 0.0,
        "effective.fixed_point_s": sum(fixed_s[1:]),
        "effective.fixed_point_iters": total("effective.fixed_point_vc", "iterations"),
        "effective.assemble_s": total("effective.assemble_MN"),
        "cloud.generate_s": total("cloud.generate"),
        "cloud.validate_s": total("cloud.validate"),
        "cloud.io_s": total("cloud.load") + total("cloud.save"),
        "cli.config_s": total("cli.load_config"),
        "cli.output_s": total("cli.dump_json"),
        "cli.verb_self_s": self_time("cli.main"),
    }


# Metrics that count work; they must repeat exactly between children.
COUNTS = ["reflections.sweeps", "reflections.pair_evals",
          "reflections.velocity_pairs", "effective.lp_points",
          "effective.fixed_point_iters"]

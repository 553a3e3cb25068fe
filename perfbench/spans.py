"""Span recording around the public functions of each csflow module.

A :class:`Tracer` replaces selected public functions with thin timing
wrappers while it is installed. The replacement is made in every
``csflow`` module that holds the function under any name, so a call made
through ``from .geometry import is_embedded`` in ``dynamics`` is timed the
same as a call inside ``geometry``. Nothing in the package changes on disk;
:meth:`Tracer.uninstall` puts the original functions back.

Each span records its name, start, end, parent span and repetition id, plus
a few counts taken from the call's arguments or result. Spans stay in
memory and are written out once, by the caller, when the run ends.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np


def _pair_attrs(args, kwargs, result):
    arrays = result
    return {"pairs": int(arrays[2].size), "bytes": int(sum(a.nbytes for a in arrays))}


def _root_attrs(args, kwargs, result):
    a = np.asarray(result)
    return {"pairs": int(a.size), "root_pairs": int(np.count_nonzero(a))}


def _dir_attrs(args, kwargs, result):
    files = 0
    size = 0
    for dirpath, _, names in os.walk(result):
        for name in names:
            files += 1
            size += os.path.getsize(os.path.join(dirpath, name))
    return {"files": files, "bytes": size}


def _csv_attrs(args, kwargs, result):
    return {"bytes": Path(result[1]).stat().st_size}


# (module, public name, span name, counts taken from the call)
TARGETS = (
    ("csflow.geometry", "is_embedded", "geometry.is_embedded", None),
    ("csflow.geometry", "resample_uniform", "geometry.resample_uniform", None),
    ("csflow.geometry", "build_frame", "geometry.build_frame", None),
    ("csflow.geometry", "all_pairs_chord_arc", "geometry.all_pairs_chord_arc", _pair_attrs),
    ("csflow.dynamics", "step_normalized", "dynamics.step", None),
    ("csflow.dynamics", "step_unnormalized", "dynamics.step", None),
    ("csflow.dynamics", "run", "dynamics.run", None),
    ("csflow.comparison", "profile", "comparison.profile", None),
    ("csflow.comparison", "a_solve", "comparison.a_solve", _root_attrs),
    ("csflow.diagnostics", "snapshot_profiles", "diagnostics.snapshot_profiles", None),
    ("csflow.diagnostics", "check_distance_comparison", "diagnostics.checks", None),
    ("csflow.diagnostics", "check_abar_decay", "diagnostics.checks", None),
    ("csflow.diagnostics", "check_curvature_bound", "diagnostics.checks", None),
    ("csflow.diagnostics", "convergence_metrics", "diagnostics.checks", None),
    ("csflow.harness", "materialize_curve", "harness.materialize_curve", None),
    ("csflow.harness", "execute", "harness.execute", None),
    ("csflow.harness", "persist_run", "harness.persist_run", _dir_attrs),
    ("csflow.harness", "profile_curve", "harness.profile_curve", _csv_attrs),
    ("csflow.cli", "main", "cli.main", None),
)

# per-layer metric name -> unit; every traced run reports all of them
LAYER_UNITS = {
    "geometry.is_embedded.calls": "count",
    "geometry.is_embedded.self_s": "s",
    "geometry.is_embedded.calls_in_resample": "count",
    "geometry.resample_uniform.calls": "count",
    "geometry.resample_uniform.self_s": "s",
    "geometry.build_frame.calls": "count",
    "geometry.build_frame.self_s": "s",
    "geometry.all_pairs_chord_arc.pairs": "count",
    "geometry.all_pairs_chord_arc.self_s": "s",
    "geometry.pair_bytes_computed": "B",
    "dynamics.step.calls": "count",
    "dynamics.step.self_s": "s",
    "dynamics.run.self_s": "s",
    "comparison.profile.calls": "count",
    "comparison.profile.self_s": "s",
    "comparison.profile.ms_p50": "ms",
    "comparison.profile.ms_p90": "ms",
    "comparison.a_solve.pairs": "count",
    "comparison.a_solve.root_pairs": "count",
    "comparison.a_solve.self_s": "s",
    "comparison.a_solve.root_ratio": "ratio",
    "diagnostics.snapshot_profiles.self_s": "s",
    "diagnostics.checks.self_s": "s",
    "harness.materialize_curve.self_s": "s",
    "harness.persist_run.self_s": "s",
    "harness.persist_run.bytes": "B",
    "harness.persist_run.files": "count",
    "harness.profile_curve.self_s": "s",
    "harness.profile_curve.bytes": "B",
    "cli.main.self_s": "s",
    "trace.spans": "count",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        # each span: [id, name, start, end, parent id or None, rep, counts]
        self.spans: list[list] = []
        self.rep: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, func, name, attrs):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [sid, name, 0.0, 0.0, parent, self.rep, None]
            self.spans.append(span)
            self._stack.append(sid)
            span[2] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span[6] = attrs(args, kwargs, result)
            return result

        return wrapper

    def install(self, rep: int) -> None:
        """Wrap every target in every csflow module that refers to it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        self.rep = rep
        modules = [
            m for k, m in list(sys.modules.items())
            if m is not None and (k == "csflow" or k.startswith("csflow."))
        ]
        for mod_name, attr, name, attrs in TARGETS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(original, name, attrs)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()
        self.rep = None

    def to_json(self) -> list[dict]:
        return [
            {"id": s[0], "name": s[1], "start": s[2], "end": s[3],
             "parent": s[4], "rep": s[5], "counts": s[6]}
            for s in self.spans
        ]

    def layer_metrics(self, rep: int) -> dict[str, float]:
        """Counts and self times of one traced repetition.

        A span's self time is its duration minus the durations of its
        direct children; spans nest strictly, so children never overlap.
        """
        spans = [s for s in self.spans if s[5] == rep]
        child_time: dict[int, float] = {}
        for s in spans:
            if s[4] is not None:
                child_time[s[4]] = child_time.get(s[4], 0.0) + (s[3] - s[2])
        names = {s[0]: s[1] for s in spans}
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        counts: dict[str, float] = {}
        durations: dict[str, list[float]] = {}
        for s in spans:
            name = s[1]
            dur = s[3] - s[2]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur - child_time.get(s[0], 0.0)
            durations.setdefault(name, []).append(dur)
            for key, value in (s[6] or {}).items():
                counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
        in_resample = sum(
            1 for s in spans
            if s[1] == "geometry.is_embedded"
            and names.get(s[4]) == "geometry.resample_uniform"
        )
        profile_ms = [1e3 * d for d in durations.get("comparison.profile", [])]

        out = {}
        for metric in LAYER_UNITS:
            base, _, field = metric.rpartition(".")
            if field == "calls":
                out[metric] = calls.get(base, 0)
            elif field == "self_s":
                out[metric] = self_s.get(base, 0.0)
            else:
                out[metric] = counts.get(metric, 0)
        pairs = out["comparison.a_solve.pairs"]
        out.update({
            "geometry.is_embedded.calls_in_resample": in_resample,
            "geometry.pair_bytes_computed": counts.get("geometry.all_pairs_chord_arc.bytes", 0),
            "comparison.profile.ms_p50": _percentile(profile_ms, 50),
            "comparison.profile.ms_p90": _percentile(profile_ms, 90),
            "comparison.a_solve.root_ratio": (
                out["comparison.a_solve.root_pairs"] / pairs if pairs else 0.0
            ),
            "trace.spans": len(spans),
        })
        return out


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 when the layer made no calls."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


def median_metrics(per_rep: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over traced repetitions."""
    return {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}

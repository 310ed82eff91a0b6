"""In-memory span tracing of textwifi_slam, installed from outside the package.

`install` replaces the public functions of each package module with thin
wrappers that record a span (name, start, end, parent, stage) and, where the
work is countable, a count at that boundary. Every module attribute bound to
the original function is replaced, so calls through `from .x import f`
bindings are seen too. Nothing under src/ is edited; `uninstall` restores
the originals.

Spans are named after the module that owns the function ("icp.icp_register"),
and the module is the layer. A span's self time is its duration minus the
time its child spans cover. Geometry helpers and private functions are not
wrapped: their time is self time of the caller.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Optional

PACKAGE = "textwifi_slam"

# The stage a span belongs to is inherited from its parent unless the span
# itself opens a stage: a stage_* function, or cli.main whose first argument
# names the command.
STAGE_FUNCTIONS = {
    "pipeline.stage_generate": "generate",
    "pipeline.stage_simulate": "simulate",
    "pipeline.stage_match": "match",
    "pipeline.stage_align": "align",
    "pipeline.stage_evaluate": "evaluate",
}
STAGES = ("generate", "simulate", "match", "align", "evaluate")
# Orchestration layers: their self time is reported per stage.
ORCHESTRATION = ("pipeline", "cli", "config", "scenarios")
ROOT = "bench.iteration"


class Tracer:
    """Spans and counts of one traced run of the program, kept in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # (name id, start ns, end ns, parent index or -1, stage or None)
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)
        self.active = False

    def begin(self, name: str, stage: Optional[str] = None) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        parent = self._stack[-1] if self._stack else -1
        if stage is None and parent >= 0:
            stage = self.spans[parent][4]
        index = len(self.spans)
        self.spans.append([nid, time.perf_counter_ns(), 0, parent, stage])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError("spans closed out of order")

    def self_times(self) -> list[float]:
        """Self time in seconds of every span, in span order."""
        child = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(s[2] - s[1] - c) / 1e9 for s, c in zip(self.spans, child)]

    def summary(self) -> dict:
        """Self time per span name, per layer and per (orchestration) stage."""
        by_name: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        stage_self: dict[str, float] = defaultdict(float)
        for span, self_s in zip(self.spans, self.self_times()):
            name = self.names[span[0]]
            by_name[name] += self_s
            calls[name] += 1
            if name.split(".", 1)[0] in ORCHESTRATION:
                stage_self[span[4] or "none"] += self_s
        by_layer: dict[str, float] = defaultdict(float)
        for name, self_s in by_name.items():
            by_layer[name.split(".", 1)[0]] += self_s
        return {
            "self_s_by_name": dict(by_name),
            "calls_by_name": dict(calls),
            "self_s_by_layer": dict(by_layer),
            "orchestration_self_s_by_stage": dict(stage_self),
            "counts": dict(self.counts),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
        }

    def spans_table(self) -> dict:
        """Spans as columns, for writing out once the benchmark ends."""
        return {
            "names": self.names,
            "columns": ["name", "start_ns", "end_ns", "parent", "stage"],
            "rows": self.spans,
        }


# ------------------------------------------------------------------ counters
# Each counter runs after its span has closed: (tracer, args, kwargs, result).


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_text_similarity(tr: Tracer, args, kwargs, result) -> None:
    a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
    if not kwargs.get("case_sensitive", False):
        a, b = a.upper(), b.upper()
    tr.counts["text_matching.calls"] += 1
    tr.distinct["text_matching.pairs"].add((a, b))
    # Computed, not measured: edit_distance fills len(a) * len(b) cells
    # unless the strings are equal or one is empty.
    if a != b and a and b:
        tr.counts["text_matching.dp_cells"] += len(a) * len(b)


def _count_wifi_match(tr: Tracer, args, kwargs, result) -> None:
    tr.counts["wifi.calls"] += 1


def _count_raycast(tr: Tracer, args, kwargs, result) -> None:
    angles = _arg(args, kwargs, 1, "angles_rad")
    walls = _arg(args, kwargs, 2, "walls")
    tr.counts["world.ray_wall_tests"] += len(angles) * len(walls)


def _count_crossings(tr: Tracer, args, kwargs, result) -> None:
    tr.counts["world.crossing_tests"] += len(_arg(args, kwargs, 2, "walls"))


def _count_recording(tr: Tracer, args, kwargs, result) -> None:
    tr.counts["simulate.scans"] += len(result.scans)
    tr.counts["simulate.wifi_sweeps"] += len(result.wifi)


def _count_keyframes(tr: Tracer, args, kwargs, result) -> None:
    tr.counts["place_recognition.keyframes"] += len(result)


def _count_match_all(tr: Tracer, args, kwargs, result) -> None:
    tr.counts["place_recognition.candidates"] += len(result)
    tr.counts["place_recognition.accepted"] += sum(
        1 for c in result if c.verdict.value == "accepted"
    )


def _count_icp_register(tr: Tracer, args, kwargs, result) -> None:
    tr.counts["icp.register_calls"] += 1
    tr.counts["icp.iterations"] += result.iterations
    tr.distinct["icp.targets"].add(id(_arg(args, kwargs, 1, "target")))


def _count_multistart(tr: Tracer, args, kwargs, result) -> None:
    tr.counts["icp.sweeps"] += 1


def _count_pair(tr: Tracer, args, kwargs, result) -> None:
    tr.counts["icp.pairs"] += 1
    tr.counts["icp.converged"] += bool(result.converged)


def _count_graph(tr: Tracer, args, kwargs, result) -> None:
    tr.counts["pose_graph.nodes"] += len(result.nodes)
    tr.counts["pose_graph.loop_edges"] += len(result.loop_edges)


def _count_optimize(tr: Tracer, args, kwargs, result) -> None:
    if isinstance(result, tuple):
        stats = result[1]
        tr.counts["pose_graph.gn_steps"] += sum(
            max(len(h) - 1, 0) for h in stats.objective_histories
        )


def _count_merge(tr: Tracer, args, kwargs, result) -> None:
    tr.counts["pose_graph.merged_points"] += len(result)


def _count_written(tr: Tracer, args, kwargs, result) -> None:
    tr.counts["io_formats.bytes_written"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_read(tr: Tracer, args, kwargs, result) -> None:
    tr.counts["io_formats.bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


# module -> function -> counter (or None)
TRACED: dict[str, dict[str, Optional[Callable]]] = {
    "pipeline": {
        "run_all": None,
        "stage_generate": None,
        "stage_simulate": None,
        "stage_match": None,
        "stage_align": None,
        "stage_evaluate": None,
        "extract_all_keyframes": None,
        "write_artifacts": None,
    },
    "cli": {"main": None},
    "config": {"build_config": None, "config_for_scenario": None},
    "scenarios": {"scripted_scenario": None},
    "world": {
        "generate_floorplan": None,
        "raycast": _count_raycast,
        "count_wall_crossings": _count_crossings,
    },
    "simulate": {"simulate_recording": _count_recording, "integrate_odometry": None},
    "text_matching": {"text_similarity": _count_text_similarity, "corrupt_text": None},
    "wifi": {
        "build_fingerprint": None,
        "is_wifi_match": _count_wifi_match,
        "predicted_rss": None,
    },
    "place_recognition": {
        "extract_keyframes": _count_keyframes,
        "generate_candidates": None,
        "decide_match": None,
        "match_all": _count_match_all,
        "verified_locations": None,
    },
    "icp": {
        "icp_register": _count_icp_register,
        "icp_register_multistart": _count_multistart,
    },
    "pose_graph": {
        "register_keyframe_pair": _count_pair,
        "build_pose_graph": _count_graph,
        "optimize_pose_graph": _count_optimize,
        "merge_maps": _count_merge,
    },
    "evaluation": {
        "score_candidates": None,
        "threshold_sweep": None,
        "end_point_error": None,
        "travel_distance_m": None,
    },
    "io_formats": {
        "save_json": _count_written,
        "save_recording": _count_written,
        "save_recordings": None,
        "save_floorplan": None,
        "save_match_report": None,
        "save_trajectories": None,
        "save_merged_map": None,
        "load_json": _count_read,
        "load_recording": _count_read,
        "load_recordings": None,
        "load_floorplan": None,
        "load_match_report": None,
        "load_trajectories": None,
        "load_merged_map": None,
    },
}


def _wrap(tracer: Tracer, name: str, fn: Callable, counter: Optional[Callable]) -> Callable:
    stage = STAGE_FUNCTIONS.get(name)
    is_cli = name == "cli.main"

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        span_stage = stage
        if is_cli:
            argv = args[0] if args else kwargs.get("argv")
            span_stage = argv[0] if argv else None
        index = tracer.begin(name, span_stage)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if counter is not None:
            counter(tracer, args, kwargs, result)
        return result

    return traced


class Installation:
    """The wrappers put in place by `install`, so they can be taken out."""

    def __init__(self) -> None:
        self.replaced: list[tuple[object, str, Callable]] = []

    def uninstall(self) -> None:
        for module, attr, original in reversed(self.replaced):
            setattr(module, attr, original)
        self.replaced.clear()


def install(tracer: Tracer) -> Installation:
    modules = [importlib.import_module(f"{PACKAGE}.{m}") for m in TRACED]
    package_modules = [
        m for n, m in list(sys.modules.items())
        if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
    ]
    done = Installation()
    for module in modules:
        short = module.__name__.rsplit(".", 1)[1]
        for func_name, counter in TRACED[short].items():
            original = getattr(module, func_name)
            wrapper = _wrap(tracer, f"{short}.{func_name}", original, counter)
            for holder in package_modules:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attr, wrapper)
                        done.replaced.append((holder, attr, original))
    return done


def layer_metrics(summary: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced run, by name: (value, unit).

    A `_s` metric of a function or layer is self time. Ratios carry their
    base in the docs (perfbench/README.md); the base is itself a metric.
    """
    by_name = summary["self_s_by_name"]
    by_layer = summary["self_s_by_layer"]
    counts = summary["counts"]
    distinct = summary["distinct"]
    stage_self = summary["orchestration_self_s_by_stage"]

    def self_of(*names: str) -> float:
        return sum(by_name.get(n, 0.0) for n in names)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    c = counts.get
    out: dict[str, tuple[float, str]] = {
        "icp.busy_s": (by_layer.get("icp", 0.0), "s"),
        "icp.pairs": (c("icp.pairs", 0), "count"),
        "icp.register_calls": (c("icp.register_calls", 0), "count"),
        "icp.iterations": (c("icp.iterations", 0), "count"),
        "icp.sweep_ratio": (ratio(c("icp.sweeps", 0), c("icp.pairs", 0)), "ratio"),
        "icp.converged_ratio": (ratio(c("icp.converged", 0), c("icp.pairs", 0)), "ratio"),
        "icp.distinct_target_ratio": (
            ratio(distinct.get("icp.targets", 0), c("icp.register_calls", 0)), "ratio"
        ),
        "pose_graph.build_s": (self_of("pose_graph.build_pose_graph"), "s"),
        "pose_graph.optimize_s": (self_of("pose_graph.optimize_pose_graph"), "s"),
        "pose_graph.gn_iterations": (c("pose_graph.gn_steps", 0), "count"),
        "pose_graph.nodes": (c("pose_graph.nodes", 0), "count"),
        "pose_graph.loop_edges": (c("pose_graph.loop_edges", 0), "count"),
        "pose_graph.merge_s": (self_of("pose_graph.merge_maps"), "s"),
        "pose_graph.merged_points": (c("pose_graph.merged_points", 0), "count"),
        "text_matching.busy_s": (by_layer.get("text_matching", 0.0), "s"),
        "text_matching.calls": (c("text_matching.calls", 0), "count"),
        "text_matching.distinct_ratio": (
            ratio(distinct.get("text_matching.pairs", 0), c("text_matching.calls", 0)),
            "ratio",
        ),
        "text_matching.dp_cells": (c("text_matching.dp_cells", 0), "count"),
        "wifi.busy_s": (by_layer.get("wifi", 0.0), "s"),
        "wifi.calls": (c("wifi.calls", 0), "count"),
        "place_recognition.extract_s": (self_of("place_recognition.extract_keyframes"), "s"),
        "place_recognition.keyframes": (c("place_recognition.keyframes", 0), "count"),
        "place_recognition.candidates": (c("place_recognition.candidates", 0), "count"),
        "place_recognition.match_s": (
            self_of(
                "place_recognition.match_all",
                "place_recognition.generate_candidates",
                "place_recognition.decide_match",
                "place_recognition.verified_locations",
            ),
            "s",
        ),
        "place_recognition.accept_ratio": (
            ratio(c("place_recognition.accepted", 0), c("place_recognition.candidates", 0)),
            "ratio",
        ),
        "simulate.busy_s": (by_layer.get("simulate", 0.0), "s"),
        "simulate.scans": (c("simulate.scans", 0), "count"),
        "simulate.wifi_sweeps": (c("simulate.wifi_sweeps", 0), "count"),
        "world.raycast_s": (self_of("world.raycast"), "s"),
        "world.ray_wall_tests": (c("world.ray_wall_tests", 0), "count"),
        "world.crossing_s": (self_of("world.count_wall_crossings"), "s"),
        "world.crossing_tests": (c("world.crossing_tests", 0), "count"),
        "io_formats.write_s": (
            sum(v for k, v in by_name.items() if k.startswith("io_formats.save_")), "s"
        ),
        "io_formats.read_s": (
            sum(v for k, v in by_name.items() if k.startswith("io_formats.load_")), "s"
        ),
        "io_formats.bytes_written": (c("io_formats.bytes_written", 0), "bytes"),
        "io_formats.bytes_read": (c("io_formats.bytes_read", 0), "bytes"),
        "evaluation.busy_s": (by_layer.get("evaluation", 0.0), "s"),
    }
    for stage in STAGES:
        out[f"pipeline.{stage}_s"] = (stage_self.get(stage, 0.0), "s")
    # Self time of every span of the program, i.e. the traced run minus the
    # benchmark's own code around the calls into it.
    out["trace.accounted_s"] = (
        sum(v for k, v in by_name.items() if k != ROOT), "s"
    )
    return out

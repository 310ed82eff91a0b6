"""End-to-end stages: generate, simulate, match, align, evaluate.

Each stage_* function is a plain computation over in-memory objects. This
module also owns the artifact directory: file names, one writer per stage,
and readers for what align and evaluate take back. run_all chains every
stage and may write all artifacts; run_generate ... run_evaluate (the CLI
commands) each run one stage against a directory through the same writers,
and the generate writer removes the later stages' files first, so one
directory never mixes two runs. Every stage is deterministic given the run
config. Align registers its accepted matches one visit pair at a time (the
first pair in full, the rest warm-started from it) in forked worker
processes, one per usable CPU, and joins them before it returns; results
do not depend on the worker count. Evaluate scores the matches and the map
against the simulator's truth. Simulate, match and the artifact readers and
writers run with the cyclic garbage collector paused; align never does.
"""

from __future__ import annotations

import gc
import logging
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Mapping, Optional

from . import io_formats
from .config import RunConfig
from .evaluation import (
    absolute_trajectory_error,
    end_point_error,
    keyframe_truth,
    score_candidates,
    threshold_sweep,
    travel_distance_m,
)
from .geometry import PointCloud2, Pose2
from .place_recognition import (
    MIN_LOOP_SEPARATION_S,
    Keyframe,
    MatchCandidate,
    NodeKey,
    Verdict,
    extract_keyframes,
    group_visits,
    match_all,
    verified_locations,
)
from .pose_graph import (
    PoseGraph,
    build_pose_graph,
    merge_maps,
    optimize_pose_graph,
    register_keyframe_pairs,
)
from .scenarios import scripted_scenario
from .simulate import AgentScript, Recording, simulate_recording
from .wifi import SIGMA_SCALE_DB
from .world import FloorPlan

log = logging.getLogger(__name__)

# The artifact files besides the recordings, whose names io_formats owns.
CONFIG_FILE = "config.json"
FLOORPLAN_FILE = "floorplan.json"
MATCH_REPORT_FILE = "match_report.json"
TRAJECTORIES_FILE = "trajectories.json"
MERGED_MAP_FILE = "merged_map.json"
METRICS_FILE = "metrics.json"
# Written by the stages after generate; generate removes any it finds, so a
# directory never pairs a new world with an old run's recordings or results.
LATER_STAGE_FILES = (MATCH_REPORT_FILE, TRAJECTORIES_FILE, MERGED_MAP_FILE, METRICS_FILE)


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector, then restore its previous state.

    Simulation, matching and the artifact readers and writers build many
    small objects and no reference cycles, so a collection during them
    finds nothing to free. Never pause it around the align stage, whose
    worker processes fork from this one.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@dataclass
class PipelineResult:
    config: RunConfig
    plan: Optional[FloorPlan] = None
    recordings: dict[str, Recording] = field(default_factory=dict)
    keyframes: list[Keyframe] = field(default_factory=list)
    candidates: list[MatchCandidate] = field(default_factory=list)
    verified: list[list[NodeKey]] = field(default_factory=list)
    graph: Optional[PoseGraph] = None
    initial: dict[NodeKey, Pose2] = field(default_factory=dict)
    optimized: dict[NodeKey, Pose2] = field(default_factory=dict)
    graph_summary: dict = field(default_factory=dict)
    merged: Optional[PointCloud2] = None
    metrics: dict = field(default_factory=dict)

    @property
    def keyframes_by_key(self) -> dict[NodeKey, Keyframe]:
        return {kf.key: kf for kf in self.keyframes}


def stage_generate(cfg: RunConfig) -> tuple[FloorPlan, list[AgentScript]]:
    plan, scripts = scripted_scenario(
        cfg.scenario,
        cfg.seed,
        duplicate_text_count=cfg.duplicate_text_count,
        zero_noise=cfg.zero_noise,
    )
    return plan, list(scripts)


@_gc_paused()
def stage_simulate(plan: FloorPlan, scripts: list[AgentScript]) -> dict[str, Recording]:
    return {script.agent_id: simulate_recording(plan, script) for script in scripts}


def extract_all_keyframes(recordings: Mapping[str, Recording]) -> list[Keyframe]:
    keyframes: list[Keyframe] = []
    for agent_id in sorted(recordings):
        keyframes.extend(extract_keyframes(recordings[agent_id]))
    return keyframes


@_gc_paused()
def stage_match(
    recordings: Mapping[str, Recording], cfg: RunConfig
) -> tuple[list[Keyframe], list[MatchCandidate], list[list[NodeKey]]]:
    """Keyframe extraction plus the gate cascade over all candidate pairs.

    Every candidate carries the scores of every gate, so the evaluation
    stage can re-threshold it.
    """
    keyframes = extract_all_keyframes(recordings)
    candidates = match_all(keyframes, cfg.thresholds())
    return keyframes, candidates, verified_locations(candidates)


def stage_align(result: PipelineResult) -> None:
    """Register accepted matches, optimize the pose graph, merge the map.

    Accepted pairs are registered by visit pair (group_visits): the first
    pair of each in full, its siblings warm-started from that fit. The
    registrations run on every usable CPU; register_keyframe_pairs returns
    their fits and total work once its worker processes have exited. Fills
    graph, initial, optimized, graph_summary (with the registration work
    counts) and merged.
    """
    by_key = result.keyframes_by_key
    accepted = [c for c in result.candidates if c.verdict is Verdict.ACCEPTED]
    fits, work = register_keyframe_pairs(
        [(by_key[cand.a], by_key[cand.b]) for cand in accepted],
        group_visits(result.keyframes, result.config.alpha),
    )
    graph = build_pose_graph(result.keyframes, list(zip(accepted, fits)))
    if not graph.loop_edges:
        log.warning("no usable loop closures; agents stay in their own odometry frames")
    result.graph, result.initial = graph, dict(graph.nodes)
    result.optimized, stats = optimize_pose_graph(graph, return_stats=True)
    # The graph diagnostics that survive a round-trip through files.
    result.graph_summary = {
        "loop_edge_count": len(graph.loop_edges),
        "dropped_loop_count": graph.dropped_loop_count,
        "objective_initial": stats.initial_objective,
        "objective_final": stats.final_objective,
        "registration": asdict(work),
    }
    result.merged = merge_maps(result.optimized, result.keyframes)


def stage_evaluate(result: PipelineResult) -> dict:
    cfg = result.config
    by_key = result.keyframes_by_key
    metrics: dict = {
        "scene": cfg.scenario,
        "seed": cfg.seed,
        "thresholds": {"alpha": cfg.alpha, "beta": cfg.beta, "gamma": cfg.gamma},
        **score_candidates(result.candidates, by_key, cfg.thresholds()),
    }
    if cfg.sweep:
        metrics["sweep"] = threshold_sweep(result.candidates, by_key)

    trajectory: dict = {
        "travel_distance_m": travel_distance_m(result.recordings),
        "keyframe_count": len(result.keyframes),
        "loop_edge_count": 0,
        "dropped_loop_count": 0,
        **result.graph_summary,
    }

    if result.optimized:
        truth = keyframe_truth(result.keyframes, result.recordings)
        try:
            ate_initial, ate_optimized = (
                absolute_trajectory_error(truth, poses)
                for poses in (result.initial, result.optimized)
            )
        except ValueError as exc:
            log.warning("absolute trajectory error unavailable: %s", exc)
        else:
            trajectory.update({"ate_initial_m": ate_initial, "ate_optimized_m": ate_optimized})
        try:
            trajectory.update(
                end_point_error(
                    dict(result.plan.named_anchors), truth, result.initial, result.optimized
                )
            )
        except ValueError as exc:
            log.warning("end-point error unavailable: %s", exc)
    metrics["trajectory"] = trajectory
    return metrics


def run_all(cfg: RunConfig, *, out_dir: Optional[Path] = None) -> PipelineResult:
    """Run every stage; write the artifact set when out_dir is given."""
    plan, scripts = stage_generate(cfg)
    result = PipelineResult(config=cfg, plan=plan, recordings=stage_simulate(plan, scripts))
    result.keyframes, result.candidates, result.verified = stage_match(result.recordings, cfg)
    stage_align(result)
    result.metrics = stage_evaluate(result)
    if out_dir is not None:
        write_artifacts(result, out_dir)
    return result


@_gc_paused()
def _write_generate(result: PipelineResult, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for stale in [*io_formats.recording_files(out_dir), *(out_dir / n for n in LATER_STAGE_FILES)]:
        stale.unlink(missing_ok=True)
    io_formats.save_json(out_dir / CONFIG_FILE, result.config.to_dict())
    io_formats.save_floorplan(out_dir / FLOORPLAN_FILE, result.plan)


@_gc_paused()
def _write_simulate(result: PipelineResult, out_dir: Path) -> None:
    io_formats.save_recordings(out_dir, result.recordings)


@_gc_paused()
def _write_match(result: PipelineResult, out_dir: Path) -> None:
    cfg = result.config
    settings = {
        "alpha": cfg.alpha,
        "beta": cfg.beta,
        "gamma": cfg.gamma,
        "min_loop_separation_s": MIN_LOOP_SEPARATION_S,
        "sigma_scale_db": SIGMA_SCALE_DB,
    }
    io_formats.save_match_report(
        out_dir / MATCH_REPORT_FILE, result.candidates, result.verified, settings
    )


@_gc_paused()
def _write_align(result: PipelineResult, out_dir: Path) -> None:
    io_formats.save_trajectories(
        out_dir / TRAJECTORIES_FILE, result.initial, result.optimized, result.graph_summary
    )
    io_formats.save_merged_map(out_dir / MERGED_MAP_FILE, result.merged)


@_gc_paused()
def _write_evaluate(result: PipelineResult, out_dir: Path) -> None:
    io_formats.save_json(out_dir / METRICS_FILE, result.metrics)


def write_artifacts(result: PipelineResult, out_dir: Path) -> None:
    """Write every stage's artifacts, in stage order."""
    out_dir = Path(out_dir)
    _write_generate(result, out_dir)
    _write_simulate(result, out_dir)
    _write_match(result, out_dir)
    _write_align(result, out_dir)
    _write_evaluate(result, out_dir)


@_gc_paused()
def _read_recordings(cfg: RunConfig, out_dir: Path) -> PipelineResult:
    return PipelineResult(config=cfg, recordings=io_formats.load_recordings(out_dir))


@_gc_paused()
def _read_align_inputs(cfg: RunConfig, out_dir: Path) -> PipelineResult:
    result = _read_recordings(cfg, out_dir)
    result.candidates = io_formats.load_match_report(out_dir / MATCH_REPORT_FILE)
    result.keyframes = extract_all_keyframes(result.recordings)
    return result


@_gc_paused()
def _read_evaluate_inputs(cfg: RunConfig, out_dir: Path) -> PipelineResult:
    result = _read_align_inputs(cfg, out_dir)
    result.plan = io_formats.load_floorplan(out_dir / FLOORPLAN_FILE)
    result.initial, result.optimized, result.graph_summary = io_formats.load_trajectories(
        out_dir / TRAJECTORIES_FILE
    )
    return result


def run_generate(cfg: RunConfig, out_dir: Path) -> PipelineResult:
    result = PipelineResult(config=cfg, plan=stage_generate(cfg)[0])
    _write_generate(result, out_dir)
    return result


def run_simulate(cfg: RunConfig, out_dir: Path) -> PipelineResult:
    """Regenerates and rewrites the world too: simulate may run without generate."""
    plan, scripts = stage_generate(cfg)
    result = PipelineResult(config=cfg, plan=plan, recordings=stage_simulate(plan, scripts))
    _write_generate(result, out_dir)
    _write_simulate(result, out_dir)
    return result


def run_match(cfg: RunConfig, out_dir: Path) -> PipelineResult:
    result = _read_recordings(cfg, out_dir)
    result.keyframes, result.candidates, result.verified = stage_match(result.recordings, cfg)
    _write_match(result, out_dir)
    return result


def run_align(cfg: RunConfig, out_dir: Path) -> PipelineResult:
    result = _read_align_inputs(cfg, out_dir)
    stage_align(result)
    _write_align(result, out_dir)
    return result


def run_evaluate(cfg: RunConfig, out_dir: Path) -> PipelineResult:
    result = _read_evaluate_inputs(cfg, out_dir)
    result.metrics = stage_evaluate(result)
    _write_evaluate(result, out_dir)
    return result

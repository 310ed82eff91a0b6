"""The benchmark's workloads and the checks run on every output.

Each workload drives textwifi_slam only through its public entry points
(`pipeline.run_all` and `cli.main`), one run at a time in this process: a
closed loop with one client. Every run generates the same scene from the
scenario seed, so all runs of a workload do identical work.

`run` is the timed region; `check` (untimed) verifies its output and
extracts the quality figures. `check` returns a list of problems; an empty
list means the run's output is correct.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

# Expected artifacts per CLI stage, in the order the stages write them.
AGENTS = ("a0", "a1", "a2")
STAGE_ARTIFACTS = {
    "generate": ["config.json", "floorplan.json"],
    "simulate": [f"recording_{a}.jsonl" for a in AGENTS],
    "match": ["match_report.json"],
    "align": ["trajectories.json", "merged_map.json"],
    "evaluate": ["metrics.json"],
}


@dataclass
class Facts:
    """What a correct run reports besides its timings."""

    keyframes: int = 0
    fused_precision: float = 0.0
    fused_recall: float = 0.0
    text_precision: float = 0.0
    epe_reduction: Optional[float] = None
    artifact_bytes: Optional[int] = None


@dataclass
class Workload:
    name: str
    why: str
    scenario: str
    # CLI commands in order; empty means pipeline.run_all in memory.
    commands: tuple[str, ...] = ()
    sweep: bool = False

    @property
    def staged(self) -> bool:
        return bool(self.commands)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "scene01-map",
            "pipeline.run_all in memory on the three-agent headline scene; ICP and "
            "the pose graph dominate, artifact IO is absent",
            "scene01",
        ),
        Workload(
            "scene02-staged",
            "the five CLI stages on scene02 through one artifact directory: "
            "within-agent revisits, more sweeps and pairs for ICP, 13 MB of artifact IO",
            "scene02",
            ("generate", "simulate", "match", "align", "evaluate"),
            sweep=True,
        ),
        Workload(
            "scene02-recognize",
            "CLI generate, simulate and match on scene02: simulation, recording IO "
            "and the text/WiFi gates, with no ICP or pose graph",
            "scene02",
            ("generate", "simulate", "match"),
        ),
    )
}


# -------------------------------------------------------------------- running


def warm_up() -> None:
    """Touch the lazily initialised native paths (KD-tree, LAPACK) once."""
    import numpy as np

    from textwifi_slam.geometry import PointCloud2, Pose2
    from textwifi_slam.icp import icp_register
    from textwifi_slam.text_matching import text_similarity

    angles = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    cloud = PointCloud2(np.stack([np.cos(angles) * 2.0, np.sin(angles)], axis=1))
    icp_register(cloud, cloud, Pose2(0.05, 0.0, 0.01))
    np.linalg.solve(np.eye(3) * 2.0, np.ones(3))
    text_similarity("ROOM A-101", "ROOM A-1O1")


def config_for(workload: Workload, scenario_seed: int):
    from textwifi_slam.config import config_for_scenario

    return config_for_scenario(workload.scenario, seed=scenario_seed, sweep=workload.sweep)


def cli_argv(
    workload: Workload, command: str, out_dir: Path, scenario_seed: int
) -> list[str]:
    argv = [command, "--out", str(out_dir)]
    if command == "generate":
        argv += ["--scenario", workload.scenario, "--seed", str(scenario_seed)]
    if command == "evaluate" and workload.sweep:
        argv.append("--sweep")
    return argv


@dataclass
class Output:
    """What the timed region produced, for the checker."""

    result: object = None  # PipelineResult for the in-memory workload
    return_codes: list[int] = field(default_factory=list)
    out_dir: Optional[Path] = None


def run(workload: Workload, cfg, scenario_seed: int, out_dir: Path) -> Output:
    """The timed region: one run of the program on this workload."""
    from textwifi_slam import cli, pipeline

    if not workload.staged:
        return Output(result=pipeline.run_all(cfg))
    output = Output(out_dir=out_dir)
    with contextlib.redirect_stdout(io.StringIO()):
        for command in workload.commands:
            code = cli.main(cli_argv(workload, command, out_dir, scenario_seed))
            output.return_codes.append(code)
            if code != 0:
                break
    return output


def reset_dir(out_dir: Path) -> None:
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)


# ------------------------------------------------------------------- checking


def expected_verdict(text: float, mac: float, rss_distance, rss_sim: float, th: dict) -> str:
    """The gate cascade's verdict, restated from the documented thresholds."""
    if text < th["alpha"]:
        return "rejected_text"
    if mac < th["beta"] or rss_distance is None or math.isinf(rss_distance):
        return "rejected_mac"
    if rss_sim < th["gamma"]:
        return "rejected_rss"
    return "accepted"


def check_verdicts(rows: list[dict], thresholds: dict) -> list[str]:
    """Every verdict must follow from its scores and the run's thresholds."""
    problems = []
    for i, row in enumerate(rows):
        want = expected_verdict(
            row["text_score"],
            row["mac_similarity"],
            row["rss_distance_db"],
            row["rss_similarity"],
            thresholds,
        )
        if row["verdict"] != want:
            problems.append(f"candidate {i}: verdict {row['verdict']} but scores say {want}")
            if len(problems) >= 5:
                break
    return problems


def check_quality(
    fused_precision: float, text_precision: float, accepted: int,
    loop_edges: Optional[int], dropped: Optional[int],
    objective_initial: Optional[float], objective_final: Optional[float],
) -> list[str]:
    problems = []
    if fused_precision < text_precision:
        problems.append(
            f"fused precision {fused_precision} below text-only precision {text_precision}"
        )
    if objective_initial is not None and not objective_final <= objective_initial:
        problems.append(
            f"optimizer objective rose from {objective_initial} to {objective_final}"
        )
    if loop_edges is not None and loop_edges + dropped != accepted:
        problems.append(
            f"{loop_edges} loop edges + {dropped} dropped != {accepted} accepted matches"
        )
    return problems


def score(rows: list[dict], truth: dict, th: dict) -> dict:
    """Precision/recall of the text gate alone and of the fused cascade.

    Scored here, apart from the program: a pair is a true revisit exactly
    when both keyframes read the same physical sign.
    """
    tallies = {"text_only": [0, 0, 0], "fused": [0, 0, 0]}  # tp, fp, fn
    for r in rows:
        same = truth[tuple(r["a"])] == truth[tuple(r["b"])]
        text_ok = r["text_score"] >= th["alpha"]
        fused = (
            text_ok and r["mac_similarity"] >= th["beta"] and r["rss_similarity"] >= th["gamma"]
        )
        for kind, accepted in (("text_only", text_ok), ("fused", fused)):
            t = tallies[kind]
            if accepted and same:
                t[0] += 1
            elif accepted:
                t[1] += 1
            elif same:
                t[2] += 1
    return {
        kind: {
            "precision": tp / (tp + fp) if tp + fp else 0.0,
            "recall": tp / (tp + fn) if tp + fn else 0.0,
        }
        for kind, (tp, fp, fn) in tallies.items()
    }


def check_reported_quality(reported: dict, scored: dict) -> list[str]:
    """The program's precision/recall must equal the independent scoring."""
    return [
        f"reported {kind} {key} {reported[kind][key]} but scoring gives {scored[kind][key]}"
        for kind in scored
        for key in ("precision", "recall")
        if reported[kind][key] != scored[kind][key]
    ]


def truth_from_recordings(docs: dict) -> dict:
    """Sign id behind each keyframe: keyframe k is an agent's k-th non-empty text."""
    truth = {}
    for name, events in docs.items():
        if not name.startswith("recording_"):
            continue
        k = 0
        for e in events:
            if e["kind"] == "text" and e["payload"]["string"]:
                truth[(e["agent"], k)] = e["payload"]["sign_id_truth"]
                k += 1
    return truth


def _candidate_row(cand) -> dict:
    d = cand.wifi_score.rss_distance_db
    return {
        "a": cand.a,
        "b": cand.b,
        "text_score": cand.text_score,
        "mac_similarity": cand.wifi_score.mac_similarity,
        "rss_distance_db": None if math.isinf(d) else d,
        "rss_similarity": cand.wifi_score.rss_similarity,
        "verdict": cand.verdict.value,
    }


def _check_in_memory(cfg, output: Output) -> tuple[list[str], Facts]:
    result = output.result
    rows = [_candidate_row(c) for c in result.candidates]
    thresholds = {"alpha": cfg.alpha, "beta": cfg.beta, "gamma": cfg.gamma}
    truth = {kf.key: kf.text_obs.sign_id_truth for kf in result.keyframes}
    scored = score(rows, truth, thresholds)
    summary = result.graph_summary
    problems = check_verdicts(rows, thresholds)
    problems += check_reported_quality(result.metrics["precision_recall"], scored)
    problems += check_quality(
        scored["fused"]["precision"], scored["text_only"]["precision"],
        sum(1 for r in rows if r["verdict"] == "accepted"),
        summary["loop_edge_count"], summary["dropped_loop_count"],
        summary["objective_initial"], summary["objective_final"],
    )
    facts = Facts(
        keyframes=len(result.keyframes),
        fused_precision=scored["fused"]["precision"],
        fused_recall=scored["fused"]["recall"],
        text_precision=scored["text_only"]["precision"],
        epe_reduction=result.metrics["trajectory"].get("epe_reduction_fraction"),
    )
    return problems, facts


def _parse_artifacts(out_dir: Path, commands) -> tuple[list[str], dict]:
    """Every artifact the stages promise must exist and parse as JSON."""
    problems, docs = [], {}
    for command in commands:
        for name in STAGE_ARTIFACTS[command]:
            path = out_dir / name
            if not path.is_file():
                problems.append(f"{command}: missing {name}")
                continue
            try:
                text = path.read_text(encoding="utf-8")
                if name.endswith(".jsonl"):
                    docs[name] = [json.loads(line) for line in text.splitlines() if line]
                else:
                    docs[name] = json.loads(text)
            except (ValueError, UnicodeDecodeError) as exc:
                problems.append(f"{command}: {name} does not parse: {exc}")
    return problems, docs


def _check_staged(workload: Workload, output: Output) -> tuple[list[str], Facts]:
    problems = [
        f"{cmd} exited {code}"
        for cmd, code in zip(workload.commands, output.return_codes)
        if code != 0
    ]
    if len(output.return_codes) != len(workload.commands):
        problems.append("not every stage ran")
    if problems:
        return problems, Facts()
    problems, docs = _parse_artifacts(output.out_dir, workload.commands)
    if problems:
        return problems, Facts()
    report = docs["match_report.json"]
    rows = report["candidates"]
    truth = truth_from_recordings(docs)
    scored = score(rows, truth, report["settings"])
    problems = check_verdicts(rows, report["settings"])
    facts = Facts(
        keyframes=len(truth),
        fused_precision=scored["fused"]["precision"],
        fused_recall=scored["fused"]["recall"],
        text_precision=scored["text_only"]["precision"],
        artifact_bytes=sum(p.stat().st_size for p in output.out_dir.iterdir() if p.is_file()),
    )
    metrics = docs.get("metrics.json")
    if metrics is not None:
        problems += check_reported_quality(metrics["precision_recall"], scored)
        if metrics["trajectory"]["keyframe_count"] != len(truth):
            problems.append("metrics.json keyframe count disagrees with the recordings")
        facts.epe_reduction = metrics["trajectory"].get("epe_reduction_fraction")
        if workload.sweep and len(metrics.get("sweep", ())) != 9:
            problems.append("metrics.json lacks the 3x3 threshold sweep")
    trajectories = docs.get("trajectories.json") or {}
    problems += check_quality(
        facts.fused_precision, facts.text_precision,
        sum(1 for r in rows if r["verdict"] == "accepted"),
        trajectories.get("loop_edge_count"), trajectories.get("dropped_loop_count"),
        trajectories.get("objective_initial"), trajectories.get("objective_final"),
    )
    return problems, facts


def check(workload: Workload, cfg, output: Output) -> tuple[list[str], Facts]:
    if workload.staged:
        return _check_staged(workload, output)
    return _check_in_memory(cfg, output)


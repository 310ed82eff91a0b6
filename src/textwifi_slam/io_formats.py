"""On-disk formats: floorplans, recordings, match reports, trajectories.

Everything is UTF-8 JSON written by one compact encoder (no indentation,
no spaces after separators; `python -m json.tool` pretty-prints a file).
Recordings are line-delimited (one event per line) so they stream and diff
well; the rest are single-line documents. Writers sort keys and emit a fixed
float representation (repr, which round-trips exactly), so identical inputs
produce identical bytes. A scan is stored as its ranges, one per beam.
Infinities are not valid JSON; the values that can be infinite (a scan
range with no return, rss_distance_db) are stored as null.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Mapping, Sequence, Union

import numpy as np

from .geometry import PointCloud2, Pose2
from .place_recognition import MatchCandidate, NodeKey, Verdict
from .simulate import SCAN_RAY_COUNT, OdometryStep, Recording, ScanEvent, TruthSample
from .text_matching import TextObservation
from .wifi import AccessPoint, WifiMatchScore, WifiScan
from .world import FloorPlan, Sign

PathLike = Union[str, Path]

_EVENT_ORDER = {"truth": 0, "odom": 1, "scan": 2, "wifi": 3, "text": 4}


def _dumps(obj) -> str:
    # No indent: with one, json falls back to its pure-Python encoder.
    return json.dumps(obj, sort_keys=True, allow_nan=False, separators=(",", ":"))


def save_json(path: PathLike, obj) -> None:
    Path(path).write_text(_dumps(obj) + "\n", encoding="utf-8")


def load_json(path: PathLike):
    return json.loads(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------- floorplan


def floorplan_to_dict(plan: FloorPlan) -> dict:
    return {
        "walls_m": [[list(a), list(b)] for a, b in plan.walls],
        "signs": [
            {
                "sign_id": s.sign_id,
                "text": s.text,
                "position_m": list(s.position),
                "facing_rad": s.facing_rad,
            }
            for s in plan.signs
        ],
        "access_points": [
            {
                "mac": ap.mac,
                "position_m": list(ap.position),
                "transmit_power_dbm": ap.transmit_power_dbm,
                "constant_k_db": ap.constant_k_db,
                "path_loss_exponent": ap.path_loss_exponent,
                "noise_sigma_db": ap.noise_sigma_db,
                "wall_attenuation_db": ap.wall_attenuation_db,
            }
            for ap in plan.aps
        ],
        "anchors_m": {label: list(xy) for label, xy in plan.named_anchors},
    }


def floorplan_from_dict(data: Mapping) -> FloorPlan:
    return FloorPlan(
        walls=tuple((tuple(a), tuple(b)) for a, b in data["walls_m"]),
        signs=tuple(
            Sign(s["sign_id"], s["text"], tuple(s["position_m"]), s["facing_rad"])
            for s in data["signs"]
        ),
        aps=tuple(
            AccessPoint(
                mac=ap["mac"],
                position=tuple(ap["position_m"]),
                transmit_power_dbm=ap["transmit_power_dbm"],
                constant_k_db=ap["constant_k_db"],
                path_loss_exponent=ap["path_loss_exponent"],
                noise_sigma_db=ap["noise_sigma_db"],
                wall_attenuation_db=ap["wall_attenuation_db"],
            )
            for ap in data["access_points"]
        ),
        named_anchors=tuple(
            (label, tuple(xy)) for label, xy in sorted(data["anchors_m"].items())
        ),
    )


def save_floorplan(path: PathLike, plan: FloorPlan) -> None:
    save_json(path, floorplan_to_dict(plan))


def load_floorplan(path: PathLike) -> FloorPlan:
    return floorplan_from_dict(load_json(path))


# ---------------------------------------------------------------- recording


def _recording_events(rec: Recording) -> list[tuple[float, int, dict]]:
    events: list[tuple[float, int, dict]] = []

    def add(t: float, kind: str, payload: dict) -> None:
        events.append(
            (t, _EVENT_ORDER[kind], {"t": t, "agent": rec.agent_id, "kind": kind, "payload": payload})
        )

    for s in rec.truth:
        add(s.timestamp, "truth", {"x": s.pose.x, "y": s.pose.y, "theta": s.pose.theta})
    for o in rec.odometry:
        add(o.timestamp, "odom", {"dx": o.dx, "dy": o.dy, "dtheta": o.dtheta})
    for sc in rec.scans:
        ranges = [None if r == math.inf else r for r in sc.ranges.tolist()]
        add(sc.timestamp, "scan", {"ranges": ranges})
    for w in rec.wifi:
        add(w.timestamp, "wifi", {"readings": [[mac, rss] for mac, rss in w.readings]})
    for tx in rec.texts:
        add(tx.timestamp, "text", {"string": tx.text, "sign_id_truth": tx.sign_id_truth})
    events.sort(key=lambda e: (e[0], e[1]))
    return events


def save_recording(path: PathLike, rec: Recording) -> None:
    lines = [_dumps(row) for _, _, row in _recording_events(rec)]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def load_recording(path: PathLike) -> Recording:
    rec: Recording | None = None
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        row = json.loads(line)
        try:
            t, agent, kind, payload = row["t"], row["agent"], row["kind"], row["payload"]
        except KeyError as exc:
            raise ValueError(f"{path}:{lineno}: missing field {exc}") from exc
        if rec is None:
            rec = Recording(agent_id=agent)
        elif agent != rec.agent_id:
            raise ValueError(f"{path}:{lineno}: mixed agents {rec.agent_id!r} and {agent!r}")
        if kind == "truth":
            rec.truth.append(TruthSample(t, Pose2(payload["x"], payload["y"], payload["theta"])))
        elif kind == "odom":
            rec.odometry.append(OdometryStep(t, payload["dx"], payload["dy"], payload["dtheta"]))
        elif kind == "scan":
            ranges = _ranges_from_list(payload.get("ranges"), path, lineno)
            rec.scans.append(ScanEvent(t, agent, ranges))
        elif kind == "wifi":
            readings = tuple((mac, float(rss)) for mac, rss in payload["readings"])
            rec.wifi.append(WifiScan(t, agent, readings))
        elif kind == "text":
            rec.texts.append(
                TextObservation(t, agent, payload["string"], payload.get("sign_id_truth"))
            )
        else:
            raise ValueError(f"{path}:{lineno}: unknown event kind {kind!r}")
    if rec is None:
        raise ValueError(f"{path}: recording holds no events")
    return rec


def _ranges_from_list(raw, path: PathLike, lineno: int) -> np.ndarray:
    """A scan's ranges from their JSON list, null meaning no return (inf)."""
    if not (
        isinstance(raw, list)
        and len(raw) == SCAN_RAY_COUNT
        and all(r is None or (type(r) in (int, float) and math.isfinite(r)) for r in raw)
    ):
        raise ValueError(
            f"{path}:{lineno}: a scan payload holds \"ranges\", a list of "
            f"{SCAN_RAY_COUNT} finite numbers or nulls"
        )
    return np.array([math.inf if r is None else r for r in raw], dtype=float)


def recording_path(out_dir: PathLike, agent_id: str) -> Path:
    return Path(out_dir) / f"recording_{agent_id}.jsonl"


def recording_files(out_dir: PathLike) -> list[Path]:
    """Every recording_*.jsonl under out_dir, sorted."""
    return sorted(Path(out_dir).glob("recording_*.jsonl"))


def save_recordings(out_dir: PathLike, recordings: Mapping[str, Recording]) -> None:
    for agent_id in sorted(recordings):
        save_recording(recording_path(out_dir, agent_id), recordings[agent_id])


def load_recordings(out_dir: PathLike) -> dict[str, Recording]:
    """Every recording_*.jsonl under out_dir, by agent; one file per agent."""
    recs: dict[str, Recording] = {}
    paths: dict[str, Path] = {}
    for p in recording_files(out_dir):
        rec = load_recording(p)
        if rec.agent_id in recs:
            raise ValueError(
                f"{paths[rec.agent_id]} and {p} both hold agent {rec.agent_id!r}"
            )
        recs[rec.agent_id], paths[rec.agent_id] = rec, p
    if not recs:
        raise ValueError(f"no recording_*.jsonl files under {out_dir}")
    return recs


# ------------------------------------------------------------- match report


def _node_to_list(key: NodeKey) -> list:
    return [key[0], key[1]]


def _node_from_list(raw: Sequence) -> NodeKey:
    return (str(raw[0]), int(raw[1]))


def candidate_to_dict(cand: MatchCandidate) -> dict:
    d = cand.wifi_score.rss_distance_db
    return {
        "a": _node_to_list(cand.a),
        "b": _node_to_list(cand.b),
        "text_score": cand.text_score,
        "mac_similarity": cand.wifi_score.mac_similarity,
        "rss_distance_db": None if math.isinf(d) else d,
        "rss_similarity": cand.wifi_score.rss_similarity,
        "verdict": cand.verdict.value,
    }


def candidate_from_dict(data: Mapping) -> MatchCandidate:
    d = data["rss_distance_db"]
    return MatchCandidate(
        a=_node_from_list(data["a"]),
        b=_node_from_list(data["b"]),
        text_score=data["text_score"],
        wifi_score=WifiMatchScore(
            mac_similarity=data["mac_similarity"],
            rss_distance_db=math.inf if d is None else d,
            rss_similarity=data["rss_similarity"],
        ),
        verdict=Verdict(data["verdict"]),
    )


def save_match_report(
    path: PathLike,
    candidates: Sequence[MatchCandidate],
    verified: Sequence[Sequence[NodeKey]],
    settings: Mapping[str, float],
) -> None:
    save_json(
        path,
        {
            "settings": dict(settings),
            "candidates": [candidate_to_dict(c) for c in candidates],
            "verified_locations": [[_node_to_list(k) for k in group] for group in verified],
        },
    )


def load_match_report(path: PathLike) -> list[MatchCandidate]:
    """The report's candidates; no stage reads its verified locations back."""
    return [candidate_from_dict(c) for c in load_json(path)["candidates"]]


# ------------------------------------------------------------- trajectories


def poses_to_list(poses: Mapping[NodeKey, Pose2]) -> list[dict]:
    rows = []
    for key in sorted(poses):
        p = poses[key]
        rows.append(
            {"agent": key[0], "keyframe_id": key[1], "x": p.x, "y": p.y, "theta": p.theta}
        )
    return rows


def poses_from_list(rows: Sequence[Mapping]) -> dict[NodeKey, Pose2]:
    return {
        (row["agent"], row["keyframe_id"]): Pose2(row["x"], row["y"], row["theta"])
        for row in rows
    }


def save_trajectories(
    path: PathLike,
    initial: Mapping[NodeKey, Pose2],
    optimized: Mapping[NodeKey, Pose2],
    extras: Mapping,
) -> None:
    save_json(
        path,
        {**extras, "initial": poses_to_list(initial), "optimized": poses_to_list(optimized)},
    )


def load_trajectories(path: PathLike) -> tuple[dict[NodeKey, Pose2], dict[NodeKey, Pose2], dict]:
    data = load_json(path)
    initial = poses_from_list(data["initial"])
    optimized = poses_from_list(data["optimized"])
    extras = {k: v for k, v in data.items() if k not in ("initial", "optimized")}
    return initial, optimized, extras


def save_merged_map(path: PathLike, cloud: PointCloud2) -> None:
    save_json(path, {"frame": cloud.frame_id, "points_m": cloud.points.tolist()})


def load_merged_map(path: PathLike) -> PointCloud2:
    data = load_json(path)
    pts = np.array(data["points_m"], dtype=float).reshape(-1, 2)
    return PointCloud2(pts, frame_id=data.get("frame", "merged"))

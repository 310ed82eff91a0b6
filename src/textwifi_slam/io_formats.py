"""On-disk formats: floorplans, recordings, match reports, trajectories.

Everything is UTF-8 JSON written by one compact encoder (no indentation,
no spaces after separators; `python -m json.tool` pretty-prints a file).
Recordings are line-delimited (one event per line) so they stream and diff
well; the rest are single-line documents. Writers sort keys and emit a fixed
float representation (repr, which round-trips exactly), so identical inputs
produce identical bytes. A scan is stored as its ranges, one per beam.
Infinities are not valid JSON; the values that can be infinite (a scan
range with no return, rss_distance_db) are stored as null.

The recording and match-report writers build their many small rows in
bulk, with the bytes that one encoder call per row would give. Each row
fills a fixed template whose keys are already in sorted order. The numbers
of a whole channel or table go through the encoder as one list, whose text
is split at its commas: the encoder still writes every float's text and
still rejects NaN and infinity. Strings never go through that split, since
their text may hold a comma; each is encoded on its own, or with the list
it sits in. A recording is read back with one parse of its joined lines,
and parsed line by line only to name a bad line.
"""

from __future__ import annotations

import json
import math
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .geometry import PointCloud2, Pose2
from .place_recognition import MatchCandidate, NodeKey, Verdict
from .simulate import SCAN_RAY_COUNT, OdometryStep, Recording, ScanEvent, TruthSample
from .text_matching import TextObservation
from .wifi import AccessPoint, WifiMatchScore, WifiScan
from .world import FloorPlan, Sign

PathLike = Union[str, Path]

_RANGE_TYPES = {float, int, type(None)}
_REPORT_ROWS_PER_WRITE = 1024

# No indent: with one, json falls back to its pure-Python encoder.
_dumps = json.JSONEncoder(sort_keys=True, allow_nan=False, separators=(",", ":")).encode


def _number_texts(values: list) -> list[str]:
    """The JSON text of each item of values, from one encoder call.

    Only numbers and None may come through here: their texts hold no comma,
    so the encoded list splits back into its items. A string's text may.
    """
    return _dumps(values)[1:-1].split(",") if values else []


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
    """The plan; a missing field raises ValueError naming the file and the field."""
    data = load_json(path)
    try:
        return floorplan_from_dict(data)
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc}") from None


# ---------------------------------------------------------------- recording


def save_recording(path: PathLike, rec: Recording) -> None:
    """One line per event, in time order; simultaneous events in the order
    truth, odom, scan, wifi, text, and each channel in its own order.

    Each kind of event fills a fixed template whose keys are in sorted
    order. A truth or odometry channel's numbers take one encoder call, and
    so does a scan's ranges or a sweep's readings.
    """
    head = '{"agent":' + _dumps(rec.agent_id) + ',"kind":'
    pose = _number_texts(
        [v for s in rec.truth for v in (s.pose.theta, s.pose.x, s.pose.y, s.timestamp)]
    )
    step = _number_texts([v for o in rec.odometry for v in (o.dtheta, o.dx, o.dy, o.timestamp)])
    channels = [
        (rec.truth, (
            f'{head}"truth","payload":{{"theta":{th},"x":{x},"y":{y}}},"t":{t}}}'
            for th, x, y, t in _fours(pose)
        )),
        (rec.odometry, (
            f'{head}"odom","payload":{{"dtheta":{dth},"dx":{dx},"dy":{dy}}},"t":{t}}}'
            for dth, dx, dy, t in _fours(step)
        )),
        (rec.scans, (
            f'{head}"scan","payload":{{"ranges":{_dumps(_ranges_to_list(sc.ranges))}}},"t":{t}}}'
            for sc, t in zip(rec.scans, _times(rec.scans))
        )),
        (rec.wifi, (
            f'{head}"wifi","payload":{{"readings":{_dumps(w.readings)}}},"t":{t}}}'
            for w, t in zip(rec.wifi, _times(rec.wifi))
        )),
        (rec.texts, (
            f'{head}"text","payload":{{"sign_id_truth":{_dumps(tx.sign_id_truth)},'
            f'"string":{_dumps(tx.text)}}},"t":{t}}}'
            for tx, t in zip(rec.texts, _times(rec.texts))
        )),
    ]
    events = [
        (event.timestamp, line)
        for channel, lines in channels
        for event, line in zip(channel, lines)
    ]
    events.sort(key=itemgetter(0))  # stable: ties keep the order above
    text = "\n".join(line for _, line in events)
    Path(path).write_text(text + ("\n" if events else ""), encoding="utf-8")


def _fours(texts: list[str]) -> Iterable[tuple[str, str, str, str]]:
    return zip(*[iter(texts)] * 4)


def _times(channel: Sequence) -> list[str]:
    return _number_texts([event.timestamp for event in channel])


def _ranges_to_list(ranges: np.ndarray) -> list:
    """A scan's ranges as a JSON list, null meaning no return (inf)."""
    values = ranges.tolist()
    for beam in np.flatnonzero(ranges == math.inf).tolist():
        values[beam] = None
    return values


def load_recording(path: PathLike) -> Recording:
    numbered = [
        (lineno, line)
        for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1)
        if line.strip()
    ]
    rec: Recording | None = None
    for (lineno, _), row in zip(numbered, _parse_lines(path, numbered)):
        try:
            t, agent, kind, payload = row["t"], row["agent"], row["kind"], row["payload"]
        except KeyError as exc:
            raise ValueError(f"{path}:{lineno}: missing field {exc}") from exc
        if rec is None:
            rec = Recording(agent_id=agent)
        elif agent != rec.agent_id:
            raise ValueError(f"{path}:{lineno}: mixed agents {rec.agent_id!r} and {agent!r}")
        try:
            if kind == "truth":
                rec.truth.append(
                    TruthSample(t, Pose2(payload["x"], payload["y"], payload["theta"]))
                )
            elif kind == "odom":
                rec.odometry.append(
                    OdometryStep(t, payload["dx"], payload["dy"], payload["dtheta"])
                )
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
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"{path}:{lineno}: malformed {kind} payload: {exc!r}") from exc
    if rec is None:
        raise ValueError(f"{path}: recording holds no events")
    return rec


def _parse_lines(path: PathLike, numbered: Sequence[tuple[int, str]]) -> list:
    """The JSON value of each (lineno, line), from one parse of the joined lines.

    A file that does not parse that way, or parses to a different number of
    values, is parsed again line by line, so the error names its bad line.
    """
    try:
        rows = json.loads("[" + ",".join([line for _, line in numbered]) + "]")
    except json.JSONDecodeError:
        rows = None
    if rows is None or len(rows) != len(numbered):
        rows = []
        for lineno, line in numbered:
            try:
                rows.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return rows


def _ranges_from_list(raw, path: PathLike, lineno: int) -> np.ndarray:
    """A scan's ranges from their JSON list, null meaning no return (inf)."""
    if (
        isinstance(raw, list)
        and len(raw) == SCAN_RAY_COUNT
        and set(map(type, raw)) <= _RANGE_TYPES
    ):
        ranges = np.array(raw, dtype=float)  # a null reads as nan
        no_return = np.isnan(ranges)
        if np.count_nonzero(no_return) == raw.count(None) and not np.isinf(ranges).any():
            ranges[no_return] = math.inf
            return ranges
    raise ValueError(
        f"{path}:{lineno}: a scan payload holds \"ranges\", a list of "
        f"{SCAN_RAY_COUNT} finite numbers or nulls"
    )


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


def _null_if_infinite(value: float) -> float | None:
    return None if math.isinf(value) else value


def save_match_report(
    path: PathLike,
    candidates: Sequence[MatchCandidate],
    verified: Sequence[Sequence[NodeKey]],
    settings: Mapping[str, float],
) -> None:
    """The report as one JSON document. The candidate table is built
    _REPORT_ROWS_PER_WRITE rows at a time, which bounds the memory its
    texts take, and all of it before the file is opened, so a value that
    cannot be written leaves no file behind."""
    agents = {key[0] for c in candidates for key in (c.a, c.b)}
    agent_text = {agent: _dumps(agent) for agent in agents}
    verdict_text = {v: _dumps(v.value) for v in Verdict}

    def rows(batch: Sequence[MatchCandidate]) -> str:
        numbers = _number_texts([
            v
            for c in batch
            for v in (
                c.a[1],
                c.b[1],
                c.wifi_score.mac_similarity,
                _null_if_infinite(c.wifi_score.rss_distance_db),
                c.wifi_score.rss_similarity,
                c.text_score,
            )
        ])
        return ",".join(
            f'{{"a":[{agent_text[c.a[0]]},{ka}],"b":[{agent_text[c.b[0]]},{kb}],'
            f'"mac_similarity":{mac},"rss_distance_db":{dist},"rss_similarity":{rss},'
            f'"text_score":{text},"verdict":{verdict_text[c.verdict]}}}'
            for c, (ka, kb, mac, dist, rss, text) in zip(batch, zip(*[iter(numbers)] * 6))
        )

    tables = [
        rows(candidates[start : start + _REPORT_ROWS_PER_WRITE])
        for start in range(0, len(candidates), _REPORT_ROWS_PER_WRITE)
    ]
    verified_text = _dumps([[_node_to_list(k) for k in group] for group in verified])
    with open(path, "w", encoding="utf-8") as f:
        f.write('{"candidates":[')
        for i, table in enumerate(tables):
            f.write("," + table if i else table)
        f.write(
            f'],"settings":{_dumps(dict(settings))},"verified_locations":{verified_text}}}\n'
        )


_VERDICTS = {v.value: v for v in Verdict}
_candidate_fields = itemgetter(
    "a", "b", "text_score", "mac_similarity", "rss_distance_db", "rss_similarity", "verdict"
)


def load_match_report(path: PathLike) -> list[MatchCandidate]:
    """The report's candidates; no stage reads its verified locations back.

    A row that lacks a field, holds a node key that is not one agent and
    one keyframe id, or names an unknown verdict raises ValueError naming
    the file and the row's index.
    """
    candidates = []
    for i, row in enumerate(load_json(path)["candidates"]):
        try:
            raw_a, raw_b, text, mac, dist, rss, verdict = _candidate_fields(row)
        except KeyError as exc:
            raise ValueError(f"{path}: candidate {i}: missing field {exc}") from None
        try:
            (agent_a, id_a), (agent_b, id_b) = raw_a, raw_b
            a, b = (str(agent_a), int(id_a)), (str(agent_b), int(id_b))
        except (TypeError, ValueError):
            raise ValueError(
                f"{path}: candidate {i}: a node key is an agent and a keyframe id, "
                f"got {raw_a!r} and {raw_b!r}"
            ) from None
        if verdict not in _VERDICTS:
            raise ValueError(f"{path}: candidate {i}: unknown verdict {verdict!r}")
        candidates.append(MatchCandidate(
            a, b, text, WifiMatchScore(mac, math.inf if dist is None else dist, rss),
            _VERDICTS[verdict],
        ))
    return candidates


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
    """The initial and optimized poses and the extras; a missing field raises
    ValueError naming the file and the field."""
    data = load_json(path)
    try:
        initial = poses_from_list(data["initial"])
        optimized = poses_from_list(data["optimized"])
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc}") from None
    extras = {k: v for k, v in data.items() if k not in ("initial", "optimized")}
    return initial, optimized, extras


def save_merged_map(path: PathLike, cloud: PointCloud2) -> None:
    save_json(path, {"frame": cloud.frame_id, "points_m": cloud.points.tolist()})


def load_merged_map(path: PathLike) -> PointCloud2:
    data = load_json(path)
    pts = np.array(data["points_m"], dtype=float).reshape(-1, 2)
    return PointCloud2(pts, frame_id=data.get("frame", "merged"))

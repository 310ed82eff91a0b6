"""Keyframes and the fused place-recognition decision.

A keyframe is emitted whenever an agent reads a sign; it carries the scan
nearest in time and a WiFi fingerprint built from the scans in a window
around it. Candidate keyframe pairs pass through two gates in order: text
similarity (cheap, permissive) and then the WiFi fingerprint check, which is
what tells two identical signs in different places apart.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .geometry import Pose2, PointCloud2
from .simulate import Recording, integrate_odometry
from .text_matching import TextObservation, text_similarity
from .wifi import (
    DEFAULT_SIGMA_SCALE_DB,
    WifiFingerprint,
    WifiMatchScore,
    build_fingerprint,
    is_wifi_match,
)

NodeKey = tuple[str, int]  # (agent_id, keyframe_id)

DEFAULT_FINGERPRINT_WINDOW_S = 3.0


class Verdict(str, enum.Enum):
    """Outcome of the gate cascade for one candidate pair."""

    ACCEPTED = "accepted"
    REJECTED_TEXT = "rejected_text"
    REJECTED_MAC = "rejected_mac"
    REJECTED_RSS = "rejected_rss"


@dataclass(frozen=True)
class Thresholds:
    """Gate thresholds plus the intra-agent revisit separation."""

    alpha: float = 0.8
    beta: float = 0.8
    gamma: float = 0.8
    min_loop_separation_s: float = 30.0

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.min_loop_separation_s < 0.0:
            raise ValueError("min_loop_separation_s must be non-negative")


def wifi_verdict(score: WifiMatchScore, thresholds: Thresholds) -> Verdict:
    """The WiFi half of the cascade: the MAC gate, then the RSS gate.

    A pair that shares no access point has no RSS distance (inf) and fails
    the MAC gate whatever beta is. Matching and evaluation both decide by
    this rule, so a scored acceptance is always an operational one.
    """
    if score.mac_similarity < thresholds.beta or math.isinf(score.rss_distance_db):
        return Verdict.REJECTED_MAC
    if score.rss_similarity < thresholds.gamma:
        return Verdict.REJECTED_RSS
    return Verdict.ACCEPTED


@dataclass(frozen=True)
class Keyframe:
    """A sign sighting with everything needed to match and register it.

    The keyframe is anchored at its scan: timestamp and odom_pose refer to
    the moment the carried scan was taken, so loop-closure transforms from
    scan registration constrain exactly this node.
    """

    agent_id: str
    keyframe_id: int
    timestamp: float
    odom_pose: Pose2
    scan: PointCloud2
    text_obs: Optional[TextObservation]
    fingerprint: WifiFingerprint

    @property
    def key(self) -> NodeKey:
        return (self.agent_id, self.keyframe_id)


@dataclass(frozen=True)
class MatchCandidate:
    """A keyframe pair with the scores of every gate and the verdict."""

    a: NodeKey
    b: NodeKey
    text_score: float
    wifi_score: WifiMatchScore
    verdict: Verdict


def extract_keyframes(
    recording: Recording,
    *,
    fingerprint_window_s: float = DEFAULT_FINGERPRINT_WINDOW_S,
) -> list[Keyframe]:
    """One keyframe per text observation in the recording.

    Empty detections never reach this point (the simulator drops them), but
    are skipped defensively. A keyframe with no WiFi scan in its window gets
    an empty fingerprint and will be rejected at the MAC gate.
    """
    if fingerprint_window_s <= 0.0:
        raise ValueError("fingerprint window must be positive")
    odom = integrate_odometry(recording)
    odom_times = [t for t, _ in odom]
    scan_times = [s.timestamp for s in recording.scans]
    wifi_times = [w.timestamp for w in recording.wifi]
    half = fingerprint_window_s / 2.0

    def nearest_index(times: list[float], t: float) -> int:
        i = bisect_left(times, t)
        if i == 0:
            return 0
        if i == len(times):
            return len(times) - 1
        return i - 1 if t - times[i - 1] <= times[i] - t else i

    keyframes: list[Keyframe] = []
    for obs in recording.texts:
        if not obs.text:
            continue
        kf_id = len(keyframes)
        if recording.scans:
            scan_event = recording.scans[nearest_index(scan_times, obs.timestamp)]
            scan = scan_event.cloud
            anchor_t = scan_event.timestamp
        else:
            scan = PointCloud2([], frame_id=recording.agent_id)
            anchor_t = obs.timestamp
        pose = odom[nearest_index(odom_times, anchor_t)][1]
        # The window centers on the keyframe anchor, not the raw text time:
        # the fingerprint, scan, and pose must all describe the same instant
        # or a loop edge would constrain a node using radio data from half a
        # scan period away.
        window = [
            w for w in recording.wifi if abs(w.timestamp - anchor_t) <= half + 1e-9
        ]
        if window:
            fingerprint = build_fingerprint(window, location_id=f"{recording.agent_id}:{kf_id}")
        else:
            fingerprint = WifiFingerprint(f"{recording.agent_id}:{kf_id}", {})
        keyframes.append(
            Keyframe(
                agent_id=recording.agent_id,
                keyframe_id=kf_id,
                timestamp=anchor_t,
                odom_pose=pose,
                scan=scan,
                text_obs=obs,
                fingerprint=fingerprint,
            )
        )
    return keyframes


def generate_candidates(
    keyframes: Sequence[Keyframe],
    thresholds: Thresholds,
) -> list[tuple[Keyframe, Keyframe]]:
    """Unordered candidate pairs worth scoring.

    Every cross-agent pair of text-bearing keyframes is a candidate; pairs
    from one agent only qualify as revisits once they are at least
    min_loop_separation_s apart. Order is deterministic.
    """
    bearing = sorted(
        (kf for kf in keyframes if kf.text_obs is not None),
        key=lambda kf: kf.key,
    )
    pairs: list[tuple[Keyframe, Keyframe]] = []
    for i, a in enumerate(bearing):
        for b in bearing[i + 1:]:
            if a.agent_id == b.agent_id:
                if abs(a.timestamp - b.timestamp) >= thresholds.min_loop_separation_s:
                    pairs.append((a, b))
            else:
                pairs.append((a, b))
    return pairs


def decide_match(
    a: Keyframe,
    b: Keyframe,
    thresholds: Thresholds,
    *,
    sigma_scale_db: float = DEFAULT_SIGMA_SCALE_DB,
) -> MatchCandidate:
    """Run the gate cascade on one candidate pair.

    Every gate is scored, also on pairs the text gate rejects, so the
    evaluation stage can re-threshold any candidate. The first failing gate
    names the rejection.
    """
    if a.text_obs is None or b.text_obs is None:
        raise ValueError("decide_match needs text on both keyframes")
    text_score = text_similarity(a.text_obs.text, b.text_obs.text)
    text_ok = text_score >= thresholds.alpha
    _, wifi_score = is_wifi_match(
        a.fingerprint,
        b.fingerprint,
        thresholds.beta,
        thresholds.gamma,
        sigma_scale_db=sigma_scale_db,
    )
    verdict = wifi_verdict(wifi_score, thresholds) if text_ok else Verdict.REJECTED_TEXT
    return MatchCandidate(a.key, b.key, text_score, wifi_score, verdict)


def match_all(
    keyframes: Sequence[Keyframe],
    thresholds: Thresholds,
    *,
    sigma_scale_db: float = DEFAULT_SIGMA_SCALE_DB,
) -> list[MatchCandidate]:
    """Score every candidate pair, in deterministic order."""
    return [
        decide_match(a, b, thresholds, sigma_scale_db=sigma_scale_db)
        for a, b in generate_candidates(keyframes, thresholds)
    ]


def connected_components(
    nodes: Iterable[NodeKey], edges: Iterable[tuple[NodeKey, NodeKey]]
) -> list[list[NodeKey]]:
    """Groups of nodes joined by edges; members and groups are sorted.

    Every node lands in exactly one group, so isolated nodes are singletons.
    """
    parent = {key: key for key in nodes}

    def find(k: NodeKey) -> NodeKey:
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    groups: dict[NodeKey, list[NodeKey]] = {}
    for key in parent:
        groups.setdefault(find(key), []).append(key)
    return sorted(sorted(members) for members in groups.values())


def verified_locations(candidates: Sequence[MatchCandidate]) -> list[list[NodeKey]]:
    """Connected components of the accepted-match graph.

    Each component groups keyframes the matcher believes show one physical
    place. Only keyframes of accepted pairs take part, so there are no
    singletons; components and members are sorted.
    """
    edges = [(c.a, c.b) for c in candidates if c.verdict is Verdict.ACCEPTED]
    return connected_components({key for edge in edges for key in edge}, edges)

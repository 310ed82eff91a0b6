"""Keyframes and the fused place-recognition decision.

A keyframe is emitted whenever an agent reads a sign; it carries the scan
nearest in time and a WiFi fingerprint built from the scans in a window
around it. Candidate keyframe pairs pass through two gates in order: text
similarity (cheap, permissive) and then the WiFi fingerprint check, which is
what tells two identical signs in different places apart. match_all scores
all candidate pairs as one batch: the WiFi scores come from one keyframe ×
MAC matrix (wifi.wifi_scores), and the edit-distance DP runs once per
distinct text pair (text_matching.text_similarities), so a few sign texts
recurring across many keyframes cost little. The batch equals the per-pair
rule (text_similarity, the one-pair WiFi scores the tests keep as the
reference, then wifi_verdict) to the last bit, and decide_match is a batch
of one. wifi_verdict is the one WiFi gate rule: matching, evaluation and
wifi.is_wifi_match all decide by it. An agent's consecutive reads of one
sign form a visit (group_visits); the align stage registers the matches of
one pair of visits together.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .geometry import Pose2, PointCloud2
from .simulate import Recording, integrate_odometry, nearest_index
from .text_matching import TextObservation, text_similarities, text_similarity
from .wifi import WifiFingerprint, WifiMatchScore, build_fingerprint, wifi_scores

NodeKey = tuple[str, int]  # (agent_id, keyframe_id)

# A keyframe's fingerprint averages the WiFi sweeps within half this
# window of its anchor.
FINGERPRINT_WINDOW_S = 3.0
# Two keyframes of one agent are a revisit candidate only this far apart in
# time, so successive sightings of one sign are not proposed as loops.
MIN_LOOP_SEPARATION_S = 30.0
# An agent's consecutive keyframes this far apart in time or more belong to
# two visits (group_visits), whatever they read.
VISIT_GAP_S = 10.0
# The bisected fingerprint window is widened by this much, far more than any
# rounding of the bounds, so the exact distance test alone decides membership.
_WINDOW_SLACK_S = 1e-6


class Verdict(str, enum.Enum):
    """Outcome of the gate cascade for one candidate pair."""

    ACCEPTED = "accepted"
    REJECTED_TEXT = "rejected_text"
    REJECTED_MAC = "rejected_mac"
    REJECTED_RSS = "rejected_rss"


@dataclass(frozen=True)
class Thresholds:
    """The three gate thresholds: text (alpha), MAC overlap (beta), RSS (gamma).

    Their defaults live in RunConfig; build them with RunConfig.thresholds().
    """

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")


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
    text_obs: TextObservation
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


def extract_keyframes(recording: Recording) -> list[Keyframe]:
    """One keyframe per text observation in the recording.

    Empty detections never reach this point (the simulator drops them), but
    are skipped defensively. A keyframe with no WiFi scan in its window gets
    an empty fingerprint and will be rejected at the MAC gate. Scans,
    odometry and WiFi sweeps are looked up by bisecting their timestamps,
    so a channel out of time order raises ValueError.
    """
    odom = integrate_odometry(recording)
    odom_times = [t for t, _ in odom]
    scan_times = [s.timestamp for s in recording.scans]
    wifi_times = [w.timestamp for w in recording.wifi]
    for channel, times in (("odometry", odom_times), ("scan", scan_times), ("wifi", wifi_times)):
        if any(later < earlier for earlier, later in zip(times, times[1:])):
            raise ValueError(
                f"recording {recording.agent_id}: {channel} timestamps are out of order"
            )
    half = FINGERPRINT_WINDOW_S / 2.0

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
        lo = bisect_left(wifi_times, anchor_t - half - _WINDOW_SLACK_S)
        hi = bisect_right(wifi_times, anchor_t + half + _WINDOW_SLACK_S)
        window = [
            w for w in recording.wifi[lo:hi] if abs(w.timestamp - anchor_t) <= half + 1e-9
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


def _candidate_indices(ordered: Sequence[Keyframe]) -> tuple[list[int], list[int]]:
    """The candidate pairs of key-sorted keyframes, as two index lists in
    row-major (i, j > i) order; see generate_candidates."""
    first, second = np.triu_indices(len(ordered), k=1)
    agent_ids: dict[str, int] = {}
    agents = np.array([agent_ids.setdefault(kf.agent_id, len(agent_ids)) for kf in ordered])
    times = np.array([kf.timestamp for kf in ordered], dtype=float)
    keep = (agents[first] != agents[second]) | (
        np.abs(times[first] - times[second]) >= MIN_LOOP_SEPARATION_S
    )
    return first[keep].tolist(), second[keep].tolist()


def generate_candidates(keyframes: Sequence[Keyframe]) -> list[tuple[Keyframe, Keyframe]]:
    """Unordered candidate pairs worth scoring.

    Every cross-agent pair of keyframes is a candidate; pairs from one agent
    only qualify as revisits once they are at least MIN_LOOP_SEPARATION_S
    apart. Pairs come in key order: (a, b) with a before b, sorted by a
    and then by b.
    """
    ordered = sorted(keyframes, key=lambda kf: kf.key)
    first, second = _candidate_indices(ordered)
    return [(ordered[i], ordered[j]) for i, j in zip(first, second)]


def _scored_candidates(
    keyframes: Sequence[Keyframe],
    first: Sequence[int],
    second: Sequence[int],
    thresholds: Thresholds,
) -> list[MatchCandidate]:
    """The candidates of the pairs (keyframes[first[k]], keyframes[second[k]]).

    Every gate is scored, also on pairs the text gate rejects, so the
    evaluation stage can re-threshold any candidate. The first failing gate
    names the rejection: text, then wifi_verdict.
    """
    texts = [kf.text_obs.text for kf in keyframes]
    text_scores = text_similarities([(texts[i], texts[j]) for i, j in zip(first, second)])
    wifi = wifi_scores([kf.fingerprint for kf in keyframes], first, second)
    keys = [kf.key for kf in keyframes]
    alpha = thresholds.alpha
    return [
        MatchCandidate(
            keys[i],
            keys[j],
            text_score,
            wifi_score,
            wifi_verdict(wifi_score, thresholds) if text_score >= alpha else Verdict.REJECTED_TEXT,
        )
        for i, j, text_score, wifi_score in zip(first, second, text_scores, wifi)
    ]


def decide_match(a: Keyframe, b: Keyframe, thresholds: Thresholds) -> MatchCandidate:
    """Run the gate cascade on one candidate pair: match_all's batch of one."""
    return _scored_candidates([a, b], [0], [1], thresholds)[0]


def match_all(keyframes: Sequence[Keyframe], thresholds: Thresholds) -> list[MatchCandidate]:
    """Score every candidate pair (generate_candidates), in its order, as one
    batch; each candidate equals decide_match on its pair."""
    ordered = sorted(keyframes, key=lambda kf: kf.key)
    return _scored_candidates(ordered, *_candidate_indices(ordered), thresholds)


def group_visits(keyframes: Sequence[Keyframe], alpha: float) -> dict[NodeKey, NodeKey]:
    """Each keyframe's visit, named by the key of the visit's first keyframe.

    A visit is a run of one agent's consecutive keyframes that read the same
    sign as it walks past: a new visit starts when the gap to the agent's
    previous keyframe is VISIT_GAP_S or more, or when the two texts score
    below alpha. No ground truth is used.
    """
    visit: dict[NodeKey, NodeKey] = {}
    prev = None
    for kf in sorted(keyframes, key=lambda k: k.key):
        same_visit = (
            prev is not None
            and prev.agent_id == kf.agent_id
            and kf.timestamp - prev.timestamp < VISIT_GAP_S
            and text_similarity(prev.text_obs.text, kf.text_obs.text) >= alpha
        )
        visit[kf.key] = visit[prev.key] if same_visit else kf.key
        prev = kf
    return visit


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

"""Match-quality metrics, trajectory end-point error and map accuracy.

Ground truth for a candidate pair comes from the simulator: two text
observations are the same place exactly when they carry the same source
sign id. Precision/recall are reported for the text gate alone, the WiFi
gates alone, and the fused cascade, so the benefit of fusing is visible in
one table. Map accuracy is the absolute trajectory error of the keyframes
against the simulator's true poses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .geometry import Pose2, transform_points
from .icp import _rigid_fit
from .place_recognition import (
    Keyframe,
    MatchCandidate,
    NodeKey,
    Thresholds,
    Verdict,
    wifi_verdict,
)
from .simulate import Recording

# The keyframe standing in for an anchor visit must lie this close to the
# anchor in ground truth.
MAX_ANCHOR_DISTANCE_M = 0.5


@dataclass(frozen=True)
class PrMetrics:
    true_positives: int
    false_positives: int
    false_negatives: int

    @property
    def precision(self) -> float:
        accepted = self.true_positives + self.false_positives
        if accepted == 0:
            return 0.0
        return self.true_positives / accepted

    @property
    def recall(self) -> float:
        actual = self.true_positives + self.false_negatives
        if actual == 0:
            return 0.0
        return self.true_positives / actual


@dataclass(frozen=True)
class ScoreReport:
    text_only: PrMetrics
    wifi_only: PrMetrics
    fused: PrMetrics
    candidate_count: int
    positive_count: int


def _pair_is_true(a: Keyframe, b: Keyframe) -> bool:
    ta, tb = a.text_obs.sign_id_truth, b.text_obs.sign_id_truth
    if ta is None or tb is None:
        raise ValueError("candidate keyframes lack ground-truth sign ids")
    return ta == tb

def _metrics(decisions: Iterable[tuple[bool, bool]]) -> PrMetrics:
    tp = fp = fn = 0
    for accepted, truth in decisions:
        if accepted and truth:
            tp += 1
        elif accepted:
            fp += 1
        elif truth:
            fn += 1
    return PrMetrics(tp, fp, fn)


def _truths(
    candidates: Sequence[MatchCandidate], keyframes_by_key: Mapping[NodeKey, Keyframe]
) -> list[bool]:
    return [_pair_is_true(keyframes_by_key[c.a], keyframes_by_key[c.b]) for c in candidates]


def _wifi_accepts(candidates: Sequence[MatchCandidate], thresholds: Thresholds) -> list[bool]:
    return [wifi_verdict(c.wifi_score, thresholds) is Verdict.ACCEPTED for c in candidates]


def _report(
    candidates: Sequence[MatchCandidate], truths: list[bool], wifi_ok: list[bool], alpha: float
) -> ScoreReport:
    text_ok = [c.text_score >= alpha for c in candidates]
    fused = [t and w for t, w in zip(text_ok, wifi_ok)]
    return ScoreReport(
        text_only=_metrics(zip(text_ok, truths)),
        wifi_only=_metrics(zip(wifi_ok, truths)),
        fused=_metrics(zip(fused, truths)),
        candidate_count=len(truths),
        positive_count=sum(truths),
    )


def score_candidates(
    candidates: Sequence[MatchCandidate],
    keyframes_by_key: Mapping[NodeKey, Keyframe],
    thresholds: Thresholds,
) -> ScoreReport:
    """Score scored candidates against simulator ground truth."""
    truths = _truths(candidates, keyframes_by_key)
    return _report(candidates, truths, _wifi_accepts(candidates, thresholds), thresholds.alpha)


# The threshold sweep's grid: each alpha against each (beta, gamma) pair.
SWEEP_ALPHAS = (0.5, 0.8, 1.0)
SWEEP_BETA_GAMMAS = ((0.5, 0.5), (0.8, 0.8), (0.9, 0.9))


def threshold_sweep(
    candidates: Sequence[MatchCandidate],
    keyframes_by_key: Mapping[NodeKey, Keyframe],
) -> list[tuple[Thresholds, ScoreReport]]:
    """Re-score the same candidates across the SWEEP_* grid of gate thresholds.

    Each candidate's truth is looked up once, and its WiFi verdict taken
    once per (beta, gamma) pair; the text gate is a comparison per alpha.
    """
    truths = _truths(candidates, keyframes_by_key)
    # wifi_verdict reads no alpha.
    wifi_ok = {
        (beta, gamma): _wifi_accepts(candidates, Thresholds(alpha=0.0, beta=beta, gamma=gamma))
        for beta, gamma in SWEEP_BETA_GAMMAS
    }
    return [
        (
            Thresholds(alpha=alpha, beta=beta, gamma=gamma),
            _report(candidates, truths, wifi_ok[beta, gamma], alpha),
        )
        for alpha in SWEEP_ALPHAS
        for beta, gamma in SWEEP_BETA_GAMMAS
    ]


@dataclass(frozen=True)
class EpeReport:
    label_start: str
    label_end: str
    node_start: NodeKey
    node_end: NodeKey
    truth_separation_m: float
    estimated_separation_m: float

    @property
    def end_point_error_m(self) -> float:
        return abs(self.estimated_separation_m - self.truth_separation_m)


def _parse_anchor(label: str) -> tuple[str, str]:
    agent, sep, tag = label.partition("/")
    if not sep or not agent or not tag:
        raise ValueError(f"anchor label {label!r} is not of the form 'agent/tag'")
    return agent, tag


def _truth_poses(
    keyframes: Sequence[Keyframe], recordings: Mapping[str, Recording]
) -> list[Pose2]:
    """Each keyframe's true pose, in order, with one truths_at per agent."""
    agents = dict.fromkeys(kf.agent_id for kf in keyframes)
    times = {agent: [kf.timestamp for kf in keyframes if kf.agent_id == agent] for agent in agents}
    poses = {agent: iter(recordings[agent].truths_at(times[agent])) for agent in agents}
    return [next(poses[kf.agent_id]) for kf in keyframes]


def _nearest_keyframe(
    anchor_xy: tuple[float, float],
    agent_id: str,
    keyframes: Sequence[Keyframe],
    recordings: Mapping[str, Recording],
) -> tuple[Keyframe, Pose2]:
    """The agent's keyframe nearest the anchor in ground truth, and its true pose."""
    if agent_id not in recordings:
        raise ValueError(f"no recording for agent {agent_id!r}")
    own = [kf for kf in keyframes if kf.agent_id == agent_id]
    best: Optional[tuple[Keyframe, Pose2]] = None
    best_d = math.inf
    for kf, truth in zip(own, _truth_poses(own, recordings)):
        d = math.hypot(truth.x - anchor_xy[0], truth.y - anchor_xy[1])
        if d < best_d:
            best, best_d = (kf, truth), d
    if best is None or best_d > MAX_ANCHOR_DISTANCE_M:
        raise ValueError(
            f"agent {agent_id!r} has no keyframe within {MAX_ANCHOR_DISTANCE_M} m "
            f"of anchor {anchor_xy}"
        )
    return best


def end_point_error(
    anchors: Mapping[str, tuple[float, float]],
    start_label: str,
    end_label: str,
    keyframes: Sequence[Keyframe],
    recordings: Mapping[str, Recording],
    estimated: Mapping[NodeKey, Pose2],
) -> EpeReport:
    """Compare estimated against true separation of two anchor visits.

    Anchor labels name which agent's visit is meant ("a0/start"), and the
    keyframe actually closest to the anchor in ground truth stands in for
    the visit. The truth separation uses the same keyframes' true poses, so
    a perfect estimate scores exactly zero even when keyframes sit slightly
    off the anchor point.
    """
    if start_label not in anchors or end_label not in anchors:
        raise ValueError("anchor labels must both be present in the map's anchor table")
    agent_s, _ = _parse_anchor(start_label)
    agent_e, _ = _parse_anchor(end_label)
    kf_s, truth_s = _nearest_keyframe(anchors[start_label], agent_s, keyframes, recordings)
    kf_e, truth_e = _nearest_keyframe(anchors[end_label], agent_e, keyframes, recordings)
    truth_sep = math.hypot(truth_e.x - truth_s.x, truth_e.y - truth_s.y)
    if kf_s.key not in estimated or kf_e.key not in estimated:
        raise ValueError("estimated poses are missing an anchor keyframe")
    ps, pe = estimated[kf_s.key], estimated[kf_e.key]
    est_sep = math.hypot(pe.x - ps.x, pe.y - ps.y)
    return EpeReport(
        label_start=start_label,
        label_end=end_label,
        node_start=kf_s.key,
        node_end=kf_e.key,
        truth_separation_m=truth_sep,
        estimated_separation_m=est_sep,
    )


def absolute_trajectory_error(
    keyframes: Sequence[Keyframe],
    recordings: Mapping[str, Recording],
    estimated: Mapping[NodeKey, Pose2],
) -> float:
    """RMSE of estimated keyframe positions against truth, in meters.

    The estimate is first moved by the one rigid 2D transform that fits it
    best to truth (_rigid_fit), so the error is the map's shape and not the
    choice of its frame, as in Sturm et al., IROS 2012. Truth is each
    keyframe's true pose at its timestamp; keyframes without an estimate
    are left out.
    """
    scored = [kf for kf in keyframes if kf.key in estimated]
    if len(scored) < 2:
        raise ValueError("absolute trajectory error needs at least two estimated keyframes")
    est = np.array([[estimated[kf.key].x, estimated[kf.key].y] for kf in scored])
    truth = np.array([[pose.x, pose.y] for pose in _truth_poses(scored, recordings)])
    theta, _, _, tx, ty = _rigid_fit(est, truth)
    aligned = transform_points(Pose2(tx, ty, theta), est)
    return float(np.sqrt(np.mean(np.sum((aligned - truth) ** 2, axis=1))))


def travel_distance_m(recordings: Mapping[str, Recording]) -> float:
    """Total ground-truth path length across all agents."""
    return sum(rec.travel_distance_m() for rec in recordings.values())

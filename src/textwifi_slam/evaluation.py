"""Match-quality metrics, trajectory end-point error and map accuracy.

Ground truth for a candidate pair comes from the simulator: two text
observations are the same place exactly when they carry the same source
sign id. Precision/recall are reported for the text gate alone, the WiFi
gates alone, and the fused cascade, so the benefit of fusing is visible in
one table.

Map accuracy is scored from one truth table, keyframe_truth: each
keyframe's true pose at its timestamp, looked up once per evaluation. Both
map metrics read it: the absolute trajectory error of the keyframes, and
the end-point error between the plan's start and end anchor visits.
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
from .world import Point

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


def keyframe_truth(
    keyframes: Sequence[Keyframe], recordings: Mapping[str, Recording]
) -> dict[NodeKey, Pose2]:
    """Each keyframe's true pose, keyed and in keyframe order, with one
    truths_at call per agent."""
    agents = dict.fromkeys(kf.agent_id for kf in keyframes)
    times = {agent: [kf.timestamp for kf in keyframes if kf.agent_id == agent] for agent in agents}
    poses = {agent: iter(recordings[agent].truths_at(times[agent])) for agent in agents}
    return {kf.key: next(poses[kf.agent_id]) for kf in keyframes}


def _anchor_label(anchors: Mapping[str, Point], suffix: str) -> Optional[str]:
    """The one anchor label ending in suffix, or None when there is none."""
    labels = [label for label in anchors if label.endswith(suffix)]
    if len(labels) > 1:
        raise ValueError(f"anchor labels {', '.join(map(repr, labels))} all end in {suffix!r}")
    return labels[0] if labels else None


def _nearest_keyframe(
    label: str, anchor_xy: Point, truth: Mapping[NodeKey, Pose2]
) -> NodeKey:
    """The labelled agent's keyframe nearest the anchor in ground truth."""
    agent = label.partition("/")[0]
    if not agent:
        raise ValueError(f"anchor label {label!r} is not of the form 'agent/tag'")
    best: Optional[NodeKey] = None
    best_d = math.inf
    for key, pose in truth.items():
        if key[0] == agent:
            d = math.hypot(pose.x - anchor_xy[0], pose.y - anchor_xy[1])
            if d < best_d:
                best, best_d = key, d
    if best is None or best_d > MAX_ANCHOR_DISTANCE_M:
        raise ValueError(
            f"agent {agent!r} has no keyframe within {MAX_ANCHOR_DISTANCE_M} m "
            f"of anchor {anchor_xy}"
        )
    return best


def end_point_error(
    anchors: Mapping[str, Point],
    truth: Mapping[NodeKey, Pose2],
    initial: Mapping[NodeKey, Pose2],
    optimized: Mapping[NodeKey, Pose2],
) -> dict:
    """Compare estimated against true separation of the start and end anchor
    visits, for the initial and the optimized poses.

    The anchor table holds at most one label ending in "/start" and one
    ending in "/end"; without both there is nothing to score and the result
    is {}. A label names which agent's visit is meant ("a0/start"), and
    that agent's keyframe closest to the anchor in ground truth stands in
    for the visit. The truth separation uses the same keyframes' true
    poses, so a perfect estimate scores exactly zero even when keyframes
    sit slightly off the anchor point.
    """
    labels = _anchor_label(anchors, "/start"), _anchor_label(anchors, "/end")
    if None in labels:
        return {}
    start, end = (_nearest_keyframe(label, anchors[label], truth) for label in labels)

    def separation(poses: Mapping[NodeKey, Pose2]) -> float:
        if start not in poses or end not in poses:
            raise ValueError("estimated poses are missing an anchor keyframe")
        return math.hypot(poses[end].x - poses[start].x, poses[end].y - poses[start].y)

    truth_sep = separation(truth)
    base_e, opt_e = (abs(separation(poses) - truth_sep) for poses in (initial, optimized))
    return {
        "anchor_start": labels[0],
        "anchor_end": labels[1],
        "separation_truth_m": truth_sep,
        "epe_baseline_m": base_e,
        "epe_optimized_m": opt_e,
        "epe_reduction_fraction": (base_e - opt_e) / base_e if base_e > 0.0 else 0.0,
    }


def absolute_trajectory_error(
    truth: Mapping[NodeKey, Pose2], estimated: Mapping[NodeKey, Pose2]
) -> float:
    """RMSE of estimated keyframe positions against truth, in meters.

    The estimate is first moved by the one rigid 2D transform that fits it
    best to truth (_rigid_fit), so the error is the map's shape and not the
    choice of its frame, as in Sturm et al., IROS 2012. Keyframes without
    an estimate are left out.
    """
    scored = [key for key in truth if key in estimated]
    if len(scored) < 2:
        raise ValueError("absolute trajectory error needs at least two estimated keyframes")
    est = np.array([[estimated[key].x, estimated[key].y] for key in scored])
    true_xy = np.array([[truth[key].x, truth[key].y] for key in scored])
    theta, _, _, tx, ty = _rigid_fit(est, true_xy)
    aligned = transform_points(Pose2(tx, ty, theta), est)
    return float(np.sqrt(np.mean(np.sum((aligned - true_xy) ** 2, axis=1))))


def travel_distance_m(recordings: Mapping[str, Recording]) -> float:
    """Total ground-truth path length across all agents."""
    return sum(rec.travel_distance_m() for rec in recordings.values())

"""Match-quality metrics and trajectory end-point error.

Ground truth for a candidate pair comes from the simulator: two text
observations are the same place exactly when they carry the same source
sign id. Precision/recall are reported for the text gate alone, the WiFi
gates alone, and the fused cascade, so the benefit of fusing is visible in
one table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .geometry import Pose2
from .place_recognition import (
    Keyframe,
    MatchCandidate,
    NodeKey,
    Thresholds,
    Verdict,
    wifi_verdict,
)
from .simulate import Recording


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
    ta, tb = a.text_obs, b.text_obs
    if ta is None or tb is None or ta.sign_id_truth is None or tb.sign_id_truth is None:
        raise ValueError("candidate keyframes lack ground-truth sign ids")
    return ta.sign_id_truth == tb.sign_id_truth

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


def score_candidates(
    candidates: Sequence[MatchCandidate],
    keyframes_by_key: Mapping[NodeKey, Keyframe],
    thresholds: Thresholds,
) -> ScoreReport:
    """Score scored candidates against simulator ground truth."""
    rows: list[tuple[bool, bool, bool, bool]] = []
    for cand in candidates:
        a = keyframes_by_key[cand.a]
        b = keyframes_by_key[cand.b]
        truth = _pair_is_true(a, b)
        text_ok = cand.text_score >= thresholds.alpha
        wifi_ok = wifi_verdict(cand.wifi_score, thresholds) is Verdict.ACCEPTED
        rows.append((text_ok, wifi_ok, text_ok and wifi_ok, truth))
    return ScoreReport(
        text_only=_metrics((r[0], r[3]) for r in rows),
        wifi_only=_metrics((r[1], r[3]) for r in rows),
        fused=_metrics((r[2], r[3]) for r in rows),
        candidate_count=len(rows),
        positive_count=sum(1 for r in rows if r[3]),
    )


@dataclass(frozen=True)
class SweepRow:
    alpha: float
    beta: float
    gamma: float
    text_only: PrMetrics
    wifi_only: PrMetrics
    fused: PrMetrics


# The threshold sweep's grid: each alpha against each (beta, gamma) pair.
SWEEP_ALPHAS = (0.5, 0.8, 1.0)
SWEEP_BETA_GAMMAS = ((0.5, 0.5), (0.8, 0.8), (0.9, 0.9))


def threshold_sweep(
    candidates: Sequence[MatchCandidate],
    keyframes_by_key: Mapping[NodeKey, Keyframe],
) -> list[SweepRow]:
    """Re-score the same candidates across the SWEEP_* grid of gate thresholds."""
    rows = []
    for alpha in SWEEP_ALPHAS:
        for beta, gamma in SWEEP_BETA_GAMMAS:
            th = Thresholds(alpha=alpha, beta=beta, gamma=gamma)
            report = score_candidates(candidates, keyframes_by_key, th)
            rows.append(SweepRow(alpha, beta, gamma, report.text_only, report.wifi_only, report.fused))
    return rows


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


def _nearest_keyframe(
    anchor_xy: tuple[float, float],
    agent_id: str,
    keyframes: Sequence[Keyframe],
    recordings: Mapping[str, Recording],
    max_distance_m: float,
) -> Keyframe:
    recording = recordings.get(agent_id)
    if recording is None:
        raise ValueError(f"no recording for agent {agent_id!r}")
    best: Optional[Keyframe] = None
    best_d = math.inf
    for kf in keyframes:
        if kf.agent_id != agent_id:
            continue
        truth = recording.truth_at(kf.timestamp)
        d = math.hypot(truth.x - anchor_xy[0], truth.y - anchor_xy[1])
        if d < best_d:
            best, best_d = kf, d
    if best is None or best_d > max_distance_m:
        raise ValueError(
            f"agent {agent_id!r} has no keyframe within {max_distance_m} m of anchor {anchor_xy}"
        )
    return best


def end_point_error(
    anchors: Mapping[str, tuple[float, float]],
    start_label: str,
    end_label: str,
    keyframes: Sequence[Keyframe],
    recordings: Mapping[str, Recording],
    estimated: Mapping[NodeKey, Pose2],
    *,
    max_anchor_distance_m: float = 0.5,
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
    kf_s = _nearest_keyframe(anchors[start_label], agent_s, keyframes, recordings, max_anchor_distance_m)
    kf_e = _nearest_keyframe(anchors[end_label], agent_e, keyframes, recordings, max_anchor_distance_m)
    truth_s = recordings[agent_s].truth_at(kf_s.timestamp)
    truth_e = recordings[agent_e].truth_at(kf_e.timestamp)
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


def travel_distance_m(recordings: Mapping[str, Recording]) -> float:
    """Total ground-truth path length across all agents."""
    return sum(rec.travel_distance_m() for rec in recordings.values())

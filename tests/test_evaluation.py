"""Precision/recall scoring and end-point-error measurement."""

import math

import numpy as np
import pytest

from textwifi_slam.config import RunConfig
from textwifi_slam.evaluation import (
    absolute_trajectory_error,
    end_point_error,
    keyframe_truth,
    score_candidates,
    threshold_sweep,
    travel_distance_m,
)
from textwifi_slam.geometry import Pose2, compose, transform_points
from textwifi_slam.icp import _rigid_fit
from textwifi_slam.pipeline import extract_all_keyframes, stage_generate, stage_simulate
from textwifi_slam.place_recognition import (
    MatchCandidate,
    Thresholds,
    Verdict,
    decide_match,
    match_all,
    wifi_verdict,
)
from textwifi_slam.simulate import Recording, TruthSample
from textwifi_slam.wifi import WifiMatchScore

from conftest import make_keyframe


def row(tp: int, fp: int, fn: int, precision: float, recall: float) -> dict:
    return {
        "precision": precision,
        "recall": recall,
        "true_positives": tp,
        "false_positives": fp,
        "false_negatives": fn,
    }


def cand(a, b, text, mac, rss_sim, verdict=Verdict.ACCEPTED) -> MatchCandidate:
    return MatchCandidate(a, b, text, WifiMatchScore(mac, 0.0, rss_sim), verdict)


@pytest.fixture()
def scored_world():
    kfs = [
        make_keyframe("a0", 0, 0.0, sign_id="s_a"),
        make_keyframe("a1", 0, 0.0, sign_id="s_a"),
        make_keyframe("a0", 1, 10.0, sign_id="s_d"),
        make_keyframe("a1", 1, 10.0, sign_id="s_d"),
        make_keyframe("a0", 2, 20.0, sign_id="s_b"),
        make_keyframe("a1", 2, 20.0, sign_id="s_c"),
    ]
    by_key = {kf.key: kf for kf in kfs}
    candidates = [
        # same sign, all gates pass: everyone's true positive
        cand(("a0", 0), ("a1", 0), 0.90, 0.90, 0.90),
        # different signs, text fooled, wifi not
        cand(("a0", 0), ("a0", 2), 0.85, 0.20, 0.90, Verdict.REJECTED_MAC),
        # same sign, text garbled, wifi still matches
        cand(("a0", 1), ("a1", 1), 0.50, 0.90, 0.90, Verdict.REJECTED_TEXT),
        # different signs, text sober, wifi fooled
        cand(("a0", 2), ("a1", 2), 0.30, 0.90, 0.90, Verdict.REJECTED_TEXT),
    ]
    return candidates, by_key


def test_per_modality_confusion_counts(scored_world):
    candidates, by_key = scored_world
    assert score_candidates(candidates, by_key, RunConfig().thresholds()) == {
        "candidate_count": 4,
        "true_pair_count": 2,
        "precision_recall": {
            "text_only": row(1, 1, 1, 0.5, 0.5),
            "wifi_only": row(2, 1, 0, 2 / 3, 1.0),
            "fused": row(1, 0, 1, 1.0, 0.5),
        },
    }


def test_zero_denominators_read_as_zero(scored_world):
    candidates, by_key = scored_world

    def rows(cands, thresholds) -> dict:
        return score_candidates(cands, by_key, thresholds)["precision_recall"]

    # One false pair that alpha = 1.0 keeps out: nothing accepted and no
    # true pair, so precision and recall both divide by zero.
    assert rows(candidates[1:2], Thresholds(1.0, 0.8, 0.8))["text_only"] == row(0, 0, 0, 0.0, 0.0)
    # Nothing accepted among two true pairs: precision divides by zero.
    assert rows(candidates, Thresholds(1.0, 1.0, 1.0))["fused"] == row(0, 0, 2, 0.0, 0.0)
    # Two false pairs, both accepted: recall divides by zero.
    false_pairs = [candidates[1], candidates[3]]
    assert rows(false_pairs, Thresholds(0.0, 0.0, 0.0))["fused"] == row(0, 2, 0, 0.0, 0.0)


def test_scoring_follows_the_verdict_when_no_access_point_is_shared():
    # With beta = gamma = 0 a pair whose fingerprints share no MAC still has
    # no RSS distance; the matcher rejects it, and scoring must agree.
    a = make_keyframe("a0", 0, 0.0, rss={"ap00": -50.0})
    b = make_keyframe("a1", 0, 0.0, rss={"ap01": -50.0})
    thresholds = Thresholds(alpha=0.8, beta=0.0, gamma=0.0)
    candidate = decide_match(a, b, thresholds)
    assert candidate.verdict is Verdict.REJECTED_MAC

    pr = score_candidates([candidate], {a.key: a, b.key: b}, thresholds)["precision_recall"]
    assert pr["text_only"] == row(1, 0, 0, 1.0, 1.0)
    assert pr["wifi_only"] == row(0, 0, 1, 0.0, 0.0)
    assert pr["fused"] == row(0, 0, 1, 0.0, 0.0)


def test_scoring_demands_ground_truth(scored_world):
    _, by_key = scored_world
    untagged = make_keyframe("a9", 0, 0.0, sign_id=None)
    by_key = {**by_key, untagged.key: untagged}
    rigged = [cand(("a0", 0), ("a9", 0), 0.9, 0.9, 0.9)]
    with pytest.raises(ValueError, match="lack ground-truth sign ids"):
        score_candidates(rigged, by_key, RunConfig().thresholds())
    with pytest.raises(ValueError, match="lack ground-truth sign ids"):
        threshold_sweep(rigged, by_key)


def thresholds_of(sweep_row: dict) -> Thresholds:
    return Thresholds(sweep_row["alpha"], sweep_row["beta"], sweep_row["gamma"])


def test_sweep_covers_the_grid_and_matches_single_scoring(scored_world):
    candidates, by_key = scored_world
    rows = threshold_sweep(candidates, by_key)
    assert len(rows) == 9
    assert [(r["alpha"], r["beta"], r["gamma"]) for r in rows[:4]] == [
        (0.5, 0.5, 0.5), (0.5, 0.8, 0.8), (0.5, 0.9, 0.9), (0.8, 0.5, 0.5)
    ]
    keys = {"alpha", "beta", "gamma", "text_only", "wifi_only", "fused"}
    assert all(set(r) == keys for r in rows)

    direct = score_candidates(candidates, by_key, Thresholds(0.8, 0.8, 0.8))
    assert rows[4] == {"alpha": 0.8, "beta": 0.8, "gamma": 0.8, **direct["precision_recall"]}

    strict = rows[-1]
    assert thresholds_of(strict) == Thresholds(alpha=1.0, beta=0.9, gamma=0.9)
    assert strict["text_only"] == row(0, 0, 2, 0.0, 0.0)  # nothing survives alpha = 1.0


def reference_score(candidates, by_key, th: Thresholds) -> dict:
    """The fused row, decided one candidate at a time from its keyframes."""
    tp = fp = fn = 0
    for c in candidates:
        truth = by_key[c.a].text_obs.sign_id_truth == by_key[c.b].text_obs.sign_id_truth
        accepted = c.text_score >= th.alpha and wifi_verdict(c.wifi_score, th) is Verdict.ACCEPTED
        tp += accepted and truth
        fp += accepted and not truth
        fn += truth and not accepted
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return row(tp, fp, fn, precision, recall)


def test_every_sweep_row_equals_scoring_at_its_thresholds(scored_world):
    plan, scripts = stage_generate(RunConfig(scenario="scene02"))
    keyframes = extract_all_keyframes(stage_simulate(plan, scripts))
    by_key = {kf.key: kf for kf in keyframes}
    candidates = match_all(keyframes, RunConfig().thresholds())
    for cands, keys in ((candidates, by_key), scored_world):
        rows = threshold_sweep(cands, keys)
        assert len(rows) == 9
        for sweep_row in rows:
            th = thresholds_of(sweep_row)
            scored = score_candidates(cands, keys, th)["precision_recall"]
            assert {k: sweep_row[k] for k in scored} == scored
            assert sweep_row["fused"] == reference_score(cands, keys, th)


def truth_recording(agent: str, samples) -> Recording:
    return Recording(
        agent_id=agent,
        truth=[TruthSample(t, Pose2(x, y, 0.0)) for t, x, y in samples],
    )


class TestEndPointError:
    ANCHORS = {"a0/start": (2.0, 3.0), "a2/end": (12.0, 8.0)}
    TRUTH = {
        ("a0", 0): Pose2(2.1, 3.0, 0.0),
        ("a0", 1): Pose2(6.0, 3.0, 0.0),
        ("a2", 0): Pose2(12.0, 8.3, 0.0),
    }

    def setup_method(self):
        self.initial = {
            ("a0", 0): Pose2(2.0, 3.0, 0.0),
            ("a0", 1): Pose2(6.5, 3.0, 0.0),
            ("a2", 0): Pose2(14.0, 9.0, 0.0),
        }
        self.optimized = {
            ("a0", 0): Pose2(2.0, 3.0, 0.0),
            ("a0", 1): Pose2(6.5, 3.0, 0.0),
            ("a2", 0): Pose2(11.0, 8.0, 0.0),
        }

    def epe(self, anchors=ANCHORS):
        return end_point_error(anchors, self.TRUTH, self.initial, self.optimized)

    def test_separation_compared_at_matched_keyframes(self):
        truth_sep = math.hypot(9.9, 5.3)
        base_e = abs(math.hypot(12.0, 6.0) - truth_sep)
        opt_e = abs(math.hypot(9.0, 5.0) - truth_sep)
        epe = self.epe()
        assert list(epe) == [
            "anchor_start", "anchor_end", "separation_truth_m",
            "epe_baseline_m", "epe_optimized_m", "epe_reduction_fraction",
        ]
        assert (epe["anchor_start"], epe["anchor_end"]) == ("a0/start", "a2/end")
        assert epe["separation_truth_m"] == pytest.approx(truth_sep, abs=1e-12)
        assert epe["epe_baseline_m"] == pytest.approx(base_e, abs=1e-12)
        assert epe["epe_optimized_m"] == pytest.approx(opt_e, abs=1e-12)
        assert epe["epe_reduction_fraction"] == pytest.approx((base_e - opt_e) / base_e)

    def test_perfect_estimate_scores_zero(self):
        self.optimized = dict(self.TRUTH)
        epe = self.epe()
        assert epe["epe_optimized_m"] == pytest.approx(0.0, abs=1e-12)
        assert epe["epe_reduction_fraction"] == pytest.approx(1.0)

    def test_a_perfect_baseline_reduces_nothing(self):
        self.initial = dict(self.TRUTH)
        assert self.epe()["epe_baseline_m"] == 0.0
        assert self.epe()["epe_reduction_fraction"] == 0.0

    @pytest.mark.parametrize(
        "anchors",
        [{}, {"a0/start": (2.0, 3.0)}, {"a2/end": (12.0, 8.0), "a0/middle": (6.0, 3.0)}],
        ids=["none", "start-only", "end-only"],
    )
    def test_a_plan_without_both_anchors_scores_nothing(self, anchors):
        assert self.epe(anchors) == {}

    @pytest.mark.parametrize("label", ["a0/start", "a2/end"])
    def test_two_labels_of_one_kind_name_both(self, label):
        twin = "a1/" + label.partition("/")[2]
        with pytest.raises(ValueError, match=f"'{label}', '{twin}'"):
            self.epe({**self.ANCHORS, twin: (6.0, 3.0)})

    def test_malformed_anchor_label(self):
        anchors = {"/start": (2.0, 3.0), "a2/end": (12.0, 8.0)}
        with pytest.raises(ValueError, match="agent/tag"):
            self.epe(anchors)

    def test_agent_without_recording(self):
        # An agent with no recording has no keyframe in the truth table.
        anchors = {"a9/start": (2.0, 3.0), "a2/end": (12.0, 8.0)}
        with pytest.raises(ValueError, match="'a9' has no keyframe within"):
            self.epe(anchors)

    def test_anchor_too_far_from_any_keyframe(self):
        far = {**self.ANCHORS, "a0/start": (2.0, 3.7)}  # 0.7 m off
        with pytest.raises(ValueError, match="within"):
            self.epe(far)

    def test_missing_estimated_pose(self):
        for poses in (self.initial, self.optimized):
            pose = poses.pop(("a2", 0))
            with pytest.raises(ValueError, match="missing"):
                self.epe()
            poses[("a2", 0)] = pose


class TestAbsoluteTrajectoryError:
    CORNERS = [(0.0, 0.0), (4.0, 0.0), (4.0, 3.0), (0.0, 3.0)]
    TRUTH = {("a0", i): Pose2(x, y, 0.0) for i, (x, y) in enumerate(CORNERS)}

    def ate(self, estimated):
        return absolute_trajectory_error(self.TRUTH, estimated)

    def test_a_rigidly_moved_truth_scores_zero(self):
        frame = Pose2(-7.0, 2.5, 2.0)
        moved = {key: compose(frame, pose) for key, pose in self.TRUTH.items()}
        assert self.ate(moved) == pytest.approx(0.0, abs=1e-12)

    def test_error_is_the_rms_after_the_best_alignment(self):
        # Opposite corners pushed out along the diagonal by 0.1 m each: the
        # centroid and heading stay, so the best alignment is the identity.
        d = 0.1 / math.hypot(4.0, 3.0)
        estimated = {
            ("a0", 0): Pose2(-4.0 * d, -3.0 * d, 0.0),
            ("a0", 1): Pose2(4.0, 0.0, 0.0),
            ("a0", 2): Pose2(4.0 + 4.0 * d, 3.0 + 3.0 * d, 0.0),
            ("a0", 3): Pose2(0.0, 3.0, 0.0),
        }
        assert self.ate(estimated) == pytest.approx(math.sqrt(2.0 * 0.01 / 4.0), abs=1e-12)

    def test_keyframes_without_an_estimate_are_left_out(self):
        estimated = {**self.TRUTH, ("a9", 0): Pose2(50.0, 50.0, 0.0)}
        del estimated[("a0", 3)]
        assert self.ate(estimated) == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(ValueError, match="two"):
            self.ate({("a0", 0): Pose2(0.0, 0.0, 0.0)})


def test_ate_and_epe_equal_their_per_keyframe_truth_lookups():
    # The truth table is built with one truths_at per agent; it must equal
    # one truths_at call per keyframe, in keyframe order, and the metrics
    # must equal their formulas over it.
    plan, scripts = stage_generate(RunConfig(scenario="scene01"))
    recordings = stage_simulate(plan, scripts)
    keyframes = extract_all_keyframes(recordings)
    truth = keyframe_truth(keyframes, recordings)
    expected = {kf.key: recordings[kf.agent_id].truths_at([kf.timestamp])[0] for kf in keyframes}
    assert list(truth.items()) == list(expected.items())
    estimated = {
        kf.key: Pose2(truth[kf.key].x + 0.01 * i, truth[kf.key].y - 0.02 * (i % 7), 0.0)
        for i, kf in enumerate(keyframes)
    }

    est = np.array([[estimated[kf.key].x, estimated[kf.key].y] for kf in keyframes])
    true_xy = np.array([[truth[kf.key].x, truth[kf.key].y] for kf in keyframes])
    theta, _, _, tx, ty = _rigid_fit(est, true_xy)
    aligned = transform_points(Pose2(tx, ty, theta), est)
    expected_ate = float(np.sqrt(np.mean(np.sum((aligned - true_xy) ** 2, axis=1))))
    assert absolute_trajectory_error(truth, estimated) == expected_ate

    def nearest(label):
        (x, y), agent = dict(plan.named_anchors)[label], label.partition("/")[0]
        own = [kf for kf in keyframes if kf.agent_id == agent]
        distance = [math.hypot(truth[kf.key].x - x, truth[kf.key].y - y) for kf in own]
        return own[distance.index(min(distance))].key

    def separation(poses, s, e):
        return math.hypot(poses[e].x - poses[s].x, poses[e].y - poses[s].y)

    start, end = (label for label, _ in plan.named_anchors)
    epe = end_point_error(dict(plan.named_anchors), truth, truth, estimated)
    s, e = nearest(start), nearest(end)
    assert (epe["anchor_start"], epe["anchor_end"]) == (start, end)
    assert epe["separation_truth_m"] == separation(truth, s, e)
    assert epe["epe_baseline_m"] == 0.0
    assert epe["epe_optimized_m"] == abs(separation(estimated, s, e) - separation(truth, s, e))


def test_travel_distance_sums_all_agents():
    recs = {
        "a0": truth_recording("a0", [(0.0, 0.0, 0.0), (1.0, 3.0, 4.0), (2.0, 3.0, 10.0)]),
        "a1": truth_recording("a1", [(0.0, 0.0, 0.0), (1.0, 0.0, 2.5)]),
    }
    assert travel_distance_m(recs) == pytest.approx(13.5)

"""Precision/recall scoring and end-point-error measurement."""

import math

import numpy as np
import pytest

from textwifi_slam.config import RunConfig
from textwifi_slam.evaluation import (
    PrMetrics,
    absolute_trajectory_error,
    end_point_error,
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


class TestPrMetrics:
    def test_arithmetic(self):
        m = PrMetrics(true_positives=3, false_positives=1, false_negatives=2)
        assert m.precision == pytest.approx(0.75)
        assert m.recall == pytest.approx(0.6)

    def test_zero_denominators_read_as_zero(self):
        assert PrMetrics(0, 0, 0).precision == 0.0
        assert PrMetrics(0, 0, 0).recall == 0.0
        assert PrMetrics(0, 0, 5).precision == 0.0
        assert PrMetrics(0, 3, 0).recall == 0.0


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
    report = score_candidates(candidates, by_key, RunConfig().thresholds())
    assert report.candidate_count == 4
    assert report.positive_count == 2
    assert report.text_only == PrMetrics(1, 1, 1)
    assert report.wifi_only == PrMetrics(2, 1, 0)
    assert report.fused == PrMetrics(1, 0, 1)
    assert report.fused.precision == 1.0
    assert report.text_only.precision == 0.5


def test_scoring_follows_the_verdict_when_no_access_point_is_shared():
    # With beta = gamma = 0 a pair whose fingerprints share no MAC still has
    # no RSS distance; the matcher rejects it, and scoring must agree.
    a = make_keyframe("a0", 0, 0.0, rss={"ap00": -50.0})
    b = make_keyframe("a1", 0, 0.0, rss={"ap01": -50.0})
    thresholds = Thresholds(alpha=0.8, beta=0.0, gamma=0.0)
    candidate = decide_match(a, b, thresholds)
    assert candidate.verdict is Verdict.REJECTED_MAC

    report = score_candidates([candidate], {a.key: a, b.key: b}, thresholds)
    assert report.text_only == PrMetrics(1, 0, 0)
    assert report.wifi_only == PrMetrics(0, 0, 1)
    assert report.fused == PrMetrics(0, 0, 1)


def test_scoring_demands_ground_truth(scored_world):
    _, by_key = scored_world
    untagged = make_keyframe("a9", 0, 0.0, sign_id=None)
    by_key = {**by_key, untagged.key: untagged}
    rigged = [cand(("a0", 0), ("a9", 0), 0.9, 0.9, 0.9)]
    with pytest.raises(ValueError):
        score_candidates(rigged, by_key, RunConfig().thresholds())


def test_sweep_covers_the_grid_and_matches_single_scoring(scored_world):
    candidates, by_key = scored_world
    rows = dict(threshold_sweep(candidates, by_key))
    assert len(rows) == 9
    assert [(th.alpha, th.beta) for th in list(rows)[:3]] == [(0.5, 0.5), (0.5, 0.8), (0.5, 0.9)]

    direct = score_candidates(candidates, by_key, Thresholds(0.8, 0.8, 0.8))
    assert rows[Thresholds(0.8, 0.8, 0.8)] == direct

    strict = rows[Thresholds(alpha=1.0, beta=0.9, gamma=0.9)]
    assert strict.text_only == PrMetrics(0, 0, 2)  # nothing survives alpha = 1.0


def reference_score(candidates, by_key, th: Thresholds) -> PrMetrics:
    """The fused row, decided one candidate at a time from its keyframes."""
    tp = fp = fn = 0
    for c in candidates:
        truth = by_key[c.a].text_obs.sign_id_truth == by_key[c.b].text_obs.sign_id_truth
        accepted = c.text_score >= th.alpha and wifi_verdict(c.wifi_score, th) is Verdict.ACCEPTED
        tp += accepted and truth
        fp += accepted and not truth
        fn += truth and not accepted
    return PrMetrics(tp, fp, fn)


def test_every_sweep_row_equals_scoring_at_its_thresholds(scored_world):
    plan, scripts = stage_generate(RunConfig(scenario="scene02"))
    keyframes = extract_all_keyframes(stage_simulate(plan, scripts))
    by_key = {kf.key: kf for kf in keyframes}
    candidates = match_all(keyframes, RunConfig().thresholds())
    for cands, keys in ((candidates, by_key), scored_world):
        rows = threshold_sweep(cands, keys)
        assert len(rows) == 9
        for th, report in rows:
            assert report == score_candidates(cands, keys, th)
            assert report.fused == reference_score(cands, keys, th)


def truth_recording(agent: str, samples) -> Recording:
    return Recording(
        agent_id=agent,
        truth=[TruthSample(t, Pose2(x, y, 0.0)) for t, x, y in samples],
    )


class TestEndPointError:
    ANCHORS = {"a0/start": (2.0, 3.0), "a2/end": (12.0, 8.0)}

    def setup_method(self):
        self.keyframes = [
            make_keyframe("a0", 0, 0.0),
            make_keyframe("a0", 1, 5.0),
            make_keyframe("a2", 0, 7.0),
        ]
        self.recordings = {
            "a0": truth_recording("a0", [(0.0, 2.1, 3.0), (5.0, 6.0, 3.0)]),
            "a2": truth_recording("a2", [(7.0, 12.0, 8.3)]),
        }
        self.estimated = {
            ("a0", 0): Pose2(2.0, 3.0, 0.0),
            ("a0", 1): Pose2(6.5, 3.0, 0.0),
            ("a2", 0): Pose2(11.0, 8.0, 0.0),
        }

    def report(self):
        return end_point_error(
            self.ANCHORS, "a0/start", "a2/end",
            self.keyframes, self.recordings, self.estimated,
        )

    def test_separation_compared_at_matched_keyframes(self):
        report = self.report()
        assert report.node_start == ("a0", 0)
        assert report.node_end == ("a2", 0)
        assert report.truth_separation_m == pytest.approx(math.hypot(9.9, 5.3), abs=1e-12)
        assert report.estimated_separation_m == pytest.approx(math.hypot(9.0, 5.0), abs=1e-12)
        assert report.end_point_error_m == pytest.approx(
            abs(math.hypot(9.0, 5.0) - math.hypot(9.9, 5.3)), abs=1e-12
        )

    def test_perfect_estimate_scores_zero(self):
        self.estimated[("a0", 0)] = Pose2(2.1, 3.0, 0.0)
        self.estimated[("a2", 0)] = Pose2(12.0, 8.3, 0.0)
        assert self.report().end_point_error_m == pytest.approx(0.0, abs=1e-12)

    def test_unknown_anchor_label(self):
        with pytest.raises(ValueError):
            end_point_error(
                self.ANCHORS, "a0/start", "a5/nowhere",
                self.keyframes, self.recordings, self.estimated,
            )

    def test_malformed_anchor_label(self):
        anchors = dict(self.ANCHORS, badlabel=(1.0, 1.0))
        with pytest.raises(ValueError, match="agent/tag"):
            end_point_error(
                anchors, "badlabel", "a2/end",
                self.keyframes, self.recordings, self.estimated,
            )

    def test_agent_without_recording(self):
        anchors = {**self.ANCHORS, "a9/start": (0.0, 0.0)}
        with pytest.raises(ValueError, match="no recording"):
            end_point_error(
                anchors, "a9/start", "a2/end",
                self.keyframes, self.recordings, self.estimated,
            )

    def test_anchor_too_far_from_any_keyframe(self):
        far = {**self.ANCHORS, "a0/start": (2.0, 3.7)}  # 0.7 m off
        with pytest.raises(ValueError, match="within"):
            end_point_error(
                far, "a0/start", "a2/end",
                self.keyframes, self.recordings, self.estimated,
            )

    def test_missing_estimated_pose(self):
        del self.estimated[("a2", 0)]
        with pytest.raises(ValueError, match="missing"):
            self.report()


class TestAbsoluteTrajectoryError:
    TRUTH = [(0.0, 0.0, 0.0), (1.0, 4.0, 0.0), (2.0, 4.0, 3.0), (3.0, 0.0, 3.0)]

    def setup_method(self):
        self.keyframes = [make_keyframe("a0", i, t) for i, (t, _, _) in enumerate(self.TRUTH)]
        self.recordings = {"a0": truth_recording("a0", self.TRUTH)}

    def ate(self, estimated):
        return absolute_trajectory_error(self.keyframes, self.recordings, estimated)

    def test_a_rigidly_moved_truth_scores_zero(self):
        frame = Pose2(-7.0, 2.5, 2.0)
        moved = {
            kf.key: compose(frame, Pose2(x, y, 0.0))
            for kf, (_, x, y) in zip(self.keyframes, self.TRUTH)
        }
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
        estimated = {kf.key: Pose2(x, y, 0.0) for kf, (_, x, y) in zip(self.keyframes, self.TRUTH)}
        del estimated[("a0", 3)]
        assert self.ate(estimated) == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(ValueError, match="two"):
            self.ate({("a0", 0): Pose2(0.0, 0.0, 0.0)})


def test_ate_and_epe_equal_their_per_keyframe_truth_lookups():
    # Truth poses are looked up with one truths_at per agent; the metrics
    # must equal the same formulas fed one truths_at call per keyframe.
    plan, scripts = stage_generate(RunConfig(scenario="scene01"))
    recordings = stage_simulate(plan, scripts)
    keyframes = extract_all_keyframes(recordings)
    truth = {kf.key: recordings[kf.agent_id].truths_at([kf.timestamp])[0] for kf in keyframes}
    estimated = {
        kf.key: Pose2(truth[kf.key].x + 0.01 * i, truth[kf.key].y - 0.02 * (i % 7), 0.0)
        for i, kf in enumerate(keyframes)
    }

    est = np.array([[estimated[kf.key].x, estimated[kf.key].y] for kf in keyframes])
    true_xy = np.array([[truth[kf.key].x, truth[kf.key].y] for kf in keyframes])
    theta, _, _, tx, ty = _rigid_fit(est, true_xy)
    aligned = transform_points(Pose2(tx, ty, theta), est)
    expected_ate = float(np.sqrt(np.mean(np.sum((aligned - true_xy) ** 2, axis=1))))
    assert absolute_trajectory_error(keyframes, recordings, estimated) == expected_ate

    def nearest(label):
        (x, y), agent = dict(plan.named_anchors)[label], label.partition("/")[0]
        own = [kf for kf in keyframes if kf.agent_id == agent]
        distance = [math.hypot(truth[kf.key].x - x, truth[kf.key].y - y) for kf in own]
        return own[distance.index(min(distance))].key

    start, end = (label for label, _ in plan.named_anchors)
    report = end_point_error(
        dict(plan.named_anchors), start, end, keyframes, recordings, estimated
    )
    s, e = nearest(start), nearest(end)
    assert (report.node_start, report.node_end) == (s, e)
    assert report.truth_separation_m == math.hypot(
        truth[e].x - truth[s].x, truth[e].y - truth[s].y
    )
    assert report.estimated_separation_m == math.hypot(
        estimated[e].x - estimated[s].x, estimated[e].y - estimated[s].y
    )


def test_travel_distance_sums_all_agents():
    recs = {
        "a0": truth_recording("a0", [(0.0, 0.0, 0.0), (1.0, 3.0, 4.0), (2.0, 3.0, 10.0)]),
        "a1": truth_recording("a1", [(0.0, 0.0, 0.0), (1.0, 0.0, 2.5)]),
    }
    assert travel_distance_m(recs) == pytest.approx(13.5)

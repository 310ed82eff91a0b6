"""Precision/recall scoring and end-point-error measurement."""

import math

import pytest

from textwifi_slam.evaluation import (
    PrMetrics,
    end_point_error,
    score_candidates,
    threshold_sweep,
    travel_distance_m,
)
from textwifi_slam.geometry import Pose2
from textwifi_slam.place_recognition import MatchCandidate, Thresholds, Verdict, decide_match
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
    report = score_candidates(candidates, by_key, Thresholds())
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
        score_candidates(rigged, by_key, Thresholds())

    textless = make_keyframe("a8", 0, 0.0, text=None)
    by_key[textless.key] = textless
    with pytest.raises(ValueError):
        score_candidates([cand(("a0", 0), ("a8", 0), 0.9, 0.9, 0.9)], by_key, Thresholds())


def test_sweep_covers_the_grid_and_matches_single_scoring(scored_world):
    candidates, by_key = scored_world
    rows = threshold_sweep(candidates, by_key)
    assert len(rows) == 9
    assert [(r.alpha, r.beta) for r in rows[:3]] == [(0.5, 0.5), (0.5, 0.8), (0.5, 0.9)]

    middle = next(r for r in rows if (r.alpha, r.beta, r.gamma) == (0.8, 0.8, 0.8))
    direct = score_candidates(candidates, by_key, Thresholds(0.8, 0.8, 0.8))
    assert middle.text_only == direct.text_only
    assert middle.wifi_only == direct.wifi_only
    assert middle.fused == direct.fused

    strict = next(r for r in rows if r.alpha == 1.0 and r.beta == 0.9)
    assert strict.text_only == PrMetrics(0, 0, 2)  # nothing survives alpha = 1.0


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

    def report(self, **kwargs):
        return end_point_error(
            self.ANCHORS, "a0/start", "a2/end",
            self.keyframes, self.recordings, self.estimated, **kwargs
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
        self.ANCHORS = far
        assert self.report(max_anchor_distance_m=1.0).node_start == ("a0", 0)

    def test_missing_estimated_pose(self):
        del self.estimated[("a2", 0)]
        with pytest.raises(ValueError, match="missing"):
            self.report()


def test_travel_distance_sums_all_agents():
    recs = {
        "a0": truth_recording("a0", [(0.0, 0.0, 0.0), (1.0, 3.0, 4.0), (2.0, 3.0, 10.0)]),
        "a1": truth_recording("a1", [(0.0, 0.0, 0.0), (1.0, 0.0, 2.5)]),
    }
    assert travel_distance_m(recs) == pytest.approx(13.5)

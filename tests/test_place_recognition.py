"""Keyframe extraction and the text/WiFi gate cascade."""

import dataclasses
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from textwifi_slam import place_recognition, text_matching
from textwifi_slam.config import RunConfig, config_for_scenario
from textwifi_slam.pipeline import extract_all_keyframes, stage_generate, stage_simulate
from textwifi_slam.place_recognition import (
    MatchCandidate,
    Thresholds,
    Verdict,
    decide_match,
    extract_keyframes,
    generate_candidates,
    group_visits,
    match_all,
    verified_locations,
    wifi_verdict,
)
from textwifi_slam.simulate import AgentScript, simulate_recording
from textwifi_slam.text_matching import edit_distances, text_similarity
from textwifi_slam.wifi import WifiMatchScore, build_fingerprint
from textwifi_slam.world import generate_floorplan

from conftest import make_keyframe, per_pair_wifi_score


@pytest.fixture(scope="module")
def recording():
    plan = generate_floorplan(0, seed=5)
    script = AgentScript(
        agent_id="a0",
        waypoints=(((1.5, 1.5), 0.0), ((10.5, 1.5), 2.0), ((1.5, 1.5), 0.0)),
        seed=11,
    )
    return simulate_recording(plan, script)


def test_one_keyframe_per_text_observation(recording):
    keyframes = extract_keyframes(recording)
    assert len(keyframes) == len(recording.texts)
    assert [kf.keyframe_id for kf in keyframes] == list(range(len(keyframes)))
    assert all(kf.agent_id == "a0" for kf in keyframes)


def test_keyframes_are_anchored_at_scan_instants(recording):
    scan_times = {s.timestamp for s in recording.scans}
    for kf, obs in zip(extract_keyframes(recording), recording.texts):
        assert kf.timestamp in scan_times
        # Nearest scan to the detection, never more than half a period off.
        assert abs(kf.timestamp - obs.timestamp) <= 0.5 + 1e-9


def test_fingerprint_windows_center_on_the_scan_anchor(recording):
    half = place_recognition.FINGERPRINT_WINDOW_S / 2.0
    for kf in extract_keyframes(recording):
        nearby = [w for w in recording.wifi if abs(w.timestamp - kf.timestamp) <= half + 1e-9]
        expected = build_fingerprint(nearby, location_id=kf.fingerprint.location_id)
        assert kf.fingerprint == expected


def test_keyframe_pose_comes_from_integrated_odometry(recording):
    from textwifi_slam.simulate import integrate_odometry

    trail = dict(integrate_odometry(recording))
    for kf in extract_keyframes(recording):
        assert kf.odom_pose == trail[kf.timestamp]


def test_candidate_pairing_rules():
    assert place_recognition.MIN_LOOP_SEPARATION_S == 30.0
    kfs = [
        make_keyframe("a0", 0, 0.0),
        make_keyframe("a0", 1, 10.0),
        make_keyframe("a0", 2, 50.0),
        make_keyframe("a1", 0, 5.0),
        make_keyframe("a1", 1, 100.0),
    ]
    pairs = generate_candidates(kfs)
    keys = {(a.key, b.key) for a, b in pairs}
    # Same agent: only revisits separated by at least the loop gap.
    assert (("a0", 0), ("a0", 1)) not in keys
    assert (("a0", 0), ("a0", 2)) in keys
    assert (("a0", 1), ("a0", 2)) in keys
    assert (("a1", 0), ("a1", 1)) in keys
    # Cross agent: every pair qualifies.
    cross = {k for k in keys if k[0][0] != k[1][0]}
    assert len(cross) == 6
    assert len(keys) == 9


def test_gate_cascade_verdicts():
    th = Thresholds(alpha=0.8, beta=0.8, gamma=0.8)
    base = dict(rss={"ap00": -50.0, "ap01": -60.0})
    a = make_keyframe("a0", 0, 0.0, text="ROOM A-101", **base)

    same = make_keyframe("a1", 0, 0.0, text="ROOM A-101", **base)
    assert decide_match(a, same, th).verdict == Verdict.ACCEPTED

    other_text = make_keyframe("a1", 1, 0.0, text="FIRE EXIT", **base)
    out = decide_match(a, other_text, th)
    assert out.verdict == Verdict.REJECTED_TEXT
    assert out.wifi_score.rss_distance_db == 0.0  # WiFi still scored

    other_macs = make_keyframe(
        "a1", 2, 0.0, text="ROOM A-101", rss={"ap07": -50.0, "ap08": -60.0}
    )
    assert decide_match(a, other_macs, th).verdict == Verdict.REJECTED_MAC

    far_rss = make_keyframe(
        "a1", 3, 0.0, text="ROOM A-101", rss={"ap00": -20.0, "ap01": -90.0}
    )
    out = decide_match(a, far_rss, th)
    assert out.verdict == Verdict.REJECTED_RSS
    assert out.wifi_score.mac_similarity == 1.0


def test_wifi_verdict_thresholds_are_inclusive():
    th = Thresholds(alpha=0.8, beta=0.6, gamma=0.7)
    below_beta, below_gamma = math.nextafter(0.6, 0.0), math.nextafter(0.7, 0.0)
    assert wifi_verdict(WifiMatchScore(0.6, 3.0, 0.9), th) is Verdict.ACCEPTED
    assert wifi_verdict(WifiMatchScore(0.9, 3.0, 0.7), th) is Verdict.ACCEPTED
    assert wifi_verdict(WifiMatchScore(below_beta, 3.0, 0.9), th) is Verdict.REJECTED_MAC
    assert wifi_verdict(WifiMatchScore(0.9, 3.0, below_gamma), th) is Verdict.REJECTED_RSS

    # No shared access point: no RSS distance, and no threshold lets it through.
    open_gates = Thresholds(alpha=0.0, beta=0.0, gamma=0.0)
    no_overlap = WifiMatchScore(0.0, math.inf, 0.0)
    assert wifi_verdict(no_overlap, open_gates) is Verdict.REJECTED_MAC


def test_gate_scores_are_symmetric():
    th = RunConfig().thresholds()
    a = make_keyframe("a0", 0, 0.0, rss={"ap00": -48.0, "ap02": -66.0})
    b = make_keyframe("a1", 0, 0.0, rss={"ap00": -51.0, "ap01": -70.0})
    ab, ba = decide_match(a, b, th), decide_match(b, a, th)
    assert ab.verdict == ba.verdict
    assert ab.text_score == ba.text_score
    assert ab.wifi_score == ba.wifi_score


def test_full_scoring_mode_matches_operational_verdicts():
    # A pair the text gate rejects still carries finite WiFi scores, and
    # the text gate still names the rejection although WiFi would accept.
    th = RunConfig().thresholds()
    a = make_keyframe("a0", 0, 0.0, text="STAIR B", sign_id="s1")
    b = make_keyframe("a1", 0, 0.0, text="LIFT LOBBY", sign_id="s2")
    out = decide_match(a, b, th)
    assert out.verdict == Verdict.REJECTED_TEXT
    assert out.wifi_score.mac_similarity == 1.0
    assert out.wifi_score.rss_distance_db == 0.0  # identical default fingerprints
    assert out.wifi_score.rss_similarity == 1.0


def test_match_all_is_deterministic():
    th = RunConfig().thresholds()
    kfs = [make_keyframe(f"a{i}", 0, float(i)) for i in range(4)]
    first = match_all(kfs, th)
    second = match_all(kfs, th)
    assert first == second
    assert [c.a for c in first] == sorted(c.a for c in first)


def scene_keyframes(scene: str, seed: int):
    cfg = config_for_scenario(scene, seed=seed)
    return extract_all_keyframes(stage_simulate(*stage_generate(cfg))), cfg.thresholds()


@pytest.fixture(scope="module")
def scene02_keyframes():
    return scene_keyframes("scene02", 0)[0]


def per_pair_candidate(a, b, th: Thresholds) -> MatchCandidate:
    """The gate cascade one pair at a time, one call per gate: the rule
    the batch scorer must reproduce to the last bit."""
    text_score = text_similarity(a.text_obs.text, b.text_obs.text)
    wifi_score = per_pair_wifi_score(a.fingerprint, b.fingerprint)
    verdict = wifi_verdict(wifi_score, th) if text_score >= th.alpha else Verdict.REJECTED_TEXT
    return MatchCandidate(a.key, b.key, text_score, wifi_score, verdict)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("scene", ["scene01", "scene02"])
def test_match_all_equals_the_per_pair_rule(scene, seed):
    keyframes, th = scene_keyframes(scene, seed)
    expected = [per_pair_candidate(a, b, th) for a, b in generate_candidates(keyframes)]
    # repr tells apart floats that == does not (0.0 and -0.0).
    assert [repr(c) for c in match_all(keyframes, th)] == [repr(c) for c in expected]


random_keyframe = st.tuples(
    st.sampled_from(["a0", "a1"]),
    st.floats(0.0, 100.0),
    st.text(alphabet="abAB -ß", min_size=1, max_size=6),
    st.dictionaries(st.sampled_from(["m0", "m1", "m2", "m3"]), st.floats(-120.0, 0.0)),
)


@given(
    st.lists(random_keyframe, max_size=8),
    st.tuples(*[st.floats(0.0, 1.0)] * 3).map(lambda t: Thresholds(*t)),
)
@example([("a0", 0.0, "Exit", {}), ("a1", 1.0, "EXIT", {})], Thresholds(0.5, 0.0, 0.0))
@example(
    [("a0", 0.0, "ROOM", {"m1": -50.0}), ("a0", 90.0, "room", {"m1": -51.0, "m2": -60.0})],
    Thresholds(1.0, 0.5, 0.9),
)
def test_match_all_equals_the_per_pair_rule_on_random_keyframes(specs, th):
    keyframes = [
        make_keyframe(agent, k, t, text=text, rss=rss)
        for k, (agent, t, text, rss) in enumerate(specs)
    ]
    expected = [per_pair_candidate(a, b, th) for a, b in generate_candidates(keyframes)]
    assert [repr(c) for c in match_all(keyframes, th)] == [repr(c) for c in expected]


def test_decide_match_raises_on_two_empty_texts():
    a, b = make_keyframe("a0", 0, 0.0, text=""), make_keyframe("a1", 0, 0.0, text="")
    with pytest.raises(ValueError, match="two empty strings"):
        decide_match(a, b, RunConfig().thresholds())


def test_match_all_equals_decide_match_on_every_candidate(scene02_keyframes):
    th = RunConfig().thresholds()
    expected = [decide_match(a, b, th) for a, b in generate_candidates(scene02_keyframes)]
    assert match_all(scene02_keyframes, th) == expected


def test_match_all_scores_each_text_pair_once(scene02_keyframes, monkeypatch):
    # The edit-distance DP runs once per call, and in it each distinct
    # text pair, upper-cased and unordered, comes up exactly once.
    batches = []

    def recording(pairs):
        batches.append(list(pairs))
        return edit_distances(pairs)

    monkeypatch.setattr(text_matching, "edit_distances", recording)
    candidates = match_all(scene02_keyframes, RunConfig().thresholds())
    texts = {kf.key: kf.text_obs.text.upper() for kf in scene02_keyframes}
    (dp_pairs,) = batches
    unordered = [tuple(sorted(pair)) for pair in dp_pairs]
    assert len(set(unordered)) == len(dp_pairs)
    assert set(unordered) == {tuple(sorted((texts[c.a], texts[c.b]))) for c in candidates}
    assert len(dp_pairs) < len(candidates)


def test_extract_rejects_out_of_order_wifi(recording):
    shuffled = dataclasses.replace(recording, wifi=recording.wifi[::-1])
    with pytest.raises(ValueError, match="a0: wifi timestamps are out of order"):
        extract_keyframes(shuffled)


def test_extract_rejects_out_of_order_scans(recording):
    shuffled = dataclasses.replace(recording, scans=recording.scans[::-1])
    with pytest.raises(ValueError, match="a0: scan timestamps are out of order"):
        extract_keyframes(shuffled)


def test_extract_rejects_out_of_order_odometry(recording):
    shuffled = dataclasses.replace(recording, odometry=recording.odometry[::-1])
    with pytest.raises(ValueError, match="a0: odometry timestamps are out of order"):
        extract_keyframes(shuffled)


def test_verified_locations_groups_accepted_pairs():
    th = RunConfig().thresholds()
    kfs = {
        "a": make_keyframe("a0", 0, 0.0),
        "b": make_keyframe("a1", 0, 0.0),
        "c": make_keyframe("a2", 0, 0.0),
        "d": make_keyframe("a3", 0, 0.0, text="FIRE EXIT", sign_id="s9"),
    }
    candidates = match_all(list(kfs.values()), th)
    groups = verified_locations(candidates)
    assert groups == [[("a0", 0), ("a1", 0), ("a2", 0)]]


def test_verified_locations_empty_input():
    assert verified_locations([]) == []


class TestGroupVisits:
    """An agent's consecutive keyframes form one visit until a gap or a new text."""

    def test_a_gap_of_the_visit_gap_or_more_starts_a_visit(self):
        gap = place_recognition.VISIT_GAP_S
        times = [0.0, 4.0, 4.0 + gap - 1e-6, 4.0 + 2.0 * gap, 50.0]
        kfs = [make_keyframe("a0", i, t) for i, t in enumerate(times)]
        visit = group_visits(kfs, alpha=0.8)
        assert [visit[kf.key] for kf in kfs] == [
            ("a0", 0), ("a0", 0), ("a0", 0), ("a0", 3), ("a0", 4)
        ]

    def test_a_text_below_alpha_starts_a_visit(self):
        kfs = [
            make_keyframe("a0", 0, 0.0, text="ROOM A-101"),
            make_keyframe("a0", 1, 1.0, text="ROOM A-1O1"),  # a misread still passes alpha
            make_keyframe("a0", 2, 2.0, text="FIRE EXIT", sign_id="s9"),
            make_keyframe("a0", 3, 3.0, text="FIRE EXIT", sign_id="s9"),
        ]
        assert text_similarity("ROOM A-101", "ROOM A-1O1") >= 0.8
        visit = group_visits(kfs, alpha=0.8)
        assert [visit[kf.key] for kf in kfs] == [("a0", 0), ("a0", 0), ("a0", 2), ("a0", 2)]
        # With alpha above the misread's score it starts a visit of its own.
        strict = group_visits(kfs, alpha=1.0)
        assert [strict[kf.key] for kf in kfs] == [("a0", 0), ("a0", 1), ("a0", 2), ("a0", 2)]

    def test_agents_never_share_a_visit(self):
        kfs = [make_keyframe("a1", 0, 0.5), make_keyframe("a0", 0, 0.0)]
        assert group_visits(kfs, alpha=0.8) == {("a0", 0): ("a0", 0), ("a1", 0): ("a1", 0)}

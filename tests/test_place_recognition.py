"""Keyframe extraction and the text/WiFi gate cascade."""

import pytest

from textwifi_slam.place_recognition import (
    Thresholds,
    Verdict,
    decide_match,
    extract_keyframes,
    generate_candidates,
    match_all,
    verified_locations,
)
from textwifi_slam.simulate import AgentScript, simulate_recording
from textwifi_slam.wifi import build_fingerprint
from textwifi_slam.world import CorridorTemplate, generate_floorplan

from conftest import make_keyframe


@pytest.fixture(scope="module")
def recording():
    plan = generate_floorplan(CorridorTemplate(room_count=2), 0, 4, seed=5)
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
    window_s = 3.0
    for kf in extract_keyframes(recording, fingerprint_window_s=window_s):
        nearby = [
            w for w in recording.wifi
            if abs(w.timestamp - kf.timestamp) <= window_s / 2.0 + 1e-9
        ]
        expected = build_fingerprint(nearby, location_id=kf.fingerprint.location_id)
        assert kf.fingerprint == expected


def test_keyframe_pose_comes_from_integrated_odometry(recording):
    from textwifi_slam.simulate import integrate_odometry

    trail = dict(integrate_odometry(recording))
    for kf in extract_keyframes(recording):
        assert kf.odom_pose == trail[kf.timestamp]


def test_extract_rejects_bad_window(recording):
    with pytest.raises(ValueError):
        extract_keyframes(recording, fingerprint_window_s=0.0)


def test_candidate_pairing_rules():
    th = Thresholds(min_loop_separation_s=30.0)
    kfs = [
        make_keyframe("a0", 0, 0.0),
        make_keyframe("a0", 1, 10.0),
        make_keyframe("a0", 2, 50.0),
        make_keyframe("a1", 0, 5.0),
        make_keyframe("a1", 1, 100.0),
    ]
    pairs = generate_candidates(kfs, th)
    keys = {(a.key, b.key) for a, b in pairs}
    # Same agent: only revisits separated by at least the loop gap.
    assert (("a0", 0), ("a0", 1)) not in keys
    assert (("a0", 0), ("a0", 2)) in keys
    assert (("a0", 1), ("a0", 2)) in keys
    assert (("a1", 0), ("a1", 1)) in keys
    # Cross agent: every text-bearing pair qualifies.
    cross = {k for k in keys if k[0][0] != k[1][0]}
    assert len(cross) == 6
    assert len(keys) == 9


def test_candidates_skip_textless_keyframes():
    th = Thresholds()
    kfs = [make_keyframe("a0", 0, 0.0), make_keyframe("a1", 0, 0.0, text=None)]
    assert generate_candidates(kfs, th) == []


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
    out = decide_match(a, far_rss, th, sigma_scale_db=10.0)
    assert out.verdict == Verdict.REJECTED_RSS
    assert out.wifi_score.mac_similarity == 1.0


def test_gate_scores_are_symmetric():
    th = Thresholds()
    a = make_keyframe("a0", 0, 0.0, rss={"ap00": -48.0, "ap02": -66.0})
    b = make_keyframe("a1", 0, 0.0, rss={"ap00": -51.0, "ap01": -70.0})
    ab, ba = decide_match(a, b, th), decide_match(b, a, th)
    assert ab.verdict == ba.verdict
    assert ab.text_score == ba.text_score
    assert ab.wifi_score == ba.wifi_score


def test_full_scoring_mode_matches_operational_verdicts():
    # A pair the text gate rejects still carries finite WiFi scores, and
    # the text gate still names the rejection although WiFi would accept.
    th = Thresholds()
    a = make_keyframe("a0", 0, 0.0, text="STAIR B", sign_id="s1")
    b = make_keyframe("a1", 0, 0.0, text="LIFT LOBBY", sign_id="s2")
    out = decide_match(a, b, th)
    assert out.verdict == Verdict.REJECTED_TEXT
    assert out.wifi_score.mac_similarity == 1.0
    assert out.wifi_score.rss_distance_db == 0.0  # identical default fingerprints
    assert out.wifi_score.rss_similarity == 1.0


def test_decide_match_requires_text():
    th = Thresholds()
    a = make_keyframe("a0", 0, 0.0)
    b = make_keyframe("a1", 0, 0.0, text=None)
    with pytest.raises(ValueError):
        decide_match(a, b, th)


def test_match_all_is_deterministic():
    th = Thresholds()
    kfs = [make_keyframe(f"a{i}", 0, float(i)) for i in range(4)]
    first = match_all(kfs, th)
    second = match_all(kfs, th)
    assert first == second
    assert [c.a for c in first] == sorted(c.a for c in first)


def test_verified_locations_groups_accepted_pairs():
    th = Thresholds()
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

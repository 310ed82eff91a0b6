"""Simulator behaviour: determinism, noise models, sensor cadence."""

import math
from typing import Optional

import numpy as np
import pytest

from textwifi_slam.geometry import Pose2, relative_pose
from textwifi_slam.scenarios import scripted_scenario
from textwifi_slam.simulate import (
    _BEAM_ANGLES,
    _SCAN_EVERY,
    _WIFI_EVERY,
    SCAN_MAX_RANGE_M,
    OCR_P_DEL,
    OCR_P_INS,
    OCR_P_SUB,
    ODOM_SIGMA_ROT_PER_RAD,
    ODOM_SIGMA_TRANS_PER_M,
    SCAN_SIGMA_M,
    TEXT_ATTEMPT_COOLDOWN_S,
    TEXT_DETECTION_HALF_ANGLE_RAD,
    TEXT_DETECTION_PROB,
    TEXT_DETECTION_RANGE_M,
    TICK_S,
    WIFI_SENSITIVITY_DBM,
    WIFI_SIGMA_DB,
    AgentScript,
    OdometryStep,
    Recording,
    ScanEvent,
    TruthSample,
    _build_phases,
    _pose_in_phase,
    _sign_attempts,
    integrate_odometry,
    nearest_index,
    simulate_recording,
)
from textwifi_slam.text_matching import TextObservation, corrupt_text
from textwifi_slam.wifi import WifiScan, predicted_rss
from textwifi_slam.world import FloorPlan, count_wall_crossings, generate_floorplan, raycast

OUT_AND_BACK = (
    ((1.5, 1.5), 0.0),
    ((10.5, 1.5), 2.0),
    ((1.5, 1.5), 0.0),
)


@pytest.fixture(scope="module")
def small_plan():
    return generate_floorplan(0, seed=5)


def script(**kwargs) -> AgentScript:
    defaults = dict(agent_id="a0", waypoints=OUT_AND_BACK, seed=11)
    defaults.update(kwargs)
    return AgentScript(**defaults)


@pytest.fixture(scope="module")
def noisy_recording(small_plan) -> Recording:
    return simulate_recording(small_plan, script())


@pytest.fixture(scope="module")
def clean_recording(small_plan) -> Recording:
    return simulate_recording(small_plan, script(noisy=False))


def test_simulation_is_deterministic(small_plan, noisy_recording):
    again = simulate_recording(small_plan, script())
    assert again.truth == noisy_recording.truth
    assert again.odometry == noisy_recording.odometry
    assert again.scans == noisy_recording.scans
    assert again.wifi == noisy_recording.wifi
    assert again.texts == noisy_recording.texts


def test_different_seed_changes_noise(small_plan, noisy_recording):
    other = simulate_recording(small_plan, script(seed=12))
    assert other.truth == noisy_recording.truth  # truth is noise-free
    assert other.odometry != noisy_recording.odometry


def test_zero_noise_odometry_tracks_truth(clean_recording):
    trail = integrate_odometry(clean_recording)
    final_t, final_pose = trail[-1]
    truth = clean_recording.truths_at([final_t])[0]
    assert math.hypot(final_pose.x - truth.x, final_pose.y - truth.y) < 1e-9
    assert abs(final_pose.theta - truth.theta) < 1e-9


def test_a_noise_free_recording_senses_exactly_the_truth(small_plan, clean_recording):
    poses = [s.pose for s in clean_recording.truth]
    for step, a, b in zip(clean_recording.odometry, poses, poses[1:]):
        true = relative_pose(a, b)
        assert (step.dx, step.dy, step.dtheta) == (true.x, true.y, true.theta)
    for scan in clean_recording.scans:
        pose = clean_recording.truths_at([scan.timestamp])[0]
        angles = pose.theta + _BEAM_ANGLES
        want = raycast((pose.x, pose.y), angles, small_plan.walls, SCAN_MAX_RANGE_M)
        assert np.array_equal(scan.ranges, want)
    ap_positions = [ap.position for ap in small_plan.aps]
    for sweep in clean_recording.wifi:
        pose = clean_recording.truths_at([sweep.timestamp])[0]
        receiver = (pose.x, pose.y)
        crossings = count_wall_crossings(ap_positions, receiver, small_plan.walls).tolist()
        rss = [(ap.mac, predicted_rss(ap, receiver, n)) for ap, n in zip(small_plan.aps, crossings)]
        assert sweep.readings == tuple((mac, v) for mac, v in rss if v >= WIFI_SENSITIVITY_DBM)
    # Every sign the agent tries, it reads, and reads right.
    attempts = _sign_attempts(small_plan, poses)
    assert clean_recording.texts
    assert clean_recording.texts == [
        TextObservation(k * TICK_S, "a0", sign.text, sign.sign_id)
        for k in sorted(attempts)
        for sign in attempts[k]
    ]


def test_odometry_starts_at_first_truth_sample(noisy_recording):
    t0, pose0 = integrate_odometry(noisy_recording)[0]
    assert t0 == noisy_recording.truth[0].timestamp
    assert pose0 == noisy_recording.truth[0].pose


def test_truth_ticks_and_travel_distance(clean_recording):
    times = [s.timestamp for s in clean_recording.truth]
    steps = [b - a for a, b in zip(times, times[1:])]
    assert all(step == pytest.approx(TICK_S, abs=1e-12) for step in steps)
    # Out and back over 9 m legs, on a noise-free straight path.
    assert clean_recording.travel_distance_m() == pytest.approx(18.0, abs=1e-6)


def test_sensor_cadence(clean_recording):
    duration = clean_recording.truth[-1].timestamp
    expected_scans = math.floor(duration / 1.0) + 1
    expected_wifi = math.floor(duration / 0.5) + 1
    assert abs(len(clean_recording.scans) - expected_scans) <= 1
    assert abs(len(clean_recording.wifi) - expected_wifi) <= 1


def test_scans_are_body_frame_and_bounded(clean_recording, small_plan):
    xmin, ymin, xmax, ymax = small_plan.bounds()
    diag = math.hypot(xmax - xmin, ymax - ymin)
    for event in clean_recording.scans:
        assert not event.cloud.is_empty
        ranges = (event.cloud.points ** 2).sum(axis=1) ** 0.5
        assert float(ranges.max()) <= diag + 1e-6


def test_wifi_sensitivity_floor(noisy_recording):
    readings = [rss for scan in noisy_recording.wifi for _, rss in scan.readings]
    assert readings
    assert min(readings) >= -75.0


def test_text_observations_carry_provenance_and_range(noisy_recording, small_plan):
    signs = {s.sign_id: s for s in small_plan.signs}
    assert noisy_recording.texts
    for obs in noisy_recording.texts:
        sign = signs[obs.sign_id_truth]
        pose = noisy_recording.truths_at([obs.timestamp])[0]
        dist = math.hypot(pose.x - sign.position[0], pose.y - sign.position[1])
        assert dist <= 2.0 + 1e-9
        assert obs.agent_id == "a0"
        assert obs.text


def test_text_attempt_cooldown(noisy_recording):
    by_sign: dict = {}
    for obs in noisy_recording.texts:
        by_sign.setdefault(obs.sign_id_truth, []).append(obs.timestamp)
    for times in by_sign.values():
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(gap >= 2.0 - 1e-6 for gap in gaps)


def test_truth_at_picks_nearest_sample(clean_recording):
    # Walking +x at 1 m/s from (1.5, 1.5); nearest tick wins.
    pose, before, after = clean_recording.truths_at([1.26, -5.0, 1e9])
    assert pose.x == pytest.approx(1.5 + 1.3, abs=1e-9)
    assert before == clean_recording.truth[0].pose
    assert after == clean_recording.truth[-1].pose


def test_nearest_index_takes_the_earlier_sample_on_a_tie():
    times = [0.0, 1.0, 2.0]
    assert [nearest_index(times, t) for t in (-1.0, 0.4, 0.5, 0.6, 1.0, 1.5, 9.0)] == [
        0, 0, 0, 1, 1, 1, 2,
    ]


def test_waypoints_must_stay_inside_the_plan(small_plan):
    bad = script(waypoints=(((1.5, 1.5), 0.0), ((99.0, 1.5), 0.0)))
    with pytest.raises(ValueError):
        simulate_recording(small_plan, bad)


def test_script_validation():
    with pytest.raises(ValueError):
        script(waypoints=())


def test_hold_time_must_be_non_negative(small_plan):
    bad = script(waypoints=(((1.5, 1.5), -1.0), ((2.5, 1.5), 0.0)))
    with pytest.raises(ValueError):
        simulate_recording(small_plan, bad)


def per_tick_recording(plan: FloorPlan, script: AgentScript) -> Recording:
    """Reference: the simulator as one loop over the ticks, each tick
    computing its truth, geometry and noise before the next begins."""
    rng = np.random.default_rng(script.seed)
    phases = _build_phases(script)
    total_time = phases[-1].t_end
    n_ticks = max(1, math.ceil(total_time / TICK_S - 1e-9))

    on = 1.0 if script.noisy else 0.0
    detection_prob = TEXT_DETECTION_PROB if script.noisy else 1.0
    rec = Recording(agent_id=script.agent_id)
    ap_positions = [ap.position for ap in plan.aps]
    cos_half = math.cos(TEXT_DETECTION_HALF_ANGLE_RAD)
    last_attempt: dict[str, float] = {}

    phase_idx = 0
    prev_pose: Optional[Pose2] = None
    for k in range(n_ticks + 1):
        t = k * TICK_S
        clamped = min(t, total_time)
        while phase_idx + 1 < len(phases) and clamped > phases[phase_idx].t_end + 1e-12:
            phase_idx += 1
        pose = _pose_in_phase(phases[phase_idx], clamped)
        rec.truth.append(TruthSample(t, pose))

        if prev_pose is not None:
            step = relative_pose(prev_pose, pose)
            dist = math.hypot(step.x, step.y)
            dx = step.x + float(rng.standard_normal()) * (ODOM_SIGMA_TRANS_PER_M * on) * dist
            dy = step.y + float(rng.standard_normal()) * (ODOM_SIGMA_TRANS_PER_M * on) * dist
            dtheta = (
                step.theta
                + float(rng.standard_normal()) * (ODOM_SIGMA_ROT_PER_RAD * on) * abs(step.theta)
                + script.heading_drift_rad_per_m * dist
            )
            rec.odometry.append(OdometryStep(t, dx, dy, dtheta))
        prev_pose = pose

        if k % _SCAN_EVERY == 0:
            world_angles = pose.theta + _BEAM_ANGLES
            ranges = raycast((pose.x, pose.y), world_angles, plan.walls, SCAN_MAX_RANGE_M)
            hit = np.isfinite(ranges)
            n_hit = int(hit.sum())
            ranges[hit] += rng.standard_normal(n_hit) * (SCAN_SIGMA_M * on)
            rec.scans.append(ScanEvent(t, script.agent_id, ranges))

        if k % _WIFI_EVERY == 0:
            receiver = (pose.x, pose.y)
            crossings = count_wall_crossings(ap_positions, receiver, plan.walls)
            readings = []
            for ap, walls_crossed in zip(plan.aps, crossings.tolist()):
                sigma = math.hypot(ap.noise_sigma_db, WIFI_SIGMA_DB * on)
                rss = predicted_rss(ap, receiver, walls_crossed)
                rss += float(rng.standard_normal()) * sigma
                if rss >= WIFI_SENSITIVITY_DBM:
                    readings.append((ap.mac, rss))
            rec.wifi.append(WifiScan(t, script.agent_id, tuple(readings)))

        for sign in plan.signs:
            ddx = pose.x - sign.position[0]
            ddy = pose.y - sign.position[1]
            dist = math.hypot(ddx, ddy)
            if dist > TEXT_DETECTION_RANGE_M:
                continue
            if dist > 1e-9:
                facing = (math.cos(sign.facing_rad), math.sin(sign.facing_rad))
                if (facing[0] * ddx + facing[1] * ddy) / dist < cos_half:
                    continue
            prev = last_attempt.get(sign.sign_id)
            if prev is not None and t - prev < TEXT_ATTEMPT_COOLDOWN_S - 1e-9:
                continue
            last_attempt[sign.sign_id] = t
            if float(rng.random()) < detection_prob:
                text = corrupt_text(
                    sign.text, OCR_P_SUB * on, OCR_P_DEL * on, OCR_P_INS * on, rng
                )
                if text:
                    rec.texts.append(
                        TextObservation(t, script.agent_id, text, sign.sign_id)
                    )
    return rec


def assert_recordings_identical(got: Recording, want: Recording) -> None:
    """Every value equal: ranges by np.array_equal, every float by ==.

    Dataclass == compares floats by ==, which also takes -0.0 for 0.0;
    the recordings are written with repr, so signs of zero are compared
    too."""
    assert got.agent_id == want.agent_id
    assert got.truth == want.truth
    assert got.odometry == want.odometry
    assert got.wifi == want.wifi
    assert got.texts == want.texts
    assert len(got.scans) == len(want.scans)
    for a, b in zip(got.scans, want.scans):
        assert (a.timestamp, a.frame_id) == (b.timestamp, b.frame_id)
        assert np.array_equal(a.ranges, b.ranges)
        assert np.array_equal(np.signbit(a.ranges), np.signbit(b.ranges))
    for channel in ("odometry", "wifi"):
        assert repr(getattr(got, channel)) == repr(getattr(want, channel))


@pytest.mark.parametrize("scene", ["scene01", "scene02"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_recordings_equal_the_per_tick_reference(scene, seed):
    plan, scripts = scripted_scenario(scene, seed, duplicate_text_count=3, zero_noise=False)
    for s in scripts:
        assert_recordings_identical(simulate_recording(plan, s), per_tick_recording(plan, s))


@pytest.mark.parametrize(
    "duplicate_text_count, zero_noise", [(3, True), (0, False)], ids=["zero-noise", "no-duplicates"]
)
def test_recordings_equal_the_per_tick_reference_in_other_settings(
    duplicate_text_count, zero_noise
):
    plan, scripts = scripted_scenario(
        "scene02", 0, duplicate_text_count=duplicate_text_count, zero_noise=zero_noise
    )
    for s in scripts:
        assert_recordings_identical(simulate_recording(plan, s), per_tick_recording(plan, s))


def test_a_plan_with_no_access_points_or_signs_equals_the_reference():
    walls = (
        ((0.0, 0.0), (6.0, 0.0)),
        ((6.0, 0.0), (6.0, 3.0)),
        ((6.0, 3.0), (0.0, 3.0)),
        ((0.0, 3.0), (0.0, 0.0)),
    )
    plan = FloorPlan(walls, (), ())
    route = script(waypoints=(((1.0, 1.5), 1.0), ((5.0, 1.5), 0.0), ((1.0, 1.0), 0.5)))
    rec = simulate_recording(plan, route)
    assert rec.scans and rec.wifi and not rec.texts
    assert all(sweep.readings == () for sweep in rec.wifi)
    assert_recordings_identical(rec, per_tick_recording(plan, route))

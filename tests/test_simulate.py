"""Simulator behaviour: determinism, noise models, sensor cadence."""

import math

import pytest

from textwifi_slam.simulate import (
    TICK_S,
    AgentScript,
    NoiseModel,
    Recording,
    integrate_odometry,
    nearest_index,
    simulate_recording,
)
from textwifi_slam.world import generate_floorplan

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
    return simulate_recording(small_plan, script(noise=NoiseModel.zero()))


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
    truth = clean_recording.truth_at(final_t)
    assert math.hypot(final_pose.x - truth.x, final_pose.y - truth.y) < 1e-9
    assert abs(final_pose.theta - truth.theta) < 1e-9


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
        pose = noisy_recording.truth_at(obs.timestamp)
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
    pose = clean_recording.truth_at(1.26)
    assert pose.x == pytest.approx(1.5 + 1.3, abs=1e-9)
    assert clean_recording.truth_at(-5.0) == clean_recording.truth[0].pose
    assert clean_recording.truth_at(1e9) == clean_recording.truth[-1].pose


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
    with pytest.raises(ValueError):
        script(text_detection_prob=1.5)


def test_hold_time_must_be_non_negative(small_plan):
    bad = script(waypoints=(((1.5, 1.5), -1.0), ((2.5, 1.5), 0.0)))
    with pytest.raises(ValueError):
        simulate_recording(small_plan, bad)

"""Path-loss model, RSS aggregation, and fingerprint comparison."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from textwifi_slam.wifi import (
    AccessPoint,
    IncomparableFingerprints,
    WifiFingerprint,
    WifiScan,
    build_fingerprint,
    filter_and_average,
    is_wifi_match,
    mac_similarity,
    predicted_rss,
    rss_distance,
    rss_similarity,
)

rss_values = st.lists(st.floats(-120.0, 0.0), min_size=1, max_size=12)


def ap(**kwargs) -> AccessPoint:
    defaults = dict(mac="ap00", position=(0.0, 0.0))
    defaults.update(kwargs)
    return AccessPoint(**defaults)


def fp(entries, loc="x") -> WifiFingerprint:
    return WifiFingerprint(loc, entries)


def test_filter_and_average_plain_mean_fixture():
    assert filter_and_average([-50.0, -60.0, -70.0]) == -60.0


@given(rss_values)
def test_default_filter_reduces_to_the_mean(values):
    # The uncorrected spread is the root of the SUMMED squared deviations,
    # which no single deviation can exceed, so nothing is ever dropped.
    assert filter_and_average(values) == sum(values) / len(values)


def test_corrected_filter_drops_a_far_outlier():
    # Mean -60, population std sqrt(300) ~ 17.3: the -90 sample is outside.
    assert filter_and_average([-50.0, -50.0, -50.0, -90.0], corrected_std=True) == -50.0


def test_corrected_filter_keeps_identical_samples():
    assert filter_and_average([-42.0, -42.0], corrected_std=True) == -42.0


def test_filter_input_validation():
    with pytest.raises(ValueError):
        filter_and_average([])
    with pytest.raises(ValueError):
        filter_and_average([-50.0, math.nan])


def test_predicted_rss_decade_fixture():
    # One decade of distance at exponent 3 costs exactly 30 dB.
    unit = ap(transmit_power_dbm=20.0, constant_k_db=30.0, path_loss_exponent=3.0)
    assert predicted_rss(unit, (1.0, 0.0)) == pytest.approx(-10.0, abs=1e-12)
    assert predicted_rss(unit, (10.0, 0.0)) == pytest.approx(-40.0, abs=1e-12)


def test_predicted_rss_wall_term_is_linear():
    a = ap(wall_attenuation_db=7.0)
    clear = predicted_rss(a, (5.0, 0.0), walls_crossed=0)
    assert predicted_rss(a, (5.0, 0.0), walls_crossed=3) == pytest.approx(clear - 21.0)


def test_predicted_rss_clamps_near_field():
    a = ap()
    assert predicted_rss(a, (0.01, 0.0)) == predicted_rss(a, (0.1, 0.0))


def test_predicted_rss_rejects_negative_walls():
    with pytest.raises(ValueError):
        predicted_rss(ap(), (1.0, 1.0), walls_crossed=-1)


def test_access_point_parameter_validation():
    with pytest.raises(ValueError):
        ap(path_loss_exponent=0.0)
    with pytest.raises(ValueError):
        ap(noise_sigma_db=-1.0)
    with pytest.raises(ValueError):
        ap(wall_attenuation_db=-0.5)


@given(
    st.floats(0.1, 80.0),
    st.floats(0.1, 80.0),
    st.integers(0, 4),
    st.integers(0, 4),
)
def test_predicted_rss_monotone_decreasing(d1, d2, w1, w2):
    near, far = sorted((d1, d2))
    a = ap()
    assert predicted_rss(a, (far, 0.0), min(w1, w2)) <= predicted_rss(a, (near, 0.0), min(w1, w2))
    assert predicted_rss(a, (near, 0.0), max(w1, w2)) <= predicted_rss(a, (near, 0.0), min(w1, w2))


def test_mac_similarity_fixture():
    a = fp({"m1": -1.0, "m2": -1.0, "m3": -1.0, "m4": -1.0})
    b = fp({"m1": -1.0, "m2": -1.0, "m5": -1.0})
    assert mac_similarity(a, b) == 0.5
    assert mac_similarity(b, a) == 0.5


def test_mac_similarity_empty_fingerprints():
    assert mac_similarity(fp({}), fp({})) == 0.0
    assert mac_similarity(fp({"m": -1.0}), fp({})) == 0.0


def test_rss_distance_fixture():
    a = fp({"m1": -50.0, "m2": -60.0})
    b = fp({"m1": -53.0, "m2": -64.0})
    assert rss_distance(a, b) == 5.0
    assert rss_distance(b, a) == 5.0


def test_rss_distance_ignores_private_macs():
    a = fp({"m1": -50.0, "only_a": -30.0})
    b = fp({"m1": -50.0, "only_b": -90.0})
    assert rss_distance(a, b) == 0.0


def test_rss_distance_requires_overlap():
    with pytest.raises(IncomparableFingerprints):
        rss_distance(fp({"m1": -50.0}), fp({"m2": -50.0}))


def test_rss_similarity_fixtures():
    assert rss_similarity(0.0, 5) == 1.0
    # Distance of one sigma-sqrt(n) unit lands exactly at 1/e.
    assert rss_similarity(10.0, 4, sigma_scale_db=5.0) == math.exp(-1.0)


def test_rss_similarity_input_validation():
    with pytest.raises(ValueError):
        rss_similarity(-1.0, 3)
    with pytest.raises(ValueError):
        rss_similarity(1.0, 0)
    with pytest.raises(ValueError):
        rss_similarity(1.0, 3, sigma_scale_db=0.0)


def test_wifi_match_identical_fingerprints():
    a = fp({"m1": -50.0, "m2": -61.5})
    ok, score = is_wifi_match(a, a, beta=0.9, gamma=0.9)
    assert ok
    assert score.mac_similarity == 1.0
    assert score.rss_distance_db == 0.0
    assert score.rss_similarity == 1.0


def test_wifi_match_short_circuit_sentinel():
    # The MAC gate fails, yet the RSS fields are still computed on the
    # shared MAC so the pair can be re-thresholded.
    a = fp({"m1": -50.0, "m2": -50.0, "m3": -50.0})
    b = fp({"m1": -53.0})
    ok, score = is_wifi_match(a, b, beta=0.8, gamma=0.5)
    assert not ok
    assert score.mac_similarity == pytest.approx(1.0 / 3.0)
    assert score.rss_distance_db == 3.0
    assert score.rss_similarity == rss_similarity(3.0, 1)


def test_wifi_match_disjoint_macs_never_match():
    a, b = fp({"m1": -50.0}), fp({"m2": -50.0})
    ok, score = is_wifi_match(a, b, beta=0.0, gamma=0.0)
    assert not ok
    assert math.isinf(score.rss_distance_db)
    assert score.rss_similarity == 0.0


def test_wifi_match_threshold_boundaries_are_inclusive():
    a = fp({"m1": -50.0, "m2": -60.0})
    b = fp({"m1": -53.0, "m2": -64.0})  # distance 5 over 2 shared MACs
    gamma = rss_similarity(5.0, 2, sigma_scale_db=10.0)
    ok, _ = is_wifi_match(a, b, beta=1.0, gamma=gamma, sigma_scale_db=10.0)
    assert ok
    ok, _ = is_wifi_match(a, b, beta=1.0, gamma=gamma + 1e-12, sigma_scale_db=10.0)
    assert not ok


def test_wifi_match_rejects_bad_thresholds():
    a = fp({"m1": -50.0})
    with pytest.raises(ValueError):
        is_wifi_match(a, a, beta=1.5, gamma=0.5)
    with pytest.raises(ValueError):
        is_wifi_match(a, a, beta=0.5, gamma=-0.1)


def scan(t, readings, agent="a0"):
    return WifiScan(t, agent, tuple(readings))


def test_build_fingerprint_averages_per_mac():
    out = build_fingerprint(
        [
            scan(0.0, [("m1", -50.0), ("m2", -70.0)]),
            scan(0.5, [("m1", -60.0)]),
            scan(1.0, [("m1", -70.0), ("m2", -72.0)]),
        ],
        location_id="here",
    )
    assert out.location_id == "here"
    assert out.entries == {"m1": -60.0, "m2": -71.0}
    assert out.macs == frozenset({"m1", "m2"})


def test_build_fingerprint_default_location_id():
    out = build_fingerprint([scan(12.25, [("m1", -40.0)])])
    assert out.location_id == "a0@12.250"


def test_build_fingerprint_empty_scans_give_empty_fingerprint():
    out = build_fingerprint([scan(0.0, []), scan(0.5, [])])
    assert out.is_empty


def test_build_fingerprint_window_and_agent_checks():
    with pytest.raises(ValueError):
        build_fingerprint([])
    with pytest.raises(ValueError):
        build_fingerprint([scan(0.0, [], agent="a0"), scan(0.5, [], agent="a1")])

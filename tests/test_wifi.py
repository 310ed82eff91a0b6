"""Path-loss model, RSS aggregation, and fingerprint comparison."""

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from textwifi_slam.place_recognition import Thresholds, Verdict, wifi_verdict
from textwifi_slam.wifi import (
    SIGMA_SCALE_DB,
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
    wifi_scores,
)

from conftest import per_pair_wifi_score

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
    # No sample is dropped: the result is the plain mean, bit for bit.
    assert filter_and_average(values) == sum(values) / len(values)


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
    five = fp({f"m{i}": -40.0 - i for i in range(5)})
    near = fp({f"m{i}": -50.0 for i in range(4)})
    far = fp({f"m{i}": -50.0 - SIGMA_SCALE_DB for i in range(4)})
    same, apart = wifi_scores([five, near, far], [0, 1], [0, 2])
    assert same.rss_distance_db == 0.0
    assert same.rss_similarity == 1.0
    # Four shared MACs 32 dB apart: a distance of one sigma-sqrt(n) unit,
    # which lands exactly at 1/e.
    assert apart.rss_distance_db == 2.0 * SIGMA_SCALE_DB
    assert apart.rss_similarity == math.exp(-1.0)


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
    assert score.rss_similarity == math.exp(-3.0 / SIGMA_SCALE_DB)


def test_wifi_match_disjoint_macs_never_match():
    a, b = fp({"m1": -50.0}), fp({"m2": -50.0})
    ok, score = is_wifi_match(a, b, beta=0.0, gamma=0.0)
    assert not ok
    assert math.isinf(score.rss_distance_db)
    assert score.rss_similarity == 0.0


def test_wifi_match_threshold_boundaries_are_inclusive():
    a = fp({"m1": -50.0, "m2": -60.0})
    b = fp({"m1": -53.0, "m2": -64.0})  # distance 5 over 2 shared MACs
    gamma = math.exp(-5.0 / (SIGMA_SCALE_DB * math.sqrt(2.0)))
    ok, _ = is_wifi_match(a, b, beta=1.0, gamma=gamma)
    assert ok
    ok, _ = is_wifi_match(a, b, beta=1.0, gamma=gamma + 1e-12)
    assert not ok


def test_wifi_match_rejects_bad_thresholds():
    a = fp({"m1": -50.0})
    with pytest.raises(ValueError):
        is_wifi_match(a, a, beta=1.5, gamma=0.5)
    with pytest.raises(ValueError):
        is_wifi_match(a, a, beta=0.5, gamma=-0.1)


# d ** 2 rounds this d differently from np.power(d, 2.0) and d * d, and
# the difference reaches the distance once a second shared MAC differs by
# 0.5 dB; math.exp rounds this exponent differently from np.exp on common
# hardware. Both are pinned as cases below.
PINNED_SQUARE = -11.38616528237274
PINNED_EXPONENT = -1.0185110979227665

fingerprints = st.dictionaries(
    st.sampled_from(["m0", "m1", "m2", "m3", "m4", "m5"]), st.floats(-120.0, 0.0), max_size=6
).map(fp)


@given(st.lists(fingerprints, min_size=1, max_size=6))
@example([fp({}), fp({})])  # both empty
@example([fp({}), fp({"m1": -50.0})])  # one empty
@example([fp({"m1": -50.0, "m2": -61.0}), fp({"m3": -50.0})])  # disjoint
@example([fp({"m1": -50.0, "m2": -61.0}), fp({"m1": -53.0, "m3": -70.0})])  # one shared MAC
@example([fp({"m1": PINNED_SQUARE, "m2": -50.5}), fp({"m1": 0.0, "m2": -50.0})])
@example([fp({"m1": 32.0 * PINNED_EXPONENT}), fp({"m1": 0.0})])
def test_wifi_scores_equal_is_wifi_match(fps):
    # Every ordered pair, a fingerprint with itself included, against the
    # per-pair reference and against is_wifi_match, the batch of one; repr
    # tells apart floats that == does not (0.0 and -0.0).
    pairs = [(i, j) for i in range(len(fps)) for j in range(len(fps))]
    batch = wifi_scores(fps, [i for i, _ in pairs], [j for _, j in pairs])
    expected = [repr(per_pair_wifi_score(fps[i], fps[j])) for i, j in pairs]
    assert [repr(score) for score in batch] == expected
    assert [repr(is_wifi_match(fps[i], fps[j], 0.0, 0.0)[1]) for i, j in pairs] == expected


thresholds = st.floats(0.0, 1.0) | st.sampled_from([-0.1, 1.5, math.nan])


@given(fingerprints, fingerprints, thresholds, thresholds)
@example(fp({}), fp({}), 0.0, 0.0)  # both empty
@example(fp({"m1": -50.0}), fp({"m2": -50.0}), 0.0, 0.0)  # disjoint
@example(fp({"m1": -50.0, "m2": -60.0}), fp({"m1": -53.0, "m2": -64.0}), 1.0, 0.5)
@example(fp({"m1": -50.0}), fp({"m1": -50.0}), 1.5, 0.5)
@example(fp({"m1": -50.0}), fp({"m1": -50.0}), 0.5, -0.1)
def test_one_pair_functions_equal_the_per_pair_reference(a, b, beta, gamma):
    expected = per_pair_wifi_score(a, b)
    assert repr(mac_similarity(a, b)) == repr(expected.mac_similarity)
    if a.macs.isdisjoint(b.macs):
        with pytest.raises(IncomparableFingerprints):
            rss_distance(a, b)
    else:
        assert repr(rss_distance(a, b)) == repr(expected.rss_distance_db)
    if not (0.0 <= beta <= 1.0 and 0.0 <= gamma <= 1.0):
        with pytest.raises(ValueError):
            is_wifi_match(a, b, beta, gamma)
        return
    ok, score = is_wifi_match(a, b, beta, gamma)
    assert repr(score) == repr(expected)
    assert ok is (wifi_verdict(expected, Thresholds(0.0, beta, gamma)) is Verdict.ACCEPTED)


def test_wifi_scores_of_no_pairs():
    assert wifi_scores([], [], []) == []
    assert wifi_scores([fp({"m1": -50.0})], [], []) == []


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


def test_build_fingerprint_empty_scans_give_empty_fingerprint():
    out = build_fingerprint([scan(0.0, []), scan(0.5, [])], location_id="here")
    assert out.entries == {}


def test_build_fingerprint_window_and_agent_checks():
    with pytest.raises(ValueError):
        build_fingerprint([], location_id="here")
    with pytest.raises(ValueError):
        build_fingerprint(
            [scan(0.0, [], agent="a0"), scan(0.5, [], agent="a1")], location_id="here"
        )

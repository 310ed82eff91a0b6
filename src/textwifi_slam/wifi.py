"""WiFi fingerprints: the path-loss forward model, RSS aggregation, and
comparison of two locations.

A fingerprint is a map from access-point MAC to the mean RSS of the scans
around a keyframe. Two fingerprints match when their MAC sets
overlap enough (threshold beta) and the signal strengths on the shared MACs
agree (threshold gamma on a normalized similarity). wifi_scores is the one
scorer: it scores many pairs at once from one fingerprint × MAC matrix.
mac_similarity, rss_distance and is_wifi_match are its batches of one, and
place_recognition.wifi_verdict is the one gate rule.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

log = logging.getLogger(__name__)

# Path loss diverges at the transmitter, so receivers closer than this are
# treated as being at this distance.
MIN_PATH_LOSS_DISTANCE_M = 0.1

# The RSS kernel scale. The scenes space access points about a room apart,
# so same-place fingerprints taken a couple of meters apart differ by
# 10-23 dB while different-place ones sit above 27 dB; a 32 dB kernel puts
# the gate threshold inside that gap, where 10 dB would reject most genuine
# revisits.
SIGMA_SCALE_DB = 32.0


class IncomparableFingerprints(ValueError):
    """Raised when two fingerprints share no access point."""


@dataclass(frozen=True)
class AccessPoint:
    """A fixed transmitter plus its propagation parameters."""

    mac: str
    position: tuple[float, float]
    transmit_power_dbm: float = 20.0
    constant_k_db: float = 40.0
    path_loss_exponent: float = 3.0
    noise_sigma_db: float = 0.0
    wall_attenuation_db: float = 10.0

    def __post_init__(self) -> None:
        if self.path_loss_exponent <= 0.0:
            raise ValueError("path loss exponent must be positive")
        if self.noise_sigma_db < 0.0 or self.wall_attenuation_db < 0.0:
            raise ValueError("noise sigma and wall attenuation must be non-negative")


@dataclass(frozen=True)
class WifiScan:
    """One sweep of visible access points: (mac, rss_dbm) pairs."""

    timestamp: float
    agent_id: str
    readings: tuple[tuple[str, float], ...]


@dataclass(frozen=True)
class WifiFingerprint:
    """Filtered RSS per MAC for one location."""

    location_id: str
    entries: Mapping[str, float]

    @cached_property
    def macs(self) -> frozenset[str]:
        """The heard MACs, built on first use and kept: every candidate pair
        a keyframe takes part in compares its MAC set."""
        return frozenset(self.entries)


@dataclass(frozen=True)
class WifiMatchScore:
    """Scores from the two WiFi gates.

    The rss fields hold the neutral values (inf distance, 0 similarity)
    exactly when the two fingerprints share no MAC.
    """

    mac_similarity: float
    rss_distance_db: float
    rss_similarity: float


def predicted_rss(
    ap: AccessPoint,
    receiver_position: tuple[float, float],
    walls_crossed: int = 0,
) -> float:
    """Log-distance path loss with a per-wall attenuation term, in dBm."""
    if walls_crossed < 0:
        raise ValueError("walls_crossed must be non-negative")
    d = math.hypot(receiver_position[0] - ap.position[0], receiver_position[1] - ap.position[1])
    if d < MIN_PATH_LOSS_DISTANCE_M:
        log.warning("receiver within %.2f m of AP %s, clamping distance", MIN_PATH_LOSS_DISTANCE_M, ap.mac)
        d = MIN_PATH_LOSS_DISTANCE_M
    return (
        ap.transmit_power_dbm
        - ap.constant_k_db
        - 10.0 * ap.path_loss_exponent * math.log10(d)
        - walls_crossed * ap.wall_attenuation_db
    )


def filter_and_average(samples: Sequence[float]) -> float:
    """The mean of one MAC's RSS samples, which must be finite and non-empty.

    No sample is dropped as an outlier. A filter on the samples' spread
    would change every fingerprint, and so every gate score downstream.
    """
    if not samples:
        raise ValueError("cannot average an empty sample set")
    values = [float(x) for x in samples]
    if not all(math.isfinite(x) for x in values):
        raise ValueError("RSS samples must be finite")
    return sum(values) / len(values)


def build_fingerprint(scans: Sequence[WifiScan], *, location_id: str) -> WifiFingerprint:
    """Aggregate the scans around one location into a fingerprint.

    All scans must come from the same agent. Scans with no readings
    contribute nothing; if nothing was heard at all the fingerprint has no
    entries and will fail the MAC gate downstream.
    """
    if not scans:
        raise ValueError("cannot build a fingerprint from zero scans")
    agents = {s.agent_id for s in scans}
    if len(agents) != 1:
        raise ValueError(f"fingerprint scans must share one agent, got {sorted(agents)}")
    samples: dict[str, list[float]] = {}
    for scan in scans:
        for mac, rss in scan.readings:
            samples.setdefault(mac, []).append(rss)
    entries = {mac: filter_and_average(values) for mac, values in sorted(samples.items())}
    if not entries:
        log.debug("fingerprint %s is empty, no APs heard", location_id)
    return WifiFingerprint(location_id=location_id, entries=entries)


def mac_similarity(a: WifiFingerprint, b: WifiFingerprint) -> float:
    """Shared MAC count over the larger MAC count; 0 when both are empty.
    wifi_scores' batch of one."""
    return wifi_scores([a, b], [0], [1])[0].mac_similarity


def rss_distance(a: WifiFingerprint, b: WifiFingerprint) -> float:
    """Euclidean distance between the RSS vectors on the shared MACs;
    wifi_scores' batch of one."""
    if a.macs.isdisjoint(b.macs):
        raise IncomparableFingerprints(
            f"fingerprints {a.location_id!r} and {b.location_id!r} share no access point"
        )
    return wifi_scores([a, b], [0], [1])[0].rss_distance_db


def is_wifi_match(
    a: WifiFingerprint,
    b: WifiFingerprint,
    beta: float,
    gamma: float,
) -> tuple[bool, WifiMatchScore]:
    """Two-stage WiFi gate: MAC overlap first, then RSS agreement.

    wifi_scores' batch of one, judged by place_recognition.wifi_verdict.
    Returns the verdict and every score behind it; the RSS scores are
    computed even when the MAC gate fails, so they can be re-thresholded.
    beta and gamma outside [0, 1] raise ValueError, as in Thresholds.
    """
    # place_recognition imports this module, so it is imported at call time.
    from .place_recognition import Thresholds, Verdict, wifi_verdict

    thresholds = Thresholds(alpha=0.0, beta=beta, gamma=gamma)
    score = wifi_scores([a, b], [0], [1])[0]
    return wifi_verdict(score, thresholds) is Verdict.ACCEPTED, score


def wifi_scores(
    fingerprints: Sequence[WifiFingerprint],
    first: Sequence[int],
    second: Sequence[int],
) -> list[WifiMatchScore]:
    """The WiFi scores of every pair (fingerprints[first[k]],
    fingerprints[second[k]]): the MAC overlap, and the RSS distance and
    similarity on the shared MACs, or inf and 0 when there are none.

    The similarity is exp(-d / (SIGMA_SCALE_DB * sqrt(n))) for n shared
    MACs, so it is comparable across pairs with different numbers of shared
    access points. The fingerprints become one matrix of RSS entries over
    the sorted union of their MACs, with a mask of which entries exist. The
    squared RSS differences are summed one MAC column at a time, in sorted
    MAC order, adding 0.0 where the pair does not share the MAC, so each
    pair's sum is a plain running sum over its shared MACs in sorted order
    (the tests keep that one-pair rule as the reference; the builtin sum()
    compensates from Python 3.12 on). The squares use np.float_power,
    which rounds as Python's ** does (np.power and d * d do not always),
    and the similarity keeps math.exp, which np.exp does not always equal.
    """
    macs = sorted(set().union(*(fp.macs for fp in fingerprints)))
    column = {mac: k for k, mac in enumerate(macs)}
    rss = np.zeros((len(macs), len(fingerprints)))
    heard = np.zeros((len(macs), len(fingerprints)), dtype=bool)
    for row, fp in enumerate(fingerprints):
        for mac, value in fp.entries.items():
            rss[column[mac], row] = value
            heard[column[mac], row] = True
    first, second = np.asarray(first, dtype=np.intp), np.asarray(second, dtype=np.intp)
    n_common = np.zeros(len(first), dtype=np.int64)
    total = np.zeros(len(first))
    for values, present in zip(rss, heard):
        shared = present[first] & present[second]
        n_common += shared
        total += np.where(shared, np.float_power(values[first] - values[second], 2.0), 0.0)
    n_heard = heard.sum(axis=0)
    larger = np.maximum(n_heard[first], n_heard[second])
    overlap = np.divide(n_common, larger, out=np.zeros(len(first)), where=larger > 0)
    distance = np.sqrt(total)
    exponent = -distance / (SIGMA_SCALE_DB * np.sqrt(np.maximum(n_common, 1)))
    return [
        WifiMatchScore(ms, d, math.exp(x)) if n else WifiMatchScore(ms, math.inf, 0.0)
        for ms, n, d, x in zip(
            overlap.tolist(), n_common.tolist(), distance.tolist(), exponent.tolist()
        )
    ]

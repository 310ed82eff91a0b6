"""WiFi fingerprints: the path-loss forward model, RSS aggregation, and
comparison of two locations.

A fingerprint is a map from access-point MAC to a filtered RSS value built
from the scans around a keyframe. Two fingerprints match when their MAC sets
overlap enough (threshold beta) and the signal strengths on the shared MACs
agree (threshold gamma on a normalized similarity).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

log = logging.getLogger(__name__)

# Path loss diverges at the transmitter, so receivers closer than this are
# treated as being at this distance.
MIN_PATH_LOSS_DISTANCE_M = 0.1

DEFAULT_SIGMA_SCALE_DB = 10.0


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

    @property
    def macs(self) -> frozenset[str]:
        return frozenset(self.entries)

    @property
    def is_empty(self) -> bool:
        return not self.entries


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


def filter_and_average(samples: Sequence[float], *, corrected_std: bool = False) -> float:
    """Drop outlier RSS samples and average the rest.

    The spread R is the square root of the summed squared deviations from the
    mean; samples farther than R from the mean are discarded. With
    corrected_std=True the sum is divided by n first (the conventional
    population standard deviation), which is a stricter filter.
    """
    if not samples:
        raise ValueError("cannot average an empty sample set")
    values = [float(x) for x in samples]
    if not all(math.isfinite(x) for x in values):
        raise ValueError("RSS samples must be finite")
    mean = sum(values) / len(values)
    sum_sq = sum((x - mean) ** 2 for x in values)
    spread = math.sqrt(sum_sq / len(values)) if corrected_std else math.sqrt(sum_sq)
    kept = [x for x in values if abs(x - mean) <= spread]
    if not kept:
        log.debug("RSS filter removed every sample, falling back to the mean")
        return mean
    return sum(kept) / len(kept)


def build_fingerprint(
    scans: Sequence[WifiScan],
    *,
    location_id: Optional[str] = None,
) -> WifiFingerprint:
    """Aggregate the scans around one location into a fingerprint.

    All scans must come from the same agent. Scans with no readings
    contribute nothing; if nothing was heard at all the fingerprint is empty
    (flagged by is_empty) and will fail the MAC gate downstream.
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
    if location_id is None:
        location_id = f"{scans[0].agent_id}@{scans[0].timestamp:.3f}"
    if not entries:
        log.debug("fingerprint %s is empty, no APs heard", location_id)
    return WifiFingerprint(location_id=location_id, entries=entries)


def mac_similarity(a: WifiFingerprint, b: WifiFingerprint) -> float:
    """Shared MAC count over the larger MAC count; 0 when both are empty."""
    macs_a, macs_b = a.macs, b.macs
    if not macs_a and not macs_b:
        log.debug("mac_similarity of two empty fingerprints, returning 0")
        return 0.0
    return len(macs_a & macs_b) / max(len(macs_a), len(macs_b))


def rss_distance(a: WifiFingerprint, b: WifiFingerprint) -> float:
    """Euclidean distance between the RSS vectors on the shared MACs."""
    common = sorted(a.macs & b.macs)
    if not common:
        raise IncomparableFingerprints(
            f"fingerprints {a.location_id!r} and {b.location_id!r} share no access point"
        )
    return math.sqrt(sum((a.entries[mac] - b.entries[mac]) ** 2 for mac in common))


def rss_similarity(
    distance_db: float,
    n_common: int,
    sigma_scale_db: float = DEFAULT_SIGMA_SCALE_DB,
) -> float:
    """Map an RSS distance to (0, 1], normalized by the shared MAC count.

    exp(-d / (sigma_scale * sqrt(n))) so the score is comparable across pairs
    with different numbers of shared APs.
    """
    if distance_db < 0.0:
        raise ValueError("RSS distance must be non-negative")
    if n_common < 1:
        raise ValueError("need at least one shared MAC")
    if sigma_scale_db <= 0.0:
        raise ValueError("sigma scale must be positive")
    return math.exp(-distance_db / (sigma_scale_db * math.sqrt(n_common)))


def is_wifi_match(
    a: WifiFingerprint,
    b: WifiFingerprint,
    beta: float,
    gamma: float,
    *,
    sigma_scale_db: float = DEFAULT_SIGMA_SCALE_DB,
) -> tuple[bool, WifiMatchScore]:
    """Two-stage WiFi gate: MAC overlap first, then RSS agreement.

    Returns the verdict and every score behind it; the RSS scores are
    computed even when the MAC gate fails, so they can be re-thresholded.
    """
    for name, value in (("beta", beta), ("gamma", gamma)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {value}")
    ms = mac_similarity(a, b)
    common = a.macs & b.macs
    if not common:
        return False, WifiMatchScore(ms, math.inf, 0.0)
    d = rss_distance(a, b)
    sim = rss_similarity(d, len(common), sigma_scale_db)
    return ms >= beta and sim >= gamma, WifiMatchScore(ms, d, sim)

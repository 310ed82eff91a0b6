"""Shared builders for crafted worlds, scans, and keyframes."""

import math

import numpy as np
import pytest

from textwifi_slam.geometry import PointCloud2, Pose2
from textwifi_slam.place_recognition import Keyframe
from textwifi_slam.text_matching import TextObservation
from textwifi_slam.wifi import SIGMA_SCALE_DB, WifiFingerprint, WifiMatchScore
from textwifi_slam.world import generate_floorplan, raycast

# A small, clearly asymmetric cloud for registration fixtures.
L_SHAPE = np.array(
    [
        [0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [1.5, 0.0], [2.0, 0.0],
        [2.0, 0.5], [2.0, 1.0],
        [0.0, 0.5], [0.0, 1.0], [0.0, 1.5], [0.0, 2.0], [0.0, 2.5], [0.0, 3.0],
    ]
)


def corridor_scan(max_range_m: float = 8.0, ray_count: int = 360):
    """A range scan of the corridor world, as (ranges, angles, points).

    Ray directions carry a fixed sub-degree jitter. A perfectly regular
    angular grid is self-similar under a one-spacing rotation, which gives
    point-to-point registration a lattice of shallow false minima; real
    sensors never sample that cleanly and neither does this fixture.
    Max-range misses are kept as points at the range cap.
    """
    plan = generate_floorplan(0, seed=0)
    base = np.linspace(0.0, 2.0 * math.pi, ray_count, endpoint=False)
    jitter = np.random.default_rng(7).uniform(-0.5, 0.5, ray_count)
    angles = base + jitter * (2.0 * math.pi / ray_count)
    ranges = raycast((9.0, 1.5), angles, plan.walls, max_range_m)
    ranges = np.where(np.isfinite(ranges), ranges, max_range_m)
    points = np.stack([ranges * np.cos(angles), ranges * np.sin(angles)], axis=1)
    return ranges, angles, points


@pytest.fixture(scope="session")
def corridor_cloud() -> PointCloud2:
    _, _, points = corridor_scan()
    return PointCloud2(points)


def make_keyframe(
    agent: str,
    kf_id: int,
    timestamp: float,
    *,
    pose: Pose2 = Pose2.identity(),
    text: str = "ROOM A-101",
    sign_id: str = "s_room0",
    rss: dict = None,
    scan_points: np.ndarray = None,
) -> Keyframe:
    """A hand-built keyframe for gate and graph tests."""
    entries = {"ap00": -50.0, "ap01": -60.0} if rss is None else rss
    points = L_SHAPE if scan_points is None else scan_points
    return Keyframe(
        agent_id=agent,
        keyframe_id=kf_id,
        timestamp=timestamp,
        odom_pose=pose,
        scan=PointCloud2(points, frame_id=agent),
        text_obs=TextObservation(timestamp, agent, text, sign_id),
        fingerprint=WifiFingerprint(f"{agent}:{kf_id}", entries),
    )


def per_pair_wifi_score(a: WifiFingerprint, b: WifiFingerprint) -> WifiMatchScore:
    """Reference: the WiFi scores of one pair, one shared MAC at a time,
    which wifi.wifi_scores must equal to the last bit.

    The MAC overlap is the shared MAC count over the larger MAC count, 0
    when both are empty. The RSS distance is a plain running sum of squared
    differences in sorted MAC order (the builtin sum() compensates from
    Python 3.12 on), and the similarity exp(-d / (SIGMA_SCALE_DB * sqrt(n)))
    over n shared MACs; with none they are inf and 0.
    """
    common = a.macs & b.macs
    larger = max(len(a.macs), len(b.macs))
    overlap = len(common) / larger if larger else 0.0
    if not common:
        return WifiMatchScore(overlap, math.inf, 0.0)
    total = 0.0
    for mac in sorted(common):
        total += (a.entries[mac] - b.entries[mac]) ** 2
    distance = math.sqrt(total)
    similarity = math.exp(-distance / (SIGMA_SCALE_DB * math.sqrt(len(common))))
    return WifiMatchScore(overlap, distance, similarity)

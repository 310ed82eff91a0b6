"""Deterministic sensor simulation along scripted routes.

Each agent follows its waypoint list at constant speed, pausing for the
per-waypoint hold time. Every sensor channel (odometry, lidar-style range
scans, WiFi sweeps, text detections) is driven by a single seeded generator
in a fixed per-tick order, so a recording is a pure function of the plan,
the script and the seed.

A scan is recorded as a planar laser scanner reports it (as in a ROS
sensor_msgs/LaserScan): one range per beam at fixed angles, inf where the
beam got no return. Its point cloud is derived from the ranges by
`scan_points`, the one place that turns ranges into coordinates.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .geometry import Pose2, PointCloud2, compose, relative_pose
from .text_matching import TextObservation, corrupt_text
from .wifi import WifiScan, predicted_rss
from .world import FloorPlan, count_wall_crossings, raycast

TICK_S = 0.1
SCAN_RAY_COUNT = 360
SCAN_RESOLUTION_RAD = math.radians(1.0)
SCAN_MAX_RANGE_M = 15.0
# Beam i points SCAN_RESOLUTION_RAD * i from the sensor's x axis.
_BEAM_ANGLES = np.arange(SCAN_RAY_COUNT) * SCAN_RESOLUTION_RAD

# Every agent walks at SPEED_MPS and carries the same sensors.
SPEED_MPS = 1.0
SCAN_HZ = 1.0
WIFI_HZ = 2.0
_SCAN_EVERY = round(1.0 / (SCAN_HZ * TICK_S))  # ticks
_WIFI_EVERY = round(1.0 / (WIFI_HZ * TICK_S))
WIFI_SENSITIVITY_DBM = -75.0
# Agents read a sign only from within 2 m, so the reads of one sign cluster
# tightly: any two lie at most 4 m apart. That keeps their WiFi fingerprints
# alike enough for the RSS gate, and ICP's co-located starting guess
# (pose_graph.register_keyframe_pair) near their true offset.
TEXT_DETECTION_RANGE_M = 2.0
TEXT_DETECTION_HALF_ANGLE_RAD = math.radians(60.0)
# A sign in view is tried again only after this long.
TEXT_ATTEMPT_COOLDOWN_S = 2.0
# The odds that one attempt at a sign in view yields a reading.
TEXT_DETECTION_PROB = 0.9


@dataclass(frozen=True)
class NoiseModel:
    """Noise magnitudes for one agent.

    Odometry translation noise scales with the distance moved per step,
    rotation noise with the turn magnitude; heading_drift_rad_per_m is a
    constant bias that accumulates with travelled distance and is the main
    source of endpoint error over long runs.
    """

    odom_sigma_trans_per_m: float = 0.01
    odom_sigma_rot_per_rad: float = 0.02
    heading_drift_rad_per_m: float = 0.0
    scan_sigma_m: float = 0.01
    wifi_sigma_db: float = 1.5
    ocr_p_sub: float = 0.02
    ocr_p_del: float = 0.005
    ocr_p_ins: float = 0.005

    @staticmethod
    def zero() -> "NoiseModel":
        return NoiseModel(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class AgentScript:
    """Route, noise and sign-reading odds for one simulated agent."""

    agent_id: str
    waypoints: tuple[tuple[tuple[float, float], float], ...]  # ((x, y), hold_s)
    noise: NoiseModel = field(default_factory=NoiseModel)
    seed: int = 0
    text_detection_prob: float = TEXT_DETECTION_PROB

    def __post_init__(self) -> None:
        if not self.waypoints:
            raise ValueError("a script needs at least one waypoint")
        if not 0.0 <= self.text_detection_prob <= 1.0:
            raise ValueError("detection probability must be in [0, 1]")


@dataclass(frozen=True)
class OdometryStep:
    """Noisy relative motion over one tick, in the previous body frame."""

    timestamp: float
    dx: float
    dy: float
    dtheta: float


@dataclass(frozen=True, eq=False)
class ScanEvent:
    """One range scan: a range per beam, SCAN_RAY_COUNT beams
    SCAN_RESOLUTION_RAD apart, and inf where a beam got no return.

    The ranges are copied on construction and frozen; `cloud` holds the
    returns as points in the sensor frame (frame_id), built on first use.
    """

    timestamp: float
    frame_id: str
    ranges: np.ndarray

    def __post_init__(self) -> None:
        ranges = np.array(self.ranges, dtype=float)
        if ranges.shape != (SCAN_RAY_COUNT,):
            raise ValueError(
                f"a scan holds {SCAN_RAY_COUNT} ranges, got an array of shape {ranges.shape}"
            )
        ranges.flags.writeable = False
        object.__setattr__(self, "ranges", ranges)

    @cached_property
    def cloud(self) -> PointCloud2:
        return PointCloud2(scan_points(self.ranges), frame_id=self.frame_id)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScanEvent):
            return NotImplemented
        return (
            self.timestamp == other.timestamp
            and self.frame_id == other.frame_id
            and np.array_equal(self.ranges, other.ranges)
        )


def scan_points(ranges: np.ndarray) -> np.ndarray:
    """The (n, 2) sensor-frame points of the beams of ranges that returned."""
    hit = np.isfinite(ranges)
    noisy = ranges[hit]
    return np.stack(
        [noisy * np.cos(_BEAM_ANGLES[hit]), noisy * np.sin(_BEAM_ANGLES[hit])], axis=1
    )


@dataclass(frozen=True)
class TruthSample:
    timestamp: float
    pose: Pose2


@dataclass
class Recording:
    """Everything one agent sensed, plus ground truth for evaluation.

    The odometry channel carries relative steps only; consumers integrate
    them from the agent's known start pose (the first truth sample), which
    models externally initialized agents sharing one world frame.
    """

    agent_id: str
    odometry: list[OdometryStep] = field(default_factory=list)
    scans: list[ScanEvent] = field(default_factory=list)
    texts: list[TextObservation] = field(default_factory=list)
    wifi: list[WifiScan] = field(default_factory=list)
    truth: list[TruthSample] = field(default_factory=list)

    def truth_at(self, timestamp: float) -> Pose2:
        """Ground-truth pose at the truth sample nearest to timestamp."""
        return self.truths_at([timestamp])[0]

    def truths_at(self, timestamps: Iterable[float]) -> list[Pose2]:
        """truth_at of every timestamp, listing the truth sample times once."""
        if not self.truth:
            raise ValueError("recording has no truth samples")
        times = [s.timestamp for s in self.truth]
        return [self.truth[nearest_index(times, t)].pose for t in timestamps]

    def travel_distance_m(self) -> float:
        total = 0.0
        for a, b in zip(self.truth, self.truth[1:]):
            total += math.hypot(b.pose.x - a.pose.x, b.pose.y - a.pose.y)
        return total


def nearest_index(times: Sequence[float], t: float) -> int:
    """Index of the entry of sorted, non-empty times nearest to t; the
    earlier one on a tie."""
    i = bisect_left(times, t)
    if i == 0:
        return 0
    if i == len(times):
        return len(times) - 1
    return i - 1 if t - times[i - 1] <= times[i] - t else i


@dataclass(frozen=True)
class _Phase:
    t_start: float
    t_end: float
    start: tuple[float, float]
    end: tuple[float, float]
    heading: float
    moving: bool


def _build_phases(script: AgentScript) -> list[_Phase]:
    phases: list[_Phase] = []
    t = 0.0
    heading = 0.0
    # Initial heading points at the first waypoint that is somewhere else.
    here = script.waypoints[0][0]
    for pos, _ in script.waypoints[1:]:
        if pos != here:
            heading = math.atan2(pos[1] - here[1], pos[0] - here[0])
            break
    for i, (pos, hold) in enumerate(script.waypoints):
        if hold < 0.0:
            raise ValueError("hold times must be non-negative")
        if hold > 0.0:
            phases.append(_Phase(t, t + hold, pos, pos, heading, False))
            t += hold
        if i + 1 < len(script.waypoints):
            nxt = script.waypoints[i + 1][0]
            dist = math.hypot(nxt[0] - pos[0], nxt[1] - pos[1])
            if dist > 0.0:
                heading = math.atan2(nxt[1] - pos[1], nxt[0] - pos[0])
                duration = dist / SPEED_MPS
                phases.append(_Phase(t, t + duration, pos, nxt, heading, True))
                t += duration
    if not phases:
        phases.append(_Phase(0.0, 0.0, here, here, heading, False))
    return phases


def _pose_in_phase(phase: _Phase, t: float) -> Pose2:
    if not phase.moving:
        return Pose2(phase.start[0], phase.start[1], phase.heading)
    travelled = (t - phase.t_start) * SPEED_MPS
    c, s = math.cos(phase.heading), math.sin(phase.heading)
    return Pose2(phase.start[0] + c * travelled, phase.start[1] + s * travelled, phase.heading)


def simulate_recording(plan: FloorPlan, script: AgentScript) -> Recording:
    """Run one agent through the plan and record every sensor channel.

    Each scan keeps its noisy ranges, one per beam; see ScanEvent.
    """
    xmin, ymin, xmax, ymax = plan.bounds()
    for pos, _ in script.waypoints:
        if not (xmin <= pos[0] <= xmax and ymin <= pos[1] <= ymax):
            raise ValueError(f"waypoint {pos} lies outside the floorplan")

    rng = np.random.default_rng(script.seed)
    phases = _build_phases(script)
    total_time = phases[-1].t_end
    n_ticks = max(1, math.ceil(total_time / TICK_S - 1e-9))

    noise = script.noise
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
            dx = step.x + float(rng.standard_normal()) * noise.odom_sigma_trans_per_m * dist
            dy = step.y + float(rng.standard_normal()) * noise.odom_sigma_trans_per_m * dist
            dtheta = (
                step.theta
                + float(rng.standard_normal()) * noise.odom_sigma_rot_per_rad * abs(step.theta)
                + noise.heading_drift_rad_per_m * dist
            )
            rec.odometry.append(OdometryStep(t, dx, dy, dtheta))
        prev_pose = pose

        if k % _SCAN_EVERY == 0:
            world_angles = pose.theta + _BEAM_ANGLES
            ranges = raycast((pose.x, pose.y), world_angles, plan.walls, SCAN_MAX_RANGE_M)
            hit = np.isfinite(ranges)
            n_hit = int(hit.sum())
            ranges[hit] += rng.standard_normal(n_hit) * noise.scan_sigma_m
            rec.scans.append(ScanEvent(t, script.agent_id, ranges))

        if k % _WIFI_EVERY == 0:
            receiver = (pose.x, pose.y)
            crossings = count_wall_crossings(ap_positions, receiver, plan.walls)
            readings = []
            for ap, walls_crossed in zip(plan.aps, crossings.tolist()):
                sigma = math.hypot(ap.noise_sigma_db, noise.wifi_sigma_db)
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
            if float(rng.random()) < script.text_detection_prob:
                text = corrupt_text(
                    sign.text, noise.ocr_p_sub, noise.ocr_p_del, noise.ocr_p_ins, rng
                )
                if text:
                    rec.texts.append(
                        TextObservation(t, script.agent_id, text, sign.sign_id)
                    )
    return rec


def integrate_odometry(recording: Recording) -> list[tuple[float, Pose2]]:
    """Dead-reckoned trajectory from the odometry channel.

    Starts from the agent's known initial pose (the first truth sample) and
    composes the noisy steps; this is the drifting estimate the back end has
    to correct.
    """
    if not recording.truth:
        raise ValueError("recording has no truth samples to anchor the start pose")
    pose = recording.truth[0].pose
    out = [(recording.truth[0].timestamp, pose)]
    for step in recording.odometry:
        pose = compose(pose, Pose2(step.dx, step.dy, step.dtheta))
        out.append((step.timestamp, pose))
    return out

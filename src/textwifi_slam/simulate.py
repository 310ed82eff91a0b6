"""Deterministic sensor simulation along scripted routes.

Each agent follows its waypoint list at constant speed, pausing for the
per-waypoint hold time. Every sensor channel (odometry, lidar-style range
scans, WiFi sweeps, text detections) is driven by a single seeded generator
in a fixed per-tick order, so a recording is a pure function of the plan,
the script and the seed.

A recording is simulated in three passes. The first computes the true pose
at every tick and the true step between ticks. The second computes the
route's noise-free geometry in arrays: the scans' ranges a few scans per
raycast call, every WiFi sweep's wall crossings in one call, and which
signs the agent tries to read at which ticks. The third draws the noise in
one pass over the ticks, in the per-tick order: a tick's odometry step, its
scan, its WiFi sweep, then its sign attempts in plan order. A recording
equals, bit for bit, the one a single loop over the ticks gives
(tests/test_simulate.py keeps that loop as the reference): the arrays do
only the elementwise arithmetic and comparisons that loop did, and the
hypot, log10, cosine and sine it took in scalar math are still taken so.

The noise magnitudes are module constants shared by every agent; a script
switches them on or off (AgentScript.noisy) and sets its heading drift.

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
from typing import Iterable, Sequence

import numpy as np

from .geometry import Pose2, PointCloud2, compose, relative_pose
from .text_matching import TextObservation, corrupt_text
from .wifi import WifiScan, predicted_rss
from .world import FloorPlan, Sign, count_wall_crossings, raycast

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
# Scans are raycast this many to a call. One call over all of a route's
# scans ran slower than one call per scan; batches of 4 ran fastest.
_RAYCAST_BATCH = 4
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

# The sensor noise of a noisy agent. Odometry translation noise scales with
# the distance moved per step, rotation noise with the turn magnitude; an
# RSS reading's sigma combines WIFI_SIGMA_DB with its access point's own;
# OCR odds are per character.
ODOM_SIGMA_TRANS_PER_M = 0.01
ODOM_SIGMA_ROT_PER_RAD = 0.02
SCAN_SIGMA_M = 0.01
WIFI_SIGMA_DB = 1.5
OCR_P_SUB = 0.02
OCR_P_DEL = 0.005
OCR_P_INS = 0.005


@dataclass(frozen=True)
class AgentScript:
    """Route, seed and noise switch for one simulated agent.

    noisy=False scales every noise term by 0.0, with the same draws, and
    reads every sign tried. heading_drift_rad_per_m, a constant heading
    bias per metre travelled, is the main source of endpoint error over
    long runs; noisy leaves it as set.
    """

    agent_id: str
    waypoints: tuple[tuple[tuple[float, float], float], ...]  # ((x, y), hold_s)
    seed: int = 0
    noisy: bool = True
    heading_drift_rad_per_m: float = 0.0

    def __post_init__(self) -> None:
        if not self.waypoints:
            raise ValueError("a script needs at least one waypoint")


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

    def truths_at(self, timestamps: Iterable[float]) -> list[Pose2]:
        """The ground-truth pose at the truth sample nearest to each
        timestamp; see nearest_index."""
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


def _truth_poses(script: AgentScript) -> list[Pose2]:
    """The agent's true pose at every tick k * TICK_S, from k = 0 until the
    route's end, clamped to the end pose on the last tick."""
    phases = _build_phases(script)
    total_time = phases[-1].t_end
    n_ticks = max(1, math.ceil(total_time / TICK_S - 1e-9))
    poses: list[Pose2] = []
    phase_idx = 0
    for k in range(n_ticks + 1):
        clamped = min(k * TICK_S, total_time)
        while phase_idx + 1 < len(phases) and clamped > phases[phase_idx].t_end + 1e-12:
            phase_idx += 1
        poses.append(_pose_in_phase(phases[phase_idx], clamped))
    return poses


def _scan_ranges(plan: FloorPlan, poses: Sequence[Pose2]) -> np.ndarray:
    """The noise-free ranges of a scan from each pose, one row per pose."""
    origins = np.array([(p.x, p.y) for p in poses], dtype=float).reshape(-1, 2)
    angles = np.array([p.theta for p in poses], dtype=float)[:, None] + _BEAM_ANGLES
    return np.concatenate([
        raycast(origins[i : i + _RAYCAST_BATCH], angles[i : i + _RAYCAST_BATCH],
                plan.walls, SCAN_MAX_RANGE_M)
        for i in range(0, len(poses), _RAYCAST_BATCH)
    ])


def _sweep_rss(plan: FloorPlan, poses: Sequence[Pose2]) -> np.ndarray:
    """The noise-free RSS of every access point at each pose, one row per
    pose and one column per access point, in plan order."""
    receivers = [(p.x, p.y) for p in poses]
    crossings = count_wall_crossings(
        [ap.position for ap in plan.aps], np.array(receivers, dtype=float), plan.walls
    )
    return np.array([
        [predicted_rss(ap, receiver, n) for ap, n in zip(plan.aps, row)]
        for receiver, row in zip(receivers, crossings.tolist())
    ], dtype=float).reshape(len(poses), len(plan.aps))


def _sign_attempts(plan: FloorPlan, poses: Sequence[Pose2]) -> dict[int, list[Sign]]:
    """The signs the agent tries to read at each tick, in plan order.

    A sign is tried from within TEXT_DETECTION_RANGE_M, inside the cone it
    faces, and TEXT_ATTEMPT_COOLDOWN_S after its previous try at the
    earliest. The range bounds |dx| and |dy| alike, so a box test over all
    ticks in arrays, with a margin for rounding, keeps every tick that can
    be in range; the exact tests run on those ticks alone.
    """
    xs = np.array([p.x for p in poses], dtype=float)
    ys = np.array([p.y for p in poses], dtype=float)
    box = TEXT_DETECTION_RANGE_M + 1e-6
    cos_half = math.cos(TEXT_DETECTION_HALF_ANGLE_RAD)
    attempts: dict[int, list[Sign]] = {}
    for sign in plan.signs:
        sx, sy = sign.position
        fx, fy = math.cos(sign.facing_rad), math.sin(sign.facing_rad)
        near = np.flatnonzero((np.abs(xs - sx) <= box) & (np.abs(ys - sy) <= box))
        prev = None
        for k in near.tolist():
            ddx = poses[k].x - sx
            ddy = poses[k].y - sy
            dist = math.hypot(ddx, ddy)
            if dist > TEXT_DETECTION_RANGE_M:
                continue
            if dist > 1e-9 and (fx * ddx + fy * ddy) / dist < cos_half:
                continue
            t = k * TICK_S
            if prev is not None and t - prev < TEXT_ATTEMPT_COOLDOWN_S - 1e-9:
                continue
            prev = t
            attempts.setdefault(k, []).append(sign)
    return attempts


def simulate_recording(plan: FloorPlan, script: AgentScript) -> Recording:
    """Run one agent through the plan and record every sensor channel.

    Each scan keeps its noisy ranges, one per beam; see ScanEvent.
    """
    xmin, ymin, xmax, ymax = plan.bounds()
    for pos, _ in script.waypoints:
        if not (xmin <= pos[0] <= xmax and ymin <= pos[1] <= ymax):
            raise ValueError(f"waypoint {pos} lies outside the floorplan")

    # Pass 1: the truth trajectory, and each tick's true step in the body
    # frame of the tick before, with the step's length.
    poses = _truth_poses(script)
    times = [k * TICK_S for k in range(len(poses))]
    steps = []
    for a, b in zip(poses, poses[1:]):
        step = relative_pose(a, b)
        steps.append((step.x, step.y, step.theta, math.hypot(step.x, step.y)))
    step_x, step_y, step_theta, dist = np.array(steps, dtype=float).reshape(-1, 4).T

    # Pass 2: the route's noise-free geometry.
    ranges = _scan_ranges(plan, poses[::_SCAN_EVERY])
    hit = np.isfinite(ranges)
    n_hits = np.count_nonzero(hit, axis=1).tolist()
    rss = _sweep_rss(plan, poses[::_WIFI_EVERY])
    attempts = _sign_attempts(plan, poses)

    # Pass 3: the noise, drawn in the generator's per-tick order: a tick's
    # odometry step, its scan, its WiFi sweep, then its sign attempts in
    # plan order. A scan's noise is added as it is drawn; the odometry and
    # WiFi noise is added after the pass, in arrays.
    on = 1.0 if script.noisy else 0.0
    detection_prob = TEXT_DETECTION_PROB if script.noisy else 1.0
    rng = np.random.default_rng(script.seed)
    odometry_noise = np.empty((len(poses) - 1, 3))
    wifi_noise = np.empty(rss.shape)
    texts: list[TextObservation] = []
    for k, t in enumerate(times):
        if k:
            odometry_noise[k - 1] = rng.standard_normal(3)
        if k % _SCAN_EVERY == 0:
            scan = k // _SCAN_EVERY
            ranges[scan, hit[scan]] += rng.standard_normal(n_hits[scan]) * (SCAN_SIGMA_M * on)
        if k % _WIFI_EVERY == 0:
            wifi_noise[k // _WIFI_EVERY] = rng.standard_normal(len(plan.aps))
        for sign in attempts.get(k, ()):
            if float(rng.random()) < detection_prob:
                text = corrupt_text(
                    sign.text, OCR_P_SUB * on, OCR_P_DEL * on, OCR_P_INS * on, rng
                )
                if text:
                    texts.append(TextObservation(t, script.agent_id, text, sign.sign_id))

    truth = [TruthSample(t, pose) for t, pose in zip(times, poses)]
    dx = step_x + odometry_noise[:, 0] * (ODOM_SIGMA_TRANS_PER_M * on) * dist
    dy = step_y + odometry_noise[:, 1] * (ODOM_SIGMA_TRANS_PER_M * on) * dist
    dtheta = (
        step_theta
        + odometry_noise[:, 2] * (ODOM_SIGMA_ROT_PER_RAD * on) * np.abs(step_theta)
        + script.heading_drift_rad_per_m * dist
    )
    odometry = [
        OdometryStep(*row) for row in zip(times[1:], dx.tolist(), dy.tolist(), dtheta.tolist())
    ]
    scans = [
        ScanEvent(t, script.agent_id, row) for t, row in zip(times[::_SCAN_EVERY], ranges)
    ]
    sigmas = np.array(
        [math.hypot(ap.noise_sigma_db, WIFI_SIGMA_DB * on) for ap in plan.aps], dtype=float
    )
    rss += wifi_noise * sigmas
    macs = [ap.mac for ap in plan.aps]
    wifi = [
        WifiScan(
            t,
            script.agent_id,
            tuple((mac, v) for mac, v in zip(macs, row) if v >= WIFI_SENSITIVITY_DBM),
        )
        for t, row in zip(times[::_WIFI_EVERY], rss.tolist())
    ]
    return Recording(script.agent_id, odometry, scans, texts, wifi, truth)


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

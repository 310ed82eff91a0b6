"""Rigid 2D scan registration.

_rigid_fit solves the least-squares alignment of matched point pairs in
closed form; icp_register wraps it in the usual iterate-correspond loop
with a nearest-neighbour search bounded by a correspondence radius.
The loop keeps its pose as plain floats and queries the target's cached
KD-tree, so one iteration costs the query plus a handful of numpy calls.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import Pose2, PointCloud2, normalize_angle

log = logging.getLogger(__name__)

DEFAULT_MAX_ITERATIONS = 50
DEFAULT_CORRESPONDENCE_RADIUS_M = 1.0
DEFAULT_TOLERANCE = 1e-5


@dataclass(frozen=True)
class IcpResult:
    """Outcome of one registration attempt.

    transform maps source-frame points into the target frame. mean_sq_error
    is over the final inlier correspondences (inf when there were none), and
    inlier_fraction is the share of source points that found a neighbour
    within the correspondence radius on the last pass.
    """

    transform: Pose2
    mean_sq_error: float
    iterations: int
    converged: bool
    inlier_fraction: float


def _rigid_fit(src: np.ndarray, tgt: np.ndarray) -> tuple[float, float, float, float, float]:
    """Planar Kabsch in closed form: (theta, cos, sin, tx, ty) sending src onto tgt.

    The rotation maximising sum(q . R p) over the centred pairs is
    theta = atan2(Sxy - Syx, Sxx + Syy) of their cross-covariance S, which
    is always a proper rotation. Inputs are matching (n, 2) float arrays.
    """
    n = len(src)
    src_mean = src.sum(axis=0) / n
    tgt_mean = tgt.sum(axis=0) / n
    src_c = src - src_mean
    if float(np.abs(src_c).max()) < 1e-12:
        raise ValueError("source points are coincident, rotation is unobservable")
    (sxx, sxy), (syx, syy) = (src_c.T @ (tgt - tgt_mean)).tolist()
    theta = math.atan2(sxy - syx, sxx + syy)
    c, s = math.cos(theta), math.sin(theta)
    px, py = src_mean.tolist()
    qx, qy = tgt_mean.tolist()
    return theta, c, s, qx - (c * px - s * py), qy - (s * px + c * py)


def _moved(points: np.ndarray, x: float, y: float, theta: float) -> np.ndarray:
    """transform_points for a pose held as three floats."""
    c, s = math.cos(theta), math.sin(theta)
    return points @ np.array([[c, s], [-s, c]]) + np.array([x, y])


def icp_register(
    source: PointCloud2,
    target: PointCloud2,
    initial: Pose2 = Pose2.identity(),
    *,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    correspondence_radius_m: float = DEFAULT_CORRESPONDENCE_RADIUS_M,
    tolerance: float = DEFAULT_TOLERANCE,
) -> IcpResult:
    """Iterative closest point from an initial guess.

    Each pass matches every transformed source point to its nearest target
    point within the radius, refits, and composes the correction. Stops when
    the pose update falls below tolerance (converged) or at the iteration
    cap. Losing all correspondences aborts with converged=False.
    """
    if len(source) < 3 or len(target) < 3:
        raise ValueError("registration needs at least 3 points in each cloud")
    if max_iterations < 1:
        raise ValueError("max_iterations must be at least 1")
    if correspondence_radius_m <= 0.0 or tolerance <= 0.0:
        raise ValueError("correspondence radius and tolerance must be positive")

    tree = target.kdtree
    src, tgt = source.points, target.points
    n = len(source)
    x, y, theta = initial.x, initial.y, initial.theta
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        moved = _moved(src, x, y, theta)
        dist, idx = tree.query(moved, distance_upper_bound=correspondence_radius_m)
        mask = np.isfinite(dist)
        inliers = int(np.count_nonzero(mask))
        if inliers < 3:
            log.debug(
                "ICP lost correspondences at iteration %d (%d within %.2f m)",
                iterations, inliers, correspondence_radius_m,
            )
            return IcpResult(Pose2(x, y, theta), math.inf, iterations, False, inliers / n)
        if inliers == n:
            dtheta, c, s, dx, dy = _rigid_fit(moved, tgt[idx])
        else:
            dtheta, c, s, dx, dy = _rigid_fit(moved[mask], tgt[idx[mask]])
        x, y = dx + c * x - s * y, dy + s * x + c * y
        theta = normalize_angle(theta + dtheta)
        if math.hypot(dx, dy) + abs(dtheta) < tolerance:
            converged = True
            break

    pose = Pose2(x, y, theta)
    dist, _ = tree.query(_moved(src, x, y, theta), distance_upper_bound=correspondence_radius_m)
    mask = np.isfinite(dist)
    if int(mask.sum()) == 0:
        return IcpResult(pose, math.inf, iterations, False, 0.0)
    mse = float(np.mean(dist[mask] ** 2))
    return IcpResult(pose, mse, iterations, converged, float(mask.mean()))


def icp_register_multistart(
    source: PointCloud2,
    target: PointCloud2,
    initials: Sequence[Pose2],
    **kwargs,
) -> IcpResult:
    """Run icp_register from several initial guesses and keep the best.

    Converged results beat non-converged ones; ties break on mean squared
    error and then on the order of the initial guesses, so the outcome is
    deterministic.
    """
    if not initials:
        raise ValueError("need at least one initial guess")
    best: IcpResult | None = None
    for initial in initials:
        result = icp_register(source, target, initial, **kwargs)
        if best is None or (result.converged, -result.mean_sq_error) > (
            best.converged,
            -best.mean_sq_error,
        ):
            best = result
    assert best is not None
    return best

"""Rigid 2D scan registration.

_rigid_fit solves the least-squares alignment of matched point pairs in
closed form; icp_register wraps it in the iterate-correspond loop, with a
nearest-neighbour search bounded by a correspondence radius. That loop is a
fixed-point iteration u -> G(u) on the pose (x, y, theta), which converges
only linearly, slowest along corridors. icp_register accelerates it with
safeguarded Anderson acceleration (Pavlov et al., "AA-ICP", ICRA 2018;
Zhang, Yao and Deng, "Fast and Robust Iterative Closest Point", TPAMI
2022): the next pose mixes the last three plain steps (_anderson_step), and
a mixed pose that raises the truncated point-to-point energy is replaced by
the plain step. The loop keeps its pose as plain floats and queries the
target's cached KD-tree once per pass, so a pass costs the query plus a
handful of numpy calls.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .geometry import Pose2, PointCloud2

log = logging.getLogger(__name__)

DEFAULT_MAX_ITERATIONS = 50
# Cross-agent registration starts from drifted odometry, so source points
# can sit well over a meter from their true neighbours on the first pass.
DEFAULT_CORRESPONDENCE_RADIUS_M = 2.0
DEFAULT_TOLERANCE = 1e-5
# Plain-step images the Anderson mixing step draws on: two differences,
# so two mixing coefficients.
ANDERSON_HISTORY = 3
# Two mixing columns closer to collinear than this squared sine of their
# angle make the mixing step singular; the plain step is taken instead.
ANDERSON_MIN_SINE_SQ = 1e-6


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


def _anderson_step(
    images: Sequence[tuple[float, float, float]],
    residuals: Sequence[tuple[float, float, float]],
) -> tuple[float, float, float]:
    """The Anderson-mixed next pose from the latest plain-step images, oldest first.

    images[k] is G(u_k), the pose after one plain ICP step from the pose
    u_k, and residuals[k] is images[k] - u_k, both as (x, y, theta) floats
    with theta unwrapped. With ΔG and ΔF the differences of consecutive
    images and residuals, the proposal is images[-1] - ΔG·γ, where γ
    minimizes |residuals[-1] - ΔF·γ|. That least squares is at most 2×2 and
    is solved here in closed form, by its normal equations. With fewer than
    two images, or ΔF singular (a zero column, or two columns within
    ANDERSON_MIN_SINE_SQ of collinear), images[-1] itself is returned.
    """
    g, f = images[-1], residuals[-1]
    dg = [tuple(a - b for a, b in zip(new, old)) for old, new in zip(images, images[1:])]
    df = [tuple(a - b for a, b in zip(new, old)) for old, new in zip(residuals, residuals[1:])]
    if not df:
        return g
    if len(df) == 1:
        (col,) = df
        norm_sq = _dot(col, col)
        if norm_sq == 0.0:
            return g
        gamma = (_dot(col, f) / norm_sq,)
    else:
        c1, c2 = df
        a11, a12, a22 = _dot(c1, c1), _dot(c1, c2), _dot(c2, c2)
        det = a11 * a22 - a12 * a12
        # det / (a11 * a22) is the squared sine of the angle between the columns.
        if not det > ANDERSON_MIN_SINE_SQ * a11 * a22:
            return g
        b1, b2 = _dot(c1, f), _dot(c2, f)
        gamma = ((a22 * b1 - a12 * b2) / det, (a11 * b2 - a12 * b1) / det)
    return tuple(gk - sum(w * col[i] for w, col in zip(gamma, dg)) for i, gk in enumerate(g))


def _dot(u: Sequence[float], v: Sequence[float]) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def icp_register(
    source: PointCloud2,
    target: PointCloud2,
    initial: Pose2 = Pose2.identity(),
    *,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    correspondence_radius_m: float = DEFAULT_CORRESPONDENCE_RADIUS_M,
    tolerance: float = DEFAULT_TOLERANCE,
) -> IcpResult:
    """Iterative closest point from an initial guess, Anderson-accelerated.

    Each pass matches every transformed source point to its nearest target
    point within the radius, refits, and so takes the plain step u -> G(u).
    The next pass starts from the Anderson mix of the last ANDERSON_HISTORY
    plain steps (_anderson_step). The safeguard: a mixed pose whose
    truncated energy (mean squared neighbour distance, a point with no
    neighbour counting radius squared) exceeds the last accepted pose's is
    rejected, and the loop goes back to that pose's plain step with its
    history cleared. Stops when the plain step at an accepted pose falls
    below tolerance (converged) or at the cap on passes, returning the last
    plain step's pose. Losing all correspondences aborts with
    converged=False. iterations counts passes, one KD-tree query each,
    rejected ones included.
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
    far_sq = correspondence_radius_m * correspondence_radius_m
    # The pose this pass queries, kept with theta unwrapped so that the
    # mixing step can difference it; the plain step from the last accepted
    # pose; that pose's energy; and the plain-step history.
    pose = plain = (initial.x, initial.y, initial.theta)
    accepted_energy = math.inf
    images: list[tuple[float, float, float]] = []
    residuals: list[tuple[float, float, float]] = []
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        moved = _moved(src, *pose)
        dist, idx = tree.query(moved, distance_upper_bound=correspondence_radius_m)
        mask = np.isfinite(dist)
        inliers = int(np.count_nonzero(mask))
        near = dist if inliers == n else dist[mask]
        energy = (float((near * near).sum()) + (n - inliers) * far_sq) / n
        # Only a mixed pose can be rejected: pose is plain itself at the
        # start, after a rejection, and when _anderson_step had nothing to mix.
        if pose is not plain and energy > accepted_energy:
            pose = plain
            images.clear()
            residuals.clear()
            continue
        if inliers < 3:
            log.debug(
                "ICP lost correspondences at iteration %d (%d within %.2f m)",
                iterations, inliers, correspondence_radius_m,
            )
            return IcpResult(Pose2(*pose), math.inf, iterations, False, inliers / n)
        accepted_energy = energy
        if inliers == n:
            dtheta, c, s, dx, dy = _rigid_fit(moved, tgt[idx])
        else:
            dtheta, c, s, dx, dy = _rigid_fit(moved[mask], tgt[idx[mask]])
        x, y, theta = pose
        plain = (dx + c * x - s * y, dy + s * x + c * y, theta + dtheta)
        if math.hypot(dx, dy) + abs(dtheta) < tolerance:
            converged = True
            break
        images.append(plain)
        residuals.append((plain[0] - x, plain[1] - y, dtheta))
        if len(images) > ANDERSON_HISTORY:
            del images[0], residuals[0]
        pose = _anderson_step(images, residuals)

    dist, _ = tree.query(_moved(src, *plain), distance_upper_bound=correspondence_radius_m)
    mask = np.isfinite(dist)
    final = Pose2(*plain)
    if int(mask.sum()) == 0:
        return IcpResult(final, math.inf, iterations, False, 0.0)
    mse = float(np.mean(dist[mask] ** 2))
    return IcpResult(final, mse, iterations, converged, float(mask.mean()))


def best_result(results: Iterable[IcpResult]) -> IcpResult:
    """The best of several registrations of one scan pair.

    Converged results beat non-converged ones; ties break on mean squared
    error and then on order, the earliest winning, so the outcome is
    deterministic.
    """
    return max(results, key=lambda r: (r.converged, -r.mean_sq_error))


def icp_register_multistart(
    source: PointCloud2,
    target: PointCloud2,
    initials: Sequence[Pose2],
    **kwargs,
) -> IcpResult:
    """Run icp_register from each initial guess, in order, and return
    their best_result."""
    if not initials:
        raise ValueError("need at least one initial guess")
    return best_result(icp_register(source, target, initial, **kwargs) for initial in initials)

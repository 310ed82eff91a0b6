"""Planar rigid-body poses and point clouds.

Everything downstream (scan registration, pose-graph optimization, the
simulator) works in SE(2). Poses are (x, y, theta) with theta kept
normalized in (-pi, pi]; point clouds are read-only (n, 2) float arrays
that build their nearest-neighbour KD-tree once, on first use (which is
also when scipy.spatial is first imported).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from scipy.spatial import cKDTree

TWO_PI = 2.0 * math.pi


def normalize_angle(theta: float) -> float:
    """Wrap an angle in radians into (-pi, pi]."""
    if not math.isfinite(theta):
        raise ValueError(f"angle must be finite, got {theta!r}")
    wrapped = theta % TWO_PI  # in [0, 2*pi)
    if wrapped > math.pi:
        wrapped -= TWO_PI
    return wrapped


@dataclass(frozen=True)
class Pose2:
    """A rigid transform of the plane, also used as an agent pose.

    theta is normalized into (-pi, pi] on construction, so two poses that
    differ only by full turns compare equal.
    """

    x: float
    y: float
    theta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("pose translation must be finite")
        object.__setattr__(self, "theta", normalize_angle(self.theta))

    @staticmethod
    def identity() -> "Pose2":
        return Pose2(0.0, 0.0, 0.0)

    def rotation_matrix(self) -> np.ndarray:
        c, s = math.cos(self.theta), math.sin(self.theta)
        return np.array([[c, -s], [s, c]])

    def translation(self) -> np.ndarray:
        return np.array([self.x, self.y])


def compose(a: Pose2, b: Pose2) -> Pose2:
    """Chain two transforms: the result applies b first, then a."""
    c, s = math.cos(a.theta), math.sin(a.theta)
    return Pose2(
        a.x + c * b.x - s * b.y,
        a.y + s * b.x + c * b.y,
        a.theta + b.theta,
    )


def inverse(p: Pose2) -> Pose2:
    """The transform that undoes p, so compose(p, inverse(p)) is identity."""
    c, s = math.cos(p.theta), math.sin(p.theta)
    return Pose2(-(c * p.x + s * p.y), -(-s * p.x + c * p.y), -p.theta)


def relative_pose(a: Pose2, b: Pose2) -> Pose2:
    """Pose of b expressed in the frame of a (compose(a, rel) == b)."""
    return compose(inverse(a), b)


@dataclass(frozen=True, eq=False)
class PointCloud2:
    """An ordered set of 2D points with an opaque frame label.

    The coordinate array is copied on construction and frozen, so clouds can
    be shared freely. Empty clouds are allowed but mark a degenerate scan;
    consumers check is_empty before registering.
    """

    points: np.ndarray
    frame_id: str = ""

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.size == 0:
            pts = pts.reshape(0, 2)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"expected an (n, 2) array, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("point coordinates must be finite")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def is_empty(self) -> bool:
        return len(self) == 0

    @cached_property
    def kdtree(self) -> cKDTree:
        """Nearest-neighbour index over the points, built on first use and kept.

        Safe to cache because the points are frozen; scan registration
        queries one target cloud many times.
        """
        # Imported here so that commands which never register scans start
        # without loading scipy.spatial.
        from scipy.spatial import cKDTree

        return cKDTree(self.points)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PointCloud2):
            return NotImplemented
        return self.frame_id == other.frame_id and np.array_equal(self.points, other.points)


def transform_cloud(pose: Pose2, cloud: PointCloud2) -> PointCloud2:
    """Apply a rigid transform to every point of a cloud."""
    return PointCloud2(transform_points(pose, cloud.points), frame_id=cloud.frame_id)


def transform_points(pose: Pose2, points: np.ndarray) -> np.ndarray:
    """Apply a rigid transform to the rows of an (n, 2) array."""
    return points @ pose.rotation_matrix().T + pose.translation()

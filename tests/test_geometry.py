"""Planar transform and point cloud behaviour."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from textwifi_slam.geometry import (
    PointCloud2,
    Pose2,
    compose,
    inverse,
    normalize_angle,
    relative_pose,
    transform_cloud,
    transform_points,
)

coords = st.floats(-100.0, 100.0)
angles = st.floats(-50.0, 50.0)
poses = st.builds(Pose2, coords, coords, angles)


def test_normalize_angle_edges():
    assert normalize_angle(0.0) == 0.0
    assert normalize_angle(math.pi) == math.pi
    assert normalize_angle(-math.pi) == math.pi
    assert normalize_angle(2.0 * math.pi) == 0.0
    assert normalize_angle(2.0 * math.pi + 0.5) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_normalize_angle_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        normalize_angle(bad)


@given(angles)
def test_normalize_angle_is_in_range_and_equivalent(theta):
    wrapped = normalize_angle(theta)
    assert -math.pi < wrapped <= math.pi
    assert math.cos(wrapped) == pytest.approx(math.cos(theta), abs=1e-9)
    assert math.sin(wrapped) == pytest.approx(math.sin(theta), abs=1e-9)


def test_pose_normalizes_theta_on_construction():
    assert Pose2(0.0, 0.0, 2.0 * math.pi + 0.25).theta == pytest.approx(0.25, abs=1e-12)
    assert Pose2(1.0, 2.0, -3.0 * math.pi).theta == pytest.approx(math.pi, abs=1e-12)


def test_pose_rejects_non_finite_translation():
    with pytest.raises(ValueError):
        Pose2(math.nan, 0.0, 0.0)
    with pytest.raises(ValueError):
        Pose2(0.0, math.inf, 0.0)


def test_rotation_matrix_is_orthonormal():
    rot = Pose2(0.0, 0.0, 0.7).rotation_matrix()
    assert np.allclose(rot @ rot.T, np.eye(2), atol=1e-15)
    assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-15)


def test_compose_with_identity_is_neutral():
    p = Pose2(3.0, -2.0, 0.4)
    assert compose(p, Pose2.identity()) == p
    assert compose(Pose2.identity(), p) == p


@given(poses)
def test_compose_inverse_roundtrip(p):
    back = compose(p, inverse(p))
    assert math.hypot(back.x, back.y) < 1e-9
    assert abs(back.theta) < 1e-9


@given(poses, poses)
def test_relative_pose_recovers_target(a, b):
    again = compose(a, relative_pose(a, b))
    assert again.x == pytest.approx(b.x, abs=1e-8)
    assert again.y == pytest.approx(b.y, abs=1e-8)
    assert abs(normalize_angle(again.theta - b.theta)) < 1e-9


def test_cloud_rejects_bad_shapes_and_values():
    with pytest.raises(ValueError):
        PointCloud2(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        PointCloud2(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        PointCloud2(np.array([[1.0, math.nan]]))


def test_empty_cloud_has_canonical_shape():
    cloud = PointCloud2([])
    assert cloud.is_empty
    assert len(cloud) == 0
    assert cloud.points.shape == (0, 2)


def test_cloud_is_immutable_and_copies_input():
    source = np.array([[1.0, 2.0], [3.0, 4.0]])
    cloud = PointCloud2(source)
    source[0, 0] = 99.0
    assert cloud.points[0, 0] == 1.0
    with pytest.raises(ValueError):
        cloud.points[0, 0] = 5.0


def test_cloud_kdtree_is_built_once_and_finds_nearest_points():
    pts = np.random.default_rng(3).uniform(-5.0, 5.0, (50, 2))
    cloud = PointCloud2(pts)
    assert cloud.kdtree is cloud.kdtree
    queries = np.random.default_rng(4).uniform(-5.0, 5.0, (20, 2))
    _, idx = cloud.kdtree.query(queries)
    brute = np.argmin(np.linalg.norm(queries[:, None, :] - pts[None, :, :], axis=2), axis=1)
    assert np.array_equal(idx, brute)


def test_cloud_equality_includes_frame():
    pts = [[0.0, 0.0], [1.0, 1.0]]
    assert PointCloud2(pts, frame_id="a") == PointCloud2(pts, frame_id="a")
    assert PointCloud2(pts, frame_id="a") != PointCloud2(pts, frame_id="b")
    assert PointCloud2(pts) != object()


def test_transform_cloud_matches_manual_arithmetic():
    pose = Pose2(1.0, -2.0, math.pi / 3.0)
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 2.0]])
    moved = transform_cloud(pose, PointCloud2(pts, frame_id="x"))
    expected = pts @ pose.rotation_matrix().T + np.array([1.0, -2.0])
    assert np.allclose(moved.points, expected, atol=1e-15)
    assert moved.frame_id == "x"
    assert np.allclose(transform_points(pose, pts), expected, atol=1e-15)


def test_transform_preserves_pairwise_distances():
    pose = Pose2(-4.0, 7.0, 2.1)
    pts = np.random.default_rng(3).uniform(-5, 5, (20, 2))
    moved = transform_points(pose, pts)
    before = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    after = np.linalg.norm(moved[:, None] - moved[None, :], axis=2)
    assert np.allclose(before, after, atol=1e-12)


def test_transform_empty_cloud_stays_empty():
    out = transform_cloud(Pose2(1.0, 1.0, 1.0), PointCloud2([], frame_id="e"))
    assert out.is_empty
    assert out.frame_id == "e"

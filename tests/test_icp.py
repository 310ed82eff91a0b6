"""Rigid fitting and scan registration."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from textwifi_slam import icp, pipeline, pose_graph
from textwifi_slam.config import config_for_scenario
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
from textwifi_slam.icp import IcpResult, _rigid_fit, icp_register, icp_register_multistart
from textwifi_slam.place_recognition import Verdict
from textwifi_slam.pose_graph import register_keyframe_pair

from conftest import L_SHAPE

poses = st.builds(
    Pose2,
    st.floats(-10.0, 10.0),
    st.floats(-10.0, 10.0),
    st.floats(-math.pi, math.pi),
)


def pose_error(expected: Pose2, actual: Pose2) -> tuple[float, float]:
    err = relative_pose(expected, actual)
    return math.hypot(err.x, err.y), abs(err.theta)


def kabsch_svd(source: np.ndarray, target: np.ndarray) -> Pose2:
    """Reference fit: SVD of the centred cross-covariance, reflection corrected."""
    src_mean = source.mean(axis=0)
    tgt_mean = target.mean(axis=0)
    u, _, vt = np.linalg.svd((source - src_mean).T @ (target - tgt_mean))
    d = np.sign(np.linalg.det(vt.T @ u.T))
    rot = vt.T @ np.diag([1.0, d]) @ u.T
    tx, ty = tgt_mean - rot @ src_mean
    return Pose2(float(tx), float(ty), math.atan2(rot[1, 0], rot[0, 0]))


def reference_icp_register(
    source: PointCloud2,
    target: PointCloud2,
    initial: Pose2 = Pose2.identity(),
    *,
    max_iterations: int,
    correspondence_radius_m: float,
    tolerance: float,
) -> IcpResult:
    """Reference registration: the ICP loop over Pose2 objects and the SVD fit."""
    tree = cKDTree(target.points)
    pose = initial
    converged = False
    for iterations in range(1, max_iterations + 1):
        moved = transform_points(pose, source.points)
        dist, idx = tree.query(moved, distance_upper_bound=correspondence_radius_m)
        mask = np.isfinite(dist)
        if int(mask.sum()) < 3:
            return IcpResult(pose, math.inf, iterations, False, float(mask.mean()))
        delta = kabsch_svd(moved[mask], target.points[idx[mask]])
        pose = compose(delta, pose)
        if math.hypot(delta.x, delta.y) + abs(delta.theta) < tolerance:
            converged = True
            break
    moved = transform_points(pose, source.points)
    dist, _ = tree.query(moved, distance_upper_bound=correspondence_radius_m)
    mask = np.isfinite(dist)
    if int(mask.sum()) == 0:
        return IcpResult(pose, math.inf, iterations, False, 0.0)
    mse = float(np.mean(dist[mask] ** 2))
    return IcpResult(pose, mse, iterations, converged, float(mask.mean()))


@st.composite
def noisy_correspondences(draw):
    """Matched clouds with noise, optional near-collinearity and far offsets."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 40))
    flatness = draw(st.sampled_from([1.0, 1e-2, 1e-4]))
    tilt = Pose2(
        draw(st.floats(-50.0, 50.0)), draw(st.floats(-50.0, 50.0)), draw(st.floats(-math.pi, math.pi))
    )
    source = transform_points(tilt, rng.uniform(-3.0, 3.0, (n, 2)) * [1.0, flatness])
    noise = draw(st.floats(0.0, 0.1))
    target = transform_points(draw(poses), source) + noise * rng.standard_normal((n, 2))
    return source, target


def rigid_fit(source: np.ndarray, target: np.ndarray) -> Pose2:
    """_rigid_fit's (theta, cos, sin, tx, ty) as a pose."""
    theta, _, _, tx, ty = _rigid_fit(source, target)
    return Pose2(tx, ty, theta)


@given(noisy_correspondences())
def test_closed_form_fit_agrees_with_svd_kabsch(pair):
    source, target = pair
    fit = rigid_fit(source, target)
    oracle = kabsch_svd(source, target)
    assert abs(fit.x - oracle.x) < 1e-9
    assert abs(fit.y - oracle.y) < 1e-9
    assert abs(normalize_angle(fit.theta - oracle.theta)) < 1e-9


@given(poses)
def test_svd_fit_recovers_exact_transform(pose):
    source = np.random.default_rng(0).uniform(-3, 3, (8, 2))
    target = transform_points(pose, source)
    fit = rigid_fit(source, target)
    te, re = pose_error(pose, fit)
    assert te < 1e-9
    assert re < 1e-9


def test_svd_fit_never_returns_a_reflection():
    # A mirrored cloud tempts the plain SVD solution into det = -1.
    source = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    target = source * np.array([1.0, -1.0])
    fit = rigid_fit(source, target)
    assert np.linalg.det(fit.rotation_matrix()) == pytest.approx(1.0, abs=1e-12)


def test_svd_fit_input_validation():
    # Coincident source points leave the rotation unobservable; so does a
    # single pair, whose one point coincides with its own mean.
    with pytest.raises(ValueError):
        _rigid_fit(np.zeros((5, 2)), np.zeros((5, 2)))
    with pytest.raises(ValueError):
        _rigid_fit(np.ones((1, 2)), np.zeros((1, 2)))


def test_icp_converges_from_near_initial(corridor_cloud):
    g = Pose2(0.4, -0.3, math.radians(12.0))
    source = transform_cloud(g, corridor_cloud)
    out = icp_register(
        source, corridor_cloud, correspondence_radius_m=40.0, tolerance=1e-10,
        max_iterations=100,
    )
    te, re = pose_error(inverse(g), out.transform)
    assert out.converged
    assert te < 1e-9
    assert re < 1e-9
    assert out.mean_sq_error < 1e-18
    assert out.inlier_fraction == 1.0


def test_icp_reports_lost_correspondences():
    cloud = PointCloud2(L_SHAPE)
    offset = transform_cloud(Pose2(50.0, 0.0, 0.0), cloud)
    out = icp_register(offset, cloud, correspondence_radius_m=0.5)
    assert not out.converged
    assert math.isinf(out.mean_sq_error)
    assert out.inlier_fraction == 0.0


def test_icp_iteration_cap_reported():
    g = Pose2(0.2, 0.1, 0.05)
    cloud = PointCloud2(L_SHAPE)
    source = transform_cloud(g, cloud)
    out = icp_register(source, cloud, max_iterations=1, correspondence_radius_m=10.0)
    assert out.iterations == 1


def test_icp_input_validation(corridor_cloud):
    tiny = PointCloud2([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        icp_register(tiny, corridor_cloud)
    with pytest.raises(ValueError):
        icp_register(corridor_cloud, corridor_cloud, max_iterations=0)
    with pytest.raises(ValueError):
        icp_register(corridor_cloud, corridor_cloud, correspondence_radius_m=0.0)
    with pytest.raises(ValueError):
        icp_register(corridor_cloud, corridor_cloud, tolerance=-1.0)


def test_multistart_recovers_a_half_turn(corridor_cloud):
    g = Pose2(0.5, 0.2, math.pi - 0.05)
    source = transform_cloud(g, corridor_cloud)
    kwargs = dict(correspondence_radius_m=40.0, tolerance=1e-10, max_iterations=150)

    single = icp_register(source, corridor_cloud, **kwargs)
    te_single, _ = pose_error(inverse(g), single.transform)
    assert te_single > 0.1  # identity start lands in the wrong basin

    starts = [Pose2(0.0, 0.0, a) for a in (0.0, math.pi / 2, -math.pi / 2, math.pi)]
    multi = icp_register_multistart(source, corridor_cloud, starts, **kwargs)
    te, re = pose_error(inverse(g), multi.transform)
    assert multi.converged
    assert te < 1e-6
    assert re < 1e-6


def test_multistart_prefers_converged_results(corridor_cloud):
    g = Pose2(0.1, 0.0, 0.0)
    source = transform_cloud(g, corridor_cloud)
    # The far guess loses every correspondence; the honest one converges.
    starts = [Pose2(500.0, 500.0, 0.0), Pose2.identity()]
    out = icp_register_multistart(
        source, corridor_cloud, starts, correspondence_radius_m=5.0, tolerance=1e-10
    )
    assert out.converged
    te, re = pose_error(inverse(g), out.transform)
    assert te < 1e-8


def test_multistart_requires_initial_guesses(corridor_cloud):
    with pytest.raises(ValueError):
        icp_register_multistart(corridor_cloud, corridor_cloud, [])


@pytest.fixture(scope="module")
def scene01_pairs():
    """About twenty accepted keyframe pairs of scene01 seed 0, and their config."""
    cfg = config_for_scenario("scene01", seed=0)
    recordings = pipeline.stage_simulate(*pipeline.stage_generate(cfg))
    keyframes, candidates, _ = pipeline.stage_match(recordings, cfg)
    by_key = {kf.key: kf for kf in keyframes}
    accepted = [c for c in candidates if c.verdict is Verdict.ACCEPTED]
    return cfg, [(by_key[c.a], by_key[c.b]) for c in accepted[::33]]


def test_kernel_matches_the_svd_loop_on_scene_pairs(scene01_pairs, monkeypatch):
    cfg, pairs = scene01_pairs
    kwargs = dict(
        max_iterations=cfg.icp_max_iterations,
        correspondence_radius_m=cfg.icp_correspondence_radius_m,
        tolerance=cfg.icp_tolerance,
    )

    def run(register) -> tuple[list[IcpResult], list[list[IcpResult]]]:
        def recorded(*args, **kw):
            calls[-1].append(register(*args, **kw))
            return calls[-1][-1]

        monkeypatch.setattr(icp, "icp_register", recorded)
        monkeypatch.setattr(pose_graph, "icp_register", recorded)
        calls: list[list[IcpResult]] = []
        results = []
        for a, b in pairs:
            calls.append([])
            results.append(register_keyframe_pair(a, b, **kwargs))
        return results, calls

    got, got_calls = run(icp_register)
    want, want_calls = run(reference_icp_register)
    assert [len(c) for c in got_calls] == [len(c) for c in want_calls]
    assert sum(len(c) > 1 for c in want_calls) >= 3  # pairs that fell back to the sweep
    flat_got = got + [r for c in got_calls for r in c]
    flat_want = want + [r for c in want_calls for r in c]
    for g, w in zip(flat_got, flat_want):
        assert (g.iterations, g.converged, g.inlier_fraction) == (
            w.iterations, w.converged, w.inlier_fraction
        )
        assert abs(g.transform.x - w.transform.x) < 1e-9
        assert abs(g.transform.y - w.transform.y) < 1e-9
        assert abs(normalize_angle(g.transform.theta - w.transform.theta)) < 1e-9
        assert g.mean_sq_error == pytest.approx(w.mean_sq_error, rel=1e-9, abs=1e-12)

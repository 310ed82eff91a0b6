"""Graph assembly, robust optimization, and merged-map construction."""

import math
import multiprocessing
import os
from concurrent import futures
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from textwifi_slam import pipeline, pose_graph
from textwifi_slam.config import config_for_scenario
from textwifi_slam.geometry import Pose2, compose, inverse, relative_pose, transform_points
from textwifi_slam.icp import IcpResult
from textwifi_slam.place_recognition import MatchCandidate, Verdict
from textwifi_slam.pose_graph import (
    OptimizeStats,
    PoseGraph,
    PoseGraphEdge,
    _ComponentProblem,
    build_pose_graph,
    merge_maps,
    optimize_pose_graph,
    register_keyframe_pair,
    register_keyframe_pairs,
)
from textwifi_slam.wifi import WifiMatchScore
from textwifi_slam.world import CorridorTemplate, generate_floorplan, raycast

from conftest import make_keyframe

K0, K1, K2 = ("a0", 0), ("a0", 1), ("a0", 2)

TRUTH = {
    K0: Pose2(0.0, 0.0, 0.0),
    K1: Pose2(2.0, 0.5, 0.3),
    K2: Pose2(3.5, 2.0, -0.4),
}


def triangle_graph(initial: dict) -> PoseGraph:
    """Odometry chain 0-1-2 plus a 0-2 loop, all with exact measurements."""
    def edge(a, b, kind):
        return PoseGraphEdge(a, b, relative_pose(TRUTH[a], TRUTH[b]), 1.0, kind)

    return PoseGraph(
        nodes=dict(initial),
        odometry_edges=[edge(K0, K1, "odometry"), edge(K1, K2, "odometry")],
        loop_edges=[edge(K0, K2, "loop")],
    )


def perturbed_initial() -> dict:
    return {
        K0: TRUTH[K0],
        K1: Pose2(2.4, 0.1, 0.55),
        K2: Pose2(2.9, 2.6, -0.1),
    }


def pose_close(a: Pose2, b: Pose2, tol: float = 1e-8) -> bool:
    err = relative_pose(a, b)
    return math.hypot(err.x, err.y) < tol and abs(err.theta) < tol


class TestOptimize:
    def test_consistent_triangle_solved_exactly(self):
        graph = triangle_graph(perturbed_initial())
        solution, stats = optimize_pose_graph(graph, return_stats=True)
        for key in TRUTH:
            assert pose_close(solution[key], TRUTH[key])
        assert stats.final_objective < 1e-16
        (history,) = stats.objective_histories
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

    def test_first_node_is_the_gauge(self):
        start = {K0: Pose2(7.0, -2.0, 1.0), K1: TRUTH[K1], K2: TRUTH[K2]}
        solution = optimize_pose_graph(triangle_graph(start))
        assert solution[K0] == start[K0]

    def test_solution_moves_with_the_gauge(self):
        base = optimize_pose_graph(triangle_graph(perturbed_initial()))
        shift = Pose2(5.0, -3.0, 0.0)
        shifted_start = {
            k: Pose2(p.x + shift.x, p.y + shift.y, p.theta)
            for k, p in perturbed_initial().items()
        }
        moved = optimize_pose_graph(triangle_graph(shifted_start))
        for key in TRUTH:
            assert pose_close(moved[key], compose(shift, base[key]))

    def test_single_node_graph_is_a_no_op(self):
        only = Pose2(1.0, 2.0, 0.5)
        graph = PoseGraph(nodes={K0: only})
        solution, stats = optimize_pose_graph(graph, return_stats=True)
        assert solution == {K0: only}
        assert stats.objective_histories == [[0.0]]

    def test_components_are_solved_independently(self):
        # Two agents with no loop between them: each keeps its own frame.
        nodes = {
            ("a0", 0): Pose2(0.0, 0.0, 0.0),
            ("a0", 1): Pose2(1.0, 0.0, 0.0),
            ("a1", 0): Pose2(40.0, 9.0, 1.0),
            ("a1", 1): Pose2(41.0, 9.0, 1.0),
        }
        edges = [
            PoseGraphEdge(("a0", 0), ("a0", 1), Pose2(1.2, 0.0, 0.0), 1.0, "odometry"),
            PoseGraphEdge(("a1", 0), ("a1", 1), Pose2(0.8, 0.0, 0.0), 1.0, "odometry"),
        ]
        graph = PoseGraph(nodes=nodes, odometry_edges=edges)
        solution, stats = optimize_pose_graph(graph, return_stats=True)
        assert len(stats.objective_histories) == 2
        assert solution[("a0", 0)] == nodes[("a0", 0)]
        assert solution[("a1", 0)] == nodes[("a1", 0)]
        assert pose_close(relative_pose(solution[("a0", 0)], solution[("a0", 1)]), Pose2(1.2, 0.0, 0.0))
        assert pose_close(relative_pose(solution[("a1", 0)], solution[("a1", 1)]), Pose2(0.8, 0.0, 0.0))

    def test_parameter_and_graph_validation(self):
        graph = triangle_graph(perturbed_initial())
        with pytest.raises(ValueError):
            optimize_pose_graph(graph, max_outer_iterations=0)
        with pytest.raises(ValueError):
            optimize_pose_graph(graph, robust_kernel_scale=0.0)

        dangling = PoseGraph(
            nodes={K0: Pose2.identity()},
            loop_edges=[PoseGraphEdge(K0, ("ghost", 9), Pose2.identity(), 1.0, "loop")],
        )
        with pytest.raises(ValueError):
            optimize_pose_graph(dangling)

        bad_weight = triangle_graph(perturbed_initial())
        bad_weight.loop_edges[0] = PoseGraphEdge(K0, K2, Pose2.identity(), 0.0, "loop")
        with pytest.raises(ValueError):
            optimize_pose_graph(bad_weight)


class TestNormalEquations:
    """The linearization must agree with the objective it claims to model."""

    def problem(self, kernel_scale: float) -> _ComponentProblem:
        graph = triangle_graph(perturbed_initial())
        return _ComponentProblem(sorted(graph.nodes), graph, kernel_scale)

    @pytest.mark.parametrize("kernel_scale", [1e6, 0.05])
    def test_gradient_matches_finite_differences(self, kernel_scale):
        # kernel 1e6 keeps every edge in the quadratic region; 0.05 puts all
        # of them on the linear branch of the kernel, well away from its knee.
        problem = self.problem(kernel_scale)
        x = problem.x
        _, b = problem.build_normal_equations(x)

        h = 1e-6
        flat = x.reshape(-1)
        fd = np.empty_like(flat)
        for i in range(flat.size):
            bump = np.zeros_like(flat)
            bump[i] = h
            hi = problem.objective((flat + bump).reshape(-1, 3))
            lo = problem.objective((flat - bump).reshape(-1, 3))
            fd[i] = (hi - lo) / (2.0 * h)
        assert np.allclose(b, fd, rtol=1e-5, atol=1e-8)

    def test_normal_matrix_symmetric_positive_semidefinite(self):
        problem = self.problem(1.0)
        H, _ = problem.build_normal_equations(problem.x)
        assert np.allclose(H, H.T, atol=1e-12)
        eigs = np.linalg.eigvalsh(H)
        assert eigs.min() > -1e-10 * max(1.0, eigs.max())

    def test_objective_zero_at_consistent_state(self):
        graph = triangle_graph(TRUTH)
        problem = _ComponentProblem(sorted(graph.nodes), graph, 1.0)
        assert problem.objective(problem.x) < 1e-28


def accepted(a, b) -> MatchCandidate:
    return MatchCandidate(a, b, 1.0, WifiMatchScore(1.0, 0.0, 1.0), Verdict.ACCEPTED)


class TestBuildGraph:
    def test_odometry_chains_follow_keyframe_order(self):
        kfs = [
            make_keyframe("a0", 1, 10.0, pose=Pose2(1.0, 0.0, 0.0)),
            make_keyframe("a1", 0, 3.0, pose=Pose2(0.0, 5.0, 0.0)),
            make_keyframe("a0", 0, 5.0, pose=Pose2(0.0, 0.0, 0.0)),
            make_keyframe("a0", 2, 15.0, pose=Pose2(2.0, 1.0, 0.3)),
        ]
        graph = build_pose_graph(kfs, [])
        assert set(graph.nodes) == {("a0", 0), ("a0", 1), ("a0", 2), ("a1", 0)}
        assert [(e.a, e.b) for e in graph.odometry_edges] == [
            (("a0", 0), ("a0", 1)),
            (("a0", 1), ("a0", 2)),
        ]
        chain = graph.odometry_edges[1]
        assert chain.relative == relative_pose(Pose2(1.0, 0.0, 0.0), Pose2(2.0, 1.0, 0.3))
        assert chain.weight == 1.0
        assert chain.kind == "odometry"

    def test_loop_edges_weighted_by_registration_error(self):
        kfs = [make_keyframe("a0", 0, 0.0), make_keyframe("a1", 0, 1.0)]
        fit = Pose2(0.1, 0.0, 0.0)
        results = [
            (accepted(("a0", 0), ("a1", 0)), IcpResult(fit, 0.25, 5, True, 1.0)),
        ]
        graph = build_pose_graph(kfs, results)
        (edge,) = graph.loop_edges
        assert edge.kind == "loop"
        assert edge.relative == fit
        assert edge.weight == pytest.approx(4.0)

    def test_perfect_registration_hits_the_weight_floor(self):
        kfs = [make_keyframe("a0", 0, 0.0), make_keyframe("a1", 0, 1.0)]
        results = [
            (accepted(("a0", 0), ("a1", 0)), IcpResult(Pose2.identity(), 0.0, 2, True, 1.0)),
        ]
        graph = build_pose_graph(kfs, results)
        assert graph.loop_edges[0].weight == pytest.approx(1e6)

    def test_failed_registrations_are_dropped_and_counted(self):
        kfs = [make_keyframe("a0", 0, 0.0), make_keyframe("a1", 0, 1.0)]
        results = [
            (accepted(("a0", 0), ("a1", 0)), IcpResult(Pose2.identity(), math.inf, 50, False, 0.0)),
        ]
        graph = build_pose_graph(kfs, results)
        assert graph.loop_edges == []
        assert graph.dropped_loop_count == 1
        assert len(graph.odometry_edges) == 0  # single-keyframe agents, no chain


class TestRegisterPair:
    def test_odometry_guess_is_enough_when_it_is_close(self, corridor_cloud):
        true_rel = Pose2(0.3, -0.2, 0.15)
        a_pose = Pose2(5.0, 5.0, 0.5)
        a = make_keyframe("a0", 0, 0.0, pose=a_pose, scan_points=corridor_cloud.points)
        b = make_keyframe(
            "a1", 0, 1.0,
            pose=compose(a_pose, Pose2(0.32, -0.18, 0.14)),
            scan_points=transform_points(inverse(true_rel), corridor_cloud.points),
        )
        out = register_keyframe_pair(
            a, b, correspondence_radius_m=40.0, tolerance=1e-10, max_iterations=100
        )
        assert out.converged
        assert out.inlier_fraction == 1.0
        assert pose_close(out.transform, true_rel, tol=1e-8)

    def test_falls_back_to_rotation_sweep_when_odometry_lies(self, corridor_cloud):
        true_rel = Pose2(0.0, 0.0, math.pi / 2.0)
        a = make_keyframe("a0", 0, 0.0, scan_points=corridor_cloud.points)
        b = make_keyframe(
            "a1", 0, 1.0,
            pose=Pose2(100.0, 0.0, 0.0),  # odometry puts b nowhere near a
            scan_points=transform_points(inverse(true_rel), corridor_cloud.points),
        )
        out = register_keyframe_pair(
            a, b, correspondence_radius_m=40.0, tolerance=1e-10, max_iterations=150
        )
        assert out.converged
        assert pose_close(out.transform, true_rel, tol=1e-6)

    def test_corridor_aliased_odometry_fit_does_not_win(self):
        """A drifted guess in a self-similar corridor settles into a
        converged, high-overlap registration one room pitch off. Its
        residual is an order of magnitude above a true fit's, and that
        alone must force the rotation sweep."""
        plan = generate_floorplan(CorridorTemplate(), 0, 8, seed=0)
        local = np.arange(360) * math.radians(1.0)

        def scan_from(pose: Pose2, seed: int) -> np.ndarray:
            rng = np.random.default_rng(seed)
            ranges = raycast((pose.x, pose.y), pose.theta + local, plan.walls, 15.0)
            hit = np.isfinite(ranges)
            noisy = ranges[hit] + rng.standard_normal(int(hit.sum())) * 0.01
            return np.stack(
                [noisy * np.cos(local[hit]), noisy * np.sin(local[hit])], axis=1
            )

        spot = Pose2(1.5, 1.5, 0.0)
        facing_back = Pose2(1.5, 1.5, math.pi)
        a = make_keyframe("a0", 0, 0.0, pose=spot, scan_points=scan_from(spot, 7))
        b = make_keyframe(
            "a2", 37, 104.0,
            # dead reckoning has drifted ~10.8 m down the corridor
            pose=Pose2(12.3, 1.3, -0.89),
            scan_points=scan_from(facing_back, 8),
        )
        out = register_keyframe_pair(a, b, correspondence_radius_m=2.0, max_iterations=50)
        assert out.converged
        assert math.hypot(out.transform.x, out.transform.y) < 0.05
        assert abs(abs(out.transform.theta) - math.pi) < 0.01
        assert out.mean_sq_error < 0.01


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs whatever the host has, so the pool path runs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


@pytest.fixture(scope="module")
def scene01_accepted_pairs():
    """Every accepted keyframe pair of scene01 seed 0, and the ICP settings."""
    cfg = config_for_scenario("scene01", seed=0)
    recordings = pipeline.stage_simulate(*pipeline.stage_generate(cfg))
    keyframes, candidates, _ = pipeline.stage_match(recordings, cfg)
    by_key = {kf.key: kf for kf in keyframes}
    pairs = [(by_key[c.a], by_key[c.b]) for c in candidates if c.verdict is Verdict.ACCEPTED]
    kwargs = dict(
        max_iterations=cfg.icp_max_iterations,
        correspondence_radius_m=cfg.icp_correspondence_radius_m,
        tolerance=cfg.icp_tolerance,
    )
    return pairs, kwargs


class TestRegisterPairs:
    def test_pool_matches_the_in_process_loop(self, scene01_accepted_pairs, two_cpus):
        pairs, kwargs = scene01_accepted_pairs
        pooled = register_keyframe_pairs(pairs, **kwargs)
        assert multiprocessing.active_children() == []
        expected = [register_keyframe_pair(a, b, **kwargs) for a, b in pairs]
        assert len(pooled) == len(expected)
        for got, want in zip(pooled, expected):
            assert got.transform == want.transform
            assert got.mean_sq_error == want.mean_sq_error
            assert got.iterations == want.iterations
            assert got.converged == want.converged
            assert got.inlier_fraction == want.inlier_fraction

    @pytest.mark.parametrize("count, cpus", [(0, 2), (1, 2), (3, 1)])
    def test_no_pool_for_few_pairs_or_one_cpu(self, count, cpus, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was created")

        monkeypatch.setattr(futures, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        a = make_keyframe("a0", 0, 0.0)
        b = make_keyframe("a1", 0, 1.0, pose=Pose2(0.1, -0.1, 0.05))
        out = register_keyframe_pairs([(a, b)] * count, max_iterations=20)
        assert out == [register_keyframe_pair(a, b, max_iterations=20)] * count

    def test_a_failing_pair_raises_in_the_caller(self, two_cpus):
        a = make_keyframe("a0", 0, 0.0)
        b = make_keyframe("a1", 0, 1.0)
        sparse = make_keyframe("a2", 0, 2.0, scan_points=np.array([[0.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(ValueError) as direct:
            register_keyframe_pair(a, sparse)
        with pytest.raises(ValueError) as pooled:
            register_keyframe_pairs([(a, b), (a, sparse), (a, b)])
        assert type(pooled.value) is type(direct.value)
        assert pooled.value.args == direct.value.args
        assert multiprocessing.active_children() == []

    def test_a_dying_worker_raises_in_the_caller(self, two_cpus, monkeypatch):
        """A worker that exits mid-run breaks the pool: the caller gets
        BrokenProcessPool and no worker is left behind. cli.main turns any
        stage exception into exit code 2, so this surfaces as a failed run."""
        register = pose_graph.register_keyframe_pair

        def die_on_doomed(a, b, **kwargs):
            if b.agent_id == "doomed":
                os._exit(1)
            return register(a, b, **kwargs)

        monkeypatch.setattr(pose_graph, "register_keyframe_pair", die_on_doomed)
        a = make_keyframe("a0", 0, 0.0)
        b = make_keyframe("a1", 0, 1.0)
        doomed = make_keyframe("doomed", 0, 2.0)
        with pytest.raises(BrokenProcessPool):
            register_keyframe_pairs([(a, b), (a, b), (a, doomed), (a, b)], max_iterations=20)
        assert multiprocessing.active_children() == []


class TestMergeMaps:
    def test_scans_are_projected_and_concatenated(self):
        pts_a = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        pts_b = np.array([[0.0, 0.0], [-1.0, 0.0], [0.5, 0.5]])
        kfs = [
            make_keyframe("a1", 0, 1.0, scan_points=pts_b),
            make_keyframe("a0", 0, 0.0, scan_points=pts_a),
        ]
        poses = {("a0", 0): Pose2.identity(), ("a1", 0): Pose2(10.0, 0.0, 0.0)}
        merged = merge_maps(poses, kfs)
        assert merged.frame_id == "merged"
        expected = np.concatenate(
            [pts_a, transform_points(poses[("a1", 0)], pts_b)], axis=0
        )
        assert np.allclose(merged.points, expected)

    def test_voxel_filter_keeps_first_point_per_cell(self):
        pts = np.array([[0.05, 0.05], [0.40, 0.40], [1.5, 1.5], [0.10, 1.20]])
        kfs = [make_keyframe("a0", 0, 0.0, scan_points=pts)]
        merged = merge_maps({("a0", 0): Pose2.identity()}, kfs, voxel_size_m=1.0)
        assert np.allclose(merged.points, [[0.05, 0.05], [1.5, 1.5], [0.10, 1.20]])

    def test_unoptimized_keyframes_are_skipped(self):
        kfs = [make_keyframe("a0", 0, 0.0), make_keyframe("a1", 0, 1.0)]
        merged = merge_maps({("a0", 0): Pose2.identity()}, kfs)
        assert len(merged) == len(kfs[0].scan)

    def test_empty_inputs_give_an_empty_map(self):
        merged = merge_maps({}, [])
        assert merged.is_empty
        assert merged.points.shape == (0, 2)

    def test_negative_voxel_size_rejected(self):
        with pytest.raises(ValueError):
            merge_maps({}, [], voxel_size_m=-0.5)


def test_stats_aggregate_component_histories():
    stats = OptimizeStats([[4.0, 1.0], [2.0, 0.5]])
    assert stats.initial_objective == pytest.approx(6.0)
    assert stats.final_objective == pytest.approx(1.5)

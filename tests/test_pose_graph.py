"""Graph assembly, robust optimization, and merged-map construction."""

import math
import multiprocessing
import os
import subprocess
import sys
from concurrent import futures
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from textwifi_slam import icp, pipeline, pose_graph
from textwifi_slam.config import config_for_scenario
from textwifi_slam.geometry import Pose2, compose, inverse, relative_pose, transform_points
from textwifi_slam.icp import IcpResult
from textwifi_slam.place_recognition import MatchCandidate, Verdict, group_visits
from textwifi_slam.pose_graph import (
    OptimizeStats,
    PoseGraph,
    PoseGraphEdge,
    RegistrationWork,
    _ComponentProblem,
    build_pose_graph,
    merge_maps,
    optimize_pose_graph,
    register_keyframe_pair,
    register_keyframe_pairs,
)
from textwifi_slam.wifi import WifiMatchScore
from textwifi_slam.world import generate_floorplan, raycast

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

        dangling = PoseGraph(
            nodes={K0: Pose2.identity()},
            loop_edges=[PoseGraphEdge(K0, ("ghost", 9), Pose2.identity(), 1.0, "loop")],
        )
        with pytest.raises(ValueError):
            optimize_pose_graph(dangling)

        for weight in (0.0, math.nan, math.inf):
            bad_weight = triangle_graph(perturbed_initial())
            bad_weight.loop_edges[0] = PoseGraphEdge(K0, K2, Pose2.identity(), weight, "loop")
            with pytest.raises(ValueError):
                optimize_pose_graph(bad_weight)


# A 150-node chain with 300 noisy loops: big enough that a dense LAPACK
# solve would split its work over BLAS threads. The solve must stay
# independent of the BLAS thread count.
_BIG_GRAPH_SOLUTION = """
import random
from textwifi_slam.geometry import Pose2, compose, relative_pose
from textwifi_slam.pose_graph import PoseGraph, PoseGraphEdge, optimize_pose_graph

rng = random.Random(3)
truth = [Pose2(0.0, 0.0, 0.0)]
for _ in range(149):
    truth.append(compose(truth[-1], Pose2(1.0, 0.0, rng.uniform(-0.3, 0.3))))
keys = [("a0", i) for i in range(150)]

def measured(i, j):
    rel = relative_pose(truth[i], truth[j])
    noise = (rng.gauss(0, 0.05), rng.gauss(0, 0.05), rng.gauss(0, 0.01))
    return Pose2(rel.x + noise[0], rel.y + noise[1], rel.theta + noise[2])

odometry = [
    PoseGraphEdge(keys[i], keys[i + 1], measured(i, i + 1), 1.0, "odometry")
    for i in range(149)
]
loops = [
    PoseGraphEdge(keys[i], keys[j], measured(i, j), 4.0, "loop")
    for i, j in (sorted(rng.sample(range(150), 2)) for _ in range(300))
]
nodes = {keys[0]: truth[0]}
for edge in odometry:
    nodes[edge.b] = compose(nodes[edge.a], edge.relative)
print(repr(sorted(optimize_pose_graph(PoseGraph(nodes, odometry, loops)).items())))
"""


def test_solution_does_not_depend_on_the_blas_thread_count():
    """The CPUs a process may use set OpenBLAS's thread count, and with it
    the rounding of a dense LAPACK solve; the optimized poses must not move."""
    src = os.path.dirname(os.path.dirname(pose_graph.__file__))
    solutions = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", _BIG_GRAPH_SOLUTION],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        solutions.append(run.stdout)
    assert solutions[0] == solutions[1]
    assert solutions[0].count("Pose2") == 150


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

    def test_normal_matrix_is_the_weighted_gram_of_the_residual_jacobian(self):
        # kernel 1e6 keeps every edge quadratic, so H = Jᵀ·diag(w)·J exactly.
        problem = self.problem(1e6)
        x = problem.x
        H, _ = problem.build_normal_equations(x)

        h = 1e-6
        flat = x.reshape(-1)
        J = np.empty((3 * problem.n_edges, flat.size))
        for i in range(flat.size):
            bump = np.zeros_like(flat)
            bump[i] = h
            hi = problem.residuals((flat + bump).reshape(-1, 3)).reshape(-1)
            lo = problem.residuals((flat - bump).reshape(-1, 3)).reshape(-1)
            J[:, i] = (hi - lo) / (2.0 * h)
        expected = J.T @ np.diag(np.repeat(problem.w, 3)) @ J
        assert np.allclose(H.toarray(), expected, rtol=1e-6, atol=1e-8)

    def test_normal_matrix_symmetric_positive_semidefinite(self):
        problem = self.problem(1.0)
        H, _ = problem.build_normal_equations(problem.x)
        H = H.toarray()
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
        work = RegistrationWork()
        out = register_keyframe_pair(a, b, work)
        assert out.converged
        assert out.inlier_fraction == 1.0
        assert pose_close(out.transform, true_rel, tol=1e-8)
        assert work == RegistrationWork(icp_calls=1, icp_iterations=out.iterations)

    def test_falls_back_to_rotation_sweep_when_odometry_lies(self, corridor_cloud):
        true_rel = Pose2(0.0, 0.0, math.pi / 2.0)
        a = make_keyframe("a0", 0, 0.0, scan_points=corridor_cloud.points)
        b = make_keyframe(
            "a1", 0, 1.0,
            pose=Pose2(100.0, 0.0, 0.0),  # odometry puts b nowhere near a
            scan_points=transform_points(inverse(true_rel), corridor_cloud.points),
        )
        work = RegistrationWork()
        out = register_keyframe_pair(a, b, work)
        assert out.converged
        assert pose_close(out.transform, true_rel, tol=1e-6)
        # The guess heading is 0, so the sweep runs 0 and then pi/2, which holds.
        assert (work.icp_calls, work.sweeps, work.sweep_starts, work.warm_starts) == (3, 1, 2, 0)
        assert work.icp_iterations > out.iterations  # the losing starts count too

    def test_odometry_fit_beats_an_equal_sweep_result(self, monkeypatch):
        def equal_rank(source, target, initial, **kwargs):
            # Converged but not solid, so the sweep runs; every start ranks alike.
            return IcpResult(initial, 0.04, 5, True, 0.5)

        monkeypatch.setattr(icp, "icp_register", equal_rank)
        monkeypatch.setattr(pose_graph, "icp_register", equal_rank)
        a = make_keyframe("a0", 0, 0.0)
        b = make_keyframe("a1", 0, 1.0, pose=Pose2(1.0, 0.5, 0.3))
        out = register_keyframe_pair(a, b, RegistrationWork())
        assert out.transform == Pose2(1.0, 0.5, 0.3)

    def test_capped_runs_are_counted_and_lost_ones_are_not(self, monkeypatch):
        cap = icp.DEFAULT_MAX_ITERATIONS
        fits = iter(
            [
                IcpResult(Pose2(0.1, 0.0, 0.0), 0.04, cap, False, 0.9),  # capped
                IcpResult(Pose2(0.2, 0.0, 0.0), math.inf, cap, False, 0.0),  # lost on its last pass
                IcpResult(Pose2(0.3, 0.0, 0.0), math.inf, 3, False, 0.01),  # lost early
                # converged on its last pass, and solid, so the sweep stops here
                IcpResult(Pose2(0.4, 0.0, 0.0), 0.04, cap, True, 0.9),
            ]
        )
        monkeypatch.setattr(pose_graph, "icp_register", lambda *args, **kwargs: next(fits))
        work = RegistrationWork()
        register_keyframe_pair(make_keyframe("a0", 0, 0.0), make_keyframe("a1", 0, 1.0), work)
        assert work == RegistrationWork(
            icp_calls=4, icp_iterations=3 * cap + 3, icp_capped=1, sweeps=1, sweep_starts=3
        )

    @pytest.mark.parametrize(
        "guess_theta, order",
        [
            (3.0, [math.pi, math.pi / 2.0, -math.pi / 2.0, 0.0]),
            (-3.0, [math.pi, -math.pi / 2.0, math.pi / 2.0, 0.0]),
            # Headings equally far from the guess keep SWEEP_HEADINGS order.
            (math.pi / 4.0, [0.0, math.pi / 2.0, -math.pi / 2.0, math.pi]),
        ],
    )
    def test_the_sweep_starts_at_the_heading_nearest_the_guess(
        self, monkeypatch, guess_theta, order
    ):
        starts = []

        def never_solid(source, target, initial, **kwargs):
            starts.append(initial)
            return IcpResult(initial, 0.04, 5, True, 0.5)

        monkeypatch.setattr(pose_graph, "icp_register", never_solid)
        guess = Pose2(1.0, 0.5, guess_theta)
        a, b = make_keyframe("a0", 0, 0.0), make_keyframe("a1", 0, 1.0, pose=guess)
        register_keyframe_pair(a, b, RegistrationWork())
        assert starts == [guess, *(Pose2(0.0, 0.0, theta) for theta in order)]

    @pytest.mark.parametrize("solid_at", range(4))
    def test_the_sweep_stops_at_the_first_solid_heading(self, monkeypatch, solid_at):
        starts = []

        def solid_only_at(source, target, initial, **kwargs):
            starts.append(initial)
            if initial == pose_graph.SWEEP_HEADINGS[solid_at]:
                return IcpResult(initial, 0.01, 5, True, 0.9)
            # The odometry fit has the lowest error, but too few inliers.
            return IcpResult(initial, 0.001 if len(starts) == 1 else 0.04, 5, True, 0.5)

        monkeypatch.setattr(pose_graph, "icp_register", solid_only_at)
        # The guess heading is 0, so the sweep runs in SWEEP_HEADINGS order.
        a, b = make_keyframe("a0", 0, 0.0), make_keyframe("a1", 0, 1.0, pose=Pose2(1.0, 0.5, 0.0))
        work = RegistrationWork()
        out = register_keyframe_pair(a, b, work)
        assert out.transform == pose_graph.SWEEP_HEADINGS[solid_at]
        assert starts[1:] == list(pose_graph.SWEEP_HEADINGS[: solid_at + 1])
        assert work == RegistrationWork(
            icp_calls=solid_at + 2,
            icp_iterations=5 * (solid_at + 2),
            sweeps=1,
            sweep_starts=solid_at + 1,
        )

    def test_with_no_solid_heading_all_four_run_and_the_best_fit_wins(self, monkeypatch):
        lowest = Pose2(0.0, 0.0, -math.pi / 2.0)

        def never_solid(source, target, initial, **kwargs):
            return IcpResult(initial, 0.01 if initial == lowest else 0.04, 5, True, 0.5)

        monkeypatch.setattr(pose_graph, "icp_register", never_solid)
        a, b = make_keyframe("a0", 0, 0.0), make_keyframe("a1", 0, 1.0)
        work = RegistrationWork()
        out = register_keyframe_pair(a, b, work)
        assert out.transform == lowest
        assert work == RegistrationWork(icp_calls=5, icp_iterations=25, sweeps=1, sweep_starts=4)

    def test_corridor_aliased_odometry_fit_does_not_win(self):
        """A drifted guess in a self-similar corridor settles into a
        converged, high-overlap registration one room pitch off. Its
        residual is an order of magnitude above a true fit's, and that
        alone must force the rotation sweep."""
        plan = generate_floorplan(0, seed=0)
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
        out = register_keyframe_pair(a, b, RegistrationWork())
        assert out.converged
        assert math.hypot(out.transform.x, out.transform.y) < 0.05
        assert abs(abs(out.transform.theta) - math.pi) < 0.01
        assert out.mean_sq_error < 0.01


def test_scene01_loop_edges_agree_with_the_truth():
    """A ratchet on loop-edge quality: on scene01 seed 0 at most 5 of the
    662 loop edges put b more than 0.5 m from where the simulator's truth
    does. Lower the bound when registration gets better."""
    result = pipeline.run_all(config_for_scenario("scene01", seed=0))
    by_key = result.keyframes_by_key

    def truth(key):
        kf = by_key[key]
        return result.recordings[kf.agent_id].truths_at([kf.timestamp])[0]

    edges = result.graph.loop_edges
    truths = [relative_pose(truth(e.a), truth(e.b)) for e in edges]
    bad = sum(
        math.hypot(e.relative.x - t.x, e.relative.y - t.y) > 0.5 for e, t in zip(edges, truths)
    )
    assert len(edges) == 662
    assert bad <= 5


def one_visit_each(*keyframes) -> dict:
    """A visit map in which every keyframe is a visit of its own."""
    return {kf.key: kf.key for kf in keyframes}


class TestVisitPairs:
    """Siblings of a visit pair start from the first pair's fit."""

    def test_a_sibling_starts_from_the_first_fit(self, corridor_cloud):
        # a's agent stands still; b's agent has drifted 100 m but its short
        # in-visit odometry (b0 -> b) is right, so the first fit carries over.
        target = corridor_cloud.points
        first_rel = Pose2(0.0, 0.0, math.pi / 2.0)
        step = Pose2(0.3, 0.0, 0.05)
        sibling_rel = compose(first_rel, step)
        a0 = make_keyframe("a0", 0, 0.0, scan_points=target)
        a = make_keyframe("a0", 1, 1.0, scan_points=target)
        b0 = make_keyframe(
            "a1", 0, 0.0,
            pose=Pose2(100.0, 0.0, 0.0),
            scan_points=transform_points(inverse(first_rel), target),
        )
        b = make_keyframe(
            "a1", 1, 1.0,
            pose=compose(b0.odom_pose, step),
            scan_points=transform_points(inverse(sibling_rel), target),
        )
        visit = group_visits([a0, a, b0, b], alpha=0.8)
        assert visit == {a0.key: a0.key, a.key: a0.key, b0.key: b0.key, b.key: b0.key}
        (first, sibling), work = register_keyframe_pairs([(a0, b0), (a, b)], visit)
        assert pose_close(first.transform, first_rel, tol=1e-6)
        assert pose_close(sibling.transform, sibling_rel, tol=1e-6)
        first_work = RegistrationWork()
        assert register_keyframe_pair(a0, b0, first_work) == first
        assert first_work.sweeps == 1 and first_work.warm_starts == 0
        # The sibling's one warm run is all the work beyond the first pair's.
        first_work += RegistrationWork(
            icp_calls=1, icp_iterations=sibling.iterations, warm_starts=1
        )
        assert work == first_work

    @pytest.mark.parametrize("best", ["warm", "sweep", "warm over a solid odometry fit"])
    def test_a_non_solid_warm_fit_falls_back_and_keeps_the_best(self, monkeypatch, best):
        a0, a = make_keyframe("a0", 0, 0.0), make_keyframe("a0", 1, 1.0)
        b0 = make_keyframe("a1", 0, 0.0, pose=Pose2(1.0, 0.5, 0.3))
        b = make_keyframe("a1", 1, 1.0, pose=Pose2(1.2, 0.5, 0.3))
        # Every fit stays where it started, converged. Only a start in solid
        # is solid; the others have too few inliers (0.5). The first pair's
        # best start is the heading pi, which puts the sibling's warm guess
        # far from its odometry guess.
        heading_pi = Pose2(0.0, 0.0, math.pi)
        warm_guess = compose(
            compose(relative_pose(a.odom_pose, a0.odom_pose), heading_pi),
            relative_pose(b0.odom_pose, b.odom_pose),
        )
        odometry_guess = relative_pose(a.odom_pose, b.odom_pose)
        mse = {heading_pi: 0.02, warm_guess: 0.04 if best == "sweep" else 0.01}
        solid = {odometry_guess} if best == "warm over a solid odometry fit" else set()

        def stay(source, target, initial, **kwargs):
            if initial in solid:
                return IcpResult(initial, 0.03, 5, True, 0.9)
            return IcpResult(initial, mse.get(initial, 0.04), 5, True, 0.5)

        monkeypatch.setattr(pose_graph, "icp_register", stay)
        (first, sibling), work = register_keyframe_pairs(
            [(a0, b0), (a, b)], group_visits([a0, a, b0, b], alpha=0.8)
        )
        assert first.transform == heading_pi
        # The first pair: its odometry guess and the four-heading sweep.
        expected = RegistrationWork(icp_calls=5, icp_iterations=25, sweeps=1, sweep_starts=4)
        if solid:
            # The warm fit, then the odometry guess, whose solid fit ends the
            # search; the warm fit's lower error still wins.
            expected += RegistrationWork(
                icp_calls=2, icp_iterations=10, warm_starts=1, warm_fallbacks=1
            )
        else:
            # The warm fit, then the odometry guess and the four-heading sweep.
            expected += RegistrationWork(
                icp_calls=6,
                icp_iterations=30,
                sweeps=1,
                sweep_starts=4,
                warm_starts=1,
                warm_fallbacks=1,
            )
        assert work == expected
        assert sibling.transform == (heading_pi if best == "sweep" else warm_guess)


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs whatever the host has, so the pool path runs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


@pytest.fixture(scope="module")
def scene01_accepted_pairs():
    """Every accepted keyframe pair of scene01 seed 0, with the visit map."""
    cfg = config_for_scenario("scene01", seed=0)
    recordings = pipeline.stage_simulate(*pipeline.stage_generate(cfg))
    keyframes, candidates, _ = pipeline.stage_match(recordings, cfg)
    by_key = {kf.key: kf for kf in keyframes}
    pairs = [(by_key[c.a], by_key[c.b]) for c in candidates if c.verdict is Verdict.ACCEPTED]
    return pairs, group_visits(keyframes, cfg.alpha)


class TestRegisterPairs:
    def test_pool_matches_the_in_process_loop(
        self, scene01_accepted_pairs, two_cpus, monkeypatch
    ):
        pairs, visit = scene01_accepted_pairs
        pooled, pooled_work = register_keyframe_pairs(pairs, visit)
        assert multiprocessing.active_children() == []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        expected, expected_work = register_keyframe_pairs(pairs, visit)
        assert len(pooled) == len(expected) == len(pairs)
        for got, want in zip(pooled, expected):
            assert got.transform == want.transform
            assert got.mean_sq_error == want.mean_sq_error
            assert got.iterations == want.iterations
            assert got.converged == want.converged
            assert got.inlier_fraction == want.inlier_fraction
        assert pooled_work == expected_work

        # Candidate order: the first pair of each visit pair is registered
        # from its odometry guess and its siblings warm-started, each at its
        # own index.
        first_pairs = {}
        for index, (a, b) in enumerate(pairs):
            first_pairs.setdefault((visit[a.key], visit[b.key]), index)
        assert 1 < len(first_pairs) < len(pairs)
        assert pooled_work.warm_starts == len(pairs) - len(first_pairs)
        for index in list(first_pairs.values())[:20]:
            fit = register_keyframe_pair(*pairs[index], RegistrationWork())
            assert fit == pooled[index]

    @pytest.mark.parametrize("count, cpus", [(0, 2), (1, 2), (3, 1)])
    def test_no_pool_for_few_pairs_or_one_cpu(self, count, cpus, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was created")

        monkeypatch.setattr(futures, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        a = make_keyframe("a0", 0, 0.0)
        bs = [make_keyframe("a1", i, 20.0 * i, pose=Pose2(0.1, -0.1, 0.05)) for i in range(count)]
        fits, work = register_keyframe_pairs([(a, b) for b in bs], one_visit_each(a, *bs))
        expected = RegistrationWork()
        assert fits == [register_keyframe_pair(a, b, expected) for b in bs]
        assert work == expected

    def test_target_trees_are_built_before_the_workers_fork(self, two_cpus):
        targets = [make_keyframe("a0", i, 20.0 * i) for i in range(3)]
        b = make_keyframe("a1", 0, 1.0, pose=Pose2(0.1, -0.1, 0.05))
        register_keyframe_pairs([(a, b) for a in targets], one_visit_each(b, *targets))
        # cached_property keeps a built tree in the instance's __dict__; a
        # tree built only in a worker never reaches this process.
        assert all("kdtree" in vars(a.scan) for a in targets)

    def test_a_failing_pair_raises_in_the_caller(self, two_cpus):
        a = make_keyframe("a0", 0, 0.0)
        b = make_keyframe("a1", 0, 1.0)
        sparse = make_keyframe("a2", 0, 2.0, scan_points=np.array([[0.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(ValueError) as direct:
            register_keyframe_pair(a, sparse, RegistrationWork())
        with pytest.raises(ValueError) as pooled:
            register_keyframe_pairs([(a, b), (a, sparse), (a, b)], one_visit_each(a, b, sparse))
        assert type(pooled.value) is type(direct.value)
        assert pooled.value.args == direct.value.args
        assert multiprocessing.active_children() == []

    def test_a_dying_worker_raises_in_the_caller(self, two_cpus, monkeypatch):
        """A worker that exits mid-run breaks the pool: the caller gets
        BrokenProcessPool and no worker is left behind. cli.main turns any
        stage exception into exit code 2, so this surfaces as a failed run."""
        register = pose_graph.register_keyframe_pair

        def die_on_doomed(a, b, *args):
            if b.agent_id == "doomed":
                os._exit(1)
            return register(a, b, *args)

        monkeypatch.setattr(pose_graph, "register_keyframe_pair", die_on_doomed)
        a = make_keyframe("a0", 0, 0.0)
        b = make_keyframe("a1", 0, 1.0)
        c = make_keyframe("a2", 0, 1.0)
        doomed = make_keyframe("doomed", 0, 2.0)
        with pytest.raises(BrokenProcessPool):
            register_keyframe_pairs(
                [(a, b), (a, c), (a, doomed), (a, b)], one_visit_each(a, b, c, doomed)
            )
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

    def test_unoptimized_keyframes_are_skipped(self):
        kfs = [make_keyframe("a0", 0, 0.0), make_keyframe("a1", 0, 1.0)]
        merged = merge_maps({("a0", 0): Pose2.identity()}, kfs)
        assert len(merged) == len(kfs[0].scan)

    def test_empty_inputs_give_an_empty_map(self):
        merged = merge_maps({}, [])
        assert merged.is_empty
        assert merged.points.shape == (0, 2)


def test_stats_aggregate_component_histories():
    stats = OptimizeStats([[4.0, 1.0], [2.0, 0.5]])
    assert stats.initial_objective == pytest.approx(6.0)
    assert stats.final_objective == pytest.approx(1.5)

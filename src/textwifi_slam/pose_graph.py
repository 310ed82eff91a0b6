"""Loop-closure registration, pose-graph construction, robust optimization,
and map merging.

Nodes are keyframes, odometry edges chain consecutive keyframes of one
agent, and loop edges carry scan-registration results between matched
keyframes. A pair is registered from the odometry guess and, when that fit
is not solid, from co-located heading starts, nearest the guess's heading
first, up to the first solid fit. An agent reads a sign several times as it
walks past, so one pair of visits gives several matched pairs:
register_keyframe_pairs registers the first pair of each visit pair in full
and starts the others from its fit. Visit pairs are independent of each
other, so it spreads them over one forked worker process per CPU the
process may run on, and runs them in-process when it cannot. The optimizer
is iteratively reweighted Gauss-Newton with a Huber kernel and
Levenberg-style damping, solved on the sparse normal equations JᵀWJ with a
sparse LU: a step is only taken when it lowers the robust objective, so the
objective history is non-increasing by construction (and asserted).
"""

from __future__ import annotations

import functools
import logging
import math
import os
from concurrent import futures
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from .geometry import Pose2, PointCloud2, compose, normalize_angle, relative_pose, transform_points
from .icp import (
    DEFAULT_CORRESPONDENCE_RADIUS_M,
    DEFAULT_MAX_ITERATIONS,
    IcpResult,
    best_result,
    icp_register,
)
from .place_recognition import Keyframe, MatchCandidate, NodeKey, connected_components

log = logging.getLogger(__name__)

ODOMETRY_WEIGHT = 1.0
LOOP_WEIGHT_FLOOR = 1e-6
DEFAULT_MAX_OUTER_ITERATIONS = 50
# Huber kernel width on a loop or odometry residual's norm: residuals up to
# this are weighted quadratically, larger ones only linearly.
ROBUST_KERNEL_SCALE = 1.0

# A registration only short-circuits the rotation sweep when its mean
# squared error is this fraction of the squared correspondence radius or
# better. Correct same-place fits land orders of magnitude below it.
SOLID_FIT_MSE_FRACTION = 0.05
SOLID_FIT_MSE = (
    SOLID_FIT_MSE_FRACTION * DEFAULT_CORRESPONDENCE_RADIUS_M * DEFAULT_CORRESPONDENCE_RADIUS_M
)

# The co-located starts of the heading sweep: two agents can face a sign
# from opposite directions. The sweep runs them nearest the odometry
# guess's heading first; this order breaks ties.
SWEEP_HEADINGS = tuple(
    Pose2(0.0, 0.0, theta) for theta in (0.0, math.pi / 2.0, -math.pi / 2.0, math.pi)
)


@dataclass(frozen=True)
class PoseGraphEdge:
    a: NodeKey
    b: NodeKey
    relative: Pose2  # expected pose of b in the frame of a
    weight: float
    kind: str  # "odometry" or "loop"


@dataclass
class PoseGraph:
    nodes: dict[NodeKey, Pose2]
    odometry_edges: list[PoseGraphEdge] = field(default_factory=list)
    loop_edges: list[PoseGraphEdge] = field(default_factory=list)
    dropped_loop_count: int = 0

    @property
    def edges(self) -> list[PoseGraphEdge]:
        return [*self.odometry_edges, *self.loop_edges]


@dataclass
class RegistrationWork:
    """What registering keyframe pairs cost, in deterministic counts.

    icp_calls and icp_iterations cover every icp_register run, losing sweep
    starts included, and icp_capped counts the runs that stopped at the
    iteration cap without converging; sweeps counts heading sweeps begun,
    and sweep_starts the heading runs they made, one to four each, since a
    sweep stops at its first solid fit; warm_starts counts pairs started
    from their visit pair's first fit, and warm_fallbacks those whose warm
    fit was not solid, so they also ran the full path.
    """

    icp_calls: int = 0
    icp_iterations: int = 0
    icp_capped: int = 0
    sweeps: int = 0
    sweep_starts: int = 0
    warm_starts: int = 0
    warm_fallbacks: int = 0

    def __iadd__(self, other: "RegistrationWork") -> "RegistrationWork":
        for name, value in vars(other).items():
            setattr(self, name, getattr(self, name) + value)
        return self


@dataclass
class OptimizeStats:
    """Per-component objective traces, for diagnostics and tests."""

    objective_histories: list[list[float]] = field(default_factory=list)

    @property
    def initial_objective(self) -> float:
        return sum(h[0] for h in self.objective_histories if h)

    @property
    def final_objective(self) -> float:
        return sum(h[-1] for h in self.objective_histories if h)


def _is_solid(fit: IcpResult) -> bool:
    return fit.converged and fit.inlier_fraction >= 0.6 and fit.mean_sq_error <= SOLID_FIT_MSE


def _counted_icp(work: RegistrationWork, a: Keyframe, b: Keyframe, initial: Pose2) -> IcpResult:
    """icp_register of b's scan into a's, counted in work."""
    fit = icp_register(b.scan, a.scan, initial)
    work.icp_calls += 1
    work.icp_iterations += fit.iterations
    # A run that lost its correspondences, even on its last pass, reports an
    # infinite error instead.
    capped = fit.iterations == DEFAULT_MAX_ITERATIONS and not fit.converged
    if capped and math.isfinite(fit.mean_sq_error):
        work.icp_capped += 1
    return fit


def register_keyframe_pair(a: Keyframe, b: Keyframe, work: RegistrationWork) -> IcpResult:
    """Register b's scan into a's scan frame, counting the ICP runs in work.

    The first initial guess is the relative pose the odometry already
    implies; if that converges with solid overlap and a tight fit it wins.
    Otherwise the co-located assumption is tried at the sweep headings,
    since two agents can face a sign from opposite directions: nearest the
    odometry guess's heading first (ties in SWEEP_HEADINGS order), and the
    first solid heading fit wins. Corridors and rooms are symmetric enough
    that several headings often fit solidly at distinct poses, and the one
    the odometry points at is more often the true one than the lowest
    error is. Only when no heading is solid does best_result pick among
    the odometry fit and every heading fit.

    The fit-quality bar is load-bearing: in a self-similar corridor a badly
    drifted odometry guess can settle into a "converged" registration one
    room pitch off, with plenty of overlap but a residual far above what
    the true alignment leaves. Such a fit must not skip the sweep.
    """
    guess = relative_pose(a.odom_pose, b.odom_pose)
    first = _counted_icp(work, a, b, guess)
    if _is_solid(first):
        return first
    work.sweeps += 1
    fits = [first]
    nearest_first = sorted(
        SWEEP_HEADINGS, key=lambda h: abs(normalize_angle(h.theta - guess.theta))
    )
    for heading in nearest_first:
        work.sweep_starts += 1
        fit = _counted_icp(work, a, b, heading)
        if _is_solid(fit):
            return fit
        fits.append(fit)
    return best_result(fits)


def _register_sibling(
    pair: tuple[Keyframe, Keyframe],
    first_pair: tuple[Keyframe, Keyframe],
    first: IcpResult,
    work: RegistrationWork,
) -> IcpResult:
    """Register a pair whose visit pair's first pair was registered as first.

    Both scans were taken a few meters from the first pair's, so ICP starts
    from the first fit carried over by each agent's short odometry between
    the two keyframes. Only a fit that is not solid falls back to
    register_keyframe_pair, and the better of the two fits is kept.
    """
    (a, b), (a0, b0) = pair, first_pair
    guess = compose(
        compose(relative_pose(a.odom_pose, a0.odom_pose), first.transform),
        relative_pose(b0.odom_pose, b.odom_pose),
    )
    work.warm_starts += 1
    warm = _counted_icp(work, a, b, guess)
    if _is_solid(warm):
        return warm
    work.warm_fallbacks += 1
    return best_result((warm, register_keyframe_pair(a, b, work)))


# The pairs of each register_keyframe_pairs call in progress, by call, with
# the pair indices of each visit pair. Forked workers inherit this at fork,
# so only visit-pair indices go to them and only results come back.
_registrations_in_progress: dict[int, tuple[list[tuple[Keyframe, Keyframe]], list[list[int]]]] = {}


def _register_visit_pair(call: int, task: int) -> list[tuple[IcpResult, RegistrationWork]]:
    """Register one visit pair's pairs in order: the first in full, the
    rest warm-started from its fit."""
    pairs, visit_pairs = _registrations_in_progress[call]
    first_index, *sibling_indices = visit_pairs[task]
    work = RegistrationWork()
    first = register_keyframe_pair(*pairs[first_index], work)
    registered = [(first, work)]
    for index in sibling_indices:
        work = RegistrationWork()
        fit = _register_sibling(pairs[index], pairs[first_index], first, work)
        registered.append((fit, work))
    return registered


def _registration_pool(task_count: int) -> Optional[futures.ProcessPoolExecutor]:
    """A fork pool with one worker per CPU in the affinity mask, never more
    than the tasks; None (register in-process) with fewer than two tasks,
    one usable CPU, or no fork start method."""
    if task_count < 2 or not hasattr(os, "sched_getaffinity"):
        return None
    workers = min(len(os.sched_getaffinity(0)), task_count)
    # Imported here so that commands which never register pairs start
    # without loading multiprocessing.
    import multiprocessing

    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return None
    # Python 3.12+ warns when a threaded process forks; idle OpenBLAS threads may count.
    return futures.ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))


def register_keyframe_pairs(
    pairs: Sequence[tuple[Keyframe, Keyframe]], visit: Mapping[NodeKey, NodeKey]
) -> list[tuple[IcpResult, RegistrationWork]]:
    """Register every pair, with the work each took, in the order given.

    Pairs are grouped, in order, by visit pair: (visit[a.key], visit[b.key]),
    with visit from place_recognition.group_visits. The first pair of each
    visit pair goes through register_keyframe_pair; the others start from
    its fit (_register_sibling). A visit pair is one unit of work: with more
    than one and more than one usable CPU they run in a pool of forked
    worker processes, which is shut down (its workers joined) before this
    returns. Each visit pair is registered the same way wherever it runs,
    so the results do not depend on the worker count. An exception from any
    pair is raised here. The pool's workers inherit every target scan's
    KD-tree, built here before they fork.
    """
    pairs = list(pairs)
    by_visit_pair: dict[tuple[NodeKey, NodeKey], list[int]] = {}
    for index, (a, b) in enumerate(pairs):
        by_visit_pair.setdefault((visit[a.key], visit[b.key]), []).append(index)
    visit_pairs = list(by_visit_pair.values())
    call = id(pairs)
    _registrations_in_progress[call] = (pairs, visit_pairs)
    try:
        register = functools.partial(_register_visit_pair, call)
        tasks = range(len(visit_pairs))
        pool = _registration_pool(len(visit_pairs))
        if pool is None:
            done = list(map(register, tasks))
        else:
            # Built before the fork, each target's KD-tree (and the import
            # of scipy.spatial) is inherited by every worker, not redone.
            for a, _ in pairs:
                a.scan.kdtree
            with pool:
                # One visit pair per request keeps the workers evenly loaded.
                done = list(pool.map(register, tasks))
    finally:
        del _registrations_in_progress[call]
    results: list = [None] * len(pairs)
    for indices, registered in zip(visit_pairs, done):
        for index, entry in zip(indices, registered):
            results[index] = entry
    return results


def build_pose_graph(
    keyframes: Sequence[Keyframe],
    loop_results: Sequence[tuple[MatchCandidate, IcpResult]],
) -> PoseGraph:
    """Assemble nodes and edges from keyframes and registered matches.

    Non-converged registrations contribute no edge; they are counted in
    dropped_loop_count and logged. Loop edges are weighted by the inverse of
    the registration error, floored to keep weights finite.
    """
    nodes = {kf.key: kf.odom_pose for kf in sorted(keyframes, key=lambda k: k.key)}
    graph = PoseGraph(nodes=nodes)

    by_agent: dict[str, list[Keyframe]] = {}
    for kf in keyframes:
        by_agent.setdefault(kf.agent_id, []).append(kf)
    for agent in sorted(by_agent):
        chain = sorted(by_agent[agent], key=lambda k: k.keyframe_id)
        for prev, cur in zip(chain, chain[1:]):
            graph.odometry_edges.append(
                PoseGraphEdge(
                    prev.key,
                    cur.key,
                    relative_pose(prev.odom_pose, cur.odom_pose),
                    ODOMETRY_WEIGHT,
                    "odometry",
                )
            )

    for candidate, result in loop_results:
        if not result.converged:
            graph.dropped_loop_count += 1
            log.warning(
                "dropping loop %s-%s: registration did not converge", candidate.a, candidate.b
            )
            continue
        weight = 1.0 / max(result.mean_sq_error, LOOP_WEIGHT_FLOOR)
        graph.loop_edges.append(
            PoseGraphEdge(candidate.a, candidate.b, result.transform, weight, "loop")
        )
    return graph


def _wrap_angles(values: np.ndarray) -> np.ndarray:
    wrapped = values % (2.0 * math.pi)
    return np.where(wrapped > math.pi, wrapped - 2.0 * math.pi, wrapped)


class _ComponentProblem:
    """Robust least squares for one connected component, as sparse normal equations."""

    def __init__(self, keys: list[NodeKey], graph: PoseGraph, kernel_scale: float):
        self.keys = keys
        self.kernel = kernel_scale
        index = {key: i for i, key in enumerate(keys)}
        edges = [e for e in graph.edges if e.a in index and e.b in index]
        self.ii = np.array([index[e.a] for e in edges], dtype=int)
        self.jj = np.array([index[e.b] for e in edges], dtype=int)
        self.z = np.array(
            [[e.relative.x, e.relative.y, e.relative.theta] for e in edges], dtype=float
        ).reshape(-1, 3)
        self.w = np.array([e.weight for e in edges], dtype=float)
        self.x = np.array(
            [[graph.nodes[k].x, graph.nodes[k].y, graph.nodes[k].theta] for k in keys],
            dtype=float,
        )

    @property
    def n_edges(self) -> int:
        return len(self.w)

    def residuals(self, x: np.ndarray) -> np.ndarray:
        xi, xj = x[self.ii], x[self.jj]
        ci, si = np.cos(xi[:, 2]), np.sin(xi[:, 2])
        dt = xj[:, :2] - xi[:, :2]
        rel_x = ci * dt[:, 0] + si * dt[:, 1]
        rel_y = -si * dt[:, 0] + ci * dt[:, 1]
        cz, sz = np.cos(self.z[:, 2]), np.sin(self.z[:, 2])
        ex = rel_x - self.z[:, 0]
        ey = rel_y - self.z[:, 1]
        res = np.empty((self.n_edges, 3))
        res[:, 0] = cz * ex + sz * ey
        res[:, 1] = -sz * ex + cz * ey
        res[:, 2] = _wrap_angles(xj[:, 2] - xi[:, 2] - self.z[:, 2])
        return res

    def objective(self, x: np.ndarray) -> float:
        if self.n_edges == 0:
            return 0.0
        res = self.residuals(x)
        norms = np.linalg.norm(res, axis=1)
        delta = self.kernel
        rho = np.where(
            norms <= delta,
            0.5 * norms**2,
            delta * (norms - 0.5 * delta),
        )
        return float(np.sum(self.w * rho))

    def build_normal_equations(self, x: np.ndarray):
        """H = JᵀWJ (sparse, 3n×3n) and b = JᵀWr at x.

        J is the (3m, 3n) Jacobian of the stacked residuals r: edge e's three
        rows hold its 3×3 blocks A (for node i) and B (for node j). W repeats
        each edge's Huber-reweighted weight over its three rows.
        """
        # Imported here so that commands which never optimize start without it.
        from scipy.sparse import coo_matrix, diags

        n, m = len(self.keys), self.n_edges
        res = self.residuals(x)
        norms = np.linalg.norm(res, axis=1)
        hub = np.where(norms <= self.kernel, 1.0, self.kernel / np.maximum(norms, 1e-300))
        omega = np.repeat(self.w * hub, 3)

        xi = x[self.ii]
        xj = x[self.jj]
        ci, si = np.cos(xi[:, 2]), np.sin(xi[:, 2])
        cz, sz = np.cos(self.z[:, 2]), np.sin(self.z[:, 2])
        dt = xj[:, :2] - xi[:, :2]

        # R(theta_z)^T @ R(theta_i)^T = R(theta_i + theta_z)^T, per edge.
        rzt_rit = np.empty((m, 2, 2))
        rzt_rit[:, 0, 0] = cz * ci - sz * si
        rzt_rit[:, 0, 1] = cz * si + sz * ci
        rzt_rit[:, 1, 0] = -(cz * si + sz * ci)
        rzt_rit[:, 1, 1] = cz * ci - sz * si

        # d(R_i^T)/d(theta_i) @ dt, then rotated by R_z^T.
        dr_dt_x = -si * dt[:, 0] + ci * dt[:, 1]
        dr_dt_y = -ci * dt[:, 0] - si * dt[:, 1]

        # Row k of edge e holds [A_k | B_k] in node i's and node j's columns.
        blocks = np.zeros((m, 3, 6))
        blocks[:, :2, :2] = -rzt_rit
        blocks[:, 0, 2] = cz * dr_dt_x + sz * dr_dt_y
        blocks[:, 1, 2] = -sz * dr_dt_x + cz * dr_dt_y
        blocks[:, 2, 2] = -1.0
        blocks[:, :2, 3:5] = rzt_rit
        blocks[:, 2, 5] = 1.0
        rows = 3 * np.arange(m)[:, None, None] + np.arange(3)[None, :, None]
        cols = np.concatenate(
            (3 * self.ii[:, None] + np.arange(3), 3 * self.jj[:, None] + np.arange(3)), axis=1
        )[:, None, :]
        rows, cols = np.broadcast_arrays(rows, cols)
        J = coo_matrix((blocks.ravel(), (rows.ravel(), cols.ravel())), shape=(3 * m, 3 * n))
        WJ = diags(omega) @ J.tocsr()
        return J.T @ WJ, WJ.T @ res.ravel()


def _optimize_component(
    problem: _ComponentProblem,
    max_outer_iterations: int,
) -> tuple[np.ndarray, list[float]]:
    x = problem.x.copy()
    history = [problem.objective(x)]
    if problem.n_edges == 0 or len(problem.keys) < 2:
        return x, history

    # Imported here so that commands which never optimize start without it.
    from scipy.sparse import diags
    from scipy.sparse.linalg import splu

    lam = 1e-6
    for _ in range(max_outer_iterations):
        H, b = problem.build_normal_equations(x)
        # The first node is the gauge and stays put.
        H_red, b_red = H[3:, 3:], b[3:]
        if float(np.max(np.abs(b_red), initial=0.0)) < 1e-14:
            break
        accepted = False
        for _attempt in range(10):
            damped = H_red + lam * diags(np.maximum(H_red.diagonal(), 1e-12))
            # A sparse LU, not LAPACK's dense solve: that one rounds
            # differently with the number of BLAS threads, which follows the
            # CPUs the process may use, and the poses must not.
            try:
                delta_red = splu(damped.tocsc()).solve(-b_red)
            except RuntimeError:  # exactly singular
                lam *= 10.0
                continue
            candidate = x.copy()
            candidate.reshape(-1)[3:] += delta_red
            candidate[:, 2] = _wrap_angles(candidate[:, 2])
            obj = problem.objective(candidate)
            if obj <= history[-1]:
                x = candidate
                history.append(obj)
                lam = max(lam / 3.0, 1e-9)
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            break
        assert history[-1] <= history[-2] + 1e-12, "objective increased"
        if history[-2] - history[-1] <= 1e-14 * (1.0 + history[-2]):
            break
        if float(np.max(np.abs(delta_red))) < 1e-12:
            break
    return x, history


def optimize_pose_graph(
    graph: PoseGraph,
    *,
    max_outer_iterations: int = DEFAULT_MAX_OUTER_ITERATIONS,
    return_stats: bool = False,
):
    """Optimize node poses; returns {key: Pose2} (plus stats if asked).

    Disconnected graphs are solved one component at a time, each with its
    own first node pinned as the gauge, so agents that never matched stay in
    their own odometry frames. The Huber kernel is ROBUST_KERNEL_SCALE wide.
    """
    if max_outer_iterations < 1:
        raise ValueError("max_outer_iterations must be at least 1")
    for edge in graph.edges:
        if edge.a not in graph.nodes or edge.b not in graph.nodes:
            raise ValueError(f"edge {edge.a}-{edge.b} references a missing node")
        if not 0.0 < edge.weight < math.inf:
            raise ValueError("edge weights must be positive and finite")

    components = connected_components(graph.nodes, ((e.a, e.b) for e in graph.edges))
    if len(components) > 1:
        log.warning("pose graph has %d disconnected components", len(components))
    result: dict[NodeKey, Pose2] = {}
    stats = OptimizeStats()
    for keys in components:
        problem = _ComponentProblem(keys, graph, ROBUST_KERNEL_SCALE)
        solution, history = _optimize_component(problem, max_outer_iterations)
        stats.objective_histories.append(history)
        for key, row in zip(keys, solution):
            result[key] = Pose2(float(row[0]), float(row[1]), float(row[2]))
    if return_stats:
        return result, stats
    return result


def merge_maps(
    optimized: Mapping[NodeKey, Pose2], keyframes: Sequence[Keyframe]
) -> PointCloud2:
    """Project every keyframe scan through its optimized pose and concatenate,
    in keyframe order; a keyframe with no optimized pose or no scan adds nothing."""
    parts = []
    for kf in sorted(keyframes, key=lambda k: k.key):
        pose = optimized.get(kf.key)
        if pose is None or kf.scan.is_empty:
            continue
        parts.append(transform_points(pose, kf.scan.points))
    if not parts:
        return PointCloud2(np.zeros((0, 2)), frame_id="merged")
    return PointCloud2(np.concatenate(parts, axis=0), frame_id="merged")

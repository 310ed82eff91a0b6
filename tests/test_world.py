"""Floorplan generation, raycasting, and wall-crossing counts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textwifi_slam.scenarios import scenario_names, scripted_scenario
from textwifi_slam.wifi import AccessPoint
from textwifi_slam.world import (
    HEIGHT_M,
    LENGTH_M,
    FloorPlan,
    Sign,
    _wall_arrays,
    count_wall_crossings,
    generate_floorplan,
    raycast,
    room_center_x,
)

SQUARE = (
    ((0.0, 0.0), (4.0, 0.0)),
    ((4.0, 0.0), (4.0, 4.0)),
    ((4.0, 4.0), (0.0, 4.0)),
    ((0.0, 4.0), (0.0, 0.0)),
)


def test_raycast_hits_square_walls_at_exact_ranges():
    angles = np.array([0.0, math.pi / 2.0, math.pi, -math.pi / 2.0, math.pi / 4.0])
    hits = raycast((2.0, 2.0), angles, SQUARE, 100.0)
    assert hits[:4] == pytest.approx([2.0, 2.0, 2.0, 2.0], abs=1e-12)
    assert hits[4] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)


def test_raycast_respects_max_range():
    hits = raycast((2.0, 2.0), np.array([0.0]), SQUARE, 1.5)
    assert np.isinf(hits[0])


def test_raycast_miss_is_inf():
    one_wall = (((0.0, 0.0), (1.0, 0.0)),)
    hits = raycast((0.5, 1.0), np.array([0.0, -math.pi / 2.0]), one_wall, 10.0)
    assert np.isinf(hits[0])
    assert hits[1] == pytest.approx(1.0, abs=1e-12)


def _raycast_one_origin(origin, angles_rad, walls, max_range_m):
    """Reference: one origin's rays against every wall as an (a, w) array."""
    starts = np.array([w[0] for w in walls], dtype=float)
    ends = np.array([w[1] for w in walls], dtype=float)
    seg = ends - starts
    rel = starts - np.asarray(origin, float)
    d = np.stack([np.cos(angles_rad), np.sin(angles_rad)], axis=1)
    denom = d[:, 0:1] * seg[None, :, 1] - d[:, 1:2] * seg[None, :, 0]
    rel_cross_seg = rel[:, 0] * seg[:, 1] - rel[:, 1] * seg[:, 0]
    rel_cross_d = rel[None, :, 0] * d[:, 1:2] - rel[None, :, 1] * d[:, 0:1]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = rel_cross_seg[None, :] / denom
        u = rel_cross_d / denom
    valid = (np.abs(denom) > 1e-12) & (t > 1e-9) & (u >= -1e-12) & (u <= 1.0 + 1e-12)
    hits = np.where(valid, t, np.inf).min(axis=1)
    return np.where(hits <= max_range_m, hits, np.inf)


def test_raycast_over_several_origins_equals_one_call_per_origin():
    walls = generate_floorplan(3, seed=0).walls
    rng = np.random.default_rng(7)
    origins = np.column_stack([rng.uniform(0.1, 23.9, 9), rng.uniform(0.1, 7.9, 9)])
    origins[0] = (3.0, 3.0)  # on the line of the corridor wall, in a doorway
    angles = rng.uniform(-math.pi, math.pi, (9, 1)) + np.radians(np.arange(360.0))
    # A 6 m range leaves some rays with no return.
    batched = raycast(origins, angles, walls, 6.0)
    assert batched.shape == (9, 360)
    assert np.isinf(batched).any() and np.isfinite(batched).any()
    for origin, row, got in zip(origins, angles, batched):
        assert np.array_equal(got, raycast(tuple(origin), row, walls, 6.0))
        assert np.array_equal(got, _raycast_one_origin(origin, row, walls, 6.0))
    for size in (1, 4):
        assert np.array_equal(raycast(origins[:size], angles[:size], walls, 6.0), batched[:size])


def test_wall_crossing_counts():
    assert count_wall_crossings([(2.0, 2.0)], (3.0, 3.0), SQUARE).tolist() == [0]
    sources = [(2.0, 2.0), (-1.0, 2.0), (5.0, 2.0)]
    assert count_wall_crossings(sources, (6.0, 2.0), SQUARE).tolist() == [1, 2, 0]
    assert count_wall_crossings([], (6.0, 2.0), SQUARE).tolist() == []


def _crossings_one_by_one(sources, b, walls):
    """Reference: the orientation tests in plain floats, one segment at a time."""

    def cross(vx, vy, wx, wy):
        return vx * wy - vy * wx

    counts = []
    for ax, ay in sources:
        abx, aby = b[0] - ax, b[1] - ay
        n = 0
        for (sx, sy), (ex, ey) in walls:
            d1 = cross(abx, aby, sx - ax, sy - ay)
            d2 = cross(abx, aby, ex - ax, ey - ay)
            d3 = cross(ex - sx, ey - sy, ax - sx, ay - sy)
            d4 = cross(ex - sx, ey - sy, b[0] - sx, b[1] - sy)
            n += d1 * d2 < 0.0 and d3 * d4 < 0.0
        counts.append(n)
    return counts


coordinates = st.floats(-20.0, 20.0, allow_nan=False, allow_infinity=False)
points = st.tuples(coordinates, coordinates)


@settings(max_examples=200, deadline=None)
@given(
    sources=st.lists(points, max_size=8),
    receiver=points,
    walls=st.lists(st.tuples(points, points), min_size=1, max_size=12),
)
def test_batched_crossings_equal_the_per_segment_reference(sources, receiver, walls):
    counts = count_wall_crossings(sources, receiver, tuple(walls))
    assert counts.tolist() == _crossings_one_by_one(sources, receiver, walls)


@settings(max_examples=200, deadline=None)
@given(
    sources=st.lists(points, max_size=8),
    receivers=st.lists(points, min_size=1, max_size=6),
    walls=st.lists(st.tuples(points, points), min_size=1, max_size=12),
)
def test_crossings_to_several_receivers_equal_the_per_receiver_counts(sources, receivers, walls):
    walls = tuple(walls)
    counts = count_wall_crossings(sources, np.array(receivers), walls)
    assert counts.shape == (len(receivers), len(sources))
    for receiver, row in zip(receivers, counts.tolist()):
        assert row == count_wall_crossings(sources, receiver, walls).tolist()
        assert row == _crossings_one_by_one(sources, receiver, walls)


def test_crossings_to_receivers_on_a_wall_line_and_from_no_sources():
    # (4, 2) lies on the east wall and (2, 0) on the south wall; (0, 0) is a
    # corner. A segment that ends on a wall does not cross it.
    receivers = np.array([(4.0, 2.0), (6.0, 2.0), (2.0, 0.0), (0.0, 0.0), (2.0, -1.0)])
    sources = [(2.0, 2.0), (-1.0, 2.0)]
    counts = count_wall_crossings(sources, receivers, SQUARE)
    assert counts.tolist() == [[0, 1], [1, 2], [0, 1], [0, 0], [1, 2]]
    assert counts.tolist() == [_crossings_one_by_one(sources, r, SQUARE) for r in receivers]
    assert count_wall_crossings([], receivers, SQUARE).shape == (5, 0)


def test_wall_arrays_hold_each_walls_end_points_in_order():
    starts, ends = _wall_arrays(SQUARE)
    assert starts.dtype == ends.dtype == np.float64
    assert starts.shape == ends.shape == (len(SQUARE), 2)
    assert starts.tolist() == [list(a) for a, _ in SQUARE]
    assert ends.tolist() == [list(b) for _, b in SQUARE]


def test_template_derived_dimensions():
    assert LENGTH_M == 24.0
    assert HEIGHT_M == 8.0
    assert room_center_x(0) == 3.0
    assert room_center_x(3) == 21.0


@pytest.fixture(scope="module")
def plan() -> FloorPlan:
    return generate_floorplan(3, seed=0)


def test_floorplan_bounds_match_template(plan):
    assert plan.bounds() == (0.0, 0.0, 24.0, 8.0)


def test_floorplan_has_one_unique_label_per_room(plan):
    room_texts = [s.text for s in plan.signs if s.sign_id.startswith("s_room")]
    assert len(room_texts) == 4
    assert len(set(room_texts)) == 4


def test_duplicated_texts_appear_exactly_twice(plan):
    dup_signs = [s for s in plan.signs if s.sign_id.startswith("s_dup")]
    assert len(dup_signs) == 6
    by_text: dict = {}
    for s in dup_signs:
        by_text.setdefault(s.text, []).append(s)
    assert all(len(group) == 2 for group in by_text.values())
    # The two instances of one text sit at clearly different places.
    for group in by_text.values():
        (xa, ya), (xb, yb) = group[0].position, group[1].position
        assert math.hypot(xa - xb, ya - yb) > 3.0
    # No duplicated text collides with a room label.
    room_texts = {s.text for s in plan.signs if s.sign_id.startswith("s_room")}
    assert room_texts.isdisjoint(by_text)


def test_requested_ap_count_and_unique_macs(plan):
    assert len(plan.aps) == 10
    assert len({ap.mac for ap in plan.aps}) == 10


def test_generation_is_deterministic():
    a = generate_floorplan(2, seed=9)
    b = generate_floorplan(2, seed=9)
    c = generate_floorplan(2, seed=10)
    assert a == b
    assert a != c


def test_zero_duplicates_is_allowed():
    plan = generate_floorplan(0, seed=1)
    assert not [s for s in plan.signs if s.sign_id.startswith("s_dup")]


def test_generator_input_validation():
    with pytest.raises(ValueError):
        generate_floorplan(-1, seed=0)
    with pytest.raises(ValueError):
        generate_floorplan(99, seed=0)


def test_named_anchor_lookup(plan):
    # The generator places no anchors; a scripted scene names the spot where
    # a0 starts and a2 ends, which end-point error is measured between.
    assert plan.named_anchors == ()
    for name in scenario_names():
        scene_plan, _ = scripted_scenario(name, 0, duplicate_text_count=3, zero_noise=False)
        assert dict(scene_plan.named_anchors) == {"a0/start": (1.5, 1.5), "a2/end": (1.5, 1.5)}


def test_floorplan_rejects_inconsistent_contents():
    wall = (((0.0, 0.0), (4.0, 0.0)),)
    sign = Sign("s1", "T", (1.0, 0.0), 0.0)
    with pytest.raises(ValueError):
        FloorPlan((), (), ())
    with pytest.raises(ValueError):
        FloorPlan(wall, (sign, sign), ())
    with pytest.raises(ValueError):
        FloorPlan(wall, (Sign("s2", "T", (9.0, 0.0), 0.0),), ())
    dup_mac = AccessPoint(mac="m", position=(1.0, 0.0))
    with pytest.raises(ValueError):
        FloorPlan(wall, (), (dup_mac, dup_mac))

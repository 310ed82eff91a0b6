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


def test_wall_arrays_are_built_once_per_walls_and_read_only():
    starts, ends = _wall_arrays(SQUARE)
    again = _wall_arrays(tuple(list(SQUARE)))
    assert again[0] is starts and again[1] is ends
    assert starts.tolist() == [list(a) for a, _ in SQUARE]
    assert ends.tolist() == [list(b) for _, b in SQUARE]
    with pytest.raises(ValueError, match="read-only"):
        starts[0, 0] = 1.0


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

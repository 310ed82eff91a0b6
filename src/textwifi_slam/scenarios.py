"""Named benchmark scenes: a floorplan plus scripted agents.

scene01 is the headline setup: four similar rooms off one corridor,
duplicated sign texts, three agents, and the start of agent a0 coincident
with the end of agent a2 so the start-end closure error is measurable.
scene02 reuses the layout but revisits rooms repeatedly, exercising
within-agent loop closures.
"""

from __future__ import annotations

from dataclasses import replace

from .simulate import AgentScript
from .world import FloorPlan, generate_floorplan, room_center_x

# Tuned so the odometry-only baseline accumulates more than a metre of
# start-end error over a ~260 m drive. Alternating the drift sign per agent
# mimics unit-to-unit calibration differences.
HEADING_DRIFT_RAD_PER_M = 4e-3

_CORRIDOR_Y = 1.5
# Deep enough into a room that its north-wall signs are inside
# simulate.TEXT_DETECTION_RANGE_M.
_ROOM_STOP_Y = 6.0
_ANCHOR = (1.5, _CORRIDOR_Y)


def scenario_names() -> tuple[str, ...]:
    return ("scene01", "scene02")


def _agent(
    index: int,
    waypoints: list[tuple[tuple[float, float], float]],
    seed: int,
    zero_noise: bool,
) -> AgentScript:
    drift = HEADING_DRIFT_RAD_PER_M * (1.0 if index % 2 == 0 else -1.0)
    return AgentScript(
        agent_id=f"a{index}",
        waypoints=tuple(waypoints),
        seed=seed * 1000 + index,
        noisy=not zero_noise,
        heading_drift_rad_per_m=0.0 if zero_noise else drift,
    )


def _scene01_scripts(seed: int, zero_noise: bool) -> list[AgentScript]:
    y, ry = _CORRIDOR_Y, _ROOM_STOP_Y
    x0, x1, x2, x3 = (room_center_x(i) for i in range(4))
    east = (22.5, y)
    a0 = [
        (_ANCHOR, 5.0), (east, 2.0),
        ((x0, y), 0.0), ((x0, ry), 4.0), ((x0, y), 0.0),
        ((x1, y), 0.0), ((x1, ry), 4.0), ((x1, y), 0.0),
        (east, 1.0), ((12.0, y), 0.0),
    ]
    a1 = [
        (east, 3.0),
        ((x2, y), 0.0), ((x2, ry), 4.0), ((x2, y), 0.0),
        ((x1, y), 0.0), ((x1, ry), 4.0), ((x1, y), 0.0),
        ((x3, y), 0.0), ((x3, ry), 4.0), ((x3, y), 0.0),
        (_ANCHOR, 2.0), ((15.0, y), 0.0),
    ]
    a2 = [
        ((12.0, y), 2.0), (east, 1.0),
        ((x0, y), 0.0), ((x0, ry), 4.0), ((x0, y), 0.0),
        ((x2, y), 0.0), ((x2, ry), 4.0), ((x2, y), 0.0),
        ((x3, y), 0.0), ((x3, ry), 4.0), ((x3, y), 0.0),
        (_ANCHOR, 6.0),
    ]
    return [
        _agent(0, a0, seed, zero_noise),
        _agent(1, a1, seed, zero_noise),
        _agent(2, a2, seed, zero_noise),
    ]


def _scene02_scripts(seed: int, zero_noise: bool) -> list[AgentScript]:
    y, ry = _CORRIDOR_Y, _ROOM_STOP_Y
    x0, x1, x2, x3 = (room_center_x(i) for i in range(4))
    east = (22.5, y)
    a0 = [
        (_ANCHOR, 4.0),
        ((x0, y), 0.0), ((x0, ry), 3.0), ((x0, y), 0.0),
        (east, 1.0),
        ((x0, y), 0.0), ((x0, ry), 3.0), ((x0, y), 0.0),
        ((x1, y), 0.0), ((x1, ry), 3.0), ((x1, y), 0.0),
        (east, 1.0),
        ((x1, y), 0.0), ((x1, ry), 3.0), ((x1, y), 0.0),
        ((12.0, y), 0.0),
    ]
    a1 = [
        (east, 3.0),
        ((x2, y), 0.0), ((x2, ry), 3.0), ((x2, y), 0.0),
        (_ANCHOR, 1.0),
        ((x2, y), 0.0), ((x2, ry), 3.0), ((x2, y), 0.0),
        ((x3, y), 0.0), ((x3, ry), 3.0), ((x3, y), 0.0),
        (_ANCHOR, 1.0),
        ((x3, y), 0.0), ((x3, ry), 3.0), ((x3, y), 0.0),
        ((12.0, y), 0.0),
    ]
    a2 = [
        ((12.0, y), 2.0),
        ((x3, y), 0.0), ((x3, ry), 3.0), ((x3, y), 0.0),
        ((x1, y), 0.0), ((x1, ry), 3.0), ((x1, y), 0.0),
        ((x3, y), 0.0), ((x3, ry), 3.0), ((x3, y), 0.0),
        ((x0, y), 0.0), ((x0, ry), 3.0), ((x0, y), 0.0),
        (_ANCHOR, 5.0),
    ]
    return [
        _agent(0, a0, seed, zero_noise),
        _agent(1, a1, seed, zero_noise),
        _agent(2, a2, seed, zero_noise),
    ]


def scripted_scenario(
    name: str,
    seed: int,
    *,
    duplicate_text_count: int,
    zero_noise: bool,
) -> tuple[FloorPlan, list[AgentScript]]:
    """Build a named scene: floorplan with anchors plus agent scripts.

    The anchors bind the start of a0 and the end of a2 to the same physical
    spot; the evaluation harness measures how far apart the back end places
    them. Unknown names raise with the list of known scenes.
    """
    if name not in scenario_names():
        raise ValueError(f"unknown scenario {name!r}, known: {', '.join(scenario_names())}")
    plan = generate_floorplan(duplicate_text_count, seed)
    plan = replace(
        plan,
        named_anchors=(("a0/start", _ANCHOR), ("a2/end", _ANCHOR)),
    )
    if name == "scene01":
        scripts = _scene01_scripts(seed, zero_noise)
    else:
        scripts = _scene02_scripts(seed, zero_noise)
    return plan, scripts

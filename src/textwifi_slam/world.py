"""Synthetic indoor worlds.

A floorplan is a set of wall segments plus the things agents can sense:
text signs and WiFi access points. The generator builds one
corridor-and-rooms layout, fixed by the module constants below, with
controlled text duplication; scenarios bundles a plan with agent routes for
the named benchmark scenes. Raycasting tests the rays of one origin or of
several against every wall in one array operation; wall-crossing counts do
the same for every access point and one receiver or several. Each ray and
each (source, receiver) pair gets the same value however many share its
call, so a simulator may batch them as it likes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .wifi import AccessPoint

Point = tuple[float, float]
Wall = tuple[Point, Point]

# Texts that appear at more than one physical location. Duplication is the
# whole point: identical strings in different places are what break a
# text-only matcher.
DUPLICATE_TEXT_POOL = (
    "FIRE EXTINGUISHER",
    "EMERGENCY EXIT",
    "KEEP CLEAR",
    "ASSEMBLY POINT",
    "WET FLOOR CAUTION",
)

ENTRANCE_TEXT = "ENTRANCE LOBBY"


@dataclass(frozen=True)
class Sign:
    """A piece of readable text mounted at a fixed position.

    facing_rad points away from the mounting surface; an agent can only read
    the sign from inside a cone around that direction.
    """

    sign_id: str
    text: str
    position: Point
    facing_rad: float


@dataclass(frozen=True)
class FloorPlan:
    walls: tuple[Wall, ...]
    signs: tuple[Sign, ...]
    aps: tuple[AccessPoint, ...]
    named_anchors: tuple[tuple[str, Point], ...] = ()

    def __post_init__(self) -> None:
        if not self.walls:
            raise ValueError("a floorplan needs at least one wall")
        sign_ids = [s.sign_id for s in self.signs]
        if len(sign_ids) != len(set(sign_ids)):
            raise ValueError("sign ids must be unique")
        macs = [ap.mac for ap in self.aps]
        if len(macs) != len(set(macs)):
            raise ValueError("access point MACs must be unique")
        xmin, ymin, xmax, ymax = self.bounds()
        for sign in self.signs:
            x, y = sign.position
            if not (xmin <= x <= xmax and ymin <= y <= ymax):
                raise ValueError(f"sign {sign.sign_id} lies outside the walls")

    def bounds(self) -> tuple[float, float, float, float]:
        xs = [x for wall in self.walls for x, _ in wall]
        ys = [y for wall in self.walls for _, y in wall]
        return min(xs), min(ys), max(xs), max(ys)


@functools.lru_cache(maxsize=8)
def _wall_arrays(walls: tuple[Wall, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The walls' start and end points as read-only (w, 2) arrays, built
    once per walls tuple: a simulation casts every scan against one plan."""
    starts = np.array([w[0] for w in walls], dtype=float)
    ends = np.array([w[1] for w in walls], dtype=float)
    starts.flags.writeable = ends.flags.writeable = False
    return starts, ends


def raycast(
    origins: Point | np.ndarray,
    angles_rad: np.ndarray,
    walls: tuple[Wall, ...],
    max_range_m: float,
) -> np.ndarray:
    """First-hit distances along each angle from its origin, inf for misses.

    origins is one point, shape (2,), with angles of shape (a,); or n
    points, shape (n, 2), with one row of angles per origin, shape (n, a).
    The result has the shape of angles_rad. Every (ray, wall) pair runs the
    same ray/segment intersection, broadcast over all axes, so a ray's range
    does not depend on which rays share its call.
    """
    starts, ends = _wall_arrays(walls)
    seg = (ends - starts)[:, :, None]                                    # (w, 2, 1)
    rel = starts[:, :, None] - np.asarray(origins, float)[..., None, :, None]  # (..., w, 2, 1)
    angles = np.asarray(angles_rad, float)[..., None, :]                 # (..., 1, a)
    dx, dy = np.cos(angles), np.sin(angles)

    # Walls run along the second-to-last axis, so the nearest hit is an
    # elementwise minimum over w rows of rays. Each a*b - c*d is taken as
    # a*b, then -= c*d in place, which rounds exactly as the expression does.
    denom = dx * seg[:, 1]
    denom -= dy * seg[:, 0]                                      # (..., w, a)
    rel_cross_seg = rel[..., 0, :] * seg[:, 1] - rel[..., 1, :] * seg[:, 0]  # (..., w, 1)
    u = rel[..., 0, :] * dy
    u -= rel[..., 1, :] * dx                                     # (..., w, a)

    with np.errstate(divide="ignore", invalid="ignore"):
        t = rel_cross_seg / denom
        u /= denom
    valid = np.abs(denom, out=denom) > 1e-12
    valid &= t > 1e-9
    valid &= u >= -1e-12
    valid &= u <= 1.0 + 1e-12
    hits = t.min(axis=-2, initial=np.inf, where=valid)
    return np.where(hits <= max_range_m, hits, np.inf)


def count_wall_crossings(
    sources: Sequence[Point], receivers: Point | np.ndarray, walls: tuple[Wall, ...]
) -> np.ndarray:
    """Walls the open segment from each source to each receiver passes through.

    receivers is one point, shape (2,), giving one integer count per source
    in source order; or m points, shape (m, 2), giving an (m, s) array, a
    row per receiver. Every (receiver, source, wall) triple runs the same
    orientation tests, broadcast over all axes.
    """
    starts, ends = _wall_arrays(walls)  # (w, 2)
    pa = np.asarray(sources, float).reshape(-1, 1, 2)  # (s, 1, 2)
    pb = np.asarray(receivers, float)[..., None, None, :]  # (..., 1, 1, 2)
    ab = pb - pa  # (..., s, 1, 2)

    def cross(v: np.ndarray, w: np.ndarray) -> np.ndarray:
        # v x w as v0*w1, then -= v1*w0 in place, which rounds exactly as
        # v0*w1 - v1*w0 does and keeps one full-size temporary.
        out = v[..., 0] * w[..., 1]
        out -= v[..., 1] * w[..., 0]
        return out

    seg = ends - starts
    d3 = cross(seg, pa - starts)  # (s, w)
    d4 = cross(seg, pb - starts)  # (..., 1, w)
    d1 = cross(ab, starts - pa)  # (..., s, w)
    d1 *= cross(ab, ends - pa)
    crossing = d1 < 0.0
    crossing &= np.multiply(d3, d4, out=d1) < 0.0
    return np.count_nonzero(crossing, axis=-1)


# The one building the scenes use: ROOM_COUNT rooms in a row along the north
# side of a straight corridor, each with a doorway onto it, and AP_COUNT
# access points.
ROOM_COUNT = 4
ROOM_WIDTH_M = 6.0
ROOM_DEPTH_M = 5.0
CORRIDOR_WIDTH_M = 3.0
DOOR_WIDTH_M = 1.2
AP_COUNT = 10
LENGTH_M = ROOM_COUNT * ROOM_WIDTH_M
HEIGHT_M = CORRIDOR_WIDTH_M + ROOM_DEPTH_M


def room_center_x(i: int) -> float:
    return (i + 0.5) * ROOM_WIDTH_M


def _corridor_walls() -> list[Wall]:
    length, height, cw = LENGTH_M, HEIGHT_M, CORRIDOR_WIDTH_M
    walls: list[Wall] = [
        ((0.0, 0.0), (length, 0.0)),
        ((length, 0.0), (length, height)),
        ((length, height), (0.0, height)),
        ((0.0, height), (0.0, 0.0)),
    ]
    # Corridor/room divider with a door gap per room.
    for i in range(ROOM_COUNT):
        left = i * ROOM_WIDTH_M
        right = left + ROOM_WIDTH_M
        cx = room_center_x(i)
        gap_l = cx - DOOR_WIDTH_M / 2.0
        gap_r = cx + DOOR_WIDTH_M / 2.0
        walls.append(((left, cw), (gap_l, cw)))
        walls.append(((gap_r, cw), (right, cw)))
    # Partitions between adjacent rooms.
    for i in range(1, ROOM_COUNT):
        x = i * ROOM_WIDTH_M
        walls.append(((x, cw), (x, height)))
    return walls


def generate_floorplan(duplicate_text_count: int, seed: int) -> FloorPlan:
    """Build the corridor-and-rooms floorplan with controlled text duplication.

    duplicate_text_count texts are each mounted at two distinct locations
    (alternating between far-apart rooms and corridor walls); every room also
    gets a unique label sign by its door. APs are spread so that different
    rooms see distinguishably different subsets.
    """
    if duplicate_text_count < 0 or duplicate_text_count > len(DUPLICATE_TEXT_POOL):
        raise ValueError(
            f"duplicate_text_count must be in [0, {len(DUPLICATE_TEXT_POOL)}]"
        )
    rng = np.random.default_rng(seed)
    cw, height, length = CORRIDOR_WIDTH_M, HEIGHT_M, LENGTH_M
    inset = 0.08  # signs sit just inside the wall line

    signs: list[Sign] = [
        Sign("s_entrance", ENTRANCE_TEXT, (inset, cw / 2.0), 0.0),
    ]
    # Room labels on the corridor wall, east of each door, facing the corridor.
    for i in range(ROOM_COUNT):
        door_east = room_center_x(i) + DOOR_WIDTH_M / 2.0
        x = min(door_east + 0.4, (i + 1) * ROOM_WIDTH_M - 0.3)
        signs.append(
            Sign(f"s_room{i}", f"ROOM A-{101 + i}", (x, cw - inset), -math.pi / 2.0)
        )
    # Duplicated texts, two instances each.
    for j in range(duplicate_text_count):
        text = DUPLICATE_TEXT_POOL[j]
        if j % 2 == 0:
            # Inside two non-adjacent rooms, on the north wall.
            ra = (j // 2) % ROOM_COUNT
            rb = (ra + 2) % ROOM_COUNT
            for k, room in enumerate((ra, rb)):
                x = room_center_x(room) + float(rng.uniform(-0.5, 0.5))
                signs.append(
                    Sign(f"s_dup{j}_{k}", text, (x, height - inset), -math.pi / 2.0)
                )
        else:
            # On the corridor south wall, far apart.
            for k, frac in enumerate((0.3, 0.75)):
                x = length * frac + float(rng.uniform(-0.5, 0.5))
                signs.append(Sign(f"s_dup{j}_{k}", text, (x, inset), math.pi / 2.0))

    # Access points: one per room first, then along the corridor, then a
    # second round in the rooms near the doorway side.
    positions: list[Point] = []
    for i in range(ROOM_COUNT):
        positions.append((room_center_x(i), cw + ROOM_DEPTH_M * 0.75))
    # Corridor units hang high on the divider wall rather than mid-corridor:
    # an agent walking the centerline never gets into the near field where a
    # half-meter of travel swings the reading by tens of dB.
    n_corridor = max(2, (AP_COUNT - ROOM_COUNT + 1) // 2)
    for i in range(n_corridor):
        positions.append((length * (i + 1) / (n_corridor + 1), cw - 0.35))
    i = 0
    while len(positions) < AP_COUNT:
        positions.append(
            (room_center_x(i % ROOM_COUNT) - ROOM_WIDTH_M * 0.25,
             cw + ROOM_DEPTH_M * 0.25)
        )
        i += 1
    aps = tuple(
        AccessPoint(
            mac=f"ap{i:02d}",
            position=(
                float(px + rng.uniform(-0.25, 0.25)),
                float(py + rng.uniform(-0.25, 0.25)),
            ),
        )
        for i, (px, py) in enumerate(positions)
    )
    return FloorPlan(tuple(_corridor_walls()), tuple(signs), aps)

"""Synthetic demo village.

A shape-matched stand-in for a real riverside village: 570 buildings on a
jittered road grid, 4 internal evacuation centers, 1 external shelter at
the village edge, 15 rescuer start nodes, and one river polyline close to
the southern road row so the population spans all three hazard-proximity
classes. Generation is fully deterministic (fixed internal seed).
"""

from __future__ import annotations

import random

from .geo import Point, Shelter, Waterway, World

__all__ = ["build_demo_world", "DEMO_BUILDINGS"]

DEMO_BUILDINGS = 570

_GRID_COLS = 13
_GRID_ROWS = 7
_SPACING = 95.0


def build_demo_world() -> World:
    rng = random.Random(721_0001)

    # Road grid with positional jitter so edge lengths vary.
    nodes: dict[int, Point] = {}
    for r in range(_GRID_ROWS):
        for c in range(_GRID_COLS):
            nid = r * _GRID_COLS + c
            jx = rng.uniform(-12.0, 12.0)
            jy = rng.uniform(-12.0, 12.0)
            nodes[nid] = Point(c * _SPACING + jx, r * _SPACING + jy)

    edges: list[tuple[int, int, float]] = []
    for r in range(_GRID_ROWS):
        for c in range(_GRID_COLS):
            nid = r * _GRID_COLS + c
            if c + 1 < _GRID_COLS:
                other = nid + 1
                edges.append((nid, other, nodes[nid].distance_to(nodes[other])))
            if r + 1 < _GRID_ROWS:
                other = nid + _GRID_COLS
                edges.append((nid, other, nodes[nid].distance_to(nodes[other])))

    # River: a meandering polyline just south of row 0. Houses hanging off
    # the southern row land within 0-40 m of it.
    river_pts: list[Point] = []
    x = -80.0
    while x <= (_GRID_COLS - 1) * _SPACING + 80.0:
        river_pts.append(Point(x, -27.0 + rng.uniform(-6.0, 6.0)))
        x += 70.0
    waterways = [Waterway(0, tuple(river_pts))]

    # Buildings hang off road edges at a perpendicular offset. Distribute
    # 570 across the edge list round-robin so density is even.
    buildings: dict[int, Point] = {}
    edge_cycle = list(range(len(edges)))
    bid = 0
    while bid < DEMO_BUILDINGS:
        eidx = edge_cycle[bid % len(edge_cycle)]
        a, b, _ = edges[eidx]
        pa, pb = nodes[a], nodes[b]
        t = rng.uniform(0.15, 0.85)
        px = pa.x + (pb.x - pa.x) * t
        py = pa.y + (pb.y - pa.y) * t
        dx, dy = pb.x - pa.x, pb.y - pa.y
        norm = (dx * dx + dy * dy) ** 0.5
        nx, ny = -dy / norm, dx / norm
        side = 1.0 if rng.random() < 0.5 else -1.0
        offset = rng.uniform(10.0, 28.0) * side
        buildings[bid] = Point(px + nx * offset, py + ny * offset)
        bid += 1

    # Four internal evacuation centers spread over the village, one
    # external shelter past the north-east corner. Internal capacity (in
    # persons) is deliberately below the village total so overflow and
    # redirection occur in high-evacuation runs.
    def node_at(col: int, row: int) -> int:
        return row * _GRID_COLS + col

    shelters = [
        Shelter(id=0, node=node_at(2, 1), capacity=260, external=False),
        Shelter(id=1, node=node_at(9, 1), capacity=240, external=False),
        Shelter(id=2, node=node_at(3, 5), capacity=300, external=False),
        Shelter(id=3, node=node_at(10, 5), capacity=280, external=False),
        Shelter(id=4, node=node_at(12, 6), capacity=1, external=True),
    ]

    rescuer_starts = [
        node_at(0, 0), node_at(6, 0), node_at(12, 0),
        node_at(3, 2), node_at(9, 2), node_at(6, 3),
        node_at(0, 3), node_at(12, 3), node_at(1, 5),
        node_at(6, 5), node_at(11, 4), node_at(4, 4),
        node_at(8, 4), node_at(2, 6), node_at(10, 6),
    ]

    return World(
        nodes=nodes,
        edges=edges,
        buildings=buildings,
        waterways=waterways,
        shelters=shelters,
        rescuer_starts=rescuer_starts,
    )

"""Spatial world: road graph, buildings, waterways, shelters.

The world is loaded once from a plain-text file (grammar in
docs/formats.md) and validated. A world index reads it only while it is
built and copies what its runs read, so a later change to a world reaches
no run on an index already built. All distances are planar meters.

The geometry tables of a world index (which houses lie near each road
edge, each house's hazard-proximity class, which walk legs are out of a
shelter's reach) are built on numpy arrays by one point-to-segment kernel,
`segment_offsets`, whose offsets are bit-identical to the scalar arithmetic
in the same order.

Two rules decide every distance, each one float64 expression that numpy
and Python round alike. An offset (ex, ey) is within r when
ex * ex + ey * ey <= r * r, the boundary included (`within`, and the
walks' range tests); the nearest road node is the one of least
dx * dx + dy * dy, ties to the lowest id (`nearest_road_nodes`). The
engine parameters refuse a radius whose square is below the normal float
range, so no offset's square underflows into a range it is not in.
"""

from __future__ import annotations

import enum
import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .textfile import read_text, split_lines

__all__ = [
    "Point",
    "Shelter",
    "Waterway",
    "World",
    "ProximityClass",
    "load_world",
    "parse_world",
    "validate_world",
    "serialize_world",
    "nearest_road_nodes",
    "points_near_edges",
    "shortest_path_tree",
    "proximity_classes",
    "segment_offsets",
    "within",
]

EDGE_LENGTH_TOL = 1e-6
# The largest |coordinate| a world file may hold. Any planar projection of
# the Earth fits within +-2.1e7 m, and squared distances between points this
# far out stay far below float overflow, which coordinates near 1e154 reach.
MAX_COORDINATE_M = 1e9


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class Shelter:
    id: int
    node: int
    capacity: int  # persons; ignored (treated as unbounded) when external
    external: bool


@dataclass(frozen=True)
class Waterway:
    id: int
    points: tuple[Point, ...]


@dataclass
class World:
    """The spatial scene of an experiment. A world index reads it only while
    it is built, so a later change to it reaches no run on that index."""

    nodes: dict[int, Point]
    edges: list[tuple[int, int, float]]  # (a, b, length), undirected
    buildings: dict[int, Point]  # building id -> footprint centroid
    waterways: list[Waterway]
    shelters: list[Shelter]
    rescuer_starts: list[int]
    adjacency: dict[int, tuple[tuple[int, float], ...]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        adj: dict[int, list[tuple[int, float]]] = {n: [] for n in self.nodes}
        for a, b, length in self.edges:
            adj[a].append((b, length))
            adj[b].append((a, length))
        self.adjacency = {n: tuple(sorted(nbrs)) for n, nbrs in adj.items()}

    def internal_shelters(self) -> list[Shelter]:
        return [s for s in self.shelters if not s.external]

    def external_shelters(self) -> list[Shelter]:
        return [s for s in self.shelters if s.external]


def _parse_bool(token: str) -> bool:
    low = token.lower()
    if low in ("1", "true", "yes"):
        return True
    if low in ("0", "false", "no"):
        return False
    raise ValueError(f"not a boolean: {token!r}")


def _bad_line(lineno: int, why: str) -> InputError:
    return InputError(f"line {lineno}: {why}")


def _coordinates_error(lineno: int, kind: str) -> InputError:
    return _bad_line(lineno,
                     f"{kind} coordinates must be finite and within +-{MAX_COORDINATE_M:g} m")


def parse_world(text: str) -> World:
    """Parse the line-oriented world format, checking each record on its own;
    validate_world checks the invariants that span records.

    One pass over the lines of `textfile.split_lines`, skipping what
    `textfile.content_lines` skips. A record's checks run in a fixed order,
    the first that fails names the line: field count, ids, duplicate,
    every coordinate parsed as a float, then their range (a nan is out of
    range)."""
    nodes: dict[int, Point] = {}
    edges: list[tuple[int, int, float]] = []
    edge_keys: set[tuple[int, int]] = set()
    buildings: dict[int, Point] = {}
    waterways: list[Waterway] = []
    shelters: list[Shelter] = []
    rescuer_starts: list[int] = []
    limit = MAX_COORDINATE_M

    for lineno, line in enumerate(split_lines(text), start=1):
        line = line.strip()
        if not line or line[0] == "#":
            continue
        parts = line.split("|")
        kind = parts[0]
        try:
            if kind == "node" or kind == "building":
                if len(parts) != 4:
                    raise _bad_line(lineno, f"{kind} expects {kind}|id|x|y")
                rid = int(parts[1])
                table = nodes if kind == "node" else buildings
                if rid in table:
                    raise _bad_line(lineno, f"duplicate {kind} id {rid}")
                x = float(parts[2])
                y = float(parts[3])
                if not (abs(x) <= limit and abs(y) <= limit):  # False for nan
                    raise _coordinates_error(lineno, kind)
                table[rid] = Point(x, y)
            elif kind == "edge":
                if len(parts) not in (3, 4):
                    raise _bad_line(lineno, "edge expects edge|a|b or edge|a|b|length")
                a, b = int(parts[1]), int(parts[2])
                if a == b:
                    raise _bad_line(lineno, f"self-loop edge at node {a}")
                if a not in nodes or b not in nodes:
                    raise _bad_line(lineno, f"edge references unknown node ({a},{b}); "
                                            "nodes must precede edges")
                key = (min(a, b), max(a, b))
                if key in edge_keys:
                    raise _bad_line(lineno, f"duplicate edge {key}")
                edge_keys.add(key)
                euclid = nodes[a].distance_to(nodes[b])
                if euclid == 0.0:
                    raise _bad_line(lineno, f"zero-length edge ({a},{b}): its nodes coincide")
                if len(parts) == 4:
                    stored = float(parts[3])
                    if not abs(stored - euclid) <= EDGE_LENGTH_TOL:  # True for nan
                        raise _bad_line(
                            lineno,
                            f"edge length {stored} differs from endpoint distance "
                            f"{euclid:.9f} by more than {EDGE_LENGTH_TOL}",
                        )
                edges.append((a, b, euclid))
            elif kind == "waterway":
                if len(parts) < 6 or len(parts) % 2 != 0:
                    raise _bad_line(lineno, "waterway expects waterway|id|x1|y1|x2|y2|... "
                                            "(>= 2 points)")
                wid = int(parts[1])
                values = [float(v) for v in parts[2:]]
                if not all(abs(v) <= limit for v in values):
                    raise _coordinates_error(lineno, kind)
                waterways.append(Waterway(wid, tuple(Point(values[i], values[i + 1])
                                                     for i in range(0, len(values), 2))))
            elif kind == "shelter":
                if len(parts) != 5:
                    raise _bad_line(lineno, "shelter expects shelter|id|node|capacity|external")
                shelters.append(
                    Shelter(
                        id=int(parts[1]),
                        node=int(parts[2]),
                        capacity=int(parts[3]),
                        external=_parse_bool(parts[4]),
                    )
                )
            elif kind == "rescuer_start":
                if len(parts) != 2:
                    raise _bad_line(lineno, "rescuer_start expects rescuer_start|node")
                rescuer_starts.append(int(parts[1]))
            else:
                raise _bad_line(lineno, f"unknown record kind {kind!r}")
        except ValueError as exc:
            raise _bad_line(lineno, str(exc)) from None

    return World(
        nodes=nodes,
        edges=edges,
        buildings=buildings,
        waterways=waterways,
        shelters=shelters,
        rescuer_starts=rescuer_starts,
    )


def validate_world(world: World) -> None:
    """Check the invariants that span records; raise InputError naming the
    first one violated. The checks of a single record (edge endpoints and
    length, waterway points) are parse_world's."""
    if not world.nodes:
        raise InputError("world has no road nodes")
    if not world.edges and len(world.nodes) > 1:
        raise InputError("world has road nodes but no edges")

    seen_shelter_ids: set[int] = set()
    for s in world.shelters:
        if s.id in seen_shelter_ids:
            raise InputError(f"duplicate shelter id {s.id}")
        seen_shelter_ids.add(s.id)
        if s.node not in world.nodes:
            raise InputError(f"shelter {s.id} references unknown node {s.node}")
        if s.capacity <= 0:
            raise InputError(f"shelter {s.id} capacity must be > 0, got {s.capacity}")
    for n in world.rescuer_starts:
        if n not in world.nodes:
            raise InputError(f"rescuer_start references unknown node {n}")

    # Shelters and rescuer starts must be mutually reachable on the road graph.
    anchors = [s.node for s in world.shelters] + list(world.rescuer_starts)
    if anchors:
        reached = shortest_path_tree(world, anchors[0])[0]
        for s in world.shelters:
            if s.node not in reached:
                raise InputError(f"shelter {s.id} (node {s.node}) is disconnected from the road network anchors")
        for n in world.rescuer_starts:
            if n not in reached:
                raise InputError(f"rescuer_start node {n} is disconnected from the road network anchors")


def load_world(path: str) -> World:
    """Read, parse, and validate a world file."""
    world = parse_world(read_text(path, "world file"))
    validate_world(world)
    return world


def _fmt(v: float) -> str:
    return repr(float(v))


def serialize_world(world: World) -> str:
    """Emit the world in the same plain-text format load_world reads.

    load_world(serialize_world(w)) round-trips to an equal world.
    """
    out: list[str] = ["# evacsim world"]
    for nid in sorted(world.nodes):
        p = world.nodes[nid]
        out.append(f"node|{nid}|{_fmt(p.x)}|{_fmt(p.y)}")
    for a, b, length in world.edges:
        out.append(f"edge|{a}|{b}|{_fmt(length)}")
    for bid in sorted(world.buildings):
        p = world.buildings[bid]
        out.append(f"building|{bid}|{_fmt(p.x)}|{_fmt(p.y)}")
    for w in world.waterways:
        coords = "|".join(f"{_fmt(p.x)}|{_fmt(p.y)}" for p in w.points)
        out.append(f"waterway|{w.id}|{coords}")
    for s in world.shelters:
        out.append(f"shelter|{s.id}|{s.node}|{s.capacity}|{1 if s.external else 0}")
    for n in world.rescuer_starts:
        out.append(f"rescuer_start|{n}")
    return "\n".join(out) + "\n"


# At most this many (point, node) squared distances are held at once.
_BLOCK_PAIRS = 16384


def _coords(points: list[Point]) -> tuple[np.ndarray, np.ndarray]:
    return (np.fromiter((p.x for p in points), float, len(points)),
            np.fromiter((p.y for p in points), float, len(points)))


def nearest_road_nodes(world: World, points: list[Point]) -> list[int]:
    """For each point, the node of least squared distance
    dx * dx + dy * dy to it; ties break to the lowest id.

    The squares are computed in blocks of at most _BLOCK_PAIRS pairs (one
    point's row when the world has more nodes), their columns the node ids
    in ascending order, so each row's argmin is the lowest id of its
    minimum.
    """
    if not world.nodes:
        raise InputError("world has no road nodes")
    ids = sorted(world.nodes)
    qx, qy = _coords([world.nodes[nid] for nid in ids])
    px, py = _coords(points)
    rows = max(1, _BLOCK_PAIRS // len(ids))
    out: list[int] = []
    for lo in range(0, len(points), rows):
        d2 = qx - px[lo:lo + rows, None]
        dy = qy - py[lo:lo + rows, None]
        d2 *= d2
        dy *= dy
        d2 += dy  # dx * dx + dy * dy, in place
        out += [ids[k] for k in d2.argmin(axis=1).tolist()]
    return out


def segment_offsets(px: np.ndarray, py: np.ndarray, ax: np.ndarray, ay: np.ndarray,
                    bx: np.ndarray, by: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The offset (ex, ey) from the nearest point of the closed segment ab
    to p, on arrays broadcast together.

    The arithmetic is the scalar kernel's, in its order: v = b - a,
    w = p - a, t = (w . v) / (v . v) clipped to [0, 1], then w - t * v.
    numpy's + - * / and clip round as Python floats do, so each offset is
    bit-identical to the scalar one. A zero-length segment (a repeated
    waterway vertex) takes t = 0, so its offset is p - a, with no division.
    """
    vx = bx - ax
    vy = by - ay
    wx = px - ax
    wy = py - ay
    seg_len2 = vx * vx + vy * vy
    dot = wx * vx + wy * vy
    t = np.divide(dot, seg_len2, out=np.zeros(np.shape(dot)), where=seg_len2 != 0.0)
    np.clip(t, 0.0, 1.0, out=t)
    return wx - t * vx, wy - t * vy


def within(ex: np.ndarray, ey: np.ndarray, radius: float) -> np.ndarray:
    """Per offset, ex * ex + ey * ey <= radius * radius: the within rule of
    the module docstring, on arrays."""
    return ex * ex + ey * ey <= radius * radius


# Padding of the prefilter box beyond the radius. segment_offsets rounds
# its projection by about 1e-13 m at village coordinates, far below this,
# so every pair `within` accepts lies inside the padded box.
_BOX_SLACK = 1e-6


def _segment_coords(segments: list[tuple[Point, Point]]) -> tuple[np.ndarray, ...]:
    ax, ay = _coords([a for a, _ in segments])
    bx, by = _coords([b for _, b in segments])
    return ax, ay, bx, by


def _boxed_pairs(px: np.ndarray, py: np.ndarray, ax: np.ndarray, ay: np.ndarray,
                 bx: np.ndarray, by: np.ndarray,
                 radius: float) -> tuple[np.ndarray, np.ndarray]:
    """The (segment, point) index pairs with the point inside the segment's
    bounding box padded by radius + _BOX_SLACK, sorted by segment, then
    point: a superset of the pairs within radius.

    The points are sorted by x once; each segment takes the range of them
    in the x span of its padded box, and keeps those in its y span.
    """
    pad = radius + _BOX_SLACK
    order = np.argsort(px, kind="stable")
    xs = px[order]
    lo = np.searchsorted(xs, np.minimum(ax, bx) - pad, side="left")
    hi = np.searchsorted(xs, np.maximum(ax, bx) + pad, side="right")
    counts = hi - lo
    seg = np.repeat(np.arange(len(ax)), counts)
    # the k-th pair of a segment is the point at xs position lo + k
    pos = np.arange(len(seg)) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    pt = order[pos]
    y = py[pt]
    keep = ((np.minimum(ay, by) - pad)[seg] <= y) & (y <= (np.maximum(ay, by) + pad)[seg])
    seg, pt = seg[keep], pt[keep]
    ranked = np.lexsort((pt, seg))
    return seg[ranked], pt[ranked]


def points_near_edges(world: World, points: list[Point],
                      radius: float) -> dict[tuple[int, int], tuple[int, ...]]:
    """For every road edge, keyed (lower id, higher id) in world.edges
    order, the ascending indices of the points within radius of the edge:
    `within` on the `segment_offsets` of point and segment.

    Only the points inside the edge's padded bounding box reach the kernel.
    The kernel makes every decision, so the result equals a test of every
    pair.
    """
    px, py = _coords(points)
    ax, ay, bx, by = _segment_coords([(world.nodes[a], world.nodes[b])
                                      for a, b, _ in world.edges])
    seg, pt = _boxed_pairs(px, py, ax, ay, bx, by, radius)
    ex, ey = segment_offsets(px[pt], py[pt], ax[seg], ay[seg], bx[seg], by[seg])
    keep = within(ex, ey, radius)
    bounds = np.searchsorted(seg[keep], np.arange(len(world.edges) + 1)).tolist()
    near = pt[keep].tolist()
    return {(min(a, b), max(a, b)): tuple(near[bounds[k]:bounds[k + 1]])
            for k, (a, b, _) in enumerate(world.edges)}


def shortest_path_tree(world: World, root: int) -> tuple[dict[int, float], dict[int, int]]:
    """Dijkstra over the undirected road graph from root.

    Returns (dist, parent): the shortest distance to root and the next hop
    toward root for every node reachable from root (parent[root] == root);
    unreachable nodes are absent. Deterministic: the heap breaks distance
    ties by (node id, hop id), so of two equal-length hops toward root the
    one through the lower node id wins.
    """
    if root not in world.nodes:
        raise InputError(f"unknown root node {root} for shortest_path_tree")
    dist: dict[int, float] = {root: 0.0}
    parent: dict[int, int] = {}
    heap: list[tuple[float, int, int]] = [(0.0, root, root)]
    adjacency = world.adjacency
    while heap:
        d, node, via = heapq.heappop(heap)
        if node in parent:
            continue
        parent[node] = via
        dist[node] = d
        for nbr, length in adjacency[node]:
            if nbr not in parent:
                nd = d + length
                if nd <= dist.get(nbr, math.inf):
                    dist[nbr] = nd
                    heapq.heappush(heap, (nd, nbr, node))
    return dist, parent


class ProximityClass(enum.Enum):
    """Coded distance-to-hazard classes."""

    WITHIN = 1.0
    NEAR = 0.5
    FAR = 0.25


WITHIN_CUTOFF_M = 10.0
NEAR_CUTOFF_M = 50.0


def proximity_classes(world: World, points: list[Point]) -> list[ProximityClass]:
    """The proximity class of each point's minimum distance to the world's
    waterway polylines.

    A point is WITHIN if some segment passes `within` at WITHIN_CUTOFF_M,
    else NEAR if one passes at NEAR_CUTOFF_M, else FAR: the class of the
    minimum is monotone in distance, so no minimum is taken. Only the
    points inside a segment's bounding box padded by NEAR_CUTOFF_M reach
    the kernel for that segment, and a point in no box is FAR. That is
    exact: a segment within NEAR_CUTOFF_M of a point has the point inside
    its box. Raises InputError for any point in a world with no waterways.
    """
    if points and not world.waterways:
        raise InputError("world has no waterways; hazard distance is undefined")
    px, py = _coords(points)
    ax, ay, bx, by = _segment_coords([seg for w in world.waterways
                                      for seg in zip(w.points, w.points[1:])])
    seg, pt = _boxed_pairs(px, py, ax, ay, bx, by, NEAR_CUTOFF_M)
    ex, ey = segment_offsets(px[pt], py[pt], ax[seg], ay[seg], bx[seg], by[seg])
    inside = np.zeros(len(points), dtype=bool)
    inside[pt[within(ex, ey, WITHIN_CUTOFF_M)]] = True
    near = np.zeros(len(points), dtype=bool)
    near[pt[within(ex, ey, NEAR_CUTOFF_M)]] = True
    return [ProximityClass.WITHIN if i else ProximityClass.NEAR if n else ProximityClass.FAR
            for i, n in zip(inside.tolist(), near.tolist())]

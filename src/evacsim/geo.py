"""Spatial world: road graph, buildings, waterways, shelters.

The world is loaded once from a plain-text file (grammar in
docs/formats.md), validated, and then treated as immutable. All distances
are planar meters.
"""

from __future__ import annotations

import bisect
import enum
import heapq
import math
from dataclasses import dataclass, field

from .errors import InputError
from .textfile import content_lines, read_text

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
    "classify_proximity",
    "proximity_classes",
    "point_segment_distance",
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
    """Immutable spatial scene. Mutating after load is unsupported."""

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


def parse_world(text: str) -> World:
    """Parse the line-oriented world format, checking each record on its own;
    validate_world checks the invariants that span records."""
    nodes: dict[int, Point] = {}
    edges: list[tuple[int, int, float]] = []
    edge_keys: set[tuple[int, int]] = set()
    buildings: dict[int, Point] = {}
    waterways: list[Waterway] = []
    shelters: list[Shelter] = []
    rescuer_starts: list[int] = []

    def fail(lineno: int, why: str) -> None:
        raise InputError(f"line {lineno}: {why}")

    def points(lineno: int, kind: str, coords: list[str]) -> list[Point]:
        values = [float(v) for v in coords]
        if not all(abs(v) <= MAX_COORDINATE_M for v in values):  # False for nan
            fail(lineno, f"{kind} coordinates must be finite and within +-{MAX_COORDINATE_M:g} m")
        return [Point(values[i], values[i + 1]) for i in range(0, len(values), 2)]

    for lineno, line in content_lines(text):
        parts = line.split("|")
        kind = parts[0]
        try:
            if kind == "node":
                if len(parts) != 4:
                    fail(lineno, "node expects node|id|x|y")
                nid = int(parts[1])
                if nid in nodes:
                    fail(lineno, f"duplicate node id {nid}")
                nodes[nid] = points(lineno, "node", parts[2:])[0]
            elif kind == "edge":
                if len(parts) not in (3, 4):
                    fail(lineno, "edge expects edge|a|b or edge|a|b|length")
                a, b = int(parts[1]), int(parts[2])
                if a == b:
                    fail(lineno, f"self-loop edge at node {a}")
                if a not in nodes or b not in nodes:
                    fail(lineno, f"edge references unknown node ({a},{b}); nodes must precede edges")
                key = (min(a, b), max(a, b))
                if key in edge_keys:
                    fail(lineno, f"duplicate edge {key}")
                edge_keys.add(key)
                euclid = nodes[a].distance_to(nodes[b])
                if euclid == 0.0:
                    fail(lineno, f"zero-length edge ({a},{b}): its nodes coincide")
                if len(parts) == 4:
                    stored = float(parts[3])
                    if abs(stored - euclid) > EDGE_LENGTH_TOL:
                        fail(
                            lineno,
                            f"edge length {stored} differs from endpoint distance "
                            f"{euclid:.9f} by more than {EDGE_LENGTH_TOL}",
                        )
                edges.append((a, b, euclid))
            elif kind == "building":
                if len(parts) != 4:
                    fail(lineno, "building expects building|id|x|y")
                bid = int(parts[1])
                if bid in buildings:
                    fail(lineno, f"duplicate building id {bid}")
                buildings[bid] = points(lineno, "building", parts[2:])[0]
            elif kind == "waterway":
                if len(parts) < 6 or len(parts) % 2 != 0:
                    fail(lineno, "waterway expects waterway|id|x1|y1|x2|y2|... (>= 2 points)")
                wid = int(parts[1])
                waterways.append(Waterway(wid, tuple(points(lineno, "waterway", parts[2:]))))
            elif kind == "shelter":
                if len(parts) != 5:
                    fail(lineno, "shelter expects shelter|id|node|capacity|external")
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
                    fail(lineno, "rescuer_start expects rescuer_start|node")
                rescuer_starts.append(int(parts[1]))
            else:
                fail(lineno, f"unknown record kind {kind!r}")
        except ValueError as exc:
            fail(lineno, str(exc))

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


def nearest_road_nodes(world: World, points: list[Point]) -> list[int]:
    """For each point, the node minimizing Euclidean distance to it; ties
    break to the lowest id.

    Compares squared distances, so no square root is taken per node. The
    nodes are sorted by x once, and each point sweeps outward from its own
    x on both sides. A side stops at the first node whose squared x offset
    alone exceeds the best distance so far: rounding is monotone, so in
    floating point dx**2 <= dx**2 + dy**2, and neither that node nor any
    farther one can be nearer or tie. Equal offsets are still visited, so
    ties resolve as in a scan of every node.
    """
    if not world.nodes:
        raise InputError("world has no road nodes")
    ranked = sorted(world.nodes.items(), key=lambda item: (item[1].x, item[0]))
    xs = [q.x for _, q in ranked]
    out: list[int] = []
    for p in points:
        px, py = p.x, p.y
        best_id = -1
        best_d = math.inf
        start = bisect.bisect_left(xs, px)
        for side in (range(start, len(ranked)), range(start - 1, -1, -1)):
            for k in side:
                nid, q = ranked[k]
                dx2 = (q.x - px) ** 2
                if dx2 > best_d:
                    break
                d = dx2 + (q.y - py) ** 2
                if d < best_d or (d == best_d and nid < best_id):
                    best_d = d
                    best_id = nid
        out.append(best_id)
    return out


# Padding of the prefilter box beyond the radius. point_segment_distance
# rounds its projection by about 1e-13 m at village coordinates, far below
# this, so every pair the kernel accepts lies inside the padded box.
_BOX_SLACK = 1e-6


def _points_in_boxes(points: list[Point], segments: list[tuple[Point, Point]],
                     radius: float) -> list[list[int]]:
    """For each segment, the indices of the points inside its bounding box
    padded by radius + _BOX_SLACK, in x order: a superset of the points
    within radius of it.

    The points are sorted by x once. Each segment bisects out the points in
    the x range of its padded box and keeps those in its y range.
    """
    order = sorted(range(len(points)), key=lambda i: points[i].x)
    xs = [points[i].x for i in order]
    pad = radius + _BOX_SLACK
    out: list[list[int]] = []
    for pa, pb in segments:
        lo = bisect.bisect_left(xs, min(pa.x, pb.x) - pad)
        hi = bisect.bisect_right(xs, max(pa.x, pb.x) + pad)
        y0 = min(pa.y, pb.y) - pad
        y1 = max(pa.y, pb.y) + pad
        out.append([i for i in order[lo:hi] if y0 <= points[i].y <= y1])
    return out


def points_near_edges(world: World, points: list[Point],
                      radius: float) -> dict[tuple[int, int], tuple[int, ...]]:
    """For every road edge, keyed (lower id, higher id) in world.edges
    order, the ascending indices of the points whose point_segment_distance
    to the edge is <= radius.

    Only the points inside the edge's padded bounding box reach the kernel.
    The kernel makes every decision, so the result equals a test of every
    pair.
    """
    segments = [(world.nodes[a], world.nodes[b]) for a, b, _ in world.edges]
    out: dict[tuple[int, int], tuple[int, ...]] = {}
    for (a, b, _), (pa, pb), boxed in zip(world.edges, segments,
                                          _points_in_boxes(points, segments, radius)):
        out[(min(a, b), max(a, b))] = tuple(sorted(
            i for i in boxed if point_segment_distance(points[i], pa, pb) <= radius))
    return out


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


def point_segment_distance(p: Point, a: Point, b: Point) -> float:
    """Distance from p to the closed segment ab."""
    ax, ay = a.x, a.y
    vx, vy = b.x - ax, b.y - ay
    wx, wy = p.x - ax, p.y - ay
    seg_len2 = vx * vx + vy * vy
    if seg_len2 == 0.0:
        return math.hypot(wx, wy)
    t = (wx * vx + wy * vy) / seg_len2
    if t < 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    return math.hypot(wx - t * vx, wy - t * vy)


class ProximityClass(enum.Enum):
    """Coded distance-to-hazard classes."""

    WITHIN = 1.0
    NEAR = 0.5
    FAR = 0.25


WITHIN_CUTOFF_M = 10.0
NEAR_CUTOFF_M = 50.0


def classify_proximity(d: float) -> ProximityClass:
    """Within <= 10 m < Near <= 50 m < Far."""
    if d < 0 or not math.isfinite(d):
        raise InputError(f"hazard distance must be finite and >= 0, got {d}")
    if d <= WITHIN_CUTOFF_M:
        return ProximityClass.WITHIN
    if d <= NEAR_CUTOFF_M:
        return ProximityClass.NEAR
    return ProximityClass.FAR


def proximity_classes(world: World, points: list[Point]) -> list[ProximityClass]:
    """The proximity class of each point's minimum distance to the world's
    waterway polylines.

    Only the points inside a waterway segment's bounding box padded by
    NEAR_CUTOFF_M reach the kernel for that segment, and a point in no box
    is FAR. That is exact: a segment within NEAR_CUTOFF_M of a point has the
    point inside its box, so a point whose minimum is missed is one farther
    than NEAR_CUTOFF_M from every segment. Raises InputError for any point
    in a world with no waterways.
    """
    if points and not world.waterways:
        raise InputError("world has no waterways; hazard distance is undefined")
    segments = [seg for w in world.waterways for seg in zip(w.points, w.points[1:])]
    best = [math.inf] * len(points)
    for (pa, pb), boxed in zip(segments, _points_in_boxes(points, segments, NEAR_CUTOFF_M)):
        for i in boxed:
            d = point_segment_distance(points[i], pa, pb)
            if d < best[i]:
                best[i] = d
    return [classify_proximity(d) if d <= NEAR_CUTOFF_M else ProximityClass.FAR for d in best]

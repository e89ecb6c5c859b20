"""Spatial world: road graph, buildings, waterways, shelters.

The world is loaded once from a plain-text file (grammar in
docs/formats.md), validated, and then treated as immutable. All distances
are planar meters.
"""

from __future__ import annotations

import enum
import heapq
import math
from dataclasses import dataclass, field

from .errors import InputError

__all__ = [
    "Point",
    "Shelter",
    "Waterway",
    "World",
    "ProximityClass",
    "WorldFormatError",
    "WorldValidationError",
    "load_world",
    "parse_world",
    "validate_world",
    "serialize_world",
    "nearest_road_node",
    "shortest_path_tree",
    "hazard_distance",
    "classify_proximity",
    "point_segment_distance",
]

EDGE_LENGTH_TOL = 1e-6


class WorldFormatError(InputError):
    """Raised on unparseable world files; message carries the line number."""


class WorldValidationError(InputError):
    """Raised when a parsed world violates a structural invariant."""


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
    """Parse the line-oriented world format without validating invariants."""
    nodes: dict[int, Point] = {}
    edges: list[tuple[int, int, float]] = []
    edge_keys: set[tuple[int, int]] = set()
    buildings: dict[int, Point] = {}
    waterways: list[Waterway] = []
    shelters: list[Shelter] = []
    rescuer_starts: list[int] = []

    def fail(lineno: int, why: str) -> None:
        raise WorldFormatError(f"line {lineno}: {why}")

    def points(lineno: int, kind: str, coords: list[str]) -> list[Point]:
        values = [float(v) for v in coords]
        if not all(math.isfinite(v) for v in values):
            fail(lineno, f"{kind} coordinates must be finite")
        return [Point(values[i], values[i + 1]) for i in range(0, len(values), 2)]

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
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
        except WorldFormatError:
            raise
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
    """Check structural invariants; raise WorldValidationError naming the first
    one violated."""
    if not world.nodes:
        raise WorldValidationError("world has no road nodes")
    if not world.edges and len(world.nodes) > 1:
        raise WorldValidationError("world has road nodes but no edges")
    for a, b, length in world.edges:
        if a not in world.nodes or b not in world.nodes:
            raise WorldValidationError(f"edge ({a},{b}) references an unknown node")
        euclid = world.nodes[a].distance_to(world.nodes[b])
        if abs(length - euclid) > EDGE_LENGTH_TOL:
            raise WorldValidationError(
                f"edge ({a},{b}) length {length} deviates from endpoint distance {euclid}"
            )

    seen_shelter_ids: set[int] = set()
    for s in world.shelters:
        if s.id in seen_shelter_ids:
            raise WorldValidationError(f"duplicate shelter id {s.id}")
        seen_shelter_ids.add(s.id)
        if s.node not in world.nodes:
            raise WorldValidationError(f"shelter {s.id} references unknown node {s.node}")
        if s.capacity <= 0:
            raise WorldValidationError(f"shelter {s.id} capacity must be > 0, got {s.capacity}")
    for n in world.rescuer_starts:
        if n not in world.nodes:
            raise WorldValidationError(f"rescuer_start references unknown node {n}")

    # Shelters and rescuer starts must be mutually reachable on the road graph.
    anchors = [s.node for s in world.shelters] + list(world.rescuer_starts)
    if anchors:
        reached = {anchors[0]}
        frontier = [anchors[0]]
        while frontier:
            cur = frontier.pop()
            for nbr, _ in world.adjacency[cur]:
                if nbr not in reached:
                    reached.add(nbr)
                    frontier.append(nbr)
        for s in world.shelters:
            if s.node not in reached:
                raise WorldValidationError(f"shelter {s.id} (node {s.node}) is disconnected from the road network anchors")
        for n in world.rescuer_starts:
            if n not in reached:
                raise WorldValidationError(f"rescuer_start node {n} is disconnected from the road network anchors")

    for w in world.waterways:
        if len(w.points) < 2:
            raise WorldValidationError(f"waterway {w.id} needs at least 2 points")


def load_world(path: str) -> World:
    """Read, parse, and validate a world file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read world file {path}: {exc}") from exc
    world = parse_world(text)
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


def nearest_road_node(world: World, p: Point) -> int:
    """Node minimizing Euclidean distance to p; ties break to the lowest id.

    Compares squared distances, so no square root is taken per node.
    """
    if not world.nodes:
        raise WorldValidationError("world has no road nodes")
    px, py = p.x, p.y
    best_id = -1
    best_d = math.inf
    for nid, q in world.nodes.items():
        d = (q.x - px) ** 2 + (q.y - py) ** 2
        if d < best_d or (d == best_d and nid < best_id):
            best_d = d
            best_id = nid
    return best_id


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


def hazard_distance(world: World, p: Point) -> float:
    """Minimum distance from p to any waterway polyline."""
    if not world.waterways:
        raise WorldValidationError("world has no waterways; hazard distance is undefined")
    best = math.inf
    for w in world.waterways:
        pts = w.points
        for i in range(len(pts) - 1):
            d = point_segment_distance(p, pts[i], pts[i + 1])
            if d < best:
                best = d
    return best


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

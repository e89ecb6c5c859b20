import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from evacsim.errors import InputError
from evacsim.geo import (
    Point,
    ProximityClass,
    World,
    WorldFormatError,
    WorldValidationError,
    classify_proximity,
    hazard_distance,
    load_world,
    nearest_road_node,
    parse_world,
    point_segment_distance,
    serialize_world,
    shortest_path_tree,
    validate_world,
)
from helpers import bellman_ford_distances, random_graph_world

MINIMAL = """
node|0|0.0|0.0
node|1|100.0|0.0
edge|0|1
building|0|50.0|10.0
shelter|0|1|20|0
"""


def test_minimal_world_parses():
    world = parse_world(MINIMAL)
    validate_world(world)
    assert len(world.buildings) == 1
    assert len(world.nodes) == 2
    assert len(world.edges) == 1
    assert world.shelters[0].node == 1


def test_shelter_capacity_zero_rejected():
    world = parse_world(MINIMAL.replace("shelter|0|1|20|0", "shelter|0|1|0|0"))
    with pytest.raises(WorldValidationError, match="capacity"):
        validate_world(world)


def test_disconnected_shelter_rejected():
    text = MINIMAL + "node|2|500.0|500.0\nshelter|1|2|10|0\n"
    world = parse_world(text)
    with pytest.raises(WorldValidationError, match="shelter 1"):
        validate_world(world)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(WorldFormatError, match="line 1"):
        parse_world("frobnicate|1|2")
    with pytest.raises(WorldFormatError, match="line 3"):
        parse_world("node|0|0|0\nnode|1|1|0\nedge|0|7")
    with pytest.raises(WorldFormatError, match="line 2"):
        parse_world("node|0|0|0\nnode|0|1|0")


@pytest.mark.parametrize("record, kind", [
    ("building|1|nan|10.0", "building"),
    ("waterway|0|0.0|5.0|inf|5.0", "waterway"),
])
def test_non_finite_coordinates_rejected_with_line_number(record, kind):
    # A nan waterway vertex would silently drop its segments from
    # hazard_distance; a nan building has no distance to anything.
    with pytest.raises(WorldFormatError, match=f"line 7: {kind} coordinates must be finite"):
        parse_world(MINIMAL + record + "\n")


def test_edge_length_field_checked_against_geometry():
    ok = "node|0|0|0\nnode|1|100|0\nedge|0|1|100.0\n"
    parse_world(ok)
    with pytest.raises(WorldFormatError, match="differs"):
        parse_world("node|0|0|0\nnode|1|100|0\nedge|0|1|99.0\n")


def test_demo_world_shape(demo_world):
    assert len(demo_world.buildings) == 570
    assert len(demo_world.internal_shelters()) == 4
    assert len(demo_world.external_shelters()) >= 1
    assert len(demo_world.rescuer_starts) == 15
    assert len(demo_world.waterways) == 1
    validate_world(demo_world)


def test_world_round_trip(demo_world):
    text = serialize_world(demo_world)
    again = parse_world(text)
    assert again == demo_world
    assert serialize_world(again) == text


def test_load_world_from_file(tmp_path, demo_world):
    path = tmp_path / "w.world"
    path.write_text(serialize_world(demo_world))
    assert load_world(str(path)) == demo_world


def test_nearest_node_coincident():
    world = parse_world(MINIMAL)
    assert nearest_road_node(world, Point(100.0, 0.0)) == 1


def test_nearest_node_tie_breaks_low_id():
    for text in ("node|3|0|0\nnode|7|2|0\n", "node|7|2|0\nnode|3|0|0\n"):
        world = parse_world(text)
        assert nearest_road_node(world, Point(1.0, 0.0)) == 3


def test_nearest_node_matches_linear_scan_oracle():
    world = random_graph_world(seed=9, n_nodes=100)
    rng = random.Random(1)
    for _ in range(50):
        p = Point(rng.uniform(-100, 1100), rng.uniform(-100, 1100))
        oracle = min(((world.nodes[n].distance_to(p), n) for n in world.nodes))[1]
        assert nearest_road_node(world, p) == oracle


def _edge_lengths(world):
    return {(min(a, b), max(a, b)): length for a, b, length in world.edges}


def _path_to_root(parent, node):
    path = [node]
    while parent[path[-1]] != path[-1]:
        path.append(parent[path[-1]])
        assert len(path) <= len(parent)
    return path


def test_shortest_path_identity():
    world = parse_world(MINIMAL)
    dist, parent = shortest_path_tree(world, 0)
    assert dist[0] == 0.0 and parent[0] == 0


def test_shortest_path_triangle():
    text = "node|0|0|0\nnode|1|3|0\nnode|2|3|4\nedge|0|1\nedge|1|2\nedge|0|2\n"
    world = parse_world(text)
    dist, parent = shortest_path_tree(world, 0)
    assert dist[2] == pytest.approx(5.0)
    assert _path_to_root(parent, 2) == [2, 0]


def test_shortest_path_unreachable_returns_none():
    text = "node|0|0|0\nnode|1|10|0\nnode|2|500|500\nedge|0|1\n"
    world = parse_world(text)
    dist, parent = shortest_path_tree(world, 0)
    assert dist.get(2) is None and parent.get(2) is None
    with pytest.raises(InputError):
        shortest_path_tree(world, 9)


def test_shortest_path_matches_bellman_ford_oracle():
    # Every node of each random graph, plus an unreachable pair and an
    # isolated node that the tree must leave out.
    rng = random.Random(7)
    for seed in range(10):
        connected = random_graph_world(seed=seed, n_nodes=50)
        nodes = dict(connected.nodes)
        nodes.update({50: Point(2000.0, 0.0), 51: Point(2000.0, 30.0), 52: Point(3000.0, 0.0)})
        world = World(nodes=nodes, edges=connected.edges + [(50, 51, 30.0)], buildings={},
                      waterways=[], shelters=[], rescuer_starts=[])
        lengths = _edge_lengths(world)
        for root in rng.sample(range(50), 5):
            dist, parent = shortest_path_tree(world, root)
            want = bellman_ford_distances(world, root)
            assert set(dist) == set(parent) == {n for n, d in want.items() if d < math.inf}
            for node, d in dist.items():
                assert d == pytest.approx(want[node], abs=1e-9)
                path = _path_to_root(parent, node)
                assert path[-1] == root
                total = sum(lengths[(min(u, v), max(u, v))] for u, v in zip(path, path[1:]))
                assert total == pytest.approx(d, abs=1e-9)


def test_shortest_path_symmetric_and_valid():
    world = random_graph_world(seed=3, n_nodes=40)
    lengths = _edge_lengths(world)
    trees = {root: shortest_path_tree(world, root) for root in range(40)}
    for a in range(40):
        for b in range(40):
            assert trees[a][0][b] == pytest.approx(trees[b][0][a], abs=1e-9)
            # every hop toward the root is an edge and the lengths add up
            dist, parent = trees[b]
            path = _path_to_root(parent, a)
            assert path[0] == a and path[-1] == b
            total = sum(lengths[(min(u, v), max(u, v))] for u, v in zip(path, path[1:]))
            assert total == pytest.approx(dist[a], abs=1e-9)


def test_shortest_path_tree_tie_breaks_to_low_hop_id():
    # Square with equal sides: 0 reaches 3 through 1 or through 2 at equal
    # length; the heap orders (distance, node id, hop id), so the hop with
    # the lower id wins in both directions.
    text = (
        "node|0|0|0\nnode|1|1|0\nnode|2|0|1\nnode|3|1|1\n"
        "edge|0|1\nedge|0|2\nedge|1|3\nedge|2|3\n"
    )
    world = parse_world(text)
    dist, parent = shortest_path_tree(world, 3)
    assert dist[0] == pytest.approx(2.0)
    assert _path_to_root(parent, 0) == [0, 1, 3]
    dist, parent = shortest_path_tree(world, 0)
    assert dist[3] == pytest.approx(2.0)
    assert _path_to_root(parent, 3) == [3, 1, 0]
    # Kite: from 0, hop 2 is settled first but hop 1 still wins the tie.
    kite = parse_world(
        "node|0|0|0\nnode|1|3|1\nnode|2|1|1\nnode|3|4|0\n"
        "edge|0|1\nedge|0|2\nedge|1|3\nedge|2|3\n"
    )
    dist, parent = shortest_path_tree(kite, 0)
    assert dist[2] < dist[1]
    assert _path_to_root(parent, 3) == [3, 1, 0]


def test_hazard_distance_on_vertex_is_zero(demo_world):
    w = demo_world.waterways[0]
    assert hazard_distance(demo_world, w.points[0]) == 0.0


def test_hazard_distance_perpendicular_offset():
    text = "node|0|0|0\nwaterway|0|0|0|100|0\n"
    world = parse_world(text)
    assert hazard_distance(world, Point(50.0, 5.0)) == pytest.approx(5.0)


def test_hazard_distance_requires_waterway():
    world = parse_world("node|0|0|0\n")
    with pytest.raises(WorldValidationError, match="waterway"):
        hazard_distance(world, Point(0, 0))


def test_hazard_distance_matches_dense_sampling_oracle(demo_world):
    rng = random.Random(11)
    for _ in range(10):
        p = Point(rng.uniform(-100, 1200), rng.uniform(-80, 600))
        fast = hazard_distance(demo_world, p)
        best = math.inf
        for w in demo_world.waterways:
            for a, b in zip(w.points, w.points[1:]):
                seg_len = a.distance_to(b)
                steps = max(1, int(seg_len / 0.01))
                for i in range(steps + 1):
                    t = i / steps
                    q = Point(a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t)
                    best = min(best, p.distance_to(q))
        assert abs(fast - best) <= 0.01


def test_point_segment_distance_degenerate_segment():
    p = Point(3.0, 4.0)
    assert point_segment_distance(p, Point(0, 0), Point(0, 0)) == pytest.approx(5.0)


@pytest.mark.parametrize(
    "d,expected",
    [
        (5.0, ProximityClass.WITHIN),
        (10.0, ProximityClass.WITHIN),
        (30.0, ProximityClass.NEAR),
        (50.0, ProximityClass.NEAR),
        (120.0, ProximityClass.FAR),
    ],
)
def test_classify_proximity(d, expected):
    assert classify_proximity(d) is expected


def test_classify_proximity_rejects_negative():
    with pytest.raises(InputError):
        classify_proximity(-1.0)


@settings(max_examples=200, deadline=None)
@given(
    d1=st.floats(min_value=0, max_value=500),
    d2=st.floats(min_value=0, max_value=500),
)
def test_classify_proximity_monotone(d1, d2):
    lo, hi = sorted((d1, d2))
    assert classify_proximity(lo).value >= classify_proximity(hi).value

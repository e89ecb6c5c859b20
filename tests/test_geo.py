import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evacsim.errors import InputError
from evacsim.geo import (
    _BOX_SLACK,
    Point,
    ProximityClass,
    Waterway,
    World,
    NEAR_CUTOFF_M,
    WITHIN_CUTOFF_M,
    load_world,
    nearest_road_nodes,
    parse_world,
    points_near_edges,
    proximity_classes,
    segment_offsets,
    serialize_world,
    shortest_path_tree,
    validate_world,
    within,
)
from helpers import (
    bellman_ford_distances,
    classify_proximity,
    parse_world_reference,
    point_segment_offset_reference,
    random_graph_world,
    within_reference,
)

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
    with pytest.raises(InputError, match="capacity"):
        validate_world(world)


def test_disconnected_shelter_rejected():
    text = MINIMAL + "node|2|500.0|500.0\nshelter|1|2|10|0\n"
    world = parse_world(text)
    with pytest.raises(InputError, match="shelter 1"):
        validate_world(world)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(InputError, match="line 1"):
        parse_world("frobnicate|1|2")
    with pytest.raises(InputError, match="line 3"):
        parse_world("node|0|0|0\nnode|1|1|0\nedge|0|7")
    with pytest.raises(InputError, match="line 2"):
        parse_world("node|0|0|0\nnode|0|1|0")


@pytest.mark.parametrize("record, kind", [
    ("building|1|nan|10.0", "building"),
    ("waterway|0|0.0|5.0|inf|5.0", "waterway"),
])
def test_non_finite_coordinates_rejected_with_line_number(record, kind):
    # A nan waterway vertex would silently drop its segments from
    # proximity_classes; a nan building has no distance to anything.
    with pytest.raises(InputError,
                       match=f"line 7: {kind} coordinates must be finite and within"):
        parse_world(MINIMAL + record + "\n")


def test_edge_length_field_checked_against_geometry():
    ok = "node|0|0|0\nnode|1|100|0\nedge|0|1|100.0\n"
    parse_world(ok)
    for length in ("99.0", "nan"):
        with pytest.raises(InputError, match="differs"):
            parse_world(f"node|0|0|0\nnode|1|100|0\nedge|0|1|{length}\n")


def _lines_of(lines: list[str], *kinds: str) -> list[int]:
    return [i for i, line in enumerate(lines) if line.split("|")[0] in kinds]


def _mutate_one_line(lines: list[str], data) -> list[str]:
    """The world file's lines with one mutation of the kinds a world
    parser must refuse, or read the same way, drawn from data."""
    lines = list(lines)

    def pick(*kinds: str) -> int:  # a line of a drawn kind, so rare kinds get drawn
        return data.draw(st.sampled_from(_lines_of(lines, data.draw(st.sampled_from(kinds)))))

    how = data.draw(st.sampled_from([
        "drop field", "add field", "coordinate", "repeat id", "edge before node",
        "self-loop", "coincident", "length off", "unknown kind", "crlf", "insert line"]))
    if how in ("drop field", "add field"):
        i = pick("node", "edge", "building", "waterway", "shelter", "rescuer_start")
        parts = lines[i].split("|")
        if how == "drop field":
            del parts[data.draw(st.integers(0, len(parts) - 1))]
        else:
            parts.insert(data.draw(st.integers(1, len(parts))),
                         data.draw(st.sampled_from(["0", "1", "7.5"])))
        lines[i] = "|".join(parts)
    elif how == "coordinate":
        i = pick("node", "building", "waterway")
        parts = lines[i].split("|")
        parts[data.draw(st.integers(2, len(parts) - 1))] = data.draw(
            st.sampled_from(["nan", "NaN", "inf", "-inf", "1e10", "-1e10", "-0.0"]))
        lines[i] = "|".join(parts)
    elif how == "repeat id":
        kind = data.draw(st.sampled_from(["node", "building"]))
        # the id of line src, given to line dst, before or after src
        src, dst = data.draw(st.lists(st.sampled_from(_lines_of(lines, kind)),
                                      min_size=2, max_size=2, unique=True))
        parts = lines[dst].split("|")
        parts[1] = lines[src].split("|")[1]
        lines[dst] = "|".join(parts)
    elif how == "edge before node":
        i = pick("edge")
        lines.insert(data.draw(st.integers(0, max(_lines_of(lines, "node")))), lines.pop(i))
    elif how in ("self-loop", "coincident"):
        i = pick("edge")
        parts = lines[i].split("|")
        if how == "self-loop":
            parts[2] = parts[1]
            lines[i] = "|".join(parts)
        else:
            node_line = {line.split("|")[1]: k for k, line in enumerate(lines)
                         if line.startswith("node|")}
            a, b = node_line[parts[1]], node_line[parts[2]]
            lines[b] = "|".join(lines[b].split("|")[:2] + lines[a].split("|")[2:])
    elif how == "length off":
        i = pick("edge")
        parts = lines[i].split("|")
        parts[3] = repr(float(parts[3]) + data.draw(st.sampled_from([2e-6, -2e-6])))
        lines[i] = "|".join(parts)
    elif how == "unknown kind":
        i = pick("node", "edge", "building", "shelter")
        parts = lines[i].split("|")
        parts[0] = data.draw(st.sampled_from(["volcano", "Node", "nodes", "edge ", ""]))
        lines[i] = "|".join(parts)
    elif how == "crlf":
        i = data.draw(st.integers(0, len(lines) - 1))
        lines[i] += "\r"
    else:  # insert line
        lines.insert(data.draw(st.integers(0, len(lines))),
                     data.draw(st.sampled_from(["", "   ", "\t", "#", "#node|0|1|2",
                                                "  # indented"])))
    return lines


def _parse_outcome(parse, text: str):
    try:
        world = parse(text)
    except InputError as exc:
        return "refused", str(exc)
    return "parsed", world, repr(world), list(world.nodes), list(world.buildings)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_parse_world_matches_the_record_by_record_oracle(demo_world, data):
    # Equal worlds with the same key order and the same -0.0s, or the same
    # InputError text, on the demo world with one line mutated.
    text = "\n".join(_mutate_one_line(serialize_world(demo_world).split("\n")[:-1], data)) + "\n"
    assert _parse_outcome(parse_world, text) == _parse_outcome(parse_world_reference, text)


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
    assert nearest_road_nodes(world, [Point(100.0, 0.0)])[0] == 1


def test_nearest_node_tie_breaks_low_id():
    for text in ("node|3|0|0\nnode|7|2|0\n", "node|7|2|0\nnode|3|0|0\n"):
        world = parse_world(text)
        assert nearest_road_nodes(world, [Point(1.0, 0.0)])[0] == 3


def test_nearest_node_matches_linear_scan_oracle():
    world = random_graph_world(seed=9, n_nodes=100)
    rng = random.Random(1)
    for _ in range(50):
        p = Point(rng.uniform(-100, 1100), rng.uniform(-100, 1100))
        oracle = min(((world.nodes[n].distance_to(p), n) for n in world.nodes))[1]
        assert nearest_road_nodes(world, [p])[0] == oracle


def _linear_scan_nearest(world, p):
    px, py = p.x, p.y
    return min(((q.x - px) * (q.x - px) + (q.y - py) * (q.y - py), nid)
               for nid, q in world.nodes.items())[1]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n_nodes=st.integers(1, 40), n_dups=st.integers(0, 8),
       reverse=st.booleans())
def test_nearest_nodes_batch_matches_linear_scan_with_ties(seed, n_nodes, n_dups, reverse):
    # Duplicated coordinates under other ids, in either dict order, tie
    # exactly; points on nodes, halfway between two nodes and far outside
    # the nodes' hull probe the sweep's stopping rule.
    base = random_graph_world(seed=seed, n_nodes=n_nodes, extra_edges=0)
    rng = random.Random(seed)
    nodes = dict(base.nodes)
    for k in range(n_dups):
        nodes[n_nodes + rng.randrange(50) * 100 + k] = base.nodes[rng.randrange(n_nodes)]
    items = sorted(nodes.items(), reverse=reverse)
    world = World(nodes=dict(items), edges=[], buildings={}, waterways=[], shelters=[],
                  rescuer_starts=[])
    qs = list(nodes.values())
    points = [Point(rng.uniform(-3000, 4000), rng.uniform(-3000, 4000)) for _ in range(30)]
    points += qs
    points += [Point((a.x + b.x) / 2, (a.y + b.y) / 2)
               for a, b in zip(qs, rng.sample(qs, len(qs)))]
    points += [Point(q.x, q.y + 25.0) for q in qs] + [Point(-1e6, 500.0), Point(500.0, 1e6)]
    got = nearest_road_nodes(world, points)
    assert got == [_linear_scan_nearest(world, p) for p in points]


def _all_pairs_candidates(world, points, radius):
    out = {}
    for a, b, _ in world.edges:
        pa, pb = world.nodes[a], world.nodes[b]
        out[(min(a, b), max(a, b))] = tuple(
            i for i, p in enumerate(points)
            if within_reference(*point_segment_offset_reference(p, pa, pb), radius))
    return out


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), radius=st.sampled_from([0.5, 7.25, 50.0, 133.0, 900.0]))
def test_points_near_edges_equals_all_pairs(seed, radius):
    world = random_graph_world(seed=seed, n_nodes=25, extra_edges=15)
    rng = random.Random(seed)
    points = [Point(rng.uniform(-200, 1200), rng.uniform(-200, 1200)) for _ in range(60)]
    pad = radius + _BOX_SLACK
    for a, b, _ in rng.sample(world.edges, 6):
        pa, pb = world.nodes[a], world.nodes[b]
        theta = rng.uniform(0, 2 * math.pi)
        lo_x, hi_x = min(pa.x, pb.x), max(pa.x, pb.x)
        lo_y, hi_y = min(pa.y, pb.y), max(pa.y, pb.y)
        points += [
            # exactly radius from an endpoint, along the axes and at an angle
            Point(pa.x + radius, pa.y), Point(pb.x, pb.y - radius),
            Point(pa.x + radius * math.cos(theta), pa.y + radius * math.sin(theta)),
            # on the unpadded and the padded box edges
            Point(lo_x - radius, pa.y if pa.x == lo_x else pb.y),
            Point(lo_x - pad, (lo_y + hi_y) / 2), Point(hi_x + pad, hi_y),
            Point((lo_x + hi_x) / 2, lo_y - pad), Point(lo_x, hi_y + radius),
        ]
    rng.shuffle(points)
    got = points_near_edges(world, points, radius)
    want = _all_pairs_candidates(world, points, radius)
    assert list(got.items()) == list(want.items())


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


def test_proximity_on_a_waterway_vertex_is_within(demo_world):
    w = demo_world.waterways[0]
    assert proximity_classes(demo_world, [w.points[0]]) == [ProximityClass.WITHIN]


def test_proximity_classes_at_and_past_the_cutoffs():
    # Offsets from the segment (0,0)-(100,0): perpendicular, and past its
    # ends (3-4-5 triangles put (-30, 40) and (130, -40) exactly 50 m away).
    world = parse_world("node|0|0|0\nwaterway|0|0|0|100|0\n")
    points = [Point(50.0, 5.0), Point(50.0, 10.0), Point(50.0, -30.0), Point(50.0, 50.0),
              Point(-30.0, 40.0), Point(130.0, -40.0), Point(150.0, 0.0), Point(50.0, 50.5),
              Point(-40.0, 40.0), Point(2000.0, 0.0)]
    assert proximity_classes(world, points) == [
        ProximityClass.WITHIN, ProximityClass.WITHIN, ProximityClass.NEAR, ProximityClass.NEAR,
        ProximityClass.NEAR, ProximityClass.NEAR, ProximityClass.NEAR, ProximityClass.FAR,
        ProximityClass.FAR, ProximityClass.FAR]


def test_hazard_distance_requires_waterway():
    world = parse_world("node|0|0|0\n")
    with pytest.raises(InputError, match="waterway"):
        proximity_classes(world, [Point(0, 0)])
    assert proximity_classes(world, []) == []


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_proximity_classes_equal_all_segments(seed):
    # The box prefilter against the class of the minimum over every
    # segment, on points spread over the demo-sized area and points placed
    # about the cutoff distances from random waterway vertices.
    rng = random.Random(seed)
    coords = [(rng.uniform(-100, 1100), rng.uniform(-100, 1100)) for _ in range(6)]
    waterways = [Waterway(k, tuple(Point(x + rng.uniform(-300, 300), y + rng.uniform(-300, 300))
                                   for x, y in coords[:rng.randint(2, 6)]))
                 for k in range(rng.randint(1, 3))]
    world = World(nodes={0: Point(0.0, 0.0)}, edges=[], buildings={}, waterways=waterways,
                  shelters=[], rescuer_starts=[])
    points = [Point(rng.uniform(-500, 1500), rng.uniform(-500, 1500)) for _ in range(80)]
    for _ in range(40):
        v = rng.choice(rng.choice(waterways).points)
        d = rng.choice([WITHIN_CUTOFF_M, NEAR_CUTOFF_M, NEAR_CUTOFF_M + _BOX_SLACK / 2]) \
            + rng.choice([0.0, 0.0, rng.uniform(-1, 1)])
        theta = rng.choice([0.0, math.pi / 2, rng.uniform(0, 2 * math.pi)])
        points.append(Point(v.x + d * math.cos(theta), v.y + d * math.sin(theta)))

    def oracle(p):
        offsets = [point_segment_offset_reference(p, a, b)
                   for w in waterways for a, b in zip(w.points, w.points[1:])]
        for cls, cutoff in ((ProximityClass.WITHIN, WITHIN_CUTOFF_M),
                            (ProximityClass.NEAR, NEAR_CUTOFF_M)):
            if any(within_reference(ex, ey, cutoff) for ex, ey in offsets):
                return cls
        return ProximityClass.FAR

    assert proximity_classes(world, points) == [oracle(p) for p in points]


def test_hazard_distance_matches_dense_sampling_oracle(demo_world):
    # The classes of points around the river's vertices against the
    # distance to densely sampled waterway points; a class may differ from
    # the oracle's only within the sampling step of a cutoff.
    rng = random.Random(11)
    river = [p for w in demo_world.waterways for p in w.points]
    points = [Point(v.x + rng.uniform(-70, 70), v.y + rng.uniform(-70, 70))
              for v in rng.sample(river, 10)]
    for p, got in zip(points, proximity_classes(demo_world, points)):
        best = math.inf
        for w in demo_world.waterways:
            for a, b in zip(w.points, w.points[1:]):
                seg_len = a.distance_to(b)
                steps = max(1, int(seg_len / 0.01))
                for i in range(steps + 1):
                    t = i / steps
                    q = Point(a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t)
                    best = min(best, p.distance_to(q))
        if min(abs(best - WITHIN_CUTOFF_M), abs(best - NEAR_CUTOFF_M)) > 0.01:
            assert got is classify_proximity(best)


def test_point_segment_distance_degenerate_segment():
    # A zero-length segment projects to its end, with no division (pytest
    # turns a divide warning into an error).
    ex, ey = segment_offsets(np.array([3.0, -3.0]), np.array([4.0, 0.0]), np.zeros(2),
                             np.zeros(2), np.zeros(2), np.zeros(2))
    assert ex.tolist() == [3.0, -3.0] and ey.tolist() == [4.0, 0.0]
    assert within(ex, ey, 5.0).tolist() == [True, True]
    assert within(ex, ey, 4.0).tolist() == [False, True]
    assert point_segment_offset_reference(Point(3.0, 4.0), Point(0, 0), Point(0, 0)) == (3.0, 4.0)


def test_a_repeated_waterway_vertex_is_a_point():
    # The first waterway's only segment has zero length; the second repeats
    # its middle vertex.
    world = parse_world("node|0|0|0\nwaterway|0|0|0|0|0\n"
                        "waterway|1|1000|0|1000|100|1000|100|1000|200\n")
    points = [Point(3.0, -4.0), Point(0.0, 30.0), Point(-60.0, 0.0),
              Point(1008.0, 100.0), Point(960.0, 100.0), Point(1100.0, 100.0)]
    assert proximity_classes(world, points) == [
        ProximityClass.WITHIN, ProximityClass.NEAR, ProximityClass.FAR,
        ProximityClass.WITHIN, ProximityClass.NEAR, ProximityClass.FAR]


def test_nearest_node_decides_by_the_squares_of_the_linear_scan():
    # Pairs of nodes whose squared distances from the point, by x * x,
    # order one way while the same sums by (q - p) ** 2 tie (the first pair)
    # or order the other (the second): the numpy squares and the scan's
    # must be the one expression, x * x. Found by a seeded search of points
    # in [0, 1000]^2 with the second node rotated about the point to the
    # first's distance.
    cases = [
        ((929.6143460489528, 88.90347355212892),
         {1: (462.06724672512166, 657.2177491456666), 0: (766.1268745398168, -628.6292801177543)},
         1),
        ((357.8572623246057, 278.8538934783834),
         {5: (139.6942189678011, 286.54283056516107), 2: (545.0379433543575, 166.5256873613722)},
         2),
    ]
    for (px, py), coords, want in cases:
        power = {nid: (x - px) ** 2 + (y - py) ** 2 for nid, (x, y) in coords.items()}
        times = {nid: (x - px) * (x - px) + (y - py) * (y - py) for nid, (x, y) in coords.items()}
        assert min(times, key=lambda nid: (times[nid], nid)) == want
        assert min(power, key=lambda nid: (power[nid], nid)) != want
        world = World(nodes={nid: Point(*xy) for nid, xy in coords.items()}, edges=[],
                      buildings={}, waterways=[], shelters=[], rescuer_starts=[])
        assert nearest_road_nodes(world, [Point(px, py)]) == [want]
        assert _linear_scan_nearest(world, Point(px, py)) == want


def test_nearest_nodes_hold_a_bounded_block_of_distances():
    # 5,000 points by 1,000 nodes: the whole matrix of squared distances
    # would take 40 MB.
    rng = random.Random(5)
    nodes = {i: Point(rng.uniform(0, 2000), rng.uniform(0, 2000)) for i in range(1000)}
    world = World(nodes=nodes, edges=[], buildings={}, waterways=[], shelters=[],
                  rescuer_starts=[])
    points = [Point(rng.uniform(-100, 2100), rng.uniform(-100, 2100)) for _ in range(5000)]
    tracemalloc.start()
    try:
        got = nearest_road_nodes(world, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    for k in range(0, 5000, 97):
        assert got[k] == _linear_scan_nearest(world, points[k])


@pytest.mark.parametrize(
    "d,expected",
    [
        (5.0, ProximityClass.WITHIN),
        (10.0, ProximityClass.WITHIN),
        (math.nextafter(10.0, math.inf), ProximityClass.NEAR),
        (30.0, ProximityClass.NEAR),
        (50.0, ProximityClass.NEAR),
        (math.nextafter(50.0, math.inf), ProximityClass.FAR),
        (120.0, ProximityClass.FAR),
    ],
)
def test_classify_proximity(d, expected):
    # A point exactly d from a straight waterway, both cutoffs inclusive.
    world = World(nodes={0: Point(0.0, 0.0)}, edges=[], buildings={},
                  waterways=[Waterway(0, (Point(-200.0, 0.0), Point(200.0, 0.0)))],
                  shelters=[], rescuer_starts=[])
    assert proximity_classes(world, [Point(0.0, d)]) == [expected] == [classify_proximity(d)]

"""The engine's event-driven walks against tick-by-tick walkers.

`WorldIndex.arrival_offset` computes a household's walk once per (house
node, shelter chain) and continues a longer chain from its prefix's state;
`helpers.walk_arrivals` walks the whole chain one tick at a time. The walk
reads each leg's length and farness from the index's leg table, which
`helpers.point_segment_offset_reference` and `helpers.within_reference`
check pair by pair.

`WorldIndex.inform_timeline` walks the rescuers event by event, visiting a
rescuer only when it reaches a node or can still inform someone, and
writes each household's source code and inform tick as it informs;
`helpers.walk_rescuers_reference` moves every rescuer every tick, lists
its informs and derives every column of the timeline from that list
afterwards. Timelines are compared by repr, so that the NaN source code
of a household never informed equals itself.
"""

import math
import random
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evacsim.engine import NEVER, EngineParams, WorldIndex
from evacsim.geo import Point, Shelter, Waterway, World, points_near_edges
from evacsim.population import HouseholdProfile
from evacsim.risk import WarningSource
from helpers import (
    grid_world,
    line_world,
    point_segment_offset_reference,
    population_of,
    random_graph_world,
    walk_arrivals,
    informs_of,
    walk_rescuers_reference,
    within_reference,
)


def matches_reference(world: World, index: WorldIndex, seed: int) -> bool:
    """Whether the inform timeline of `seed` on an index built on `world` is
    the tick-by-tick walker's, compared by repr: a NaN source code equals
    itself there."""
    return repr(index.inform_timeline(seed)) == repr(walk_rescuers_reference(world, index, seed))


def with_shelters(world: World, nodes: list[int]) -> World:
    """world with internal shelters 0, 1, ... at the given road nodes."""
    return replace(world, shelters=[Shelter(i, node, 100, False) for i, node in enumerate(nodes)])


def walk_index(world: World, **overrides) -> WorldIndex:
    return WorldIndex(world, population_of([]), EngineParams(nb_rescuers=0, **overrides))


@st.composite
def walks(draw):
    """A world with three shelters, a house node, a chain of one to three of
    those shelters and the walk's parameters."""
    if draw(st.booleans()):
        world = line_world(n_nodes=draw(st.integers(2, 8)),
                           spacing=draw(st.sampled_from([10.0, 50.0, 100.0, 137.5])))
    else:
        world = random_graph_world(draw(st.integers(0, 10**6)), n_nodes=draw(st.integers(2, 30)),
                                   extra_edges=draw(st.integers(0, 20)))
    nodes = sorted(world.nodes)
    shelters = draw(st.lists(st.sampled_from(nodes), min_size=3, max_size=3))
    chain = tuple(draw(st.permutations(range(3)))[:draw(st.integers(1, 3))])
    house = draw(st.sampled_from(nodes))
    walk = dict(household_speed=draw(st.floats(0.5, 20.0)),
                tick_seconds=draw(st.sampled_from([1.0, 5.0, 10.0, 30.0])),
                shelter_radius=draw(st.floats(0.5, 300.0)))
    return with_shelters(world, shelters), house, chain, walk


@settings(max_examples=150, deadline=None)
@given(walks())
def test_arrival_offsets_match_the_tick_by_tick_walker(case):
    world, house, chain, walk = case
    index = walk_index(world, **walk)
    offsets = walk_arrivals(world, index, house, chain)
    assert all(a < b for a, b in zip(offsets, offsets[1:]))
    # A walk that has not arrived by offset max_ticks never arrives.
    expected = [o if o <= index.params.max_ticks else NEVER for o in offsets]
    # The longest chain first, so its prefixes are walked from inside.
    got = [index.arrival_offset(house, chain[:k]) for k in range(len(chain), 0, -1)]
    assert got[::-1] == expected


def test_house_node_at_the_shelter_arrives_in_its_decision_tick():
    world = with_shelters(line_world(), [3])
    index = walk_index(world)
    assert index.arrival_offset(3, (0,)) == 0 == walk_arrivals(world, index, 3, (0,))[0]


def test_radius_covering_the_whole_route_arrives_in_its_decision_tick():
    world = with_shelters(line_world(n_nodes=4), [3])
    index = walk_index(world, shelter_radius=400.0)
    assert index.arrival_offset(0, (0,)) == 0 == walk_arrivals(world, index, 0, (0,))[0]


def test_tick_budget_ending_exactly_on_a_node():
    # 50 m a tick on 100 m legs: every second tick ends on a node, and with a
    # 1 m radius only the shelter's node is in reach.
    world = with_shelters(line_world(n_nodes=4), [2])
    index = walk_index(world, household_speed=5.0, tick_seconds=10.0, shelter_radius=1.0)
    assert index.arrival_offset(0, (0,)) == 3 == walk_arrivals(world, index, 0, (0,))[0]


def test_redirect_starting_mid_leg():
    # 40 m a tick from x=0 with a 50 m radius: shelter 0 (x=200) is reached
    # at x=160 on tick 3, 60 m into the leg from node 1. Redirected, the walk
    # finishes that leg before heading on to shelter 1 (x=400, reached at
    # x=360 on tick 8) and then back to shelter 2 (x=0, reached at x=40 on
    # tick 18).
    world = with_shelters(line_world(n_nodes=5), [2, 4, 0])
    index = walk_index(world, household_speed=4.0, tick_seconds=10.0, shelter_radius=50.0)
    assert [index.arrival_offset(0, (0, 1, 2)[:k]) for k in (1, 2, 3)] == [3, 8, 18]
    assert walk_arrivals(world, index, 0, (0, 1, 2)) == [3, 8, 18]
    # Straight back from shelter 0 instead: x=200 on tick 4, x=40 on tick 8.
    assert index.arrival_offset(0, (0, 2)) == 8 == walk_arrivals(world, index, 0, (0, 2))[1]


@pytest.mark.parametrize("radius, offset", [(30.0, 9), (30.0 - 1e-9, 27)])
def test_a_leg_grazing_the_radius_ends_a_tick_in_range(radius, offset):
    # The route to the shelter at (100, 30) runs along y = 0 to (200, 0)
    # and back up; 10 m a tick ends on (100, 0), exactly 30 m from it, on
    # tick 9. With a radius just short of that the first leg is out of
    # range, and the walk arrives 24.4 m short of the shelter on tick 27.
    world = World(nodes={0: Point(0.0, 0.0), 1: Point(200.0, 0.0), 2: Point(100.0, 30.0)},
                  edges=[(0, 1, 200.0), (1, 2, math.hypot(100.0, 30.0))], buildings={},
                  waterways=[], shelters=[Shelter(0, 2, 100, False)], rescuer_starts=[])
    index = walk_index(world, household_speed=1.0, tick_seconds=10.0, shelter_radius=radius)
    assert index.arrival_offset(0, (0,)) == offset == walk_arrivals(world, index, 0, (0,))[0]


@pytest.mark.parametrize("max_ticks, offsets", [
    (18, [3, 8, 18]),
    (17, [3, 8, NEVER]),
    (7, [3, NEVER, NEVER]),
    (2, [NEVER, NEVER, NEVER]),
])
def test_a_walk_past_max_ticks_never_arrives(max_ticks, offsets):
    # The walk of test_redirect_starting_mid_leg, cut at max_ticks: a chain
    # that continues a walk that never arrives never arrives either.
    index = walk_index(with_shelters(line_world(n_nodes=5), [2, 4, 0]), household_speed=4.0,
                       tick_seconds=10.0, shelter_radius=50.0, max_ticks=max_ticks)
    assert [index.arrival_offset(0, (0, 1, 2)[:k]) for k in (1, 2, 3)] == offsets


def test_a_slow_household_looks_no_further_ahead_than_max_ticks():
    # 1e-8 m a tick comes within 50 m of a shelter 300 m away after 2.5e10
    # ticks; the walk stops at max_ticks.
    index = walk_index(with_shelters(line_world(), [3]), household_speed=1e-9)
    start = time.process_time()
    assert index.arrival_offset(0, (0,)) == NEVER
    assert time.process_time() - start < 0.5


def assert_leg_table_is_sound(world: World, index: WorldIndex) -> None:
    """Of an index built on `world`: each directed leg's length is the
    walk's math.hypot, and no leg is far from a shelter whose reference
    offset is within shelter_radius plus the walk's slack."""
    nodes = world.nodes
    radius = index.params.shelter_radius
    assert len(index.legs) == 2 * len(world.edges)
    for (a_id, b_id), (length, near) in index.legs.items():
        a, b = nodes[a_id], nodes[b_id]
        assert length == math.hypot(b.x - a.x, b.y - a.y)
        for shelter in world.shelters:
            s = nodes[shelter.node]
            slack = 1e-9 * (abs(a.x) + abs(a.y) + abs(b.x) + abs(b.y) + abs(s.x) + abs(s.y))
            if within_reference(*point_segment_offset_reference(s, a, b), radius + slack):
                assert shelter.id in near, ((a_id, b_id), shelter.id)


# The smallest radius EngineParams accepts: its square is the smallest
# normal float.
SMALLEST_RADIUS = math.sqrt(sys.float_info.min)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), n_nodes=st.integers(2, 30),
       radius=st.one_of(st.floats(0.5, 300.0), st.sampled_from([SMALLEST_RADIUS, 1e300])))
def test_the_leg_table_is_never_far_within_reach(seed, n_nodes, radius):
    world = random_graph_world(seed, n_nodes=n_nodes, extra_edges=10)
    shelters = random.Random(seed).sample(sorted(world.nodes), min(3, n_nodes))
    world = with_shelters(world, shelters)
    assert_leg_table_is_sound(world, walk_index(world, shelter_radius=radius))


def test_the_leg_table_keeps_a_leg_whose_distance_is_exactly_in_reach():
    # The shelter lies just past the end (0, 0) of the leg to (-100, 0), at
    # an offset whose math.hypot is exactly 10.0 and whose np.hypot is one
    # ulp above; the radius puts 10.0 exactly at radius + slack.
    shelter = Point(9.691840329203234, 2.463377972059862)
    assert math.hypot(shelter.x, shelter.y) == 10.0 < np.hypot(shelter.x, shelter.y)
    world = World(nodes={0: Point(0.0, 0.0), 1: Point(-100.0, 0.0), 2: shelter},
                  edges=[(0, 1, 100.0), (0, 2, 10.0)], buildings={}, waterways=[],
                  shelters=[Shelter(0, 2, 100, False)], rescuer_starts=[])
    slack = 1e-9 * (100.0 + shelter.x + shelter.y)
    radius = 10.0 - slack
    while radius + slack < 10.0:
        radius = math.nextafter(radius, math.inf)
    while radius + slack > 10.0:
        radius = math.nextafter(radius, -math.inf)
    assert radius + slack == 10.0
    index = walk_index(world, shelter_radius=radius)
    assert 0 in index.legs[(0, 1)][1]
    assert_leg_table_is_sound(world, index)


def household(i: int) -> HouseholdProfile:
    """Household i, living in building i; the walk reads nothing else."""
    codes = dict.fromkeys(
        ("head_gender", "educ_level", "income_level", "house_ownership", "has_children",
         "has_elderly", "with_disability", "years_of_residency", "house_quality",
         "floor_levels", "typhoon_experience"), 1.0)
    return HouseholdProfile(id=i, **codes, members=1, building_id=i)


def inform_index(world: World, houses: list[Point], **overrides) -> tuple[World, WorldIndex]:
    """world with household i living in house i, and an index built on it."""
    world = replace(world, buildings=dict(enumerate(houses)),
                    waterways=[Waterway(0, (Point(-5000.0, -5000.0), Point(-4000.0, -5000.0)))])
    return world, WorldIndex(world, population_of([household(i) for i in range(len(houses))]),
                             EngineParams(**overrides))


def shifted(world: World, by: int) -> World:
    """world with every node id moved by `by`."""
    return replace(world, nodes={node + by: p for node, p in world.nodes.items()},
                   edges=[(a + by, b + by, length) for a, b, length in world.edges],
                   shelters=[replace(s, node=s.node + by) for s in world.shelters],
                   rescuer_starts=[node + by for node in world.rescuer_starts])


@st.composite
def rescuer_walks(draw):
    """A world (a line, a lattice or a random graph, its node ids from 0,
    or from -1 or -2), houses around its roads, rescuer starts (one of them
    on a node no road reaches, sometimes) and the walk's parameters.

    On a lattice every budget is a multiple of a quarter edge, so rescuers
    often stand on nodes of three or four edges, whose edge lists overlap."""
    tick_seconds = draw(st.sampled_from([1.0, 2.0, 4.0]))
    family = draw(st.sampled_from(["line", "lattice", "random"]))
    if family == "line":
        spacing = draw(st.sampled_from([10.0, 50.0, 100.0, 137.5]))
        world = line_world(n_nodes=draw(st.integers(2, 8)), spacing=spacing)
        # Multiples of a quarter edge end exactly on a node.
        budget = spacing * draw(st.one_of(st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.0]),
                                          st.floats(0.01, 6.0)))
    elif family == "lattice":
        spacing = draw(st.sampled_from([10.0, 50.0, 100.0, 137.5]))
        world = grid_world(draw(st.integers(2, 6)), draw(st.integers(2, 6)), spacing)
        budget = spacing * draw(st.integers(1, 12)) / 4
    else:
        world = random_graph_world(draw(st.integers(0, 10**6)), n_nodes=draw(st.integers(2, 30)),
                                   extra_edges=draw(st.integers(0, 20)))
        budget = draw(st.floats(1.0, 600.0))
    world = shifted(world, draw(st.sampled_from([0, -1, -2])))
    nodes = sorted(world.nodes)
    starts = draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=4))
    if draw(st.booleans()):
        world = replace(world, nodes={**world.nodes, -7: Point(-300.0, -300.0)})
        starts.append(-7)
    houses = []
    for node in draw(st.lists(st.sampled_from(nodes), max_size=40)):
        p = world.nodes[node]
        houses.append(Point(p.x + draw(st.floats(-150.0, 150.0)),
                            p.y + draw(st.floats(-150.0, 150.0))))
    max_ticks = draw(st.one_of(st.integers(1, 12), st.integers(1, 300)))
    fallback_min = draw(st.integers(1, max_ticks))
    params = dict(
        nb_rescuers=draw(st.integers(0, 20)),
        rescuer_radius=draw(st.floats(1.0, 200.0)),
        rescuer_speed=budget / tick_seconds,
        tick_seconds=tick_seconds,
        max_ticks=max_ticks,
        fallback_tick_min=fallback_min,
        fallback_tick_max=fallback_min + draw(st.integers(0, 30)),
    )
    return replace(world, rescuer_starts=starts), houses, params, draw(st.integers(0, 2**32))


@settings(max_examples=300, deadline=None)
@given(rescuer_walks())
def test_inform_timeline_matches_the_tick_by_tick_walker(case):
    world, houses, params, seed = case
    world, index = inform_index(world, houses, **params)
    assert matches_reference(world, index, seed)


def test_a_road_node_with_id_minus_one_is_a_node_like_any_other():
    # On the line -1 - 0 - 1 a rescuer starting at 0 may head for -1 or for
    # 1, and one arriving at 0 from -1 goes on to 1.
    world = World(nodes={-1: Point(-100.0, 0.0), 0: Point(0.0, 0.0), 1: Point(100.0, 0.0)},
                  edges=[(-1, 0, 100.0), (0, 1, 100.0)], buildings={}, waterways=[],
                  shelters=[], rescuer_starts=[0])
    world, index = inform_index(world, [Point(-100.0, 10.0), Point(100.0, 10.0)],
                                nb_rescuers=1, rescuer_speed=5.0, rescuer_radius=15.0)
    rows = index.move_rows
    assert [nb for nb, *_ in rows[index.start_row[0]][0]] == [-1, 1]
    ((to, _, _, row),) = rows[index.start_row[-1]][0]
    assert to == 0 and [nb for nb, *_ in rows[row][0]] == [1]
    first_informed = set()
    for seed in range(20):
        timeline = index.inform_timeline(seed)
        assert matches_reference(world, index, seed)
        first_informed.add(timeline.inform_order[0])
    assert first_informed == {0, 1}


@st.composite
def walks_into_the_fallback_window(draw):
    """A walk of `rescuer_walks` plus houses beyond every rescuer's reach,
    which only the fallback channel informs, with a window of one to five
    ticks that opens by max_ticks."""
    world, houses, params, seed = draw(rescuer_walks())
    far = [Point(20_000.0 + 10.0 * i, 20_000.0) for i in range(draw(st.integers(8, 16)))]
    tick_min = draw(st.integers(1, params["max_ticks"]))
    params = dict(params, fallback_tick_min=tick_min,
                  fallback_tick_max=tick_min + draw(st.integers(0, 4)))
    return world, houses + far, params, seed


@settings(max_examples=100, deadline=None)
@given(walks_into_the_fallback_window())
def test_a_walk_into_the_fallback_window_matches_the_tick_by_tick_walker(case):
    # The fallback schedule is built when the window opens, from the
    # households still unaware then. Walk from the drawn seed up to the
    # first one whose channel informs on the window's first tick.
    world, houses, params, seed = case
    world, index = inform_index(world, houses, **params)
    opens = params["fallback_tick_min"]
    for seed in range(seed, seed + 100):
        timeline = index.inform_timeline(seed)
        opening = informs_of(timeline).get(opens, ())
        if any(by is not WarningSource.AUTHORITIES for _, by in opening):
            break
    else:
        pytest.fail(f"no walk informed by the fallback channel on tick {opens}")
    assert matches_reference(world, index, seed)


def draw_widths_index(tick_min: int, tick_max: int,
                      starts: list[int]) -> tuple[World, WorldIndex]:
    """Rescuers on a small random graph, houses around it, a fallback window
    [tick_min, tick_max] and the given rescuer starts."""
    world = replace(random_graph_world(7, n_nodes=12, extra_edges=8), rescuer_starts=starts)
    houses = [Point(p.x + 40.0, p.y - 25.0) for p in world.nodes.values()]
    return inform_index(world, houses, nb_rescuers=6, rescuer_radius=60.0,
                        fallback_tick_min=tick_min, fallback_tick_max=tick_max, max_ticks=400)


# The engine draws its integers through getrandbits, the reference through
# randint and randrange. Those still draw for a range one wide (one
# getrandbits(1) or more), and a range 2^k wide takes k + 1 bits, as does
# one 2^k + 1 wide. A skipped one-wide fallback tick draw shifts every later
# draw of the init stream; the rescuer placements are its last draws, so
# with one start only their bit length and bound can show.
@pytest.mark.parametrize("tick_min, tick_max, starts", [
    (150, 150, [0, 3, 5]),  # one fallback tick
    (100, 300, [4]),  # one rescuer start
    (100, 100 + 2**5 - 1, [0, 3, 5, 8]),  # 2^5 ticks; 4 = 2^2 starts
    (100, 100 + 2**5, [0, 3, 5, 8, 9]),  # 2^5 + 1 ticks; 2^2 + 1 starts
    (100, 100 + 2**8 - 1, [0, 3]),
    (100, 100 + 2**8, [0, 3, 5]),
])
@pytest.mark.parametrize("seed", [0, 1, 2**40 + 3])
def test_one_wide_and_power_of_two_draws_match_randrange(tick_min, tick_max, starts, seed):
    world, index = draw_widths_index(tick_min, tick_max, starts)
    timeline = index.inform_timeline(seed)
    assert matches_reference(world, index, seed)
    assert set(timeline.fallback_tick) <= set(range(tick_min, tick_max + 1))
    assert set(timeline.placed) <= set(starts)


def test_budgets_ending_on_nodes_inform_from_the_node():
    # 150 m a tick on 100 m edges from node 0: every second tick ends
    # exactly on a node (3, 4, 1, 2, 5, ...), where the rescuer stands and
    # informs the house 30 m off it, and draws its next edge a tick later.
    # Passing a node inside a tick informs nobody, so house 0 waits for
    # tick 20, on which the rescuer reaches it before the fallback channel
    # fires.
    world = replace(line_world(n_nodes=6), rescuer_starts=[0])
    houses = [Point(x * 100.0, 30.0) for x in range(6)]
    world, index = inform_index(world, houses, nb_rescuers=1, rescuer_speed=15.0,
                                rescuer_radius=31.0, fallback_tick_min=20, fallback_tick_max=20,
                                max_ticks=60)
    timeline = index.inform_timeline(0)
    assert informs_of(timeline) == {t: ((hid, WarningSource.AUTHORITIES),) for t, hid in
                                ((2, 3), (4, 4), (6, 1), (8, 2), (10, 5), (20, 0))}
    assert matches_reference(world, index, 0)


def test_a_rescuer_reaching_a_node_on_the_last_tick_informs_from_it():
    # 50 m a tick ends exactly on node 1 on tick 2, the walk's last.
    _, index = inform_index(replace(line_world(), rescuer_starts=[0]), [Point(100.0, 30.0)],
                            nb_rescuers=1, rescuer_speed=5.0, rescuer_radius=31.0, max_ticks=2)
    assert informs_of(index.inform_timeline(0)) == {2: ((0, WarningSource.AUTHORITIES),)}


def test_a_rescuer_informs_a_house_exactly_rescuer_radius_away():
    # 50 m a tick ends exactly on node 1 on tick 2, the walk's last. House
    # 0 is a 30-40-50 triangle off the node, exactly rescuer_radius away;
    # house 1 is one ulp farther and stays unaware.
    houses = [Point(130.0, 40.0), Point(130.0, math.nextafter(40.0, math.inf))]
    world, index = inform_index(replace(line_world(), rescuer_starts=[0]), houses,
                                nb_rescuers=1, rescuer_speed=5.0, rescuer_radius=50.0,
                                max_ticks=2)
    timeline = index.inform_timeline(0)
    assert informs_of(timeline) == {2: ((0, WarningSource.AUTHORITIES),)}
    assert timeline.inform_tick == (2, 0)
    assert timeline.source[0] == WarningSource.AUTHORITIES.value and math.isnan(timeline.source[1])
    assert matches_reference(world, index, 0)


@pytest.mark.parametrize("p, n, house, speed", [
    # The first tick's move is the edge's length: it ends exactly on n,
    # 31 m from the house.
    (Point(-5.436238797932923, 2.536571701313285), Point(91.46709943890697, 2.536571701313285),
     Point(110.7681612910153, -21.721808528642054), None),
    # The first tick ends mid-edge, at a computed position 31 m from the
    # house.
    (Point(-35.233447033367526, -69.83016521509961),
     Point(230.18689460797074, -85.51274266649145),
     Point(95.06892048057678, -46.47512149261108), 128.69796053946763),
], ids=["standing on a node", "on an edge"])
def test_a_rescuer_informs_a_house_its_edge_offset_rounds_out_of_range(p, n, house, speed):
    # One rescuer walks the road from p to n, 1 s a tick, with the fallback
    # channel firing on tick 50. The offset of the house from the segment
    # rounds past 31 m, so a list of the houses exactly within 31 m of the
    # edge misses it.
    world = World(nodes={0: p, 1: n}, edges=[(0, 1, p.distance_to(n))], buildings={},
                  waterways=[], shelters=[Shelter(0, 1, 100, False)], rescuer_starts=[0])
    assert points_near_edges(world, [house], 31.0) == {(0, 1): ()}
    world, index = inform_index(world, [house], nb_rescuers=1, tick_seconds=1.0,
                                rescuer_speed=p.distance_to(n) if speed is None else speed,
                                rescuer_radius=31.0, fallback_tick_min=50, fallback_tick_max=50,
                                max_ticks=60)
    timeline = index.inform_timeline(0)
    assert informs_of(timeline) == {1: ((0, WarningSource.AUTHORITIES),)}
    assert matches_reference(world, index, 0)


def test_a_rescuer_on_a_node_no_road_reaches_informs_nobody():
    # Node 9 has no road. The rescuer placed there never moves and perceives
    # nobody, not even the house 1 m off it, which waits for the fallback
    # channel on tick 5.
    world = line_world(n_nodes=2)
    world = replace(world, nodes={**world.nodes, 9: Point(0.0, 500.0)}, rescuer_starts=[9])
    world, index = inform_index(world, [Point(1.0, 500.0)], nb_rescuers=1,
                                rescuer_radius=10.0, fallback_tick_min=5, fallback_tick_max=5,
                                max_ticks=10)
    timeline = index.inform_timeline(0)
    assert timeline.inform_tick == (5,)
    assert timeline.source[0] != WarningSource.AUTHORITIES.value
    assert matches_reference(world, index, 0)


def test_a_slow_rescuer_looks_no_further_ahead_than_max_ticks():
    # 1e-8 m a tick on a 100 m edge reaches its far node after 1e10 ticks;
    # the walk stops at max_ticks, with the house 400 m off the road never
    # informed, and must not compute the arrival past it.
    world = line_world(n_nodes=2)
    world, index = inform_index(world, [Point(50.0, 400.0)], nb_rescuers=2,
                                rescuer_speed=1e-9, fallback_tick_min=6000,
                                fallback_tick_max=6000)
    start = time.process_time()
    timeline = index.inform_timeline(3)
    assert time.process_time() - start < 0.5
    assert timeline.inform_order == () and timeline.inform_tick == (0,)
    assert matches_reference(world, index, 3)

"""The world index's walk cache against the tick-by-tick walker.

`WorldIndex.arrival_offset` computes a household's walk once per (house
node, shelter chain) and continues a longer chain from its prefix's state;
`helpers.walk_arrivals` walks the whole chain one tick at a time.
"""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from evacsim.engine import EngineParams, WorldIndex
from evacsim.geo import Shelter, World
from helpers import line_world, random_graph_world, walk_arrivals


def with_shelters(world: World, nodes: list[int]) -> World:
    """world with internal shelters 0, 1, ... at the given road nodes."""
    return replace(world, shelters=[Shelter(i, node, 100, False) for i, node in enumerate(nodes)])


def walk_index(world: World, **overrides) -> WorldIndex:
    return WorldIndex(world, [], EngineParams(nb_rescuers=0, **overrides))


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
    expected = walk_arrivals(index, house, chain)
    # The longest chain first, so its prefixes are walked from inside.
    got = [index.arrival_offset(house, chain[:k]) for k in range(len(chain), 0, -1)]
    assert got[::-1] == expected
    assert all(a < b for a, b in zip(expected, expected[1:]))


def test_house_node_at_the_shelter_arrives_in_its_decision_tick():
    index = walk_index(with_shelters(line_world(), [3]))
    assert index.arrival_offset(3, (0,)) == 0 == walk_arrivals(index, 3, (0,))[0]


def test_radius_covering_the_whole_route_arrives_in_its_decision_tick():
    index = walk_index(with_shelters(line_world(n_nodes=4), [3]), shelter_radius=400.0)
    assert index.arrival_offset(0, (0,)) == 0 == walk_arrivals(index, 0, (0,))[0]


def test_tick_budget_ending_exactly_on_a_node():
    # 50 m a tick on 100 m legs: every second tick ends on a node, and with a
    # 1 m radius only the shelter's node is in reach.
    index = walk_index(with_shelters(line_world(n_nodes=4), [2]), household_speed=5.0,
                       tick_seconds=10.0, shelter_radius=1.0)
    assert index.arrival_offset(0, (0,)) == 3 == walk_arrivals(index, 0, (0,))[0]


def test_redirect_starting_mid_leg():
    # 40 m a tick from x=0 with a 50 m radius: shelter 0 (x=200) is reached
    # at x=160 on tick 3, 60 m into the leg from node 1. Redirected, the walk
    # finishes that leg before heading on to shelter 1 (x=400, reached at
    # x=360 on tick 8) and then back to shelter 2 (x=0, reached at x=40 on
    # tick 18).
    index = walk_index(with_shelters(line_world(n_nodes=5), [2, 4, 0]), household_speed=4.0,
                       tick_seconds=10.0, shelter_radius=50.0)
    assert [index.arrival_offset(0, (0, 1, 2)[:k]) for k in (1, 2, 3)] == [3, 8, 18]
    assert walk_arrivals(index, 0, (0, 1, 2)) == [3, 8, 18]
    # Straight back from shelter 0 instead: x=200 on tick 4, x=40 on tick 8.
    assert index.arrival_offset(0, (0, 2)) == 8 == walk_arrivals(index, 0, (0, 2))[1]

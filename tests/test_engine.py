import copy
import hashlib
import math
from collections import Counter
from dataclasses import fields, replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from evacsim import engine
from evacsim.engine import (
    EngineParams,
    RunConfig,
    WorldIndex,
    event_log_csv,
    init_run,
    run,
    step,
)
from evacsim.errors import InputError, InternalError
from evacsim.geo import Point, ProximityClass, Shelter, World, points_near_segments
from evacsim.population import CODED_FIELDS, HouseholdProfile
from evacsim.risk import Scenario, WarningSource, Weights
from helpers import (
    events_of,
    informs_of,
    line_world,
    pick_shelter_reference,
    population_of,
    run_with_final_state,
)


def profile(i: int, building: int, members: int = 4, **overrides) -> HouseholdProfile:
    base = dict(
        id=i, head_gender=1.0, educ_level=1.0, income_level=1.0, house_ownership=1.0,
        has_children=1.0, has_elderly=1.0, with_disability=1.0, years_of_residency=1.0,
        house_quality=1.0, floor_levels=1.0, typhoon_experience=1.0,
        members=members, building_id=building,
    )
    base.update(overrides)
    return HouseholdProfile(**base)


def params(**overrides) -> EngineParams:
    base = dict(nb_rescuers=1, fallback_tick_min=5, fallback_tick_max=20, max_ticks=600)
    base.update(overrides)
    return EngineParams(**base)


def config(**overrides) -> RunConfig:
    base = dict(
        scenario=Scenario.from_names(2, "orange", "nighttime"),
        weights=Weights(0.2, 0.3, 0.5),
        threshold=0.0,
        seed=11,
    )
    base.update(overrides)
    return RunConfig(**base)


def test_run_is_deterministic(demo_index):
    cfg = RunConfig(
        scenario=Scenario.from_names(2, "orange", "nighttime"),
        weights=Weights(0.1, 0.1, 0.8), threshold=0.8, seed=99,
    )
    a = run(demo_index, cfg)
    b = run(demo_index, cfg)
    assert a.evacuated == b.evacuated
    assert a.time_series == b.time_series
    assert a.sheltered_by_shelter == b.sheltered_by_shelter
    assert event_log_csv(a.events) == event_log_csv(b.events)


def test_init_run_matches_configured_counts(demo_index):
    cfg = RunConfig(
        scenario=Scenario.from_names(1, "yellow", "daytime"),
        weights=Weights(0.1, 0.1, 0.1), threshold=0.7, seed=3,
    )
    state = init_run(demo_index, cfg)
    assert len(state.timeline.placed) == 15
    assert len(state.households) == 570
    assert len(state.timeline.epsilon) == 570
    assert all(0.0 <= eps <= 0.05 for eps in state.timeline.epsilon)
    # bit-identical re-initialization
    state2 = init_run(demo_index, cfg)
    assert state.timeline.epsilon == state2.timeline.epsilon
    assert state.timeline.fallback_tick == state2.timeline.fallback_tick
    assert state.timeline.placed == state2.timeline.placed


def _sha256(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def test_demo_index_is_pinned(demo_world, demo_index):
    # Recorded from the all-pairs index build; dict key order included.
    assert _sha256(demo_index.house_node) == (
        "b21b0fb3d26d9d2a696fd52744c481621fdc507a66ac810b55c380d50ccddef1")
    proximity = [ProximityClass(code) for code in demo_index.proximity_code.tolist()]
    assert _sha256([p.name for p in proximity]) == (
        "79d5ce1c50d387e8a320c53cb02d7c7a4f89dc8ff9c5490d03f7af8f05779b24")
    houses = [Point(x, y) for x, y in demo_index.house_pos]
    segments = [(demo_world.nodes[a], demo_world.nodes[b]) for a, b, _ in demo_world.edges]
    near_edges = points_near_segments(segments, houses, demo_index.params.rescuer_radius)
    assert _sha256([((min(a, b), max(a, b)), near)
                    for (a, b, _), near in zip(demo_world.edges, near_edges)]) == (
        "f77739f10d853423975ecf6ea951a26b90615c5a7af0445e8e86939e7e02bd3c")
    assert demo_index.candidate_lists == tuple(near_edges)
    legs = sorted((key, length, sorted(near)) for key, (length, near) in demo_index.legs.items())
    assert _sha256(legs) == "a4c2b18e4047a002ab2313e2f4dd96323a9205508742cf52fbd2564e12aa3624"


def test_an_index_reads_no_input_after_it_is_built(demo_world, demo_profiles):
    # Every container of the index's world and population is changed after
    # the build, before any run: a run reads only the index's own copies.
    world = copy.deepcopy(demo_world)
    population = {name: column.copy() for name, column in demo_profiles.items()}
    index = WorldIndex(world, population)
    for node, p in world.nodes.items():
        world.nodes[node] = Point(p.x + 40.0, p.y)
    for i, s in enumerate(world.shelters):
        world.shelters[i] = Shelter(s.id + 1000, s.node, 1, not s.external)
    world.rescuer_starts.reverse()
    for container in (world.edges, world.buildings, world.waterways, world.adjacency):
        container.clear()
    for column in population.values():
        column[:] = column[::-1]
    untouched = WorldIndex(demo_world, demo_profiles)
    for seed in (5, 99):
        assert repr(index.inform_timeline(seed)) == repr(untouched.inform_timeline(seed))
    cfg = RunConfig(scenario=Scenario.from_names(2, "orange", "nighttime"),
                    weights=Weights(0.1, 0.1, 0.8), threshold=0.8, seed=99)
    result = run(index, cfg)
    assert result.events and result == run(untouched, cfg)


def test_risk_memo_keys_on_seed_scenario_and_weights(demo_world, demo_profiles, monkeypatch):
    calls = []
    real = engine.perceived_risk
    monkeypatch.setattr(engine, "perceived_risk",
                        lambda *args: calls.append(1) or real(*args))
    index = WorldIndex(demo_world, demo_profiles)
    fresh = WorldIndex(demo_world, demo_profiles)
    s = Scenario.from_names(2, "orange", "nighttime")
    w = Weights(0.3, 0.4, 0.3)
    first = index.perceived(5, s, w)
    assert len(calls) == 1
    assert not first.flags.writeable  # a run cannot alter what the next one reads
    # Runs of every threshold of the seed group reuse it.
    for threshold in (0.7, 0.8, 0.9):
        init_run(index, RunConfig(s, w, threshold, 5))
    assert len(calls) == 1
    # Each step changes one of seed, scenario and weights; each recomputes.
    keys = [(6, s, w), (6, Scenario.from_names(2, "red", "nighttime"), w),
            (6, Scenario.from_names(2, "red", "nighttime"), Weights(0.2, 0.4, 0.4))]
    values = []
    for n, key in enumerate(keys, start=2):
        values.append(index.perceived(*key).tolist())
        assert len(calls) == n
        assert index.perceived(*key).tolist() == values[-1]
        assert len(calls) == n
    for key, got in zip(keys, values):
        assert fresh.perceived(*key).tolist() == got
    assert first.tolist() not in values
    assert len({tuple(v) for v in values}) == 3


def test_inform_timeline_calls_the_module_walk_once_per_new_seed(demo_world, demo_profiles,
                                                                 monkeypatch):
    # The index looks the walk up on the module when it needs one, so a
    # wrapper put there (a tracer's, say) sees every walk.
    seeds = []
    real = engine._walk_rescuers
    monkeypatch.setattr(engine, "_walk_rescuers",
                        lambda index, seed: seeds.append(seed) or real(index, seed))
    index = WorldIndex(demo_world, demo_profiles)
    first = index.inform_timeline(5)
    assert index.inform_timeline(5) is first
    assert seeds == [5]
    index.inform_timeline(6)
    init_run(index, config(seed=6))
    index.inform_timeline(5)
    assert seeds == [5, 6, 5]


def test_demo_inform_timelines_are_pinned(demo_index):
    # Seeds 0-49 as the per-rescuer walk drew them: init draws, placement,
    # and every inform in tick and inform order.
    lines = []
    for seed in range(50):
        tl = demo_index.inform_timeline(seed)
        lines.append(repr((
            seed, tl.epsilon, [WarningSource(s).name for s in tl.fallback_source],
            tl.fallback_tick, tl.placed,
            [(tick, [(hid, s.name) for hid, s in got]) for tick, got in informs_of(tl).items()],
        )))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "7e1aacf646a91f8f8ad148617e3ef2f73b4f0c75af0b653e5e5d4fd7da3a8d8a")


def test_rescuer_informs_within_radius_only():
    # Two houses near node 0: one at 40 m, one at 60 m. The rescuer barely
    # moves, so only the 40 m house is informed on tick 1.
    world = line_world(
        n_nodes=4,
        building_offsets=[(0.0, 40.0), (0.0, 60.0)],
        shelter_specs=[(0, 3, 1000, False)],
    )
    profiles = population_of([profile(0, 0), profile(1, 1)])
    index = WorldIndex(world, profiles, params(rescuer_speed=0.001, fallback_tick_min=50,
                                               fallback_tick_max=60, max_ticks=50))
    state = init_run(index, config())
    step(state)
    assert state.households[0].source is WarningSource.AUTHORITIES
    assert state.households[1].source is None


def test_rescuer_ending_its_tick_on_a_node_informs_from_there():
    # A 100 m budget takes the rescuer from node 0 exactly onto node 1 in
    # tick 1 and onto node 2 in tick 2; it perceives the house 40 m off
    # each node from that node.
    world = line_world(
        n_nodes=4,
        building_offsets=[(200.0, 40.0), (100.0, 40.0)],
        shelter_specs=[(0, 3, 1000, False)],
    )
    profiles = population_of([profile(0, 0), profile(1, 1)])
    index = WorldIndex(world, profiles, params(rescuer_speed=10.0, fallback_tick_min=50,
                                               fallback_tick_max=60, max_ticks=50))
    informs = informs_of(index.inform_timeline(11))
    assert informs[1] == ((1, WarningSource.AUTHORITIES),)
    assert informs[2] == ((0, WarningSource.AUTHORITIES),)


def test_full_shelter_redirects_and_occupancy_unchanged():
    # Shelter 0 (capacity 10, node 3) is nearest for both households. A (10
    # members) sits at its node and fills it on arrival; B (4 members) walks
    # in from node 2, finds it full, and is redirected to shelter 1 with
    # shelter 0's occupancy unchanged.
    world = line_world(
        n_nodes=6,
        building_offsets=[(300.0, 10.0), (200.0, 10.0)],
        shelter_specs=[(0, 3, 10, False), (1, 5, 1000, False)],
        rescuer_starts=[5],
    )
    profiles = population_of([profile(0, 0, members=10), profile(1, 1, members=4)])
    index = WorldIndex(world, profiles, params(rescuer_speed=0.001, fallback_tick_min=1,
                                               fallback_tick_max=1, household_speed=10.0,
                                               max_ticks=200))
    result = run(index, config())
    assert result.evacuated == 2
    assert result.shelter_occupancy[0] == 10
    assert result.sheltered_by_shelter[0] == 1
    assert result.sheltered_by_shelter[1] == 1
    redirects = [e for e in events_of(result.events) if e.event == "redirected"]
    assert len(redirects) == 1 and redirects[0].agent_id == 1
    assert "from=0" in redirects[0].detail and "to=1" in redirects[0].detail


def test_stranded_when_no_shelter_is_reachable():
    # Household 1's house snaps to road 10-11, which no road joins to the
    # shelter; it strands on deciding and stays in the admission heap.
    base = line_world(n_nodes=4, building_offsets=[(0.0, 20.0), (0.0, 520.0)])
    world = replace(base, nodes={**base.nodes, 10: Point(0.0, 500.0), 11: Point(100.0, 500.0)},
                    edges=[*base.edges, (10, 11, 100.0)])
    index = WorldIndex(world, population_of([profile(0, 0), profile(1, 1)]),
                       params(nb_rescuers=0, fallback_tick_min=1, fallback_tick_max=3,
                              max_ticks=40))
    result, state = run_with_final_state(index, config())
    assert event_log_csv(result.events) == (
        "tick,agent_kind,agent_id,event,detail\n"
        "2,household,0,informed,media\n"
        "2,household,1,informed,friends\n"
        "2,household,0,decided,evacuate perceived=3.926111 highest=4.600000\n"
        "2,household,0,depart,shelter=0\n"
        "2,household,1,decided,evacuate perceived=3.899860 highest=4.600000\n"
        "2,household,1,stranded,no reachable shelter\n"
        "19,household,0,admitted,shelter=0 occupancy=4\n"
    )
    assert result.truncated and result.ticks_elapsed == 40
    assert result.time_series == [0] + [2] * 39
    assert len(state.moving) == 1
    assert state.moving[0][2] == 1
    stranded = state.households[1]
    assert stranded.stranded and stranded.tried_shelters == ()


def _no_capacity_after_a_full_shelter_index() -> WorldIndex:
    # One internal shelter for four persons and no external one: household 0
    # lives at it and fills it in its decision tick; household 1 arrives to
    # find it full and has nowhere left to go.
    world = line_world(n_nodes=4, building_offsets=[(300.0, 20.0), (0.0, 20.0)],
                       shelter_specs=[(0, 3, 4, False)])
    return WorldIndex(world, population_of([profile(0, 0, members=4), profile(1, 1, members=4)]),
                      params(nb_rescuers=0, fallback_tick_min=1, fallback_tick_max=1,
                             max_ticks=40))


def test_stranded_when_no_capacity_is_left_after_a_full_shelter():
    result, state = run_with_final_state(_no_capacity_after_a_full_shelter_index(), config())
    assert event_log_csv(result.events) == (
        "tick,agent_kind,agent_id,event,detail\n"
        "1,household,0,informed,media\n"
        "1,household,1,informed,friends\n"
        "1,household,0,decided,evacuate perceived=3.926111 highest=4.600000\n"
        "1,household,0,depart,shelter=0\n"
        "1,household,1,decided,evacuate perceived=3.899860 highest=4.600000\n"
        "1,household,1,depart,shelter=0\n"
        "1,household,0,admitted,shelter=0 occupancy=4\n"
        "18,household,1,stranded,no capacity anywhere after shelter=0\n"
    )
    assert result.truncated and result.ticks_elapsed == 40
    assert result.time_series == [2] * 40
    assert result.shelter_occupancy == {0: 4}
    assert len(state.moving) == 1
    assert state.moving[0][2] == 1
    stranded = state.households[1]
    assert stranded.stranded and stranded.tried_shelters == (0,)


def test_threshold_zero_everyone_evacuates(demo_index):
    cfg = RunConfig(
        scenario=Scenario.from_names(1, "yellow", "daytime"),
        weights=Weights(0.1, 0.1, 0.1), threshold=0.0, seed=5,
    )
    result = run(demo_index, cfg, collect_events=False)
    assert not result.truncated
    assert result.evacuated == 570
    assert sum(result.sheltered_by_shelter.values()) == 570


def test_threshold_one_with_zero_epsilon_nobody_evacuates(demo_world, demo_profiles):
    cfg = RunConfig(
        scenario=Scenario.from_names(3, "red", "nighttime"),
        weights=Weights(0.2, 0.5, 0.3), threshold=1.0, seed=5,
    )
    index = WorldIndex(demo_world, demo_profiles, EngineParams(epsilon_min=0.0, epsilon_max=0.0))
    result = run(index, cfg, collect_events=False)
    assert result.evacuated == 0
    assert result.stayed == 570


def test_capacity_never_exceeded(demo_world, demo_index):
    cfg = RunConfig(
        scenario=Scenario.from_names(2, "red", "nighttime"),
        weights=Weights(0.1, 0.1, 0.8), threshold=0.7, seed=13,
    )
    result = run(demo_index, cfg, collect_events=False)
    for shelter in demo_world.internal_shelters():
        assert result.shelter_occupancy[shelter.id] <= shelter.capacity
    assert not result.truncated


def test_paired_scenario_monotonicity(demo_index):
    # identical seed: every coded driver of B dominates A
    weights = Weights(0.2, 0.4, 0.4)
    lo = RunConfig(scenario=Scenario.from_names(1, "yellow", "daytime"),
                   weights=weights, threshold=0.8, seed=17)
    hi = RunConfig(scenario=Scenario.from_names(2, "orange", "nighttime"),
                   weights=weights, threshold=0.8, seed=17)
    top = RunConfig(scenario=Scenario.from_names(3, "red", "nighttime"),
                    weights=weights, threshold=0.8, seed=17)
    e_lo = run(demo_index, lo, collect_events=False).evacuated
    e_hi = run(demo_index, hi, collect_events=False).evacuated
    e_top = run(demo_index, top, collect_events=False).evacuated
    assert e_lo <= e_hi <= e_top


def test_threshold_monotonicity(demo_index):
    results = []
    for threshold in (0.7, 0.8, 0.9):
        cfg = RunConfig(
            scenario=Scenario.from_names(2, "orange", "nighttime"),
            weights=Weights(0.1, 0.1, 0.8), threshold=threshold, seed=23,
        )
        results.append(run(demo_index, cfg, collect_events=False).evacuated)
    assert results[0] >= results[1] >= results[2]


def test_fallback_informs_without_rescuers():
    world = line_world(n_nodes=4, building_offsets=[(0.0, 20.0), (100.0, 20.0), (200.0, 20.0)])
    profiles = population_of([profile(i, i) for i in range(3)])
    result = run(WorldIndex(world, profiles, params(nb_rescuers=0, max_ticks=300)),
                 config(threshold=0.5))
    assert not result.truncated
    informed = [e for e in events_of(result.events) if e.event == "informed"]
    assert len(informed) == 3
    assert all(e.detail in ("friends", "media") for e in informed)


def test_eventual_information_and_terminal_states(demo_index):
    cfg = RunConfig(
        scenario=Scenario.from_names(1, "orange", "daytime"),
        weights=Weights(0.3, 0.3, 0.4), threshold=0.8, seed=31,
    )
    result, state = run_with_final_state(demo_index, cfg, collect_events=False)
    # Every household informed, none left in the admission heap: each one
    # stayed or was admitted.
    assert not result.truncated
    assert all(h.source is not None for h in state.households)
    assert state.moving == []
    assert result.stayed + sum(result.sheltered_by_shelter.values()) == len(state.households)


def test_truncation_flag_when_out_of_ticks():
    world = line_world(n_nodes=4, building_offsets=[(0.0, 20.0)])
    profiles = population_of([profile(0, 0)])
    index = WorldIndex(world, profiles, params(nb_rescuers=0, fallback_tick_min=50,
                                               fallback_tick_max=50, max_ticks=3))
    result = run(index, config())
    assert result.truncated
    assert result.ticks_elapsed == 3
    assert result.evacuated == 0


def test_step_past_max_ticks_rejected():
    world = line_world(n_nodes=4, building_offsets=[(0.0, 20.0)])
    profiles = population_of([profile(0, 0)])
    index = WorldIndex(world, profiles, params(nb_rescuers=0, fallback_tick_min=50,
                                               fallback_tick_max=50, max_ticks=2))
    state = init_run(index, config())
    step(state)
    step(state)
    with pytest.raises(InputError, match="max_ticks"):
        step(state)


def test_time_series_is_cumulative_and_monotone(demo_index):
    cfg = RunConfig(
        scenario=Scenario.from_names(2, "orange", "daytime"),
        weights=Weights(0.2, 0.2, 0.6), threshold=0.7, seed=41,
    )
    result = run(demo_index, cfg, collect_events=False)
    series = result.time_series
    assert len(series) == result.ticks_elapsed
    assert all(a <= b for a, b in zip(series, series[1:]))
    assert series[-1] == result.evacuated


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["rescuer_radius", "shelter_radius", "household_speed",
                                  "rescuer_speed", "tick_seconds"])
def test_engine_params_refuse_a_value_that_is_not_finite(name, value):
    # An infinite speed or tick length never ends a walk's first tick, and a
    # NaN passes every comparison the walks make.
    with pytest.raises(InputError) as refused:
        EngineParams(**{name: value})
    assert str(refused.value) == f"{name} must be finite, got {value!r}"


@pytest.mark.parametrize("name", ["household_speed", "rescuer_speed"])
def test_engine_params_refuse_a_move_per_tick_that_overflows(name):
    with pytest.raises(InputError) as refused:
        EngineParams(**{name: 1e200, "tick_seconds": 1e200})
    assert str(refused.value) == (
        f"{name} * tick_seconds overflows: the move per tick must be finite")
    assert EngineParams(**{name: 1e150, "tick_seconds": 1e150}).tick_seconds == 1e150


def test_rescuers_require_start_nodes():
    world = line_world(n_nodes=3, building_offsets=[(0.0, 20.0)], rescuer_starts=[])
    # line_world defaults rescuer_starts=[0]; force empty
    world.rescuer_starts.clear()
    profiles = population_of([profile(0, 0)])
    with pytest.raises(InputError, match="rescuer"):
        WorldIndex(world, profiles, params(nb_rescuers=2))


def test_event_log_csv_shape(demo_index):
    cfg = RunConfig(
        scenario=Scenario.from_names(2, "orange", "nighttime"),
        weights=Weights(0.1, 0.1, 0.8), threshold=0.9, seed=7,
    )
    result = run(demo_index, cfg)
    text = event_log_csv(result.events)
    lines = text.splitlines()
    assert lines[0] == "tick,agent_kind,agent_id,event,detail"
    kinds = {line.split(",")[3] for line in lines[1:]}
    assert {"placed", "informed", "decided"} <= kinds
    assert len(lines) >= 570 * 2  # every household informs and decides
    # No detail holds a comma, so every line has five cells: here, in the
    # log of the pinned `simulate` run (41 redirects) and in that of a run
    # that strands a household after a full shelter.
    pinned = RunConfig(Scenario.from_names(2, "orange", "nighttime"), Weights(0.1, 0.1, 0.8),
                       threshold=0.8, seed=99)
    redirects = event_log_csv(run(demo_index, pinned).events)
    strands = event_log_csv(run(_no_capacity_after_a_full_shelter_index(), config()).events)
    assert ",redirected," in redirects and ",stranded," in strands
    for log in (text, redirects, strands):
        assert all(line.count(",") == 4 for line in log.splitlines())


def test_run_without_index_validates_profiles():
    world = line_world(n_nodes=4, building_offsets=[(0.0, 20.0)])
    with pytest.raises(InputError, match="unknown building"):
        run(WorldIndex(world, population_of([profile(0, 7)])), config())


def test_timeline_memo_hit_and_rebuild_give_identical_runs(demo_world, demo_profiles):
    cfg = RunConfig(
        scenario=Scenario.from_names(2, "orange", "nighttime"),
        weights=Weights(0.1, 0.1, 0.8), threshold=0.7, seed=23,
    )
    index = WorldIndex(demo_world, demo_profiles)
    first = run(index, cfg)
    timeline = index.inform_timeline(cfg.seed)
    # Configs that differ only in threshold share one timeline, and a run on
    # the shared one equals a run on a fresh index.
    higher = replace(cfg, threshold=0.9)
    assert index.inform_timeline(higher.seed) is timeline
    shared = run(index, higher)
    assert shared == run(WorldIndex(demo_world, demo_profiles), higher)
    assert shared.evacuated < first.evacuated
    # Another seed evicts the timeline; coming back rebuilds it identically.
    run(index, replace(cfg, seed=24))
    assert index.inform_timeline(cfg.seed) is not timeline
    assert run(index, cfg) == first


@pytest.mark.parametrize("name,value", [
    ("seed", 12), ("nb_rescuers", 2), ("rescuer_speed", 2.5), ("tick_seconds", 5.0),
    ("max_ticks", 400), ("fallback_tick_min", 6), ("fallback_tick_max", 21),
    ("fallback_friends_prob", 0.25), ("epsilon_min", 0.01), ("epsilon_max", 0.04),
])
def test_timeline_rebuilt_when_an_inform_field_changes(name, value):
    # Every input of the inform phase reaches the rescuer walk: the seed
    # through the index's memo, each engine parameter through the index that
    # holds it. The houses 400 m off the road only the fallback channel
    # informs, and its window reaches past max_ticks=400.
    world = line_world(n_nodes=4, building_offsets=[(0.0, 20.0), (100.0, 20.0), (150.0, 400.0),
                                                     (250.0, 400.0), (50.0, -400.0)])
    profiles = population_of([profile(i, i) for i in range(5)])
    base = params(fallback_tick_max=500)
    index = WorldIndex(world, profiles, base)
    before = index.inform_timeline(11)
    if name == "seed":
        after = index.inform_timeline(value)
    else:
        after = WorldIndex(world, profiles, replace(base, **{name: value})).inform_timeline(11)
    assert after != before


def test_run_config_is_the_grid_point_and_seed():
    # Every engine parameter belongs to the index, which fixes it for every
    # run it serves; a run adds only what the experiment varies.
    assert {f.name for f in fields(RunConfig)} == {"scenario", "weights", "threshold", "seed"}


def unreachable_shelter_world() -> World:
    """A line world with an external shelter and an internal shelter 3 on
    road 10-11, which no road joins to the others."""
    base = line_world(n_nodes=4, shelter_specs=[(0, 3, 8, False), (1, 1, 4, False),
                                                (2, 0, 1, True)])
    return replace(base, nodes={**base.nodes, 10: Point(0.0, 500.0), 11: Point(100.0, 500.0)},
                   edges=[*base.edges, (10, 11, 100.0)],
                   shelters=[*base.shelters, Shelter(3, 11, 8, False)])


UNREACHABLE_SHELTER_WORLD = unreachable_shelter_world()
UNREACHABLE_SHELTER_INDEX = WorldIndex(UNREACHABLE_SHELTER_WORLD, population_of([]),
                                       EngineParams(nb_rescuers=0))


@settings(max_examples=300, deadline=None)
@given(on_demo=st.booleans(), data=st.data())
def test_pick_shelter_matches_the_linear_scan(demo_world, demo_index, on_demo, data):
    world, index = ((demo_world, demo_index) if on_demo
                    else (UNREACHABLE_SHELTER_WORLD, UNREACHABLE_SHELTER_INDEX))
    ids = [s.id for s in world.shelters]
    # Occupancy empty or within a household of full, so that fit decides.
    occupancy = {s.id: data.draw(st.one_of(st.just(0), st.integers(max(0, s.capacity - 10),
                                                                    s.capacity)))
                 for s in world.shelters}
    node = data.draw(st.sampled_from(sorted(world.nodes)))
    members = data.draw(st.integers(1, 10))
    exclude = tuple(data.draw(st.lists(st.sampled_from(ids), unique=True)))
    state = SimpleNamespace(index=index, occupancy=occupancy)
    picked = engine._pick_shelter(state, node, members, exclude)  # noqa: SLF001
    assert picked == pick_shelter_reference(world, occupancy, node, members, exclude)


def test_one_pick_serves_departures_and_redirects(demo_index, monkeypatch):
    # The run of the pinned `simulate` event log: each of its 248 evacuate
    # decisions and 41 redirects picks through the module's _pick_shelter.
    calls = []
    real_pick = engine._pick_shelter  # noqa: SLF001
    monkeypatch.setattr(engine, "_pick_shelter",
                        lambda *args: calls.append(args[1:]) or real_pick(*args))
    cfg = RunConfig(scenario=Scenario.from_names(2, "orange", "nighttime"),
                    weights=Weights(0.1, 0.1, 0.8), threshold=0.8, seed=99)
    result = run(demo_index, cfg)
    kinds = Counter(e.event for e in events_of(result.events))
    assert (result.evacuated, kinds["redirected"], kinds["stranded"]) == (248, 41, 0)
    assert len(calls) == 289 == kinds["depart"] + kinds["redirected"]


def test_a_run_starts_every_household_on_the_one_unaware_record(demo_index):
    state = init_run(demo_index, config(seed=99))
    assert len(state.households) == 570
    assert all(h is engine.UNAWARE for h in state.households)


def _records(state) -> list[tuple]:
    return [(h.source, h.tried_shelters, h.stranded) for h in state.households]


def test_households_that_stay_hold_their_sources_shared_record(demo_index):
    # The run of the pinned `simulate` event log (41 redirects). A household
    # that never heads out holds the one record of its source; one that does
    # holds a record of its own.
    cfg = RunConfig(scenario=Scenario.from_names(2, "orange", "nighttime"),
                    weights=Weights(0.1, 0.1, 0.8), threshold=0.8, seed=99)
    result, state = run_with_final_state(demo_index, cfg)
    assert not result.truncated
    stayed = [hid for hid, go in enumerate(state.evacuate) if not go]
    left = [hid for hid, go in enumerate(state.evacuate) if go]
    assert len(stayed) == result.stayed and len(left) == result.evacuated == 248
    for hid in stayed:
        h = state.households[hid]
        assert h is engine.INFORMED_BY[h.source.value]
    own = [state.households[hid] for hid in left]
    assert len(set(map(id, own))) == len(own)
    assert not set(map(id, own)) & set(map(id, engine.INFORMED_BY.values()))
    first = _records(state)

    # A run that strands a household, then the same run again on the same
    # index: no run changes a record another run reads.
    _, stranding = run_with_final_state(_no_capacity_after_a_full_shelter_index(), config())
    assert stranding.households[1].stranded
    _, again = run_with_final_state(demo_index, cfg)
    assert _records(again) == first
    assert (engine.UNAWARE.source, engine.UNAWARE.tried_shelters,
            engine.UNAWARE.stranded) == (None, (), False)
    for value, h in engine.INFORMED_BY.items():
        assert (h.source.value, h.tried_shelters, h.stranded) == (value, (), False)


def test_runs_call_init_run_and_step_through_the_module(demo_world, demo_index, demo_profiles,
                                                        monkeypatch):
    # bench/tracer.py wraps engine.init_run and engine.step where run looks
    # them up: a run calls init_run once and then step once per tick, with
    # events on or off and when it is truncated.
    calls = []
    real_init, real_step = engine.init_run, engine.step
    monkeypatch.setattr(engine, "init_run",
                        lambda *args, **kw: calls.append("init_run") or real_init(*args, **kw))
    monkeypatch.setattr(engine, "step", lambda state: calls.append("step") or real_step(state))
    cfg = RunConfig(scenario=Scenario.from_names(2, "orange", "nighttime"),
                    weights=Weights(0.1, 0.1, 0.8), threshold=0.8, seed=99)
    truncated = WorldIndex(demo_world, demo_profiles, EngineParams(max_ticks=40))
    for index, collect_events in ((demo_index, True), (demo_index, False), (truncated, False)):
        calls.clear()
        result = run(index, cfg, collect_events=collect_events)
        assert calls == ["init_run"] + ["step"] * result.ticks_elapsed
    assert result.truncated and result.ticks_elapsed == 40


@st.composite
def small_runs(draw):
    """A line world with a few tight internal shelters, sometimes an
    external one and sometimes a road no shelter reaches, households of
    random codes and sizes, engine parameters and a config: runs that
    redirect, strand households and run out of ticks."""
    n_nodes = draw(st.integers(2, 6))
    span = 100.0 * (n_nodes - 1)
    houses = [(draw(st.floats(0.0, span)), draw(st.sampled_from([-20.0, 20.0])))
              for _ in range(draw(st.integers(1, 8)))]
    shelters = [(i, draw(st.integers(0, n_nodes - 1)), draw(st.integers(1, 10)), False)
                for i in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        shelters.append((len(shelters), draw(st.integers(0, n_nodes - 1)), 1, True))
    world = line_world(n_nodes=n_nodes, building_offsets=houses, shelter_specs=shelters)
    if draw(st.booleans()):
        # Nodes 10-11 are joined to no other road: a house there strands.
        stranded_houses = draw(st.integers(1, 2))
        world = replace(
            world, nodes={**world.nodes, 10: Point(0.0, 500.0), 11: Point(100.0, 500.0)},
            edges=[*world.edges, (10, 11, 100.0)],
            buildings={**world.buildings, **{len(houses) + i: Point(50.0 * i, 520.0)
                                             for i in range(stranded_houses)}})
    profiles = population_of([profile(i, i, members=draw(st.integers(1, 6)),
                                      **{name: draw(st.sampled_from(sorted(codes.values())))
                                         for name, codes in CODED_FIELDS.items()})
                              for i in range(len(world.buildings))])
    fallback_min = draw(st.integers(1, 10))
    engine_params = EngineParams(
        nb_rescuers=draw(st.integers(0, 2)),
        rescuer_speed=draw(st.sampled_from([0.5, 3.0, 20.0])),
        household_speed=draw(st.floats(0.5, 20.0)),
        shelter_radius=draw(st.floats(1.0, 100.0)),
        fallback_tick_min=fallback_min,
        fallback_tick_max=fallback_min + draw(st.integers(0, 10)),
        max_ticks=draw(st.one_of(st.integers(1, 15), st.integers(50, 300))),
    )
    cfg = config(threshold=draw(st.floats(0.0, 1.0)), seed=draw(st.integers(0, 2**32)),
                 weights=draw(st.sampled_from([Weights(0.2, 0.3, 0.5), Weights(0.6, 0.2, 0.2)])))
    return world, profiles, engine_params, cfg


def check_timeline_invariants(timeline: engine.InformTimeline, n: int) -> None:
    """The columns of an inform timeline agree with each other, and none of
    them can be altered by a run that reads it."""
    for f in fields(timeline):
        assert type(getattr(timeline, f.name)) is tuple, f.name
    tick, order, source = timeline.inform_tick, timeline.inform_order, timeline.source
    assert len(tick) == len(source) == len(timeline.epsilon) == n
    assert len(set(order)) == len(order)
    # Grouped by tick, and in decide order by id within a tick.
    assert [tick[hid] for hid in order] == sorted(tick[hid] for hid in order)
    assert timeline.decide_order == tuple(sorted(order, key=lambda hid: (tick[hid], hid)))
    last = len(timeline.informed_by) - 1
    assert timeline.informed_by == tuple(sum(tick[hid] <= u for hid in order)
                                         for u in range(last + 1))
    assert all(1 <= tick[hid] <= last for hid in order)
    codes = {s.value for s in WarningSource}
    informed = set(order)
    for hid in range(n):
        if hid in informed:
            assert source[hid] in codes
        else:
            assert math.isnan(source[hid]) and tick[hid] == 0


def test_demo_inform_timelines_keep_their_invariants(demo_index):
    for seed in range(50):
        check_timeline_invariants(demo_index.inform_timeline(seed), 570)


@settings(max_examples=150, deadline=None)
@given(small_runs())
def test_inform_timelines_keep_their_invariants(case):
    # Fallback, truncated and redirected runs: the timelines of the walks
    # that end inside and past the fallback window, or at max_ticks.
    world, profiles, engine_params, cfg = case
    timeline = WorldIndex(world, profiles, engine_params).inform_timeline(cfg.seed)
    check_timeline_invariants(timeline, len(profiles["id"]))


@settings(max_examples=150, deadline=None)
@given(small_runs())
def test_events_on_and_off_give_the_same_run(case):
    # Each run on a fresh index, so both walk every household's route cold.
    world, profiles, engine_params, cfg = case
    off = run(WorldIndex(world, profiles, engine_params), cfg, collect_events=False)
    on = run(WorldIndex(world, profiles, engine_params), cfg, collect_events=True)
    assert off.events is None and on.events is not None
    assert replace(on, events=None) == off


@settings(max_examples=150, deadline=None)
@given(small_runs())
def test_household_states_are_derived_from_the_runs_facts(case):
    # Each household is in exactly one state, each read off one fact the
    # run keeps: unaware (no source), staying (informed, no evacuate flag),
    # evacuating (in the admission heap, stranded or not) or sheltered
    # (admitted, counted per shelter).
    world, profiles, engine_params, cfg = case
    result, state = run_with_final_state(WorldIndex(world, profiles, engine_params), cfg)
    unaware = {hid for hid, h in enumerate(state.households) if h.source is None}
    staying = {hid for hid, h in enumerate(state.households)
               if h.source is not None and not state.evacuate[hid]}
    in_heap = [hid for _, _, hid in state.moving]
    admitted = [e.agent_id for e in events_of(result.events) if e.event == "admitted"]
    assert len(set(in_heap)) == len(in_heap) and len(set(admitted)) == len(admitted)
    assert len(admitted) == sum(state.admitted.values())
    parts = [unaware, staying, set(in_heap), set(admitted)]
    assert sum(map(len, parts)) == len(profiles["id"])
    assert set().union(*parts) == set(range(len(profiles["id"])))
    assert state.evacuate_decisions == result.evacuated == len(in_heap) + len(admitted)
    assert result.stayed == len(staying)
    assert result.truncated == bool(unaware or in_heap)
    # A stranded household stays in the heap, never to arrive.
    stranded = {hid for hid, h in enumerate(state.households) if h.stranded}
    assert stranded == {hid for arrival, _, hid in state.moving
                        if state.households[hid].stranded and arrival == math.inf}


@settings(max_examples=150, deadline=None)
@given(small_runs())
def test_event_log_invariants(case):
    # The lines of a run's event log agree with the facts the run keeps: its
    # inform timeline, its decisions, each household's shelter chain and the
    # shelters' occupancy.
    world, profiles, engine_params, cfg = case
    index = WorldIndex(world, profiles, engine_params)
    result, state = run_with_final_state(index, cfg)
    timeline = state.timeline
    events = events_of(result.events)
    assert all(line.count(",") == 4 for line in result.events)
    assert {e.event for e in events} <= {"placed", "informed", "decided", "depart", "admitted",
                                          "redirected", "stranded"}
    ticks = [e.tick for e in events]
    assert ticks == sorted(ticks)
    assert [line for line in result.events if line.startswith("0,")] == [
        f"0,rescuer,{i},placed,node={node}" for i, node in enumerate(timeline.placed)]
    assert [(e.tick, e.agent_id, e.detail) for e in events if e.event == "informed"] == [
        (timeline.inform_tick[hid], hid, WarningSource(timeline.source[hid]).name.lower())
        for hid in timeline.inform_order if timeline.inform_tick[hid] <= result.ticks_elapsed]
    # Per tick: its informed lines, then per newly informed household in
    # ascending id its decided line, then its depart or stranded line if it
    # evacuates.
    for tick in sorted(set(ticks) - {0}):
        in_tick = [e for e in events if e.tick == tick]
        informed = sorted(e.agent_id for e in in_tick if e.event == "informed")
        assert all(e.event == "informed" for e in in_tick[:len(informed)])
        decided = [i for i, e in enumerate(in_tick) if e.event == "decided"]
        assert [in_tick[i].agent_id for i in decided] == informed
        for i in decided:
            hid = in_tick[i].agent_id
            assert in_tick[i].detail.split()[0] == ("evacuate" if state.evacuate[hid] else "stay")
            if state.evacuate[hid]:
                assert in_tick[i + 1].agent_id == hid
                assert in_tick[i + 1].event in ("depart", "stranded")
    # Each household's depart and redirected lines name its chain, in order.
    for hid, h in enumerate(state.households):
        heads = [e.detail for e in events
                 if e.agent_id == hid and e.event in ("depart", "redirected")]
        assert heads == [f"shelter={h.chain[0]}" if i == 0
                         else f"from={h.chain[i - 1]} to={h.chain[i]}"
                         for i in range(len(h.chain))]
    # Per shelter, each admission adds its household's members.
    occupancy = dict.fromkeys(result.shelter_occupancy, 0)
    capacity = {s.id: math.inf if s.external else s.capacity for s in world.shelters}
    for e in events:
        if e.event == "admitted":
            shelter, now = (int(cell.split("=")[1]) for cell in e.detail.split())
            assert now == occupancy[shelter] + index.members[e.agent_id] <= capacity[shelter]
            occupancy[shelter] = now
    assert occupancy == result.shelter_occupancy


def _one_household_index() -> WorldIndex:
    # Informed by the fallback channel on tick 5, then it walks to shelter 0.
    world = line_world(n_nodes=4, building_offsets=[(100.0, 20.0)])
    return WorldIndex(world, population_of([profile(0, 0)]), params(nb_rescuers=0, fallback_tick_min=5,
                                                     fallback_tick_max=5))


@pytest.mark.parametrize("counter,corrupt,message", [
    ("evacuate_decisions", lambda state: state.evacuate_decisions + 1,
     "evacuate decision counter out of sync"),
    # Counting everyone informed on tick 1 ends the run before household 0
    # is informed on tick 5.
    ("informed_count", lambda state: len(state.households),
     "household 0 ended unaware at natural termination"),
])
def test_run_refuses_a_state_out_of_sync(monkeypatch, counter, corrupt, message):
    assert not run(_one_household_index(), config()).truncated
    real_step = engine.step
    corrupted = []

    def step(state):
        real_step(state)
        if not corrupted:
            setattr(state, counter, corrupt(state))
            corrupted.append(state.tick)
        return state

    monkeypatch.setattr(engine, "step", step)
    with pytest.raises(InternalError) as refused:
        run(_one_household_index(), config())
    assert str(refused.value) == message
    assert corrupted == [1]

import itertools
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from evacsim import engine
from evacsim.engine import EngineParams, RunConfig, WorldIndex, run
from evacsim.errors import InputError
from evacsim.risk import STORM_CODES, Scenario, Weights
from evacsim.sweep import (
    FILTER_AT_LEAST_ONE,
    FILTER_EXACT_ONE,
    SweepSpec,
    default_sweep_spec,
    enumerate_combos,
    execute,
    filter_valid,
    parse_sweep_spec,
    replicate_seed,
    rows_from_csv,
    rows_to_csv,
    serialize_sweep_spec,
)
from helpers import line_world
from test_engine import profile


def brute_force_weight_triples(values, rule) -> int:
    """Independent enumeration of valid weight triples."""
    count = 0
    for w1, w2, w3 in itertools.product(values, repeat=3):
        total = w1 + w2 + w3
        if rule == "exact" and abs(total - 1.0) <= 1e-9:
            count += 1
        elif rule == "at_least" and total >= 1.0 - 1e-9:
            count += 1
    return count


def test_default_grid_enumerates_18432():
    combos = enumerate_combos(default_sweep_spec())
    assert len(combos) == 18_432
    assert [c.index for c in combos] == list(range(18_432))


def test_enumeration_is_stable():
    a = enumerate_combos(default_sweep_spec())
    b = enumerate_combos(default_sweep_spec())
    assert a == b


def test_single_value_axes_give_one_combo():
    spec = SweepSpec(
        storm_levels=(1,), rainfall_codes=(0.25,), time_of_day_codes=(0.5,),
        thresholds=(0.7,), w_cdm_values=(0.2,), w_hrf_values=(0.3,), w_crf_values=(0.5,),
        replications=1, base_seed=0,
    )
    assert len(enumerate_combos(spec)) == 1


def test_exact_one_filter_matches_brute_force():
    spec = default_sweep_spec()
    combos = enumerate_combos(spec)
    valid = filter_valid(combos, FILTER_EXACT_ONE)
    triples = brute_force_weight_triples(spec.w_cdm_values, "exact")
    assert triples == 36
    assert len(valid) == triples * 36  # 36 scenario x threshold combinations
    assert len(valid) == 1_296


def test_at_least_one_filter_matches_brute_force():
    spec = default_sweep_spec()
    combos = enumerate_combos(spec)
    valid = filter_valid(combos, FILTER_AT_LEAST_ONE)
    triples = brute_force_weight_triples(spec.w_cdm_values, "at_least")
    assert len(valid) == triples * 36
    assert len(valid) == 15_408


def test_filter_examples():
    spec = default_sweep_spec()
    combos = enumerate_combos(spec)
    low = [c for c in combos if (c.w_cdm, c.w_hrf, c.w_crf) == (0.1, 0.1, 0.1)]
    edge = [c for c in combos if (c.w_cdm, c.w_hrf, c.w_crf) == (0.8, 0.1, 0.1)]
    assert low and edge
    assert not filter_valid(low, FILTER_EXACT_ONE)
    assert not filter_valid(low, FILTER_AT_LEAST_ONE)
    assert filter_valid(edge, FILTER_EXACT_ONE)
    assert filter_valid(edge, FILTER_AT_LEAST_ONE)


def test_seeds_pair_across_thresholds():
    spec = default_sweep_spec()
    combos = filter_valid(enumerate_combos(spec), FILTER_EXACT_ONE)
    by_key = {}
    for c in combos:
        key = (c.storm_level, c.rainfall, c.time_of_day, c.w_cdm, c.w_hrf, c.w_crf)
        by_key.setdefault(key, []).append(c)
    some = list(by_key.values())[:20]
    for group in some:
        assert len(group) == 3  # one per threshold
        seeds = {replicate_seed(spec.base_seed, c, 4) for c in group}
        assert len(seeds) == 1
    # distinct replicates and distinct scenario/weight combos get new seeds
    c0 = some[0][0]
    assert replicate_seed(spec.base_seed, c0, 0) != replicate_seed(spec.base_seed, c0, 1)
    assert replicate_seed(spec.base_seed, some[0][0], 0) != replicate_seed(spec.base_seed, some[1][0], 0)


def micro_setup():
    world = line_world(
        n_nodes=4,
        building_offsets=[(0.0, 20.0), (100.0, 20.0), (200.0, 20.0)],
        shelter_specs=[(0, 3, 1000, False)],
    )
    profiles = [profile(i, i) for i in range(3)]
    params = EngineParams(nb_rescuers=1, fallback_tick_min=5, fallback_tick_max=20, max_ticks=400)
    spec = SweepSpec(
        storm_levels=(1, 2), rainfall_codes=(0.25, 1.0), time_of_day_codes=(0.5,),
        thresholds=(0.7, 0.9), w_cdm_values=(0.2, 0.4), w_hrf_values=(0.2, 0.4),
        w_crf_values=(0.2, 0.4, 0.6), replications=2, base_seed=77,
    )
    return world, profiles, params, spec


def test_execute_row_shape_and_determinism():
    world, profiles, params, spec = micro_setup()
    rows = execute(spec, world, profiles, params, workers=1)
    valid = filter_valid(enumerate_combos(spec), FILTER_EXACT_ONE)
    assert len(rows) == len(valid) * spec.replications
    # combo-then-replicate order
    expected_order = [(c.index, rep) for c in valid for rep in range(spec.replications)]
    assert [(r.combo_index, r.replicate) for r in rows] == expected_order
    # replicates share parameters, differ in seed
    first = rows[0], rows[1]
    assert first[0].seed != first[1].seed
    assert (first[0].w_cdm, first[0].w_hrf, first[0].w_crf) == (first[1].w_cdm, first[1].w_hrf, first[1].w_crf)
    # byte-identical on re-execution
    again = execute(spec, world, profiles, params, workers=1)
    assert rows_to_csv(rows) == rows_to_csv(again)


def test_execute_worker_count_does_not_change_bytes():
    world, profiles, params, spec = micro_setup()
    serial = rows_to_csv(execute(spec, world, profiles, params, workers=1))
    parallel = rows_to_csv(execute(spec, world, profiles, params, workers=2))
    assert serial == parallel


def test_rows_csv_round_trip():
    world, profiles, params, spec = micro_setup()
    rows = execute(spec, world, profiles, params, workers=1)
    assert rows_from_csv(rows_to_csv(rows)) == rows


def test_rows_csv_rejects_truncated_other_than_0_or_1():
    world, profiles, params, spec = micro_setup()
    text = rows_to_csv(execute(spec, world, profiles, params, workers=1))
    lines = text.splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0] + ",yes"
    with pytest.raises(InputError, match="line 3: truncated must be 0 or 1"):
        rows_from_csv("\n".join(lines) + "\n")


def test_rows_csv_rejects_bad_header():
    with pytest.raises(InputError, match="header"):
        rows_from_csv("nope\n1,2\n")


def test_sweep_spec_round_trip():
    spec = default_sweep_spec()
    assert parse_sweep_spec(serialize_sweep_spec(spec)) == spec


def axis(elements):
    return st.lists(elements, min_size=1, max_size=4, unique=True).map(tuple)


codes = axis(st.floats(-10.0, 10.0))


@settings(max_examples=100, deadline=None)
@given(st.builds(
    SweepSpec,
    storm_levels=axis(st.sampled_from(sorted(STORM_CODES))),
    rainfall_codes=codes, time_of_day_codes=codes, thresholds=codes,
    w_cdm_values=codes, w_hrf_values=codes, w_crf_values=codes,
    replications=st.integers(1, 10**6),
    base_seed=st.integers(-2**63, 2**63),
    weight_filter=st.sampled_from([FILTER_EXACT_ONE, FILTER_AT_LEAST_ONE]),
))
def test_sweep_spec_round_trips_every_key(spec):
    # Non-default replications, base_seed and weight_filter: a serializer
    # that dropped one of their lines would parse back to the default.
    assert parse_sweep_spec(serialize_sweep_spec(spec)) == spec


def test_sweep_spec_validation():
    with pytest.raises(InputError, match="storm"):
        SweepSpec(
            storm_levels=(9,), rainfall_codes=(0.25,), time_of_day_codes=(0.5,),
            thresholds=(0.7,), w_cdm_values=(0.1,), w_hrf_values=(0.1,),
            w_crf_values=(0.1,),
        ).validate()
    with pytest.raises(InputError, match="replications"):
        parse_sweep_spec(serialize_sweep_spec(default_sweep_spec()).replace(
            "replications = 10", "replications = 0"))
    with pytest.raises(InputError, match="weight filter"):
        parse_sweep_spec(serialize_sweep_spec(default_sweep_spec()).replace(
            "weight_filter = exact_one", "weight_filter = sometimes"))
    with pytest.raises(InputError, match="missing key"):
        parse_sweep_spec("storm_levels = 1\n")


def test_sweep_spec_rejects_unknown_and_repeated_keys():
    text = serialize_sweep_spec(default_sweep_spec())
    typo = text.replace("replications = 10", "replicaitons = 2")
    with pytest.raises(InputError, match="line 9: unknown key 'replicaitons'"):
        parse_sweep_spec(typo)
    with pytest.raises(InputError, match="line 12: repeated key 'replications'"):
        parse_sweep_spec(text + "replications = 3\n")


def demo_grid_spec() -> SweepSpec:
    # 2 scenarios x 3 thresholds x 4 weight triples summing to one x 2 replicates
    return SweepSpec(
        storm_levels=(1, 2), rainfall_codes=(0.5,), time_of_day_codes=(1.0,),
        thresholds=(0.7, 0.8, 0.9), w_cdm_values=(0.2, 0.4), w_hrf_values=(0.2, 0.4),
        w_crf_values=(0.2, 0.4, 0.6), replications=2, base_seed=5,
    )


def combo_config(c, seed: int) -> RunConfig:
    return RunConfig(Scenario(STORM_CODES[c.storm_level], c.rainfall, c.time_of_day),
                     Weights(c.w_cdm, c.w_hrf, c.w_crf), c.threshold, seed)


def test_sweep_rows_equal_fresh_index_runs(demo_world, demo_profiles, demo_index):
    spec = demo_grid_spec()
    rows = execute(spec, demo_world, demo_profiles, workers=1)
    valid = filter_valid(enumerate_combos(spec), FILTER_EXACT_ONE)
    assert len(valid) == 24
    assert [(r.combo_index, r.replicate) for r in rows] == [
        (c.index, rep) for c in valid for rep in range(spec.replications)]
    by_key = {(r.combo_index, r.replicate): r for r in rows}
    for c in valid:
        for rep in range(spec.replications):
            seed = replicate_seed(spec.base_seed, c, rep)
            fresh = run(demo_index, combo_config(c, seed), collect_events=False)
            row = by_key[(c.index, rep)]
            assert row.seed == seed
            assert (row.evacuated, row.ticks, row.truncated) == (
                fresh.evacuated, fresh.ticks_elapsed, fresh.truncated)
    # the grid is not degenerate: thresholds and weights move the outcome
    assert len({r.evacuated for r in rows}) > 3


def test_execute_bytes_identical_across_worker_counts(demo_world, demo_profiles):
    spec = demo_grid_spec()
    texts = {workers: rows_to_csv(execute(spec, demo_world, demo_profiles, workers=workers))
             for workers in (1, 2, 3)}
    assert texts[1] == texts[2] == texts[3]


def test_sweep_validates_population_once(demo_world, demo_profiles, monkeypatch):
    calls = []
    real = engine.validate_profiles
    monkeypatch.setattr(engine, "validate_profiles",
                        lambda *args: calls.append(1) or real(*args))
    rows = execute(demo_grid_spec(), demo_world, demo_profiles, workers=1)
    assert len(rows) == 48
    assert len(calls) == 1


@pytest.mark.parametrize("workers", [1, 2])
def test_execute_runs_on_an_index_of_the_given_radius(workers):
    # Houses sit 20 m off the road: at 15 m no rescuer reaches one, so only
    # the fallback channel informs and the rows change.
    world, profiles, params, spec = micro_setup()
    near = replace(params, rescuer_radius=15.0)
    rows = execute(spec, world, profiles, near, workers=workers)
    index = WorldIndex(world, profiles, near)
    combos = {c.index: c for c in enumerate_combos(spec)}
    for row in rows:
        result = run(index, combo_config(combos[row.combo_index], row.seed), collect_events=False)
        assert (row.evacuated, row.ticks, row.truncated) == (
            result.evacuated, result.ticks_elapsed, result.truncated)
    assert rows != execute(spec, world, profiles, params, workers=1)
    with pytest.raises(InputError, match="rescuer_radius must be > 0"):
        execute(spec, world, profiles, replace(params, rescuer_radius=0.0), workers=workers)

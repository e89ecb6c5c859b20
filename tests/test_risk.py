import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evacsim.engine import EngineParams, RunConfig, WorldIndex
from evacsim.errors import InputError
from evacsim.geo import ProximityClass, proximity_classes
from evacsim.population import HouseholdProfile
from evacsim.risk import (
    CDM_MAX,
    CRF_MAX,
    HRF_MAX,
    STORM_CODES,
    Scenario,
    WarningSource,
    Weights,
    cdm_score,
    crf_score,
    decide,
    hrf_score,
    highest_possible_score,
    perceived_risk,
)
from evacsim.sweep import default_sweep_spec, enumerate_combos
from helpers import (
    cdm_reference,
    crf_reference,
    events_of,
    households_of,
    run_with_final_state,
)


def make_profile(gender=0.5, educ=0.25, income=0.25, own=0.5, child=0.0, eld=0.0,
                 dis=0.0, years=0.5, quality=0.25, floors=0.5, exp=0.5):
    """One household's fields, keyed by name: what `cdm_score` and
    `crf_score` read of a household."""
    return vars(HouseholdProfile(
        id=0, head_gender=gender, educ_level=educ, income_level=income,
        house_ownership=own, has_children=child, has_elderly=eld,
        with_disability=dis, years_of_residency=years, house_quality=quality,
        floor_levels=floors, typhoon_experience=exp, members=4, building_id=0,
    ))


MIN_PROFILE = make_profile()
MAX_PROFILE = make_profile(gender=1.0, educ=1.0, income=1.0, own=1.0, child=1.0,
                           eld=1.0, dis=1.0, years=1.0, quality=1.0, floors=1.0, exp=1.0)


def straight_line_risk(p, s, proximity_code, source_code, epsilon, w):
    """Independent recomputation of perceived risk straight from the raw
    codes of household p, a HouseholdProfile."""
    hrf = s.storm_severity + s.rainfall_severity + proximity_code + source_code + s.time_of_day
    return cdm_reference(p) * w.w_cdm + hrf * w.w_hrf + crf_reference(p) * w.w_crf + epsilon


def max_factor_risk(w, epsilon):
    """The kernels' perceived risk of the top-coded household in the worst
    scenario, warned by the authorities from within the hazard zone."""
    s = Scenario.from_names(3, "red", "nighttime")
    hrf = hrf_score(s, ProximityClass.WITHIN.value, WarningSource.AUTHORITIES.value)
    return perceived_risk(cdm_score(MAX_PROFILE), hrf, crf_score(MAX_PROFILE), epsilon, w)


def test_cdm_worked_example():
    # female head, low income, grade school, children, renting, recent resident
    p = make_profile(gender=1.0, income=1.0, educ=1.0, child=1.0, eld=0.0,
                     dis=0.0, own=1.0, years=1.0)
    assert cdm_score(p) == 6.0


def test_cdm_extremes():
    assert cdm_score(MIN_PROFILE) == 2.0
    assert cdm_score(MAX_PROFILE) == 8.0
    assert CDM_MAX == 8.0


def test_hrf_worked_examples():
    mild = Scenario.from_names(1, "yellow", "daytime")
    assert hrf_score(mild, ProximityClass.FAR.value, WarningSource.FRIENDS.value) == 1.5

    worst = Scenario.from_names(3, "red", "nighttime")
    assert hrf_score(worst, ProximityClass.WITHIN.value,
                     WarningSource.AUTHORITIES.value) == 5.0 == HRF_MAX

    mid = Scenario.from_names(2, "orange", "nighttime")
    assert hrf_score(mid, ProximityClass.WITHIN.value, WarningSource.AUTHORITIES.value) == 4.0


def test_crf_worked_examples():
    assert crf_score(make_profile(quality=0.25, floors=0.5, exp=0.5)) == 1.25
    assert crf_score(make_profile(quality=1.0, floors=1.0, exp=1.0)) == 3.0 == CRF_MAX
    assert crf_score(make_profile(quality=0.5, floors=1.0, exp=0.5)) == 2.0


def test_highest_possible_score_spot_values():
    assert highest_possible_score(Weights(0.2, 0.5, 0.3)) == pytest.approx(5.0, abs=1e-12)
    assert highest_possible_score(Weights(1.0, 1.0, 1.0)) == pytest.approx(16.0, abs=1e-12)
    assert highest_possible_score(Weights(0.1, 0.8, 0.1)) == pytest.approx(5.1, abs=1e-12)


def test_perceived_risk_worked_example():
    # cdm 6, hrf 3, crf 2 at weights (.3, .4, .3): 1.8 + 1.2 + 0.6 = 3.6
    p = make_profile(gender=1.0, income=1.0, educ=1.0, child=1.0, own=1.0, years=1.0,
                     quality=0.5, floors=1.0, exp=0.5)
    s = Scenario.from_names(1, "yellow", "daytime")
    hrf = hrf_score(s, ProximityClass.WITHIN.value, WarningSource.AUTHORITIES.value)
    assert cdm_score(p) == 6.0 and hrf == 3.0 and crf_score(p) == 2.0
    value = perceived_risk(cdm_score(p), hrf, crf_score(p), 0.0, Weights(0.3, 0.4, 0.3))
    assert value == pytest.approx(3.6, abs=1e-12)


def test_perceived_equals_highest_at_max_factors():
    w = Weights(0.2, 0.5, 0.3)
    assert max_factor_risk(w, 0.0) == pytest.approx(highest_possible_score(w), abs=1e-12)


def test_perceived_risk_matches_straight_line_oracle():
    rng = random.Random(21)
    genders = [0.5, 1.0]
    triples = [0.25, 0.5, 1.0]
    binaries = [0.0, 1.0]
    halves = [0.5, 1.0]
    for _ in range(1000):
        p = make_profile(
            gender=rng.choice(genders), educ=rng.choice(triples), income=rng.choice(triples),
            own=rng.choice(halves), child=rng.choice(binaries), eld=rng.choice(binaries),
            dis=rng.choice(binaries), years=rng.choice(halves), quality=rng.choice(triples),
            floors=rng.choice(halves), exp=rng.choice(halves),
        )
        s = Scenario(rng.choice([0.25, 0.5, 1.0]), rng.choice([0.25, 0.5, 1.0]),
                     rng.choice([0.5, 1.0]))
        source = rng.choice(list(WarningSource))
        proximity = rng.choice(list(ProximityClass))
        epsilon = rng.uniform(0, 0.05)
        w = Weights(rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0))
        hrf = hrf_score(s, proximity.value, source.value)
        got = perceived_risk(cdm_score(p), hrf, crf_score(p), epsilon, w)
        expected = straight_line_risk(HouseholdProfile(**p), s, proximity.value, source.value,
                                      epsilon, w)
        assert got == pytest.approx(expected, abs=1e-12)


def test_engine_decisions_match_straight_line_oracle(demo_world, demo_profiles, demo_index):
    # One demo run with events on: every decided event's perceived risk is
    # the straight-line sum of that household's codes, its hazard proximity,
    # the source that informed it and its epsilon.
    households = households_of(demo_profiles)
    w = Weights(0.3, 0.4, 0.3)
    s = Scenario.from_names(2, "orange", "nighttime")
    cfg = RunConfig(scenario=s, weights=w, threshold=0.7, seed=11)
    _, state = run_with_final_state(demo_index, cfg)
    source = {hid: WarningSource(state.timeline.source[hid])
              for hid in state.timeline.inform_order}
    highest = 8.0 * w.w_cdm + 3.0 * w.w_crf + 5.0 * w.w_hrf
    decided = [e for e in events_of(state.events) if e.event == "decided"]
    assert len(decided) == len(households)
    assert {e.detail.split()[0] for e in decided} == {"evacuate", "stay"}
    proximity = proximity_classes(demo_world,
                                  [demo_world.buildings[p.building_id] for p in households])
    for e in decided:
        p = households[e.agent_id]
        oracle = straight_line_risk(p, s, proximity[e.agent_id].value, source[e.agent_id].value,
                                    state.timeline.epsilon[e.agent_id], w)
        decision, perceived, top = e.detail.split()
        assert perceived == f"perceived={oracle:.6f}"
        assert top == f"highest={highest:.6f}"
        assert decision == ("evacuate" if oracle > cfg.threshold * highest else "stay")


def test_memoised_risk_matches_straight_line_oracle_on_the_grid(demo_world, demo_profiles,
                                                                demo_index):
    # The array the runs of one seed read, for every household under every
    # (scenario, weights) pair of the paper grid's 1,296 combinations, is
    # the straight-line sum of the raw codes, bit for bit.
    seed = 11
    households = households_of(demo_profiles)
    timeline = demo_index.inform_timeline(seed)
    source = {hid: timeline.source[hid] for hid in timeline.inform_order}
    assert len(source) == len(households)
    houses = [demo_world.buildings[p.building_id] for p in households]
    proximity = proximity_classes(demo_world, houses)
    combos = enumerate_combos(default_sweep_spec())
    assert len(combos) == 1296
    for c in combos:
        s = Scenario(STORM_CODES[c.storm_level], c.rainfall, c.time_of_day)
        w = Weights(c.w_cdm, c.w_hrf, c.w_crf)
        oracle = [straight_line_risk(p, s, proximity[i].value, source[i], timeline.epsilon[i], w)
                  for i, p in enumerate(households)]
        assert demo_index.perceived(seed, s, w).tolist() == oracle


def test_memoised_risk_reads_each_households_source(demo_world, demo_profiles):
    # No rescuers, and a tick limit inside the fallback window: the channel
    # informs some households by friends, some by media and the rest never.
    # The array holds each informed household's own straight-line risk and
    # NaN for the others, which never decide.
    index = WorldIndex(demo_world, demo_profiles, EngineParams(
        nb_rescuers=0, fallback_tick_min=1, fallback_tick_max=6, max_ticks=3))
    seed = 3
    timeline = index.inform_timeline(seed)
    source = {hid: WarningSource(timeline.source[hid]) for hid in timeline.inform_order}
    assert set(source.values()) == {WarningSource.FRIENDS, WarningSource.MEDIA}
    assert 0 < len(source) < len(demo_profiles["id"])
    s = Scenario.from_names(2, "orange", "nighttime")
    w = Weights(0.3, 0.4, 0.3)
    got = index.perceived(seed, s, w)
    households = households_of(demo_profiles)
    proximity = proximity_classes(demo_world, [demo_world.buildings[p.building_id]
                                               for p in households])
    for i, p in enumerate(households):
        if i in source:
            assert got[i] == straight_line_risk(p, s, proximity[i].value, source[i].value,
                                                timeline.epsilon[i], w)
        else:
            assert np.isnan(got[i])


def test_decide_worked_example():
    assert decide(3.6, 5.3, 0.7) is False  # 3.6 <= 3.71: stay


def test_decide_tie_means_stay():
    # 0.5 * 7.0 is exactly representable, so this is a true float tie
    assert decide(3.5, 7.0, 0.5) is False
    assert decide(5.3, 5.3, 1.0) is False


def test_decide_on_an_array_ties_mean_stay():
    # 0.5 * 7.0 == 3.5 exactly: the tie stays, one ulp above it evacuates.
    perceived = np.array([3.5, np.nextafter(3.5, 4.0), np.nextafter(3.5, 3.0), 0.0])
    assert decide(perceived, 7.0, 0.5).tolist() == [False, True, False, False]


def test_decide_epsilon_pushes_over_max():
    w = Weights(0.2, 0.5, 0.3)
    assert decide(max_factor_risk(w, 0.05), highest_possible_score(w), 1.0) is True


def test_scenario_rejects_unrepresentable_codes():
    with pytest.raises(InputError, match="PSWS"):
        Scenario.from_names(4, "red", "daytime")
    with pytest.raises(InputError):
        Scenario(0.3, 0.25, 0.5)
    with pytest.raises(InputError, match="epsilon"):
        EngineParams(epsilon_max=0.06)


def test_monotone_in_each_hazard_code():
    p = make_profile(quality=0.5, floors=1.0, exp=0.5)
    w = Weights(0.3, 0.4, 0.3)
    storms = [0.25, 0.5, 1.0]
    rains = [0.25, 0.5, 1.0]
    times = [0.5, 1.0]
    proxes = [ProximityClass.FAR, ProximityClass.NEAR, ProximityClass.WITHIN]
    sources = [WarningSource.FRIENDS, WarningSource.MEDIA, WarningSource.AUTHORITIES]
    def value(storm, rain, tod, prox, src):
        hrf = hrf_score(Scenario(storm, rain, tod), prox.value, src.value)
        return perceived_risk(cdm_score(p), hrf, crf_score(p), 0.01, w)
    base_combos = list(itertools.product(storms, rains, times, proxes, sources))
    for storm, rain, tod, prox, src in base_combos:
        v = value(storm, rain, tod, prox, src)
        for storm2 in storms:
            if storm2 >= storm:
                assert value(storm2, rain, tod, prox, src) >= v - 1e-12
        for rain2 in rains:
            if rain2 >= rain:
                assert value(storm, rain2, tod, prox, src) >= v - 1e-12
        if tod == 0.5:
            assert value(storm, rain, 1.0, prox, src) >= v - 1e-12
        for prox2 in proxes:
            if prox2.value >= prox.value:
                assert value(storm, rain, tod, prox2, src) >= v - 1e-12
        for src2 in sources:
            if src2.value >= src.value:
                assert value(storm, rain, tod, prox, src2) >= v - 1e-12


@settings(max_examples=100, deadline=None)
@given(
    perceived=st.floats(min_value=0.1, max_value=16.0),
    highest=st.floats(min_value=0.1, max_value=16.0),
    threshold=st.floats(min_value=0.0, max_value=1.0),
    k=st.floats(min_value=0.01, max_value=100.0),
)
def test_decide_scale_covariant(perceived, highest, threshold, k):
    # ties can flip either way under float scaling; skip razor-edge cases
    if abs(perceived - threshold * highest) > 1e-9 * max(1.0, highest):
        scaled = decide(perceived * k, highest * k, threshold)
        assert decide(perceived, highest, threshold) is scaled


def test_exhaustive_code_enumeration_bounds():
    # full cross of decision-maker, hazard, and capacity code combinations
    cdm_axes = [[0.5, 1.0], [0.25, 0.5, 1.0], [0.25, 0.5, 1.0], [0.5, 1.0],
                [0.0, 1.0], [0.0, 1.0], [0.0, 1.0], [0.5, 1.0]]
    hrf_axes = [[0.25, 0.5, 1.0], [0.25, 0.5, 1.0], [0.25, 0.5, 1.0],
                [0.25, 0.5, 1.0], [0.5, 1.0]]
    crf_axes = [[0.25, 0.5, 1.0], [0.5, 1.0], [0.5, 1.0]]
    cdm_sums = np.array([sum(c) for c in itertools.product(*cdm_axes)])
    hrf_sums = np.array([sum(c) for c in itertools.product(*hrf_axes)])
    crf_sums = np.array([sum(c) for c in itertools.product(*crf_axes)])
    assert len(cdm_sums) == 576 and len(hrf_sums) == 162 and len(crf_sums) == 12
    assert cdm_sums.min() == 2.0 and cdm_sums.max() == 8.0
    assert hrf_sums.min() == 1.5 and hrf_sums.max() == 5.0
    assert crf_sums.min() == 1.25 and crf_sums.max() == 3.0
    for w in (Weights(0.2, 0.5, 0.3), Weights(0.1, 0.1, 0.8), Weights(0.8, 0.1, 0.1)):
        highest = highest_possible_score(w)
        lowest = 2.0 * w.w_cdm + 1.5 * w.w_hrf + 1.25 * w.w_crf
        grid = (w.w_cdm * cdm_sums[:, None, None]
                + w.w_hrf * hrf_sums[None, :, None]
                + w.w_crf * crf_sums[None, None, :])
        assert grid.max() <= highest + 1e-12
        assert grid.min() >= lowest - 1e-12

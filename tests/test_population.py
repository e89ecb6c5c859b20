import itertools
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from evacsim.geo import Point, World
from evacsim.population import (
    CODED_FIELDS,
    PopulationError,
    PopulationSpec,
    default_population_spec,
    load_population,
    parse_population,
    parse_population_spec,
    serialize_population,
    serialize_population_spec,
    synthesize,
    validate_profiles,
)


def big_bare_world(n_buildings: int) -> World:
    nodes = {0: Point(0.0, 0.0), 1: Point(100.0, 0.0)}
    buildings = {i: Point(float(i % 300), float(i // 300)) for i in range(n_buildings)}
    return World(nodes=nodes, edges=[(0, 1, 100.0)], buildings=buildings,
                 waterways=[], shelters=[], rescuer_starts=[])


def test_demo_population_count(demo_profiles):
    assert len(demo_profiles) == 570


def test_synthesize_is_deterministic(demo_world):
    spec = default_population_spec()
    a = synthesize(spec, demo_world, seed=9)
    b = synthesize(spec, demo_world, seed=9)
    assert a == b
    c = synthesize(spec, demo_world, seed=10)
    assert a != c


def test_synthesize_rejects_count_over_buildings():
    spec = default_population_spec(count=11)
    with pytest.raises(PopulationError, match="11 households on 10 buildings"):
        synthesize(spec, big_bare_world(10), seed=0)


def test_degenerate_spec_gives_identical_codes():
    dists = {
        name: {cat: (1.0 if i == 0 else 0.0) for i, cat in enumerate(cats)}
        for name, cats in CODED_FIELDS.items()
    }
    spec = PopulationSpec(count=50, distributions=dists,
                          members_min=3, members_max=3, members_mean=3)
    profiles = synthesize(spec, big_bare_world(60), seed=4)
    first = profiles[0]
    for p in profiles:
        for name in CODED_FIELDS:
            assert getattr(p, name) == getattr(first, name)
        assert p.members == 3


def test_field_frequencies_match_spec_within_two_percent():
    spec = default_population_spec(count=10_000)
    profiles = synthesize(spec, big_bare_world(10_500), seed=123)
    for name, cats in CODED_FIELDS.items():
        counts = Counter(getattr(p, name) for p in profiles)
        for cat, code in cats.items():
            want = spec.distributions[name].get(cat, 0.0)
            got = counts.get(code, 0) / len(profiles)
            assert abs(got - want) <= 0.02, (name, cat, got, want)
    mean_members = sum(p.members for p in profiles) / len(profiles)
    assert abs(mean_members - spec.members_mean) < 0.1
    assert all(spec.members_min <= p.members <= spec.members_max for p in profiles)


def test_building_assignment_is_injective(demo_profiles):
    buildings = [p.building_id for p in demo_profiles]
    assert len(set(buildings)) == len(buildings)


def test_cdm_sum_bounds_by_exhaustive_enumeration():
    cdm_fields = ["head_gender", "educ_level", "income_level", "house_ownership",
                  "has_children", "has_elderly", "with_disability", "years_of_residency"]
    axes = [sorted(CODED_FIELDS[f].values()) for f in cdm_fields]
    sums = [sum(combo) for combo in itertools.product(*axes)]
    assert min(sums) == 2.0
    assert max(sums) == 8.0
    assert len(sums) == 2 * 3 * 3 * 2 * 2 * 2 * 2 * 2


def test_csv_round_trip(tmp_path, demo_world, demo_profiles):
    path = tmp_path / "pop.csv"
    path.write_text(serialize_population(demo_profiles), encoding="utf-8")
    again = load_population(str(path), demo_world)
    assert again == demo_profiles


def test_csv_line_count(demo_profiles):
    text = serialize_population(demo_profiles)
    assert len(text.splitlines()) == 571
    assert serialize_population([]).splitlines() == [
        "id,head_gender,educ_level,income_level,house_ownership,has_children,"
        "has_elderly,with_disability,years_of_residency,house_quality,"
        "floor_levels,typhoon_experience,members,building_id"
    ]


def test_bad_code_names_row_and_column(demo_profiles):
    text = serialize_population(demo_profiles[:3])
    lines = text.splitlines()
    cells = lines[1].split(",")
    cells[2] = "0.3"  # educ_level column
    lines[1] = ",".join(cells)
    with pytest.raises(PopulationError, match="row 2: educ_level"):
        parse_population("\n".join(lines))


def test_duplicate_building_rejected(demo_profiles):
    text = serialize_population(demo_profiles[:2])
    lines = text.splitlines()
    row2 = lines[2].split(",")
    row2[-1] = lines[1].split(",")[-1]
    lines[2] = ",".join(row2)
    with pytest.raises(PopulationError, match="more than one household"):
        parse_population("\n".join(lines))


def test_header_mismatch_rejected():
    with pytest.raises(PopulationError, match="header"):
        parse_population("id,foo\n1,2\n")


def test_validate_profiles_checks_buildings(demo_world, demo_profiles):
    bad = demo_profiles[0].__class__(**{**demo_profiles[0].__dict__, "building_id": 10_000})
    with pytest.raises(PopulationError, match="unknown building"):
        validate_profiles([bad], demo_world)


def test_population_spec_round_trip():
    spec = default_population_spec()
    text = serialize_population_spec(spec)
    assert parse_population_spec(text) == spec


@st.composite
def population_specs(draw):
    distributions = {}
    for name, cats in CODED_FIELDS.items():
        weights = [draw(st.integers(0, 100)) for _ in cats]
        weights[draw(st.integers(0, len(cats) - 1))] += 1
        distributions[name] = {cat: w / sum(weights) for cat, w in zip(cats, weights)}
    members_min = draw(st.integers(1, 20))
    members_max = draw(st.integers(members_min, 30))
    return PopulationSpec(
        count=draw(st.integers(0, 10**6)),
        distributions=distributions,
        members_min=members_min,
        members_max=members_max,
        members_mean=draw(st.floats(members_min, members_max)),
    )


@settings(max_examples=100, deadline=None)
@given(population_specs())
def test_population_spec_round_trips_every_key(spec):
    assert parse_population_spec(serialize_population_spec(spec)) == spec


def test_population_spec_validation():
    spec = default_population_spec()
    bad = {k: dict(v) for k, v in spec.distributions.items()}
    bad["head_gender"]["male"] = 0.9  # sums to 1.45
    with pytest.raises(PopulationError, match="sum"):
        PopulationSpec(10, bad, 1, 10, 4.5).validate()
    with pytest.raises(PopulationError, match="unknown key"):
        parse_population_spec("count = 5\nmembers_min = 1\nmembers_max = 2\nmembers_mean = 1.5\nbogus = 1\n")
    with pytest.raises(PopulationError, match="unknown category"):
        parse_population_spec("count = 5\nhead_gender.alien = 0.5\n")


def test_population_spec_rejects_repeated_keys():
    text = serialize_population_spec(default_population_spec())
    lines = len(text.splitlines())
    with pytest.raises(PopulationError, match=f"line {lines + 1}: repeated key 'count'"):
        parse_population_spec(text + "count = 3\n")
    with pytest.raises(PopulationError, match=f"line {lines + 1}: repeated key 'head_gender.male'"):
        parse_population_spec(text + "head_gender.male = 0.5\n")

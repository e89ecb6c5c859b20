import hashlib
import itertools
from collections import Counter
from dataclasses import astuple, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from evacsim import population
from evacsim.engine import EngineParams, WorldIndex
from evacsim.errors import InputError
from evacsim.geo import Point, World
from evacsim.population import (
    CODED_FIELDS,
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
from helpers import (
    ODD_CELLS,
    POPULATION_HEADER,
    cdm_reference,
    crf_reference,
    households_of,
    line_world,
    parse_population_reference,
    population_of,
)


def big_bare_world(n_buildings: int) -> World:
    nodes = {0: Point(0.0, 0.0), 1: Point(100.0, 0.0)}
    buildings = {i: Point(float(i % 300), float(i // 300)) for i in range(n_buildings)}
    return World(nodes=nodes, edges=[(0, 1, 100.0)], buildings=buildings,
                 waterways=[], shelters=[], rescuer_starts=[])


@pytest.fixture(scope="module")
def demo_households(demo_profiles):
    """The demo population's households, as rows."""
    return households_of(demo_profiles)


def test_demo_population_count(demo_profiles):
    # One column per HouseholdProfile field, in field order.
    assert list(demo_profiles) == POPULATION_HEADER.split(",")
    assert {len(column) for column in demo_profiles.values()} == {570}


def test_synthesize_is_deterministic(demo_world):
    spec = default_population_spec()
    a = households_of(synthesize(spec, demo_world, seed=9))
    b = households_of(synthesize(spec, demo_world, seed=9))
    assert a == b
    c = households_of(synthesize(spec, demo_world, seed=10))
    assert a != c


def test_synthesize_rejects_count_over_buildings():
    spec = default_population_spec(count=11)
    with pytest.raises(InputError, match="11 households on 10 buildings"):
        synthesize(spec, big_bare_world(10), seed=0)


def test_degenerate_spec_gives_identical_codes():
    dists = {
        name: {cat: (1.0 if i == 0 else 0.0) for i, cat in enumerate(cats)}
        for name, cats in CODED_FIELDS.items()
    }
    spec = PopulationSpec(count=50, distributions=dists,
                          members_min=3, members_max=3, members_mean=3)
    profiles = households_of(synthesize(spec, big_bare_world(60), seed=4))
    first = profiles[0]
    for p in profiles:
        for name in CODED_FIELDS:
            assert getattr(p, name) == getattr(first, name)
        assert p.members == 3


def test_field_frequencies_match_spec_within_two_percent():
    spec = default_population_spec(count=10_000)
    profiles = households_of(synthesize(spec, big_bare_world(10_500), seed=123))
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
    buildings = demo_profiles["building_id"].tolist()
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
    assert exactly(households_of(again)) == exactly(households_of(demo_profiles))
    assert {name: column.dtype for name, column in again.items()} == {
        name: column.dtype for name, column in demo_profiles.items()}


def test_csv_line_count(demo_profiles):
    text = serialize_population(demo_profiles)
    assert len(text.splitlines()) == 571
    assert serialize_population(population_of([])).splitlines() == [
        "id,head_gender,educ_level,income_level,house_ownership,has_children,"
        "has_elderly,with_disability,years_of_residency,house_quality,"
        "floor_levels,typhoon_experience,members,building_id"
    ]


def test_csv_bytes_are_pinned(demo_profiles):
    # Recorded from the hand-written writer this one replaced.
    text = serialize_population(demo_profiles)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "75dc96c93a379b8e9d2d073017ecd6a9f241c8042e391683a5f7540ef1cf7f79")


@pytest.mark.parametrize("col, field", [(0, "id"), (5, "has_children"), (12, "members"),
                                        (13, "building_id")])
def test_unparseable_cell_names_row_and_field(demo_households, col, field):
    lines = serialize_population(population_of(demo_households[:3])).splitlines()
    cells = lines[2].split(",")
    cells[col] = "many"
    lines[2] = ",".join(cells)
    with pytest.raises(InputError, match=f"row 3: {field}$"):
        parse_population("\n".join(lines))


def test_bad_code_names_row_and_column(demo_households):
    text = serialize_population(population_of(demo_households[:3]))
    lines = text.splitlines()
    cells = lines[1].split(",")
    cells[2] = "0.3"  # educ_level column
    lines[1] = ",".join(cells)
    with pytest.raises(InputError, match="row 2: educ_level"):
        parse_population("\n".join(lines))


def edited(profiles, row: int, col: int, cell: str | None) -> str:
    """The population file of profiles with one cell replaced (or, if cell
    is None, dropped) in file row `row`, counting the header as row 1."""
    lines = serialize_population(profiles).splitlines()
    cells = lines[row - 1].split(",")
    if cell is None:
        del cells[col]
    else:
        cells[col] = cell
    lines[row - 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("edit, message", [
    (lambda ps: "", "population CSV is empty"),
    (lambda ps: "id,foo\n1,2\n",
     f"population CSV header mismatch: expected {POPULATION_HEADER!r}"),
    (lambda ps: edited(ps, 3, 13, None), "row 3: expected 14 cells"),
    (lambda ps: edited(ps, 3, 12, "many"), "row 3: members"),
    (lambda ps: edited(ps, 2, 2, "0.3"),
     "row 2: educ_level code 0.3 is not one of [0.25, 0.5, 1.0]"),
    (lambda ps: edited(ps, 2, 12, "0"), "row 2: members must be >= 1"),
    (lambda ps: edited(ps, 2, 1, "nan"), "row 2: head_gender"),
    (lambda ps: edited(ps, 2, 0, '"0"'), "row 2: id"),
    (lambda ps: serialize_population(ps).replace("\n", "\n \n", 1), None),
    (lambda ps: edited(ps, 2, 13, str(2**64)), "row 2: building_id"),
], ids=["empty", "header", "cell-count", "unparseable", "bad-code", "members-0", "nan-code",
        "quoted-cell", "whitespace-line", "huge-int"])
def test_population_error_texts(demo_world, demo_households, edit, message):
    """The error a population file gets from parsing and from the check
    that it fits the world, or None if it is read."""
    try:
        validate_profiles(parse_population(edit(population_of(demo_households[:3]))), demo_world)
    except InputError as exc:
        assert str(exc) == message
    else:
        assert message is None


def test_duplicate_building_rejected(demo_world, demo_households):
    # Parsing reads each row alone; the world index built on the population
    # is the one owner of the check that its households fit together.
    text = serialize_population(population_of(demo_households[:2]))
    lines = text.splitlines()
    row2 = lines[2].split(",")
    row2[-1] = lines[1].split(",")[-1]
    lines[2] = ",".join(row2)
    profiles = parse_population("\n".join(lines))
    with pytest.raises(InputError, match="more than one household"):
        WorldIndex(demo_world, profiles)


def test_header_mismatch_rejected():
    with pytest.raises(InputError, match="header"):
        parse_population("id,foo\n1,2\n")


def test_validate_profiles_checks_buildings(demo_world, demo_households):
    bad = replace(demo_households[0], building_id=10_000)
    with pytest.raises(InputError, match="unknown building"):
        validate_profiles(population_of([bad]), demo_world)


@pytest.mark.parametrize("ids, message", [
    ([0, 0, 2], "household 1 has id 0: ids must be 0..2 in row order"),
    ([1, 0, 2], "household 0 has id 1: ids must be 0..2 in row order"),
    ([0, 1, 3], "household 2 has id 3: ids must be 0..2 in row order"),
    ([-1, 0, 1], "household 0 has id -1: ids must be 0..2 in row order"),
])
def test_ids_must_be_row_positions(demo_world, demo_households, ids, message):
    profiles = [replace(p, id=i) for p, i in zip(demo_households, ids)]
    with pytest.raises(InputError) as refused:
        validate_profiles(population_of(profiles), demo_world)
    assert str(refused.value) == message
    validate_profiles(population_of(demo_households[:3]), demo_world)


# Ways to write each code that read back as it.
SPELLINGS = {0.0: ["0.0", "0", "-0.0"], 0.25: ["0.25", "0.250", "2.5e-1"],
             0.5: ["0.5", ".5", "5e-1"], 1.0: ["1.0", "1", "1e0"]}


def population_cell(name):
    if name in CODED_FIELDS:
        return st.sampled_from([cell for code in sorted(set(CODED_FIELDS[name].values()))
                                for cell in SPELLINGS[code]])
    return st.integers(1, 12).map(str)


POPULATION_CELLS = st.tuples(*(population_cell(name) for name in POPULATION_HEADER.split(",")))
BAD_POPULATION_CELLS = st.sampled_from(
    ["", "x", "0", "-1", "0.3", "nan", "inf", " 7 ", "+3", "1_000", '"0"', "2", "1e3", "1.0",
     "1e999", str(2**63), str(-2**63 - 1), "\u0661\u0662", *ODD_CELLS])


def exactly(profiles):
    """Each value with its type, so that 1 != 1.0 and -0.0 != 0.0."""
    return [[(type(v), repr(v)) for v in astuple(p)] for p in profiles]


def read_or_refuse(read, text):
    """exactly() the households read(text) returns, as rows or as columns,
    or its InputError's text."""
    try:
        households = read(text)
    except InputError as exc:
        return str(exc)
    return exactly(households_of(households) if isinstance(households, dict) else households)


@settings(max_examples=150, deadline=None)
@given(
    body=st.lists(POPULATION_CELLS, max_size=12).map(lambda rows: [",".join(r) for r in rows]),
    data=st.data(),
    chunk_lines=st.sampled_from([1, 2, 5, 8192]),
    newline=st.sampled_from(["\n", "\r\n"]),
)
def test_population_csv_matches_the_line_by_line_reader(body, data, chunk_lines, newline):
    lines = [POPULATION_HEADER] + body
    for _ in range(data.draw(st.integers(0, 2))):
        lines.insert(data.draw(st.integers(1, len(lines))),
                     data.draw(st.sampled_from(["", " ", "\t", "\x0c"])))
    if body and data.draw(st.booleans()):
        i = data.draw(st.sampled_from([i for i, line in enumerate(lines) if i and line.strip()]))
        cells = lines[i].split(",")
        how = data.draw(st.sampled_from(["replace", "drop", "add"]))
        if how == "replace":
            cells[data.draw(st.integers(0, 13))] = data.draw(BAD_POPULATION_CELLS)
        elif how == "drop":
            del cells[data.draw(st.integers(0, 13))]
        else:
            cells.append(data.draw(BAD_POPULATION_CELLS))
        lines[i] = ",".join(cells)
    text = newline.join(lines) + newline
    with mock.patch.object(population, "_CHUNK_LINES", chunk_lines):
        assert read_or_refuse(parse_population, text) == read_or_refuse(
            parse_population_reference, text)


@pytest.mark.parametrize("col", [0, 1, 12])
def test_cells_numpy_reads_otherwise_read_like_the_line_by_line_reader(demo_households, col):
    # Each cell alone in an otherwise plain file, so that only the cell
    # decides which reader takes the chunk.
    for cell in (*ODD_CELLS, "1.0", "1e3", "1e999", "+1", "01"):
        text = edited(population_of(demo_households[:3]), 3, col, cell)
        assert read_or_refuse(parse_population, text) == read_or_refuse(
            parse_population_reference, text), cell


@pytest.mark.parametrize("chunk_lines", [1, 2, 8192])
@pytest.mark.parametrize("rows", [(3, 4), (4, 5)], ids=["rows-3-4", "rows-4-5"])
@pytest.mark.parametrize("code_first", [True, False], ids=["code-first", "cell-first"])
def test_of_two_bad_rows_the_earlier_is_reported(demo_households, chunk_lines, rows, code_first):
    # A bad code and a cell that does not parse, in either order, in rows
    # that share a chunk or not. Codes are checked on a chunk's columns once
    # all its cells parse; the earlier row's error must still be the one.
    bad_code, unparseable = (2, "0.3"), (12, "many")
    edits = (bad_code, unparseable) if code_first else (unparseable, bad_code)
    lines = serialize_population(population_of(demo_households[:6])).splitlines()
    for row, (col, cell) in zip(rows, edits):
        cells = lines[row - 1].split(",")
        cells[col] = cell
        lines[row - 1] = ",".join(cells)
    text = "\n".join(lines) + "\n"
    message = (f"row {rows[0]}: educ_level code 0.3 is not one of [0.25, 0.5, 1.0]" if code_first
               else f"row {rows[0]}: members")
    with mock.patch.object(population, "_CHUNK_LINES", chunk_lines):
        assert read_or_refuse(parse_population, text) == message
    assert read_or_refuse(parse_population_reference, text) == message


def assert_scores_are_the_per_household_sums(index, households):
    for got, reference in ((index.cdm, cdm_reference), (index.crf, crf_reference)):
        want = np.array([reference(h) for h in households], dtype=float)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_index_scores_are_the_per_household_sums_on_the_demo(demo_index, demo_households):
    assert_scores_are_the_per_household_sums(demo_index, demo_households)


# One row of the smallest code of every coded field, each in the last of its
# spellings: `-0.0` for a binary field.
SMALLEST_LAST = tuple(SPELLINGS[min(codes.values())][-1] for codes in CODED_FIELDS.values())


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(*(population_cell(name) for name in CODED_FIELDS)), max_size=8))
@example([SMALLEST_LAST])
def test_index_scores_are_the_per_household_sums_for_every_code_spelling(codes):
    lines = [POPULATION_HEADER] + [",".join([str(i), *row, "1", str(i)])
                                   for i, row in enumerate(codes)]
    read = parse_population("\n".join(lines) + "\n")
    world = line_world(n_nodes=2, building_offsets=[(10.0 * i, 20.0) for i in range(len(codes))])
    index = WorldIndex(world, read, EngineParams(nb_rescuers=0))
    assert_scores_are_the_per_household_sums(index, households_of(read))


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
    with pytest.raises(InputError, match="sum"):
        PopulationSpec(10, bad, 1, 10, 4.5)
    with pytest.raises(InputError, match="unknown key"):
        parse_population_spec("count = 5\nmembers_min = 1\nmembers_max = 2\nmembers_mean = 1.5\nbogus = 1\n")
    with pytest.raises(InputError, match="unknown category"):
        parse_population_spec("count = 5\nhead_gender.alien = 0.5\n")


def test_population_spec_rejects_repeated_keys():
    text = serialize_population_spec(default_population_spec())
    lines = len(text.splitlines())
    with pytest.raises(InputError, match=f"line {lines + 1}: repeated key 'count'"):
        parse_population_spec(text + "count = 3\n")
    with pytest.raises(InputError, match=f"line {lines + 1}: repeated key 'head_gender.male'"):
        parse_population_spec(text + "head_gender.male = 0.5\n")

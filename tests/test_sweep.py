import hashlib
import itertools
import math
import multiprocessing
from concurrent import futures
from dataclasses import astuple, fields, replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from evacsim import engine, population, sweep
from evacsim.engine import EngineParams, RunConfig, WorldIndex, run
from evacsim.errors import InputError
from evacsim.population import default_population_spec, record_fields
from evacsim.risk import STORM_CODES, Scenario, Weights
from evacsim.sweep import (
    FILTER_AT_LEAST_ONE,
    FILTER_EXACT_ONE,
    RESULTS_HEADER,
    SweepRow,
    SweepSpec,
    SweepTable,
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
from helpers import (
    ODD_CELLS,
    enumerate_combos_reference,
    line_world,
    population_of,
    rows_from_csv_reference,
)
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
    # The paper's grid has 18,432 points; the 1,296 whose weights sum to one
    # are enumerated, each numbered by its place among all 18,432.
    combos = enumerate_combos(default_sweep_spec())
    assert len(combos) == 1_296
    indexes = [c.index for c in combos]
    assert indexes == sorted(set(indexes))
    assert 0 <= indexes[0] and indexes[-1] < 18_432


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
    valid = enumerate_combos(spec)
    triples = brute_force_weight_triples(spec.w_cdm_values, "exact")
    assert triples == 36
    assert len(valid) == triples * 36  # 36 scenario x threshold combinations
    assert len(valid) == 1_296
    assert max(c.index for c in valid) < 18_432


def test_at_least_one_filter_matches_brute_force():
    spec = default_sweep_spec(weight_filter=FILTER_AT_LEAST_ONE)
    valid = enumerate_combos(spec)
    triples = brute_force_weight_triples(spec.w_cdm_values, "at_least")
    assert len(valid) == triples * 36
    assert len(valid) == 15_408
    assert max(c.index for c in valid) < 18_432


@pytest.mark.parametrize("mode", [FILTER_EXACT_ONE, FILTER_AT_LEAST_ONE])
@pytest.mark.parametrize("grid", ["default", "micro"])
def test_enumeration_is_the_full_product_filtered(grid, mode):
    spec = replace(default_sweep_spec() if grid == "default" else micro_setup()[3],
                   weight_filter=mode)
    combos = enumerate_combos(spec)
    assert combos == enumerate_combos_reference(spec)
    assert filter_valid(combos, mode) == combos


def test_filter_examples():
    def combos(mode, w_cdm, w_hrf, w_crf):
        return enumerate_combos(default_sweep_spec(
            w_cdm_values=(w_cdm,), w_hrf_values=(w_hrf,), w_crf_values=(w_crf,),
            weight_filter=mode))

    for mode in (FILTER_EXACT_ONE, FILTER_AT_LEAST_ONE):
        assert combos(mode, 0.1, 0.1, 0.1) == []
        edge = combos(mode, 0.8, 0.1, 0.1)
        assert len(edge) == 36  # one per scenario and threshold
        low = [replace(c, w_cdm=0.1) for c in edge]
        assert filter_valid(edge + low, mode) == edge


def test_seeds_pair_across_thresholds():
    spec = default_sweep_spec()
    combos = enumerate_combos(spec)
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
    profiles = population_of([profile(i, i) for i in range(3)])
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
    valid = enumerate_combos(spec)
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


@pytest.mark.parametrize("axis, value, message", [
    ("rainfall_codes", 0.3, "rainfall code 0.3 invalid"),
    ("time_of_day_codes", 7.0, "time-of-day code 7.0 invalid"),
    ("thresholds", 1.5, "threshold 1.5 outside [0, 1]"),
    ("thresholds", math.nan, "threshold nan outside [0, 1]"),
], ids=["rainfall", "time-of-day", "threshold", "threshold-nan"])
def test_sweep_refuses_a_bad_axis_value_when_the_filter_keeps_no_triple(axis, value, message):
    # 0.1 + 0.1 + 0.1 passes no weight filter, so no run's config would
    # see the bad value.
    spec = replace(default_sweep_spec(), w_cdm_values=(0.1,), w_hrf_values=(0.1,),
                   w_crf_values=(0.1,), **{axis: (value,)})
    assert enumerate_combos(spec) == []
    world, profiles, params, _ = micro_setup()
    with pytest.raises(InputError) as refused:
        execute(spec, world, profiles, params)
    assert str(refused.value) == message


class FakePool:
    """A ProcessPoolExecutor that starts no process: it records its worker
    count and maps in the calling process."""

    started: list[int] = []

    def __init__(self, max_workers, initializer, initargs):
        self.started.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return None

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


@pytest.mark.parametrize("replications, workers, started", [
    (1, 6, []),  # one seed group runs in the calling process
    (3, 6, [3]),
    (3, 2, [2]),
])
def test_a_sweep_starts_no_more_workers_than_seed_groups(monkeypatch, replications, workers,
                                                          started):
    world, profiles, params, spec = micro_setup()
    spec = replace(spec, storm_levels=(1,), rainfall_codes=(0.25,), w_cdm_values=(0.2,),
                   w_hrf_values=(0.2,), w_crf_values=(0.6,), replications=replications)
    serial = rows_to_csv(execute(spec, world, profiles, params, workers=1))
    monkeypatch.setattr(FakePool, "started", [])
    monkeypatch.setattr(sweep, "_worker_index", None)
    monkeypatch.setattr(sweep.futures, "ProcessPoolExecutor", FakePool)
    assert rows_to_csv(execute(spec, world, profiles, params, workers=workers)) == serial
    assert FakePool.started == started


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


def test_rows_csv_bytes_are_pinned():
    # Recorded from the hand-written writer this one replaced. The last row
    # holds ints in its float fields: they still print as floats.
    world, profiles, params, spec = micro_setup()
    rows = execute(spec, world, profiles, params, workers=1)
    rows.append(SweepRow(1, 2, 3, 1, 1, 1, 0, 1, 0, 0, 4, 5, True))
    text = rows_to_csv(rows)
    assert text.splitlines()[-1] == "1,2,3,1,1.0,1.0,0.0,1.0,0.0,0.0,4,5,1"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "5d943ba6964a7ab71b63ef348b6b649b8ff1af4d2722a89812748cdbba1ba76e")


@pytest.mark.parametrize("col, cell, error", [
    (0, "x", "line 3: invalid literal for int"),
    (4, "wet", "line 3: could not convert string to float: 'wet'"),
    (12, "", "line 3: truncated must be 0 or 1, got ''"),
])
def test_rows_csv_rejects_a_bad_cell(col, cell, error):
    text = rows_to_csv([SweepRow(0, r, 9, 1, 0.25, 0.5, 0.7, 0.2, 0.2, 0.6, 3, 50, False)
                        for r in range(2)])
    lines = text.splitlines()
    cells = lines[2].split(",")
    cells[col] = cell
    lines[2] = ",".join(cells)
    with pytest.raises(InputError, match=error):
        rows_from_csv("\n".join(lines) + "\n")
    lines[2] = ",".join(cells[:-1])
    with pytest.raises(InputError, match="line 3: expected 13 cells"):
        rows_from_csv("\n".join(lines) + "\n")


def test_rows_csv_rejects_bad_header():
    with pytest.raises(InputError, match="header"):
        rows_from_csv("nope\n1,2\n")


def test_sweep_table_is_a_list_of_rows():
    rows = [SweepRow(0, r, 2**64 - 1 - r, 1, 0.25, -0.0, 0.7, 0.2, 0.2, 0.6, 3 * r, 50, r == 1)
            for r in range(3)]
    table = rows_from_csv(rows_to_csv(rows))
    assert len(table) == 3
    assert table == rows and rows == table and not table != rows
    assert table == SweepTable.from_rows(rows)
    assert table != rows[:2]
    assert [tuple(map(type, astuple(r))) for r in table] == [
        (int, int, int, int, float, float, float, float, float, float, int, int, bool)] * 3
    assert rows_to_csv(list(table)) == rows_to_csv(rows)
    assert len(rows_from_csv(RESULTS_HEADER + "\n")) == 0


def results_lines(n):
    return rows_to_csv([SweepRow(i, 0, i, 1, 0.25, 0.5, 0.7, 0.2, 0.2, 0.6, i % 7, 50, False)
                        for i in range(n)]).splitlines()


def test_rows_csv_names_the_first_bad_line_after_the_first_chunk():
    # Line 1 is the header, so lines 2..8193 are the first chunk.
    lines = results_lines(9_000)
    lines[8_999] = lines[8_999].replace(",0.2,", ",0.2x,", 1)
    lines[8_500] = "   "  # a blank line counts in line numbers
    with pytest.raises(InputError, match="^results CSV line 9000: could not convert string "
                                         "to float: '0.2x'$"):
        rows_from_csv("\n".join(lines) + "\n")
    lines[8_600] = lines[8_600].rsplit(",", 1)[0]
    with pytest.raises(InputError, match="^results CSV line 8601: expected 13 cells$"):
        rows_from_csv("\n".join(lines) + "\n")


def test_rows_csv_counts_each_lines_cells():
    # A cell moved from line 3 to line 4 keeps the file's cell count, and
    # "1" parses in every column.
    text = "\n".join([RESULTS_HEADER, ",".join(["1"] * 13), ",".join(["1"] * 12),
                      ",".join(["1"] * 14)]) + "\n"
    with pytest.raises(InputError, match="^results CSV line 3: expected 13 cells$"):
        rows_from_csv(text)


def test_rows_csv_reads_crlf_lines():
    lines = results_lines(5)
    rows = rows_from_csv("\n".join(lines) + "\n")
    assert rows_from_csv("\r\n".join(lines) + "\r\n") == rows
    lines[4] = lines[4].replace(",50,", ",5.0,")
    with pytest.raises(InputError, match="^results CSV line 5: invalid literal for int"):
        rows_from_csv("\r\n".join(lines) + "\r\n")


def test_rows_csv_reports_an_earlier_line_before_an_earlier_column():
    lines = results_lines(5)
    lines[2] = lines[2][:-1] + "2"  # truncated, the last field, on line 3
    lines[4] = "x" + lines[4]  # combo_index, the first field, on line 5
    with pytest.raises(InputError, match="^results CSV line 3: truncated must be 0 or 1, got '2'$"):
        rows_from_csv("\n".join(lines) + "\n")


@pytest.mark.parametrize("col, cell, error", [
    (2, str(2**64), "line 3: seed does not fit in uint64"),
    (2, "-1", "line 3: seed does not fit in uint64"),
    (10, str(2**70), "line 3: evacuated does not fit in int64"),
    (0, str(-2**63 - 1), "line 3: combo_index does not fit in int64"),
])
def test_rows_csv_refuses_an_int_its_column_cannot_hold(col, cell, error):
    lines = results_lines(3)
    cells = lines[2].split(",")
    cells[col] = cell
    lines[2] = ",".join(cells)
    with pytest.raises(InputError, match=f"^results CSV {error}$"):
        rows_from_csv("\n".join(lines) + "\n")
    cells[col] = str(2**64 - 1) if col == 2 else str(-2**63)
    lines[2] = ",".join(cells)
    assert list(rows_from_csv("\n".join(lines) + "\n"))[1] == rows_from_csv_reference(
        "\n".join(lines) + "\n")[1]


def cell_strategy(name, kind):
    if kind is bool:
        return st.sampled_from(["0", "1"])
    if kind is float:
        return st.one_of(st.floats().map(repr), st.integers(-10**20, 10**20).map(str),
                         st.sampled_from(["-0.0", "5e-324", "2.225073858507201e-308"]))
    if name == "seed":
        return st.integers(0, 2**64 - 1).map(str)
    return st.integers(-2**63, 2**63 - 1).map(str)


RESULTS_CELLS = st.tuples(*(cell_strategy(name, kind)
                            for name, kind, _ in record_fields(SweepRow)))
BAD_CELLS = st.one_of(
    st.sampled_from(["", "x", "1.5", "nan", "-inf", " 7 ", "+3", "1_000", "0x1f", "yes", "2",
                     "-1", "1e3", "1.0", "1e999", " 1", "1 ", "01", "-0", str(2**63), str(2**64),
                     str(-2**63 - 1), "\u0661\u0662", *ODD_CELLS]),
    st.text(alphabet="0123456789.-+eEx _\x00\x0b\x0c\r\x1c\x1d\x1e\x1f#\"'\u0663", max_size=6),
)


def exactly(rows):
    """Each value with its type, so that True != 1 and -0.0 != 0.0."""
    return [[(type(v), repr(v)) for v in astuple(r)] for r in rows]


def read_or_refuse(read, text):
    """exactly() the rows read(text) returns, or the text of its InputError."""
    try:
        return exactly(read(text))
    except InputError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(
    body=st.lists(RESULTS_CELLS, max_size=12).map(lambda rows: [",".join(r) for r in rows]),
    data=st.data(),
    chunk_lines=st.sampled_from([1, 2, 5, 8192]),
)
def test_rows_csv_matches_the_line_by_line_reader(body, data, chunk_lines):
    lines = [RESULTS_HEADER] + body
    for _ in range(data.draw(st.integers(0, 2))):
        lines.insert(data.draw(st.integers(1, len(lines))),
                     data.draw(st.sampled_from(["", " ", "\t", "\x0c"])))
    if body and data.draw(st.booleans()):
        i = data.draw(st.sampled_from([i for i, line in enumerate(lines) if i and line.strip()]))
        cells = lines[i].split(",")
        how = data.draw(st.sampled_from(["replace", "drop", "add"]))
        if how == "replace":
            cells[data.draw(st.integers(0, 12))] = data.draw(BAD_CELLS)
        elif how == "drop":
            del cells[data.draw(st.integers(0, 12))]
        else:
            cells.append(data.draw(BAD_CELLS))
        lines[i] = ",".join(cells)
    text = "\n".join(lines) + "\n"
    with mock.patch.object(population, "_CHUNK_LINES", chunk_lines):
        assert read_or_refuse(rows_from_csv, text) == read_or_refuse(rows_from_csv_reference, text)


@pytest.mark.parametrize("field", ["combo_index", "seed", "rainfall", "evacuated", "truncated"])
def test_cells_numpy_reads_otherwise_read_like_the_line_by_line_reader(field):
    # Each cell alone on an otherwise plain line, so that only the cell
    # decides which reader takes the chunk.
    col = RESULTS_HEADER.split(",").index(field)
    for cell in (*ODD_CELLS, "1.0", "1e3", "1e999", "-1e999", " 1", "1 ", "01", "+1",
                 "-0"):
        lines = results_lines(3)
        cells = lines[2].split(",")
        cells[col] = cell
        lines[2] = ",".join(cells)
        text = "\n".join(lines) + "\n"
        assert read_or_refuse(rows_from_csv, text) == read_or_refuse(
            rows_from_csv_reference, text), cell


def test_only_a_chunk_with_an_odd_cell_goes_to_the_cell_reader():
    # 20,000 rows are chunks of 8,192, 8,192 and 3,616 lines. numpy's parser
    # reads every plain one; a ` 7 `, which int() reads as 7, sends the
    # second chunk, and only it, to the per-cell reader.
    lines = results_lines(20_000)
    with mock.patch.object(population, "_read_chunk", wraps=population._read_chunk) as cells:
        assert len(rows_from_csv("\n".join(lines) + "\n")) == 20_000
        assert cells.call_count == 0
        row = lines[10_000].split(",")
        row[10] = " 7 "
        lines[10_000] = ",".join(row)
        text = "\n".join(lines) + "\n"
        got = read_or_refuse(rows_from_csv, text)
        assert cells.call_count == 1
        assert cells.call_args.args[1] == lines[8_193:16_385]
    assert got == read_or_refuse(rows_from_csv_reference, text)
    assert got[9_999][10] == (int, "7")


def test_sweep_spec_round_trip():
    spec = default_sweep_spec()
    assert parse_sweep_spec(serialize_sweep_spec(spec)) == spec


def test_the_documented_sweep_spec_is_the_demo_spec():
    formats = (Path(__file__).parent.parent / "docs" / "formats.md").read_text()
    example = formats.split("## Sweep spec", 1)[1].split("```\n")[1]
    assert parse_sweep_spec(example) == default_sweep_spec()


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
        )
    with pytest.raises(InputError, match="replications"):
        parse_sweep_spec(serialize_sweep_spec(default_sweep_spec()).replace(
            "replications = 10", "replications = 0"))
    with pytest.raises(InputError, match="weight filter"):
        parse_sweep_spec(serialize_sweep_spec(default_sweep_spec()).replace(
            "weight_filter = exact_one", "weight_filter = sometimes"))
    with pytest.raises(InputError, match="missing key"):
        parse_sweep_spec("storm_levels = 1\n")


RUN_CONFIG = RunConfig(Scenario.from_names(1, "yellow", "daytime"), Weights(0.2, 0.2, 0.6), 0.7, 1)


@pytest.mark.parametrize("record, change, error, message", [
    (EngineParams(), {"tick_seconds": 0.0}, InputError, "tick_seconds must be > 0"),
    (EngineParams(), {"fallback_tick_min": 4000}, InputError,
     "fallback tick window requires 1 <= min <= max"),
    # A run's first tick is 1: a household drawn for tick 0 was never informed.
    (EngineParams(), {"fallback_tick_min": 0, "fallback_tick_max": 0}, InputError,
     "fallback tick window requires 1 <= min <= max"),
    (EngineParams(), {"fallback_tick_min": 0, "fallback_tick_max": 5}, InputError,
     "fallback tick window requires 1 <= min <= max"),
    # Each factor is > 0, but the move per tick is 0.0: nobody would move.
    (EngineParams(), {"household_speed": 1e-200, "tick_seconds": 1e-200}, InputError,
     "household_speed * tick_seconds underflows to 0: the move per tick must be > 0"),
    (EngineParams(), {"rescuer_speed": 1e-200, "tick_seconds": 1e-200}, InputError,
     "rescuer_speed * tick_seconds underflows to 0: the move per tick must be > 0"),
    # Each radius is > 0, but its square is no normal float: range tests
    # compare squares.
    (EngineParams(), {"rescuer_radius": 1e-200}, InputError,
     "rescuer_radius * rescuer_radius underflows: the radius must be >= "
     "1.4916681462400413e-154 m"),
    (EngineParams(), {"shelter_radius": math.nextafter(2.0 ** -511, 0.0)}, InputError,
     "shelter_radius * shelter_radius underflows: the radius must be >= "
     "1.4916681462400413e-154 m"),
    (RUN_CONFIG, {"threshold": 1.5}, InputError, "threshold 1.5 outside [0, 1]"),
    (RUN_CONFIG, {"seed": 2**64}, InputError, "seed 18446744073709551616 outside [0, 2**64 - 1]"),
    (default_sweep_spec(), {"storm_levels": (4,)}, InputError,
     "sweep storm level 4 outside supported PSWS range"),
    (default_sweep_spec(), {"thresholds": (0.7, 0.7)}, InputError,
     "sweep axis thresholds has duplicate values"),
    (default_population_spec(), {"count": -1}, InputError, "count must be >= 0, got -1"),
    (default_population_spec(), {"members_mean": 11.0}, InputError,
     "members_mean must lie inside [members_min, members_max]"),
    # The range test alone refuses a weight that is not finite.
    (RUN_CONFIG.weights, {"w_cdm": float("nan")}, InputError, "w_cdm must be in (0, 1], got nan"),
    (RUN_CONFIG.weights, {"w_hrf": float("inf")}, InputError, "w_hrf must be in (0, 1], got inf"),
    (RUN_CONFIG.weights, {"w_crf": float("-inf")}, InputError,
     "w_crf must be in (0, 1], got -inf"),
], ids=["params-tick", "params-fallback", "params-fallback-0-0", "params-fallback-0-5",
        "params-household-move-0", "params-rescuer-move-0", "params-rescuer-radius-square",
        "params-shelter-radius-square", "run-threshold", "run-seed", "spec-storm", "spec-duplicate",
        "population-count", "population-mean", "weights-nan", "weights-inf",
        "weights-minus-inf"])
def test_records_check_themselves_when_built(record, change, error, message):
    kwargs = {f.name: getattr(record, f.name) for f in fields(record)} | change
    with pytest.raises(InputError) as built:
        type(record)(**kwargs)
    with pytest.raises(InputError) as replaced:
        replace(record, **change)
    for exc in (built.value, replaced.value):
        assert type(exc) is error and str(exc) == message


@pytest.mark.parametrize("change, message", [
    ({"educ_level": 0.3}, "educ_level code 0.3 is not one of [0.25, 0.5, 1.0]"),
    ({"has_children": float("nan")}, "has_children code nan is not one of [0.0, 1.0]"),
    ({"members": 0}, "members must be >= 1"),
], ids=["household-code", "household-nan", "household-members"])
def test_world_index_checks_each_households_codes(change, message):
    # A population built in memory is checked by the index built on it, as
    # a population file is by its reader; the second household is at fault.
    world, _, params, _ = micro_setup()
    households = [profile(0, 0), replace(profile(1, 1), **change), profile(2, 2)]
    with pytest.raises(InputError) as refused:
        WorldIndex(world, population_of(households), params)
    assert str(refused.value) == message


@pytest.mark.parametrize("col, cell", [(7, "nan"), (4, "inf"), (6, "-Infinity")])
def test_rows_csv_refuses_a_float_that_is_not_finite(col, cell):
    lines = results_lines(3)
    cells = lines[2].split(",")
    cells[col] = cell
    lines[2] = ",".join(cells)
    name = RESULTS_HEADER.split(",")[col]
    with pytest.raises(InputError, match=f"^results CSV line 3: {name} must be finite, "
                                         f"got '{cell}'$"):
        rows_from_csv("\n".join(lines) + "\n")
    # A cell that does not parse, even in a later field, is reported first.
    cells[10] = "x"
    lines[2] = ",".join(cells)
    with pytest.raises(InputError, match="^results CSV line 3: invalid literal for int"):
        rows_from_csv("\n".join(lines) + "\n")


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
    valid = enumerate_combos(spec)
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


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_validates_population_once(demo_world, demo_profiles, monkeypatch, workers):
    # The sweep builds its one world index in the caller, so a worker
    # process never validates the population again.
    calls = []
    real = engine.validate_profiles
    monkeypatch.setattr(engine, "validate_profiles",
                        lambda *args: calls.append(1) or real(*args))
    rows = execute(demo_grid_spec(), demo_world, demo_profiles, workers=workers)
    assert len(rows) == 48
    assert len(calls) == 1


@pytest.mark.parametrize("method", ["forkserver", "spawn"])
def test_execute_bytes_identical_when_workers_unpickle_the_index(method, monkeypatch):
    # Under forkserver (Python 3.14's default on Linux) and spawn, each
    # worker gets the caller's world index pickled, not forked.
    world, profiles, params, spec = micro_setup()
    serial = rows_to_csv(execute(spec, world, profiles, params, workers=1))
    context = multiprocessing.get_context(method)
    real_pool = futures.ProcessPoolExecutor
    monkeypatch.setattr(futures, "ProcessPoolExecutor",
                        lambda *a, **kw: real_pool(*a, mp_context=context, **kw))
    assert rows_to_csv(execute(spec, world, profiles, params, workers=2)) == serial


def test_sweep_computes_one_risk_array_per_seed_group(demo_world, demo_profiles, monkeypatch):
    # The three thresholds of a seed group read one perceived-risk array.
    calls = []
    real = engine.perceived_risk
    monkeypatch.setattr(engine, "perceived_risk",
                        lambda *args: calls.append(1) or real(*args))
    rows = execute(demo_grid_spec(), demo_world, demo_profiles, workers=1)
    assert len(rows) == 48
    assert len(calls) == len({r.seed for r in rows}) == 16


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

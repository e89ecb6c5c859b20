import argparse
import hashlib
import math
from dataclasses import asdict

import pytest

from evacsim import cli, engine, population, sweep
from evacsim.cli import build_parser, emit_demo_assets, main
from evacsim.geo import load_world
from evacsim.population import parse_population_spec
from evacsim.sweep import enumerate_combos, parse_sweep_spec
from helpers import line_world, population_of
from evacsim.geo import serialize_world
from evacsim.population import HouseholdProfile, serialize_population


@pytest.fixture(scope="module")
def assets(tmp_path_factory):
    directory = tmp_path_factory.mktemp("assets")
    emit_demo_assets(str(directory))
    return directory


@pytest.fixture(scope="module")
def demo_pop_csv(assets, tmp_path_factory):
    out = tmp_path_factory.mktemp("pop") / "pop.csv"
    rc = main([
        "gen-population", "--world", str(assets / "village.world"),
        "--spec", str(assets / "population.cfg"), "--seed", "42", "--out", str(out),
    ])
    assert rc == 0
    return out


def micro_assets(tmp_path):
    world = line_world(
        n_nodes=4,
        building_offsets=[(0.0, 20.0), (100.0, 20.0), (200.0, 20.0)],
        shelter_specs=[(0, 3, 1000, False)],
    )
    world_path = tmp_path / "w.world"
    world_path.write_text(serialize_world(world))
    profiles = [
        HouseholdProfile(id=i, head_gender=1.0, educ_level=1.0, income_level=1.0,
                         house_ownership=1.0, has_children=1.0, has_elderly=1.0,
                         with_disability=1.0, years_of_residency=1.0, house_quality=1.0,
                         floor_levels=1.0, typhoon_experience=1.0, members=4, building_id=i)
        for i in range(3)
    ]
    pop_path = tmp_path / "pop.csv"
    pop_path.write_text(serialize_population(population_of(profiles)))
    return world_path, pop_path


MICRO_FLAGS = ["--rescuers", "1", "--fallback-min", "5", "--fallback-max", "20",
               "--max-ticks", "400"]


def test_emit_demo_assets_load(assets):
    world = load_world(str(assets / "village.world"))
    assert len(world.buildings) == 570
    spec = parse_population_spec((assets / "population.cfg").read_text())
    assert spec.count == 570
    sweep_spec = parse_sweep_spec((assets / "sweep.cfg").read_text())
    combos = enumerate_combos(sweep_spec)
    assert len(combos) == 1_296  # of the grid's 18,432 points
    assert max(c.index for c in combos) < 18_432


def test_emit_demo_respects_env_dir(tmp_path, monkeypatch, capsys):
    target = tmp_path / "from_env"
    monkeypatch.setenv("EVACSIM_ASSET_DIR", str(target))
    assert main(["emit-demo"]) == 0
    capsys.readouterr()
    assert (target / "village.world").exists()


def test_emit_demo_into_a_path_under_a_file_exits_1(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("")
    assert main(["emit-demo", "--dir", str(afile / "sub")]) == 1
    assert capsys.readouterr().err.startswith("error: cannot create directory")


def test_gen_population_rejects_count_with_spec(tmp_path, assets, capsys):
    out = tmp_path / "pop.csv"
    rc = main(["gen-population", "--world", str(assets / "village.world"),
               "--spec", str(assets / "population.cfg"), "--count", "5", "--out", str(out)])
    assert rc == 1
    assert "not allowed with argument" in capsys.readouterr().err
    assert not out.exists()


def test_validate_ok(assets, capsys):
    assert main(["validate", "--world", str(assets / "village.world")]) == 0
    out = capsys.readouterr().out
    assert "570 buildings" in out and "4 internal shelters" in out


def test_validate_broken_world_names_invariant(tmp_path, capsys):
    bad = tmp_path / "bad.world"
    bad.write_text("node|0|0|0\nnode|1|100|0\nedge|0|1\nshelter|0|1|0|0\n")
    assert main(["validate", "--world", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "capacity" in err


THREE_NODES = "node|0|0|0\nnode|1|100|0\nnode|2|200|0\nedge|0|1\n"


@pytest.mark.parametrize("text, error", [
    ("building|0|0|0\n", "world has no road nodes"),
    ("node|0|0|0\nnode|1|100|0\n", "world has road nodes but no edges"),
    (THREE_NODES + "shelter|4|1|10|0\nshelter|4|0|10|0\n", "duplicate shelter id 4"),
    (THREE_NODES + "shelter|4|9|10|0\n", "shelter 4 references unknown node 9"),
    (THREE_NODES + "shelter|4|1|0|0\n", "shelter 4 capacity must be > 0, got 0"),
    (THREE_NODES + "shelter|4|1|10|0\nrescuer_start|9\n", "rescuer_start references unknown node 9"),
    (THREE_NODES + "shelter|4|1|10|0\nshelter|5|2|10|0\n",
     "shelter 5 (node 2) is disconnected from the road network anchors"),
    (THREE_NODES + "shelter|4|1|10|0\nrescuer_start|2\n",
     "rescuer_start node 2 is disconnected from the road network anchors"),
], ids=["no-nodes", "no-edges", "duplicate-shelter", "shelter-node", "capacity",
        "rescuer-start-node", "disconnected-shelter", "disconnected-rescuer-start"])
def test_validate_names_each_world_invariant(tmp_path, capsys, text, error):
    path = tmp_path / "bad.world"
    path.write_text(text)
    assert main(["validate", "--world", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {error}\n"


@pytest.mark.parametrize("record", ["node|99|{v}|0.0", "building|99|0.0|{v}",
                                    "waterway|99|0.0|5.0|{v}|5.0"])
@pytest.mark.parametrize("value, rc", [("1e9", 0), ("-1e9", 0), ("1.000000001e9", 1),
                                       ("-1e200", 1)])
def test_world_coordinates_are_bounded(tmp_path, capsys, record, value, rc):
    # Past the bound a squared distance can overflow: a node at 1e200 used to
    # crash simulate with OverflowError, and a waterway vertex there made a
    # house next to the river FAR.
    world_path, pop_path = micro_assets(tmp_path)
    with world_path.open("a") as fh:
        fh.write(record.format(v=value) + "\n")
    lineno = len(world_path.read_text().splitlines())
    for argv in (["validate", "--world", str(world_path)],
                 ["simulate", "--world", str(world_path), "--population", str(pop_path),
                  *MICRO_FLAGS]):
        assert main(argv) == rc
        err = capsys.readouterr().err
        if rc:
            kind = record.split("|")[0]
            assert err == (f"error: line {lineno}: {kind} coordinates must be finite "
                           f"and within +-1e+09 m\n")


def test_unknown_flag_exits_1(capsys):
    assert main(["simulate", "--frobnicate"]) == 1


def test_missing_file_exits_1(tmp_path, capsys):
    assert main(["validate", "--world", str(tmp_path / "nope.world")]) == 1


def test_gen_population_missing_spec_exits_1(tmp_path, assets, capsys):
    rc = main(["gen-population", "--world", str(assets / "village.world"),
               "--spec", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "pop.csv")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: cannot read population spec")


def test_sweep_missing_spec_exits_1(tmp_path, capsys):
    world_path, pop_path = micro_assets(tmp_path)
    rc = main(["sweep", "--spec", str(tmp_path / "nope.cfg"), "--world", str(world_path),
               "--population", str(pop_path), "--out", str(tmp_path / "rows.csv"),
               *MICRO_FLAGS])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: cannot read sweep spec")


def test_gen_population_deterministic(tmp_path, assets):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        rc = main(["gen-population", "--world", str(assets / "village.world"),
                   "--seed", "7", "--out", str(out)])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_repeats_identically(tmp_path, capsys):
    world_path, pop_path = micro_assets(tmp_path)
    argv = [
        "simulate", "--world", str(world_path), "--population", str(pop_path),
        "--storm", "2", "--rain", "orange", "--time", "night",
        "--threshold", "0.9", "--weights", "0.2,0.5,0.3", "--seed", "42",
        *MICRO_FLAGS,
    ]
    outputs = []
    for i in range(2):
        summary = tmp_path / f"s{i}.csv"
        events = tmp_path / f"e{i}.csv"
        series = tmp_path / f"ts{i}.csv"
        rc = main(argv + ["--out-summary", str(summary), "--out-events", str(events),
                          "--out-series", str(series)])
        assert rc == 0
        outputs.append((capsys.readouterr().out, summary.read_bytes(),
                        events.read_bytes(), series.read_bytes()))
    assert outputs[0] == outputs[1]
    assert "evacuated=" in outputs[0][0]


def test_simulate_accepts_raw_codes(tmp_path, capsys):
    world_path, pop_path = micro_assets(tmp_path)
    rc = main([
        "simulate", "--world", str(world_path), "--population", str(pop_path),
        "--raw", "--storm", "0.5", "--rain", "0.5", "--time", "1.0",
        "--threshold", "0.9", "--weights", "0.2,0.5,0.3", "--seed", "42",
        *MICRO_FLAGS,
    ])
    assert rc == 0
    assert "evacuated=" in capsys.readouterr().out


def test_simulate_rejects_unrepresentable_storm(tmp_path, capsys):
    world_path, pop_path = micro_assets(tmp_path)
    rc = main([
        "simulate", "--world", str(world_path), "--population", str(pop_path),
        "--storm", "4", *MICRO_FLAGS,
    ])
    assert rc == 1
    assert "PSWS" in capsys.readouterr().err


def test_simulate_rejects_epsilon_max_over_cap(tmp_path, capsys):
    world_path, pop_path = micro_assets(tmp_path)
    rc = main([
        "simulate", "--world", str(world_path), "--population", str(pop_path),
        "--epsilon-max", "0.06", *MICRO_FLAGS,
    ])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: epsilon range")


def test_simulate_rejects_non_positive_rescuer_radius(tmp_path, capsys):
    world_path, pop_path = micro_assets(tmp_path)
    rc = main([
        "simulate", "--world", str(world_path), "--population", str(pop_path),
        "--rescuer-radius", "0", *MICRO_FLAGS,
    ])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: rescuer_radius must be > 0")


@pytest.mark.parametrize("seed, rc", [(-1, 1), (2**64, 1), (2**64 - 1, 0)],
                         ids=["negative", "past-uint64", "largest"])
def test_simulate_takes_only_a_seed_the_results_file_holds(tmp_path, capsys, seed, rc):
    # The summary's seed cell is read back as an unsigned 64-bit integer.
    world_path, pop_path = micro_assets(tmp_path)
    summary = tmp_path / "s.csv"
    assert main(["simulate", "--world", str(world_path), "--population", str(pop_path),
                 "--seed", str(seed), "--out-summary", str(summary), *MICRO_FLAGS]) == rc
    if rc:
        assert capsys.readouterr().err.startswith("error: seed")
        assert not summary.exists()
    else:
        [row] = sweep.rows_from_csv(summary.read_text())
        assert row.seed == seed


# Engine flags whose dest differs from the EngineParams field they set.
FLAG_FIELD_RENAMES = {"rescuers": "nb_rescuers", "fallback_min": "fallback_tick_min",
                      "fallback_max": "fallback_tick_max"}


def test_engine_flags_map_one_to_one_onto_run_inputs():
    # Every engine flag sets its own field of the index's EngineParams, and
    # every field has one flag: no flag exists only to be checked.
    p = argparse.ArgumentParser()
    cli._add_engine_flags(p)
    dests = [a.dest for a in p._actions if a.dest != "help"]  # noqa: SLF001
    # Distinct values, each in range for the field its flag sets.
    values = dict(zip(dests, (7, 51.0, 52.0, 1.3, 3.1, 9.0, 4000, 900, 2900, 0.6, 0.01, 0.04),
                      strict=True))
    assert len(set(values.values())) == len(values)
    params = cli._params_from_args(argparse.Namespace(**values))
    assert asdict(params) == {FLAG_FIELD_RENAMES.get(d, d): v for d, v in values.items()}


@pytest.mark.parametrize("command", [
    ["simulate", "--world", "w", "--population", "p"],
    ["sweep", "--spec", "s", "--world", "w", "--population", "p", "--out", "o"],
])
def test_no_engine_flags_give_default_engine_params(command):
    params = cli._params_from_args(build_parser().parse_args(command))
    assert params == engine.EngineParams()
    assert repr(params) == repr(engine.EngineParams())  # types too: 15, not 15.0


def sweep_spec_file(tmp_path):
    spec_path = tmp_path / "sweep.cfg"
    spec_path.write_text(
        "storm_levels = 1\n"
        "rainfall_codes = 0.25\n"
        "time_of_day_codes = 0.5\n"
        "thresholds = 0.7,0.9\n"
        "w_cdm = 0.2\n"
        "w_hrf = 0.2\n"
        "w_crf = 0.6\n"
        "replications = 2\n"
    )
    return spec_path


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_sweep_rejects_non_positive_workers(tmp_path, capsys, workers):
    world_path, pop_path = micro_assets(tmp_path)
    out = tmp_path / "rows.csv"
    rc = main(["sweep", "--spec", str(sweep_spec_file(tmp_path)), "--world", str(world_path),
               "--population", str(pop_path), "--out", str(out), "--workers", workers,
               *MICRO_FLAGS])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: workers must be >= 1")
    assert not out.exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_rejects_epsilon_max_over_cap(tmp_path, capsys, workers):
    world_path, pop_path = micro_assets(tmp_path)
    rc = main(["sweep", "--spec", str(sweep_spec_file(tmp_path)), "--world", str(world_path),
               "--population", str(pop_path), "--out", str(tmp_path / "rows.csv"),
               "--workers", workers, *MICRO_FLAGS, "--epsilon-max", "0.06"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: epsilon range")


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_rejects_a_bad_spec_value_before_any_run(tmp_path, capsys, monkeypatch, workers):
    world_path, pop_path = micro_assets(tmp_path)
    spec_path = sweep_spec_file(tmp_path)
    spec_path.write_text(spec_path.read_text().replace("rainfall_codes = 0.25",
                                                       "rainfall_codes = 0.25,0.3"))
    started = []
    real_run, real_pool = sweep.run, sweep.futures.ProcessPoolExecutor
    monkeypatch.setattr(sweep, "run", lambda *a, **kw: started.append("run") or real_run(*a, **kw))
    monkeypatch.setattr(sweep.futures, "ProcessPoolExecutor",
                        lambda *a, **kw: started.append("pool") or real_pool(*a, **kw))
    rc = main(["sweep", "--spec", str(spec_path), "--world", str(world_path),
               "--population", str(pop_path), "--out", str(tmp_path / "rows.csv"),
               "--workers", workers, *MICRO_FLAGS])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: rainfall code 0.3 invalid")
    assert started == []
    assert not (tmp_path / "rows.csv").exists()


@pytest.mark.parametrize("line, bad_line, message", [
    ("w_cdm = 0.2", "w_cdm = 0.2,nan", "w_cdm must be in (0, 1], got nan"),
    ("w_cdm = 0.2", "w_cdm = 0.2,inf", "w_cdm must be in (0, 1], got inf"),
    ("w_hrf = 0.2", "w_hrf = 0.2,1.5", "w_hrf must be in (0, 1], got 1.5"),
    ("w_crf = 0.6", "w_crf = 0.6,0.0", "w_crf must be in (0, 1], got 0.0"),
], ids=["nan", "inf", "over-1", "zero"])
def test_sweep_refuses_a_weight_no_kept_triple_uses(tmp_path, capsys, line, bad_line, message):
    # Only 0.2 + 0.2 + 0.6 sums to 1, so the weight filter drops every
    # triple with the bad value, and no run's weights would refuse it.
    world_path, pop_path = micro_assets(tmp_path)
    spec_path = sweep_spec_file(tmp_path)
    spec_path.write_text(spec_path.read_text().replace(f"{line}\n", f"{bad_line}\n"))
    rc = main(["sweep", "--spec", str(spec_path), "--world", str(world_path),
               "--population", str(pop_path), "--out", str(tmp_path / "rows.csv"),
               *MICRO_FLAGS])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "rows.csv").exists()


@pytest.mark.parametrize("command, other_fault, other_error", [
    ("simulate", ["--threshold", "1.5"], "threshold 1.5 outside [0, 1]"),
    ("sweep", ["--workers", "0"], "workers must be >= 1"),
    ("sweep", [], "threshold 1.5 outside [0, 1]"),
], ids=["simulate-threshold", "sweep-workers", "sweep-spec-threshold"])
def test_a_bad_engine_flag_is_the_first_error_reported(tmp_path, capsys, command, other_fault,
                                                       other_error):
    """The engine flags build a checked EngineParams before the run config,
    the worker count or the spec's run configs are checked."""
    world_path, pop_path = micro_assets(tmp_path)
    argv = [command, "--world", str(world_path), "--population", str(pop_path),
            *MICRO_FLAGS, *other_fault]
    if command == "sweep":
        spec_path = sweep_spec_file(tmp_path)
        if not other_fault:
            spec_path.write_text(spec_path.read_text().replace("thresholds = 0.7,0.9",
                                                               "thresholds = 0.7,1.5"))
        argv += ["--spec", str(spec_path), "--out", str(tmp_path / "rows.csv")]
    assert main(argv + ["--tick-seconds", "0"]) == 1
    assert capsys.readouterr().err == "error: tick_seconds must be > 0\n"
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {other_error}\n"


def micro_argv(tmp_path, command: str, thresholds: str = "0.7,0.9") -> list[str]:
    """A `simulate` or `sweep` call on the micro assets, with its spec."""
    world_path, pop_path = micro_assets(tmp_path)
    argv = [command, "--world", str(world_path), "--population", str(pop_path), *MICRO_FLAGS]
    if command == "sweep":
        spec_path = sweep_spec_file(tmp_path)
        spec_path.write_text(spec_path.read_text().replace("thresholds = 0.7,0.9",
                                                           f"thresholds = {thresholds}"))
        argv += ["--spec", str(spec_path), "--out", str(tmp_path / "rows.csv")]
    return argv


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("flags, message", [
    (["--rescuer-speed", "inf"], "rescuer_speed must be finite, got inf"),
    (["--tick-seconds", "inf"], "tick_seconds must be finite, got inf"),
    (["--shelter-radius", "nan"], "shelter_radius must be finite, got nan"),
    (["--household-speed", "nan"], "household_speed must be finite, got nan"),
    (["--rescuer-speed", "nan"], "rescuer_speed must be finite, got nan"),
    (["--rescuer-radius=-inf"], "rescuer_radius must be finite, got -inf"),
    (["--rescuer-speed", "1e200", "--tick-seconds", "1e200"],
     "rescuer_speed * tick_seconds overflows: the move per tick must be finite"),
    (["--household-speed", "1e300", "--tick-seconds", "1e10"],
     "household_speed * tick_seconds overflows: the move per tick must be finite"),
], ids=["rescuer-speed-inf", "tick-inf", "shelter-radius-nan", "household-speed-nan",
        "rescuer-speed-nan", "rescuer-radius-minus-inf", "rescuer-move", "household-move"])
def test_an_engine_flag_that_is_not_finite_exits_1(tmp_path, capsys, command, flags, message):
    # Before EngineParams refused them, the infinite ones hung the walks and
    # the NaN ones ran to the end with rescuers that never moved.
    assert main(micro_argv(tmp_path, command) + flags) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "rows.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("flags, message", [
    (["--fallback-min", "0"], "fallback tick window requires 1 <= min <= max"),
    (["--rescuer-speed", "1e-200", "--tick-seconds", "1e-200"],
     "rescuer_speed * tick_seconds underflows to 0: the move per tick must be > 0"),
    (["--household-speed", "1e-200", "--tick-seconds", "1e-200"],
     "household_speed * tick_seconds underflows to 0: the move per tick must be > 0"),
    (["--rescuer-radius", "1e-200"], "rescuer_radius * rescuer_radius underflows: the radius "
     "must be >= 1.4916681462400413e-154 m"),
    (["--shelter-radius", "1e-200"], "shelter_radius * shelter_radius underflows: the radius "
     "must be >= 1.4916681462400413e-154 m"),
], ids=["fallback-min-0", "rescuer-move", "household-move", "rescuer-radius",
        "shelter-radius"])
def test_an_engine_flag_no_walk_can_honour_exits_1(tmp_path, capsys, command, flags, message):
    # Before EngineParams refused them, a household drawn for fallback tick 0
    # was never informed by that channel, a move of 0 never left its start,
    # and a house 1e-170 m off a node was in range of a 1e-200 m radius: its
    # squared offset underflows to 0.
    assert main(micro_argv(tmp_path, command) + flags) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "rows.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_a_rescuer_move_too_large_for_the_shortest_edge_exits_1(tmp_path, capsys, command):
    # 1e301 m a tick less a 100 m edge is 1e301 m again: the rescuer's
    # first tick would never end.
    assert main(micro_argv(tmp_path, command) + ["--rescuer-speed", "1e300"]) == 1
    assert capsys.readouterr().err == (
        "error: rescuer_speed * tick_seconds (1e+301 m) is too large for the shortest edge "
        "(100.0 m): walking it would not shrink the move left in a tick\n")
    assert not (tmp_path / "rows.csv").exists()


def test_simulate_on_a_world_with_a_zero_length_edge_exits_1(tmp_path, capsys):
    # A rescuer can bounce for ever along an edge between coincident nodes,
    # inside one tick.
    argv = micro_argv(tmp_path, "simulate")
    world_path = tmp_path / "w.world"
    text = world_path.read_text() + "node|9|0.0|0.0\nedge|0|9\n"
    world_path.write_text(text)
    assert main(argv) == 1
    lineno = len(text.splitlines())
    assert capsys.readouterr().err == (
        f"error: line {lineno}: zero-length edge (0,9): its nodes coincide\n")


def test_simulate_with_households_too_slow_to_arrive_is_truncated(tmp_path, capsys):
    # 1e-8 m a tick: every household departs and none arrives by max_ticks.
    argv = micro_argv(tmp_path, "simulate") + ["--household-speed", "1e-9", "--threshold", "0"]
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("evacuated=3 stayed=0 ticks=400 truncated=true ")


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_a_command_validates_the_population_once(tmp_path, capsys, monkeypatch, command):
    calls = []
    for module in (population, engine):
        monkeypatch.setattr(module, "validate_profiles",
                            lambda *args, real=module.validate_profiles:
                            calls.append(1) or real(*args))
    assert main(micro_argv(tmp_path, command)) == 0, capsys.readouterr().err
    assert len(calls) == 1


@pytest.mark.parametrize("command, fault, first_error", [
    ("simulate", ["--tick-seconds", "0"], "tick_seconds must be > 0"),
    ("simulate", ["--weights", "0,0.5,0.5"], "w_cdm must be in (0, 1], got 0.0"),
    ("simulate", ["--threshold", "1.5"], "household 0: unknown building 7"),
    ("sweep", ["--workers", "0"], "workers must be >= 1"),
    ("sweep", ["thresholds = 0.7,1.5"], "threshold 1.5 outside [0, 1]"),
    ("sweep", [], "household 0: unknown building 7"),
], ids=["simulate-flag", "simulate-weights", "simulate-threshold", "sweep-workers",
        "sweep-spec-threshold", "sweep"])
def test_a_population_that_does_not_fit_is_reported_by_the_index(tmp_path, capsys, command,
                                                                 fault, first_error):
    """The world index is the one owner of the population check, so a bad
    flag, spec or spec run config is reported before a population that does
    not fit the world, and that population before the run config of
    `simulate`, which is built after the index."""
    thresholds = "0.7,0.9"
    if fault and fault[0].startswith("thresholds = "):
        thresholds, fault = fault[0].removeprefix("thresholds = "), []
    argv = micro_argv(tmp_path, command, thresholds)
    pop_path = tmp_path / "pop.csv"
    pop_path.write_text(pop_path.read_text().replace(",4,0\n", ",4,7\n"))
    assert main(argv + fault) == 1
    assert capsys.readouterr().err == f"error: {first_error}\n"


def shift_ids(rows: list[str]) -> list[str]:
    return [f"{int(row.split(',', 1)[0]) + 1000},{row.split(',', 1)[1]}" for row in rows]


@pytest.mark.parametrize("edit, first_error", [
    (shift_ids, "household 0 has id 1000: ids must be 0..2 in row order"),
    (lambda rows: rows[::-1], "household 0 has id 2: ids must be 0..2 in row order"),
], ids=["shifted", "reversed"])
def test_simulate_refuses_ids_that_are_not_row_positions(tmp_path, capsys, edit, first_error):
    """The engine names households by row position (the event log's
    agent_id, the decide order, the admission queue), so a file whose ids
    are not 0..n-1 in row order would run under other names."""
    argv = micro_argv(tmp_path, "simulate")
    pop_path = tmp_path / "pop.csv"
    header, *rows = pop_path.read_text().splitlines()
    pop_path.write_text("\n".join([header, *edit(rows)]) + "\n")
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {first_error}\n"


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_rejects_rescuers_on_a_world_without_starts(tmp_path, capsys, monkeypatch,
                                                          workers):
    # The world index refuses the rescuers in the caller, before any pool.
    started = []
    real_pool = sweep.futures.ProcessPoolExecutor
    monkeypatch.setattr(sweep.futures, "ProcessPoolExecutor",
                        lambda *a, **kw: started.append("pool") or real_pool(*a, **kw))
    world = line_world(n_nodes=4, building_offsets=[(0.0, 20.0)], rescuer_starts=[])
    world_path = tmp_path / "w.world"
    world_path.write_text(serialize_world(world))
    pop_path = tmp_path / "pop.csv"
    pop_path.write_text(serialize_population(population_of([
        HouseholdProfile(id=0, head_gender=1.0, educ_level=1.0, income_level=1.0,
                         house_ownership=1.0, has_children=1.0, has_elderly=1.0,
                         with_disability=1.0, years_of_residency=1.0, house_quality=1.0,
                         floor_levels=1.0, typhoon_experience=1.0, members=4, building_id=0)
    ])))
    rc = main(["sweep", "--spec", str(sweep_spec_file(tmp_path)), "--world", str(world_path),
               "--population", str(pop_path), "--out", str(tmp_path / "rows.csv"),
               "--workers", workers, *MICRO_FLAGS, "--rescuers", "2"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: nb_rescuers > 0 but the world has no")
    assert started == []


def test_failed_write_keeps_old_bytes_and_leaves_no_temp_file(tmp_path):
    target = tmp_path / "out.csv"
    target.write_bytes(b"old\n")
    with pytest.raises(UnicodeEncodeError):
        cli._write(str(target), "new\n" + "\ud800")
    assert target.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
    cli._write(str(target), "new\n")
    assert target.read_bytes() == b"new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_sweep_analyze_series_end_to_end(tmp_path, capsys):
    world_path, pop_path = micro_assets(tmp_path)
    spec_path = tmp_path / "sweep.cfg"
    spec_path.write_text(
        "storm_levels = 1,2\n"
        "rainfall_codes = 0.25,1.0\n"
        "time_of_day_codes = 0.5,1.0\n"
        "thresholds = 0.7,0.9\n"
        "w_cdm = 0.2,0.4\n"
        "w_hrf = 0.2,0.4\n"
        "w_crf = 0.2,0.4,0.6\n"
        "replications = 2\n"
        "base_seed = 3\n"
        "weight_filter = exact_one\n"
    )
    rows_a = tmp_path / "rows_a.csv"
    rows_b = tmp_path / "rows_b.csv"
    for out, workers in ((rows_a, "1"), (rows_b, "2")):
        rc = main(["sweep", "--spec", str(spec_path), "--world", str(world_path),
                   "--population", str(pop_path), "--out", str(out),
                   "--workers", workers, *MICRO_FLAGS])
        assert rc == 0
    assert rows_a.read_bytes() == rows_b.read_bytes()
    capsys.readouterr()

    report_csv = tmp_path / "report.csv"
    rc = main(["analyze", "--in", str(rows_a), "--mode", "drop-one-weight",
               "--csv", str(report_csv)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "threshold" in out and "p_value" in out
    assert report_csv.exists()

    rc = main(["analyze", "--in", str(rows_a), "--mode", "intercept-full"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "aliased" in err and "drop-one-weight" in err

    series_out = tmp_path / "series.csv"
    rc = main(["series", "--in", str(rows_a), "--storm", "2", "--rain", "red",
               "--time", "night", "--threshold", "0.9", "--out", str(series_out)])
    assert rc == 0
    capsys.readouterr()
    header = series_out.read_text().splitlines()[0]
    assert header == "x,series,mean_evacuated,n"


def test_analyze_and_series_refuse_a_header_only_results_file(tmp_path, capsys):
    results = tmp_path / "results.csv"
    results.write_text(sweep.RESULTS_HEADER + "\n")
    assert main(["analyze", "--in", str(results)]) == 1
    assert capsys.readouterr().err == "error: no sweep rows to analyze\n"
    assert main(["series", "--in", str(results), "--storm", "2", "--rain", "red",
                 "--time", "night", "--threshold", "0.9"]) == 1
    assert capsys.readouterr().err.startswith("error: no rows match slice storm=2 ")


def test_analyze_refuses_an_int_too_large_for_its_column(tmp_path, capsys):
    row = sweep.SweepRow(0, 0, 9, 1, 0.25, 0.5, 0.7, 0.2, 0.2, 0.6, 2**70, 50, False)
    results = tmp_path / "results.csv"
    results.write_text(sweep.rows_to_csv([row]))
    assert main(["analyze", "--in", str(results)]) == 1
    assert capsys.readouterr().err == (
        "error: results CSV line 2: evacuated does not fit in int64\n")


@pytest.mark.parametrize("command", [
    ["analyze"],
    ["series", "--storm", "1", "--rain", "yellow", "--time", "day", "--threshold", "0.7"],
])
def test_analyze_and_series_refuse_a_nan_weight(tmp_path, capsys, command):
    rows = [sweep.SweepRow(i, 0, 9, 1, 0.25, 0.5, 0.7, math.nan if i >= 2 else 0.2, 0.2, 0.6,
                           i, 50, False) for i in range(5)]
    results = tmp_path / "results.csv"
    results.write_text(sweep.rows_to_csv(rows))
    assert main([command[0], "--in", str(results), *command[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: results CSV line 4: w_cdm must be finite, got 'nan'\n"


def test_help_lists_table_defaults():
    parser = build_parser()
    # defaults of the single-run command mirror the documented initial values
    help_text = None
    for action in parser._subparsers._group_actions[0].choices.items():  # noqa: SLF001
        name, sub = action
        if name == "simulate":
            help_text = sub.format_help()
    assert help_text is not None
    for needle in ("15", "4", "50.0", "0.7", "0.1,0.1,0.1", "1.4", "3.0", "5000"):
        assert needle in help_text, needle


def test_help_states_each_default_once():
    helps = {name: " ".join(sub.format_help().split())
             for name, sub in build_parser()._subparsers._group_actions[0].choices.items()}  # noqa: SLF001
    for name, text in helps.items():
        assert "(default: None)" not in text, name
    assert helps["series"].count("(default: stdout)") == 1
    assert "evacuation decision threshold (default: 0.8)" in helps["series"]
    assert "population spec file (default: built-in spec) --count" in helps["gen-population"]


COMMANDS = ["validate", "gen-population", "simulate", "sweep", "analyze", "series", "emit-demo"]


def _subparsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    return parser._subparsers._group_actions[0].choices  # noqa: SLF001


@pytest.mark.parametrize("name", COMMANDS)
def test_build_parser_builds_the_invoked_command_only(name):
    full = _subparsers(build_parser())
    subs = _subparsers(build_parser(name))
    assert list(subs) == list(full) == COMMANDS
    assert subs[name].format_help() == full[name].format_help()
    for other, sub in subs.items():
        if other != name:
            assert [type(action) for action in sub._actions] == [argparse._HelpAction], other


@pytest.mark.parametrize("first", [None, "--help", "-h", "simulat", ""])
def test_build_parser_builds_every_command_for_a_token_naming_none(first):
    full = _subparsers(build_parser())
    subs = _subparsers(build_parser(first))
    assert [sub.format_help() for sub in subs.values()] == [
        sub.format_help() for sub in full.values()]


def test_demo_pop_csv_has_570_rows(demo_pop_csv):
    assert len(demo_pop_csv.read_text().splitlines()) == 571


# sha256 of the event log below, recorded before runs replayed a shared
# inform timeline; any change to the order or content of events shows here.
DEMO_EVENTS_SHA256 = "253de7fa1481bfe010eba7646a3ca316cc42d68ba752e7aa25c6011d8ccf2e76"


def test_simulate_event_log_bytes_are_pinned(tmp_path, assets, demo_pop_csv, capsys):
    events = tmp_path / "events.csv"
    rc = main(["simulate", "--world", str(assets / "village.world"),
               "--population", str(demo_pop_csv), "--storm", "2", "--rain", "orange",
               "--time", "night", "--threshold", "0.8", "--weights", "0.1,0.1,0.8",
               "--seed", "99", "--out-events", str(events)])
    assert rc == 0
    capsys.readouterr()
    assert hashlib.sha256(events.read_bytes()).hexdigest() == DEMO_EVENTS_SHA256

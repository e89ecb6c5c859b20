import argparse
import hashlib
from dataclasses import asdict

import pytest

from evacsim import cli, engine
from evacsim.cli import build_parser, emit_demo_assets, main
from evacsim.geo import load_world
from evacsim.population import parse_population_spec
from evacsim.sweep import enumerate_combos, parse_sweep_spec
from helpers import line_world
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
    pop_path.write_text(serialize_population(profiles))
    return world_path, pop_path


MICRO_FLAGS = ["--rescuers", "1", "--fallback-min", "5", "--fallback-max", "20",
               "--max-ticks", "400"]


def test_emit_demo_assets_load(assets):
    world = load_world(str(assets / "village.world"))
    assert len(world.buildings) == 570
    spec = parse_population_spec((assets / "population.cfg").read_text())
    assert spec.count == 570
    sweep_spec = parse_sweep_spec((assets / "sweep.cfg").read_text())
    assert len(enumerate_combos(sweep_spec)) == 18_432


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


# Engine flags whose dest differs from the EngineParams field they set.
FLAG_FIELD_RENAMES = {"rescuers": "nb_rescuers", "fallback_min": "fallback_tick_min",
                      "fallback_max": "fallback_tick_max"}


def test_engine_flags_map_one_to_one_onto_run_inputs():
    # Every engine flag sets its own field of the index's EngineParams, and
    # every field has one flag: no flag exists only to be checked.
    p = argparse.ArgumentParser()
    cli._add_engine_flags(p)
    dests = [a.dest for a in p._actions if a.dest != "help"]  # noqa: SLF001
    params = cli._params_from_args(argparse.Namespace(**{d: i for i, d in enumerate(dests)}))
    assert asdict(params) == {FLAG_FIELD_RENAMES.get(d, d): i for i, d in enumerate(dests)}


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
def test_sweep_rejects_rescuers_on_a_world_without_starts(tmp_path, capsys, workers):
    world = line_world(n_nodes=4, building_offsets=[(0.0, 20.0)], rescuer_starts=[])
    world_path = tmp_path / "w.world"
    world_path.write_text(serialize_world(world))
    pop_path = tmp_path / "pop.csv"
    pop_path.write_text(serialize_population([
        HouseholdProfile(id=0, head_gender=1.0, educ_level=1.0, income_level=1.0,
                         house_ownership=1.0, has_children=1.0, has_elderly=1.0,
                         with_disability=1.0, years_of_residency=1.0, house_quality=1.0,
                         floor_levels=1.0, typhoon_experience=1.0, members=4, building_id=0)
    ]))
    rc = main(["sweep", "--spec", str(sweep_spec_file(tmp_path)), "--world", str(world_path),
               "--population", str(pop_path), "--out", str(tmp_path / "rows.csv"),
               "--workers", workers, *MICRO_FLAGS, "--rescuers", "2"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: nb_rescuers > 0 but the world has no")


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

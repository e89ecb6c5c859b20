"""Smoke test of the benchmark's span shims (`bench/tracer.py`).

The shims patch module globals of evacsim from outside. A refactor that
moves or renames one of those names breaks the traced benchmark, so this
runs a micro sweep and one `simulate` call under the shims and checks that
every run was seen and every patched name was put back.

The tracer also reads counts off each run's final state: the length of
the admission heap `state.moving` on every tick, and each household's
`stranded` flag and `tried_shelters`. The counts are pinned, so a change
to what those names mean shows here and not only in the benchmark.
"""

import importlib
import time
from pathlib import Path

from evacsim import cli, engine, geo, population, stats, sweep
from evacsim.engine import RunConfig
from evacsim.risk import Scenario, Weights
from helpers import events_of
from test_cli import MICRO_FLAGS, micro_assets
from test_sweep import micro_setup

BENCH = Path(__file__).resolve().parents[1] / "bench"
MODULES = (cli, engine, geo, population, stats, sweep)


def run_counts(tracer_module, tracer) -> dict[str, int]:
    return {name: tracer.counts[name] for name in tracer_module.RUN_COUNTS}


def test_traced_sweep_and_simulate_count_every_run(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    before = {m: dict(vars(m)) for m in MODULES}
    world, profiles, params, spec = micro_setup()
    world_path, pop_path = micro_assets(tmp_path)
    events = tmp_path / "events.csv"

    t = tracer.Tracer()
    t0 = time.perf_counter_ns()
    with tracer.traced(t):
        assert engine.run is not before[engine]["run"]
        assert sweep.WorldIndex is engine.WorldIndex is not before[engine]["WorldIndex"]
        rows = sweep.execute(spec, world, profiles, params, workers=1)
        rc = cli.main(["simulate", "--world", str(world_path), "--population", str(pop_path),
                       "--out-events", str(events), *MICRO_FLAGS])
    wall = time.perf_counter_ns() - t0
    assert rc == 0, capsys.readouterr().err

    runs = len(rows) + 1
    assert run_counts(tracer, t) == {
        "engine.runs": runs, "engine.ticks": 921, "engine.informed": 195,
        "engine.evacuate_decisions": 134, "engine.moving_household_ticks": 1467,
        "engine.redirects": 0, "engine.stranded": 0,
    }
    assert t.counts["engine.event_log_csv.bytes"] == len(events.read_bytes())
    summary = t.summary(wall)
    assert summary["consistent"]
    calls = summary["calls"]
    assert calls["engine.run"] == calls["engine.init_run"] == runs
    assert calls["engine.WorldIndex"] == 2  # one for the sweep, one for simulate
    assert calls["sweep.execute"] == calls["cli.main"] == 1
    for m in MODULES:
        after = vars(m)
        assert after.keys() == before[m].keys()
        assert [k for k, v in before[m].items() if after[k] is not v] == []


def test_traced_counts_of_a_demo_run_with_redirects(demo_index, monkeypatch):
    # The run of the pinned `simulate` event log: 41 redirects, none stranded.
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    cfg = RunConfig(scenario=Scenario.from_names(2, "orange", "nighttime"),
                    weights=Weights(0.1, 0.1, 0.8), threshold=0.8, seed=99)
    t = tracer.Tracer()
    with tracer.traced(t):
        result = engine.run(demo_index, cfg)
    assert run_counts(tracer, t) == {
        "engine.runs": 1, "engine.ticks": 161, "engine.informed": 570,
        "engine.evacuate_decisions": 248, "engine.moving_household_ticks": 4531,
        "engine.redirects": 41, "engine.stranded": 0,
    }
    assert sum(e.event == "redirected" for e in events_of(result.events)) == 41

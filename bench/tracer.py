"""Span shims around evacsim's public functions, installed from outside.

`traced(tracer)` replaces the module globals that callers look up
(`evacsim.engine.step`, `evacsim.sweep.run`, ...) with wrappers that open a
span on entry and close it on exit, and restores the originals on exit.
Because the engine and the sweep look those names up at call time, the
shims also see engine-internal calls. No code under `src/` changes.

Spans live in memory as four flat arrays (name, parent, start, end; times
in integer nanoseconds) and are summarised once the traced pass is over.
Counts are read from the `SimulationState` that `init_run` returns, at the
end of each run, inside a `trace.read_state` span so that the tracer's own
work is visible as overhead rather than as a layer's self time.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

from evacsim import cli, engine, geo, population, stats, sweep

_now = time.perf_counter_ns

# Span names in report order. Each becomes `<name>.self_ms` and `<name>.calls`.
LAYER_SPANS = (
    "geo.load_world",
    "population.load_population",
    "population.validate_profiles",
    "engine.WorldIndex",
    "engine.run",
    "engine.init_run",
    "engine.step.inform",
    "engine.step.move",
    "risk.cdm_score",
    "risk.crf_score",
    "risk.decide",
    "risk.highest_possible_score",
    "engine.event_log_csv",
    "cli.main",
    "sweep.enumerate_combos",
    "sweep.execute",
    "sweep.rows_to_csv",
    "sweep.rows_from_csv",
    "stats.sensitivity",
    "stats.build_design",
    "stats.fit_ols",
    "stats.t_sf",
    "stats.series",
    "stats.report_to_csv",
    "stats.series_to_csv",
)
READ_STATE = "trace.read_state"

# Exact counts summed over the runs of a traced pass.
RUN_COUNTS = (
    "engine.runs",
    "engine.ticks",
    "engine.informed",
    "engine.evacuate_decisions",
    "engine.moving_household_ticks",
    "engine.redirects",
    "engine.stranded",
)
BYTE_COUNTS = ("engine.event_log_csv.bytes", "sweep.rows_to_csv.bytes")
SOURCES = ("authorities", "friends", "media")


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self) -> None:
        self.names: list[str] = list(LAYER_SPANS) + [READ_STATE]
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self.seen_seeds: set[int] = set()
        self.state = None  # SimulationState of the run in progress

    def open(self, name_id: int) -> int:
        stack = self.stack
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0)
        stack.append(i)
        self.start.append(_now())
        return i

    def close(self, i: int) -> None:
        self.end[i] = _now()
        self.stack.pop()

    def span(self, name: str, fn):
        """Wrap fn so every call records one span called name."""
        sid = self._ids[name]
        open_, close = self.open, self.close

        def wrapper(*args, **kwargs):
            i = open_(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)

        return wrapper

    def read_state(self, state) -> None:
        """Add one finished run's counts from its final state."""
        c = self.counts
        c["engine.runs"] += 1
        seed = state.cfg.seed
        if seed in self.seen_seeds:
            c["repeated_seed_runs"] += 1
        self.seen_seeds.add(seed)
        c["engine.ticks"] += state.tick
        c["engine.informed"] += state.informed_count
        c["engine.evacuate_decisions"] += state.evacuate_decisions
        if state.evacuate_decisions == 0:
            c["zero_evac_runs"] += 1
        for h in state.households:
            if h.source is not None:
                c["informed_by." + h.source.name.lower()] += 1
            tried = len(h.tried_shelters)
            if h.stranded:
                c["engine.stranded"] += 1
                # A household stranded at a full shelter tried it without
                # being redirected from it.
                tried -= 1 if tried else 0
            c["engine.redirects"] += tried

    def summary(self, wall_ns: int) -> dict:
        """Per-name self time (ns) and calls, the time no span covers, and
        whether the spans are consistent with wall_ns, the traced pass's
        wall time."""
        if self.stack:
            raise RuntimeError(f"{len(self.stack)} spans still open")
        name = np.frombuffer(self.name, dtype=np.uint16)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        dur = end - start
        nested = parent >= 0
        top_ns = int(dur[~nested].sum())
        child = np.zeros(len(dur), dtype=np.int64)
        np.add.at(child, parent[nested], dur[nested])
        self_ns = dur - child
        pidx = parent[nested]
        uncovered_ns = wall_ns - top_ns
        # Self times sum to top_ns by construction. What can fail: a child
        # outside its parent, children that add up to more than their
        # parent, or top-level spans that add up to more than the pass.
        consistent = (
            bool((start[nested] >= start[pidx]).all())
            and bool((end[nested] <= end[pidx]).all())
            and bool((self_ns >= 0).all())
            and uncovered_ns >= 0
        )
        n = len(self.names)
        self_by = np.zeros(n, dtype=np.int64)
        np.add.at(self_by, name, self_ns)
        calls = np.bincount(name, minlength=n)
        return {
            "self_ns": {self.names[k]: int(self_by[k]) for k in range(n)},
            "calls": {self.names[k]: int(calls[k]) for k in range(n)},
            "spans": len(dur),
            "uncovered_ns": uncovered_ns,
            "consistent": consistent,
        }


@contextmanager
def traced(tracer: Tracer):
    """Install the span shims for the duration of the block."""
    patches: list[tuple[object, str, object]] = []

    def patch(module, attr: str, replacement) -> None:
        patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def wrap(module, attr: str, name: str) -> None:
        patch(module, attr, tracer.span(name, getattr(module, attr)))

    wrap(geo, "load_world", "geo.load_world")
    wrap(population, "load_population", "population.load_population")
    # The engine imported validate_profiles by name; parse_population calls
    # the population module's own global.
    wrap(population, "validate_profiles", "population.validate_profiles")
    wrap(engine, "validate_profiles", "population.validate_profiles")
    for fn in ("cdm_score", "crf_score", "decide", "highest_possible_score"):
        wrap(engine, fn, "risk." + fn)
    wrap(cli, "main", "cli.main")
    wrap(sweep, "enumerate_combos", "sweep.enumerate_combos")
    wrap(sweep, "execute", "sweep.execute")
    wrap(sweep, "rows_from_csv", "sweep.rows_from_csv")
    for fn in ("sensitivity", "build_design", "fit_ols", "t_sf", "series",
               "report_to_csv", "series_to_csv"):
        wrap(stats, fn, "stats." + fn)

    def sized(name: str, fn, counter: str):
        inner = tracer.span(name, fn)

        def wrapper(*args, **kwargs):
            text = inner(*args, **kwargs)
            tracer.counts[counter] += len(text.encode())
            return text

        return wrapper

    patch(engine, "event_log_csv",
          sized("engine.event_log_csv", engine.event_log_csv, "engine.event_log_csv.bytes"))
    patch(sweep, "rows_to_csv",
          sized("sweep.rows_to_csv", sweep.rows_to_csv, "sweep.rows_to_csv.bytes"))

    world_index = engine.WorldIndex
    index_id = tracer._ids["engine.WorldIndex"]

    class TracedWorldIndex(world_index):
        def __init__(self, *args, **kwargs):
            i = tracer.open(index_id)
            try:
                super().__init__(*args, **kwargs)
            finally:
                tracer.close(i)

    patch(engine, "WorldIndex", TracedWorldIndex)
    patch(sweep, "WorldIndex", TracedWorldIndex)

    init_span = tracer.span("engine.init_run", engine.init_run)

    def init_run(*args, **kwargs):
        tracer.state = init_span(*args, **kwargs)
        return tracer.state

    patch(engine, "init_run", init_run)

    step = engine.step
    inform_id = tracer._ids["engine.step.inform"]
    move_id = tracer._ids["engine.step.move"]
    counts = tracer.counts

    def traced_step(state):
        # A tick is an inform tick when some household is still unaware on
        # entry; once everyone is informed only decide/move work remains.
        informing = state.informed_count < len(state.households)
        # Households the move loop visits: those moving on entry plus those
        # that decide to evacuate during the tick.
        moving = len(state.moving) - state.evacuate_decisions
        i = tracer.open(inform_id if informing else move_id)
        try:
            return step(state)
        finally:
            counts["engine.moving_household_ticks"] += moving + state.evacuate_decisions
            tracer.close(i)

    patch(engine, "step", traced_step)

    run_span = tracer.span("engine.run", engine.run)
    read_id = tracer._ids[READ_STATE]

    def run(*args, **kwargs):
        tracer.state = None
        result = run_span(*args, **kwargs)
        i = tracer.open(read_id)
        tracer.read_state(tracer.state)
        tracer.state = None
        tracer.close(i)
        return result

    patch(engine, "run", run)
    patch(sweep, "run", run)
    try:
        yield tracer
    finally:
        for module, attr, original in reversed(patches):
            setattr(module, attr, original)


def layer_metrics(tracer: Tracer, wall_ns: int, untraced_ns: int) -> tuple[dict, dict]:
    """The per-layer metrics of one traced pass, and its span summary."""
    s = tracer.summary(wall_ns)
    c = tracer.counts
    m: dict[str, tuple[float, str]] = {}
    for name in LAYER_SPANS:
        m[name + ".self_ms"] = (s["self_ns"][name] / 1e6, "ms")
        m[name + ".calls"] = (s["calls"][name], "count")
    for name in BYTE_COUNTS:
        m[name] = (c[name], "bytes")
    for name in RUN_COUNTS:
        m[name] = (c[name], "count")

    def share(num: int, den: int) -> float:
        return num / den if den else 0.0

    runs = c["engine.runs"]
    m["sweep.repeated_seed_share"] = (share(c["repeated_seed_runs"], runs), "share")
    m["engine.zero_evac_share"] = (share(c["zero_evac_runs"], runs), "share")
    for src in SOURCES:
        m["engine.informed_by." + src] = (share(c["informed_by." + src], c["engine.informed"]),
                                          "share")
    m["trace.spans"] = (s["spans"], "count")
    m["trace.wall_ms"] = (wall_ns / 1e6, "ms")
    m["trace.untraced_ms"] = (untraced_ns / 1e6, "ms")
    m["trace.overhead_ratio"] = (wall_ns / untraced_ns, "ratio")
    m["trace.uncovered_ms"] = (s["uncovered_ns"] / 1e6, "ms")
    m["trace.read_state_ms"] = (s["self_ns"][READ_STATE] / 1e6, "ms")
    return m, s

"""The three benchmark workloads.

Each workload writes its input files in `setup` and runs one timed unit
of work per `timed` call (a `run_pass`; cold-simulate: one `call`). A pass
returns its wall time, the number of operations it attempted, the bytes it
wrote and the output checks that failed, so the runner can time it, count
failures and compare traced against untraced output. What differs between
workloads in how the runner times, checks and reports them is set by the
attributes and hooks of `Workload`, which each workload overrides.

- paper-grid: the README flow on the paper's canonical grid (one
  replication, 1,296 runs) with the sweep pool at one worker per CPU.
- cold-simulate: back-to-back `evacsim simulate` calls through `cli.main`,
  one client, a fresh seed per call.
- analyze-large: the analysis commands on a 129,600-row results file whose
  outcomes are drawn from the seed; no engine runs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import multiprocessing
import os
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from evacsim import cli, geo, population, stats, sweep, worldgen
from evacsim.seeds import derive_seed

NPROC = len(os.sched_getaffinity(0))

# Each workload's expected_sha is the sha256 of its outputs at --seed
# DEFAULT_SEED, recorded with evacsim at commit 950d623. At any other seed
# the report prints the sha so two commits can be compared by hand.
DEFAULT_SEED = 1


def sha256(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


def _write(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _read(path: Path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


@dataclass
class Pass:
    ns: int  # timed wall time
    ops: int
    outputs: list[bytes]  # everything the pass wrote, in a fixed order
    failures: list[str] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.ns / 1e9

    @property
    def sha(self) -> str:
        return sha256(*self.outputs)


def _grid_slices(spec: sweep.SweepSpec):
    """The 36 scenario x threshold slices of a sweep spec, in axis order."""
    return itertools.product(spec.storm_levels, spec.rainfall_codes,
                             spec.time_of_day_codes, spec.thresholds)


def _expected_grid_keys(spec: sweep.SweepSpec) -> list[tuple]:
    """Canonical (combo_index, storm, rainfall, time, threshold, weights) of
    every valid combination, enumerated here independently of the sweep
    module: weights are whole tenths that sum to exactly one."""
    if not spec.w_cdm_values == spec.w_hrf_values == spec.w_crf_values:
        raise ValueError("the grid check expects one set of weight steps")
    tenths = [round(w * 10) for w in spec.w_cdm_values]
    n_w = len(tenths)
    keys = []
    index = 0
    for storm, rain, tod, th in _grid_slices(spec):
        for a, b, c in itertools.product(range(n_w), repeat=3):
            if tenths[a] + tenths[b] + tenths[c] == 10:
                keys.append((index, storm, rain, tod, th, spec.w_cdm_values[a],
                             spec.w_hrf_values[b], spec.w_crf_values[c]))
            index += 1
    return keys


# The README's population seed. Run times depend strongly on the population
# (its zero-evacuation share ranged 26-40% over five population seeds, and
# the pass time with it), so the population stays fixed and the workload
# seed varies the run seeds instead, which averages out over many runs.
POPULATION_SEED = 42


def _write_world_and_population(work: Path) -> geo.World:
    """The demo village and its README population, as files."""
    world = worldgen.build_demo_world()
    _write(work / "village.world", geo.serialize_world(world))
    profiles = population.synthesize(population.default_population_spec(), world,
                                     POPULATION_SEED)
    _write(work / "population.csv", population.serialize_population(profiles))
    return world


class Workload:
    """The defaults; each workload below overrides what it does differently."""

    name: str
    setups: int  # set-ups per untraced run; setup_s is their median
    # Sweep pool size in the untraced run; above 1 the pool's worker
    # processes count toward peak RSS. Traced runs keep to one process.
    workers = 1
    min_passes = 1  # timed passes an untraced run makes at least
    same_bytes_every_pass = True  # every pass repeats the same work

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> Pass:
        raise NotImplementedError

    def timed(self) -> Pass:
        """One timed operation of the untraced run."""
        return self.run_pass()

    def trace_pass(self) -> Pass:
        """The fixed work of the traced run, in one process."""
        return self.run_pass()

    def extra(self, passes: list[Pass], wall: float) -> dict[str, tuple[float, str]]:
        """Raw figures for the report, beside wall_s, from an untraced run
        whose median pass took wall seconds."""
        return {}

    def describe(self, passes: list[Pass]) -> list[str]:
        """Report lines on the untraced run's outputs."""
        return []

    def trace_checks(self, shimmed: Pass, counts) -> tuple[int, list[str]]:
        """Checks only the traced run makes, given its traced pass and the
        tracer's counts: operations they add, and their failures."""
        return 0, []


class PaperGrid(Workload):
    name = "paper-grid"
    setups = 9
    workers = NPROC
    expected_sha = "321e63d4d3992237ce726827ff5331755590342e316f3b09e426197bc2350847"

    def setup(self) -> None:
        _write_world_and_population(self.work)
        self.spec = sweep.default_sweep_spec(replications=1, base_seed=self.seed)
        _write(self.work / "sweep.cfg", sweep.serialize_sweep_spec(self.spec))

    def run_pass(self, workers: int = NPROC) -> Pass:
        work = self.work
        t0 = time.perf_counter_ns()
        world = geo.load_world(str(work / "village.world"))
        profiles = population.load_population(str(work / "population.csv"), world)
        rows = sweep.execute(self.spec, world, profiles, workers=workers)
        results = sweep.rows_to_csv(rows)
        _write(work / "results.csv", results)
        parsed = sweep.rows_from_csv(_read(work / "results.csv"))
        report = stats.report_to_csv(stats.sensitivity(parsed, "drop-one-weight"))
        _write(work / "report.csv", report)
        series = []
        for k, (storm, rain, tod, th) in enumerate(_grid_slices(self.spec)):
            text = stats.series_to_csv(stats.series(parsed, storm, rain, tod, th))
            _write(work / f"series-{k}.csv", text)
            series.append(text)
        elapsed = time.perf_counter_ns() - t0

        p = Pass(elapsed, len(rows), [results.encode()])
        self.results_sha = p.sha
        p.outputs += [report.encode()] + [s.encode() for s in series]
        if not hasattr(self, "expected_keys"):
            self.expected_keys = _expected_grid_keys(self.spec)
        keys = [(r.combo_index, r.storm, r.rainfall, r.time_of_day, r.threshold,
                 r.w_cdm, r.w_hrf, r.w_crf) for r in rows if r.replicate == 0]
        reps = self.spec.replications
        if len(rows) != len(self.expected_keys) * reps:
            p.failures.append(f"{len(rows)} rows, expected {len(self.expected_keys) * reps}")
        if keys != self.expected_keys or any(
                r.replicate != i % reps for i, r in enumerate(rows)):
            p.failures.append("rows are not in canonical combo-then-replicate order")
        if parsed != rows:
            p.failures.append("results.csv does not read back to the rows written")
        if self.seed == DEFAULT_SEED and self.results_sha != self.expected_sha:
            p.failures.append(f"results.csv sha256 {self.results_sha} != recorded "
                              f"{self.expected_sha}")
        return p

    def cli_sweep_sha(self) -> str:
        """sha256 of the results file `evacsim sweep` writes for the same spec."""
        work = self.work
        argv = ["sweep", "--spec", str(work / "sweep.cfg"), "--world", str(work / "village.world"),
                "--population", str(work / "population.csv"),
                "--out", str(work / "cli-results.csv"), "--workers", str(self.workers)]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if rc != 0:
            return f"exit code {rc}"
        return sha256(_read(work / "cli-results.csv").encode())

    def trace_pass(self) -> Pass:
        return self.run_pass(workers=1)  # keeps every span in one process

    def extra(self, passes: list[Pass], wall: float) -> dict[str, tuple[float, str]]:
        return {"runs_per_s": (passes[0].ops / wall, "1/s")}

    def describe(self, passes: list[Pass]) -> list[str]:
        rows = passes[0].ops
        zero = sum(1 for line in passes[0].outputs[0].decode().splitlines()[1:]
                   if line.split(",")[10] == "0")
        return [f"results_sha256 {self.results_sha}",
                f"zero_evac_runs {zero}/{rows}"]

    def trace_checks(self, shimmed: Pass, counts) -> tuple[int, list[str]]:
        cli_sha = self.cli_sweep_sha()
        if cli_sha != self.results_sha:
            return shimmed.ops, [f"evacsim sweep wrote sha256 {cli_sha}, "
                                 f"the library {self.results_sha}"]
        return shimmed.ops, []


class ColdSimulate(Workload):
    name = "cold-simulate"
    setups = 15
    # sha256 over the summary, events and series files of the first
    # CHECKED_CALLS calls.
    expected_sha = "da361a9969b4d596bcda2ca6cb9b44803d2b6714f0c82ed69a94012f0d2ef4c7"
    CHECKED_CALLS = 8
    min_passes = CHECKED_CALLS
    same_bytes_every_pass = False  # each call runs a fresh seed
    TRACE_CALLS = 24
    # Storm 2, red rain, night, threshold 0.7, CRF-heavy weights on the grid.
    SCENARIO = ["--storm", "2", "--rain", "red", "--time", "night",
                "--threshold", "0.7", "--weights", "0.1,0.1,0.8"]

    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed)
        self.reset()

    def reset(self) -> None:
        """Start the call sequence (and its seeds) from the beginning."""
        self.calls = 0
        self.first_outputs: list[bytes] = []
        self.evacuated: list[int] = []
        self.redirects = 0

    def setup(self) -> None:
        world = _write_world_and_population(self.work)
        self.capacity = {s.id: s.capacity for s in world.shelters if not s.external}

    def call(self, keep_outputs: bool = False) -> Pass:
        """One `evacsim simulate` call, timed; its outputs, checked. The
        outputs stay on the returned pass only if keep_outputs is set, so
        that a long run does not hold every event log in memory."""
        work = self.work
        i = self.calls
        self.calls += 1
        paths = [work / "summary.csv", work / "events.csv", work / "series.csv"]
        argv = ["simulate", "--world", str(work / "village.world"),
                "--population", str(work / "population.csv"), *self.SCENARIO,
                "--seed", str(derive_seed(self.seed, "simulate", i)),
                "--out-summary", str(paths[0]), "--out-events", str(paths[1]),
                "--out-series", str(paths[2])]
        out = io.StringIO()
        t0 = time.perf_counter_ns()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        elapsed = time.perf_counter_ns() - t0

        p = Pass(elapsed, 1, [])
        if rc != 0:
            p.failures.append(f"call {i}: exit code {rc}")
            return p
        outputs = [_read(path).encode() for path in paths]
        p.failures += self._check_events(i, outputs[1].decode())
        self.evacuated.append(int(outputs[0].decode().splitlines()[1].split(",")[10]))
        self.redirects += outputs[1].count(b",redirected,")
        if keep_outputs:
            p.outputs = outputs
        if i < self.CHECKED_CALLS:
            self.first_outputs += outputs
            if (i == self.CHECKED_CALLS - 1 and self.seed == DEFAULT_SEED
                    and self.checked_sha != self.expected_sha):
                p.failures.append(f"first {self.CHECKED_CALLS} calls sha256 "
                                  f"{self.checked_sha} != recorded {self.expected_sha}")
        return p

    @property
    def checked_sha(self) -> str:
        return sha256(*self.first_outputs)

    def _check_events(self, i: int, log: str) -> list[str]:
        failures = []
        lines = log.splitlines()
        if not lines or lines[0] != "tick,agent_kind,agent_id,event,detail":
            return [f"call {i}: event log header missing"]
        for line in lines[1:]:
            tick, kind, hid, event, detail = line.split(",", 4)
            if event != "admitted":
                continue
            fields = dict(part.split("=") for part in detail.split())
            sid, occupancy = int(fields["shelter"]), int(fields["occupancy"])
            if sid in self.capacity and occupancy > self.capacity[sid]:
                failures.append(f"call {i}: shelter {sid} occupancy {occupancy} "
                                f"> capacity {self.capacity[sid]} at tick {tick}")
        return failures

    def timed(self) -> Pass:
        return self.call()

    def run_pass(self) -> Pass:
        """TRACE_CALLS calls from a fresh call counter, as one pass timed
        by the sum of the calls' own times (the checks between calls are not
        part of it)."""
        self.reset()
        total = Pass(0, 0, [])
        for _ in range(self.TRACE_CALLS):
            p = self.call(keep_outputs=True)
            total.ns += p.ns
            total.ops += 1
            total.outputs += p.outputs
            total.failures += p.failures
        return total

    def extra(self, passes: list[Pass], wall: float) -> dict[str, tuple[float, str]]:
        ms = [p.seconds * 1000.0 for p in passes]
        return {"runs_per_s": (len(passes) / sum(p.seconds for p in passes), "1/s"),
                "run_ms.p50": (statistics.median(ms), "ms"),
                "run_ms.p90": (statistics.quantiles(ms, n=10, method="inclusive")[8], "ms")}

    def describe(self, passes: list[Pass]) -> list[str]:
        return [f"run_ms samples {len(passes)} ({len(passes) // 10} beyond p90)",
                f"first_{self.CHECKED_CALLS}_calls_sha256 {self.checked_sha}",
                f"evacuated_per_call min {min(self.evacuated)} max {max(self.evacuated)}",
                f"redirects_per_call {self.redirects / len(self.evacuated):.1f}"]

    def trace_checks(self, shimmed: Pass, counts) -> tuple[int, list[str]]:
        """The redirect and stranding counts the tracer read from final
        states equal the events in the logs."""
        logs = shimmed.outputs[1::3]
        failures = []
        for counter, event in (("engine.redirects", b",redirected,"),
                               ("engine.stranded", b",stranded,")):
            logged = sum(log.count(event) for log in logs)
            if counts[counter] != logged:
                failures.append(f"{counter} {counts[counter]} != {logged} in event logs")
        return 0, failures


def _write_results(path: Path, spec: sweep.SweepSpec, seed: int, replications: int) -> None:
    """A results file on spec's grid whose outcomes are drawn from seed."""
    rng = random.Random(derive_seed(seed, "analyze-large"))
    combos = sweep.filter_valid(sweep.enumerate_combos(spec), spec.weight_filter)
    rows = []
    for c in combos:
        for rep in range(replications):
            # About 40% of the paper grid's runs evacuate nobody.
            evacuated = 0 if rng.random() < 0.4 else rng.randint(1, 570)
            rows.append(sweep.SweepRow(
                c.index, rep, sweep.replicate_seed(spec.base_seed, c, rep),
                c.storm_level, c.rainfall, c.time_of_day, c.threshold,
                c.w_cdm, c.w_hrf, c.w_crf, evacuated, rng.randint(60, 480), False))
    _write(path, sweep.rows_to_csv(rows))


class AnalyzeLarge(Workload):
    name = "analyze-large"
    setups = 4
    # sha256 over both report CSVs and the 36 series CSVs.
    expected_sha = "8ae4cd8246a127c082a033db3d98e64be7f29f84e3aafbd7e60165713b3c2de9"
    REPLICATIONS = 100

    def setup(self) -> None:
        self.spec = sweep.default_sweep_spec(replications=self.REPLICATIONS, base_seed=self.seed)
        self.n_rows = self.REPLICATIONS * len(
            sweep.filter_valid(sweep.enumerate_combos(self.spec), self.spec.weight_filter))
        # The rows and their CSV text are built in a child process, so the
        # peak RSS of this process is that of the analysis passes alone.
        child = multiprocessing.get_context("fork").Process(
            target=_write_results,
            args=(self.work / "results.csv", self.spec, self.seed, self.REPLICATIONS))
        child.start()
        child.join()
        if child.exitcode != 0:
            raise RuntimeError(f"results file generation exited with code {child.exitcode}")

    def run_pass(self) -> Pass:
        work = self.work
        t0 = time.perf_counter_ns()
        rows = sweep.rows_from_csv(_read(work / "results.csv"))
        reports = []
        for mode in ("drop-one-weight", "no-intercept"):
            text = stats.report_to_csv(stats.sensitivity(rows, mode))
            _write(work / f"report-{mode}.csv", text)
            reports.append(text)
        try:
            stats.sensitivity(rows, "intercept-full")
            aliased = None
        except stats.RankDeficiencyError as exc:
            aliased = exc.aliased
        series = []
        for k, (storm, rain, tod, th) in enumerate(_grid_slices(self.spec)):
            text = stats.series_to_csv(stats.series(rows, storm, rain, tod, th))
            _write(work / f"series-{k}.csv", text)
            series.append(text)
        elapsed = time.perf_counter_ns() - t0

        p = Pass(elapsed, 1, [t.encode() for t in reports + series])
        if len(rows) != self.n_rows:
            p.failures.append(f"{len(rows)} rows read back, expected {self.n_rows}")
        if aliased is None or "w_crf" not in aliased:
            p.failures.append(f"intercept-full did not refuse naming w_crf (aliased={aliased})")
        if self.seed == DEFAULT_SEED and p.sha != self.expected_sha:
            p.failures.append(f"analysis outputs sha256 {p.sha} != recorded {self.expected_sha}")
        return p

    def extra(self, passes: list[Pass], wall: float) -> dict[str, tuple[float, str]]:
        return {"rows_per_s": (self.n_rows / wall, "1/s")}

    def describe(self, passes: list[Pass]) -> list[str]:
        return [f"analysis_sha256 {passes[0].sha}", f"rows {self.n_rows}"]


WORKLOADS = {w.name: w for w in (PaperGrid, ColdSimulate, AnalyzeLarge)}

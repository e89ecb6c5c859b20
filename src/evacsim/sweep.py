"""Batch experiment harness: grid enumeration, weight filtering, execution.

The default grid is 2 storm levels x 3 rainfall codes x 2 times of day x
3 thresholds x 8x8x8 weight steps = 18,432 combinations. Only those
whose weights satisfy the filter rule are enumerated: the weight triples
are filtered once, and the 1,296 valid grid points are their product with
the other axes. Each combination runs `replications` times; the replicate
seed is derived by a stable hash of (base seed, threshold-free combination
index, replicate), so combinations that differ only in threshold share
their random draws and threshold effects are exactly paired. They also
share the run's inform phase: the runs of one seed execute back to back
on one world index, which walks the rescuers once for all of them.
"""

from __future__ import annotations

import itertools
from concurrent import futures
from dataclasses import MISSING, dataclass, fields, replace
from operator import attrgetter

import numpy as np

from .engine import EngineParams, RunConfig, RunResult, WorldIndex, run
from .errors import InputError
from .geo import World
from .population import (
    csv_header,
    read_columns,
    read_key_values,
    record_fields,
    records_to_csv,
)
from .risk import STORM_CODES, Scenario, Weights
from .seeds import derive_seed
from .textfile import split_lines

__all__ = [
    "SweepSpec",
    "Combo",
    "SweepRow",
    "SweepTable",
    "FILTER_EXACT_ONE",
    "FILTER_AT_LEAST_ONE",
    "default_sweep_spec",
    "parse_sweep_spec",
    "serialize_sweep_spec",
    "enumerate_combos",
    "filter_valid",
    "execute",
    "rows_to_csv",
    "rows_from_csv",
    "replicate_seed",
    "result_row",
    "RESULTS_HEADER",
]

FILTER_EXACT_ONE = "exact_one"
FILTER_AT_LEAST_ONE = "at_least_one"
WEIGHT_SUM_TOL = 1e-9


@dataclass(frozen=True)
class SweepSpec:
    storm_levels: tuple[int, ...]
    rainfall_codes: tuple[float, ...]
    time_of_day_codes: tuple[float, ...]
    thresholds: tuple[float, ...]
    w_cdm_values: tuple[float, ...]
    w_hrf_values: tuple[float, ...]
    w_crf_values: tuple[float, ...]
    replications: int = 10
    base_seed: int = 1
    weight_filter: str = FILTER_EXACT_ONE

    def __post_init__(self) -> None:
        for level in self.storm_levels:
            if level not in STORM_CODES:
                raise InputError(f"sweep storm level {level} outside supported PSWS range")
        for axis_name in ("rainfall_codes", "time_of_day_codes", "thresholds",
                          "w_cdm_values", "w_hrf_values", "w_crf_values", "storm_levels"):
            axis = getattr(self, axis_name)
            if not axis:
                raise InputError(f"sweep axis {axis_name} is empty")
            if len(set(axis)) != len(axis):
                raise InputError(f"sweep axis {axis_name} has duplicate values")
        if self.replications < 1:
            raise InputError("replications must be >= 1")
        if self.weight_filter not in (FILTER_EXACT_ONE, FILTER_AT_LEAST_ONE):
            raise InputError(f"unknown weight filter {self.weight_filter!r}")


@dataclass(frozen=True)
class Combo:
    index: int  # position in the full enumeration (before filtering)
    scenario_weight_index: int  # position ignoring the threshold axis
    storm_level: int
    rainfall: float
    time_of_day: float
    threshold: float
    w_cdm: float
    w_hrf: float
    w_crf: float


@dataclass(frozen=True)
class SweepRow:
    combo_index: int
    replicate: int
    seed: int
    storm: int
    rainfall: float
    time_of_day: float
    threshold: float
    w_cdm: float
    w_hrf: float
    w_crf: float
    evacuated: int
    ticks: int
    truncated: bool


RESULTS_HEADER = csv_header(SweepRow)
# Seeds are unsigned 64-bit; every other field has its type's array dtype.
_DTYPES = {name: np.uint64 if name == "seed" else kind
           for name, kind, _ in record_fields(SweepRow)}


@dataclass(frozen=True, eq=False)
class SweepTable:
    """Sweep rows as one array per SweepRow field. It iterates as SweepRows
    of plain Python values and equals the list of those rows."""

    columns: dict[str, np.ndarray]

    @classmethod
    def from_rows(cls, rows: list[SweepRow]) -> SweepTable:
        return cls({name: np.fromiter(map(attrgetter(name), rows), dtype, len(rows))
                    for name, dtype in _DTYPES.items()})

    def __len__(self) -> int:
        return len(self.columns["seed"])

    def __iter__(self):
        return map(SweepRow, *(column.tolist() for column in self.columns.values()))

    def __eq__(self, other) -> bool:
        return isinstance(other, (SweepTable, list)) and list(self) == list(other)


def result_row(combo_index: int, replicate: int, cfg: RunConfig, result: RunResult) -> SweepRow:
    """The results-file row of one run of cfg."""
    scenario, weights = cfg.scenario, cfg.weights
    return SweepRow(combo_index, replicate, cfg.seed, scenario.storm_level,
                    scenario.rainfall_severity, scenario.time_of_day, cfg.threshold,
                    weights.w_cdm, weights.w_hrf, weights.w_crf,
                    result.evacuated, result.ticks_elapsed, result.truncated)


_DEFAULT_WEIGHT_STEPS = tuple(round(i / 10, 1) for i in range(1, 9))


def default_sweep_spec(**overrides) -> SweepSpec:
    """The paper's grid; keyword arguments replace SweepSpec fields."""
    return replace(SweepSpec(
        storm_levels=(1, 2),
        rainfall_codes=(0.25, 0.5, 1.0),
        time_of_day_codes=(0.5, 1.0),
        thresholds=(0.7, 0.8, 0.9),
        w_cdm_values=_DEFAULT_WEIGHT_STEPS,
        w_hrf_values=_DEFAULT_WEIGHT_STEPS,
        w_crf_values=_DEFAULT_WEIGHT_STEPS,
    ), **overrides)


def _weights_pass(total: float, mode: str) -> bool:
    """Whether weights summing to `total` pass the weight filter `mode`."""
    if mode == FILTER_EXACT_ONE:
        return abs(total - 1.0) <= WEIGHT_SUM_TOL
    if mode == FILTER_AT_LEAST_ONE:
        return total >= 1.0 - WEIGHT_SUM_TOL
    raise InputError(f"unknown weight filter {mode!r}")


def enumerate_combos(spec: SweepSpec) -> list[Combo]:
    """The combinations whose weights pass spec.weight_filter, in the fixed
    lexicographic axis order of the full Cartesian product: storm,
    rainfall, time of day, threshold, w_cdm, w_hrf, w_crf. Each keeps its
    position in the full product (`index`) and in the product without the
    threshold axis (`scenario_weight_index`). The weight triples are
    filtered once, then crossed with the other axes."""
    triples = list(itertools.product(spec.w_cdm_values, spec.w_hrf_values, spec.w_crf_values))
    # Summed in `filter_valid`'s order, so a triple passes exactly when its
    # combinations do.
    valid = [(wi, w) for wi, w in enumerate(triples)
             if _weights_pass(w[0] + w[1] + w[2], spec.weight_filter)]
    n_triples, n_thresholds = len(triples), len(spec.thresholds)
    scenarios = itertools.product(spec.storm_levels, spec.rainfall_codes, spec.time_of_day_codes)
    return [Combo(index=(si * n_thresholds + ti) * n_triples + wi,
                  scenario_weight_index=si * n_triples + wi,
                  storm_level=storm, rainfall=rain, time_of_day=tod, threshold=th,
                  w_cdm=w1, w_hrf=w2, w_crf=w3)
            for si, (storm, rain, tod) in enumerate(scenarios)
            for ti, th in enumerate(spec.thresholds)
            for wi, (w1, w2, w3) in valid]


def filter_valid(combos: list[Combo], mode: str) -> list[Combo]:
    """The combos whose weights pass `mode`; every combo `enumerate_combos`
    yields for a spec with that filter does."""
    return [c for c in combos if _weights_pass(c.w_cdm + c.w_hrf + c.w_crf, mode)]


def replicate_seed(base_seed: int, combo: Combo, replicate: int) -> int:
    # Keyed on the threshold-free index: combos differing only in threshold
    # get identical seeds, making threshold comparisons exactly paired.
    return derive_seed(base_seed, combo.scenario_weight_index, replicate)


# A seed group: the runs of one scenario_weight_index and one replicate, as
# (replicate, ((combo index, config), ...)). Its runs differ only in
# threshold and share a seed.
SeedGroup = tuple[int, tuple[tuple[int, RunConfig], ...]]


def _seed_groups(spec: SweepSpec) -> list[SeedGroup]:
    """Every run's config, grouped by seed. Every axis value a config would
    refuse raises here (a rainfall or time-of-day code that Scenario
    refuses, a weight that Weights refuses, a threshold outside [0, 1]),
    whether or not a combination the weight filter keeps uses it."""
    # One config per position of the axes, padded with 1.0, a valid value
    # of each; SweepSpec has checked the storm levels.
    for rain, tod, threshold, *ws in itertools.zip_longest(
            spec.rainfall_codes, spec.time_of_day_codes, spec.thresholds,
            spec.w_cdm_values, spec.w_hrf_values, spec.w_crf_values, fillvalue=1.0):
        RunConfig(Scenario(1.0, rain, tod), Weights(*ws), threshold, 0)
    by_sw: dict[int, list[Combo]] = {}
    for combo in enumerate_combos(spec):
        by_sw.setdefault(combo.scenario_weight_index, []).append(combo)
    groups: list[SeedGroup] = []
    for combos in by_sw.values():
        first = combos[0]
        scenario = Scenario(STORM_CODES[first.storm_level], first.rainfall, first.time_of_day)
        weights = Weights(first.w_cdm, first.w_hrf, first.w_crf)
        for rep in range(spec.replications):
            seed = replicate_seed(spec.base_seed, first, rep)
            runs = tuple((c.index, RunConfig(scenario, weights, c.threshold, seed))
                         for c in combos)
            groups.append((rep, runs))
    return groups


def _run_group(group: SeedGroup, index: WorldIndex) -> list[SweepRow]:
    rep, runs = group
    return [result_row(combo_index, rep, cfg, run(index, cfg, collect_events=False))
            for combo_index, cfg in runs]


# The world index of a worker process, set once by _worker_init.
_worker_index: WorldIndex | None = None


def _worker_init(index: WorldIndex) -> None:
    global _worker_index
    _worker_index = index


def _worker_run(group: SeedGroup) -> list[SweepRow]:
    return _run_group(group, _worker_index)


def execute(
    spec: SweepSpec,
    world: World,
    population: dict[str, np.ndarray],
    params: EngineParams = EngineParams(),
    workers: int = 1,
) -> list[SweepRow]:
    """Run every valid combination x replications on the world index of
    (world, population, params). The index is built once, in the caller, and
    the worker processes inherit it (fork) or unpickle it (forkserver, spawn).
    A sweep starts no more workers than it has seed groups, and none for
    one group: it runs that in the calling process.

    A run's config is its combination's scenario, weights and threshold and
    its replicate seed. Every config and the index are built, and so check
    themselves, before the first run, so a spec value a run would reject or
    an input the index refuses fails the sweep before any work, and before
    any worker process starts. Runs execute one seed group at a time; rows
    come back in combo-then-replicate order no matter how many workers
    executed them. A failed run aborts the sweep (runs themselves never
    fail, truncation is recorded per row).
    """
    if workers < 1:
        raise InputError("workers must be >= 1")
    groups = _seed_groups(spec)
    index = WorldIndex(world, population, params)
    workers = min(workers, len(groups))
    if workers <= 1:
        batches = [_run_group(g, index) for g in groups]
    else:
        with futures.ProcessPoolExecutor(workers, initializer=_worker_init,
                                         initargs=(index,)) as pool:
            batches = list(pool.map(_worker_run, groups, chunksize=3))
    rows = [row for batch in batches for row in batch]
    rows.sort(key=lambda r: (r.combo_index, r.replicate))
    return rows


def rows_to_csv(rows: list[SweepRow]) -> str:
    return records_to_csv(SweepRow, rows)


def rows_from_csv(text: str) -> SweepTable:
    """Read a results file into columns (`population.read_columns`). A bad
    file raises InputError naming its first bad line."""
    lines = split_lines(text)
    if not lines or lines[0] != RESULTS_HEADER:
        raise InputError(f"results CSV header mismatch: expected {RESULTS_HEADER!r}")
    return SweepTable(read_columns(SweepRow, lines, lambda lineno, error: InputError(
        f"results CSV line {lineno}: {error}"), _DTYPES))


# --- sweep spec file (flat key = value text) ---

def _list_of(kind):
    return lambda value: tuple(kind(v) for v in value.split(","))


# Parser of a key's value and the error it raises on a ValueError.
_INTS = (_list_of(int), "sweep spec key {key!r}: bad int list")
_FLOATS = (_list_of(float), "sweep spec key {key!r}: bad float list")
_INT = (int, "sweep spec: replications and base_seed must be integers")

# key -> (SweepSpec field, parser, error), in file order. A key left out of
# a file takes its field's default; a key whose field has none is required.
_SPEC_KEYS = {
    "storm_levels": ("storm_levels", *_INTS),
    "rainfall_codes": ("rainfall_codes", *_FLOATS),
    "time_of_day_codes": ("time_of_day_codes", *_FLOATS),
    "thresholds": ("thresholds", *_FLOATS),
    "w_cdm": ("w_cdm_values", *_FLOATS),
    "w_hrf": ("w_hrf_values", *_FLOATS),
    "w_crf": ("w_crf_values", *_FLOATS),
    "replications": ("replications", *_INT),
    "base_seed": ("base_seed", *_INT),
    "weight_filter": ("weight_filter", str, ""),
}
_OPTIONAL_FIELDS = {f.name for f in fields(SweepSpec) if f.default is not MISSING}


def parse_sweep_spec(text: str) -> SweepSpec:
    values: dict[str, str] = {}
    for lineno, key, value in read_key_values(text, "sweep spec"):
        if key not in _SPEC_KEYS:
            raise InputError(f"sweep spec line {lineno}: unknown key {key!r}")
        values[key] = value
    kwargs = {}
    for key, (field, parse, bad_value) in _SPEC_KEYS.items():
        if key in values:
            try:
                kwargs[field] = parse(values[key])
            except ValueError:
                raise InputError(bad_value.format(key=key)) from None
        elif field not in _OPTIONAL_FIELDS:
            raise InputError(f"sweep spec missing key {key!r}")
    return SweepSpec(**kwargs)


def _format(value) -> str:
    if isinstance(value, tuple):
        return ",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in value)
    return str(value)


def serialize_sweep_spec(spec: SweepSpec) -> str:
    lines = ["# evacsim sweep spec"]
    lines += [f"{key} = {_format(getattr(spec, field))}"
              for key, (field, _, _) in _SPEC_KEYS.items()]
    return "\n".join(lines) + "\n"

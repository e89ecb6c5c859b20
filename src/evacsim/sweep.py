"""Batch experiment harness: grid enumeration, weight filtering, execution.

The default grid is 2 storm levels x 3 rainfall codes x 2 times of day x
3 thresholds x 8x8x8 weight steps = 18,432 combinations. Combinations
whose weights do not satisfy the filter rule are skipped. Each surviving
combination runs `replications` times; the replicate seed is derived by a
stable hash of (base seed, threshold-free combination index, replicate),
so combinations that differ only in threshold share their random draws
and threshold effects are exactly paired. They also share the run's
inform phase: the runs of one seed execute back to back on one world
index, which walks the rescuers once for all of them.
"""

from __future__ import annotations

import io
import itertools
from concurrent import futures
from dataclasses import dataclass

from .engine import EngineParams, RunConfig, WorldIndex, run
from .errors import InputError
from .geo import World
from .population import HouseholdProfile
from .risk import STORM_CODES, Scenario, Weights
from .seeds import derive_seed

__all__ = [
    "SweepSpec",
    "Combo",
    "SweepRow",
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
    "RESULTS_HEADER",
]

FILTER_EXACT_ONE = "exact_one"
FILTER_AT_LEAST_ONE = "at_least_one"
WEIGHT_SUM_TOL = 1e-9

RESULTS_HEADER = (
    "combo_index,replicate,seed,storm,rainfall,time_of_day,threshold,"
    "w_cdm,w_hrf,w_crf,evacuated,ticks,truncated"
)


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

    def validate(self) -> None:
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

    @property
    def weight_sum(self) -> float:
        return self.w_cdm + self.w_hrf + self.w_crf


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


_DEFAULT_WEIGHT_STEPS = tuple(round(i / 10, 1) for i in range(1, 9))


def default_sweep_spec(replications: int = 10, base_seed: int = 1,
                       weight_filter: str = FILTER_EXACT_ONE) -> SweepSpec:
    return SweepSpec(
        storm_levels=(1, 2),
        rainfall_codes=(0.25, 0.5, 1.0),
        time_of_day_codes=(0.5, 1.0),
        thresholds=(0.7, 0.8, 0.9),
        w_cdm_values=_DEFAULT_WEIGHT_STEPS,
        w_hrf_values=_DEFAULT_WEIGHT_STEPS,
        w_crf_values=_DEFAULT_WEIGHT_STEPS,
        replications=replications,
        base_seed=base_seed,
        weight_filter=weight_filter,
    )


def enumerate_combos(spec: SweepSpec) -> list[Combo]:
    """Full Cartesian product in a fixed lexicographic axis order:
    storm, rainfall, time of day, threshold, w_cdm, w_hrf, w_crf."""
    spec.validate()
    combos: list[Combo] = []
    sw_size = len(spec.w_cdm_values) * len(spec.w_hrf_values) * len(spec.w_crf_values)
    n_thresholds = len(spec.thresholds)
    idx = 0
    for si, storm in enumerate(spec.storm_levels):
        for ri, rain in enumerate(spec.rainfall_codes):
            for ti, tod in enumerate(spec.time_of_day_codes):
                scen_base = (si * len(spec.rainfall_codes) + ri) * len(spec.time_of_day_codes) + ti
                for th in spec.thresholds:
                    for wi, (w1, w2, w3) in enumerate(
                        itertools.product(spec.w_cdm_values, spec.w_hrf_values, spec.w_crf_values)
                    ):
                        combos.append(Combo(
                            index=idx,
                            scenario_weight_index=scen_base * sw_size + wi,
                            storm_level=storm,
                            rainfall=rain,
                            time_of_day=tod,
                            threshold=th,
                            w_cdm=w1,
                            w_hrf=w2,
                            w_crf=w3,
                        ))
                        idx += 1
    assert idx == (len(spec.storm_levels) * len(spec.rainfall_codes)
                   * len(spec.time_of_day_codes) * n_thresholds * sw_size)
    return combos


def filter_valid(combos: list[Combo], mode: str) -> list[Combo]:
    if mode == FILTER_EXACT_ONE:
        return [c for c in combos if abs(c.weight_sum - 1.0) <= WEIGHT_SUM_TOL]
    if mode == FILTER_AT_LEAST_ONE:
        return [c for c in combos if c.weight_sum >= 1.0 - WEIGHT_SUM_TOL]
    raise InputError(f"unknown weight filter {mode!r}")


def replicate_seed(base_seed: int, combo: Combo, replicate: int) -> int:
    # Keyed on the threshold-free index: combos differing only in threshold
    # get identical seeds, making threshold comparisons exactly paired.
    return derive_seed(base_seed, combo.scenario_weight_index, replicate)


# A seed group: the valid combos of one scenario_weight_index, which differ
# only in threshold, and one replicate. All its runs share a seed.
SeedGroup = tuple[tuple[Combo, ...], int]


def _seed_groups(valid: list[Combo], replications: int) -> list[SeedGroup]:
    by_sw: dict[int, list[Combo]] = {}
    for combo in valid:
        by_sw.setdefault(combo.scenario_weight_index, []).append(combo)
    return [(tuple(combos), rep) for combos in by_sw.values() for rep in range(replications)]


def _run_group(group: SeedGroup, spec: SweepSpec, index: WorldIndex) -> list[SweepRow]:
    combos, rep = group
    rows = []
    for combo in combos:
        seed = replicate_seed(spec.base_seed, combo, rep)
        cfg = RunConfig(
            Scenario(STORM_CODES[combo.storm_level], combo.rainfall, combo.time_of_day),
            Weights(combo.w_cdm, combo.w_hrf, combo.w_crf),
            combo.threshold,
            seed,
        )
        result = run(index, cfg, collect_events=False)
        rows.append(SweepRow(
            combo_index=combo.index,
            replicate=rep,
            seed=seed,
            storm=combo.storm_level,
            rainfall=combo.rainfall,
            time_of_day=combo.time_of_day,
            threshold=combo.threshold,
            w_cdm=combo.w_cdm,
            w_hrf=combo.w_hrf,
            w_crf=combo.w_crf,
            evacuated=result.evacuated,
            ticks=result.ticks_elapsed,
            truncated=result.truncated,
        ))
    return rows


# Worker-process globals, set once per worker by _worker_init.
_WORKER_CTX: dict = {}


def _worker_init(spec: SweepSpec, world: World, profiles: list[HouseholdProfile],
                 params: EngineParams) -> None:
    _WORKER_CTX["spec"] = spec
    _WORKER_CTX["index_args"] = (world, profiles, params)


def _worker_run(group: SeedGroup) -> list[SweepRow]:
    # The index is built by the first task, not by the initializer, so that
    # an InputError it raises reaches the caller instead of breaking the pool.
    if "index" not in _WORKER_CTX:
        _WORKER_CTX["index"] = WorldIndex(*_WORKER_CTX["index_args"])
    return _run_group(group, _WORKER_CTX["spec"], _WORKER_CTX["index"])


def execute(
    spec: SweepSpec,
    world: World,
    profiles: list[HouseholdProfile],
    params: EngineParams = EngineParams(),
    workers: int = 1,
) -> list[SweepRow]:
    """Run every valid combination x replications on the world index of
    (world, profiles, params), built once per worker process.

    A run's config is its combination's scenario, weights and threshold and
    its replicate seed. Runs execute one seed group at a time; rows come
    back in combo-then-replicate order no matter how many workers executed
    them. A failed run aborts the sweep (runs themselves never fail,
    truncation is recorded per row).
    """
    spec.validate()
    if workers < 1:
        raise InputError("workers must be >= 1")
    groups = _seed_groups(filter_valid(enumerate_combos(spec), spec.weight_filter),
                          spec.replications)
    if workers == 1:
        index = WorldIndex(world, profiles, params)
        batches = [_run_group(g, spec, index) for g in groups]
    else:
        with futures.ProcessPoolExecutor(
            max_workers=workers,
            initializer=_worker_init,
            initargs=(spec, world, profiles, params),
        ) as pool:
            batches = list(pool.map(_worker_run, groups, chunksize=3))
    rows = [row for batch in batches for row in batch]
    rows.sort(key=lambda r: (r.combo_index, r.replicate))
    return rows


def _fmt(v: float) -> str:
    return repr(float(v))


def rows_to_csv(rows: list[SweepRow]) -> str:
    buf = io.StringIO()
    buf.write(RESULTS_HEADER + "\n")
    for r in rows:
        buf.write(
            f"{r.combo_index},{r.replicate},{r.seed},{r.storm},{_fmt(r.rainfall)},"
            f"{_fmt(r.time_of_day)},{_fmt(r.threshold)},{_fmt(r.w_cdm)},{_fmt(r.w_hrf)},"
            f"{_fmt(r.w_crf)},{r.evacuated},{r.ticks},{1 if r.truncated else 0}\n"
        )
    return buf.getvalue()


def rows_from_csv(text: str) -> list[SweepRow]:
    lines = text.splitlines()
    if not lines or lines[0] != RESULTS_HEADER:
        raise InputError(f"results CSV header mismatch: expected {RESULTS_HEADER!r}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != 13:
            raise InputError(f"results CSV line {lineno}: expected 13 cells")
        if cells[12] not in ("0", "1"):
            raise InputError(f"results CSV line {lineno}: truncated must be 0 or 1, "
                             f"got {cells[12]!r}")
        try:
            rows.append(SweepRow(
                combo_index=int(cells[0]),
                replicate=int(cells[1]),
                seed=int(cells[2]),
                storm=int(cells[3]),
                rainfall=float(cells[4]),
                time_of_day=float(cells[5]),
                threshold=float(cells[6]),
                w_cdm=float(cells[7]),
                w_hrf=float(cells[8]),
                w_crf=float(cells[9]),
                evacuated=int(cells[10]),
                ticks=int(cells[11]),
                truncated=cells[12] == "1",
            ))
        except ValueError as exc:
            raise InputError(f"results CSV line {lineno}: {exc}") from None
    return rows


# --- sweep spec file (flat key = value text) ---

_SPEC_KEYS = ("storm_levels", "rainfall_codes", "time_of_day_codes", "thresholds",
              "w_cdm", "w_hrf", "w_crf", "replications", "base_seed", "weight_filter")


def parse_sweep_spec(text: str) -> SweepSpec:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(f"sweep spec line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _SPEC_KEYS:
            raise InputError(f"sweep spec line {lineno}: unknown key {key!r}")
        if key in values:
            raise InputError(f"sweep spec line {lineno}: repeated key {key!r}")
        values[key] = value.strip()

    def floats(key: str) -> tuple[float, ...]:
        if key not in values:
            raise InputError(f"sweep spec missing key {key!r}")
        try:
            return tuple(float(v) for v in values[key].split(","))
        except ValueError:
            raise InputError(f"sweep spec key {key!r}: bad float list") from None

    def ints(key: str) -> tuple[int, ...]:
        if key not in values:
            raise InputError(f"sweep spec missing key {key!r}")
        try:
            return tuple(int(v) for v in values[key].split(","))
        except ValueError:
            raise InputError(f"sweep spec key {key!r}: bad int list") from None

    try:
        replications = int(values.get("replications", "10"))
        base_seed = int(values.get("base_seed", "1"))
    except ValueError:
        raise InputError("sweep spec: replications and base_seed must be integers") from None
    spec = SweepSpec(
        storm_levels=ints("storm_levels"),
        rainfall_codes=floats("rainfall_codes"),
        time_of_day_codes=floats("time_of_day_codes"),
        thresholds=floats("thresholds"),
        w_cdm_values=floats("w_cdm"),
        w_hrf_values=floats("w_hrf"),
        w_crf_values=floats("w_crf"),
        replications=replications,
        base_seed=base_seed,
        weight_filter=values.get("weight_filter", FILTER_EXACT_ONE),
    )
    spec.validate()
    return spec


def serialize_sweep_spec(spec: SweepSpec) -> str:
    def join(axis) -> str:
        return ",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in axis)

    return "\n".join([
        "# evacsim sweep spec",
        f"storm_levels = {join(spec.storm_levels)}",
        f"rainfall_codes = {join(spec.rainfall_codes)}",
        f"time_of_day_codes = {join(spec.time_of_day_codes)}",
        f"thresholds = {join(spec.thresholds)}",
        f"w_cdm = {join(spec.w_cdm_values)}",
        f"w_hrf = {join(spec.w_hrf_values)}",
        f"w_crf = {join(spec.w_crf_values)}",
        f"replications = {spec.replications}",
        f"base_seed = {spec.base_seed}",
        f"weight_filter = {spec.weight_filter}",
    ]) + "\n"

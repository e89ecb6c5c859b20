"""Coded household population: synthesis, CSV persistence, validation.

Every decision-relevant attribute of a household head is stored as its
numeric code (see docs/formats.md for the code tables). Synthesis samples
each coded field independently from a configurable categorical
distribution and assigns households to buildings by a seeded shuffle.

The module also holds the text-format helpers the other files share: the
CSV codec that derives a record's columns from its dataclass and reads both
the population and the results file, and the `key = value` reader of the
spec files.
"""

from __future__ import annotations

import itertools
import math
import random
import warnings
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass, fields
from functools import cache
from operator import attrgetter
from typing import Any, get_type_hints

import numpy as np

from .errors import InputError
from .geo import World
from .textfile import content_lines, read_text, split_lines

__all__ = [
    "HouseholdProfile",
    "PopulationSpec",
    "CODED_FIELDS",
    "synthesize",
    "load_population",
    "parse_population_spec",
    "serialize_population_spec",
    "default_population_spec",
    "check_codes",
    "validate_profiles",
    "read_key_values",
    "CellError",
    "csv_header",
    "record_fields",
    "records_to_csv",
    "read_columns",
]


# --- text formats shared by the CSV and spec files ---

# A dataclass record is one CSV line: its field names, in order, are the
# header, and each field's type sets how its cell is written and read.
_CELL_FORMATS = {int: "%d", bool: "%d", float: "%r", str: "%s"}
_read_bool = {"0": False, "1": True}.__getitem__
_CELL_PARSERS = {int: int, float: float, bool: _read_bool, str: str}


class CellError(ValueError):
    """A CSV cell that does not parse as its field's type."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(message)
        self.field = field


@cache
def record_fields(record: type) -> tuple[tuple[str, type, Callable[[str], Any]], ...]:
    """(name, type, cell parser) of each field of a dataclass record, in order."""
    hints = get_type_hints(record)
    return tuple((f.name, hints[f.name], _CELL_PARSERS[hints[f.name]]) for f in fields(record))


def csv_header(record: type) -> str:
    """The CSV header of a dataclass record: its field names, in order."""
    return ",".join(f.name for f in fields(record))


def records_to_csv(record: type, rows: Sequence | Mapping[str, np.ndarray]) -> str:
    """The header line, then one line per row, the rows given as records or
    as their columns keyed by field: int and bool fields as %d, float
    fields as the shortest repr that reads back to the same float (an int
    held in a float field prints as `1.0`), str fields as they are."""
    columns = record_fields(record)
    template = ",".join(_CELL_FORMATS[kind] for _, kind, _ in columns) + "\n"
    # One lazy column per field, zipped back into rows, so that the per-cell
    # work runs in C: a Python loop over each row's cells writes slower.
    cells = [rows[name].tolist() if isinstance(rows, Mapping) else map(attrgetter(name), rows)
             for name, _, _ in columns]
    cells = [map(float, col) if kind is float else col for col, (_, kind, _) in zip(cells, columns)]
    return csv_header(record) + "\n" + "".join(map(template.__mod__, zip(*cells)))


# Lines read per chunk: a chunk's list of cell strings is freed before the
# next one is made, which keeps the peak memory of a read near its input's.
_CHUNK_LINES = 8192
# The only characters of a chunk `_read_plain` hands to `np.loadtxt`. Within
# them loadtxt reads a cell as int() or float() would; outside them it does
# not: it strips whitespace and \x1c-\x1f around a number, which int() and
# float() refuse, and a text cell drops a trailing NUL or \r.
_PLAIN_CHARS = b"0123456789,.eE+-"


def read_columns(record: type, lines: list[str], error: Callable[[int, Exception], Exception],
                 dtypes: dict[str, type] | None = None,
                 check: Callable[[dict], None] = lambda columns: None) -> dict[str, np.ndarray]:
    """The lines after a CSV file's header (`lines[0]`, checked by the
    caller) as one array per field of a dataclass record, keyed by field in
    order. Lines holding only whitespace are skipped; ints must fit in
    int64 (or the field's dtype in `dtypes`), floats be finite, and each
    chunk's columns pass `check` (`check_codes` for a population). Lines
    are read 8,192 at a time. A chunk of plain cells (digits, signs, points
    and exponents only) is parsed by numpy's C parser (`_read_plain`);
    every other chunk, and one that parser cannot vouch for, by the
    per-cell reader (`_read_chunk`), which alone decides what is accepted
    and every error. The first bad line N, found line by line, raises
    error(N, what is wrong, a CellError if a cell is at fault): a wrong
    cell count, then a cell that does not parse, then one that does not
    fit, then what `check` refuses."""
    columns = [(name, parse, (dtypes or {}).get(name, kind))
               for name, kind, parse in record_fields(record)]
    parts = []
    for start in range(1, len(lines), _CHUNK_LINES):
        chunk = lines[start:start + _CHUNK_LINES]
        try:
            parts.append(_read_plain(columns, chunk) or _read_chunk(columns, chunk))
            check(parts[-1])
        except (ValueError, InputError):
            for lineno, line in enumerate(chunk, start=start + 1):
                try:
                    check(_read_chunk(columns, [line]))
                except (ValueError, InputError) as exc:
                    raise error(lineno, exc) from None
            raise
    return {name: np.concatenate([np.empty(0, dtype), *(part[name] for part in parts)])
            for name, _, dtype in columns}


def _read_plain(columns: list[tuple[str, Callable[[str], Any], type]],
                lines: list[str]) -> dict[str, np.ndarray] | None:
    """What `_read_chunk` returns for the lines, parsed by `np.loadtxt`, or
    None where it cannot vouch for that: a line holding a character outside
    `_PLAIN_CHARS`, a cell loadtxt refuses or warns about, a float that is
    not finite, or a bool cell other than `0` or `1`."""
    lines = list(filter(None, lines))
    text = "".join(lines)
    if not text or not text.isascii() or text.encode("ascii").translate(None, _PLAIN_CHARS):
        return None
    # A bool cell is read as text two wide, so that `01` or `10` is not cut
    # to one valid character.
    row = [(name, "U2" if parse is _read_bool else dtype) for name, parse, dtype in columns]
    with warnings.catch_warnings():
        # Older numpy reads `1.0` or an int out of range through a float,
        # with only a warning.
        warnings.simplefilter("error")
        try:
            table = np.loadtxt(lines, delimiter=",", comments=None, dtype=row, ndmin=1)
        except (ValueError, OverflowError, Warning):
            return None
    if len(table) != len(lines):
        return None
    arrays = {}
    for name, parse, _ in columns:
        column = table[name]
        if parse is _read_bool:
            if not ((column == "0") | (column == "1")).all():
                return None
            column = column == "1"
        elif parse is float and not np.isfinite(column).all():
            return None
        arrays[name] = np.ascontiguousarray(column)
    return arrays


def _read_chunk(columns: list[tuple[str, Callable[[str], Any], type]],
                lines: list[str]) -> dict[str, np.ndarray]:
    """One array per column, keyed by name, from the lines that are not
    blank. A bad line
    raises ValueError (a CellError if a cell is at fault) without saying
    where; a cell that does not parse comes before one that does not fit."""
    lines = list(filter(str.strip, lines))
    width = len(columns)
    if not set(map(str.count, lines, itertools.repeat(","))) <= {width - 1}:
        raise ValueError(f"expected {width} cells")
    flat = ",".join(lines).split(",") if lines else []
    arrays = {}
    unfit = None
    for i, (name, parse, dtype) in enumerate(columns):
        cells = flat[i::width]
        try:
            value = {cell: parse(cell) for cell in set(cells)}  # few distinct strings
        except KeyError as exc:
            raise CellError(name, f"{name} must be 0 or 1, got {exc.args[0]!r}") from None
        except ValueError as exc:
            raise CellError(name, str(exc)) from None
        if unfit is not None:
            continue
        bad = next((c for c, v in value.items() if parse is float and not math.isfinite(v)), None)
        if bad is not None:
            unfit = CellError(name, f"{name} must be finite, got {bad!r}")
            continue
        try:
            arrays[name] = np.fromiter(map(value.__getitem__, cells), dtype, len(cells))
        except OverflowError:
            unfit = CellError(name, f"{name} does not fit in {np.dtype(dtype).name}")
    if unfit is not None:
        raise unfit
    return arrays


def read_key_values(text: str, what: str) -> Iterator[tuple[int, str, str]]:
    """Yield (line number, key, value) for each `key = value` line of a spec
    file, skipping blank and `#` lines. A line without `=` or a key seen
    before raises InputError, its message prefixed with "<what> line <n>:"."""
    seen: set[str] = set()
    for lineno, line in content_lines(text):
        if "=" not in line:
            raise InputError(f"{what} line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in seen:
            raise InputError(f"{what} line {lineno}: repeated key {key!r}")
        seen.add(key)
        yield lineno, key, value.strip()


# field name -> {category name: code}. Order matters: it is the sampling
# order during synthesis, and HouseholdProfile lists the fields, which are
# the CSV columns, in the same order.
CODED_FIELDS: dict[str, dict[str, float]] = {
    "head_gender": {"male": 0.5, "female": 1.0},
    "educ_level": {"college": 0.25, "high_school": 0.5, "grade_school": 1.0},
    "income_level": {"high": 0.25, "middle": 0.5, "low": 1.0},
    "house_ownership": {"owns": 0.5, "renting": 1.0},
    "has_children": {"no": 0.0, "yes": 1.0},
    "has_elderly": {"no": 0.0, "yes": 1.0},
    "with_disability": {"no": 0.0, "yes": 1.0},
    "years_of_residency": {"more_than_10": 0.5, "at_most_10": 1.0},
    "house_quality": {"concrete": 0.25, "wood": 0.5, "light": 1.0},
    "floor_levels": {"more_than_one": 0.5, "one": 1.0},
    "typhoon_experience": {"yes": 0.5, "no": 1.0},
}
_CODES = {name: sorted(set(codes.values())) for name, codes in CODED_FIELDS.items()}


@dataclass(frozen=True)
class HouseholdProfile:
    """One household; its fields, in order, are the population CSV's columns."""

    id: int
    head_gender: float
    educ_level: float
    income_level: float
    house_ownership: float
    has_children: float
    has_elderly: float
    with_disability: float
    years_of_residency: float
    house_quality: float
    floor_levels: float
    typhoon_experience: float
    members: int
    building_id: int


def check_codes(population: Mapping[str, np.ndarray]) -> None:
    """Raise InputError at the first household with a code not in its
    field's table or fewer than one member, naming its first such field."""
    faults = np.column_stack([~np.isin(population[name], codes) for name, codes in _CODES.items()]
                             + [population["members"] < 1])
    for row, k in zip(*np.nonzero(faults)):
        name = [*_CODES, "members"][k]
        raise InputError(f"{name} code {population[name][row].item()!r} is not one of "
                         f"{_CODES[name]}" if name in _CODES else "members must be >= 1")


CSV_HEADER = csv_header(HouseholdProfile)


@dataclass(frozen=True)
class PopulationSpec:
    """Sampling recipe: one categorical distribution per coded field plus a
    bounded household-size model."""

    count: int
    distributions: dict[str, dict[str, float]]  # field -> {category: probability}
    members_min: int
    members_max: int
    members_mean: float

    def __post_init__(self) -> None:
        if self.count < 0:
            raise InputError(f"count must be >= 0, got {self.count}")
        for name, cats in CODED_FIELDS.items():
            if name not in self.distributions:
                raise InputError(f"missing distribution for field {name!r}")
            dist = self.distributions[name]
            for cat, prob in dist.items():
                if cat not in cats:
                    raise InputError(f"unknown category {cat!r} for field {name!r}")
                if not 0.0 <= prob <= 1.0:
                    raise InputError(f"{name}.{cat} probability {prob} outside [0, 1]")
            total = sum(dist.values())
            if abs(total - 1.0) > 1e-9:
                raise InputError(f"{name} probabilities sum to {total!r}, expected 1.0")
        if not 1 <= self.members_min <= self.members_max:
            raise InputError("members range requires 1 <= min <= max")
        if not self.members_min <= self.members_mean <= self.members_max:
            raise InputError("members_mean must lie inside [members_min, members_max]")


def default_population_spec(count: int = 570) -> PopulationSpec:
    """Illustrative marginals for a flood-prone, largely low-income village.

    These are stand-in values, not census figures; every probability is
    configurable through the population spec file.
    """
    return PopulationSpec(
        count=count,
        distributions={
            "head_gender": {"male": 0.45, "female": 0.55},
            "educ_level": {"college": 0.07, "high_school": 0.28, "grade_school": 0.65},
            "income_level": {"high": 0.04, "middle": 0.16, "low": 0.80},
            "house_ownership": {"owns": 0.60, "renting": 0.40},
            "has_children": {"no": 0.27, "yes": 0.73},
            "has_elderly": {"no": 0.58, "yes": 0.42},
            "with_disability": {"no": 0.94, "yes": 0.06},
            "years_of_residency": {"more_than_10": 0.40, "at_most_10": 0.60},
            "house_quality": {"concrete": 0.10, "wood": 0.28, "light": 0.62},
            "floor_levels": {"more_than_one": 0.08, "one": 0.92},
            "typhoon_experience": {"yes": 0.35, "no": 0.65},
        },
        members_min=1,
        members_max=10,
        members_mean=4.5,
    )


def _sample_category(rng: random.Random, dist: dict[str, float], order: dict[str, float]) -> float:
    """Inverse-CDF draw in the field's canonical category order."""
    u = rng.random()
    acc = 0.0
    code = None
    for cat in order:
        p = dist.get(cat, 0.0)
        acc += p
        if p > 0.0:
            code = order[cat]
        if u < acc and code is not None:
            return code
    assert code is not None  # a PopulationSpec checks, when built, that they sum to 1
    return code  # numeric slack: u landed beyond the accumulated sum


def _sample_members(rng: random.Random, lo: int, hi: int, mean: float) -> int:
    # lo + Binomial(hi-lo, p) has mean exactly `mean` and stays inside [lo, hi].
    span = hi - lo
    if span == 0:
        return lo
    p = (mean - lo) / span
    hits = sum(1 for _ in range(span) if rng.random() < p)
    return lo + hits


def synthesize(spec: PopulationSpec, world: World, seed: int) -> dict[str, np.ndarray]:
    """Draw spec.count households onto distinct buildings, as columns.

    Deterministic in (spec, world, seed): fields are sampled household by
    household in CODED_FIELDS order, members last, then buildings are
    assigned by one seeded shuffle of the sorted building ids.
    """
    if spec.count > len(world.buildings):
        raise InputError(
            f"cannot place {spec.count} households on {len(world.buildings)} buildings"
        )
    rng = random.Random(seed)
    drawn: dict[str, list] = {name: [] for name in ("id", *CODED_FIELDS, "members")}
    for i in range(spec.count):
        drawn["id"].append(i)
        for name, order in CODED_FIELDS.items():
            drawn[name].append(_sample_category(rng, spec.distributions[name], order))
        drawn["members"].append(
            _sample_members(rng, spec.members_min, spec.members_max, spec.members_mean))
    building_ids = sorted(world.buildings)
    rng.shuffle(building_ids)
    drawn["building_id"] = building_ids[:spec.count]
    return {name: np.array(drawn[name], kind) for name, kind, _ in record_fields(HouseholdProfile)}


def validate_profiles(population: Mapping[str, np.ndarray], world: World) -> None:
    """Reject what `check_codes` refuses, ids that are not 0..n-1 in row
    order, a building assigned twice, and a building not in the world."""
    check_codes(population)
    ids = population["id"].tolist()
    seen_buildings: set[int] = set()
    for row, (hid, building) in enumerate(zip(ids, population["building_id"].tolist())):
        if hid != row:
            raise InputError(f"household {row} has id {hid}: ids must be "
                             f"0..{len(ids) - 1} in row order")
        if building in seen_buildings:
            raise InputError(f"building {building} assigned to more than one household")
        seen_buildings.add(building)
        if building not in world.buildings:
            raise InputError(f"household {hid}: unknown building {building}")


def serialize_population(population: Mapping[str, np.ndarray]) -> str:
    return records_to_csv(HouseholdProfile, population)


def load_population(path: str, world: World | None = None) -> dict[str, np.ndarray]:
    """The columns of a population CSV file (`parse_population`, which runs
    `check_codes`); errors name the offending row and column. Whether the
    households fit together and fit a world (`validate_profiles`) is
    checked once, by the `engine.WorldIndex` built on them; `world` is
    accepted for callers that pass it and is not read."""
    return parse_population(read_text(path, "population file"))


def parse_population(text: str) -> dict[str, np.ndarray]:
    """The columns of a population CSV, keyed by HouseholdProfile field in
    order, read by `read_columns`, which runs `check_codes` on each chunk;
    `validate_profiles` is left to the index built on them."""
    lines = split_lines(text)
    if not lines:
        raise InputError("population CSV is empty")
    if lines[0] != CSV_HEADER:
        raise InputError(f"population CSV header mismatch: expected {CSV_HEADER!r}")
    # A bad cell is named by its field alone.
    return read_columns(HouseholdProfile, lines, lambda lineno, error: InputError(
        f"row {lineno}: {error.field if isinstance(error, CellError) else error}"),
        check=check_codes)


# Scalar keys of the population spec, in file order, with their parsers. The
# other keys are `field.category` probabilities.
_SPEC_SCALARS = {"count": int, "members_min": int, "members_max": int, "members_mean": float}


def parse_population_spec(text: str) -> PopulationSpec:
    scalars: dict[str, int | float] = {}
    distributions: dict[str, dict[str, float]] = {name: {} for name in CODED_FIELDS}
    for lineno, key, value in read_key_values(text, "population spec"):
        try:
            if key in _SPEC_SCALARS:
                scalars[key] = _SPEC_SCALARS[key](value)
            elif "." in key:
                fname, _, cat = key.partition(".")
                if fname not in CODED_FIELDS:
                    raise InputError(f"population spec line {lineno}: unknown field {fname!r}")
                if cat not in CODED_FIELDS[fname]:
                    raise InputError(
                        f"population spec line {lineno}: unknown category {cat!r} for {fname}"
                    )
                distributions[fname][cat] = float(value)
            else:
                raise InputError(f"population spec line {lineno}: unknown key {key!r}")
        except ValueError:
            raise InputError(f"population spec line {lineno}: bad value {value!r}") from None
    if len(scalars) != len(_SPEC_SCALARS):
        raise InputError(f"population spec must define {', '.join(_SPEC_SCALARS)}")
    return PopulationSpec(distributions=distributions, **scalars)  # type: ignore[arg-type]


def serialize_population_spec(spec: PopulationSpec) -> str:
    out = ["# evacsim population spec"]
    out += [f"{key} = {getattr(spec, key)}" for key in _SPEC_SCALARS]
    for name in CODED_FIELDS:
        for cat in CODED_FIELDS[name]:
            out.append(f"{name}.{cat} = {repr(spec.distributions[name].get(cat, 0.0))}")
    return "\n".join(out) + "\n"

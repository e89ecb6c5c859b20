"""Coded household population: synthesis, CSV persistence, validation.

Every decision-relevant attribute of a household head is stored as its
numeric code (see docs/formats.md for the code tables). Synthesis samples
each coded field independently from a configurable categorical
distribution and assigns households to buildings by a seeded shuffle.
"""

from __future__ import annotations

import csv
import io
import random
from collections.abc import Iterator
from dataclasses import dataclass, fields

from .errors import InputError
from .geo import World

__all__ = [
    "HouseholdProfile",
    "PopulationSpec",
    "PopulationError",
    "CODED_FIELDS",
    "synthesize",
    "load_population",
    "parse_population_spec",
    "serialize_population_spec",
    "default_population_spec",
    "validate_profiles",
    "read_key_values",
]


class PopulationError(InputError):
    pass


# field name -> {category name: code}. Order matters: it is the sampling
# order during synthesis and the CSV column order.
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

@dataclass(frozen=True)
class HouseholdProfile:
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


_PROFILE_FIELDS = [f.name for f in fields(HouseholdProfile)]
CSV_HEADER = ",".join(_PROFILE_FIELDS)


@dataclass(frozen=True)
class PopulationSpec:
    """Sampling recipe: one categorical distribution per coded field plus a
    bounded household-size model."""

    count: int
    distributions: dict[str, dict[str, float]]  # field -> {category: probability}
    members_min: int
    members_max: int
    members_mean: float

    def validate(self) -> None:
        if self.count < 0:
            raise PopulationError(f"count must be >= 0, got {self.count}")
        for name, cats in CODED_FIELDS.items():
            if name not in self.distributions:
                raise PopulationError(f"missing distribution for field {name!r}")
            dist = self.distributions[name]
            for cat, prob in dist.items():
                if cat not in cats:
                    raise PopulationError(f"unknown category {cat!r} for field {name!r}")
                if not 0.0 <= prob <= 1.0:
                    raise PopulationError(f"{name}.{cat} probability {prob} outside [0, 1]")
            total = sum(dist.values())
            if abs(total - 1.0) > 1e-9:
                raise PopulationError(f"{name} probabilities sum to {total!r}, expected 1.0")
        if not 1 <= self.members_min <= self.members_max:
            raise PopulationError("members range requires 1 <= min <= max")
        if not self.members_min <= self.members_mean <= self.members_max:
            raise PopulationError("members_mean must lie inside [members_min, members_max]")


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
    assert code is not None  # validate() guarantees probabilities sum to 1
    return code  # numeric slack: u landed beyond the accumulated sum


def _sample_members(rng: random.Random, lo: int, hi: int, mean: float) -> int:
    # lo + Binomial(hi-lo, p) has mean exactly `mean` and stays inside [lo, hi].
    span = hi - lo
    if span == 0:
        return lo
    p = (mean - lo) / span
    hits = sum(1 for _ in range(span) if rng.random() < p)
    return lo + hits


def synthesize(spec: PopulationSpec, world: World, seed: int) -> list[HouseholdProfile]:
    """Draw spec.count households and assign them to distinct buildings.

    Deterministic in (spec, world, seed): fields are sampled household by
    household in CODED_FIELDS order, members last, then buildings are
    assigned by one seeded shuffle of the sorted building ids.
    """
    spec.validate()
    if spec.count > len(world.buildings):
        raise PopulationError(
            f"cannot place {spec.count} households on {len(world.buildings)} buildings"
        )
    rng = random.Random(seed)
    drawn: list[dict[str, float | int]] = []
    for i in range(spec.count):
        row: dict[str, float | int] = {"id": i}
        for name, order in CODED_FIELDS.items():
            row[name] = _sample_category(rng, spec.distributions[name], order)
        row["members"] = _sample_members(rng, spec.members_min, spec.members_max, spec.members_mean)
        drawn.append(row)
    building_ids = sorted(world.buildings)
    rng.shuffle(building_ids)
    profiles = []
    for i, row in enumerate(drawn):
        row["building_id"] = building_ids[i]
        profiles.append(HouseholdProfile(**row))  # type: ignore[arg-type]
    return profiles


def validate_profiles(profiles: list[HouseholdProfile], world: World | None = None) -> None:
    """Reject invalid codes and non-injective building assignments."""
    seen_ids: set[int] = set()
    seen_buildings: set[int] = set()
    for p in profiles:
        if p.id in seen_ids:
            raise PopulationError(f"duplicate household id {p.id}")
        seen_ids.add(p.id)
        for name, cats in CODED_FIELDS.items():
            value = getattr(p, name)
            if value not in cats.values():
                raise PopulationError(
                    f"household {p.id}: {name} code {value!r} is not one of {sorted(cats.values())}"
                )
        if p.members < 1:
            raise PopulationError(f"household {p.id}: members must be >= 1")
        if p.building_id in seen_buildings:
            raise PopulationError(f"building {p.building_id} assigned to more than one household")
        seen_buildings.add(p.building_id)
        if world is not None and p.building_id not in world.buildings:
            raise PopulationError(f"household {p.id}: unknown building {p.building_id}")


def _fmt_code(v: float) -> str:
    return repr(float(v))


def serialize_population(profiles: list[HouseholdProfile]) -> str:
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for p in profiles:
        cells = [str(p.id)]
        cells += [_fmt_code(getattr(p, name)) for name in CODED_FIELDS]
        cells += [str(p.members), str(p.building_id)]
        buf.write(",".join(cells) + "\n")
    return buf.getvalue()


def load_population(path: str, world: World | None = None) -> list[HouseholdProfile]:
    """Load and validate a population CSV; errors name the offending row and
    column."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    except OSError as exc:
        raise PopulationError(f"cannot read population file {path}: {exc}") from exc
    return parse_population(text, world)


def parse_population(text: str, world: World | None = None) -> list[HouseholdProfile]:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise PopulationError("population CSV is empty") from None
    if header != _PROFILE_FIELDS:
        raise PopulationError(
            f"population CSV header mismatch: expected {CSV_HEADER!r}"
        )
    profiles: list[HouseholdProfile] = []
    for rownum, cells in enumerate(reader, start=2):
        if not cells:
            continue
        if len(cells) != len(_PROFILE_FIELDS):
            raise PopulationError(f"row {rownum}: expected {len(_PROFILE_FIELDS)} cells")
        row: dict[str, float | int] = {}
        try:
            row["id"] = int(cells[0])
        except ValueError:
            raise PopulationError(f"row {rownum}: id") from None
        for col, name in enumerate(CODED_FIELDS, start=1):
            try:
                value = float(cells[col])
            except ValueError:
                raise PopulationError(f"row {rownum}: {name}") from None
            if value not in CODED_FIELDS[name].values():
                raise PopulationError(f"row {rownum}: {name} code {cells[col]} is invalid")
            row[name] = value
        try:
            row["members"] = int(cells[-2])
            row["building_id"] = int(cells[-1])
        except ValueError:
            raise PopulationError(f"row {rownum}: members/building_id") from None
        profiles.append(HouseholdProfile(**row))  # type: ignore[arg-type]
    validate_profiles(profiles, world)
    return profiles


# --- spec files (flat key = value text) ---

def read_key_values(text: str, what: str,
                    error: type[InputError] = InputError) -> Iterator[tuple[int, str, str]]:
    """Yield (line number, key, value) for each `key = value` line of a spec
    file, skipping blank and `#` lines. A line without `=` or a key seen
    before raises error, its message prefixed with "<what> line <n>:"."""
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise error(f"{what} line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in seen:
            raise error(f"{what} line {lineno}: repeated key {key!r}")
        seen.add(key)
        yield lineno, key, value.strip()


# Scalar keys of the population spec, in file order, with their parsers. The
# other keys are `field.category` probabilities.
_SPEC_SCALARS = {"count": int, "members_min": int, "members_max": int, "members_mean": float}


def parse_population_spec(text: str) -> PopulationSpec:
    scalars: dict[str, int | float] = {}
    distributions: dict[str, dict[str, float]] = {name: {} for name in CODED_FIELDS}
    for lineno, key, value in read_key_values(text, "population spec", PopulationError):
        try:
            if key in _SPEC_SCALARS:
                scalars[key] = _SPEC_SCALARS[key](value)
            elif "." in key:
                fname, _, cat = key.partition(".")
                if fname not in CODED_FIELDS:
                    raise PopulationError(f"population spec line {lineno}: unknown field {fname!r}")
                if cat not in CODED_FIELDS[fname]:
                    raise PopulationError(
                        f"population spec line {lineno}: unknown category {cat!r} for {fname}"
                    )
                distributions[fname][cat] = float(value)
            else:
                raise PopulationError(f"population spec line {lineno}: unknown key {key!r}")
        except ValueError:
            raise PopulationError(f"population spec line {lineno}: bad value {value!r}") from None
    if len(scalars) != len(_SPEC_SCALARS):
        raise PopulationError(f"population spec must define {', '.join(_SPEC_SCALARS)}")
    spec = PopulationSpec(distributions=distributions, **scalars)  # type: ignore[arg-type]
    spec.validate()
    return spec


def serialize_population_spec(spec: PopulationSpec) -> str:
    out = ["# evacsim population spec"]
    out += [f"{key} = {getattr(spec, key)}" for key in _SPEC_SCALARS]
    for name in CODED_FIELDS:
        for cat in CODED_FIELDS[name]:
            out.append(f"{name}.{cat} = {repr(spec.distributions[name].get(cat, 0.0))}")
    return "\n".join(out) + "\n"

"""Perceived-risk scoring and the evacuate/stay rule.

Three coded factor groups drive the decision: attributes of the household
head (CDM), hazard drivers (HRF), and the household's coping capacity
(CRF). Perceived risk is their weighted sum plus a small bounded-
rationality noise term; a household evacuates when that sum strictly
exceeds a threshold fraction of the highest score the weights allow.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import InputError

__all__ = [
    "STORM_CODES",
    "RAINFALL_CODES",
    "TIME_OF_DAY_CODES",
    "Scenario",
    "Weights",
    "WarningSource",
    "CDM_MAX",
    "HRF_MAX",
    "CRF_MAX",
    "EPSILON_MAX",
    "cdm_score",
    "hrf_score",
    "crf_score",
    "highest_possible_score",
    "perceived_risk",
    "decide",
]

STORM_CODES = {1: 0.25, 2: 0.5, 3: 1.0}  # PSWS level -> code
RAINFALL_CODES = {"yellow": 0.25, "orange": 0.5, "red": 1.0}
TIME_OF_DAY_CODES = {"daytime": 0.5, "nighttime": 1.0}

CDM_MAX = 8.0  # eight decision-maker attributes, each coded at most 1.0
HRF_MAX = 5.0  # five hazard factors
CRF_MAX = 3.0  # three capacity factors

EPSILON_MAX = 0.05


class WarningSource(enum.Enum):
    FRIENDS = 0.25
    MEDIA = 0.5
    AUTHORITIES = 1.0


@dataclass(frozen=True, slots=True)
class Scenario:
    """Exogenous drivers, stored as their numeric codes."""

    storm_severity: float
    rainfall_severity: float
    time_of_day: float

    def __post_init__(self) -> None:
        if self.storm_severity not in STORM_CODES.values():
            raise InputError(
                f"storm severity code {self.storm_severity!r} is not one of "
                f"{sorted(STORM_CODES.values())} (PSWS 4-5 are not representable)"
            )
        if self.rainfall_severity not in RAINFALL_CODES.values():
            raise InputError(f"rainfall code {self.rainfall_severity!r} invalid")
        if self.time_of_day not in TIME_OF_DAY_CODES.values():
            raise InputError(f"time-of-day code {self.time_of_day!r} invalid")

    @property
    def storm_level(self) -> int:
        """The PSWS integer the storm code corresponds to."""
        return next(level for level, code in STORM_CODES.items() if code == self.storm_severity)

    @classmethod
    def from_names(cls, storm_level: int, rainfall: str, time_of_day: str) -> "Scenario":
        if storm_level not in STORM_CODES:
            raise InputError(f"PSWS level {storm_level} is outside the supported range {sorted(STORM_CODES)}")
        if rainfall not in RAINFALL_CODES:
            raise InputError(f"rainfall advisory {rainfall!r} must be one of {sorted(RAINFALL_CODES)}")
        if time_of_day not in TIME_OF_DAY_CODES:
            raise InputError(f"time of day {time_of_day!r} must be one of {sorted(TIME_OF_DAY_CODES)}")
        return cls(STORM_CODES[storm_level], RAINFALL_CODES[rainfall], TIME_OF_DAY_CODES[time_of_day])


@dataclass(frozen=True, slots=True)
class Weights:
    w_cdm: float
    w_hrf: float
    w_crf: float

    def __post_init__(self) -> None:
        for name, w in (("w_cdm", self.w_cdm), ("w_hrf", self.w_hrf), ("w_crf", self.w_crf)):
            if not 0.0 < w <= 1.0:  # False for nan
                raise InputError(f"{name} must be in (0, 1], got {w!r}")


def cdm_score(p: dict[str, float | np.ndarray]) -> float | np.ndarray:
    """Sum of the eight decision-maker codes of one household, or of each
    over a population's columns; computed once per index build."""
    return (
        p["head_gender"]
        + p["income_level"]
        + p["educ_level"]
        + p["has_children"]
        + p["has_elderly"]
        + p["with_disability"]
        + p["house_ownership"]
        + p["years_of_residency"]
    )


def hrf_score(s: Scenario, proximity: float | np.ndarray,
              source: float | np.ndarray) -> float | np.ndarray:
    """Sum of the five hazard codes: the scenario's three, the proximity
    class code and the warning source code (a `ProximityClass` and a
    `WarningSource` value each). Proximity and source may be floats or
    numpy arrays of codes, one per household."""
    return (
        s.storm_severity
        + s.rainfall_severity
        + proximity
        + source
        + s.time_of_day
    )


def crf_score(p: dict[str, float | np.ndarray]) -> float | np.ndarray:
    """Sum of the three capacity codes, keyed by field, as `cdm_score`."""
    return p["house_quality"] + p["floor_levels"] + p["typhoon_experience"]


def highest_possible_score(w: Weights) -> float:
    return CDM_MAX * w.w_cdm + CRF_MAX * w.w_crf + HRF_MAX * w.w_hrf


def perceived_risk(cdm: float | np.ndarray, hrf: float | np.ndarray, crf: float | np.ndarray,
                   epsilon: float | np.ndarray, w: Weights) -> float | np.ndarray:
    """Weighted sum of the three factor scores plus the bounded-rationality
    draw epsilon; floats, or numpy arrays with one entry per household."""
    return cdm * w.w_cdm + hrf * w.w_hrf + crf * w.w_crf + epsilon


def decide(perceived: float | np.ndarray, highest: float,
           threshold: float) -> bool | np.ndarray:
    """True (evacuate) only where perceived risk strictly exceeds threshold x
    highest possible score; ties mean stay. `perceived` is a float, giving a
    bool, or a numpy array, giving a bool array. RunConfig checks that
    threshold lies in [0, 1]."""
    return perceived > threshold * highest

"""Core domain types shared across the pipeline.

Everything downstream (ingestion, detectors, summaries, validity screening,
survival analysis) passes these types around.  They are deliberately plain:
frozen dataclasses with eager validation, no behavior beyond small derived
properties.  Minute-level data is one columnar :class:`MinuteTable` rather
than an object per minute.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import Any, Iterable, Mapping, NamedTuple

import numpy as np

#: Sentinel used by minute-level files for an invalid/unusable MIMS minute.
MIMS_INVALID = -0.01

MINUTES_PER_DAY = 1440

#: Ages at or above this value are stored topcoded.
AGE_TOPCODE = 80.0


class WearState(Enum):
    """Per-minute wear classification."""

    WAKE_WEAR = "wake"
    SLEEP_WEAR = "sleep"
    NON_WEAR = "nonwear"
    UNKNOWN = "unknown"

    @property
    def counts_as_wear(self) -> bool:
        # Unknown minutes count as wear for validity arithmetic.
        return self is not WearState.NON_WEAR


#: Row/column order used for wear-state transition tables.
TRANSITION_STATE_ORDER = (
    WearState.UNKNOWN,
    WearState.NON_WEAR,
    WearState.SLEEP_WEAR,
    WearState.WAKE_WEAR,
)


@dataclass(frozen=True)
class TriaxialRecording:
    """A chunk of raw triaxial acceleration, in g, at a fixed sampling rate.

    Axes are stored as separate arrays so per-axis pipelines (activity
    counts, MIMS) never pay for a transpose.
    """

    subject_id: str
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    sample_rate_hz: float = 80.0

    def __post_init__(self) -> None:
        for name in ("x", "y", "z"):
            object.__setattr__(self, name, np.asarray(getattr(self, name)))
        if not (self.x.ndim == self.y.ndim == self.z.ndim == 1):
            raise ValueError("axis arrays must be one-dimensional")
        if not (len(self.x) == len(self.y) == len(self.z)):
            raise ValueError("x, y, z must have equal length")
        if not self.sample_rate_hz > 0:
            raise ValueError("sample_rate_hz must be positive")
        for name in ("x", "y", "z"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"non-finite samples in axis {name}")

    def __len__(self) -> int:
        return len(self.x)

    @property
    def duration_seconds(self) -> float:
        return len(self.x) / self.sample_rate_hz


#: Wear states in the order of their int8 codes in :attr:`MinuteTable.wear`.
WEAR_STATES = tuple(WearState)
WEAR_CODE = {state: code for code, state in enumerate(WEAR_STATES)}


#: The per-minute columns of a :class:`MinuteTable` (besides ``steps``) and
#: their dtypes.
MINUTE_COLUMNS = {
    "subject": str,
    "day": np.int64,
    "minute": np.int64,
    "wear": np.int8,
    "flag": bool,
    "mims": np.float64,
    "ac": np.float64,
}


@dataclass(frozen=True, eq=False)
class MinuteTable:
    """Subject-minutes as aligned columns: one row per (subject, day, minute).

    ``wear`` holds int8 codes into :data:`WEAR_STATES` and ``steps`` is an
    n x k matrix whose columns follow ``detectors``, which are kept sorted.
    ``mims`` may carry the :data:`MIMS_INVALID` sentinel; a sentinel minute
    never counts as nonzero activity and contributes zero to totals.  Every
    row rule and the key-uniqueness check run once, on construction.
    """

    subject: np.ndarray
    day: np.ndarray
    minute: np.ndarray
    wear: np.ndarray
    flag: np.ndarray
    mims: np.ndarray
    ac: np.ndarray
    steps: np.ndarray
    detectors: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        n = len(self.subject)
        for name, dtype in MINUTE_COLUMNS.items():
            value = np.asarray(getattr(self, name), dtype=dtype)
            if value.shape != (n,):
                raise ValueError(f"{name} has shape {value.shape} for {n} minutes")
            object.__setattr__(self, name, value)
        detectors = tuple(self.detectors)
        steps = np.asarray(self.steps, dtype=np.float64)
        if steps.shape != (n, len(detectors)) or len(set(detectors)) < len(detectors):
            raise ValueError(
                f"steps has shape {steps.shape} for {n} minutes and "
                f"detectors {detectors}"
            )
        order = sorted(range(len(detectors)), key=detectors.__getitem__)
        object.__setattr__(self, "steps", steps[:, order])
        object.__setattr__(self, "detectors", tuple(detectors[j] for j in order))

        def usable(values: np.ndarray) -> np.ndarray:
            return np.isfinite(values) & (values >= 0)

        def reject(bad: np.ndarray, rule: str) -> None:
            if bad.any():
                raise ValueError(f"minute {self.key(int(np.argmax(bad)))}: {rule}")

        reject(self.day < 1, "day starts at 1")
        reject((self.minute < 0) | (self.minute > 1439), "minute must lie in [0, 1439]")
        reject((self.wear < 0) | (self.wear >= len(WEAR_STATES)), "unknown wear code")
        reject(~np.isfinite(self.mims), "mims must be finite")
        reject(
            (self.mims < 0) & (self.mims != MIMS_INVALID),
            f"negative mims is not the invalid sentinel {MIMS_INVALID}",
        )
        reject(~usable(self.ac), "ac must be finite and nonnegative")
        bad_steps = ~usable(self.steps)
        for j, name in enumerate(self.detectors):
            reject(bad_steps[:, j], f"steps[{name!r}] must be finite and nonnegative")
        check_unique_minutes(self)

    def __len__(self) -> int:
        return len(self.subject)

    def key(self, i: int) -> tuple[str, int, int]:
        """The (subject, day, minute) key of row ``i``."""
        return (str(self.subject[i]), int(self.day[i]), int(self.minute[i]))

    @functools.cached_property
    def row_order(self) -> RowOrder:
        """The rows in (subject, day, minute) order, sorted once per table."""
        return sort_minute_keys(self.subject, self.day, self.minute)


class RowOrder(NamedTuple):
    """A stable (subject, day, minute) order of a table's rows.

    ``order`` holds the row indices in key order, rows with equal keys in
    table order; ``subjects`` the sorted distinct subject names; ``code``
    each ordered row's index into ``subjects``.
    """

    order: np.ndarray
    subjects: np.ndarray
    code: np.ndarray


def sort_minute_keys(
    subject: np.ndarray, day: np.ndarray, minute: np.ndarray
) -> RowOrder:
    """The stable (subject, day, minute) order of aligned key columns.

    Only the first name of each run of equal subjects is sorted as text;
    the rows are then ordered by a ``lexsort`` on the subject codes, which
    gives the order of a ``lexsort`` on the names themselves.
    """
    n = len(subject)
    run_start = np.ones(n, dtype=bool)
    run_start[1:] = subject[1:] != subject[:-1]
    starts = np.flatnonzero(run_start)
    subjects, run_code = np.unique(subject[starts], return_inverse=True)
    code = np.repeat(run_code, np.diff(starts, append=n))
    order = np.lexsort((minute, day, code))
    return RowOrder(order, subjects, code[order])


def stack_minutes(blocks: Iterable[Mapping[str, Any]]) -> MinuteTable:
    """Build one table from row blocks, each a mapping of the table's fields.

    The detectors are the union over the blocks; a detector that a block
    lacks reads 0 steps there.
    """
    return MinuteTable(**stack_fields(blocks))


def stack_fields(blocks: Iterable[Mapping[str, Any]]) -> dict[str, Any]:
    """The :class:`MinuteTable` fields of the stacked ``blocks``.

    Each column is built on its own, and its parts are let go once it is
    built, so blocks passed as a generator are never all held beside the
    stacked columns.  The blocks themselves are left as they are.
    """
    parts: dict[str, list] = {name: [] for name in (*MINUTE_COLUMNS, "steps", "detectors")}
    for b in blocks:
        for name, column in parts.items():
            column.append(b[name])
    lengths = [len(subject) for subject in parts["subject"]]
    fields = {
        name: np.concatenate(parts.pop(name)) if lengths else []
        for name in MINUTE_COLUMNS
    }
    names = parts.pop("detectors")
    detectors = tuple(sorted({name for block in names for name in block}))
    index = {name: j for j, name in enumerate(detectors)}
    steps = np.zeros((sum(lengths), len(detectors)))
    stop = 0
    for length, block, block_detectors in zip(lengths, parts.pop("steps"), names):
        start, stop = stop, stop + length
        for j, name in enumerate(block_detectors):
            steps[start:stop, index[name]] = np.asarray(block)[:, j]
    return {**fields, "steps": steps, "detectors": detectors}


def check_unique_minutes(table: MinuteTable) -> None:
    """Reject tables carrying duplicate (subject, day, minute) keys."""
    order, _, code = table.row_order
    d, m = table.day[order], table.minute[order]
    dup = (code[1:] == code[:-1]) & (d[1:] == d[:-1]) & (m[1:] == m[:-1])
    if dup.any():
        raise ValueError(f"duplicate minute key {table.key(order[np.argmax(dup)])}")


@dataclass(frozen=True)
class DaySummary:
    """Validity counts and per-day activity totals for one subject-day.

    Totals are accumulated over valid minutes only, regardless of whether the
    day itself ends up valid.
    """

    subject_id: str
    day_index: int
    n_valid_minutes: int
    n_wake_minutes: int
    n_nonzero_mims_minutes: int
    valid: bool
    totals: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "totals", dict(self.totals))


@dataclass(frozen=True)
class SubjectSummary:
    """Per-subject daily means over valid days, plus the inclusion decision."""

    subject_id: str
    n_valid_days: int
    included: bool
    means: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "means", dict(self.means))


SEX_LEVELS = ("male", "female")
RACE_LEVELS = ("nh_white", "nh_black", "mexican_american", "other_hispanic", "other")
EDUCATION_LEVELS = ("less_than_hs", "hs_equivalent", "more_than_hs")
BMI_LEVELS = ("underweight", "normal", "overweight", "obese")
ALCOHOL_LEVELS = ("never", "former", "moderate", "heavy", "missing_alcohol")
SMOKING_LEVELS = ("never", "former", "current")
HEALTH_LEVELS = ("poor", "fair", "good", "very_good", "excellent")

#: Categorical fields on SubjectCovariates and their closed level sets.
CATEGORICAL_LEVELS: dict[str, tuple[str, ...]] = {
    "sex": SEX_LEVELS,
    "race_ethnicity": RACE_LEVELS,
    "education": EDUCATION_LEVELS,
    "bmi_category": BMI_LEVELS,
    "alcohol": ALCOHOL_LEVELS,
    "smoking": SMOKING_LEVELS,
    "self_reported_health": HEALTH_LEVELS,
}

#: Boolean comorbidity/covariate fields, in design-matrix order.
BOOLEAN_COVARIATES = (
    "diabetes",
    "chd",
    "chf",
    "heart_attack",
    "stroke",
    "cancer",
    "mobility_problem",
)


@dataclass(frozen=True)
class SubjectCovariates:
    """Demographics, health covariates, and survey-design fields.

    Missing alcohol use is kept as its own level (``missing_alcohol``); any
    other missing field leaves the record flagged via :meth:`has_missing`
    so survival analysis can drop it.
    """

    subject_id: str
    wave: str
    age_years: float | None
    sex: str | None
    race_ethnicity: str | None
    education: str | None
    bmi_category: str | None
    diabetes: bool | None
    chd: bool | None
    chf: bool | None
    heart_attack: bool | None
    stroke: bool | None
    cancer: bool | None
    mobility_problem: bool | None
    alcohol: str
    smoking: str | None
    self_reported_health: str | None
    survey_weight: float
    stratum_id: str
    psu_id: str
    age_topcoded: bool = False

    def __post_init__(self) -> None:
        if self.age_years is not None:
            if not 18.0 <= self.age_years <= AGE_TOPCODE:
                raise ValueError("age_years must lie in [18, 80] (topcoded at 80)")
        for name, levels in CATEGORICAL_LEVELS.items():
            value = getattr(self, name)
            if name == "alcohol":
                if value not in levels:
                    raise ValueError(f"unknown alcohol level {value!r}")
            elif value is not None and value not in levels:
                raise ValueError(f"unknown {name} level {value!r}")
        if not self.survey_weight > 0:
            raise ValueError("survey_weight must be positive")

    @property
    def has_missing(self) -> bool:
        if self.age_years is None:
            return True
        for name in CATEGORICAL_LEVELS:
            if name != "alcohol" and getattr(self, name) is None:
                return True
        return any(getattr(self, name) is None for name in BOOLEAN_COVARIATES)


@dataclass(frozen=True)
class MortalityRecord:
    """Linked mortality follow-up for one subject."""

    subject_id: str
    event: bool
    followup_months: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.followup_months) or self.followup_months < 0:
            raise ValueError("followup_months must be finite and nonnegative")


@dataclass(frozen=True)
class AnalysisConfig:
    """Tunable thresholds for validity screening and downstream analysis."""

    min_valid_minutes: int = 1368
    min_wake_minutes: int = 420
    min_nonzero_mims_minutes: int = 420
    min_valid_days: int = 3
    winsor_percentile: float = 0.99
    hr_step_increment: float = 500.0
    cv_folds: int = 10
    cv_repeats: int = 100
    rng_seed: int = 2011
    age_range: tuple[int, int] = (50, 79)
    nonzero_mims_among_valid: bool = True


def _check_config(cfg: AnalysisConfig) -> None:
    if not 1 <= cfg.min_valid_minutes <= MINUTES_PER_DAY:
        raise ValueError("min_valid_minutes must lie in [1, 1440]")
    if not 0 <= cfg.min_wake_minutes <= MINUTES_PER_DAY:
        raise ValueError("min_wake_minutes must lie in [0, 1440]")
    if not 0 <= cfg.min_nonzero_mims_minutes <= MINUTES_PER_DAY:
        raise ValueError("min_nonzero_mims_minutes must lie in [0, 1440]")
    if cfg.min_valid_days < 1:
        raise ValueError("min_valid_days must be at least 1")
    if not 0.0 < cfg.winsor_percentile < 1.0:
        raise ValueError("winsor_percentile must lie in (0, 1)")
    if not cfg.hr_step_increment > 0:
        raise ValueError("hr_step_increment must be positive")
    if cfg.cv_folds < 2:
        raise ValueError("cv_folds must be at least 2")
    if cfg.cv_repeats < 1:
        raise ValueError("cv_repeats must be at least 1")
    if not 0 <= cfg.rng_seed < 2**63:
        raise ValueError("rng_seed must lie in [0, 2**63)")
    lo, hi = cfg.age_range
    if not lo < hi:
        raise ValueError("age_range must be an increasing (low, high) pair")


_CONFIG_FIELDS = {f.name: f.type for f in fields(AnalysisConfig)}


def make_config(overrides: Mapping[str, Any] | None = None) -> AnalysisConfig:
    """Build an :class:`AnalysisConfig`, applying validated overrides.

    Unknown keys and out-of-range values raise ``ValueError``.
    """
    overrides = dict(overrides or {})
    for key in overrides:
        if key not in _CONFIG_FIELDS:
            raise ValueError(f"unknown config key {key!r}")
    if "age_range" in overrides:
        lo, hi = overrides["age_range"]
        overrides["age_range"] = (int(lo), int(hi))
    cfg = replace(AnalysisConfig(), **overrides)
    _check_config(cfg)
    return cfg

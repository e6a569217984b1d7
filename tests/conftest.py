"""Shared fixtures: canonical gait recordings and minute-table builders."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pytest

from stepforge.dsp import vector_magnitude
from stepforge.model import WEAR_CODE, WEAR_STATES, MinuteTable, WearState
from stepforge.simulate import GaitSegment, gen_gait
from stepforge.survival import SurvivalDataset

WALK_RECIPE = [
    GaitSegment("rest", 30, noise_sd_g=0.01),
    GaitSegment("walk", 60, cadence_hz=2.0, amplitude_g=0.35, noise_sd_g=0.01),
    GaitSegment("rest", 30, noise_sd_g=0.01),
]


@pytest.fixture(scope="session")
def walk_recording():
    """120 s: 30 s rest, 60 s of 2 Hz walking (120 true steps), 30 s rest."""
    rec, truth = gen_gait(WALK_RECIPE, sample_rate_hz=80.0, seed=5)
    return rec, truth


@pytest.fixture(scope="session")
def walk_vm(walk_recording):
    rec, truth = walk_recording
    return vector_magnitude(rec), truth


class MinuteRow(NamedTuple):
    """One subject-minute as plain values: input for tables and for oracles."""

    subject_id: str
    day_index: int
    minute_of_day: int
    wear: WearState
    quality_flagged: bool
    mims: float
    ac: float
    steps: dict


def make_minute(
    subject="S1",
    day=1,
    minute=0,
    wear=WearState.WAKE_WEAR,
    flagged=False,
    mims=1.0,
    ac=10,
    steps=None,
):
    return MinuteRow(
        subject, day, minute, wear, flagged, mims, ac,
        {"peak_original": 5.0} if steps is None else dict(steps),
    )


def minute_table(rows):
    """A MinuteTable of rows; a detector a row lacks reads 0 steps there."""
    rows = list(rows)
    detectors = tuple(sorted({name for r in rows for name in r.steps}))
    return MinuteTable(
        subject=[r.subject_id for r in rows],
        day=[r.day_index for r in rows],
        minute=[r.minute_of_day for r in rows],
        wear=[WEAR_CODE[r.wear] for r in rows],
        flag=[r.quality_flagged for r in rows],
        mims=[r.mims for r in rows],
        ac=[r.ac for r in rows],
        steps=np.array(
            [[r.steps.get(name, 0.0) for name in detectors] for r in rows],
            dtype=np.float64,
        ).reshape(len(rows), len(detectors)),
        detectors=detectors,
    )


def minute_rows(table):
    """The rows of a MinuteTable, in table order."""
    return [
        MinuteRow(
            subject, day, minute, WEAR_STATES[wear], flag, mims, ac,
            dict(zip(table.detectors, steps)),
        )
        for subject, day, minute, wear, flag, mims, ac, steps in zip(
            table.subject.tolist(), table.day.tolist(), table.minute.tolist(),
            table.wear.tolist(), table.flag.tolist(), table.mims.tolist(),
            table.ac.tolist(), table.steps.tolist(),
        )
    ]


def assert_tables_equal(a, b):
    """Every column equal in dtype kind and value, bit for bit."""
    assert a.detectors == b.detectors
    for name in ("subject", "day", "minute", "wear", "flag", "mims", "ac", "steps"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype.kind == y.dtype.kind, name
        assert x.shape == y.shape, name
        if x.dtype.kind == "f":
            assert x.tobytes() == y.tobytes(), name
        else:
            assert np.array_equal(x, y), name


def gen_survival(
    n: int,
    beta_per_step: float,
    baseline_hazard: float = 0.002,
    censor_rate: float = 0.3,
    seed: int = 0,
    steps_mean: float = 9000.0,
    steps_sd: float = 3000.0,
) -> SurvivalDataset:
    """Simulate an exponential proportional-hazards cohort on daily steps.

    Event times are exponential with rate
    ``baseline_hazard * exp(beta_per_step * steps)``; censoring times are
    independent exponentials tuned so roughly ``censor_rate`` of subjects
    are censored (none when ``censor_rate`` is 0).

    Returns a dataset with one covariate column named ``steps`` and unit
    weights.
    """
    if n < 2:
        raise ValueError("need at least two subjects")
    if not 0.0 <= censor_rate < 1.0:
        raise ValueError("censor_rate must lie in [0, 1)")
    if baseline_hazard <= 0:
        raise ValueError("baseline_hazard must be positive")
    rng = np.random.default_rng(seed)
    steps = np.maximum(rng.normal(steps_mean, steps_sd, size=n), 0.0)
    rate = baseline_hazard * np.exp(beta_per_step * steps)
    event_time = rng.exponential(1.0 / rate)
    if censor_rate > 0:
        censor_hazard = baseline_hazard * censor_rate / (1.0 - censor_rate)
        censor_time = rng.exponential(1.0 / censor_hazard, size=n)
    else:
        censor_time = np.full(n, np.inf)
    time = np.minimum(event_time, censor_time)
    event = event_time <= censor_time
    return SurvivalDataset(
        followup_months=time,
        event=event,
        covariates=steps.reshape(-1, 1),
        weights=np.ones(n),
        covariate_names=("steps",),
        subject_ids=tuple(f"S{i + 1:04d}" for i in range(n)),
    )

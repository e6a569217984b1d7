"""Synthetic data generators with known ground truth.

The generators close the loop for testing: gait-like raw accelerometry
(known true step counts), minute-level cohorts (known validity outcomes),
and covariates and mortality linked to them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import (
    ALCOHOL_LEVELS,
    BMI_LEVELS,
    EDUCATION_LEVELS,
    HEALTH_LEVELS,
    WEAR_CODE,
    MinuteTable,
    MortalityRecord,
    RACE_LEVELS,
    SEX_LEVELS,
    SMOKING_LEVELS,
    SubjectCovariates,
    TriaxialRecording,
    WearState,
    stack_minutes,
)


@dataclass(frozen=True)
class GaitSegment:
    """One bout of either rest or steady walking."""

    kind: str  # "walk" | "rest"
    duration_s: int
    cadence_hz: float = 0.0
    amplitude_g: float = 0.4
    noise_sd_g: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("walk", "rest"):
            raise ValueError("segment kind must be 'walk' or 'rest'")
        if self.duration_s < 1:
            raise ValueError("duration_s must be a positive whole number of seconds")
        if self.kind == "walk" and not 0.5 <= self.cadence_hz <= 4.0:
            raise ValueError("cadence_hz must lie in [0.5, 4.0] for walk segments")
        if self.noise_sd_g < 0:
            raise ValueError("noise_sd_g must be nonnegative")


def gen_gait(
    recipe: Sequence[GaitSegment],
    sample_rate_hz: float = 80.0,
    seed: int = 0,
    subject_id: str = "sim",
) -> tuple[TriaxialRecording, np.ndarray]:
    """Generate gait-like triaxial data plus the true per-second step counts.

    Each walk segment produces a 1 g baseline plus
    ``amplitude * sin(2*pi*cadence*t)`` along a randomly oriented unit axis,
    with independent Gaussian noise per axis; one step per oscillation, so
    the true step rate equals the cadence.  Rest segments hold the 1 g
    baseline.

    Returns
    -------
    (recording, truth) : (TriaxialRecording, ndarray)
        The raw recording and an array of true steps for each whole second.
    """
    if not recipe:
        raise ValueError("recipe must contain at least one segment")
    for seg in recipe:
        if seg.kind == "walk" and sample_rate_hz < 4.0 * seg.cadence_hz:
            raise ValueError("sample_rate_hz must be at least 4x the cadence")
    rng = np.random.default_rng(seed)
    parts = []
    truth = []
    for seg in recipe:
        n = int(round(seg.duration_s * sample_rate_hz))
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        if seg.kind == "walk":
            t = np.arange(n) / sample_rate_hz
            base = 1.0 + seg.amplitude_g * np.sin(2.0 * np.pi * seg.cadence_hz * t)
            truth.extend([seg.cadence_hz] * seg.duration_s)
        else:
            base = np.ones(n)
            truth.extend([0.0] * seg.duration_s)
        xyz = np.outer(base, axis)
        if seg.noise_sd_g > 0:
            xyz = xyz + rng.normal(scale=seg.noise_sd_g, size=(n, 3))
        parts.append(xyz)
    xyz = np.concatenate(parts, axis=0)
    rec = TriaxialRecording(
        subject_id=subject_id,
        x=xyz[:, 0],
        y=xyz[:, 1],
        z=xyz[:, 2],
        sample_rate_hz=sample_rate_hz,
    )
    return rec, np.asarray(truth)


#: Probabilities of each minute's wear state: wake, sleep, non-wear, unknown.
WEAR_STATE_P = (0.62, 0.33, 0.02, 0.03)
#: Wear-state probabilities of a subject who barely wears the device (all
#: days invalid), and the fraction of such subjects.
LOW_WEAR_STATE_P = (0.45, 0.20, 0.30, 0.05)
P_LOW_WEAR_SUBJECT = 0.15
P_FLAGGED = 0.005
P_ZERO_MIMS = 0.08
COHORT_DETECTORS = ("peak_original", "peak_revised", "spectral", "template")
#: Mean per-minute steps during wake, per detector, before subject scaling.
DETECTOR_SCALE = (6.0, 5.5, 7.0, 1.8)


def make_boundary_day(
    subject_id: str,
    day_index: int,
    n_valid: int,
    n_wake: int,
    n_nonzero_mims: int,
    detector_names: Sequence[str] = COHORT_DETECTORS[:1],
) -> MinuteTable:
    """Construct a full day with exact validity counts.

    The first ``n_valid`` minutes are unflagged wear (the first ``n_wake`` of
    them wake wear, the rest sleep wear) and the first ``n_nonzero_mims``
    carry positive MIMS.  Remaining minutes are non-wear.  Useful for
    exercising thresholds at +/-1 minute.
    """
    if not 0 <= n_wake <= n_valid <= 1440 or not 0 <= n_nonzero_mims <= n_valid:
        raise ValueError("need 0 <= n_wake, n_nonzero_mims <= n_valid <= 1440")
    minute = np.arange(1440)
    wear = np.full(1440, WEAR_CODE[WearState.NON_WEAR], dtype=np.int8)
    wear[:n_valid] = WEAR_CODE[WearState.SLEEP_WEAR]
    wear[:n_wake] = WEAR_CODE[WearState.WAKE_WEAR]
    mims = np.where(minute < n_nonzero_mims, 5.0, 0.0)
    steps = np.where(minute < n_wake, 4.0, 0.0)
    return MinuteTable(
        subject=np.full(1440, subject_id),
        day=np.full(1440, day_index),
        minute=minute,
        wear=wear,
        flag=np.zeros(1440, dtype=bool),
        mims=mims,
        ac=mims * 100,
        steps=np.repeat(steps[:, None], len(detector_names), axis=1),
        detectors=tuple(detector_names),
    )


def gen_cohort(n_subjects: int, n_days: int, seed: int = 0) -> MinuteTable:
    """Sample a minute-level cohort at the module's fixed validity rates.

    Subjects are named ``S0001`` onward.  The first subject's opening days
    sit exactly at the validity thresholds (1368 valid / 420 wake / 420
    nonzero-MIMS minutes) and one minute below them.
    """
    if n_subjects < 1 or n_days < 1:
        raise ValueError("need at least one subject and one day")
    rng = np.random.default_rng(seed)
    states = (
        WearState.WAKE_WEAR,
        WearState.SLEEP_WEAR,
        WearState.NON_WEAR,
        WearState.UNKNOWN,
    )
    state_codes = np.array([WEAR_CODE[state] for state in states], dtype=np.int8)
    scales = np.asarray(DETECTOR_SCALE, dtype=np.float64)
    k = len(scales)
    days: list[dict[str, object]] = []
    for s in range(n_subjects):
        subject = f"S{s + 1:04d}"
        activity = rng.lognormal(mean=0.0, sigma=0.4)
        # Stable relative bias per subject and measure, so subject-level
        # daily means disagree across measures even after averaging.
        measure_bias = rng.lognormal(mean=0.0, sigma=0.1, size=k + 2)
        low_wear = rng.random() < P_LOW_WEAR_SUBJECT
        p_subject = LOW_WEAR_STATE_P if low_wear else WEAR_STATE_P
        for day in range(1, n_days + 1):
            if s == 0 and day <= 4:
                # Days pinned at and just below the validity thresholds.
                n_valid, n_wake, n_mims = [
                    (1368, 420, 420),
                    (1367, 420, 420),
                    (1368, 419, 420),
                    (1368, 420, 419),
                ][day - 1]
                days.append(
                    vars(make_boundary_day(
                        subject, day, n_valid, n_wake, n_mims, COHORT_DETECTORS
                    ))
                )
                continue
            wear_idx = rng.choice(len(states), size=1440, p=p_subject)
            flagged = rng.random(1440) < P_FLAGGED
            zero_mims = rng.random(1440) < P_ZERO_MIMS
            base = rng.gamma(shape=2.0, scale=3.0, size=1440) * activity
            # Detectors disagree minute to minute; without this jitter every
            # measure would be an exact rescaling of the same series.
            jitter = measure_bias * rng.lognormal(
                mean=0.0, sigma=0.2, size=(1440, k + 2)
            )
            active = (wear_idx == states.index(WearState.WAKE_WEAR)) & ~zero_mims
            level = np.where(active, base, 0.0)
            days.append(
                {
                    "subject": np.full(1440, subject),
                    "day": np.full(1440, day),
                    "minute": np.arange(1440),
                    "wear": state_codes[wear_idx],
                    "flag": flagged,
                    "mims": np.round(level * jitter[:, -2] * 2.5, 4),
                    "ac": np.trunc(level * jitter[:, -1] * 180),
                    "steps": np.round(
                        level[:, None] * jitter[:, :k] * scales / 3.0, 3
                    ),
                    "detectors": COHORT_DETECTORS,
                }
            )
    return stack_minutes(days)


def gen_covariates(
    subject_ids: Sequence[str],
    seed: int = 0,
    p_missing: float = 0.0,
    age_range: tuple[float, float] = (18.0, 84.0),
) -> list[SubjectCovariates]:
    """Draw plausible covariate records for the given subjects."""
    rng = np.random.default_rng(seed)
    out = []
    for i, subject in enumerate(subject_ids):
        age = float(min(80.0, round(rng.uniform(*age_range), 1)))
        missing = rng.random() < p_missing
        out.append(
            SubjectCovariates(
                subject_id=subject,
                wave=("2011-2012", "2013-2014")[i % 2],
                age_years=age,
                sex=str(rng.choice(SEX_LEVELS)),
                race_ethnicity=str(rng.choice(RACE_LEVELS)),
                education=None if missing else str(rng.choice(EDUCATION_LEVELS)),
                bmi_category=str(rng.choice(BMI_LEVELS)),
                diabetes=bool(rng.random() < 0.12),
                chd=bool(rng.random() < 0.06),
                chf=bool(rng.random() < 0.04),
                heart_attack=bool(rng.random() < 0.05),
                stroke=bool(rng.random() < 0.04),
                cancer=bool(rng.random() < 0.10),
                mobility_problem=bool(rng.random() < 0.15),
                alcohol=str(rng.choice(ALCOHOL_LEVELS)),
                smoking=str(rng.choice(SMOKING_LEVELS)),
                self_reported_health=str(rng.choice(HEALTH_LEVELS)),
                survey_weight=float(np.round(rng.lognormal(mean=9.0, sigma=0.5), 2)),
                stratum_id=str(1 + i % 4),
                psu_id=str(1 + (i // 4) % 2),
                age_topcoded=age >= 80.0,
            )
        )
    return out


def gen_mortality_from_summary(
    mean_steps: dict[str, float],
    ages: dict[str, float],
    seed: int = 0,
    baseline_hazard: float = 5e-5,
) -> list[MortalityRecord]:
    """Simulate linked mortality for subjects with known step/age covariates.

    The log hazard falls by 1e-4 per daily step and rises by 0.07 per year
    of age past 60; follow-up is censored administratively at 150 months.
    """
    rng = np.random.default_rng(seed)
    out = []
    for subject in sorted(mean_steps):
        steps = mean_steps[subject]
        age = ages.get(subject, 60.0)
        rate = baseline_hazard * math.exp(-1.0e-4 * steps + 0.07 * (age - 60.0))
        t = rng.exponential(1.0 / rate)
        event = t <= 150.0
        out.append(
            MortalityRecord(
                subject_id=subject,
                event=bool(event),
                followup_months=float(round(min(t, 150.0), 2)),
            )
        )
    return out

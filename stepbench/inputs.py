"""Seeded input generators for the three benchmark workloads.

Every generator writes plain files into a directory and returns nothing the
program under test ever sees except those files.  The same (workload, seed)
always gives byte-identical files.  Next to the program's inputs each
generator stores ``expect.npz``/``expect.json`` with the ground truth that
the output checks compare against; the program never reads them.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

# --------------------------------------------------------------------------
# Sizes.  Changing any of these changes every workload's figures.
# --------------------------------------------------------------------------

RATE_HZ = 80.0
RAW_HOURS = 2
RAW_ID = "R0001"
# Each walking bout of the seeded recording draws its cadence uniformly from
# this range (90-135 steps/min), inside the spectral detector's 1.4-2.3 Hz band.
RAW_CADENCE_RANGE_HZ = (1.5, 2.25)
# A short recording that is the same for every seed: rest bouts between walks
# whose stride (2 / cadence s) falls between points of the template
# detector's 0.1 s stride grid.  The detector accuracy checks run on it, so
# the faults named in CHANGES.md fail them on every seed alike.
PROBE_ID = "P0001"
PROBE_SEED = 0
PROBE_RECIPE = (
    ("rest", 60, 0.0), ("walk", 120, 1.7), ("rest", 60, 0.0),
    ("walk", 120, 1.85), ("rest", 60, 0.0), ("walk", 120, 2.04),
)

COHORT_SUBJECTS = 48
COHORT_DAYS = 4

NHANES_SUBJECTS = 2000
NHANES_CV_REPEATS = 1
# The survival inputs are the same for every seed.  Whether cox_fit stops
# one step short of convergence (see CHANGES.md) turns on rounding in the
# last bit of the log-likelihood, so on seeded inputs a rare seed fails and
# the rest pass.  On fixed inputs every run does the same.
NHANES_INPUT_SEED = 0

DETECTORS = ("peak_original", "peak_revised", "spectral", "template")
WEAR_LABELS = ("wake", "sleep", "nonwear", "unknown")
WAKE, SLEEP, NONWEAR, UNKNOWN = range(4)
MIMS_INVALID = -0.01

# Level sets of the covariate table, in the program's dummy-coding order.
CATEGORICAL = {
    "sex": (("male", "female"), (0.47, 0.53)),
    "race_ethnicity": (
        ("nh_white", "nh_black", "mexican_american", "other_hispanic", "other"),
        (0.42, 0.22, 0.12, 0.10, 0.14),
    ),
    "education": (("less_than_hs", "hs_equivalent", "more_than_hs"), (0.20, 0.25, 0.55)),
    "bmi_category": (("underweight", "normal", "overweight", "obese"), (0.08, 0.24, 0.32, 0.36)),
    "alcohol": (
        ("never", "former", "moderate", "heavy", "missing_alcohol"),
        (0.12, 0.25, 0.38, 0.12, 0.13),
    ),
    "smoking": (("never", "former", "current"), (0.50, 0.32, 0.18)),
    "self_reported_health": (
        ("poor", "fair", "good", "very_good", "excellent"),
        (0.08, 0.22, 0.36, 0.24, 0.10),
    ),
}
# Comorbidity prevalences (ages 50-79).
BOOLEANS = {
    "diabetes": 0.22,
    "chd": 0.10,
    "chf": 0.08,
    "heart_attack": 0.09,
    "stroke": 0.08,
    "cancer": 0.16,
    "mobility_problem": 0.25,
}


def _write_rows(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# --------------------------------------------------------------------------
# steps_raw: one multi-hour 80 Hz text recording
# --------------------------------------------------------------------------


def _write_recording(raw_dir: Path, subject: str, recipe, seed: int) -> dict:
    """Write one recording as 4-decimal x,y,z text; return its ground truth."""
    from stepforge.simulate import gen_gait

    rec, truth = gen_gait(recipe, sample_rate_hz=RATE_HZ, seed=seed, subject_id=subject)
    text = raw_dir / f"{subject}.csv"
    np.savetxt(
        text, np.column_stack([rec.x, rec.y, rec.z]), fmt="%.4f",
        delimiter=",", header="x,y,z", comments="",
    )
    walks = [seg for seg in recipe if seg.kind == "walk"]
    return {
        "true_steps": float(math.fsum(truth)),
        "opening_walk_steps": walks[0].cadence_hz * walks[0].duration_s,
        "n_samples": int(len(rec.x)),
    }


def gen_steps_raw(out: Path, seed: int) -> None:
    """The seeded recording of rest and walking bouts, plus the fixed probe."""
    from stepforge.simulate import GaitSegment

    rng = np.random.default_rng([seed, 1])
    recipe = []
    left = int(RAW_HOURS * 3600)  # exact length, so every seed parses as many rows
    while left > 0:
        rest = min(int(rng.integers(120, 600)), left)
        recipe.append(GaitSegment("rest", rest, noise_sd_g=0.02))
        left -= rest
        walk = min(int(rng.integers(120, 900)), left)
        if walk > 0:
            cadence = float(rng.uniform(*RAW_CADENCE_RANGE_HZ))
            recipe.append(
                GaitSegment("walk", walk, cadence_hz=cadence, amplitude_g=0.35, noise_sd_g=0.02)
            )
            left -= walk
    probe = [
        GaitSegment(kind, seconds, cadence_hz=cadence, amplitude_g=0.35, noise_sd_g=0.02)
        for kind, seconds, cadence in PROBE_RECIPE
    ]
    raw_dir = out / "raw"
    raw_dir.mkdir(parents=True)
    expect = {
        RAW_ID: _write_recording(raw_dir, RAW_ID, recipe, seed),
        PROBE_ID: _write_recording(raw_dir, PROBE_ID, probe, PROBE_SEED),
    }
    # Independent parse of the text: decimal -> float64 -> float32, the
    # rounding path the sidecar must reproduce bit for bit.
    xyz = np.loadtxt(raw_dir / f"{RAW_ID}.csv", delimiter=",", skiprows=1, dtype=np.float64)
    np.savez(out / "expect.npz", xyz=xyz.astype(np.float32))
    (out / "expect.json").write_text(json.dumps(expect))


# --------------------------------------------------------------------------
# Covariates shared by the cohort and NHANES-sized workloads
# --------------------------------------------------------------------------


def _covariates(rng, ids, ages, p_missing_education):
    """Covariate rows plus the linear predictor their comorbidities imply."""
    n = len(ids)
    age = np.round(rng.uniform(*ages, size=n), 1)
    cats = {}
    for name, (levels, probs) in CATEGORICAL.items():
        cats[name] = rng.choice(len(levels), size=n, p=probs)
    bools = {name: rng.random(n) < p for name, p in BOOLEANS.items()}
    missing_edu = rng.random(n) < p_missing_education
    weight = np.round(rng.lognormal(mean=9.0, sigma=0.5, size=n), 2)
    stratum = rng.integers(1, 16, size=n)
    psu = rng.integers(1, 3, size=n)
    risk = (
        0.07 * (np.minimum(age, 80.0) - 65.0)
        + 0.5 * bools["diabetes"] + 0.4 * bools["chd"] + 0.7 * bools["chf"]
        + 0.3 * bools["stroke"] + 0.4 * bools["cancer"] + 0.5 * bools["mobility_problem"]
        + 0.5 * (cats["smoking"] == 2) + 0.3 * (cats["sex"] == 0)
        + 0.4 * (cats["self_reported_health"] <= 1)
    )
    rows = []
    for i, subject in enumerate(ids):
        row = [subject, ("2011-2012", "2013-2014")[i % 2], repr(float(age[i]))]
        for name, (levels, _) in CATEGORICAL.items():
            value = levels[cats[name][i]]
            if name == "education" and missing_edu[i]:
                value = ""
            row.append(value)
        row.extend(int(bools[name][i]) for name in BOOLEANS)
        row.extend([repr(float(weight[i])), int(stratum[i]), int(psu[i])])
        rows.append(row)
    header = ["subject", "wave", "age", *CATEGORICAL, *BOOLEANS, "weight", "stratum", "psu"]
    return header, rows, risk


def _mortality(rng, ids, risk, base_hazard: float, cutoff_months: float):
    t = rng.exponential(1.0 / (base_hazard * np.exp(risk)))
    event = t <= cutoff_months
    months = np.round(np.minimum(t, cutoff_months), 2)
    return [[s, int(e), repr(float(m))] for s, e, m in zip(ids, event, months)]


# --------------------------------------------------------------------------
# analyze_cohort: a minute-level cohort with covariates
# --------------------------------------------------------------------------


def _bouts(rng, wear: np.ndarray, state: int, count: int, lo: int, hi: int) -> None:
    for _ in range(count):
        length = int(rng.integers(lo, hi + 1))
        start = int(rng.integers(0, 1440 - length))
        wear[start : start + length] = state


def _cohort_day(rng, activity: float, bias: np.ndarray, low_wear: bool):
    wear = np.full(1440, SLEEP, dtype=np.int8)
    wake_at = int(rng.integers(330, 480))
    bed_at = int(rng.integers(1290, 1410))
    wear[wake_at:bed_at] = WAKE
    if low_wear:
        _bouts(rng, wear, NONWEAR, int(rng.poisson(4.0)), 60, 300)
    else:
        _bouts(rng, wear, NONWEAR, int(rng.poisson(0.6)), 5, 90)
    _bouts(rng, wear, UNKNOWN, int(rng.poisson(4.0)), 1, 20)
    flag = (rng.random(1440) < 0.004).astype(np.int8)

    base = rng.gamma(shape=2.0, scale=3.0, size=1440) * activity
    jitter = bias * rng.lognormal(0.0, 0.2, size=(1440, len(bias)))
    active = (wear == WAKE) & (rng.random(1440) >= 0.08)
    level = np.where(active, base, 0.0)
    mims = np.round(level * jitter[:, 4] * 2.5, 4)
    asleep = wear == SLEEP
    mims[asleep] = np.round(rng.exponential(0.05, size=int(asleep.sum())), 4) * (
        rng.random(int(asleep.sum())) < 0.3
    )
    mims[(wear != NONWEAR) & (rng.random(1440) < 0.003)] = MIMS_INVALID
    ac = np.floor(level * jitter[:, 5] * 180).astype(np.int64)
    scales = np.array([6.0, 5.5, 7.0, 1.8])
    steps = np.round(level[:, None] * jitter[:, :4] * scales / 3.0, 3)
    return wear, flag, mims, ac, steps


def gen_analyze_cohort(out: Path, seed: int) -> None:
    rng = np.random.default_rng([seed, 2])
    ids = [f"S{i + 1:04d}" for i in range(COHORT_SUBJECTS)]
    lines = []
    for subject in ids:
        activity = rng.lognormal(0.0, 0.4)
        bias = rng.lognormal(0.0, 0.1, size=6)
        low_wear = rng.random() < 0.1
        for day in range(1, COHORT_DAYS + 1):
            wear, flag, mims, ac, steps = _cohort_day(rng, activity, bias, low_wear)
            prefix = f"{subject},{day},"
            for m in range(1440):
                lines.append(
                    f"{prefix}{m},{WEAR_LABELS[wear[m]]},{flag[m]},{float(mims[m])!r},"
                    f"{ac[m]},{float(steps[m, 0])!r},{float(steps[m, 1])!r},"
                    f"{float(steps[m, 2])!r},{float(steps[m, 3])!r}\n"
                )
    header = "subject,day,minute,wear,flag,mims,ac," + ",".join(
        f"steps_{d}" for d in DETECTORS
    )
    with open(out / "minutes.csv", "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines(lines)

    cov_header, cov_rows, _ = _covariates(rng, ids, (49.0, 81.0), 0.02)
    _write_rows(out / "covariates.csv", cov_header, cov_rows)


# --------------------------------------------------------------------------
# survival_nhanes: NHANES-sized subject summaries, covariates and mortality
# --------------------------------------------------------------------------


def gen_survival_nhanes(out: Path, seed: int) -> None:
    """The same files for every seed (see ``NHANES_INPUT_SEED``)."""
    rng = np.random.default_rng([NHANES_INPUT_SEED, 3])
    n = NHANES_SUBJECTS
    ids = [f"N{i + 1:05d}" for i in range(n)]
    cov_header, cov_rows, risk = _covariates(rng, ids, (45.0, 85.0), 0.03)
    # Daily means of the six activity measures share one latent level.
    latent = rng.lognormal(0.0, 0.35, size=n)
    base = {
        "ac": 1.9e6, "mims": 1.3e4, "steps_peak_original": 9500.0,
        "steps_peak_revised": 8800.0, "steps_spectral": 11000.0, "steps_template": 3000.0,
    }
    means = {
        k: np.round(v * latent * rng.lognormal(0.0, 0.15, size=n), 3) for k, v in base.items()
    }
    n_valid = rng.choice([1, 2, 3, 4, 5, 6, 7], size=n, p=[0.02, 0.03, 0.05, 0.1, 0.15, 0.25, 0.4])
    rows = []
    for i, subject in enumerate(ids):
        rows.append(
            [subject, int(n_valid[i]), int(n_valid[i] >= 3)]
            + [repr(float(means[k][i])) for k in sorted(base)]
        )
    _write_rows(
        out / "subject_summaries.csv",
        ["subject", "n_valid_days", "included"] + [f"mean_{k}" for k in sorted(base)],
        rows,
    )
    _write_rows(out / "covariates.csv", cov_header, cov_rows)
    risk = risk - 0.6 * np.log(latent)
    _write_rows(
        out / "mortality.csv", ["subject", "event", "followup_months"],
        _mortality(rng, ids, risk, base_hazard=5e-4, cutoff_months=100.0),
    )
    (out / "analysis.cfg").write_text(f"cv_repeats = {NHANES_CV_REPEATS}\n")


GENERATORS = {
    "steps_raw": gen_steps_raw,
    "analyze_cohort": gen_analyze_cohort,
    "survival_nhanes": gen_survival_nhanes,
}

"""End-to-end acceptance checks, one per release gate.

Every check prints a single PASS/FAIL line (bypassing capture) so a full
run leaves a readable scorecard.  Oracles here are deliberately
re-implemented from scratch — plain-Python loops and exact summation —
rather than imported from the library under test.  The final check is a
hook for real cohort data and skips unless ``STEPFORGE_NHANES_DIR`` points
at minute files with covariate, mortality, and imported-step tables.
"""

import filecmp
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from stepforge import validity
from stepforge.cli import build_survival_dataset, main
from stepforge.detectors import (
    detect_steps_peak,
    detect_steps_spectral,
    detect_steps_template,
)
from stepforge.dsp import vector_magnitude
from stepforge.ingest import (
    import_external_steps,
    merge_external_steps,
    read_covariates,
    read_minute_file,
    read_mortality,
    read_table,
)
from stepforge.model import (
    MIMS_INVALID,
    TriaxialRecording,
    WearState,
    make_config,
    stack_minutes,
)
from stepforge.simulate import GaitSegment, gen_gait
from stepforge.stats import (
    between_wave_percent_diff,
    spearman,
    winsorize_upper,
)
from stepforge.summaries import activity_counts, mims_units
from tests.conftest import gen_survival, make_minute, minute_table
from stepforge.survival import (
    SurvivalDataset,
    concordance,
    cox_fit,
    hazard_ratio,
    repeated_cv_concordance,
    standardize,
)


def report(capsys, number, label, ok, detail):
    """Print one scorecard line, then enforce the verdict."""
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[acceptance] {number:02d} {label}: {verdict} - {detail}")
    assert ok, f"{label}: {detail}"


# ---------------------------------------------------------------- 01 ----

def test_01_synthetic_gait_detector_accuracy(capsys):
    """60 s of 2 Hz walking: peak/spectral within 10%, template within 15%,
    rest segments exactly zero, all detectors under a second."""
    recipe = [
        GaitSegment("rest", 30, noise_sd_g=0.01),
        GaitSegment("walk", 60, cadence_hz=2.0, amplitude_g=0.35, noise_sd_g=0.01),
        GaitSegment("rest", 30, noise_sd_g=0.01),
    ]
    rec, truth = gen_gait(recipe, sample_rate_hz=80.0, seed=5)
    assert truth.sum() == 120.0  # generator ground truth
    vm = vector_magnitude(rec)

    t0 = time.perf_counter()
    series = {
        "peak": detect_steps_peak(vm),
        "spectral": detect_steps_spectral(vm),
        "template": detect_steps_template(vm),
    }
    elapsed = time.perf_counter() - t0

    tolerance = {"peak": 0.10, "spectral": 0.10, "template": 0.15}
    ok = elapsed < 1.0
    parts = []
    for name, result in series.items():
        total = result.total
        rest = result.steps_per_second[:30].sum() + result.steps_per_second[90:].sum()
        ok &= abs(total - 120.0) <= 120.0 * tolerance[name] and rest == 0.0
        parts.append(f"{name} {total:g}")
    detail = f"{', '.join(parts)} vs true 120, rest 0, {elapsed:.2f}s"
    report(capsys, 1, "synthetic-gait detector accuracy", ok, detail)


# ---------------------------------------------------------------- 02 ----

def test_02_dc_rejection(capsys):
    """Constant gravity on every axis must produce no activity at all."""
    n = int(120 * 30.0)
    rec = TriaxialRecording(
        subject_id="DC",
        sample_rate_hz=30.0,
        x=np.full(n, 0.6),
        y=np.full(n, 0.8),
        z=np.full(n, 0.2),
    )
    ac = activity_counts(rec)
    mims = mims_units(rec)
    ok = len(ac) == 2 and not ac.any() and len(mims) == 2 and mims.max() < 1e-6
    detail = f"AC per epoch {ac.tolist()}, max MIMS {mims.max():.2e} (< 1e-6)"
    report(capsys, 2, "DC rejection", ok, detail)


# ---------------------------------------------------------------- 03 ----

def survival_case(seed, n=30):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    t = rng.exponential(1.0 / (0.08 * np.exp(0.6 * x)))
    event = rng.random(n) < 0.75
    if not event.any():
        event[0] = True
    return SurvivalDataset(
        followup_months=t,
        event=event,
        covariates=x.reshape(-1, 1),
        weights=rng.uniform(0.5, 2.0, size=n),
        covariate_names=("x",),
        subject_ids=tuple(f"S{i}" for i in range(n)),
    )


def dense_loglik(data, beta):
    """Per-event weighted partial log-likelihood, written out longhand."""
    eta = [beta * float(v) for v in data.covariates[:, 0]]
    t = data.followup_months
    terms = []
    for i in range(len(eta)):
        if not data.event[i]:
            continue
        risk = math.fsum(
            float(data.weights[j]) * math.exp(eta[j])
            for j in range(len(eta))
            if t[j] >= t[i]
        )
        terms.append(float(data.weights[i]) * (eta[i] - math.log(risk)))
    return math.fsum(terms)


def grid_argmax(data):
    """Coarse-to-fine 1-D maximization of the partial likelihood."""
    step = 0.1
    center = max(
        np.arange(-5.0, 5.0 + step / 2, step), key=lambda b: dense_loglik(data, float(b))
    )
    while step > 1e-5:
        step /= 10.0
        center = max(
            (center + k * step for k in range(-10, 11)),
            key=lambda b: dense_loglik(data, float(b)),
        )
    return float(center)


def test_03_cox_newton_matches_grid_search(capsys):
    """Newton estimates agree with direct likelihood maximization, and every
    accepted iteration improves the objective."""
    worst = 0.0
    monotone = True
    for seed in range(20):
        data = survival_case(seed)
        fit = cox_fit(data)
        worst = max(worst, abs(fit.beta[0] - grid_argmax(data)))
        monotone &= bool(np.all(np.diff(fit.loglik_seq) >= 0.0))
    ok = worst <= 1e-4 and monotone
    detail = f"20 seeds, worst |newton-grid| {worst:.2e} (<= 1e-4), monotone {monotone}"
    report(capsys, 3, "weighted Cox vs grid oracle", ok, detail)


# ---------------------------------------------------------------- 04 ----

def brute_concordance(pred, data):
    t, w, ev = data.followup_months, data.weights, data.event
    num, den = [], []
    for j in range(len(t)):  # deliberately the transposed loop order
        for i in range(len(t)):
            if ev[i] and t[i] < t[j]:
                pw = float(w[i] * w[j])
                den.append(pw)
                if pred[i] > pred[j]:
                    num.append(pw)
                elif pred[i] == pred[j]:
                    num.append(0.5 * pw)
    if not den:
        raise ValueError("no comparable pairs")
    return math.fsum(num) / math.fsum(den)


def test_04_concordance_matches_brute_force(capsys):
    """Weighted Harrell's C equals the O(n^2) pairwise sum bit for bit,
    with tied times, tied predictors, and censoring in play."""
    exact = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 201))
        t = rng.integers(1, 40, size=n).astype(float)
        event = rng.random(n) < 0.6
        if not event.any():
            event[0] = True
        pred = rng.integers(0, 12, size=n).astype(float)
        data = SurvivalDataset(
            followup_months=t,
            event=event,
            covariates=np.zeros((n, 1)),
            weights=rng.uniform(0.5, 3.0, size=n),
            covariate_names=("z",),
            subject_ids=tuple(f"S{i}" for i in range(n)),
        )
        exact += concordance(pred, data) == brute_concordance(pred, data)
    report(capsys, 4, "concordance vs brute force", exact == 50,
           f"{exact}/50 seeds bitwise equal (n up to 200)")


# ---------------------------------------------------------------- 05 ----

def test_05_hazard_ratio_recovery_and_coverage(capsys):
    """A n=5000 cohort with a true per-500-step hazard ratio of 0.95 is
    recovered within 0.01; under the null the 95% CI covers 1.0 >= 90%."""
    beta_true = math.log(0.95) / 500.0
    data = gen_survival(5000, beta_true, baseline_hazard=0.002, censor_rate=0.3, seed=2011)
    hr, _, _ = hazard_ratio(cox_fit(data), "steps", 500.0)

    covered = 0
    for seed in range(1000, 1050):
        null = gen_survival(500, 0.0, baseline_hazard=0.002, censor_rate=0.3, seed=seed)
        _, lo, hi = hazard_ratio(cox_fit(null), "steps", 500.0)
        covered += lo <= 1.0 <= hi
    ok = abs(hr - 0.95) <= 0.01 and covered >= 45
    detail = f"fitted HR {hr:.4f} (true 0.95), null CI coverage {covered}/50"
    report(capsys, 5, "hazard-ratio recovery", ok, detail)


# ---------------------------------------------------------------- 06 ----

def minute(subject, day, i, wear, flagged, mims, steps=0.0):
    return make_minute(subject, day, i, wear, flagged, mims, 1.0,
                       {"peak_original": steps})


def screen_days(day_tables, cfg):
    """Day summaries of one table stacking every day, keyed by subject."""
    table = stack_minutes([vars(day) for day in day_tables])
    by_subject, _ = validity.screen_cohort(table, cfg)
    return {subject: summaries[0] for subject, summaries in by_subject.items()}


def composed_day(subject, n_wake, n_sleep, n_nonzero):
    """A day with exact wake/sleep wear counts and nonzero-MIMS minutes
    placed first; the remainder of the 1440 minutes is nonwear."""
    out = []
    for i in range(1440):
        if i < n_wake:
            wear = WearState.WAKE_WEAR
        elif i < n_wake + n_sleep:
            wear = WearState.SLEEP_WEAR
        else:
            wear = WearState.NON_WEAR
        out.append(minute(subject, 1, i, wear, False, 1.0 if i < n_nonzero else 0.0))
    return out


def random_day(rng, subject):
    """Random composition straddling all three validity thresholds."""
    n_wake = int(rng.integers(400, 441))
    n_sleep = int(rng.integers(900, 971))
    n_unknown = int(rng.integers(0, 30))
    n_nonwear = 1440 - n_wake - n_sleep - n_unknown
    wear = (
        [WearState.WAKE_WEAR] * n_wake
        + [WearState.SLEEP_WEAR] * n_sleep
        + [WearState.UNKNOWN] * n_unknown
        + [WearState.NON_WEAR] * n_nonwear
    )
    rng.shuffle(wear)
    p_sleep_active = rng.uniform(0.0, 0.12)
    flag_rate = rng.uniform(0.0, 0.02)
    out = []
    for i, state in enumerate(wear):
        if state is WearState.WAKE_WEAR:
            mims = 3.0 if rng.random() < 0.97 else 0.0
        else:
            mims = 1.0 if rng.random() < p_sleep_active else 0.0
        if mims == 0.0 and rng.random() < 0.05:
            mims = MIMS_INVALID
        out.append(
            minute(subject, 1, i, state, bool(rng.random() < flag_rate), mims,
                   float(rng.integers(0, 60)))
        )
    return out


def recount_day(day, cfg):
    """Independent restatement of the screening rules as flat loops."""
    valid = [m for m in day if not m.quality_flagged and m.wear.counts_as_wear]
    pool = valid if cfg.nonzero_mims_among_valid else day
    n_nonzero = sum(1 for m in pool if m.mims > 0.0)
    n_wake = sum(1 for m in day if m.wear is WearState.WAKE_WEAR)
    ok = (
        len(valid) >= cfg.min_valid_minutes
        and n_wake >= cfg.min_wake_minutes
        and n_nonzero >= cfg.min_nonzero_mims_minutes
    )
    return ok, len(valid), n_wake, n_nonzero


def test_06_day_validity_matches_recount(capsys):
    """Screening agrees with a brute-force recount on 1000 random days plus
    the exact one-minute boundaries of every threshold."""
    cfg = make_config()
    days = [
        composed_day("B1", 420, 948, 420),   # exactly at every threshold
        composed_day("B2", 420, 947, 420),   # 1367 valid minutes
        composed_day("B3", 419, 949, 419),   # 419 wake minutes
        composed_day("B4", 420, 948, 419),   # 419 nonzero minutes
    ]
    expected_valid = [True, False, False, False]
    boundary_ok = True
    screened = screen_days([minute_table(day) for day in days], cfg)
    for day, want in zip(days, expected_valid):
        summary = screened[day[0].subject_id]
        boundary_ok &= summary.valid is want and recount_day(day, cfg)[0] is want

    rng = np.random.default_rng(42)
    agree = 0
    n_valid = 0
    recounts, day_tables = [], []
    for k in range(1000):
        day = random_day(rng, f"S{k}")
        recounts.append(recount_day(day, cfg))
        day_tables.append(minute_table(day))
    screened = screen_days(day_tables, cfg)
    for k, recount in enumerate(recounts):
        s = screened[f"S{k}"]
        agree += (
            s.valid, s.n_valid_minutes, s.n_wake_minutes, s.n_nonzero_mims_minutes
        ) == recount
        n_valid += s.valid
    ok = boundary_ok and agree == 1000 and 0 < n_valid < 1000
    detail = (f"boundaries exact, {agree}/1000 random days agree "
              f"({n_valid} valid, {1000 - n_valid} not)")
    report(capsys, 6, "day-validity recount", ok, detail)


# ---------------------------------------------------------------- 07 ----

def test_07_statistical_identities(capsys):
    """Rank/scale identities: cubing preserves Spearman, winsorizing is
    idempotent, standardized refits rescale the coefficient by the sd."""
    rng = np.random.default_rng(7)
    x = rng.permutation(np.linspace(0.5, 9.5, 200))
    rho = spearman(x, x**3)

    values = np.linspace(0.0, 10.0, 101) ** 2
    once = winsorize_upper(values, 0.99)
    twice = winsorize_upper(once, 0.99)
    idem = np.array_equal(once, twice)

    data = survival_case(3, n=80)
    scaled_data = standardize(data, "x")
    _, sd = scaled_data.scaling["x"]
    col = scaled_data.covariates[:, 0]
    moments_ok = abs(col.mean()) < 1e-12 and abs(col.std(ddof=1) - 1.0) < 1e-12
    beta_raw = cox_fit(data).beta[0]
    beta_scaled = cox_fit(scaled_data).beta[0]
    refit_ok = abs(beta_scaled - beta_raw * sd) < 1e-8

    ok = rho == 1.0 and idem and moments_ok and refit_ok
    detail = (f"spearman(x,x^3)={rho:g}, winsorize idempotent {idem}, "
              f"z-moments {moments_ok}, |b_scaled - b_raw*sd| "
              f"{abs(beta_scaled - beta_raw * sd):.1e}")
    report(capsys, 7, "statistical identities", ok, detail)


# ---------------------------------------------------------------- 08 ----

@pytest.mark.slow
def test_08_full_analysis_is_deterministic(capsys, tmp_path):
    """On a 200-subject simulated cohort the analysis is byte-identical
    across repeated runs and worker counts, well under five minutes."""
    sim = tmp_path / "sim"
    rc = main(["simulate", "--out", str(sim), "--subjects", "200", "--days", "4",
               "--seed", "11"])
    assert rc == 0

    def analyze(out, jobs):
        start = time.perf_counter()
        code = main([
            "analyze", str(sim / "minutes.csv"),
            "--covariates", str(sim / "covariates.csv"),
            "--mortality", str(sim / "mortality.csv"),
            "--out", str(out), "--jobs", str(jobs),
        ])
        return code, time.perf_counter() - start

    rc_a, t_a = analyze(tmp_path / "a", 1)
    rc_b, t_b = analyze(tmp_path / "b", 1)
    rc_c, t_c = analyze(tmp_path / "c", 8)
    ok = rc_a == rc_b == rc_c == 0 and max(t_a, t_b, t_c) < 300.0

    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    survival_written = {"hazard_ratios.csv", "model_suite.csv",
                        "univariate_cvc.csv"} <= set(names)
    identical = all(
        filecmp.cmp(tmp_path / "a" / n, tmp_path / other / n, shallow=False)
        for n in names
        for other in ("b", "c")
    )
    ok = ok and survival_written and identical
    detail = (f"{len(names)} tables, rerun and jobs-8 byte-identical {identical}, "
              f"slowest run {max(t_a, t_b, t_c):.0f}s (< 300s)")
    report(capsys, 8, "200-subject determinism", ok, detail)


# ---------------------------------------------------------------- 09 ----

@pytest.mark.slow
def test_09_peak_family_throughput(capsys, tmp_path):
    """Soft throughput target: the peak detectors should chew through
    10 subjects x 7 days at 80 Hz in at most 3.6 minutes of detector time.
    Reported for regression tracking; only completion is enforced."""
    out = tmp_path / "bench.csv"
    rc = main(["bench", "--subjects", "10", "--days", "7", "--rate", "80",
               "--detectors", "peak_original,peak_revised", "--out", str(out)])
    rows = read_table(out)
    seconds = {r["detector"]: float(r["total_seconds"]) for r in rows}
    ok = rc == 0 and set(seconds) == {"peak_original", "peak_revised"} and all(
        v > 0.0 for v in seconds.values()
    )
    slowest = max(seconds.values()) if seconds else float("nan")
    verdict = "met" if slowest <= 216.0 else "MISSED"
    detail = (f"peak_original {seconds.get('peak_original', float('nan')):.1f}s, "
              f"peak_revised {seconds.get('peak_revised', float('nan')):.1f}s; "
              f"soft 216s target {verdict} (not enforced)")
    report(capsys, 9, "peak-family throughput", ok, detail)


# ---------------------------------------------------------------- 10 ----

def test_10_between_wave_difference(capsys):
    """The symmetric percent difference between the wave-level step means
    2659 and 2453 comes out at 8.1% after rounding."""
    value = between_wave_percent_diff(2659.0, 2453.0)
    ok = round(value, 1) == 8.1
    report(capsys, 10, "between-wave percent difference", ok,
           f"{value:.4f}% rounds to {round(value, 1)} (want 8.1)")


# ---------------------------------------------------------------- 11 ----

def test_11_real_cohort_hooks(capsys):
    """Against a real cohort directory (``STEPFORGE_NHANES_DIR`` holding
    minutes.csv or minutes/, covariates.csv, mortality.csv, and imported
    series stepcount_rf.csv / adept.csv), the pipeline should reproduce a
    cross-validated concordance of 0.732 +/- 0.01 for the imported
    random-forest step series and an adjusted per-500-step hazard ratio of
    0.88 +/- 0.01 for the imported template-matching series."""
    root = os.environ.get("STEPFORGE_NHANES_DIR")
    if not root or not Path(root).exists():
        with capsys.disabled():
            print("[acceptance] 11 real-cohort hooks: SKIP - "
                  "STEPFORGE_NHANES_DIR not set")
        pytest.skip("real cohort data not available")

    root = Path(root)
    minutes_path = root / "minutes.csv"
    if not minutes_path.exists():
        minutes_path = root / "minutes"
    minutes = read_minute_file(minutes_path)
    for name in ("stepcount_rf", "adept"):
        series = import_external_steps(root / f"{name}.csv", name)
        minutes = merge_external_steps(minutes, series)

    cfg = make_config()
    _, subject_summaries = validity.screen_cohort(minutes, cfg)
    summaries = [s for _, s in sorted(subject_summaries.items()) if s.included]
    covariates = read_covariates(root / "covariates.csv")
    mortality = read_mortality(root / "mortality.csv")
    measures = sorted({k for s in summaries for k in s.means})
    data, _, _ = build_survival_dataset(summaries, covariates, mortality, cfg, measures)
    assert data is not None

    cvc, _ = repeated_cv_concordance(data, ["steps_stepcount_rf"], cfg)
    traditional = [
        n for n in data.covariate_names
        if not n.startswith("steps_") and n not in ("ac", "mims")
    ]
    fit = cox_fit(data.select(traditional + ["steps_adept"]))
    hr, _, _ = hazard_ratio(fit, "steps_adept", cfg.hr_step_increment)
    ok = abs(cvc - 0.732) <= 0.01 and abs(hr - 0.88) <= 0.01
    report(capsys, 11, "real-cohort hooks", ok,
           f"imported-series cvC {cvc:.3f} (want 0.732), adjusted HR {hr:.3f} (want 0.88)")

"""Batch pipeline commands: ``steps``, ``analyze``, ``bench``, ``simulate``.

Configuration comes from a flat ``key = value`` text file, overridable per
key through ``STEPFORGE_``-prefixed environment variables and the ``--seed``
flag.  All outputs are deterministic given inputs, config, and seed: worker
counts never change any emitted byte.

Exit codes: 0 success, 1 partial per-subject/per-section failures, 2 fatal
configuration or input errors.
"""

from __future__ import annotations

import argparse
import math
import os
import resource
import sys
import time
import typing
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from . import detectors as det
from . import ingest, simulate, stats, survival, validity
from .dsp import MagnitudeView, vector_magnitude
from .model import (
    BOOLEAN_COVARIATES,
    CATEGORICAL_LEVELS,
    WEAR_CODE,
    AnalysisConfig,
    MinuteTable,
    MortalityRecord,
    SubjectCovariates,
    SubjectSummary,
    WearState,
    make_config,
)
from .summaries import activity_counts, mims_units

ENV_PREFIX = "STEPFORGE_"


class FatalCliError(Exception):
    """Configuration or input problem that should abort with exit code 2."""


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def parse_config_file(path: str | os.PathLike) -> dict[str, str]:
    """Parse a flat ``key = value`` file; ``#`` starts a comment."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise FatalCliError(f"{path}:{line_no}: expected 'key = value'")
            key, value = text.split("=", 1)
            key = key.strip()
            if not key:
                raise FatalCliError(f"{path}:{line_no}: empty key")
            if key in out:
                raise FatalCliError(f"{path}:{line_no}: duplicate key {key!r}")
            out[key] = value.strip()
    return out


def _coerce(name: str, text: str, target_type) -> object:
    try:
        if target_type is bool:
            lowered = text.lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ValueError(text)
        if target_type in (int, float):
            return target_type(text)
        if typing.get_origin(target_type) is tuple:
            parts = [part.strip() for part in text.split(",")]
            kinds = typing.get_args(target_type)
            if Ellipsis in kinds:
                raise FatalCliError(f"config key {name!r}: cannot be set from config")
            if len(parts) != len(kinds):
                raise ValueError(text)
            return tuple(kind(part) for kind, part in zip(kinds, parts))
    except ValueError:
        raise FatalCliError(f"config key {name!r}: cannot parse {text!r}") from None
    return text


#: Config keys and their types, straight from the AnalysisConfig fields.
_CONFIG_TYPES = typing.get_type_hints(AnalysisConfig)


def load_config(
    config_path: str | None,
    seed: int | None = None,
    env: Mapping[str, str] | None = None,
) -> tuple[AnalysisConfig, dict[str, det.DetectorParams]]:
    """Resolve config precedence: defaults < file < environment < --seed.

    Returns the analysis config plus the parameters of every built-in
    detector (``detectors.DETECTORS``), with the fields set by dotted keys
    like ``spectral.activity_std_min_g = 0.03``, each typed like its field,
    and defaults otherwise.  They are built here, once, so a refused value
    is fatal before any input is read.  Presets of one class with equal
    parameters share one object, which ``run_detectors`` runs once.
    """
    env = os.environ if env is None else env
    raw: dict[str, str] = {}
    if config_path is not None:
        raw.update(parse_config_file(config_path))
    for key in _CONFIG_TYPES:
        env_key = ENV_PREFIX + key.upper()
        if env_key in env:
            raw[key] = env[env_key]

    overrides: dict[str, object] = {}
    fields: dict[str, dict[str, object]] = {name: {} for name in det.DETECTORS}
    for key, text in raw.items():
        if "." in key:
            prefix, _, param = key.partition(".")
            if prefix not in det.DETECTORS:
                raise FatalCliError(f"unknown detector prefix in config key {key!r}")
            param_types = typing.get_type_hints(det.DETECTORS[prefix])
            if param not in param_types:
                raise FatalCliError(f"unknown detector parameter {key!r}")
            fields[prefix][param] = _coerce(key, text, param_types[param])
            continue
        if key not in _CONFIG_TYPES:
            raise FatalCliError(f"unknown config key {key!r}")
        overrides[key] = _coerce(key, text, _CONFIG_TYPES[key])
    if seed is not None:
        overrides["rng_seed"] = seed
    try:
        cfg = make_config(overrides)
    except ValueError as exc:
        raise FatalCliError(str(exc)) from None
    params: dict[str, det.DetectorParams] = {}
    for name, kind in det.DETECTORS.items():
        try:
            built = kind(**fields[name])
        except ValueError as exc:
            raise FatalCliError(f"config keys {name}.*: {exc}") from None
        params[name] = next(
            (p for p in params.values() if type(p) is kind and p == built), built
        )
    return cfg, params


# ---------------------------------------------------------------------------
# steps
# ---------------------------------------------------------------------------


def _raw_inputs(raw_dir: Path) -> dict[str, Path]:
    """Raw .csv/.csv.gz files by subject ID (see :func:`ingest.raw_subject_id`)."""
    inputs: dict[str, Path] = {}
    for path in sorted(raw_dir.iterdir()):
        if path.is_file() and path.name.endswith((".csv", ".csv.gz")):
            subject = ingest.raw_subject_id(path)
            if subject in inputs:
                raise FatalCliError(
                    f"raw files {inputs[subject].name} and {path.name} in {raw_dir} "
                    f"both map to subject {subject!r}"
                )
            inputs[subject] = path
    return inputs


def _steps_worker(args: tuple) -> tuple[str, dict[str, float], str]:
    """Process one raw file into a minute-level output; returns timings."""
    subject, path_text, out_dir_text, schema, params = args
    try:
        # The axes are spooled to files in the output directory, and so is
        # the forward pass of the AC and MIMS filters; every stage reads them,
        # and the magnitude formed from the axes, in slices, so no stage holds
        # a whole raw axis, a whole filtered axis or the whole magnitude.
        with ingest.spool_raw_recording(Path(path_text), schema, out_dir_text) as rec:
            ac = activity_counts(rec, spool_dir=out_dir_text)
            mims = mims_units(rec, spool_dir=out_dir_text)
            vm = MagnitudeView(rec)
            n_seconds = int(len(vm) // vm.sample_rate_hz)
            n_minutes = max(1, (n_seconds + 59) // 60)
            run = det.run_detectors(vm, params, n_minutes=n_minutes)
        if run.errors:
            raise RuntimeError(
                "; ".join(f"{k}: {v}" for k, v in sorted(run.errors.items()))
            )
        minute = np.arange(n_minutes)
        names = tuple(sorted(run.minutes))
        table = MinuteTable(
            subject=np.full(n_minutes, subject),
            day=1 + minute // 1440,
            minute=minute % 1440,
            wear=np.full(n_minutes, WEAR_CODE[WearState.UNKNOWN]),
            flag=np.zeros(n_minutes, dtype=bool),
            # a minute past the last full epoch reads 0
            mims=np.pad(mims[:n_minutes], (0, n_minutes - len(mims[:n_minutes]))),
            ac=np.pad(ac[:n_minutes], (0, n_minutes - len(ac[:n_minutes]))),
            steps=np.array(
                [run.minutes[name][:n_minutes] for name in names], dtype=np.float64
            ).reshape(len(names), n_minutes).T,
            detectors=names,
        )
        out_path = Path(out_dir_text) / f"{subject}_minutes.csv"
        ingest.write_minute_file(table, out_path)
        return subject, dict(run.timings_s), ""
    except Exception as exc:  # noqa: BLE001 - per-subject isolation
        return subject, {}, f"{type(exc).__name__}: {exc}"


def cmd_steps(args: argparse.Namespace) -> int:
    cfg, params = load_config(args.config, args.seed)
    raw_dir = Path(args.raw_dir)
    if not raw_dir.is_dir():
        raise FatalCliError(f"raw directory {raw_dir} does not exist")
    inputs = _raw_inputs(raw_dir)
    if not inputs:
        raise FatalCliError(f"no subjects: no raw .csv/.csv.gz files in {raw_dir}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    schema = ingest.RawFileSchema(
        sample_rate_hz=args.rate,
        has_header=not args.no_header,
        has_timestamp=args.has_timestamp,
    )
    work = [
        (subject, str(path), str(out_dir), schema, params)
        for subject, path in inputs.items()
    ]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_steps_worker, work))
    else:
        results = [_steps_worker(item) for item in work]
    failures = 0
    for subject, timings, error in sorted(results):
        if error:
            failures += 1
            _log(f"subject {subject}: FAILED ({error})")
        else:
            timing_text = ", ".join(
                f"{name} {seconds:.2f}s" for name, seconds in sorted(timings.items())
            )
            _log(f"subject {subject}: ok ({timing_text})")
    _log(f"steps: {len(results) - failures}/{len(results)} subjects processed")
    rss = f"steps: peak RSS {_peak_rss_mb(resource.RUSAGE_SELF):.1f} MB"
    if args.jobs > 1:
        rss += f", workers {_peak_rss_mb(resource.RUSAGE_CHILDREN):.1f} MB"
    _log(rss)
    return 1 if failures else 0


def _peak_rss_mb(who: int) -> float:
    """Peak resident set size in MiB; ``ru_maxrss`` is KiB on Linux, bytes on macOS."""
    peak = resource.getrusage(who).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 1024


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def _load_minutes(minute_path: Path) -> MinuteTable:
    if minute_path.is_dir():
        if not any(minute_path.glob("*.csv")):
            raise FatalCliError(f"no minute files in {minute_path}")
    elif not minute_path.is_file():
        raise FatalCliError(f"minute input {minute_path} does not exist")
    return ingest.read_minute_file(minute_path)


AGE_GROUP_WIDTH = 10


def _age_group(age: float, cfg: AnalysisConfig) -> str:
    lo = cfg.age_range[0] + AGE_GROUP_WIDTH * int(
        (age - cfg.age_range[0]) // AGE_GROUP_WIDTH
    )
    hi = min(lo + AGE_GROUP_WIDTH - 1, cfg.age_range[1])
    return f"{lo}-{hi}"


def build_survival_dataset(
    summaries: Sequence[SubjectSummary],
    covariates: Sequence[SubjectCovariates],
    mortality: Sequence[MortalityRecord],
    cfg: AnalysisConfig,
    measures: Sequence[str],
) -> tuple[survival.SurvivalDataset | None, list[str], list[str]]:
    """Assemble the complete-case survival design matrix.

    Categorical covariates are dummy-encoded against their first level;
    activity measures are winsorized at ``cfg.winsor_percentile``.  Columns
    that end up constant in the analysis sample are dropped (returned for
    logging).  Subjects missing covariates or mortality are likewise
    returned as join failures.
    """
    cov_by_id = {c.subject_id: c for c in covariates}
    mort_by_id = {m.subject_id: m for m in mortality}
    join_failures: list[str] = []
    rows: list[tuple[SubjectSummary, SubjectCovariates, MortalityRecord]] = []
    for s in sorted(summaries, key=lambda s: s.subject_id):
        if not s.included:
            continue
        cov = cov_by_id.get(s.subject_id)
        mort = mort_by_id.get(s.subject_id)
        if cov is None or mort is None:
            join_failures.append(s.subject_id)
            continue
        if cov.has_missing:
            continue
        assert cov.age_years is not None
        if not cfg.age_range[0] <= cov.age_years <= cfg.age_range[1]:
            continue
        rows.append((s, cov, mort))
    if not rows or not any(m.event for _, _, m in rows):
        return None, join_failures, []

    names: list[str] = ["age"]
    for cat, levels in CATEGORICAL_LEVELS.items():
        names.extend(f"{cat}_{level}" for level in levels[1:])
    names.extend(BOOLEAN_COVARIATES)
    names.extend(measures)

    matrix = np.zeros((len(rows), len(names)))
    for i, (s, cov, _mort) in enumerate(rows):
        col = 0
        matrix[i, col] = float(cov.age_years)
        col += 1
        for cat, levels in CATEGORICAL_LEVELS.items():
            value = getattr(cov, cat)
            for level in levels[1:]:
                matrix[i, col] = 1.0 if value == level else 0.0
                col += 1
        for boolean in BOOLEAN_COVARIATES:
            matrix[i, col] = 1.0 if getattr(cov, boolean) else 0.0
            col += 1
        for measure in measures:
            matrix[i, col] = s.means.get(measure, 0.0)
            col += 1

    for j, name in enumerate(names):
        if name in measures:
            matrix[:, j] = stats.winsorize_upper(matrix[:, j], cfg.winsor_percentile)

    keep = [j for j in range(len(names)) if np.ptp(matrix[:, j]) > 0.0]
    dropped = [names[j] for j in range(len(names)) if j not in keep]
    kept_names = tuple(names[j] for j in keep)
    data = survival.SurvivalDataset(
        followup_months=np.array([m.followup_months for _, _, m in rows]),
        event=np.array([m.event for _, _, m in rows], dtype=bool),
        covariates=matrix[:, keep],
        weights=np.array([c.survey_weight for _, c, _ in rows]),
        covariate_names=kept_names,
        subject_ids=tuple(s.subject_id for s, _, _ in rows),
    )
    return data, join_failures, dropped


def _validity_stage(
    minutes: MinuteTable, cfg: AnalysisConfig, out_path: Callable[[str], Path]
) -> list[SubjectSummary]:
    """Screen every day and subject; write the four validity tables."""
    days_by_subject, by_subject = validity.screen_cohort(minutes, cfg)
    summaries = [by_subject[s] for s in sorted(by_subject)]
    rows = [
        [s.subject_id, s.n_valid_days, int(s.included), validity.exclusion_reason(s, cfg)]
        for s in summaries
    ]
    header = ["subject", "n_valid_days", "included", "exclusion_reason"]
    ingest.write_table(out_path("validity_report"), header, rows)
    rows = [
        [d.subject_id, d.day_index, d.n_valid_minutes, d.n_wake_minutes,
         d.n_nonzero_mims_minutes, int(d.valid)]
        for subject in sorted(days_by_subject)
        for d in days_by_subject[subject]
    ]
    header = ["subject", "day", "n_valid_minutes", "n_wake_minutes",
              "n_nonzero_mims_minutes", "valid"]
    ingest.write_table(out_path("day_summaries"), header, rows)
    ingest.write_subject_summaries(summaries, out_path("subject_summaries"))
    matrix, labels = validity.unknown_bout_transition_matrix(minutes)
    rows = [
        [a, b, float(matrix[i, j])]
        for i, a in enumerate(labels)
        for j, b in enumerate(labels)
    ]
    header = ["preceding", "following", "proportion"]
    ingest.write_table(out_path("unknown_transitions"), header, rows)
    return summaries


def _descriptive_stage(
    summaries: Sequence[SubjectSummary],
    covariates: Sequence[SubjectCovariates],
    cfg: AnalysisConfig,
    out_path: Callable[[str], Path],
) -> list[str]:
    """Write the weighted means, between-wave difference, age curves and
    correlations; return the activity measures, steps first, then AC and MIMS."""
    cov_by_id = {c.subject_id: c for c in covariates}
    included = [s for s in summaries if s.included]
    with_cov = [(s, cov_by_id[s.subject_id]) for s in included if s.subject_id in cov_by_id]
    missing_cov = sorted(s.subject_id for s in included if s.subject_id not in cov_by_id)
    if missing_cov:
        _log(f"analyze: {len(missing_cov)} subject(s) missing covariates: "
             + ", ".join(missing_cov))
    names = sorted({k for s, _ in with_cov for k in s.means})
    measures = [m for m in names if m.startswith("steps_")] + [
        m for m in ("ac", "mims") if m in names
    ]

    # survey-weighted means by wave, over all ages and by age group; these
    # test the exact age against age_range
    lo_age, hi_age = cfg.age_range
    groups: dict[tuple[str, str], list[tuple[SubjectSummary, SubjectCovariates]]] = {}
    for s, cov in with_cov:
        if cov.age_years is not None and lo_age <= cov.age_years <= hi_age:
            for group in ("all", _age_group(cov.age_years, cfg)):
                groups.setdefault((cov.wave, group), []).append((s, cov))
    mean_rows = []
    for (wave, group), members in sorted(groups.items()):
        weights = [c.survey_weight for _, c in members]
        strata = [c.stratum_id for _, c in members]
        psus = [(c.stratum_id, c.psu_id) for _, c in members]
        for measure in measures:
            values = [s.means.get(measure, 0.0) for s, _ in members]
            mean, se = stats.weighted_mean_se(values, weights, strata, psus)
            mean_rows.append([wave, group, measure, len(members), mean, se])
    header = ["wave", "age_group", "measure", "n", "mean", "se"]
    ingest.write_table(out_path("weighted_means"), header, mean_rows)

    waves = sorted({cov.wave for _, cov in with_cov})
    wave_means = {(w, m): mean for w, g, m, _, mean, _ in mean_rows if g == "all"}
    rows = []
    if len(waves) == 2:
        for measure in measures:
            a = wave_means.get((waves[0], measure))
            b = wave_means.get((waves[1], measure))
            if a is not None and b is not None and a > 0 and b > 0:
                rows.append([measure, *waves, a, b, stats.between_wave_percent_diff(a, b)])
    header = ["measure", "wave_a", "wave_b", "estimate_a", "estimate_b", "percent_diff"]
    ingest.write_table(out_path("between_wave_diff"), header, rows)

    # age curves: weighted mean per integer age, then tricube local-linear
    # smooth; these test floor(age) against age_range
    by_age: dict[int, list[tuple[SubjectSummary, SubjectCovariates]]] = {}
    for s, cov in with_cov:
        if cov.age_years is None:
            continue
        age = int(math.floor(cov.age_years))
        if lo_age <= age <= hi_age:
            by_age.setdefault(age, []).append((s, cov))
    ages = sorted(by_age)
    age_weights = [[c.survey_weight for _, c in by_age[age]] for age in ages]
    curve_rows, pct_rows = [], []
    for measure in measures:
        points = [
            stats.weighted_mean_se([s.means.get(measure, 0.0) for s, _ in by_age[age]], w)
            for age, w in zip(ages, age_weights)
        ]
        if len(ages) < 5:
            _log(f"analyze: too few distinct ages for {measure} curve; skipped")
            continue
        curve = stats.local_weighted_smooth(
            [float(age) for age in ages], [m for m, _ in points], [se for _, se in points]
        )
        columns = (curve.ages, curve.estimate, curve.se, curve.ci_lower, curve.ci_upper)
        curve_rows.extend(
            [measure, int(age), *(float(v) for v in values)]
            for age, *values in zip(*columns)
        )
        if np.all(curve.estimate[:-1] != 0.0):
            pct_rows.extend(
                [measure, int(age), float(value)]
                for age, value in zip(*stats.percent_change_by_age(curve))
            )
    header = ["measure", "age", "mean", "se", "ci_lower", "ci_upper"]
    ingest.write_table(out_path("age_curves"), header, curve_rows)
    header = ["measure", "age", "percent_change"]
    ingest.write_table(out_path("age_percent_change"), header, pct_rows)

    # unweighted pairwise correlations between activity measures
    rows = []
    rows_for_corr = [s.means for s, _ in with_cov]
    for method in ("pearson", "spearman"):
        matrix = stats.correlation_matrix(rows_for_corr, measures, method)
        rows.extend(
            [method, a, b, float(matrix[i, j])]
            for i, a in enumerate(measures)
            for j, b in enumerate(measures)
        )
    header = ["method", "var_a", "var_b", "correlation"]
    ingest.write_table(out_path("correlations"), header, rows)
    return measures


def _warn_diverging(fit_name: str, variable: str | None, diverging: Sequence[str]) -> None:
    """Log R ``coxph``'s warning when the coefficient whose hazard ratio a
    table reports may be infinite (see ``survival.CoxFit.diverging``)."""
    if variable in diverging:
        _log(f"analyze: {fit_name}: loglik converged before variable {variable}; "
             "coefficient may be infinite")


def _survival_stage(
    data: survival.SurvivalDataset,
    measures: Sequence[str],
    cfg: AnalysisConfig,
    out_path: Callable[[str], Path],
) -> int:
    """Write the univariate cvC, model suite and hazard ratios; return 1 if
    a measure or the model suite failed, else 0."""
    partial_failure = False
    step_measures = [m for m in measures if m in data.covariate_names]
    traditional = [n for n in data.covariate_names if n not in measures]

    # the CV is GIL-bound numpy, so analyze runs it in one thread whatever
    # --jobs says: a thread pool of 2 was slower than none
    cvc: dict[str, float] = {}
    for measure in sorted(step_measures):
        try:
            cvc[measure], _ = survival.repeated_cv_concordance(data, [measure], cfg)
        except Exception as exc:  # noqa: BLE001 - per-measure isolation
            partial_failure = True
            cvc[measure] = math.nan
            _log(f"analyze: univariate cvC failed for {measure}: "
                 f"{type(exc).__name__}: {exc}")
    header = ["measure", "cv_concordance"]
    ingest.write_table(out_path("univariate_cvc"), header, list(cvc.items()))

    rows = []
    fits: dict[tuple[str, ...], survival.CoxFit] = {}  # the suite's full-sample fits
    try:
        # reuse the univariate cvC above; a failed measure is rerun and fails there
        done = {m: value for m, value in cvc.items() if math.isfinite(value)}
        for r in survival.model_suite(data, cfg, traditional=traditional, univariate=done):
            if r.fit is not None:
                fits[r.covariates] = r.fit
            rows.append([r.name, r.concordance, r.steps_variable or "", r.steps_hr_per_500,
                         *(r.steps_hr_ci or (None, None)), r.steps_p])
            _warn_diverging(f"model {r.name}", r.steps_variable, r.diverging)
    except Exception as exc:  # noqa: BLE001 - keep the remaining tables
        partial_failure = True
        _log(f"analyze: model suite failed: {type(exc).__name__}: {exc}")
    header = ["model", "concordance", "steps_variable", "steps_hr",
              "steps_hr_lower", "steps_hr_upper", "steps_p"]
    ingest.write_table(out_path("model_suite"), header, rows)

    rows = []
    for measure in [m for m in step_measures if m.startswith("steps_")]:
        try:
            covariates = (*traditional, measure)
            adjusted = fits.get(covariates) or survival.cox_fit(data.select(list(covariates)))
            _warn_diverging("hazard ratios", measure, adjusted.diverging)
            per_increment = survival.hazard_ratio(adjusted, measure, cfg.hr_step_increment)
            # standardizing the column (as survival.standardize does) scales
            # its beta and se by the sd, so the per-sd HR needs no refit
            sd = float(data.column(measure).std(ddof=1))
            per_sd = survival.hazard_ratio(adjusted, measure, sd)
            rows.append([measure, *per_increment, *per_sd, sd / 1000.0])
        except Exception as exc:  # noqa: BLE001 - per-measure isolation
            partial_failure = True
            _log(f"analyze: hazard-ratio fit failed for {measure}: "
                 f"{type(exc).__name__}: {exc}")
    header = ["measure", "hr_per_increment", "hr_lower", "hr_upper",
              "scaled_hr", "scaled_hr_lower", "scaled_hr_upper", "sd_thousands"]
    ingest.write_table(out_path("hazard_ratios"), header, rows)
    return 1 if partial_failure else 0


def cmd_analyze(args: argparse.Namespace) -> int:
    cfg, _ = load_config(args.config, args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    suffix = "" if cfg.min_valid_days == 3 else f"_minvd{cfg.min_valid_days}"

    def out_path(stem: str) -> Path:
        return out_dir / f"{stem}{suffix}.csv"

    minutes = _load_minutes(Path(args.minutes))
    summaries = _validity_stage(minutes, cfg, out_path)
    covariates = ingest.read_covariates(args.covariates)
    measures = _descriptive_stage(summaries, covariates, cfg, out_path)

    mortality_path = Path(args.mortality) if args.mortality else None
    if mortality_path is None or not mortality_path.exists():
        _log("analyze: mortality file missing; survival tables skipped")
        return 0
    mortality = ingest.read_mortality(mortality_path)
    data, join_failures, dropped = build_survival_dataset(
        summaries, covariates, mortality, cfg, measures
    )
    if join_failures:
        _log(
            f"analyze: {len(join_failures)} subject(s) missing mortality/covariates: "
            + ", ".join(join_failures)
        )
    if dropped:
        _log("analyze: dropped constant design columns: " + ", ".join(dropped))
    if data is None:
        _log("analyze: no usable survival sample; survival tables skipped")
        return 0
    return _survival_stage(data, measures, cfg, out_path)


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def _bench_day_recipe() -> list[simulate.GaitSegment]:
    """One day alternating 30 min walking with 30 min rest."""
    segments = []
    for half_hour in range(48):
        if half_hour % 2 == 0:
            segments.append(
                simulate.GaitSegment(
                    "walk", 1800, cadence_hz=1.9, amplitude_g=0.35, noise_sd_g=0.05
                )
            )
        else:
            segments.append(simulate.GaitSegment("rest", 1800, noise_sd_g=0.02))
    return segments


def cmd_bench(args: argparse.Namespace) -> int:
    _, params = load_config(args.config, args.seed)
    detector_names = [d for d in args.detectors.split(",") if d]
    if not detector_names:
        raise FatalCliError("0 detectors requested")
    unknown = [d for d in detector_names if d not in params]
    if unknown:
        raise FatalCliError(f"unknown detectors: {', '.join(unknown)}")
    if args.subjects < 1 or args.days < 1:
        raise FatalCliError("bench needs at least one subject and one day")
    recipe = _bench_day_recipe()
    totals = {name: 0.0 for name in detector_names}
    for subject in range(args.subjects):
        for day in range(args.days):
            rec, _ = simulate.gen_gait(
                recipe,
                sample_rate_hz=args.rate,
                seed=args.seed_base + 1000 * subject + day,
                subject_id=f"B{subject:03d}",
            )
            vm = vector_magnitude(rec)
            for name in detector_names:
                start = time.perf_counter()
                det.detect(vm, params[name], name)
                totals[name] += time.perf_counter() - start
        _log(f"bench: subject {subject + 1}/{args.subjects} done")
    subject_weeks = args.subjects * args.days / 7.0
    rows = [
        [name, totals[name], (totals[name] / 60.0) * (10.0 / subject_weeks)]
        for name in detector_names
    ]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    ingest.write_table(out, ["detector", "total_seconds", "minutes_per_10_subjects"], rows)
    for name, _, minutes in rows:
        _log(f"bench: {name}: {minutes:.2f} min per 10 subject-weeks")
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg, _ = load_config(args.config, args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    minutes = simulate.gen_cohort(args.subjects, args.days, seed=cfg.rng_seed)
    ingest.write_minute_file(minutes, out_dir / "minutes.csv")
    subject_ids = np.unique(minutes.subject).tolist()
    covariates = simulate.gen_covariates(
        subject_ids, seed=cfg.rng_seed + 1, age_range=(45.0, 84.0)
    )
    ingest.write_covariates(covariates, out_dir / "covariates.csv")

    _, summaries = validity.screen_cohort(minutes, cfg)
    # the first detector's daily mean; 0 for subjects without valid days
    steps_key = f"steps_{minutes.detectors[0]}" if minutes.detectors else None
    mean_steps = {
        subject: summaries[subject].means.get(steps_key, 0.0) for subject in subject_ids
    }
    ages = {
        c.subject_id: c.age_years if c.age_years is not None else 60.0
        for c in covariates
    }
    mortality = simulate.gen_mortality_from_summary(
        mean_steps, ages, seed=cfg.rng_seed + 2, baseline_hazard=6e-3
    )
    ingest.write_mortality(mortality, out_dir / "mortality.csv")

    if args.raw_subjects > 0:
        raw_dir = out_dir / "raw"
        raw_dir.mkdir(exist_ok=True)
        recipe = [
            simulate.GaitSegment("rest", 30, noise_sd_g=0.02),
            simulate.GaitSegment("walk", 60, cadence_hz=2.0, amplitude_g=0.35,
                                 noise_sd_g=0.02),
            simulate.GaitSegment("rest", 30, noise_sd_g=0.02),
        ]
        for i in range(args.raw_subjects):
            rec, _ = simulate.gen_gait(
                recipe, seed=cfg.rng_seed + i, subject_id=f"R{i + 1:04d}"
            )
            path = raw_dir / f"R{i + 1:04d}.csv"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("x,y,z\n")
                for x, y, z in zip(rec.x, rec.y, rec.z):
                    fh.write(f"{float(x)!r},{float(y)!r},{float(z)!r}\n")
    _log(
        f"simulate: wrote {len(subject_ids)} subjects x {args.days} days to {out_dir}"
    )
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stepforge",
        description="Step counting, activity summaries, and survival analysis "
        "for wrist accelerometry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--seed", type=int, default=None, help="override rng_seed")
        p.add_argument(
            "--jobs", type=int, default=1,
            help="worker processes for steps; analyze, bench and simulate "
            "accept and ignore it",
        )

    p_steps = sub.add_parser("steps", help="raw recordings -> minute-level files")
    common(p_steps)
    p_steps.add_argument("raw_dir", help="directory of raw .csv/.csv.gz files")
    p_steps.add_argument("--out", required=True, help="output directory")
    p_steps.add_argument("--rate", type=float, default=80.0, help="sample rate (Hz)")
    p_steps.add_argument("--no-header", action="store_true")
    p_steps.add_argument("--has-timestamp", action="store_true")
    p_steps.set_defaults(func=cmd_steps)

    p_an = sub.add_parser("analyze", help="minute files -> report tables")
    common(p_an)
    p_an.add_argument("minutes", help="minute-level csv file or directory")
    p_an.add_argument("--covariates", required=True)
    p_an.add_argument("--mortality", default=None)
    p_an.add_argument("--out", required=True, help="output directory")
    p_an.set_defaults(func=cmd_analyze)

    p_bench = sub.add_parser("bench", help="synthetic detector timing table")
    common(p_bench)
    p_bench.add_argument("--subjects", type=int, default=10)
    p_bench.add_argument("--days", type=int, default=7)
    p_bench.add_argument("--rate", type=float, default=80.0)
    p_bench.add_argument(
        "--detectors",
        default=",".join(det.DETECTORS),
        help="comma-separated detector names",
    )
    p_bench.add_argument(
        "--seed-base", type=int, default=0,
        help="seed of the first simulated day; bench takes its seeds from "
        "this, not from --seed",
    )
    p_bench.add_argument("--out", required=True, help="output csv path")
    p_bench.set_defaults(func=cmd_bench)

    p_sim = sub.add_parser("simulate", help="write a synthetic cohort corpus")
    common(p_sim)
    p_sim.add_argument("--subjects", type=int, default=20)
    p_sim.add_argument("--days", type=int, default=4)
    p_sim.add_argument("--raw-subjects", type=int, default=0,
                       help="also write this many raw gait files")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FatalCliError as exc:
        _log(f"error: {exc}")
        return 2
    except (OSError, ValueError) as exc:
        _log(f"error: {type(exc).__name__}: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())

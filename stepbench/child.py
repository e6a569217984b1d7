"""One benchmark round in a fresh process.

Usage: ``child.py WORKLOAD INPUT_DIR ROUND_DIR TRACE``.  WORKLOAD ``setup``
only imports ``stepforge.cli``.  The round's figures go to
``ROUND_DIR/result.json``; survival outputs the checks need go to
``ROUND_DIR/survival.npz``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))


def run_steps(cli, inputs: Path, out: Path) -> dict:
    argv = ["steps", str(inputs / "raw"), "--out", str(out / "minutes"),
            "--rate", "80", "--jobs", "1"]
    return {"exit_code": cli.main(argv)}


def run_analyze(cli, inputs: Path, out: Path) -> dict:
    # No --mortality: the survival stage runs in survival_nhanes, on inputs
    # that do not depend on the seed (see inputs.NHANES_INPUT_SEED).
    argv = ["analyze", str(inputs / "minutes.csv"),
            "--covariates", str(inputs / "covariates.csv"),
            "--out", str(out / "tables"), "--jobs", "1"]
    return {"exit_code": cli.main(argv)}


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def survival_stage(cli, summaries, covariates, mortality, cfg) -> dict:
    """The survival section of ``cmd_analyze``, in its order, minus the writes."""
    survival = cli.survival
    cov_ids = {c.subject_id for c in covariates}
    with_cov = [s for s in summaries if s.included and s.subject_id in cov_ids]
    measures = sorted({k for s in with_cov for k in s.means})
    activity = [m for m in measures if m.startswith("steps_")] + [
        m for m in ("ac", "mims") if m in measures
    ]
    data, _join_failures, dropped = cli.build_survival_dataset(
        summaries, covariates, mortality, cfg, activity
    )
    if data is None:
        raise RuntimeError("no usable survival sample")
    step_measures = [m for m in activity if m in data.covariate_names]
    traditional = [n for n in data.covariate_names if n not in activity]

    univariate = {}
    for measure in step_measures:
        try:
            univariate[measure] = survival.repeated_cv_concordance(data, [measure], cfg)[0]
        except Exception as exc:  # noqa: BLE001 - counted as a failed CV run
            univariate[measure] = _error(exc)
    try:
        suite = [
            [r.name, r.concordance, r.steps_variable, r.steps_hr_per_500,
             *(r.steps_hr_ci or (None, None))]
            for r in survival.model_suite(data, cfg, traditional=traditional)
        ]
    except Exception as exc:  # noqa: BLE001 - counted as failed CV runs
        suite = _error(exc)
    fits = {}
    for measure in [m for m in step_measures if m.startswith("steps_")]:
        try:
            adjusted = survival.cox_fit(data.select(traditional + [measure]))
            hr = survival.hazard_ratio(adjusted, measure, cfg.hr_step_increment)
            scaled_data = survival.standardize(data.select(traditional + [measure]), measure)
            scaled_fit = survival.cox_fit(scaled_data)
            scaled_hr = survival.hazard_ratio(scaled_fit, measure, 1.0)
            fits[measure] = {
                "beta": adjusted.beta.tolist(),
                "scaled_beta": scaled_fit.beta.tolist(),
                "hr": list(hr),
                "scaled_hr": list(scaled_hr),
                "sd": scaled_data.scaling[measure][1],
            }
        except Exception as exc:  # noqa: BLE001 - counted as a failed HR fit
            fits[measure] = _error(exc)
    return {
        "data": data,
        "traditional": traditional,
        "dropped": dropped,
        "univariate": univariate,
        "suite": suite,
        "fits": fits,
        "hr_increment": cfg.hr_step_increment,
    }


def fit_cox_probe(survival) -> dict:
    """Fit the fixed probe fold of ``cox_probe.csv``, after the measured part.

    The fold is a CV training fold of the seed-1198030153 cohort on which
    ``cox_fit`` reaches the optimum and then raises ConvergenceError.
    """
    from checks import read_cox_probe

    t, event, x, w, names = read_cox_probe()
    data = survival.SurvivalDataset(
        followup_months=t, event=event, covariates=x, weights=w, covariate_names=tuple(names)
    )
    try:
        fit, error = survival.cox_fit(data), None
    except survival.ConvergenceError as exc:
        fit, error = exc.last_fit, _error(exc)
    except Exception as exc:  # noqa: BLE001 - counted as a failed probe fit
        return {"error": _error(exc)}
    return {"error": error, "beta": fit.beta.tolist(), "loglik_seq": list(fit.loglik_seq)}


def run_survival(cli, inputs: Path, out: Path, clock) -> dict:
    import numpy as np

    cfg, _ = cli.load_config(str(inputs / "analysis.cfg"), None, env={})
    summaries = cli.ingest.read_subject_summaries(inputs / "subject_summaries.csv")
    covariates = cli.ingest.read_covariates(inputs / "covariates.csv")
    mortality = cli.ingest.read_mortality(inputs / "mortality.csv")

    # Keep the first held-out fold the stage scores, for the brute-force check.
    survival = cli.survival
    scored = survival.concordance
    first_fold = {}

    def capture(predictors, data):
        value = scored(predictors, data)
        survival.concordance = scored
        first_fold.update(
            pred=np.array(predictors, dtype=np.float64), t=data.followup_months,
            event=data.event, w=data.weights, c=value,
        )
        return value

    survival.concordance = capture
    with clock:
        result = survival_stage(cli, summaries, covariates, mortality, cfg)
    survival.concordance = scored
    data = result.pop("data")
    np.savez(
        out / "survival.npz",
        t=data.followup_months, event=data.event, x=data.covariates, w=data.weights,
        names=np.array(data.covariate_names),
        **{f"fold_{k}": np.asarray(v) for k, v in first_fold.items()},
    )
    return result


class Clock:
    """Wall and CPU time of the measured part of a round."""

    def __enter__(self):
        self.cpu0 = os.times()
        self.wall0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall_s = time.perf_counter() - self.wall0
        cpu1 = os.times()
        self.cpu_s = (cpu1.user - self.cpu0.user) + (cpu1.system - self.cpu0.system)
        return False


def main() -> int:
    workload, inputs, out, trace = sys.argv[1], Path(sys.argv[2]), Path(sys.argv[3]), sys.argv[4]
    start = time.perf_counter()
    from stepforge import cli

    result = {"setup_s": time.perf_counter() - start}
    if workload != "setup":
        tracer = None
        if trace == "1":
            from layers import Tracer

            tracer = Tracer()
            tracer.install()
        clock = Clock()
        if workload == "survival_nhanes":
            result.update(run_survival(cli, inputs, out, clock))
        else:
            runner = run_steps if workload == "steps_raw" else run_analyze
            with clock:
                result.update(runner(cli, inputs, out))
        result["wall_s"] = clock.wall_s
        result["cpu_s"] = clock.cpu_s
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            result["layers"] = tracer.metrics()
        if workload == "survival_nhanes":
            result["probe"] = fit_cox_probe(cli.survival)
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    # Skip freeing the per-minute objects at exit; nothing is measured there.
    os._exit(code)

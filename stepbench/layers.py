"""Per-layer spans for the traced run.

``Tracer.install`` replaces public stepforge functions with timing wrappers
at the module attribute their callers look up at call time (a function
imported by name into ``cli`` is wrapped in ``cli``).  Times are inclusive:
a span that calls another traced function contains the inner span.

Tracing costs one extra Python call per traced call.  ``trace.overhead_est_s``
is the number of traced calls times the cost of one wrapper call, measured in
the same process on a no-op function.
"""

from __future__ import annotations

import functools
import math
import time
from collections import defaultdict

# Every per-layer metric, in report order: (name, unit).
METRICS = (
    ("ingest.read_raw_recording_s", "s"),
    ("ingest.raw_samples", "count"),
    ("dsp.vector_magnitude_s", "s"),
    ("detectors.template_s", "s"),
    ("detectors.peak_original_s", "s"),
    ("detectors.peak_revised_s", "s"),
    ("detectors.spectral_s", "s"),
    ("detectors.per_second_to_minutes_s", "s"),
    ("summaries.activity_counts_s", "s"),
    ("summaries.mims_units_s", "s"),
    ("ingest.write_minute_file_s", "s"),
    ("ingest.read_minute_file_s", "s"),
    ("ingest.minute_rows", "count"),
    ("validity.impute_unknown_as_wear_s", "s"),
    ("model.check_unique_minutes_s", "s"),
    ("model.check_unique_minutes_calls", "count"),
    ("validity.screen_cohort_s", "s"),
    ("validity.unknown_bout_transition_matrix_s", "s"),
    ("stats.weighted_mean_se_s", "s"),
    ("stats.local_weighted_smooth_s", "s"),
    ("stats.correlation_matrix_s", "s"),
    ("ingest.write_table_s", "s"),
    ("survival.repeated_cv_concordance_s", "s"),
    ("survival.cv_runs", "count"),
    ("survival.cv_runs_distinct", "count"),
    ("survival.cox_fit_s", "s"),
    ("survival.cox_fit_calls", "count"),
    ("survival.newton_iters", "count"),
    ("survival.concordance_s", "s"),
    ("survival.concordance_calls", "count"),
    ("survival.model_suite_s", "s"),
    ("cli.build_survival_dataset_s", "s"),
    ("trace.calls", "count"),
    ("trace.overhead_est_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)
# Filled in by the benchmark parent from the traced and untraced rounds.
PARENT_METRICS = ("trace.wall_s", "trace.overhead_s")


class Tracer:
    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.cv_covariate_lists: set[tuple[str, ...]] = set()
        self.calls = 0

    def _span(self, name: str, fn, on_result=None, on_args=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls += 1
            if on_args is not None:
                on_args(*args, **kwargs)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.seconds[name] += time.perf_counter() - start
                self.counts[name] += 1
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _generator_span(self, name: str, fn):
        """Time the iteration of a generator function, not the call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                self.calls += 1
                start = time.perf_counter()
                try:
                    chunk = next(gen)
                except StopIteration:
                    self.seconds[name] += time.perf_counter() - start
                    return
                self.seconds[name] += time.perf_counter() - start
                self.counts["ingest.raw_samples"] += len(chunk)
                yield chunk

        return wrapper

    def _peak_span(self, fn):
        """``detect_steps_peak`` serves two registry slots; split by name."""

        @functools.wraps(fn)
        def wrapper(vm, params=None, name="peak"):
            self.calls += 1
            start = time.perf_counter()
            try:
                return fn(vm, params, name)
            finally:
                self.seconds[f"detectors.{name}"] += time.perf_counter() - start

        return wrapper

    def _count(self, key: str, amount: int) -> None:
        self.counts[key] += amount

    def _note_cv_run(self, data, covariates, *args, **kwargs) -> None:
        self.cv_covariate_lists.add(tuple(covariates))

    def install(self) -> None:
        from stepforge import cli, detectors, ingest, model, stats, survival, validity

        def patch(module, attr, name, **hooks):
            setattr(module, attr, self._span(name, getattr(module, attr), **hooks))

        ingest.read_raw_recording = self._generator_span(
            "ingest.read_raw_recording", ingest.read_raw_recording
        )
        patch(cli, "vector_magnitude", "dsp.vector_magnitude")
        patch(cli, "activity_counts", "summaries.activity_counts")
        patch(cli, "mims_units", "summaries.mims_units")
        patch(cli, "build_survival_dataset", "cli.build_survival_dataset")
        detectors.detect_steps_peak = self._peak_span(detectors.detect_steps_peak)
        patch(detectors, "detect_steps_spectral", "detectors.spectral")
        patch(detectors, "detect_steps_template", "detectors.template")
        patch(detectors, "per_second_to_minutes", "detectors.per_second_to_minutes")
        patch(ingest, "write_minute_file", "ingest.write_minute_file")
        patch(ingest, "write_table", "ingest.write_table")
        patch(
            ingest, "read_minute_file", "ingest.read_minute_file",
            on_result=lambda rows: self._count("ingest.minute_rows", len(rows)),
        )
        unique = self._span("model.check_unique_minutes", model.check_unique_minutes)
        model.check_unique_minutes = unique
        ingest.check_unique_minutes = unique
        for attr in ("impute_unknown_as_wear", "screen_cohort", "unknown_bout_transition_matrix"):
            patch(validity, attr, f"validity.{attr}")
        for attr in ("weighted_mean_se", "local_weighted_smooth", "correlation_matrix"):
            patch(stats, attr, f"stats.{attr}")
        patch(
            survival, "repeated_cv_concordance", "survival.repeated_cv_concordance",
            on_args=self._note_cv_run,
        )
        patch(
            survival, "cox_fit", "survival.cox_fit",
            on_result=lambda fit: self._count("survival.newton_iters", len(fit.loglik_seq) - 1),
        )
        patch(survival, "concordance", "survival.concordance")
        patch(survival, "model_suite", "survival.model_suite")

    @staticmethod
    def wrapper_cost_s(calls: int = 20000, repeats: int = 5) -> float:
        """Seconds one traced call adds to a bare call (best of ``repeats``)."""

        def noop():
            return None

        wrapped = Tracer()._span("noop", noop)
        best = math.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                noop()
            t1 = time.perf_counter()
            for _ in range(calls):
                wrapped()
            t2 = time.perf_counter()
            best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
        return max(best, 0.0)

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except ``PARENT_METRICS``."""
        out: dict[str, float] = {}
        for name, unit in METRICS:
            if name in PARENT_METRICS:
                continue
            if unit == "s":
                out[name] = self.seconds.get(name[: -len("_s")], 0.0)
            else:
                out[name] = 0
        out["ingest.raw_samples"] = self.counts["ingest.raw_samples"]
        out["ingest.minute_rows"] = self.counts["ingest.minute_rows"]
        out["model.check_unique_minutes_calls"] = self.counts["model.check_unique_minutes"]
        out["survival.cv_runs"] = self.counts["survival.repeated_cv_concordance"]
        out["survival.cv_runs_distinct"] = len(self.cv_covariate_lists)
        out["survival.cox_fit_calls"] = self.counts["survival.cox_fit"]
        out["survival.newton_iters"] = self.counts["survival.newton_iters"]
        out["survival.concordance_calls"] = self.counts["survival.concordance"]
        out["trace.calls"] = self.calls
        out["trace.overhead_est_s"] = self.calls * self.wrapper_cost_s()
        return out

import numpy as np
import pytest

from stepforge.model import WearState, check_unique_minutes
from stepforge.simulate import (
    GaitSegment,
    gen_cohort,
    gen_covariates,
    gen_gait,
    gen_mortality_from_summary,
    make_boundary_day,
)
from tests.conftest import assert_tables_equal, gen_survival, minute_rows


class TestGenGait:
    def test_truth_matches_cadence(self):
        recipe = [
            GaitSegment("rest", 10),
            GaitSegment("walk", 60, cadence_hz=2.0, amplitude_g=0.4),
            GaitSegment("rest", 5),
        ]
        rec, truth = gen_gait(recipe, sample_rate_hz=80.0, seed=0)
        assert len(rec) == 75 * 80
        assert len(truth) == 75
        np.testing.assert_array_equal(truth[:10], 0.0)
        np.testing.assert_array_equal(truth[10:70], 2.0)
        np.testing.assert_array_equal(truth[70:], 0.0)
        assert truth.sum() == 120.0

    def test_walk_oscillates_around_1g(self):
        rec, _ = gen_gait(
            [GaitSegment("walk", 30, cadence_hz=2.0, amplitude_g=0.4)], seed=1
        )
        vm = np.sqrt(rec.x**2 + rec.y**2 + rec.z**2)
        assert 0.9 < vm.mean() < 1.1
        assert vm.std() > 0.1

    def test_rest_is_quiet(self):
        rec, _ = gen_gait([GaitSegment("rest", 20, noise_sd_g=0.0)], seed=2)
        vm = np.sqrt(rec.x**2 + rec.y**2 + rec.z**2)
        np.testing.assert_allclose(vm, 1.0, atol=1e-12)

    def test_seed_determinism(self):
        recipe = [GaitSegment("walk", 10, cadence_hz=1.8, noise_sd_g=0.05)]
        a, _ = gen_gait(recipe, seed=7)
        b, _ = gen_gait(recipe, seed=7)
        c, _ = gen_gait(recipe, seed=8)
        np.testing.assert_array_equal(a.x, b.x)
        assert not np.array_equal(a.x, c.x)

    def test_infeasible_cadence(self):
        with pytest.raises(ValueError):
            gen_gait([GaitSegment("walk", 10, cadence_hz=9.0)], sample_rate_hz=20.0)


class TestBoundaryDay:
    def test_exact_threshold_counts(self):
        minutes = minute_rows(make_boundary_day("S1", 1, 1368, 420, 420))
        assert len(minutes) == 1440
        valid = [
            m
            for m in minutes
            if not m.quality_flagged and m.wear is not WearState.NON_WEAR
        ]
        assert len(valid) == 1368
        wake = [m for m in valid if m.wear is WearState.WAKE_WEAR]
        assert len(wake) == 420
        nonzero = [m for m in valid if m.mims > 0.0]
        assert len(nonzero) == 420


class TestGenCohort:
    def test_shape_and_uniqueness(self):
        minutes = gen_cohort(3, 2, seed=0)
        assert len(minutes) == 3 * 2 * 1440
        check_unique_minutes(minutes)
        assert set(minutes.subject.tolist()) == {"S0001", "S0002", "S0003"}

    def test_determinism(self):
        a = gen_cohort(2, 1, seed=3)
        b = gen_cohort(2, 1, seed=3)
        assert_tables_equal(a, b)

    def test_boundary_days_lead_first_subject(self):
        minutes = minute_rows(gen_cohort(1, 4, seed=0))
        by_day = {}
        for m in minutes:
            by_day.setdefault(m.day_index, []).append(m)
        day1_valid = [
            m
            for m in by_day[1]
            if not m.quality_flagged and m.wear is not WearState.NON_WEAR
        ]
        day2_valid = [
            m
            for m in by_day[2]
            if not m.quality_flagged and m.wear is not WearState.NON_WEAR
        ]
        assert len(day1_valid) == 1368
        assert len(day2_valid) == 1367


class TestGenCovariates:
    def test_levels_and_determinism(self):
        ids = [f"S{i:04d}" for i in range(1, 30)]
        a = gen_covariates(ids, seed=1)
        b = gen_covariates(ids, seed=1)
        assert a == b
        assert {c.wave for c in a} == {"2011-2012", "2013-2014"}
        for c in a:
            assert c.survey_weight > 0
            assert c.age_topcoded == (c.age_years >= 80.0)

    def test_age_range_respected(self):
        covs = gen_covariates(["A", "B", "C"], seed=2, age_range=(50.0, 60.0))
        for c in covs:
            assert 50.0 <= c.age_years <= 60.0


class TestGenSurvival:
    def test_censor_rate_zero_all_events(self):
        data = gen_survival(50, beta_per_step=0.0, censor_rate=0.0, seed=0)
        assert data.n_events == 50

    def test_dataset_valid_and_deterministic(self):
        a = gen_survival(40, beta_per_step=-1e-4, seed=4)
        b = gen_survival(40, beta_per_step=-1e-4, seed=4)
        np.testing.assert_array_equal(a.followup_months, b.followup_months)
        np.testing.assert_array_equal(a.covariates, b.covariates)
        assert a.covariate_names == ("steps",)
        assert len(a) == 40


class TestGenMortality:
    def test_cutoff_censoring(self):
        steps = {f"S{i}": 50000.0 for i in range(20)}  # huge steps -> tiny hazard
        ages = {s: 50.0 for s in steps}
        recs = gen_mortality_from_summary(steps, ages, seed=0)
        assert all(not r.event and r.followup_months == 150.0 for r in recs)

    def test_rounding_and_determinism(self):
        steps = {f"S{i}": 2000.0 for i in range(30)}
        ages = {s: 79.0 for s in steps}
        a = gen_mortality_from_summary(steps, ages, seed=1, baseline_hazard=6e-3)
        b = gen_mortality_from_summary(steps, ages, seed=1, baseline_hazard=6e-3)
        assert a == b
        assert any(r.event for r in a)
        for r in a:
            assert r.followup_months == round(r.followup_months, 2)
            assert r.followup_months <= 150.0

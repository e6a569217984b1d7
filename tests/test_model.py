import numpy as np
import pytest

from stepforge.model import (
    AGE_TOPCODE,
    MIMS_INVALID,
    AnalysisConfig,
    MinuteTable,
    MortalityRecord,
    SubjectCovariates,
    TriaxialRecording,
    WearState,
    check_unique_minutes,
    make_config,
)
from stepforge.validity import screen_cohort
from tests.conftest import make_minute, minute_table


def covariates(**overrides):
    base = dict(
        subject_id="S1",
        wave="2011-2012",
        age_years=60.0,
        sex="male",
        race_ethnicity="nh_white",
        education="more_than_hs",
        bmi_category="normal",
        diabetes=False,
        chd=False,
        chf=False,
        heart_attack=False,
        stroke=False,
        cancer=False,
        mobility_problem=False,
        alcohol="moderate",
        smoking="never",
        self_reported_health="good",
        survey_weight=1000.0,
        stratum_id="1",
        psu_id="1",
    )
    base.update(overrides)
    return SubjectCovariates(**base)


class TestWearState:
    def test_unknown_counts_as_wear(self):
        assert WearState.UNKNOWN.counts_as_wear
        assert WearState.WAKE_WEAR.counts_as_wear
        assert WearState.SLEEP_WEAR.counts_as_wear
        assert not WearState.NON_WEAR.counts_as_wear


class TestTriaxialRecording:
    def test_duration(self):
        rec = TriaxialRecording("s", np.zeros(160), np.zeros(160), np.zeros(160), 80.0)
        assert len(rec) == 160
        assert rec.duration_seconds == 2.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            TriaxialRecording("s", np.zeros(3), np.zeros(4), np.zeros(3))

    def test_nonfinite_rejected(self):
        y = np.zeros(3)
        y[1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            TriaxialRecording("s", np.zeros(3), y, np.zeros(3))

    def test_bad_rate(self):
        with pytest.raises(ValueError, match="positive"):
            TriaxialRecording("s", np.zeros(3), np.zeros(3), np.zeros(3), 0.0)


def one_day_totals(**row):
    cfg = make_config({"min_valid_minutes": 1, "min_wake_minutes": 0,
                       "min_nonzero_mims_minutes": 0})
    days, _ = screen_cohort(minute_table([make_minute(**row)]), cfg)
    return days["S1"][0].totals


class TestMinuteTable:
    def test_sentinel_mims_usable(self):
        table = minute_table([make_minute(mims=MIMS_INVALID)])
        assert table.mims.tolist() == [MIMS_INVALID]
        totals = one_day_totals(mims=MIMS_INVALID)
        assert totals["mims"] == 0.0
        assert totals["log10_mims"] == 0.0

    def test_log10_transform(self):
        totals = one_day_totals(mims=3.2, ac=99)
        assert totals["log10_mims"] == pytest.approx(np.log10(4.2), abs=1e-15)
        assert totals["log10_ac"] == pytest.approx(2.0, abs=1e-15)

    def test_negative_mims_not_sentinel(self):
        with pytest.raises(ValueError, match="sentinel"):
            minute_table([make_minute(mims=-0.5)])

    def test_day_index_starts_at_one(self):
        with pytest.raises(ValueError, match="day starts at 1"):
            minute_table([make_minute(day=0)])

    def test_minute_range(self):
        with pytest.raises(ValueError, match=r"minute must lie in \[0, 1439\]"):
            minute_table([make_minute(minute=1440)])

    def test_negative_steps(self):
        with pytest.raises(ValueError, match="steps"):
            minute_table([make_minute(steps={"d": -1.0})])

    def test_steps_copied(self):
        steps = np.array([[1.0]])
        table = MinuteTable(["s"], [1], [0], [0], [False], [0.0], [0.0], steps, ("d",))
        steps[0, 0] = 99.0
        assert table.steps[0, 0] == 1.0

    def test_duplicate_keys_rejected(self):
        a = make_minute(minute=5)
        b = make_minute(minute=5, wear=WearState.SLEEP_WEAR)
        with pytest.raises(ValueError, match="duplicate"):
            minute_table([a, b])
        check_unique_minutes(minute_table([a]))

    def test_detectors_kept_sorted(self):
        table = MinuteTable(["s"], [1], [0], [0], [False], [0.0], [0.0],
                            [[1.0, 2.0]], ("zeta", "alpha"))
        assert table.detectors == ("alpha", "zeta")
        assert table.steps.tolist() == [[2.0, 1.0]]

    def test_misaligned_columns_rejected(self):
        with pytest.raises(ValueError, match="for 2 minutes"):
            MinuteTable(["s", "s"], [1, 1], [0, 1], [0, 0], [False] * 2,
                        [0.0], [0.0, 0.0], np.zeros((2, 0)))
        with pytest.raises(ValueError, match="steps has shape"):
            MinuteTable(["s"], [1], [0], [0], [False], [0.0], [0.0],
                        np.zeros((1, 2)), ("a",))


class TestSubjectCovariates:
    def test_complete_record_not_missing(self):
        assert not covariates().has_missing

    def test_missing_alcohol_is_a_level(self):
        c = covariates(alcohol="missing_alcohol")
        assert not c.has_missing

    def test_none_alcohol_rejected(self):
        with pytest.raises(ValueError, match="alcohol"):
            covariates(alcohol=None)

    def test_missing_education_flags(self):
        assert covariates(education=None).has_missing

    def test_missing_boolean_flags(self):
        assert covariates(diabetes=None).has_missing

    def test_missing_age_flags(self):
        assert covariates(age_years=None).has_missing

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="bmi_category"):
            covariates(bmi_category="gigantic")

    def test_age_above_topcode_rejected(self):
        with pytest.raises(ValueError, match="topcoded"):
            covariates(age_years=AGE_TOPCODE + 0.1)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError, match="survey_weight"):
            covariates(survey_weight=0.0)


class TestMortalityRecord:
    def test_roundtrip_fields(self):
        m = MortalityRecord("s", True, 42.5)
        assert m.event and m.followup_months == 42.5

    def test_negative_followup_rejected(self):
        with pytest.raises(ValueError, match="followup"):
            MortalityRecord("s", False, -1.0)


class TestMakeConfig:
    def test_defaults(self):
        cfg = make_config()
        assert cfg == AnalysisConfig()
        assert cfg.min_valid_minutes == 1368
        assert cfg.min_wake_minutes == 420
        assert cfg.min_valid_days == 3
        assert cfg.cv_folds == 10
        assert cfg.age_range == (50, 79)

    def test_override(self):
        cfg = make_config({"min_valid_days": 1, "rng_seed": 7})
        assert cfg.min_valid_days == 1
        assert cfg.rng_seed == 7

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown config key"):
            make_config({"min_valid_dayz": 3})

    def test_age_range_coerced_to_ints(self):
        cfg = make_config({"age_range": (50.0, 79.0)})
        assert cfg.age_range == (50, 79)

    @pytest.mark.parametrize(
        "bad",
        [
            {"min_valid_minutes": 0},
            {"min_valid_minutes": 1441},
            {"min_valid_days": 0},
            {"winsor_percentile": 1.0},
            {"hr_step_increment": 0.0},
            {"cv_folds": 1},
            {"cv_repeats": 0},
            {"age_range": (79, 50)},
        ],
    )
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError):
            make_config(bad)

    @pytest.mark.parametrize("seed", [-1, -(2**63), 2**63])
    def test_rng_seed_outside_the_generator_range_rejected(self, seed):
        # numpy.random.default_rng refuses negative seeds
        with pytest.raises(ValueError, match="rng_seed"):
            make_config({"rng_seed": seed})

    @pytest.mark.parametrize("seed", [0, 2**63 - 1])
    def test_rng_seed_bounds_accepted(self, seed):
        assert make_config({"rng_seed": seed}).rng_seed == seed

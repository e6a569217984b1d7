import math
import random
from dataclasses import replace

import numpy as np
import pytest

from stepforge.model import MIMS_INVALID, WearState, make_config, stack_minutes
from stepforge.validity import (
    exclusion_reason,
    impute_unknown_as_wear,
    screen_cohort,
    summarize_subject,
    unknown_bout_transition_matrix,
)
from tests.conftest import make_minute, minute_table

WEARABLE = (WearState.WAKE_WEAR, WearState.SLEEP_WEAR, WearState.UNKNOWN)


def boundary_day(subject="S1", day=1):
    """Exactly 1368 valid, 420 wake, 420 positive-MIMS minutes."""
    minutes = []
    for m in range(420):
        minutes.append(make_minute(subject, day, m, WearState.WAKE_WEAR, mims=1.0))
    for m in range(420, 1368):
        minutes.append(make_minute(subject, day, m, WearState.SLEEP_WEAR, mims=0.0))
    for m in range(1368, 1440):
        minutes.append(make_minute(subject, day, m, WearState.NON_WEAR, mims=0.0))
    return minutes


def screen_day(day, cfg):
    """Screen the minutes of one subject-day through the cohort screen."""
    days, _ = screen_cohort(minute_table(day), cfg)
    ((only,),) = days.values()
    return only


class TestMinuteRules:
    def test_unknown_counts_as_wear(self):
        states = list(WearState)
        table = minute_table(make_minute(minute=i, wear=w) for i, w in enumerate(states))
        by_state = dict(zip(states, impute_unknown_as_wear(table).tolist()))
        assert by_state[WearState.UNKNOWN] is True
        assert by_state[WearState.WAKE_WEAR] is True
        assert by_state[WearState.SLEEP_WEAR] is True
        assert by_state[WearState.NON_WEAR] is False

    def test_valid_minute(self):
        cfg = make_config({"min_valid_minutes": 1})

        def n_valid(minute):
            return screen_day([minute], cfg).n_valid_minutes

        assert n_valid(make_minute(wear=WearState.UNKNOWN)) == 1
        assert n_valid(make_minute(flagged=True)) == 0
        assert n_valid(make_minute(wear=WearState.NON_WEAR)) == 0


class TestDayScreening:
    def test_boundary_day_is_valid(self):
        cfg = make_config()
        summary = screen_day(boundary_day(), cfg)
        assert (summary.n_valid_minutes, summary.n_wake_minutes) == (1368, 420)
        assert summary.n_nonzero_mims_minutes == 420
        assert summary.valid

    def test_one_short_in_any_dimension_fails(self):
        cfg = make_config()
        flagged = boundary_day()
        flagged[500] = make_minute(minute=500, wear=WearState.SLEEP_WEAR, mims=0.0, flagged=True)
        assert not screen_day(flagged, cfg).valid

        less_wake = boundary_day()
        less_wake[10] = make_minute(minute=10, wear=WearState.SLEEP_WEAR, mims=1.0)
        assert not screen_day(less_wake, cfg).valid

        less_active = boundary_day()
        less_active[10] = make_minute(minute=10, wear=WearState.WAKE_WEAR, mims=0.0)
        assert not screen_day(less_active, cfg).valid

    def test_raising_thresholds_never_validates(self):
        day = boundary_day()
        for key, base in [
            ("min_valid_minutes", 1368),
            ("min_wake_minutes", 420),
            ("min_nonzero_mims_minutes", 420),
        ]:
            verdicts = [
                screen_day(day, make_config({key: k})).valid
                for k in (base - 1, base, base + 1)
            ]
            assert verdicts == [True, True, False]

    def test_sentinel_contributes_zero_and_is_not_activity(self):
        cfg = make_config(
            {"min_valid_minutes": 1, "min_wake_minutes": 0,
             "min_nonzero_mims_minutes": 0}
        )
        day = [
            make_minute(minute=0, mims=2.0, steps={"a": 3.0}),
            make_minute(minute=1, mims=MIMS_INVALID, steps={"a": 4.0}),
            make_minute(minute=2, mims=3.0, steps={"a": 5.0}),
        ]
        summary = screen_day(day, cfg)
        assert summary.n_nonzero_mims_minutes == 2
        assert summary.totals["mims"] == 5.0
        assert summary.totals["steps_a"] == 12.0
        assert summary.totals["log10_mims"] == pytest.approx(
            math.log10(3.0) + 0.0 + math.log10(4.0)
        )

    def test_nonzero_pool_switch(self):
        day = [
            make_minute(minute=0, mims=0.0),
            make_minute(minute=1, mims=5.0, flagged=True),
        ]
        base = dict(min_valid_minutes=1, min_wake_minutes=0, min_nonzero_mims_minutes=1)
        strict = make_config(dict(base, nonzero_mims_among_valid=True))
        loose = make_config(dict(base, nonzero_mims_among_valid=False))
        assert not screen_day(day, strict).valid
        assert screen_day(day, loose).valid

    def test_missing_detector_key_counts_as_zero(self):
        cfg = make_config(
            {"min_valid_minutes": 1, "min_wake_minutes": 0,
             "min_nonzero_mims_minutes": 0}
        )
        # stacked blocks: the second lacks detector b, which reads 0 there
        table = stack_minutes([
            vars(minute_table([make_minute(minute=0, steps={"a": 2.0, "b": 7.0})])),
            vars(minute_table([make_minute(minute=1, steps={"a": 3.0})])),
        ])
        days, _ = screen_cohort(table, cfg)
        totals = days["S1"][0].totals
        assert totals["steps_a"] == 5.0
        assert totals["steps_b"] == 7.0

    def test_shuffle_invariance(self):
        day = boundary_day()
        shuffled = day.copy()
        random.Random(3).shuffle(shuffled)
        assert screen_day(day, make_config()) == screen_day(shuffled, make_config())

    def test_mixed_day_rejected(self):
        # a table mixing days screens into one summary per day; none is empty
        day = [make_minute(day=1), make_minute(day=2, minute=1)]
        days, _ = screen_cohort(minute_table(day), make_config())
        assert [(d.day_index, d.n_valid_minutes) for d in days["S1"]] == [(1, 1), (2, 1)]
        assert screen_cohort(minute_table([]), make_config()) == ({}, {})

    def test_randomized_days_match_longhand_recount(self):
        cfg = make_config(
            {"min_valid_minutes": 600, "min_wake_minutes": 300,
             "min_nonzero_mims_minutes": 200}
        )
        rng = np.random.default_rng(42)
        states = list(WearState)
        for _ in range(50):
            n = int(rng.integers(1, 1441))
            day = []
            for m in range(n):
                wear = states[int(rng.integers(0, 4))]
                mims = float(rng.choice([0.0, MIMS_INVALID, round(rng.uniform(0.1, 9), 3)]))
                day.append(
                    make_minute(
                        minute=m,
                        wear=wear,
                        flagged=bool(rng.random() < 0.1),
                        mims=mims,
                        steps={"a": float(rng.integers(0, 90))},
                    )
                )
            summary = screen_day(day, cfg)
            valid = [
                m for m in day if not m.quality_flagged and m.wear in WEARABLE
            ]
            n_wake = sum(1 for m in day if m.wear is WearState.WAKE_WEAR)
            n_nonzero = sum(1 for m in valid if m.mims > 0.0)
            assert summary.n_valid_minutes == len(valid)
            assert summary.n_wake_minutes == n_wake
            assert summary.n_nonzero_mims_minutes == n_nonzero
            assert summary.valid == (
                len(valid) >= 600 and n_wake >= 300 and n_nonzero >= 200
            )
            assert summary.totals["steps_a"] == math.fsum(m.steps["a"] for m in valid)
            assert summary.totals["mims"] == math.fsum(
                0.0 if m.mims == MIMS_INVALID else m.mims for m in valid
            )


class TestSubjectScreening:
    def test_means_over_valid_days_only(self):
        cfg = make_config()
        days = []
        for i, steps in enumerate([8000.0, 9000.0, 10000.0, 400.0]):
            day = screen_day(boundary_day(day=i + 1), cfg)
            day = replace(
                day,
                totals=dict(day.totals, steps_a=steps),
                valid=day.valid and i != 3,
            )
            days.append(day)
        summary = summarize_subject(days, cfg)
        assert summary.n_valid_days == 3
        assert summary.included
        assert summary.means["steps_a"] == 9000.0

    def test_inclusion_threshold(self):
        days = [screen_day(boundary_day(day=d), make_config()) for d in (1, 2)]
        assert not summarize_subject(days, make_config()).included
        assert summarize_subject(days, make_config({"min_valid_days": 1})).included

    def test_no_valid_days_yields_empty_means(self):
        day = screen_day(boundary_day(), make_config({"min_wake_minutes": 500}))
        summary = summarize_subject([day], make_config())
        assert summary.means == {} and not summary.included

    def test_single_subject_enforced(self):
        a = screen_day(boundary_day("A"), make_config())
        b = screen_day(boundary_day("B"), make_config())
        with pytest.raises(ValueError, match="single subject"):
            summarize_subject([a, b], make_config())


class TestCohortScreening:
    def test_grouping_sorts_unordered_input(self):
        minutes = [
            make_minute("B", minute=5), make_minute("A", day=2),
            make_minute("B", minute=1), make_minute("A", day=1, minute=7),
        ]
        days, subjects = screen_cohort(minute_table(minutes), make_config())
        assert list(days) == list(subjects) == ["A", "B"]
        assert [(d.subject_id, d.day_index) for d in days["A"] + days["B"]] == [
            ("A", 1), ("A", 2), ("B", 1),
        ]
        assert days["B"][0].n_valid_minutes == 2

    def test_screen_cohort_end_to_end(self):
        cfg = make_config({"min_valid_days": 2})
        minutes = []
        for day in (1, 2):
            minutes.extend(boundary_day("A", day))
        minutes.extend(boundary_day("B", 1))
        days, subjects = screen_cohort(minute_table(minutes), cfg)
        assert [d.day_index for d in days["A"]] == [1, 2]
        assert subjects["A"].included and not subjects["B"].included
        assert exclusion_reason(subjects["A"], cfg) == ""
        assert "1 valid day" in exclusion_reason(subjects["B"], cfg)


class TestUnknownTransitions:
    def test_single_bout(self):
        minutes = [
            make_minute(minute=0, wear=WearState.WAKE_WEAR),
            make_minute(minute=1, wear=WearState.UNKNOWN),
            make_minute(minute=2, wear=WearState.UNKNOWN),
            make_minute(minute=3, wear=WearState.WAKE_WEAR),
        ]
        matrix, labels = unknown_bout_transition_matrix(minute_table(minutes))
        assert labels == ("unknown", "nonwear", "sleep", "wake")
        assert matrix[3, 3] == 1.0
        assert matrix.sum() == 1.0

    def test_two_bouts_split_mass(self):
        minutes = [
            make_minute(minute=0, wear=WearState.WAKE_WEAR),
            make_minute(minute=1, wear=WearState.UNKNOWN),
            make_minute(minute=2, wear=WearState.SLEEP_WEAR),
            make_minute(minute=3, wear=WearState.UNKNOWN),
            make_minute(minute=4, wear=WearState.NON_WEAR),
        ]
        matrix, _ = unknown_bout_transition_matrix(minute_table(minutes))
        assert matrix[3, 2] == 0.5  # wake -> sleep
        assert matrix[2, 1] == 0.5  # sleep -> nonwear
        assert matrix.sum() == 1.0

    def test_edge_and_gap_bouts_skipped(self):
        minutes = [
            make_minute(minute=0, wear=WearState.UNKNOWN),  # timeline edge
            make_minute(minute=1, wear=WearState.WAKE_WEAR),
            make_minute(minute=2, wear=WearState.UNKNOWN),
            # minute 3 missing: bout at 2 touches a coverage gap
            make_minute(minute=4, wear=WearState.WAKE_WEAR),
        ]
        matrix, _ = unknown_bout_transition_matrix(minute_table(minutes))
        assert matrix.sum() == 0.0

    def test_day_rollover_is_contiguous(self):
        minutes = [
            make_minute(day=1, minute=1439, wear=WearState.SLEEP_WEAR),
            make_minute(day=2, minute=0, wear=WearState.UNKNOWN),
            make_minute(day=2, minute=1, wear=WearState.WAKE_WEAR),
        ]
        matrix, _ = unknown_bout_transition_matrix(minute_table(minutes))
        assert matrix[2, 3] == 1.0

    def test_subjects_do_not_bridge(self):
        minutes = [
            make_minute("A", minute=0, wear=WearState.WAKE_WEAR),
            make_minute("A", minute=1, wear=WearState.UNKNOWN),
            make_minute("B", minute=2, wear=WearState.WAKE_WEAR),
        ]
        matrix, _ = unknown_bout_transition_matrix(minute_table(minutes))
        assert matrix.sum() == 0.0

"""Property tests: the one shared (subject, day, minute) row order of a table.

Each table sorts its keys once (``MinuteTable.row_order``); the key check,
the screening and the unknown-bout transitions all read that order.  The
oracles below are the code it replaced, kept verbatim: a ``lexsort`` on the
subject strings for the key check, and ``np.unique`` plus a ``lexsort`` in
every screening call.  Random tables with shuffled rows, gaps, duplicate
keys, subjects that share prefixes or differ in length, non-ASCII names,
days near the int64 limit, and several files read in small blocks must
give bitwise-equal results and the same duplicate-key error text.
"""

from __future__ import annotations

import math
import struct
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stepforge import cli, ingest, model
from stepforge.model import (
    MIMS_INVALID,
    TRANSITION_STATE_ORDER,
    WEAR_CODE,
    AnalysisConfig,
    DaySummary,
    MinuteTable,
    SubjectSummary,
    WearState,
    make_config,
    sort_minute_keys,
)
from stepforge.validity import (
    impute_unknown_as_wear,
    screen_cohort,
    summarize_subject,
    unknown_bout_transition_matrix,
)
from tests.conftest import assert_tables_equal, make_minute, minute_table

SETTINGS = settings(max_examples=60, deadline=None)

SUBJECTS = ("S1", "S10", "S2", "S", "S100", "s1", "Ω7", "Ωa", "é", "S1é")
#: Small days, and one near the int64 limit.
DAYS = (1, 2, 3, 9, 2**62)
#: Early, midday and late minutes, so timelines have gaps and midnights.
MINUTES = (0, 1, 2, 3, 700, 701, 1437, 1438, 1439)
compensated_sum = math.fsum


# -- the replaced code, verbatim ---------------------------------------------


def old_check_unique_minutes(table: MinuteTable) -> None:
    """Reject tables carrying duplicate (subject, day, minute) keys."""
    order = np.lexsort((table.minute, table.day, table.subject))
    s, d, m = table.subject[order], table.day[order], table.minute[order]
    dup = (s[1:] == s[:-1]) & (d[1:] == d[:-1]) & (m[1:] == m[:-1])
    if dup.any():
        raise ValueError(f"duplicate minute key {table.key(order[np.argmax(dup)])}")


def _totals_by_day(
    table: MinuteTable, rows: np.ndarray, bounds: np.ndarray
) -> list[dict[str, float]]:
    """Exact totals per day: ``rows`` are the valid minutes, day-sorted, and
    day ``i`` is ``rows[bounds[i]:bounds[i + 1]]``."""
    columns = {
        f"steps_{name}": table.steps[rows, j] for j, name in enumerate(table.detectors)
    }
    columns["mims"] = np.where(table.mims == MIMS_INVALID, 0.0, table.mims)[rows]
    columns["ac"] = table.ac[rows]
    out = []
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        day = {key: column[lo:hi].tolist() for key, column in columns.items()}
        day["log10_mims"] = [math.log10(1.0 + v) for v in day["mims"]]
        day["log10_ac"] = [math.log10(1.0 + v) for v in day["ac"]]
        out.append({key: compensated_sum(values) for key, values in day.items()})
    return out


def _sort_rows(table: MinuteTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row order by (subject, day, minute), the sorted subject names, and each
    ordered row's index into them."""
    subjects, code = np.unique(table.subject, return_inverse=True)
    order = np.lexsort((table.minute, table.day, code))
    return order, subjects, code[order]


def old_screen_cohort(
    table: MinuteTable, cfg: AnalysisConfig
) -> tuple[dict[str, list[DaySummary]], dict[str, SubjectSummary]]:
    if len(table) == 0:
        return {}, {}
    order, subjects, code = _sort_rows(table)
    day = table.day[order]
    new_day = np.ones(len(order), dtype=bool)
    new_day[1:] = (code[1:] != code[:-1]) | (day[1:] != day[:-1])
    starts = np.flatnonzero(new_day)
    valid = (impute_unknown_as_wear(table) & ~table.flag)[order]
    nonzero = table.mims[order] > 0.0
    if cfg.nonzero_mims_among_valid:
        nonzero &= valid
    wake = table.wear[order] == WEAR_CODE[WearState.WAKE_WEAR]
    n_valid, n_wake, n_nonzero = (
        np.add.reduceat(flags.astype(np.int64), starts).tolist()
        for flags in (valid, wake, nonzero)
    )
    # valid rows stay day-sorted, so each day's valid minutes are one slice
    valid_before = np.concatenate([[0], np.cumsum(valid)])
    bounds = valid_before[np.append(starts, len(order))]
    totals = _totals_by_day(table, order[valid], bounds)

    days_by_subject: dict[str, list[DaySummary]] = {}
    names = subjects[code[starts]].tolist()
    for i, (subject, day_index) in enumerate(zip(names, day[starts].tolist())):
        days_by_subject.setdefault(subject, []).append(
            DaySummary(
                subject_id=subject,
                day_index=day_index,
                n_valid_minutes=n_valid[i],
                n_wake_minutes=n_wake[i],
                n_nonzero_mims_minutes=n_nonzero[i],
                valid=(
                    n_valid[i] >= cfg.min_valid_minutes
                    and n_wake[i] >= cfg.min_wake_minutes
                    and n_nonzero[i] >= cfg.min_nonzero_mims_minutes
                ),
                totals=totals[i],
            )
        )
    subject_summaries = {
        subject: summarize_subject(days, cfg)
        for subject, days in days_by_subject.items()
    }
    return days_by_subject, subject_summaries


def old_unknown_bout_transition_matrix(
    table: MinuteTable,
) -> tuple[np.ndarray, tuple[str, ...]]:
    order_index = np.zeros(len(WEAR_CODE), dtype=np.int64)
    for i, state in enumerate(TRANSITION_STATE_ORDER):
        order_index[WEAR_CODE[state]] = i
    counts = np.zeros((4, 4))
    if len(table):
        order, _, code = _sort_rows(table)
        abs_minute = 1440 * (table.day[order] - 1) + table.minute[order]
        # joined[i]: row i follows row i - 1 on the same subject's timeline
        joined = np.zeros(len(order), dtype=bool)
        joined[1:] = (code[1:] == code[:-1]) & (abs_minute[1:] == abs_minute[:-1] + 1)
        unknown = table.wear[order] == WEAR_CODE[WearState.UNKNOWN]
        continues = np.zeros(len(order), dtype=bool)
        continues[1:] = unknown[1:] & unknown[:-1] & joined[1:]
        first = np.flatnonzero(unknown & ~continues)
        last = np.flatnonzero(unknown & ~np.append(continues[1:], False))
        after = last + 1
        flanked = joined[first] & (after < len(order))
        flanked[flanked] &= joined[after[flanked]]
        state = order_index[table.wear[order]]
        pairs = 4 * state[first[flanked] - 1] + state[after[flanked]]
        counts = np.bincount(pairs, minlength=16).astype(np.float64).reshape(4, 4)
    total = counts.sum()
    if total > 0:
        counts /= total
    labels = tuple(state.value for state in TRANSITION_STATE_ORDER)
    return counts, labels


# -- strategies ----------------------------------------------------------------

values = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)


@st.composite
def key_columns(draw, max_size=300):
    """Aligned subject, day and minute arrays with many repeated keys."""
    subjects = draw(st.lists(st.sampled_from(SUBJECTS), min_size=1, max_size=4, unique=True))
    days = draw(st.lists(st.sampled_from(DAYS), min_size=1, max_size=3, unique=True))
    keys = draw(st.lists(
        st.tuples(st.sampled_from(subjects), st.sampled_from(days), st.sampled_from(MINUTES)),
        max_size=max_size,
    ))
    subject, day, minute = zip(*keys) if keys else ((), (), ())
    return (np.array(subject, dtype=str), np.array(day, dtype=np.int64),
            np.array(minute, dtype=np.int64))


@st.composite
def minute_rows(draw, unique=True):
    """Shuffled rows over a few subjects, days and minutes; keys unique or not."""
    subjects = draw(st.lists(st.sampled_from(SUBJECTS), min_size=1, max_size=4, unique=True))
    days = draw(st.lists(st.sampled_from(DAYS), min_size=1, max_size=3, unique=True))
    keys = [(s, d, m) for s in subjects for d in days for m in MINUTES]
    keys = draw(st.lists(st.sampled_from(keys), max_size=60, unique=unique))
    detectors = draw(st.lists(st.sampled_from(("a", "b", "peak")), max_size=2, unique=True))
    return [
        make_minute(
            subject, day, minute,
            wear=draw(st.sampled_from(list(WearState))),
            flagged=draw(st.booleans()),
            mims=draw(st.one_of(st.just(0.0), st.just(MIMS_INVALID), values)),
            ac=draw(st.one_of(values, st.integers(0, 5000).map(float))),
            steps={name: draw(values) for name in detectors},
        )
        for subject, day, minute in keys
    ]


configs = st.builds(
    lambda valid, wake, nonzero, among: make_config({
        "min_valid_minutes": valid, "min_wake_minutes": wake,
        "min_nonzero_mims_minutes": nonzero, "nonzero_mims_among_valid": among,
        "min_valid_days": 1,
    }),
    st.integers(1, 6), st.integers(0, 3), st.integers(0, 3), st.booleans(),
)


# -- helpers -------------------------------------------------------------------


def outcome(build):
    try:
        return build(), None
    except ValueError as exc:
        return None, str(exc)


def unchecked_table(rows):
    """``minute_table(rows)`` without the key check, for the old check to run."""
    with mock.patch.object(model, "check_unique_minutes", lambda table: None):
        return minute_table(rows)


def bits(value):
    return struct.pack("<d", value) if isinstance(value, float) else value


def screened(days, subjects):
    """Every field of the screening results, in order, floats as their bits."""
    return (
        [
            (name, d.subject_id, d.day_index, d.n_valid_minutes, d.n_wake_minutes,
             d.n_nonzero_mims_minutes, d.valid, [(k, bits(v)) for k, v in d.totals.items()])
            for name, ds in days.items() for d in ds
        ],
        [
            (name, s.subject_id, s.n_valid_days, s.included,
             [(k, bits(v)) for k, v in s.means.items()])
            for name, s in subjects.items()
        ],
    )


def assert_matches_old_code(table, cfg):
    old_check_unique_minutes(table)
    assert screened(*screen_cohort(table, cfg)) == screened(*old_screen_cohort(table, cfg))
    got, labels = unknown_bout_transition_matrix(table)
    want, old_labels = old_unknown_bout_transition_matrix(table)
    assert labels == old_labels
    assert got.tobytes() == want.tobytes()


def write_files(rows, cuts, directory):
    """Split ``rows`` at ``cuts`` into numbered minute files in ``directory``."""
    bounds = [0, *sorted(c % (len(rows) + 1) for c in cuts), len(rows)]
    for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        part = rows[lo:hi]
        path = directory / f"{i:02d}.csv"
        if part:
            with mock.patch.object(model, "check_unique_minutes", lambda table: None):
                ingest.write_minute_file(minute_table(part), path)
        else:
            path.write_text("subject,day,minute,wear,flag,mims\n", encoding="utf-8")


# -- tests ---------------------------------------------------------------------


@SETTINGS
@given(key_columns())
def test_sort_matches_a_lexsort_on_the_names(columns):
    subject, day, minute = columns
    order, subjects, code = sort_minute_keys(subject, day, minute)
    want = np.lexsort((minute, day, subject))
    assert order.tolist() == want.tolist()
    assert subjects.tolist() == np.unique(subject).tolist()
    assert subjects[code].tolist() == subject[want].tolist()


@SETTINGS
@given(minute_rows(unique=False))
def test_duplicate_key_error_matches_the_old_check(rows):
    _, error = outcome(lambda: minute_table(rows))
    _, want = outcome(lambda: old_check_unique_minutes(unchecked_table(rows)))
    assert error == want


@SETTINGS
@given(minute_rows(), configs)
def test_screening_and_transitions_match_the_old_code(rows, cfg):
    assert_matches_old_code(minute_table(rows), cfg)


@SETTINGS
@given(
    rows=minute_rows(unique=False), cfg=configs,
    cuts=st.lists(st.integers(0, 10**6), max_size=3), block_rows=st.integers(1, 5),
)
def test_files_read_in_blocks_match_the_old_code(rows, cfg, cuts, block_rows):
    with tempfile.TemporaryDirectory() as tmp:
        write_files(rows, cuts, Path(tmp))
        with mock.patch.object(ingest, "_BLOCK_ROWS", block_rows):
            table, error = outcome(lambda: ingest.read_minute_file(tmp))
            with mock.patch.object(model, "check_unique_minutes", lambda table: None):
                unchecked = ingest.read_minute_file(tmp)
    _, want = outcome(lambda: old_check_unique_minutes(unchecked))
    assert error == (None if want is None else f"{tmp}: {want}")
    if table is not None:
        assert_tables_equal(table, unchecked)
        assert_matches_old_code(table, cfg)


def test_analyze_sorts_each_table_once(tmp_path, monkeypatch):
    sim = tmp_path / "sim"
    assert cli.main(["simulate", "--out", str(sim), "--subjects", "6", "--days", "3",
                     "--seed", "5"]) == 0
    sorted_keys = []
    real = model.sort_minute_keys

    def counted(*columns):
        sorted_keys.append(len(columns[0]))
        return real(*columns)

    monkeypatch.setattr(model, "sort_minute_keys", counted)
    assert cli.main(["analyze", str(sim / "minutes.csv"),
                     "--covariates", str(sim / "covariates.csv"),
                     "--out", str(tmp_path / "tables")]) == 0
    assert sorted_keys == [6 * 3 * 1440]

"""Property tests: the columnar minute table against plain-Python oracles.

Random multi-subject tables with shuffled rows, flagged minutes, every wear
state, the MIMS sentinel and several detectors go through screening, the
unknown-bout transitions and the minute-file round trip; each result must
equal a longhand recount over the rows, bit for bit.
"""

from __future__ import annotations

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepforge.ingest import read_minute_file, write_minute_file
from stepforge.model import (
    MIMS_INVALID,
    TRANSITION_STATE_ORDER,
    MinuteTable,
    WearState,
    make_config,
)
from stepforge.validity import screen_cohort, unknown_bout_transition_matrix
from tests.conftest import assert_tables_equal, make_minute, minute_rows, minute_table

SUBJECTS = ("S2", "S10", "b", 'q"x,1')
#: Early and late minutes of a day, so bouts meet gaps, edges and midnight.
MINUTES = tuple(range(0, 5)) + tuple(range(1437, 1440))
KEYS = [(s, d, m) for s in SUBJECTS for d in (1, 2) for m in MINUTES]
SETTINGS = settings(max_examples=50, deadline=None)

values = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)
mims_values = st.one_of(st.just(0.0), st.just(MIMS_INVALID), values)


@st.composite
def row_lists(draw):
    """Shuffled rows of a random table: unique keys, every column random."""
    detectors = draw(st.lists(
        st.sampled_from(("peak_original", "spectral", "template", "x")),
        min_size=0, max_size=3, unique=True,
    ))
    present = draw(st.lists(st.booleans(), min_size=len(KEYS), max_size=len(KEYS)))
    keys = [key for key, keep in zip(KEYS, present) if keep]
    rows = [
        make_minute(
            subject, day, minute,
            wear=draw(st.sampled_from(list(WearState))),
            flagged=draw(st.booleans()),
            mims=draw(mims_values),
            ac=draw(st.one_of(values, st.integers(0, 5000).map(float))),
            steps={name: draw(values) for name in detectors},
        )
        for subject, day, minute in keys
    ]
    return draw(st.permutations(rows)), tuple(sorted(detectors))


configs = st.builds(
    lambda valid, wake, nonzero, among: make_config({
        "min_valid_minutes": valid, "min_wake_minutes": wake,
        "min_nonzero_mims_minutes": nonzero, "nonzero_mims_among_valid": among,
    }),
    st.integers(1, 12), st.integers(0, 6), st.integers(0, 6), st.booleans(),
)


def recount(rows, detectors, cfg):
    """Longhand day screening: (subject, day) -> (counts, valid, totals)."""
    by_day = {}
    for r in rows:
        by_day.setdefault((r.subject_id, r.day_index), []).append(r)
    out = {}
    for key, day in by_day.items():
        valid = [r for r in day if not r.quality_flagged and r.wear is not WearState.NON_WEAR]
        pool = valid if cfg.nonzero_mims_among_valid else day
        n_nonzero = sum(1 for r in pool if r.mims > 0.0)
        n_wake = sum(1 for r in day if r.wear is WearState.WAKE_WEAR)
        usable = [0.0 if r.mims == MIMS_INVALID else r.mims for r in valid]
        totals = {f"steps_{d}": math.fsum(r.steps[d] for r in valid) for d in detectors}
        totals["mims"] = math.fsum(usable)
        totals["ac"] = math.fsum(r.ac for r in valid)
        totals["log10_mims"] = math.fsum(math.log10(1.0 + m) for m in usable)
        totals["log10_ac"] = math.fsum(math.log10(1.0 + r.ac) for r in valid)
        is_valid = (
            len(valid) >= cfg.min_valid_minutes
            and n_wake >= cfg.min_wake_minutes
            and n_nonzero >= cfg.min_nonzero_mims_minutes
        )
        out[key] = ((len(valid), n_wake, n_nonzero), is_valid, totals)
    return out


def longhand_transitions(rows):
    """Walk each subject's timeline bout by bout, as the per-minute code did."""
    index = {state: i for i, state in enumerate(TRANSITION_STATE_ORDER)}
    counts = np.zeros((4, 4))
    by_subject = {}
    for r in rows:
        by_subject.setdefault(r.subject_id, []).append(r)
    for recs in by_subject.values():
        recs.sort(key=lambda r: (r.day_index, r.minute_of_day))
        at = [1440 * (r.day_index - 1) + r.minute_of_day for r in recs]
        i = 0
        while i < len(recs):
            if recs[i].wear is not WearState.UNKNOWN:
                i += 1
                continue
            j = i
            while (j + 1 < len(recs) and recs[j + 1].wear is WearState.UNKNOWN
                   and at[j + 1] == at[j] + 1):
                j += 1
            before = i > 0 and at[i - 1] == at[i] - 1
            after = j + 1 < len(recs) and at[j + 1] == at[j] + 1
            if before and after:
                counts[index[recs[i - 1].wear], index[recs[j + 1].wear]] += 1.0
            i = j + 1
    if counts.sum() > 0:
        counts /= counts.sum()
    return counts


@SETTINGS
@given(row_lists(), configs)
def test_screening_matches_longhand_recount(drawn, cfg):
    rows, detectors = drawn
    days, subjects = screen_cohort(minute_table(rows), cfg)
    expected = recount(rows, detectors, cfg)
    got = {(d.subject_id, d.day_index): d for ds in days.values() for d in ds}
    assert sorted(got) == sorted(expected)
    assert list(days) == sorted({r.subject_id for r in rows}) == list(subjects)
    for key, (counts, is_valid, totals) in expected.items():
        d = got[key]
        assert (d.n_valid_minutes, d.n_wake_minutes, d.n_nonzero_mims_minutes) == counts
        assert d.valid is is_valid
        assert d.totals.keys() == totals.keys()
        for name, total in totals.items():
            assert d.totals[name].hex() == total.hex(), (key, name)
    for subject, ds in days.items():
        assert [d.day_index for d in ds] == sorted(d.day_index for d in ds)
        n_valid_days = sum(expected[(subject, d.day_index)][1] for d in ds)
        assert subjects[subject].n_valid_days == n_valid_days
        assert subjects[subject].included == (n_valid_days >= cfg.min_valid_days)


@SETTINGS
@given(row_lists())
def test_transitions_match_longhand_walk(drawn):
    rows, _ = drawn
    matrix, labels = unknown_bout_transition_matrix(minute_table(rows))
    assert labels == tuple(state.value for state in TRANSITION_STATE_ORDER)
    assert matrix.tobytes() == longhand_transitions(rows).tobytes()


@SETTINGS
@given(row_lists())
def test_write_then_read_returns_every_column(drawn):
    rows, _ = drawn
    table = minute_table(rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "minutes.csv"
        write_minute_file(table, path)
        back = read_minute_file(path)
    assert_tables_equal(back, table)
    assert minute_rows(back) == minute_rows(table)


def test_full_days_match_longhand_recount():
    # whole days of irregular values, where a vectorized log10 would differ
    # from math.log10 in the last bit
    rng = np.random.default_rng(7)
    states = list(WearState)
    rows = [
        make_minute(
            subject, day, minute,
            wear=states[int(rng.integers(0, 4))],
            flagged=bool(rng.random() < 0.05),
            mims=float(rng.choice([MIMS_INVALID, 0.0, rng.uniform(0.0, 60.0)])),
            ac=float(rng.integers(0, 3000)) if rng.random() < 0.5 else float(rng.uniform(0, 3000)),
            steps={"a": float(rng.uniform(0, 120)), "b": float(rng.integers(0, 120))},
        )
        for subject in ("S1", "S2") for day in (1, 2) for minute in range(1440)
    ]
    cfg = make_config()
    days, _ = screen_cohort(minute_table(rows[::-1]), cfg)
    for key, (counts, is_valid, totals) in recount(rows, ("a", "b"), cfg).items():
        (d,) = [d for d in days[key[0]] if d.day_index == key[1]]
        assert (d.n_valid_minutes, d.n_wake_minutes, d.n_nonzero_mims_minutes) == counts
        assert d.valid is is_valid
        assert {k: v.hex() for k, v in d.totals.items()} == {
            k: v.hex() for k, v in totals.items()
        }


def _columns(table):
    return {
        name: getattr(table, name).copy()
        for name in ("subject", "day", "minute", "wear", "flag", "mims", "ac", "steps")
    }


CORRUPTIONS = {
    "day below 1": ("day", 0, "day starts at 1"),
    "minute below 0": ("minute", -1, "minute must lie"),
    "minute past 1439": ("minute", 1440, "minute must lie"),
    "wear code": ("wear", 4, "unknown wear code"),
    "mims nan": ("mims", math.nan, "mims must be finite"),
    "mims inf": ("mims", math.inf, "mims must be finite"),
    "negative mims": ("mims", -0.5, "sentinel"),
    "negative ac": ("ac", -1.0, "ac must be finite and nonnegative"),
    "ac nan": ("ac", math.nan, "ac must be finite and nonnegative"),
    "ac inf": ("ac", math.inf, "ac must be finite and nonnegative"),
    "negative steps": ("steps", -1.0, "must be finite and nonnegative"),
    "nan steps": ("steps", math.nan, "must be finite and nonnegative"),
}


@pytest.mark.parametrize("rule", sorted(CORRUPTIONS))
@settings(max_examples=10, deadline=None)
@given(drawn=row_lists(), pick=st.integers(0, 10**6))
def test_each_rule_rejects_a_corrupted_row(rule, drawn, pick):
    rows, detectors = drawn
    if not rows or (rule.endswith("steps") and not detectors):
        return
    columns = _columns(minute_table(rows))
    name, value, message = CORRUPTIONS[rule]
    i = pick % len(rows)
    if name == "steps":
        columns[name][i, pick % len(detectors)] = value
    else:
        columns[name][i] = value
    with pytest.raises(ValueError, match=message):
        MinuteTable(**columns, detectors=detectors)


@SETTINGS
@given(drawn=row_lists(), pick=st.integers(0, 10**6))
def test_duplicate_key_rejected(drawn, pick):
    rows, detectors = drawn
    if len(rows) < 2:
        return
    columns = _columns(minute_table(rows))
    i, j = pick % len(rows), (pick // len(rows)) % len(rows)
    if i == j:
        j = (i + 1) % len(rows)
    for name in ("subject", "day", "minute"):
        columns[name][j] = columns[name][i]
    with pytest.raises(ValueError, match="duplicate minute key"):
        MinuteTable(**columns, detectors=detectors)


@SETTINGS
@given(drawn=row_lists(), pick=st.integers(0, 10**6))
def test_parse_error_names_the_line(drawn, pick):
    rows, _ = drawn
    if not rows:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "minutes.csv"
        write_minute_file(minute_table(rows), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        line_no = 2 + pick % len(rows)
        # the numeric columns follow the subject, which may hold a quoted comma
        column = ("day", "minute", "flag", "mims", "ac")[pick % 5]
        fields = lines[line_no - 1].rsplit(",", len(header) - 1)
        fields[header.index(column)] = "spam"
        lines[line_no - 1] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"minutes\.csv:{line_no}: bad"):
            read_minute_file(path)


def test_unknown_wear_label_and_ragged_row_name_the_line(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("subject,day,minute,wear,flag,mims\nS1,1,0,wake,0,1.0\nS1,1,1,afloat,0,1\n")
    with pytest.raises(ValueError, match=r"m\.csv:3: unknown wear label 'afloat'"):
        read_minute_file(path)
    path.write_text("subject,day,minute,wear,flag,mims\nS1,1,0,wake,0,1.0\n\nS1,1,1,wake,0\n")
    with pytest.raises(ValueError, match=r"m\.csv:4: expected 6 fields, got 5"):
        read_minute_file(path)


def test_directory_reads_into_one_table(tmp_path):
    write_minute_file(minute_table([make_minute("A", steps={"a": 1.0})]), tmp_path / "1.csv")
    write_minute_file(minute_table([make_minute("B", steps={"b": 2.0})]), tmp_path / "2.csv")
    table = read_minute_file(tmp_path)
    assert table.subject.tolist() == ["A", "B"]
    assert table.detectors == ("a", "b")
    assert table.steps.tolist() == [[1.0, 0.0], [0.0, 2.0]]
    write_minute_file(minute_table([make_minute("A", wear=WearState.SLEEP_WEAR)]),
                      tmp_path / "3.csv")
    with pytest.raises(ValueError, match="duplicate minute key"):
        read_minute_file(tmp_path)

"""Minute/day/subject validity screening and wear-state bookkeeping.

The screening rules operate on a :class:`MinuteTable`: a valid minute is
unflagged wear (unknown counts as wear), a valid day clears the wear-minute,
wake-minute, and nonzero-MIMS thresholds, and a subject is included with
enough valid days.  Rows are grouped into subject-days in the table's
(subject, day, minute) row order, which each table sorts once, and counted
with ``reduceat``; each day total is an exact ``math.fsum``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .model import (
    MIMS_INVALID,
    AnalysisConfig,
    DaySummary,
    MinuteTable,
    SubjectSummary,
    TRANSITION_STATE_ORDER,
    WEAR_CODE,
    WearState,
)


def impute_unknown_as_wear(table: MinuteTable) -> np.ndarray:
    """Effective-wear mask: unknown minutes count as wear, non-wear does not."""
    return table.wear != WEAR_CODE[WearState.NON_WEAR]


def _totals_by_day(
    table: MinuteTable, rows: np.ndarray, bounds: np.ndarray
) -> list[dict[str, float]]:
    """Exact totals per day: ``rows`` are the valid minutes, day-sorted, and
    day ``i`` is ``rows[bounds[i]:bounds[i + 1]]``.  Each day's values are
    gathered on their own, so the working set is one day."""
    out = []
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        day_rows = rows[lo:hi]
        steps = table.steps[day_rows]
        mims = table.mims[day_rows]
        mims[mims == MIMS_INVALID] = 0.0
        ac = table.ac[day_rows]
        # a memoryview yields Python floats without building a list
        day = {
            f"steps_{name}": math.fsum(steps[:, j].data)
            for j, name in enumerate(table.detectors)
        }
        day["mims"] = math.fsum(mims.data)
        day["ac"] = math.fsum(ac.data)
        # numpy's 1 + v rounds as Python's does; math.log10 is kept for its bits
        day["log10_mims"] = math.fsum(map(math.log10, (1.0 + mims).data))
        day["log10_ac"] = math.fsum(map(math.log10, (1.0 + ac).data))
        out.append(day)
    return out


def summarize_subject(
    day_summaries: Sequence[DaySummary], cfg: AnalysisConfig
) -> SubjectSummary:
    """Average daily totals over valid days and apply the inclusion rule."""
    if not day_summaries:
        raise ValueError("day_summaries must be nonempty")
    subject = day_summaries[0].subject_id
    if any(d.subject_id != subject for d in day_summaries):
        raise ValueError("day_summaries must belong to a single subject")
    valid_days = [d for d in day_summaries if d.valid]
    means: dict[str, float] = {}
    if valid_days:
        keys = sorted(valid_days[0].totals)
        for d in valid_days:
            if sorted(d.totals) != keys:
                raise ValueError("day summaries carry inconsistent total keys")
        for key in keys:
            means[key] = math.fsum(d.totals[key] for d in valid_days) / len(
                valid_days
            )
    return SubjectSummary(
        subject_id=subject,
        n_valid_days=len(valid_days),
        included=len(valid_days) >= cfg.min_valid_days,
        means=means,
    )


def screen_cohort(
    table: MinuteTable, cfg: AnalysisConfig
) -> tuple[dict[str, list[DaySummary]], dict[str, SubjectSummary]]:
    """Screen every subject-day of a minute table, then every subject.

    A day is valid when it has at least ``cfg.min_valid_minutes`` valid
    minutes, ``cfg.min_wake_minutes`` wake-wear minutes, and
    ``cfg.min_nonzero_mims_minutes`` minutes with strictly positive MIMS
    (counted among valid minutes when ``cfg.nonzero_mims_among_valid``).
    Totals accumulate over valid minutes only; the MIMS invalid sentinel
    contributes zero and never counts as nonzero activity.
    """
    if len(table) == 0:
        return {}, {}
    order, subjects, code = table.row_order
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


def exclusion_reason(summary: SubjectSummary, cfg: AnalysisConfig) -> str:
    """Human-readable reason a subject failed screening ('' when included)."""
    if summary.included:
        return ""
    return (
        f"only {summary.n_valid_days} valid day(s); "
        f"need at least {cfg.min_valid_days}"
    )


def unknown_bout_transition_matrix(
    table: MinuteTable,
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Joint distribution of states flanking each maximal unknown bout.

    For every maximal run of consecutive Unknown minutes inside a subject's
    contiguous timeline, the (preceding state, following state) pair is
    tallied; bouts touching a timeline edge or a gap in minute coverage are
    skipped.  Rows index the preceding state and columns the following
    state, both ordered Unknown, NonWear, Sleep, Wake; entries are joint
    proportions summing to 1 when any bouts were found.
    """
    order_index = np.zeros(len(WEAR_CODE), dtype=np.int64)
    for i, state in enumerate(TRANSITION_STATE_ORDER):
        order_index[WEAR_CODE[state]] = i
    counts = np.zeros((4, 4))
    if len(table):
        order, _, code = table.row_order
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

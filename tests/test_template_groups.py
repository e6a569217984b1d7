"""The template detector's per-group greedy cover against the whole cover.

``whole_cover`` below is the cover as it was before it ran per group: every
candidate of the recording sorted once, then accepted greedily.  The
library's ``_GroupCover`` holds candidates as the onset scans return them
and covers each group of overlapping candidates as soon as no later
candidate can join it, so it must book bitwise-equal per-second steps
whatever order the scans return their candidates in.
"""

from __future__ import annotations

import bisect
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stepforge.detectors import _GroupCover, _OnsetScan


def whole_cover(onset, length, corr, n_seconds, rate):
    """Per-second steps, two per accepted stride."""
    counts = np.zeros(n_seconds)
    order = np.lexsort((length, onset, -np.round(corr / 0.01)))
    starts: list[int] = []
    ends: list[int] = []
    for a, L in zip(onset[order].tolist(), length[order].tolist()):
        i = bisect.bisect_right(starts, a)
        if (i and ends[i - 1] > a) or (i < len(starts) and starts[i] < a + L):
            continue
        starts.insert(i, a)
        ends.insert(i, a + L)
        midpoint_second = int((a + L // 2) // rate)
        counts[min(midpoint_second, n_seconds - 1)] += 2.0
    return counts


#: Correlations on both sides of 0.01 quantum edges, so rounding ties are
#: common (0.705 and 0.715 round half to even).
CORRELATIONS = [0.7, 0.7049999, 0.705, 0.71, 0.7149999, 0.715, 0.72, 0.8, 0.95, 1.0]


@st.composite
def scans(draw):
    """Each scan: one stride length and its onsets, increasing, with gaps
    that make strides overlap, touch at one sample (gap = length) or part."""
    out = []
    for _ in range(draw(st.integers(1, 6))):
        L = draw(st.integers(2, 12))
        onset = draw(st.integers(0, 20))
        onsets, corrs = [], []
        for _ in range(draw(st.integers(0, 30))):
            onsets.append(onset)
            corrs.append(draw(st.sampled_from(CORRELATIONS)))
            gap = draw(st.one_of(st.just(L), st.just(L - 1), st.just(L + 1),
                                 st.integers(1, 3 * L), st.integers(20, 60)))
            onset += gap
        out.append((L, np.array(onsets, dtype=np.intp), np.array(corrs)))
    return out


@settings(max_examples=400, deadline=None)
@given(scans(), st.data(), st.sampled_from([1.0, 3.0, 7.5]))
def test_group_cover_matches_the_whole_cover(found, data, rate):
    """The scans return their candidates in chunks, interleaved at random;
    after each chunk the groups close up to the smallest onset any scan has
    still to return, which often equals a group's furthest stride end."""
    onset = np.concatenate([o for _, o, _ in found])
    length = np.concatenate([np.full(len(o), L) for L, o, _ in found])
    corr = np.concatenate([c for _, _, c in found])
    n = int((onset + length).max()) if len(onset) else 1
    n_seconds = int(math.ceil(n / rate))
    want = whole_cover(onset, length, corr, n_seconds, rate)

    strides = np.zeros(n_seconds, dtype=np.uint8)
    cover = _GroupCover(strides, rate)
    returned = [0] * len(found)
    while True:
        left = [i for i, (_, o, _) in enumerate(found) if returned[i] < len(o)]
        if not left:
            break
        i = data.draw(st.sampled_from(left))
        L, o, c = found[i]
        stop = returned[i] + data.draw(st.integers(1, len(o) - returned[i]))
        cover.add(o[returned[i] : stop], L, c[returned[i] : stop])
        returned[i] = stop
        bound = min(
            (int(o[returned[j]]) for j, (_, o, _) in enumerate(found) if returned[j] < len(o)),
            default=math.inf,
        )
        cover.close(bound)
    cover.close(math.inf)
    assert np.multiply(strides, 2.0, dtype=np.float64).tobytes() == want.tobytes()
    assert sum(len(held[0]) for held in cover.runs) == 0


def test_a_closed_group_holds_no_candidates():
    """Two walks apart: once the scans have passed the first walk's last
    stride end, its candidates are covered and dropped."""
    rate = 10.0
    strides = np.zeros(20, dtype=np.uint8)
    cover = _GroupCover(strides, rate)
    first = np.arange(0, 40, 8)
    cover.add(first, 10, np.full(len(first), 0.9))
    cover.close(int(first[-1]) + 9)  # the last stride ends at 42
    assert sum(len(held[0]) for held in cover.runs) == len(first)
    cover.close(42)
    assert sum(len(held[0]) for held in cover.runs) == 0
    assert strides.sum() == 3  # strides at 0, 16 and 32 are accepted
    second = np.arange(100, 140, 8)
    cover.add(second, 10, np.full(len(second), 0.9))
    cover.close(math.inf)
    assert strides.sum() == 6


@settings(max_examples=300, deadline=None)
@given(
    m=st.integers(1, 200),
    half=st.integers(0, 4),
    cuts=st.lists(st.integers(1, 199), max_size=10),
    seed=st.integers(0, 2**16),
)
def test_no_scan_returns_an_onset_below_its_bound(m, half, cuts, seed):
    """Every onset a scan returns after a batch is at or past the
    ``next_onset`` it gave after that batch, which is never more than the
    smoothing's reach behind the next batch's first offset."""
    r = np.random.default_rng(seed).uniform(0.0, 1.0, m)
    scan = _OnsetScan(m, 0.5, half)
    bounds = sorted({c for c in cuts if c < m} | {0, m})
    seen = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        onsets, _ = scan.feed(r[a:b].copy())
        assert all(int(o) >= bound for bound in seen for o in onsets)
        seen.append(scan.next_onset)
        assert scan.next_onset >= b - half - 1 or scan.next_onset == math.inf
    assert scan.next_onset == math.inf

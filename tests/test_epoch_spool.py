"""AC and MIMS epoch sums from the spooled filter against whole buffers.

``whole_buffer_epoch_counts`` and ``whole_buffer_areas`` below are the epoch
sums as they were before the filter's forward pass was spooled to a file:
one rectified float64 buffer per axis, reshaped into epochs (AC) or sliced
into epochs sharing their boundary sample (MIMS).  The library now sums
each epoch as the backward pass returns its blocks, from the end, carrying
the partial epoch and the boundary sample across blocks, so its sums must
be bitwise equal whatever the block and epoch sizes.
"""

from __future__ import annotations

import tempfile
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stepforge import dsp
from stepforge import summaries as sm
from stepforge.model import TriaxialRecording
from tests.test_summaries import front_end_oracle

# ----------------------------------------------------------------- oracles --


def whole_buffer_epoch_counts(axis, rate):
    values = np.abs(front_end_oracle(axis, rate, sm.AC_RESAMPLE_HZ, sm.AC_BAND_HZ))
    values -= sm.AC_DEADBAND_G
    np.maximum(values, 0.0, out=values)
    np.minimum(values, sm.AC_CLIP_G, out=values)
    values /= sm.AC_QUANTUM_G
    np.floor(values, out=values)
    epoch_len = int(round(sm.EPOCH_SECONDS * sm.AC_RESAMPLE_HZ))
    n_epochs = len(values) // epoch_len
    sums = values[: n_epochs * epoch_len].reshape(n_epochs, epoch_len).sum(axis=1)
    return sums.astype(np.int64)


def whole_buffer_areas(axis, rate):
    rectified = np.abs(front_end_oracle(axis, rate, sm.MIMS_INTERP_HZ, sm.MIMS_BAND_HZ))
    dt = 1.0 / sm.MIMS_INTERP_HZ
    epoch_len = int(round(sm.EPOCH_SECONDS * sm.MIMS_INTERP_HZ))
    n_epochs = len(rectified) // epoch_len
    areas = np.empty(n_epochs)
    for e in range(n_epochs):
        seg = rectified[e * epoch_len : (e + 1) * epoch_len + 1]
        areas[e] = np.trapezoid(seg, dx=dt)
    areas[areas < sm.MIMS_TRUNCATION_FLOOR] = 0.0
    return areas


# ------------------------------------------------------------------- tests --


@settings(max_examples=400, deadline=None)
@given(
    n=st.integers(0, 120),
    epoch_len=st.integers(1, 12),
    shared=st.booleans(),
    cuts=st.lists(st.integers(1, 119), max_size=12),
)
def test_segments_are_the_epochs_of_any_blocks(n, epoch_len, shared, cuts):
    """Blocks down to one sample, in reverse order, epochs spanning blocks,
    and series an exact multiple of the epoch, whose last epoch then has no
    boundary sample."""
    values = np.arange(n, dtype=np.float64) + 0.5
    bounds = sorted({c for c in cuts if c < n} | {0, n})
    blocks = [(a, values[a:b]) for a, b in zip(bounds[:-1], bounds[1:]) if b > a][::-1]
    got = [seg.copy() for seg in sm._epoch_segments(iter(blocks), epoch_len, shared)]
    n_epochs = n // epoch_len
    want = [values[e * epoch_len : (e + 1) * epoch_len + shared] for e in range(n_epochs)]
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want[::-1]]


MEASURES = {
    "ac": (sm._axis_epoch_counts, whole_buffer_epoch_counts, sm.AC_RESAMPLE_HZ),
    "mims": (sm._axis_areas, whole_buffer_areas, sm.MIMS_INTERP_HZ),
}


@settings(max_examples=150, deadline=None)
@given(
    measure=st.sampled_from(sorted(MEASURES)),
    rate=st.one_of(st.sampled_from([30.0, 80.0, 100.0]), st.floats(30.0, 100.0)),
    epoch_s=st.sampled_from([0.05, 0.1, 0.3, 1.0, 3.0]),
    whole_epochs=st.integers(1, 40),
    extra=st.one_of(st.just(0), st.integers(0, 60)),
    block=st.sampled_from([1, 3, 8, 64, 1000, dsp.BLOCK_SAMPLES]),
    seed=st.integers(0, 2**32 - 1),
)
def test_axis_epochs_match_the_whole_buffer(
    measure, rate, epoch_s, whole_epochs, extra, block, seed
):
    """Short epochs, so that many span blocks, at native and resampled
    rates; with ``extra`` 0 at the measure's own rate the series is an exact
    multiple of the epoch."""
    streamed, whole, target = MEASURES[measure]
    epoch_len = int(round(epoch_s * target))
    n = int(round((whole_epochs * epoch_len + extra) * rate / target))
    rng = np.random.default_rng(seed)
    t = np.arange(n) / rate
    axis = (0.5 * np.sin(2 * np.pi * rng.uniform(0.3, 3.0) * t)
            + rng.normal(0.0, 0.1, n)).astype(np.float32)
    with mock.patch.object(sm, "EPOCH_SECONDS", epoch_s):
        try:
            want = whole(axis, rate)
        except ValueError as exc:
            want = str(exc)
        with mock.patch.object(dsp, "BLOCK_SAMPLES", block):
            try:
                got = streamed(axis, rate, None)
            except ValueError as exc:
                got = str(exc)
    if isinstance(want, str):
        assert got == want
    else:
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_last_mims_epoch_without_a_boundary_sample():
    """At 100 Hz, 3 whole minutes: the last epoch has 6,000 samples."""
    rng = np.random.default_rng(8)
    axis = rng.normal(0.0, 0.3, 3 * 6000)
    for block in (7, dsp.BLOCK_SAMPLES):
        with mock.patch.object(dsp, "BLOCK_SAMPLES", block):
            got = sm._axis_areas(axis, 100.0, None)
        want = whole_buffer_areas(axis, 100.0)
        assert len(got) == 3 and got.tobytes() == want.tobytes()


def test_each_axis_spools_one_file_in_the_given_directory(tmp_path):
    """One forward-pass spool per axis and measure, each in ``spool_dir``
    and gone afterwards."""
    rng = np.random.default_rng(2)
    rec = TriaxialRecording("R", *(rng.normal(0.0, 0.3, 9000) for _ in range(3)), 80.0)
    made = []
    real = tempfile.TemporaryFile

    def recorded(*args, **kwargs):
        fh = real(*args, **kwargs)
        made.append((kwargs["dir"], fh))
        return fh

    with mock.patch.object(tempfile, "TemporaryFile", recorded):
        sm.activity_counts(rec, spool_dir=tmp_path)
        sm.mims_units(rec, spool_dir=tmp_path)
    assert [directory for directory, _ in made] == [tmp_path] * 6
    assert all(fh.closed for _, fh in made)
    assert list(tmp_path.iterdir()) == []

"""Working-set bounds of the per-recording stages of ``steps`` and of the
minute-file read.

Each bound is the traced allocation peak of one stage, per input sample,
on a fixed 1 h 80 Hz recording: the value measured when the bound was set
plus a margin.  Holding a whole-signal correlation transform, a whole-profile
norm array, or a second axis's filtered arrays again breaks its bound
(measured then: template 48, MIMS 44 and AC 22 bytes per sample, against
86, 64 and 25 with those arrays held).  The minute-file bound is per row,
with small parse blocks so that one block's text counts for little: holding
every parsed block beside the stacked table breaks it (measured then: 157
bytes per row, against 287 with the blocks held).
"""

from __future__ import annotations

import tracemalloc
from unittest import mock

import pytest

from stepforge import ingest
from stepforge.detectors import detect_steps_template
from stepforge.dsp import vector_magnitude
from stepforge.simulate import GaitSegment, gen_cohort, gen_gait
from stepforge.summaries import activity_counts, mims_units


@pytest.fixture(scope="module")
def hour_recording():
    """Six 6-minute walks at 1.6-2.1 Hz, each followed by a 4-minute rest."""
    recipe = []
    for i in range(6):
        recipe.append(
            GaitSegment("walk", 360, cadence_hz=1.6 + 0.1 * i, amplitude_g=0.35,
                        noise_sd_g=0.02)
        )
        recipe.append(GaitSegment("rest", 240, noise_sd_g=0.02))
    rec, _ = gen_gait(recipe, sample_rate_hz=80.0, seed=11)
    assert len(rec) == 288_000
    return rec


def traced_bytes_per_sample(fn, arg, n_samples: int) -> float:
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        fn(arg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (peak - base) / n_samples


def test_template_detector(hour_recording):
    vm = vector_magnitude(hour_recording)
    assert traced_bytes_per_sample(detect_steps_template, vm, len(vm)) <= 56.0


def test_mims(hour_recording):
    assert traced_bytes_per_sample(mims_units, hour_recording, len(hour_recording)) <= 50.0


def test_activity_counts(hour_recording):
    per_sample = traced_bytes_per_sample(activity_counts, hour_recording, len(hour_recording))
    assert per_sample <= 23.5


@pytest.fixture(scope="module")
def minute_file(tmp_path_factory):
    """48 subject-days of minutes with four detectors: 69,120 rows."""
    path = tmp_path_factory.mktemp("minutes") / "minutes.csv"
    ingest.write_minute_file(gen_cohort(16, 3, seed=4), path)
    return path


def test_minute_file_read(minute_file):
    with mock.patch.object(ingest, "_BLOCK_ROWS", 1 << 12):
        ingest.read_minute_file(minute_file)
        per_row = traced_bytes_per_sample(ingest.read_minute_file, minute_file, 69_120)
    assert per_row <= 180.0

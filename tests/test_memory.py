"""Working-set bounds of the per-recording stages of ``steps`` and of the
minute-file read.

Each bound is the traced allocation peak of one stage, per input sample,
on a fixed 1 h 80 Hz recording: the value measured when the bound was set
plus a margin.  The template detector walks the signal in batches and keeps
only its candidates (0.14 per sample on this recording, 24 bytes each) past
a batch; a whole-signal prefix sum, correlation profile or threshold mask
breaks its bound (measured then: 16.3 bytes per sample, against 44.0 with
those arrays held), and its bytes per sample must fall with length (8.1 on
3 h, against 44.0 on both with whole arrays).  The magnitude, MIMS and AC
run in 65,536-sample blocks into one output or one filter buffer per axis;
squaring whole axes, resampling on whole time grids, or filtering a whole
axis with ``scipy.signal.sosfiltfilt`` breaks their bounds (measured then:
20.7, 18.1 and 16.4 bytes per sample, against 33.0, 44.1 and 22.0 with
whole arrays; these bounds include a fixed cost of a few blocks, so a 3 h
recording measured 12.2, 12.7 and 7.5).  The minute-file bound is per row,
with small parse blocks so that one block's text counts for little: holding
every parsed block beside the stacked table breaks it (measured then: 157
bytes per row, against 287 with the blocks held).  The raw read has a ratio:
a 2 h read that keeps no chunk must peak within 10 % of a 1 h read, from
text and from the sidecar (measured then: 17.7 MB and 1.6 MB for both
lengths; reading the whole sidecar payload took 10.4 MB for 1 h and 20.7 MB
for 2 h); and a text read must not hold one block's lines or rows while it
parses the next (measured then: 10.9 MB for 65,536-row blocks, against
16.9 MB with them held).  ``steps`` forms the magnitude after AC and MIMS
and runs the detectors with the recording and its axes released.
"""
from __future__ import annotations

import shutil
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest

from stepforge import cli, detectors, ingest
from stepforge.detectors import detect_steps_template
from stepforge.dsp import vector_magnitude
from stepforge.model import TriaxialRecording
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


def traced_peak_bytes(fn, arg) -> int:
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        fn(arg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - base


def traced_bytes_per_sample(fn, arg, n_samples: int) -> float:
    return traced_peak_bytes(fn, arg) / n_samples


def test_template_detector(hour_recording):
    vm = vector_magnitude(hour_recording)
    assert traced_bytes_per_sample(detect_steps_template, vm, len(vm)) <= 20.0


def test_template_detector_holds_no_whole_recording_array(hour_recording):
    """Past its batches the detector keeps only the candidates, so its bytes
    per sample fall from 1 h to 3 h of the same hour; one whole-recording
    array would keep them level."""
    rec = hour_recording
    three_hours = TriaxialRecording(
        rec.subject_id, *(np.tile(axis, 3) for axis in (rec.x, rec.y, rec.z)),
        rec.sample_rate_hz,
    )
    per_sample = []
    for recording in (rec, three_hours):
        vm = vector_magnitude(recording)
        per_sample.append(traced_bytes_per_sample(detect_steps_template, vm, len(vm)))
    one_hour, three = per_sample
    assert three <= 0.75 * one_hour, per_sample


def test_vector_magnitude(hour_recording):
    n = len(hour_recording)
    assert traced_bytes_per_sample(vector_magnitude, hour_recording, n) <= 23.0


def test_mims(hour_recording):
    assert traced_bytes_per_sample(mims_units, hour_recording, len(hour_recording)) <= 20.0


def test_activity_counts(hour_recording):
    per_sample = traced_bytes_per_sample(activity_counts, hour_recording, len(hour_recording))
    assert per_sample <= 18.0


@pytest.fixture
def walk_raw_dir(tmp_path):
    """A raw directory with one 2-minute walk as ``x,y,z`` text."""
    walk = [GaitSegment("walk", 120, cadence_hz=2.0, amplitude_g=0.35, noise_sd_g=0.02)]
    rec, _ = gen_gait(walk, seed=2, subject_id="W1")
    raw = tmp_path / "raw"
    raw.mkdir()
    with open(raw / "W1.csv", "w", encoding="utf-8") as fh:
        fh.write("x,y,z\n")
        for x, y, z in zip(rec.x.tolist(), rec.y.tolist(), rec.z.tolist()):
            fh.write(f"{x!r},{y!r},{z!r}\n")
    return raw


def test_steps_releases_the_recording_before_the_detectors(
    walk_raw_dir, tmp_path, monkeypatch
):
    """The detectors read only the magnitude, so ``steps`` drops the recording
    and its axes, which AC and MIMS read, before it runs them."""
    raw = walk_raw_dir
    refs = []
    alive = []
    detect = detectors.run_detectors

    def counts(recording):
        refs.extend(weakref.ref(a) for a in (recording, recording.x, recording.y, recording.z))
        return activity_counts(recording)

    def run_detectors(*args, **kwargs):
        alive.append([ref() is not None for ref in refs])
        return detect(*args, **kwargs)

    monkeypatch.setattr(cli, "activity_counts", counts)
    monkeypatch.setattr(detectors, "run_detectors", run_detectors)
    assert cli.main(["steps", str(raw), "--out", str(tmp_path / "out")]) == 0
    assert alive == [[False] * 4]


def test_steps_forms_the_magnitude_after_ac_and_mims(walk_raw_dir, tmp_path, monkeypatch):
    """No stage holds both the axes' filter buffers and the magnitude."""
    calls = []

    def recorded(name):
        stage = getattr(cli, name)

        def run(recording):
            calls.append(name)
            return stage(recording)

        return run

    for name in ("activity_counts", "mims_units", "vector_magnitude"):
        monkeypatch.setattr(cli, name, recorded(name))
    assert cli.main(["steps", str(walk_raw_dir), "--out", str(tmp_path / "out")]) == 0
    assert calls == ["activity_counts", "mims_units", "vector_magnitude"]


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


@pytest.fixture(scope="module")
def raw_files(hour_recording, tmp_path_factory):
    """The hour recording as ``x,y,z`` text, once (1 h) and twice (2 h)."""
    rec = hour_recording
    lines = [
        f"{x:.4f},{y:.4f},{z:.4f}\n"
        for x, y, z in zip(rec.x.tolist(), rec.y.tolist(), rec.z.tolist())
    ]
    paths = []
    for hours in (1, 2):
        path = tmp_path_factory.mktemp(f"raw{hours}h") / "R1.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("x,y,z\n")
            for _ in range(hours):
                fh.writelines(lines)
        paths.append(path)
    return paths


def drain(path) -> None:
    for _ in ingest.read_raw_recording(path, ingest.RawFileSchema()):
        pass


def test_raw_read_holds_one_block(raw_files):
    """A read that keeps no chunk peaks the same for 2 h as for 1 h, from text
    and then from the sidecar the text read wrote."""
    peaks = {}
    for source in ("text", "sidecar"):
        assert [ingest.cache_path(p).exists() for p in raw_files] == [source == "sidecar"] * 2
        peaks[source] = [traced_peak_bytes(drain, path) for path in raw_files]
    for source, (one_hour, two_hours) in peaks.items():
        assert two_hours <= 1.1 * one_hour, peaks


def test_raw_text_read_holds_one_block_at_a_time(raw_files, tmp_path):
    """While a text read parses a block, the previous block's lines, rows and
    float32 axes are already released."""
    one_hour = tmp_path / "R1.csv"
    shutil.copyfile(raw_files[0], one_hour)
    peak = traced_peak_bytes(drain, one_hour)
    assert peak <= 200 * ingest._BLOCK_ROWS, peak

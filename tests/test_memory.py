"""Working-set bounds of the per-recording stages of ``steps`` and of the
minute-file read.

Each bound is the traced allocation peak of one stage, per input sample,
on a fixed 1 h 80 Hz recording: the value measured when the bound was set
plus a margin.  The template detector walks the signal in batches and keeps
only its candidates (0.14 per sample on this recording, 24 bytes each) past
a batch; a whole-signal prefix sum, correlation profile or threshold mask
breaks its bound (measured then: 16.3 bytes per sample, against 44.0 with
those arrays held), and its bytes per sample must fall with length (8.1 on
3 h, against 44.0 on both with whole arrays; 14.9 and 5.2 now that the
cover runs per group of candidates).  The magnitude, MIMS and AC run in
blocks (65,536 samples when their bounds were set, 16,384 now); squaring
whole axes, resampling on whole time grids, or filtering a whole axis with
``scipy.signal.sosfiltfilt`` breaks their bounds (measured then: 20.7, 18.1
and 16.4 bytes per sample, against 33.0, 44.1 and 22.0 with whole arrays;
with 16,384-sample blocks into one float64 filter buffer per axis 11.2, 12.2
and 6.4, and on 3 h 9.1, 10.7 and 4.0; with the filter's forward pass
spooled to a file MIMS and AC take 3.3 and 4.4 on 1 h, 1.1 and 1.1 on
3 h).  The minute-file bound
is per row, with small parse blocks so that one block's text counts for
little: holding every parsed block beside the stacked table breaks it
(measured then: 157 bytes per row, against 287 with the blocks held).  The
raw read has a ratio: a 2 h read that keeps no chunk must peak within 10 %
of a 1 h read, from text and from the sidecar (measured then: 17.7 MB and
1.6 MB for both lengths with 65,536-row blocks; reading the whole sidecar
payload took 10.4 MB for 1 h and 20.7 MB for 2 h).  With 8,192-row blocks a
text read peaks at 1.45 MB, the spool of the text, which also copies the
axis files into the sidecar, at 1.47 MB, and the spool that reads the
sidecar in place, one block slice of each axis at a time, at 42 kB (0.21 MB
when the reader yielded the sidecar in blocks).  A text read must not hold
one block's lines or rows while it parses the next (measured then: 10.9 MB
for 65,536-row blocks, against 16.9 MB with them held; 178 bytes per block
row now).

The ``steps`` worker spools the raw axes and the filter's forward pass to
files and reads them, and the magnitude formed from the axes, in slices;
the peak detector screens one block at a time and the template cover holds
only its open groups of candidates.  So its peak grows only by the
per-second counts of one detector and the per-minute results.  Measured on
80 Hz text: 16.0 bytes per raw sample on 1 h (4.61 MB) and 0.26 bytes per
added raw sample from 1 h to 4 h, against 17.8 and 8.4 when MIMS held a
filter buffer and 44.9 and 17.1 when the worker concatenated the axes and
formed the whole magnitude.  On the hour tiled to one and three days and
read from an SFG1 sidecar it peaks at 4.88 and 5.15 MB (0.02 bytes per
added raw sample).  When the detectors start it holds
49 kB (2.3 MB then, the magnitude), and they read 3.05 magnitude samples per
raw sample, in slices of at most 87,380 samples on 1 h (the peak detector's
resampler block at 15 Hz).
"""
from __future__ import annotations

import shutil
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from stepforge import cli, detectors, ingest
from stepforge.detectors import detect_steps_template
from stepforge.dsp import MagnitudeView, vector_magnitude
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
def hour_lines(hour_recording):
    """The hour recording as ``x,y,z`` text lines."""
    rec = hour_recording
    return [
        f"{x:.4f},{y:.4f},{z:.4f}\n"
        for x, y, z in zip(rec.x.tolist(), rec.y.tolist(), rec.z.tolist())
    ]


def write_hours(path, lines, hours):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y,z\n")
        for _ in range(hours):
            fh.writelines(lines)
    return path


@pytest.fixture(scope="module")
def raw_files(hour_lines, tmp_path_factory):
    """The hour recording as ``x,y,z`` text, once (1 h) and twice (2 h)."""
    return [
        write_hours(tmp_path_factory.mktemp(f"raw{hours}h") / "R1.csv", hour_lines, hours)
        for hours in (1, 2)
    ]


def drain(path) -> None:
    for _ in ingest.read_raw_recording(path, ingest.RawFileSchema()):
        pass


def spool_in_blocks(path) -> None:
    """Spool a raw file and read each axis back in slices of one parse block."""
    with ingest.spool_raw_recording(path, ingest.RawFileSchema(), path.parent) as rec:
        for axis in (rec.x, rec.y, rec.z):
            for start in range(0, len(axis), ingest._BLOCK_ROWS):
                axis[start : start + ingest._BLOCK_ROWS]


def test_raw_read_holds_one_block(raw_files):
    """A read that keeps no chunk peaks the same for 2 h as for 1 h: the text
    read, the spool of the text, which writes the sidecar, and then the spool
    that reads that sidecar in place."""
    peaks = {}
    reads = {"text": drain, "text spool": spool_in_blocks, "sidecar spool": spool_in_blocks}
    for source, read in reads.items():
        cached = [ingest.cache_path(p).exists() for p in raw_files]
        assert cached == [source == "sidecar spool"] * 2
        peaks[source] = [traced_peak_bytes(read, path) for path in raw_files]
    for source, (one_hour, two_hours) in peaks.items():
        assert two_hours <= 1.1 * one_hour, peaks


def test_raw_text_read_holds_one_block_at_a_time(raw_files, tmp_path):
    """While a text read parses a block, the previous block's lines, rows and
    float32 axes are already released."""
    one_hour = tmp_path / "R1.csv"
    shutil.copyfile(raw_files[0], one_hour)
    peak = traced_peak_bytes(drain, one_hour)
    assert peak <= 200 * ingest._BLOCK_ROWS, peak


def run_steps_worker(path, out_dir):
    """``steps``'s per-subject worker on one raw file; returns its timings."""
    _, params = cli.load_config(None, env={})
    subject, timings, error = cli._steps_worker(
        ("R1", str(path), str(out_dir), ingest.RawFileSchema(), params)
    )
    assert error == ""
    return timings


@pytest.fixture(scope="module")
def steps_worker_peaks(hour_lines, tmp_path_factory):
    """Traced peaks of the ``steps`` worker on 1 h and 4 h of 80 Hz text,
    each read from text (no sidecar yet)."""
    peaks = {}
    for hours in (1, 4):
        raw = tmp_path_factory.mktemp(f"steps{hours}h")
        path = write_hours(raw / "R1.csv", hour_lines, hours)
        peaks[hours] = traced_peak_bytes(lambda p: run_steps_worker(p, raw), path)
    return peaks


def test_steps_worker_bytes_per_raw_sample(steps_worker_peaks):
    assert steps_worker_peaks[1] / 288_000 <= 22.0, steps_worker_peaks


def test_steps_worker_grows_by_under_one_byte_per_raw_sample(steps_worker_peaks):
    """From 1 h to 4 h the peak grows by less than one byte per raw sample:
    no stage holds a whole raw axis, filter buffer, magnitude, resampled
    signal or candidate list, only per-second and per-minute results."""
    growth = (steps_worker_peaks[4] - steps_worker_peaks[1]) / (3 * 288_000)
    assert growth <= 1.0, steps_worker_peaks


def write_sidecar_days(raw_dir, rec, days):
    """``rec`` tiled to ``days`` days as the SFG1 sidecar of a stub text, so
    that ``steps`` reads the sidecar in place and parses no text."""
    raw_dir.mkdir()
    path = raw_dir / "R1.csv"
    path.write_text("x,y,z\n0,0,1\n")
    tiles = 24 * days
    with open(ingest.cache_path(path), "wb") as fh:
        fh.write(ingest.CACHE_MAGIC + struct.pack("<I", tiles * len(rec)))
        for axis in (rec.x, rec.y, rec.z):
            data = np.asarray(axis, dtype="<f4").tobytes()
            for _ in range(tiles):
                fh.write(data)
    return path


@pytest.mark.slow
def test_steps_worker_peak_is_flat_from_one_day_to_three(hour_recording, tmp_path):
    """The worker's traced peak on 3 days of the hour recording stays within
    10 % of its peak on 1 day: every stage holds O(block) state, the
    template cover holds only its open groups (the longest walk here is 6
    minutes), and what grows, the per-second counts of one detector at a
    time and the per-minute results, is small beside one batch."""
    peaks = {}
    for days in (1, 3):
        raw = tmp_path / f"days{days}"
        path = write_sidecar_days(raw, hour_recording, days)
        peaks[days] = traced_peak_bytes(lambda p: run_steps_worker(p, raw), path)
    assert peaks[3] <= 1.1 * peaks[1], peaks


@pytest.fixture
def hour_text(raw_files, tmp_path):
    """A fresh copy of the 1 h text, with no sidecar."""
    path = tmp_path / "raw" / "R1.csv"
    path.parent.mkdir()
    shutil.copyfile(raw_files[0], path)
    return path


def test_steps_holds_no_recording_array_when_the_detectors_start(
    hour_text, tmp_path, monkeypatch
):
    """When the detectors start, AC and MIMS are done and nothing of the
    recording is held in memory: no raw axis, no filter buffer, no magnitude.
    One float32 axis alone would be 4 bytes per sample."""
    held = []
    run = detectors.run_detectors

    def run_detectors(*args, **kwargs):
        held.append(tracemalloc.get_traced_memory()[0])
        return run(*args, **kwargs)

    monkeypatch.setattr(detectors, "run_detectors", run_detectors)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        run_steps_worker(hour_text, tmp_path)
    finally:
        tracemalloc.stop()
    assert len(held) == 1
    assert held[0] - base <= 0.25 * 288_000, held[0] - base


def test_steps_reads_the_magnitude_in_slices(hour_text, tmp_path, monkeypatch):
    """AC and MIMS run first; the detectors then read the magnitude in slices
    of a fraction of the recording, each detector about once over, and the
    whole magnitude is never formed."""
    calls = []
    slices = []

    def recorded(module, name):
        stage = getattr(module, name)

        def run(*args, **kwargs):
            calls.append(name)
            return stage(*args, **kwargs)

        monkeypatch.setattr(module, name, run)

    for name in ("activity_counts", "mims_units", "vector_magnitude"):
        recorded(cli, name)
    recorded(detectors, "run_detectors")
    getitem = MagnitudeView.__getitem__

    def sliced(view, key):
        out = getitem(view, key)
        slices.append(len(out))
        return out

    monkeypatch.setattr(MagnitudeView, "__getitem__", sliced)
    run_steps_worker(hour_text, tmp_path)
    assert calls == ["activity_counts", "mims_units", "run_detectors"]
    # three detectors run: the two peak presets share one parameter object
    assert 0 < sum(slices) <= 3.2 * 288_000, sum(slices)
    assert max(slices) <= 0.35 * 288_000, max(slices)

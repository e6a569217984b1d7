"""The spooled recording and the magnitude view against in-memory arrays.

``steps`` spools each raw file to one float32 temporary file per axis, or
reads the three axes of its SFG1 sidecar in place
(``ingest.spool_raw_recording``).  AC and MIMS then read slices of those
axes (``ingest.AxisFile``), and the detectors read slices of the magnitude
formed from them (``dsp.MagnitudeView``).  Every slice, every AC and MIMS
epoch and every detector's per-second steps must equal what the whole
in-memory arrays give, bit for bit, whatever the block sizes.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepforge import cli, detectors, dsp, ingest
from stepforge.dsp import MagnitudeView, vector_magnitude
from stepforge.model import TriaxialRecording
from stepforge.simulate import GaitSegment, gen_gait
from stepforge.summaries import activity_counts, mims_units


def write_text(rec, path, header=True, timestamps=False):
    """``rec`` as comma-separated text: optional header, optional time column."""
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write("t,x,y,z\n" if timestamps else "x,y,z\n")
        for i, (x, y, z) in enumerate(zip(rec.x.tolist(), rec.y.tolist(), rec.z.tolist())):
            prefix = f"{i / rec.sample_rate_hz!r}," if timestamps else ""
            fh.write(f"{prefix}{x!r},{y!r},{z!r}\n")


def read_whole(path, schema):
    """The recording as whole float32 arrays, concatenated from the reader."""
    chunks = list(ingest.read_raw_recording(path, schema))
    x, y, z = (np.concatenate([getattr(c, a) for c in chunks]) for a in "xyz")
    return TriaxialRecording("R", x, y, z, schema.sample_rate_hz)


SLICE_BOUNDS = st.one_of(st.none(), st.integers(-3100, 3100))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 3000),
    block=st.sampled_from([1, 2, 7, 1000, dsp.BLOCK_SAMPLES]),
    bounds=st.lists(st.tuples(SLICE_BOUNDS, SLICE_BOUNDS), min_size=1, max_size=8),
    head=st.one_of(st.none(), st.integers(1, 16)),
    seed=st.integers(0, 2**32 - 1),
)
def test_slices_equal_the_arrays(n, block, bounds, head, seed):
    """Random slices, empty ones and ones clamped at the end included, of
    each axis file and of the magnitude view over them.  The axes are three
    files, or with ``head`` one shared file after ``head`` bytes, each axis
    at its byte offset, as in a sidecar."""
    rng = np.random.default_rng(seed)
    axes = [rng.normal(0.0, 1.5, n).astype("<f4") for _ in range(3)]
    rec = TriaxialRecording("R", *axes, 80.0)
    whole = vector_magnitude(rec).values
    with ExitStack() as stack:
        if head is None:
            files = [stack.enter_context(tempfile.TemporaryFile()) for _ in axes]
            offsets = [0, 0, 0]
        else:
            files = [stack.enter_context(tempfile.TemporaryFile())] * 3
            files[0].write(rng.bytes(head))
            offsets = [head + 4 * n * i for i in range(3)]
        for fh, axis in zip(files, axes):
            fh.write(axis)
            fh.flush()
        spooled = ingest.SpooledRecording(
            *(ingest.AxisFile(fh, n, offset) for fh, offset in zip(files, offsets)), 80.0
        )
        view = MagnitudeView(spooled)
        assert len(spooled) == len(view) == n
        assert view.values is view
        with mock.patch.object(dsp, "BLOCK_SAMPLES", block):
            for a, b in [(0, 0), (n, n + 5), (n - 1, None), *bounds]:
                for got_axis, axis in zip((spooled.x, spooled.y, spooled.z), axes):
                    got = got_axis[a:b]
                    assert got.dtype == axis.dtype
                    assert got.tobytes() == axis[a:b].tobytes()
                got = view[a:b]
                assert got.dtype == np.float64
                assert got.tobytes() == whole[a:b].tobytes()


def test_slices_must_be_contiguous(tmp_path):
    rec, _ = gen_gait([GaitSegment("rest", 2)], seed=1)
    path = tmp_path / "R.csv"
    write_text(rec, path)
    with ingest.spool_raw_recording(path, ingest.RawFileSchema(), tmp_path) as spooled:
        with pytest.raises(ValueError, match="contiguous"):
            spooled.x[::2]
        with pytest.raises(ValueError, match="contiguous"):
            MagnitudeView(spooled)[::-1]


RATES = st.sampled_from([15.0, 30.0, 47.5, 80.0, 100.0])


@settings(max_examples=12, deadline=None)
@given(
    rate=RATES,
    seconds=st.integers(70, 150),
    cadence=st.floats(1.5, 2.3),
    block=st.sampled_from([3, 700]),
    rows=st.sampled_from([5, 1000]),
    batch=st.sampled_from([1, 5000]),
    seed=st.integers(0, 2**16),
)
def test_summaries_and_detectors_equal_on_views(
    rate, seconds, cadence, block, rows, batch, seed
):
    """AC, MIMS and every built-in detector on the spooled recording and its
    magnitude view, with small blocks, small parse blocks and small template
    batches, against the whole arrays with the default sizes."""
    recipe = [
        GaitSegment("rest", 20, noise_sd_g=0.02),
        GaitSegment("walk", seconds - 20, cadence_hz=cadence, amplitude_g=0.35,
                    noise_sd_g=0.02),
    ]
    rec, _ = gen_gait(recipe, sample_rate_hz=rate, seed=seed)
    _, params = cli.load_config(None, env={})
    schema = ingest.RawFileSchema(sample_rate_hz=rate, has_header=False)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "R.csv"
        write_text(rec, path, header=False)
        whole = read_whole(path, schema)
        vm = vector_magnitude(whole)
        want = [activity_counts(whole), mims_units(whole)]
        want += [detectors.detect(vm, p, name).steps_per_second for name, p in params.items()]
        with ExitStack() as stack:
            stack.enter_context(mock.patch.object(dsp, "BLOCK_SAMPLES", block))
            stack.enter_context(mock.patch.object(ingest, "_BLOCK_ROWS", rows))
            stack.enter_context(
                mock.patch.object(detectors, "CORRELATION_BATCH_SAMPLES", batch)
            )
            spooled = stack.enter_context(ingest.spool_raw_recording(path, schema, tmp))
            view = MagnitudeView(spooled)
            got = [activity_counts(spooled), mims_units(spooled)]
            got += [
                detectors.detect(view, p, name).steps_per_second
                for name, p in params.items()
            ]
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


def test_every_layout_takes_the_spool(tmp_path, monkeypatch):
    """Text with a header, headerless text and timestamped text each go
    through three temporary files in the output directory, none in the raw
    directory, holding 12 bytes per sample together and gone afterwards; the
    second header run reads the sidecar in place and makes none.  On every
    run the AC and MIMS filters then spool their forward passes to six more
    temporary files in the output directory, one per axis.  Every run gives
    the same minute file."""
    rec, _ = gen_gait(
        [GaitSegment("walk", 90, cadence_hz=2.0, amplitude_g=0.35, noise_sd_g=0.02)],
        seed=4,
    )
    made, sizes = [], []
    real = tempfile.TemporaryFile

    def recorded(*args, **kwargs):
        fh = real(*args, **kwargs)
        made.append((Path(kwargs["dir"]), fh))
        return fh

    counts = cli.activity_counts

    def activity_counts(spooled, **kwargs):
        sizes.append(sum(os.fstat(fh.fileno()).st_size for _, fh in made))
        return counts(spooled, **kwargs)

    monkeypatch.setattr(tempfile, "TemporaryFile", recorded)
    monkeypatch.setattr(cli, "activity_counts", activity_counts)
    layouts = {
        "header": ((), {}),
        "sidecar": ((), {}),
        "no_header": (("--no-header",), {"header": False}),
        "timestamp": (("--has-timestamp",), {"timestamps": True}),
    }
    minute_files = []
    for layout, (flags, text) in layouts.items():
        raw = tmp_path / ("header" if layout == "sidecar" else layout)
        if layout != "sidecar":
            raw.mkdir()
            write_text(rec, raw / "R1.csv", **text)
        out = tmp_path / f"out_{layout}"
        made.clear()
        sizes.clear()
        assert cli.main(["steps", str(raw), "--out", str(out), *flags]) == 0
        dirs = [directory for directory, _ in made]
        axis_files = [] if layout == "sidecar" else [out] * 3
        assert dirs == axis_files + [out] * 6, (layout, dirs)
        assert sizes == [12 * len(rec) if axis_files else 0], (layout, sizes)
        assert sorted(p.name for p in out.iterdir()) == ["R1_minutes.csv"]
        minute_files.append((out / "R1_minutes.csv").read_bytes())
    assert sorted(p.name for p in (tmp_path / "header").iterdir()) == ["R1.csv", "R1.csv.sfg1"]
    assert all(data == minute_files[0] for data in minute_files)


@pytest.mark.parametrize("block", [7, 900, dsp.BLOCK_SAMPLES])
def test_spectral_windows_equal_on_the_view(block, tmp_path, monkeypatch):
    """The spectral detector reads the view's windows in groups of about a
    block; every window it screens holds the array's samples."""
    rec, _ = gen_gait(
        [GaitSegment("walk", 200, cadence_hz=1.8, amplitude_g=0.35, noise_sd_g=0.02)],
        seed=6,
    )
    path = tmp_path / "R.csv"
    write_text(rec, path)
    windows = []
    cadences = detectors._window_cadences

    def recorded(group, *args):
        windows.extend(row.tobytes() for row in group)
        return cadences(group, *args)

    monkeypatch.setattr(detectors, "_window_cadences", recorded)
    params = detectors.SpectralParams()
    schema = ingest.RawFileSchema()
    detectors.detect_steps_spectral(vector_magnitude(read_whole(path, schema)), params)
    want, windows[:] = windows[:], []
    monkeypatch.setattr(dsp, "BLOCK_SAMPLES", block)
    with ingest.spool_raw_recording(path, schema, tmp_path) as spooled:
        detectors.detect_steps_spectral(MagnitudeView(spooled), params)
    assert len(want) == 20
    assert windows == want

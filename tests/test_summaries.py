import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal

from stepforge import dsp
from stepforge.dsp import UniformSeries, butterworth_bandpass, resample_linear
from stepforge.model import MinuteTable, TriaxialRecording, make_config
from stepforge import summaries as sm
from stepforge.summaries import activity_counts, mims_units
from stepforge.validity import screen_cohort
from tests.conftest import make_minute, minute_table


def recording(x, y, z, rate=30.0, subject="S1"):
    return TriaxialRecording(
        subject_id=subject,
        sample_rate_hz=rate,
        x=np.asarray(x, dtype=np.float64),
        y=np.asarray(y, dtype=np.float64),
        z=np.asarray(z, dtype=np.float64),
    )


def sine_recording(amplitude, freq_hz, seconds, rate):
    """Sine on x, quiet y, gravity on z."""
    t = np.arange(int(seconds * rate)) / rate
    return recording(
        amplitude * np.sin(2 * np.pi * freq_hz * t), np.zeros_like(t), np.ones_like(t),
        rate=rate,
    )


def front_end_oracle(axis, rate, target, band):
    """One axis resampled and band-passed over whole arrays, with no blocks.

    ``np.interp`` on the whole time grids and ``scipy.signal.sosfiltfilt``,
    which hold every intermediate array at once.
    """
    values = np.asarray(axis, dtype=np.float64)
    if rate != target:
        n_out = max(1, int(round(len(values) * target / rate)))
        values = np.interp(
            np.arange(n_out) / target, np.arange(len(values)) / rate, values
        )
    sos = signal.butter(4, list(band), btype="bandpass", output="sos", fs=target)
    return signal.sosfiltfilt(sos, values)


def ac_oracle(rec):
    """Sample-by-sample reimplementation of the count pipeline in plain Python.

    The front end is :func:`front_end_oracle`; the rectify/deadband/clip/
    quantize/sum/combine stages are written out longhand.
    """
    epoch_len = int(round(sm.EPOCH_SECONDS * sm.AC_RESAMPLE_HZ))
    per_axis = []
    for axis in (rec.x, rec.y, rec.z):
        filtered = front_end_oracle(
            axis, rec.sample_rate_hz, sm.AC_RESAMPLE_HZ, sm.AC_BAND_HZ
        )
        quanta = []
        for v in filtered:
            r = abs(float(v))
            d = r - sm.AC_DEADBAND_G if r > sm.AC_DEADBAND_G else 0.0
            c = d if d < sm.AC_CLIP_G else sm.AC_CLIP_G
            quanta.append(math.floor(c / sm.AC_QUANTUM_G))
        n_epochs = len(quanta) // epoch_len
        per_axis.append(
            [sum(quanta[e * epoch_len : (e + 1) * epoch_len]) for e in range(n_epochs)]
        )
    n_epochs = min(len(a) for a in per_axis)
    out = []
    for e in range(n_epochs):
        out.append(int(np.rint(math.sqrt(sum(a[e] ** 2 for a in per_axis)))))
    return np.asarray(out, dtype=np.int64)


def mims_oracle(rec):
    """Trapezoid quadrature written out with fsum after :func:`front_end_oracle`."""
    epoch_len = int(round(sm.EPOCH_SECONDS * sm.MIMS_INTERP_HZ))
    dt = 1.0 / sm.MIMS_INTERP_HZ
    per_axis = []
    for axis in (rec.x, rec.y, rec.z):
        filtered = front_end_oracle(
            axis, rec.sample_rate_hz, sm.MIMS_INTERP_HZ, sm.MIMS_BAND_HZ
        )
        r = [abs(float(v)) for v in filtered]
        n_epochs = len(r) // epoch_len
        areas = []
        for e in range(n_epochs):
            seg = r[e * epoch_len : (e + 1) * epoch_len + 1]
            area = math.fsum(
                (seg[i] + seg[i + 1]) * 0.5 * dt for i in range(len(seg) - 1)
            )
            areas.append(0.0 if area < sm.MIMS_TRUNCATION_FLOOR else area)
        per_axis.append(areas)
    n_epochs = min(len(a) for a in per_axis)
    return np.array([math.fsum(a[e] for a in per_axis) for e in range(n_epochs)])


def band_passed(axis, rate, target, band):
    """The rectified front end of ``summaries``, its blocks put back together."""
    out = None
    for start, block in dsp.resampled_bandpass(axis, rate, target, *band):
        if out is None:
            out = np.empty(start + len(block))
        out[start : start + len(block)] = np.abs(block)
    return out


def outcome(fn, *args):
    """The result of ``fn``, or the type and text of what it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def assert_same_outcome(got, want):
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# Draws block sizes down to one sample, rates of 30-100 Hz with both targets
# among them, and lengths from too short for the filter's pad (27 samples at
# the target rate) to many blocks.
BLOCKS = st.sampled_from([1, 2, 3, 5, 8, 64, 1000, dsp.BLOCK_SAMPLES])
RATES = st.one_of(
    st.sampled_from([sm.AC_RESAMPLE_HZ, sm.MIMS_INTERP_HZ, 80.0]),
    st.floats(30.0, 100.0, allow_nan=False),
)
LENGTHS = st.one_of(st.integers(1, 40), st.integers(28, 4000))


class TestBlockwiseFrontEnd:
    """The block-wise resampler and zero-phase filter against whole-array oracles."""

    @settings(max_examples=150, deadline=None)
    @given(BLOCKS, RATES, LENGTHS, st.sampled_from(["ac", "mims"]),
           st.sampled_from([np.float32, np.float64]), st.integers(0, 2**32 - 1))
    def test_band_passed_axis_is_bit_identical(self, block, rate, n, measure, dtype, seed):
        target, band = {
            "ac": (sm.AC_RESAMPLE_HZ, sm.AC_BAND_HZ),
            "mims": (sm.MIMS_INTERP_HZ, sm.MIMS_BAND_HZ),
        }[measure]
        axis = np.random.default_rng(seed).normal(0.0, 0.5, n).astype(dtype)
        want = outcome(front_end_oracle, axis, rate, target, band)
        if not isinstance(want, str):
            want = np.abs(want)
        with mock.patch.object(dsp, "BLOCK_SAMPLES", block):
            got = outcome(band_passed, axis, rate, target, band)
        assert_same_outcome(got, want)

    @settings(max_examples=100, deadline=None)
    @given(BLOCKS, RATES, RATES, st.integers(1, 3000), st.integers(0, 2**32 - 1))
    def test_resampler_is_bit_identical(self, block, rate, target, n, seed):
        values = np.random.default_rng(seed).normal(size=n)
        n_out = max(1, int(round(n * target / rate)))
        want = np.interp(np.arange(n_out) / target, np.arange(n) / rate, values)
        with mock.patch.object(dsp, "BLOCK_SAMPLES", block):
            got = resample_linear(UniformSeries(rate, values), target).values
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(BLOCKS, st.sampled_from([(30.0, sm.AC_BAND_HZ), (100.0, sm.MIMS_BAND_HZ)]),
           LENGTHS, st.integers(0, 2**32 - 1))
    def test_filter_is_bit_identical(self, block, rate_band, n, seed):
        rate, band = rate_band
        values = np.random.default_rng(seed).normal(size=n)
        sos = signal.butter(4, list(band), btype="bandpass", output="sos", fs=rate)
        want = outcome(signal.sosfiltfilt, sos, values)
        with mock.patch.object(dsp, "BLOCK_SAMPLES", block):
            got = outcome(
                lambda: butterworth_bandpass(UniformSeries(rate, values), *band).values
            )
        assert_same_outcome(got, want)

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from([1, 7, 1000]), st.sampled_from([30.0, 47.5, 80.0, 100.0]),
           st.integers(60, 150), st.integers(0, 2**32 - 1))
    def test_activity_counts_match_the_oracle(self, block, rate, seconds, seed):
        rng = np.random.default_rng(seed)
        n = int(seconds * rate)
        t = np.arange(n) / rate
        x = 0.4 * np.sin(2 * np.pi * rng.uniform(0.5, 2.5) * t) + rng.normal(0, 0.05, n)
        rec = recording(x, rng.normal(0, 0.1, n), np.ones(n), rate=rate)
        with mock.patch.object(dsp, "BLOCK_SAMPLES", block):
            got = activity_counts(rec)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, ac_oracle(rec))

    def test_seams_of_the_default_block(self):
        """Lengths at and past one and two default blocks, for both filters."""
        rng = np.random.default_rng(3)
        block = dsp.BLOCK_SAMPLES
        for n in (block - 1, block, block + 1, 2 * block + 1, 123_457):
            values = rng.normal(size=n)
            for rate, band in ((30.0, sm.AC_BAND_HZ), (100.0, sm.MIMS_BAND_HZ)):
                sos = signal.butter(4, list(band), btype="bandpass", output="sos", fs=rate)
                got = butterworth_bandpass(UniformSeries(rate, values), *band).values
                assert got.tobytes() == signal.sosfiltfilt(sos, values).tobytes()
            got = band_passed(values.astype(np.float32), 80.0, 100.0, sm.MIMS_BAND_HZ)
            want = np.abs(front_end_oracle(values.astype(np.float32), 80.0, 100.0,
                                           sm.MIMS_BAND_HZ))
            assert got.tobytes() == want.tobytes()


class TestActivityCounts:
    def test_static_posture_is_zero(self):
        n = 3 * 60 * 30
        rec = recording(np.zeros(n), np.zeros(n), np.ones(n))
        np.testing.assert_array_equal(activity_counts(rec), [0, 0, 0])

    def test_below_deadband_is_zero(self):
        rec = sine_recording(0.05, 1.0, seconds=120, rate=30.0)
        assert activity_counts(rec).sum() == 0

    def test_matches_longhand_oracle_native_rate(self):
        rec = sine_recording(0.5, 1.0, seconds=180, rate=30.0)
        got = activity_counts(rec)
        np.testing.assert_array_equal(got, ac_oracle(rec))
        assert got.min() > 0

    def test_matches_longhand_oracle_with_resampling(self):
        rng = np.random.default_rng(7)
        t = np.arange(80 * 180) / 80.0
        x = 0.4 * np.sin(2 * np.pi * 1.3 * t) + 0.02 * rng.normal(size=t.size)
        y = 0.2 * np.sin(2 * np.pi * 0.7 * t + 0.5)
        rec = recording(x, y, np.ones_like(t), rate=80.0)
        np.testing.assert_array_equal(activity_counts(rec), ac_oracle(rec))

    def test_trailing_rest_under_one_epoch_is_dropped_exactly(self):
        rate = 30.0
        t = np.arange(int(150 * rate)) / rate
        x = np.concatenate([0.5 * np.sin(2 * np.pi * 1.0 * t), np.zeros(int(30 * rate))])
        base = recording(x, np.zeros_like(x), np.ones_like(x))
        padded = recording(
            np.concatenate([x, np.zeros(int(59 * rate))]),
            np.zeros(int(239 * rate)),
            np.ones(int(239 * rate)),
        )
        np.testing.assert_array_equal(activity_counts(base), activity_counts(padded))

    def test_partial_epoch_truncated(self):
        rec = sine_recording(0.5, 1.0, seconds=150, rate=30.0)
        assert len(activity_counts(rec)) == 2


class TestMims:
    def test_static_posture_below_microunit(self):
        n = 3 * 60 * 100
        rec = recording(0.2 * np.ones(n), np.zeros(n), np.ones(n), rate=100.0)
        out = mims_units(rec)
        assert np.all(out < 1e-6)

    def test_doubling_input_doubles_output(self):
        rec = sine_recording(0.3, 1.0, seconds=120, rate=80.0)
        doubled = recording(2 * rec.x, 2 * rec.y, 2 * rec.z, rate=80.0)
        a, b = mims_units(rec), mims_units(doubled)
        np.testing.assert_allclose(b, 2 * a, rtol=1e-6)

    def test_scale_covariance(self):
        rec = sine_recording(0.3, 1.0, seconds=120, rate=80.0)
        alpha = 3.7
        scaled = recording(alpha * rec.x, alpha * rec.y, alpha * rec.z, rate=80.0)
        np.testing.assert_allclose(mims_units(scaled), alpha * mims_units(rec), rtol=1e-9)

    def test_matches_quadrature_oracle(self):
        rec = sine_recording(0.3, 1.0, seconds=120, rate=80.0)
        got = mims_units(rec)
        np.testing.assert_allclose(got, mims_oracle(rec), rtol=1e-6)
        assert got.min() > 1.0

    def test_oracle_agreement_on_mixed_motion(self):
        rng = np.random.default_rng(11)
        t = np.arange(100 * 180) / 100.0
        x = 0.25 * np.sin(2 * np.pi * 2.0 * t) + 0.05 * rng.normal(size=t.size)
        y = 0.1 * np.sin(2 * np.pi * 0.5 * t)
        rec = recording(x, y, np.ones_like(t), rate=100.0)
        np.testing.assert_allclose(mims_units(rec), mims_oracle(rec), rtol=1e-6)

    def test_tiny_areas_truncate_to_zero(self):
        rec = sine_recording(1e-7, 1.0, seconds=120, rate=100.0)
        np.testing.assert_array_equal(mims_units(rec), [0.0, 0.0])


def day_totals(table):
    """Screening day totals of a table, every minute valid, keyed by subject."""
    cfg = make_config({"min_valid_minutes": 1, "min_wake_minutes": 0,
                       "min_nonzero_mims_minutes": 0})
    days, _ = screen_cohort(table, cfg)
    return {subject: d[0].totals for subject, d in days.items()}


class TestLog10Plus1:
    """The log10(1 + x) transform of the screening day totals."""

    def test_anchor_points(self):
        rows = [make_minute(f"S{i}", mims=m, ac=a)
                for i, (m, a) in enumerate([(0.0, 0), (9.0, 99)])]
        totals = day_totals(minute_table(rows))
        assert totals["S0"]["log10_mims"] == 0.0
        assert totals["S0"]["log10_ac"] == 0.0
        assert totals["S1"]["log10_mims"] == pytest.approx(1.0)
        assert totals["S1"]["log10_ac"] == pytest.approx(2.0)

    def test_monotone_on_arrays(self):
        x = np.linspace(0, 50, 101)
        rows = [make_minute(f"S{i:03d}", mims=float(v)) for i, v in enumerate(x)]
        totals = day_totals(minute_table(rows))
        out = np.array([totals[f"S{i:03d}"]["log10_mims"] for i in range(len(x))])
        assert out.shape == x.shape
        assert np.all(np.diff(out) > 0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            minute_table([make_minute(ac=-0.1)])

    def test_scalar_returns_float(self):
        totals = day_totals(minute_table([make_minute(mims=3.0, ac=3)]))
        assert type(totals["S1"]["log10_mims"]) is float
        assert type(totals["S1"]["log10_ac"]) is float


class TestAttachMinuteSummaries:
    """Per-minute AC, MIMS and step arrays become the columns of one table."""

    def test_merges_all_channels(self):
        ac = np.array([1, 2, 3])
        mims = np.array([0.5, 3.2, 0.0])
        steps = {"spectral": np.ones(3), "peak_original": np.array([10.0, 0.0, 5.0])}
        names = tuple(sorted(steps))
        out = MinuteTable(
            subject=["S1"] * 3, day=[1] * 3, minute=[0, 1, 2], wear=[0] * 3,
            flag=[False] * 3, mims=mims, ac=ac,
            steps=np.column_stack([steps[n] for n in names]), detectors=names,
        )
        assert out.ac.tolist() == [1.0, 2.0, 3.0]
        assert out.mims[1] == 3.2
        assert out.detectors == ("peak_original", "spectral")
        assert out.steps[0].tolist() == [10.0, 1.0]
        assert day_totals(out)["S1"]["log10_mims"] == pytest.approx(
            math.log10(1.5) + math.log10(4.2)
        )
        # inputs untouched
        assert ac.dtype == np.int64 and ac.tolist() == [1, 2, 3]

    def test_length_mismatch_is_an_error(self):
        def table(ac=np.zeros(3), steps=np.zeros((3, 1))):
            return MinuteTable(["S1"] * 3, [1] * 3, [0, 1, 2], [0] * 3, [False] * 3,
                               np.zeros(3), ac, steps, ("x",))

        table()
        with pytest.raises(ValueError, match="for 3 minutes"):
            table(ac=np.array([1, 2]))
        with pytest.raises(ValueError, match="for 3 minutes"):
            table(steps=np.zeros((4, 1)))

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepforge import dsp
from stepforge.dsp import (
    UniformSeries,
    butterworth_bandpass,
    power_spectrum,
    resample_linear,
    sliding_windows,
    vector_magnitude,
)
from stepforge.model import TriaxialRecording

# Zeros, ties, subnormals and magnitudes whose squares round differently
# in different orders of addition, per input dtype.
AXIS_VALUES = {
    np.float64: st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 5e-324, 1e-310, 1e-160, 3.0, 1e150]),
        st.floats(-8.0, 8.0),
        st.floats(-1e150, 1e150),
    ),
    np.float32: st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 1e-45, 1e-40, 3.0, 3e38]),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
    ),
}


def sine(freq_hz, rate_hz, seconds, amplitude=1.0, phase=0.0):
    t = np.arange(int(seconds * rate_hz)) / rate_hz
    return amplitude * np.sin(2 * np.pi * freq_hz * t + phase)


def fitted_amplitude(values, freq_hz, rate_hz):
    """Least-squares amplitude of a sinusoid at a known frequency."""
    t = np.arange(len(values)) / rate_hz
    design = np.column_stack(
        [np.sin(2 * np.pi * freq_hz * t), np.cos(2 * np.pi * freq_hz * t)]
    )
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    return float(np.hypot(*coef))


class TestUniformSeries:
    def test_validation(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            UniformSeries(10.0, np.zeros((2, 2)))
        with pytest.raises(ValueError, match="positive"):
            UniformSeries(0.0, np.zeros(4))
        with pytest.raises(ValueError, match="finite"):
            UniformSeries(10.0, np.array([1.0, np.inf]))

    def test_duration(self):
        s = UniformSeries(80.0, np.zeros(160))
        assert s.duration_seconds == 2.0 and len(s) == 160


class TestVectorMagnitude:
    def test_pythagorean_triple(self):
        rec = TriaxialRecording("s", [3.0], [4.0], [0.0], 80.0)
        vm = vector_magnitude(rec)
        assert vm.values[0] == 5.0
        assert vm.sample_rate_hz == 80.0

    def test_axis_permutation_and_sign_invariance(self):
        rng = np.random.default_rng(0)
        x, y, z = rng.normal(size=(3, 50))
        base = vector_magnitude(TriaxialRecording("s", x, y, z)).values
        permuted = vector_magnitude(TriaxialRecording("s", z, -x, y)).values
        np.testing.assert_array_equal(base, permuted)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(AXIS_VALUES, key=str)), st.integers(1, 8), st.data())
    def test_bitwise_equal_to_sorted_sum_in_every_axis_order(self, dtype, block, data):
        values = AXIS_VALUES[dtype]
        rows = data.draw(st.lists(st.tuples(values, values, values), max_size=40))
        axes = np.array(rows, dtype=dtype).reshape(-1, 3).T
        for order in itertools.permutations(range(3)):
            x, y, z = (axes[i] for i in order)
            with mock.patch.object(dsp, "BLOCK_SAMPLES", block):
                got = vector_magnitude(TriaxialRecording("s", x, y, z, 40.0)).values
            x, y, z = (v.astype(np.float64) for v in (x, y, z))
            squares = np.sort(np.stack([x * x, y * y, z * z]), axis=0)
            want = np.sqrt(squares[0] + squares[1] + squares[2])
            assert got.tobytes() == want.tobytes()


class TestResampleLinear:
    def test_identity_rate(self):
        s = UniformSeries(10.0, np.arange(5.0))
        out = resample_linear(s, 10.0)
        np.testing.assert_array_equal(out.values, s.values)

    def test_constant_preserved(self):
        s = UniformSeries(80.0, np.full(800, 0.7))
        out = resample_linear(s, 15.0)
        np.testing.assert_allclose(out.values, 0.7, atol=1e-12)

    def test_sine_80_to_15(self):
        s = UniformSeries(80.0, sine(1.0, 80.0, 10))
        out = resample_linear(s, 15.0)
        t = np.arange(len(out)) / 15.0
        assert np.max(np.abs(out.values - np.sin(2 * np.pi * t))) < 0.01

    def test_duration_within_one_sample(self):
        s = UniformSeries(80.0, np.zeros(801))
        out = resample_linear(s, 30.0)
        assert abs(out.duration_seconds - s.duration_seconds) <= 1.0 / 30.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            resample_linear(UniformSeries(10.0, np.zeros(0)), 5.0)


class TestButterworthBandpass:
    def test_dc_rejection(self):
        s = UniformSeries(30.0, np.full(3000, 1.0))
        out = butterworth_bandpass(s, 0.25, 2.5)
        assert np.max(np.abs(out.values)) < 1e-6

    def test_band_center_gain(self):
        center = math.sqrt(0.25 * 2.5)
        s = UniformSeries(30.0, sine(center, 30.0, 120))
        out = butterworth_bandpass(s, 0.25, 2.5)
        ratio = fitted_amplitude(out.values[900:-900], center, 30.0)
        assert 0.9 <= ratio <= 1.0 + 1e-9

    def test_stopband_attenuation(self):
        s = UniformSeries(80.0, sine(25.0, 80.0, 30))
        out = butterworth_bandpass(s, 0.25, 2.5)
        ratio = fitted_amplitude(out.values[600:-600], 25.0, 80.0)
        assert ratio < 0.1

    def test_linearity(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=600)
        b = rng.normal(size=600)
        def f(v):
            return butterworth_bandpass(UniformSeries(30.0, v), 0.25, 2.5).values
        combined = f(2.0 * a + 3.0 * b)
        parts = 2.0 * f(a) + 3.0 * f(b)
        np.testing.assert_allclose(combined, parts, rtol=1e-9, atol=1e-12)

    def test_band_validation(self):
        s = UniformSeries(30.0, np.zeros(100))
        with pytest.raises(ValueError, match="band edges"):
            butterworth_bandpass(s, 0.25, 16.0)


class TestPowerSpectrum:
    def test_pure_sine_bin(self):
        s = UniformSeries(15.0, sine(2.0, 15.0, 10))
        freqs, power = power_spectrum(s)
        assert freqs[np.argmax(power)] == pytest.approx(2.0)

    def test_parseval(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=256)
        s = UniformSeries(15.0, v)
        _, power = power_spectrum(s)
        var = np.mean((v - v.mean()) ** 2)
        assert math.fsum(power) == pytest.approx(var, rel=1e-9)

    def test_two_tone_dominance(self):
        v = sine(1.5, 15.0, 20, amplitude=1.0) + sine(3.0, 15.0, 20, amplitude=0.2)
        freqs, power = power_spectrum(UniformSeries(15.0, v))
        assert freqs[np.argmax(power)] == pytest.approx(1.5)

    def test_time_shift_invariance(self):
        v = sine(1.5, 15.0, 20)
        _, p0 = power_spectrum(UniformSeries(15.0, v))
        shifted = np.roll(v, 37)
        _, p1 = power_spectrum(UniformSeries(15.0, shifted))
        np.testing.assert_allclose(p0, p1, rtol=1e-9, atol=1e-12)

    def test_short_window_rejected(self):
        with pytest.raises(ValueError, match="window too short"):
            power_spectrum(UniformSeries(15.0, np.zeros(7)))


class TestSlidingWindows:
    @pytest.mark.parametrize(
        "n,w,h,expect", [(100, 100, 100, 1), (99, 100, 100, 0), (1000, 100, 50, 19)]
    )
    def test_counts(self, n, w, h, expect):
        s = UniformSeries(1.0, np.zeros(n))
        windows = list(sliding_windows(s, w, h))
        assert len(windows) == expect

    def test_ranges_contiguous(self):
        s = UniformSeries(2.0, np.zeros(20))
        windows = list(sliding_windows(s, 3.0, 2.0))
        assert windows[0] == (0, 6)
        assert all(b - a == 6 for a, b in windows)
        assert windows[1][0] - windows[0][0] == 4


class TestCompensatedSum:
    def test_exactly_rounded(self):
        assert math.fsum([1e16, 1.0, -1e16]) == 1.0

    def test_order_independent(self):
        rng = np.random.default_rng(4)
        v = list(rng.normal(size=500) * 10.0 ** rng.integers(0, 12, size=500))
        shuffled = list(v)
        rng.shuffle(shuffled)
        assert math.fsum(v) == math.fsum(shuffled)

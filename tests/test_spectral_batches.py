"""The batched spectral detector against the window-by-window detector.

``windowwise_detect_steps_spectral`` below is the detector as it was before
it screened each group of windows as one 2-D array: one ``power_spectrum``
call and one set of screens per window.  The library's version must give
bitwise-equal per-second steps, or raise the same exception with the same
text, at any rate, window length and group size, and at the screens' ties.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stepforge import dsp
from stepforge.detectors import SpectralParams, StepSeries, detect_steps_spectral
from stepforge.dsp import MagnitudeView, UniformSeries, power_spectrum, sliding_windows
from stepforge.model import TriaxialRecording

# ------------------------------------------------------------------ oracle --


def windowwise_detect_steps_spectral(
    vm: UniformSeries, params: SpectralParams | None = None, name: str = "spectral"
) -> StepSeries:
    params = params or SpectralParams()
    low, high = params.cadence_band_hz
    if vm.sample_rate_hz < 2.0 * high:
        raise ValueError("vm rate must be at least twice the cadence band top")
    n_seconds = int(math.ceil(len(vm) / vm.sample_rate_hz))
    counts = np.zeros(n_seconds)
    window_s = int(round(params.window_seconds))
    for start, stop in sliding_windows(vm, params.window_seconds, params.window_seconds):
        seg = vm.values[start:stop]
        if seg.std() < params.activity_std_min_g:
            continue
        freqs, power = power_spectrum(UniformSeries(vm.sample_rate_hz, seg))
        band = (freqs >= low) & (freqs <= high)
        if not band.any():
            continue
        band_power = power[band]
        peak_pos = int(np.argmax(band_power))
        f_star = float(freqs[band][peak_pos])
        p_star = float(band_power[peak_pos])
        if p_star < params.prominence_ratio * float(np.median(band_power)):
            continue
        cadence = f_star
        if params.harmonic_check:
            half_bin = int(np.argmin(np.abs(freqs - f_star / 2.0)))
            if power[half_bin] > p_star:
                cadence = f_star / 2.0
        first_second = int(start // vm.sample_rate_hz)
        for s in range(first_second, first_second + window_s):
            if s < n_seconds:
                counts[s] += cadence
    return StepSeries(name, counts)


def window_screens(vm: UniformSeries, params: SpectralParams):
    """Each window's std, and where it has a spectrum its peak power and
    median in-band power, as the window-by-window screens compute them."""
    low, high = params.cadence_band_hz
    out = []
    for start, stop in sliding_windows(vm, params.window_seconds, params.window_seconds):
        seg = vm.values[start:stop]
        ratio = None
        if len(seg) >= 8:
            freqs, power = power_spectrum(UniformSeries(vm.sample_rate_hz, seg))
            band_power = power[(freqs >= low) & (freqs <= high)]
            if len(band_power) and np.median(band_power) > 0:
                ratio = float(band_power.max()) / float(np.median(band_power))
        out.append((float(seg.std()), ratio))
    return out


def outcome(detector, vm, params):
    try:
        result = detector(vm, params)
    except ValueError as exc:
        return type(exc), str(exc)
    return result.steps_per_second.tobytes()


# -------------------------------------------------------------- strategies --


@st.composite
def recordings(draw) -> UniformSeries:
    """Rests and walks of sinusoids on the spectrum's bins, their halves and
    between bins, at 15-100 Hz, from shorter than one window to several."""
    rate = draw(st.one_of(st.sampled_from([15.0, 30.0, 80.0, 100.0]), st.floats(15.0, 100.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    pieces = []
    for _ in range(draw(st.integers(1, 5))):
        n = int(draw(st.floats(0.5, 25.0)) * rate)
        t = np.arange(n) / rate
        if draw(st.booleans()):
            pieces.append(np.full(n, 1.0) + rng.normal(0.0, draw(st.sampled_from([0.0, 0.01])), n))
        else:
            cadence = draw(st.one_of(st.sampled_from([1.4, 1.5, 1.8, 2.0, 2.3]),
                                     st.floats(1.0, 2.6)))
            arm = draw(st.sampled_from([0.0, 0.2, 0.35, 0.5]))
            pieces.append(
                1.0 + 0.35 * np.sin(2 * np.pi * cadence * t)
                + arm * np.sin(np.pi * cadence * t)
                + rng.normal(0.0, 0.02, n)
            )
    return UniformSeries(rate, np.concatenate(pieces))


# ------------------------------------------------------------------- tests --


@settings(max_examples=150, deadline=None)
@given(
    vm=recordings(),
    window=st.sampled_from([10.0, 2.5, 4.3, 0.05]),
    harmonic=st.booleans(),
    block=st.sampled_from([1, 7, 900, dsp.BLOCK_SAMPLES]),
    data=st.data(),
)
def test_batches_match_the_window_loop(vm, window, harmonic, block, data):
    """Random recordings, with the std and prominence thresholds drawn at
    times from a window's own std and peak-to-median ratio, so the screens
    tie."""
    params = SpectralParams(window_seconds=window, harmonic_check=harmonic)
    screens = window_screens(vm, params) if round(window * vm.sample_rate_hz) >= 1 else []
    if screens and data.draw(st.booleans()):
        std, _ = data.draw(st.sampled_from(screens))
        if std > 0:
            params = SpectralParams(window_seconds=window, harmonic_check=harmonic,
                                    activity_std_min_g=std)
    ratios = [ratio for _, ratio in screens if ratio]
    if ratios and data.draw(st.booleans()):
        params = SpectralParams(
            window_seconds=window, harmonic_check=harmonic,
            activity_std_min_g=params.activity_std_min_g,
            prominence_ratio=data.draw(st.sampled_from(ratios)),
        )
    want = outcome(windowwise_detect_steps_spectral, vm, params)
    with mock.patch.object(dsp, "BLOCK_SAMPLES", block):
        assert outcome(detect_steps_spectral, vm, params) == want


def test_half_frequency_ties():
    """A walk whose sub-harmonic has the peak's power, and peaks at odd
    bins, whose half lies midway between two bins."""
    rate, n = 80.0, 800
    t = np.arange(n) / rate
    freqs = np.fft.rfftfreq(n, d=1.0 / rate)
    for j in range(14, 24):
        f = float(freqs[j])
        for arm in (0.0, 0.35, 0.5):
            vm = UniformSeries(rate, np.tile(1.0 + 0.35 * np.sin(2 * np.pi * f * t)
                                             + arm * np.sin(np.pi * f * t), 3))
            params = SpectralParams()
            got = detect_steps_spectral(vm, params).steps_per_second
            want = windowwise_detect_steps_spectral(vm, params).steps_per_second
            assert got.tobytes() == want.tobytes()


def test_groups_read_from_a_view():
    """The windows come from a magnitude view in groups of whole windows."""
    rate = 80.0
    t = np.arange(int(95 * rate)) / rate
    x = (0.35 * np.sin(2 * np.pi * 1.8 * t)).astype(np.float32)
    rec = TriaxialRecording("R", x, np.zeros_like(x), np.ones_like(x), rate)
    want = windowwise_detect_steps_spectral(dsp.vector_magnitude(rec))
    slices = []
    getitem = MagnitudeView.__getitem__

    def sliced(view, key):
        out = getitem(view, key)
        slices.append(len(out))
        return out

    with mock.patch.object(MagnitudeView, "__getitem__", sliced), \
            mock.patch.object(dsp, "BLOCK_SAMPLES", 2000):
        got = detect_steps_spectral(MagnitudeView(rec))
    assert got.steps_per_second.tobytes() == want.steps_per_second.tobytes()
    assert slices == [1600] * 4 + [800]

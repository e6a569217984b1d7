"""Signal-processing primitives: magnitude, resampling, filtering, spectra.

All step detectors and activity summaries are built from the handful of
operations in this module, so their contracts are kept tight: everything is
deterministic, vectorized, and validated up front.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np
from scipy import signal

from .model import TriaxialRecording

#: Samples per block of the vector magnitude, the resampler and both passes
#: of the zero-phase filter.  Blocks change no output bit.
BLOCK_SAMPLES = 1 << 16


@dataclass(frozen=True)
class UniformSeries:
    """A uniformly sampled scalar signal."""

    sample_rate_hz: float
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if self.values.ndim != 1:
            raise ValueError("values must be one-dimensional")
        if not self.sample_rate_hz > 0:
            raise ValueError("sample_rate_hz must be positive")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")

    def __len__(self) -> int:
        return len(self.values)

    @property
    def duration_seconds(self) -> float:
        return len(self.values) / self.sample_rate_hz


def vector_magnitude(rec: TriaxialRecording) -> UniformSeries:
    """Euclidean norm of the three axes, per sample.

    Parameters
    ----------
    rec : TriaxialRecording
        Raw triaxial chunk.

    Returns
    -------
    UniformSeries
        Nonnegative magnitude signal at the recording's rate.
    """
    n = len(rec)
    out = np.empty(n)
    for start in range(0, n, BLOCK_SAMPLES):
        block = slice(start, min(n, start + BLOCK_SAMPLES))
        a, b, c = (
            np.multiply(v[block], v[block], dtype=np.float64) for v in (rec.x, rec.y, rec.z)
        )
        # Summing the squares smallest-first makes the result independent of
        # which physical axis landed in which column.  The three buffers are
        # reused: lo = min, b = median = max(min(a, b), min(max(a, b), c)),
        # a = max.
        lo = np.minimum(a, b)
        np.maximum(a, b, out=a)
        np.minimum(a, c, out=b)
        np.maximum(lo, b, out=b)
        np.minimum(lo, c, out=lo)
        np.maximum(a, c, out=a)
        lo += b
        lo += a
        np.sqrt(lo, out=out[block])
    return UniformSeries(rec.sample_rate_hz, out)


def _resampled_length(n: int, rate_hz: float, target_hz: float) -> int:
    if not target_hz > 0:
        raise ValueError("target_hz must be positive")
    if n == 0:
        raise ValueError("cannot resample an empty series")
    return max(1, int(round(n * target_hz / rate_hz)))


def _resample_into(
    values: np.ndarray, rate_hz: float, target_hz: float, out: np.ndarray
) -> None:
    """Write ``values`` linearly resampled to ``target_hz`` into ``out``.

    Each block of ``out`` interpolates on the input samples it falls between,
    plus one on each side.  Query and input times are absolute indices over
    the rates, as for the whole series, so every output equals the one
    ``np.interp`` gives on the whole grid.
    """
    n = len(values)
    step = rate_hz / target_hz
    for start in range(0, len(out), BLOCK_SAMPLES):
        stop = min(len(out), start + BLOCK_SAMPLES)
        j0 = max(0, min(n - 1, int(start * step) - 1))
        j1 = min(n, int((stop - 1) * step) + 3)
        t_in = np.arange(j0, j1, dtype=np.float64) / rate_hz
        t_out = np.arange(start, stop, dtype=np.float64) / target_hz
        out[start:stop] = np.interp(t_out, t_in, values[j0:j1])


def resample_linear(series: UniformSeries, target_hz: float) -> UniformSeries:
    """Linear-interpolation resampling onto a uniform target grid.

    The output grid starts at t=0 with spacing 1/target_hz; query times
    beyond the last input sample clamp to the endpoint.  Total duration is
    preserved to within one output sample.
    """
    n_out = _resampled_length(len(series), series.sample_rate_hz, target_hz)
    if target_hz == series.sample_rate_hz:
        return UniformSeries(target_hz, series.values.copy())
    out = np.empty(n_out)
    _resample_into(series.values, series.sample_rate_hz, target_hz, out)
    return UniformSeries(target_hz, out)


def butterworth_bandpass(
    series: UniformSeries, low_hz: float, high_hz: float
) -> UniformSeries:
    """Zero-phase 4th-order Butterworth band-pass, as a second-order-section cascade.

    The filter runs forward and backward, so there is no phase distortion
    and the magnitude response is squared.

    Parameters
    ----------
    series : UniformSeries
        Input signal.
    low_hz, high_hz : float
        Pass-band edges; must satisfy 0 < low < high < Nyquist.
    """
    rate = series.sample_rate_hz
    return UniformSeries(rate, resampled_bandpass(series.values, rate, rate, low_hz, high_hz))


def resampled_bandpass(
    values: np.ndarray, rate_hz: float, target_hz: float, low_hz: float, high_hz: float
) -> np.ndarray:
    """``values`` linearly resampled to ``target_hz``, then zero-phase band-passed.

    The same bits as :func:`resample_linear` followed by
    :func:`butterworth_bandpass`, which is ``scipy.signal.sosfiltfilt`` with
    its default odd padding.  The resampler writes straight into the
    filter's one float64 buffer of the padded length, and both filter passes
    run over it in blocks: the forward pass with its state carried from block
    to block, the backward pass from the end, writing each block back in
    place.  So one axis costs that buffer and a few blocks, not the input,
    its extension and both pass outputs.
    """
    n = len(values)
    if target_hz != rate_hz:
        n = _resampled_length(n, rate_hz, target_hz)
    nyquist = target_hz / 2.0
    if not (0.0 < low_hz < high_hz < nyquist):
        raise ValueError(
            f"band edges must satisfy 0 < {low_hz} < {high_hz} < Nyquist ({nyquist})"
        )
    sos = signal.butter(4, [low_hz, high_hz], btype="bandpass", output="sos", fs=target_hz)
    # sosfiltfilt's default padding: three times its count of filter taps
    ntaps = 2 * len(sos) + 1 - min((sos[:, 2] == 0).sum(), (sos[:, 5] == 0).sum())
    edge = 3 * int(ntaps)
    if n <= edge:
        raise ValueError(
            "The length of the input vector x must be greater than padlen, "
            f"which is {edge}."
        )
    buf = np.empty(n + 2 * edge)
    x = buf[edge : edge + n]
    if target_hz != rate_hz:
        _resample_into(values, rate_hz, target_hz, x)
    else:
        x[:] = values
    # odd extension at both ends, as scipy's odd_ext writes it
    buf[:edge] = 2 * x[0] - x[edge:0:-1]
    buf[edge + n :] = 2 * x[-1] - x[-2 : -(edge + 2) : -1]
    zi = signal.sosfilt_zi(sos)
    state = zi * buf[0]
    for start in range(0, len(buf), BLOCK_SAMPLES):
        block = slice(start, start + BLOCK_SAMPLES)
        buf[block], state = signal.sosfilt(sos, buf[block], zi=state)
    state = zi * buf[-1]
    for stop in range(len(buf), 0, -BLOCK_SAMPLES):
        block = slice(max(0, stop - BLOCK_SAMPLES), stop)
        backward, state = signal.sosfilt(sos, buf[block][::-1], zi=state)
        buf[block] = backward[::-1]
    return x


def power_spectrum(window: UniformSeries) -> tuple[np.ndarray, np.ndarray]:
    """One-sided periodogram of a mean-removed window.

    Power is normalized so the powers sum to the mean-removed variance of
    the input (discrete Parseval identity).

    Returns
    -------
    freqs, power : ndarray
        Frequencies in Hz (0 .. Nyquist inclusive) and the matching powers.
    """
    n = len(window)
    if n < 8:
        raise ValueError("window too short for a spectrum (need >= 8 samples)")
    v = window.values - window.values.mean()
    spec = np.fft.rfft(v)
    power = (spec.real**2 + spec.imag**2) / (n * n)
    power[1:] *= 2.0
    if n % 2 == 0:
        power[-1] /= 2.0
    freqs = np.fft.rfftfreq(n, d=1.0 / window.sample_rate_hz)
    return freqs, power


def sliding_windows(
    series: UniformSeries, window_seconds: float, hop_seconds: float
) -> Iterator[tuple[int, int]]:
    """Yield (start, stop) index pairs of full windows.

    A window of W samples advancing by H samples yields exactly
    floor((N - W) / H) + 1 windows when N >= W, else none.  Trailing partial
    windows are dropped.
    """
    w = int(round(window_seconds * series.sample_rate_hz))
    h = int(round(hop_seconds * series.sample_rate_hz))
    if w < 1 or h < 1:
        raise ValueError("window and hop must each cover at least one sample")
    n = len(series)
    start = 0
    while start + w <= n:
        yield (start, start + w)
        start += h

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
    a, b, c = (np.multiply(v, v, dtype=np.float64) for v in (rec.x, rec.y, rec.z))
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
    return UniformSeries(rec.sample_rate_hz, np.sqrt(lo, out=lo))


def resample_linear(series: UniformSeries, target_hz: float) -> UniformSeries:
    """Linear-interpolation resampling onto a uniform target grid.

    The output grid starts at t=0 with spacing 1/target_hz; query times
    beyond the last input sample clamp to the endpoint.  Total duration is
    preserved to within one output sample.
    """
    if not target_hz > 0:
        raise ValueError("target_hz must be positive")
    n = len(series)
    if n == 0:
        raise ValueError("cannot resample an empty series")
    if target_hz == series.sample_rate_hz:
        return UniformSeries(target_hz, series.values.copy())
    n_out = max(1, int(round(n * target_hz / series.sample_rate_hz)))
    t_in = np.arange(n, dtype=np.float64) / series.sample_rate_hz
    t_out = np.arange(n_out, dtype=np.float64) / target_hz
    return UniformSeries(target_hz, np.interp(t_out, t_in, series.values))


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
    nyquist = series.sample_rate_hz / 2.0
    if not (0.0 < low_hz < high_hz < nyquist):
        raise ValueError(
            f"band edges must satisfy 0 < {low_hz} < {high_hz} < Nyquist ({nyquist})"
        )
    sos = signal.butter(
        4, [low_hz, high_hz], btype="bandpass", output="sos", fs=series.sample_rate_hz
    )
    return UniformSeries(series.sample_rate_hz, signal.sosfiltfilt(sos, series.values))


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

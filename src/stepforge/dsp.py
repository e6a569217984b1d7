"""Signal-processing primitives: magnitude, resampling, filtering, spectra.

All step detectors and activity summaries are built from the handful of
operations in this module, so their contracts are kept tight: everything is
deterministic, vectorized, and validated up front.
"""

from __future__ import annotations

import itertools
import os
import tempfile
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from scipy import signal

from .model import TriaxialRecording

#: Samples per block of the vector magnitude, the resampler and both passes
#: of the zero-phase filter.  Blocks change no output bit.
BLOCK_SAMPLES = 1 << 14


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


class MagnitudeView:
    """The vector magnitude of a recording, computed one slice at a time.

    It stands in for the :class:`UniformSeries` that :func:`vector_magnitude`
    returns wherever that series is only sliced: it has ``sample_rate_hz``,
    ``len`` and ``values[a:b]`` (a contiguous slice, as a new float64 array),
    and ``values`` is the view itself.  Each slice reads the same slices of
    the axes, a block at a time, and holds the samples ``vector_magnitude``
    gives there, bit for bit.  The axes need only ``len`` and contiguous
    slicing, so they may be read from files.
    """

    def __init__(self, rec) -> None:
        self.rec = rec
        self.sample_rate_hz = rec.sample_rate_hz

    @property
    def values(self) -> MagnitudeView:
        return self

    def __len__(self) -> int:
        return len(self.rec)

    def __getitem__(self, key: slice) -> np.ndarray:
        start, stop, step = key.indices(len(self))
        if step != 1:
            raise ValueError("a magnitude view reads contiguous slices only")
        out = np.empty(max(0, stop - start))
        axes = (self.rec.x, self.rec.y, self.rec.z)
        for first in range(start, stop, BLOCK_SAMPLES):
            last = min(stop, first + BLOCK_SAMPLES)
            a, b, c = (
                np.multiply(v, v, dtype=np.float64)
                for v in (axis[first:last] for axis in axes)
            )
            # Summing the squares smallest-first makes the result independent
            # of which physical axis landed in which column.  The three buffers
            # are reused: lo = min, b = median = max(min(a, b), min(max(a, b),
            # c)), a = max.
            lo = np.minimum(a, b)
            np.maximum(a, b, out=a)
            np.minimum(a, c, out=b)
            np.maximum(lo, b, out=b)
            np.minimum(lo, c, out=lo)
            np.maximum(a, c, out=a)
            lo += b
            lo += a
            np.sqrt(lo, out=out[first - start : last - start])
        return out


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
    return UniformSeries(rec.sample_rate_hz, MagnitudeView(rec)[:])


def resampled_length(n: int, rate_hz: float, target_hz: float) -> int:
    """The number of samples ``n`` samples at ``rate_hz`` resample to."""
    if not target_hz > 0:
        raise ValueError("target_hz must be positive")
    if n == 0:
        raise ValueError("cannot resample an empty series")
    return max(1, int(round(n * target_hz / rate_hz)))


def _resampled_slice(
    values: np.ndarray, rate_hz: float, target_hz: float, start: int, stop: int
) -> np.ndarray:
    """Samples ``start`` to ``stop`` of ``values`` linearly resampled to
    ``target_hz``, as a new float64 array.

    They interpolate on the input samples they fall between, plus one on each
    side.  Query and input times are absolute indices over the rates, as for
    the whole series, so every output equals the one ``np.interp`` gives on
    the whole grid.
    """
    if target_hz == rate_hz:
        return np.array(values[start:stop], dtype=np.float64)
    n = len(values)
    step = rate_hz / target_hz
    j0 = max(0, min(n - 1, int(start * step) - 1))
    j1 = min(n, int((stop - 1) * step) + 3)
    t_in = np.arange(j0, j1, dtype=np.float64) / rate_hz
    t_out = np.arange(start, stop, dtype=np.float64) / target_hz
    return np.interp(t_out, t_in, values[j0:j1])


def resampled_blocks(
    values: np.ndarray, rate_hz: float, target_hz: float
) -> Iterator[tuple[int, np.ndarray]]:
    """``values`` linearly resampled to ``target_hz`` (or copied as float64
    at its own rate), as consecutive ``(start, block)`` pairs of
    ``BLOCK_SAMPLES`` output samples, each a new array; the same bits as
    :func:`resample_linear`.  ``values`` is read only through ``len`` and
    contiguous slices of about a block."""
    n_out = resampled_length(len(values), rate_hz, target_hz)
    for start in range(0, n_out, BLOCK_SAMPLES):
        stop = min(n_out, start + BLOCK_SAMPLES)
        yield start, _resampled_slice(values, rate_hz, target_hz, start, stop)


def resample_linear(series: UniformSeries, target_hz: float) -> UniformSeries:
    """Linear-interpolation resampling onto a uniform target grid.

    The output grid starts at t=0 with spacing 1/target_hz; query times
    beyond the last input sample clamp to the endpoint.  Total duration is
    preserved to within one output sample.
    """
    n_out = resampled_length(len(series), series.sample_rate_hz, target_hz)
    if target_hz == series.sample_rate_hz:
        return UniformSeries(target_hz, series.values.copy())
    out = np.empty(n_out)
    for start, block in resampled_blocks(series.values, series.sample_rate_hz, target_hz):
        out[start : start + len(block)] = block
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
    out = np.empty(len(series))
    for start, block in resampled_bandpass(series.values, rate, rate, low_hz, high_hz):
        out[start : start + len(block)] = block
    return UniformSeries(rate, out)


def resampled_bandpass(
    values: np.ndarray,
    rate_hz: float,
    target_hz: float,
    low_hz: float,
    high_hz: float,
    spool_dir: str | os.PathLike | None = None,
) -> Iterator[tuple[int, np.ndarray]]:
    """``values`` linearly resampled to ``target_hz``, then zero-phase
    band-passed, as ``(start, block)`` pairs from the end of the series back
    to its start: each block holds output samples ``start`` onwards, in time
    order.

    The same bits as :func:`resample_linear` followed by
    :func:`butterworth_bandpass`, which is ``scipy.signal.sosfiltfilt`` with
    its default odd padding.  The forward pass runs over the padded series a
    resampled block at a time, with its state carried from block to block,
    and writes its output to one unnamed temporary file in ``spool_dir``
    (``tempfile``'s directory by default), 8 bytes per padded sample.  The
    backward pass then reads that file back in blocks of ``BLOCK_SAMPLES``
    from the end.  So one axis costs a few blocks of memory, not a buffer of
    its resampled length.  ``values`` is read only through ``len`` and
    contiguous slices of about a block, so it may be an axis that is read
    from a file.
    """
    n = len(values)
    if target_hz != rate_hz:
        n = resampled_length(n, rate_hz, target_hz)
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
    # odd extension at both ends, as scipy's odd_ext writes it
    head = _resampled_slice(values, rate_hz, target_hz, 0, edge + 1)
    tail = _resampled_slice(values, rate_hz, target_hz, n - edge - 1, n)
    left = 2 * head[0] - head[edge:0:-1]
    right = 2 * tail[-1] - tail[-2 : -(edge + 2) : -1]
    blocks = (block for _, block in resampled_blocks(values, rate_hz, target_hz))
    zi = signal.sosfilt_zi(sos)
    state = zi * left[0]
    with tempfile.TemporaryFile(dir=spool_dir) as spool:
        for block in itertools.chain([left], blocks, [right]):
            forward, state = signal.sosfilt(sos, block, zi=state)
            spool.write(forward)
        state = zi * forward[-1]
        for stop in range(n + 2 * edge, 0, -BLOCK_SAMPLES):
            start = max(0, stop - BLOCK_SAMPLES)
            block = np.empty(stop - start)
            spool.seek(8 * start)
            spool.readinto(block)
            backward, state = signal.sosfilt(sos, block[::-1], zi=state)
            # the pads fall away: output samples edge .. edge + n - 1 remain
            first, last = max(start, edge), min(stop, edge + n)
            if first < last:
                yield first - edge, backward[stop - last : stop - first][::-1]


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

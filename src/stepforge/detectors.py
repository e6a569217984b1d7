"""Open-source-style step detectors over the vector-magnitude signal.

Three families are implemented:

* peak detection with periodicity / similarity / continuity screening
  (``detect_steps_peak``),
* windowed spectral cadence estimation (``detect_steps_spectral``),
* scaled template matching with greedy stride selection
  (``detect_steps_template``).

Every detector maps a vector-magnitude series to a per-second step series.
It reads the series only through ``sample_rate_hz``, ``len`` and contiguous
slices of ``values``, so a ``dsp.MagnitudeView`` serves as well as a
``dsp.UniformSeries``.
``DETECTORS`` names the built-in detectors and their parameter classes;
``detect`` runs the detector of a parameter object, and ``run_detectors``
fans one signal out to named parameter objects and aggregates to minutes.
"""

from __future__ import annotations

import bisect
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import fft as scipy_fft

from . import dsp
from .dsp import UniformSeries, sliding_windows


@dataclass(frozen=True)
class StepSeries:
    """Per-second step values produced by one detector."""

    detector_name: str
    steps_per_second: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "steps_per_second", np.asarray(self.steps_per_second, dtype=np.float64)
        )
        values = self.steps_per_second
        if values.ndim != 1:
            raise ValueError("steps_per_second must be one-dimensional")
        if len(values) and (not np.all(np.isfinite(values)) or values.min() < 0):
            raise ValueError("step values must be finite and nonnegative")
        if len(values) and values.max() > 5.0 + 1e-9:
            raise ValueError("per-second step values above 5 are not physiological")

    @property
    def total(self) -> float:
        return math.fsum(self.steps_per_second)


def per_second_to_minutes(values: np.ndarray, n_minutes: int | None = None) -> np.ndarray:
    """Aggregate per-second values into per-minute sums (compensated)."""
    values = np.asarray(values, dtype=np.float64)
    if n_minutes is None:
        n_minutes = (len(values) + 59) // 60
    out = np.zeros(n_minutes)
    for m in range(n_minutes):
        chunk = values[60 * m : 60 * (m + 1)]
        if len(chunk):
            out[m] = math.fsum(chunk)
    return out


@dataclass(frozen=True)
class PeakParams:
    """Tuning for the peak-detection family.

    Continuity screening mirrors the usual wrist convention: look back over
    the ``continuity_required`` most recent inter-peak windows and demand
    strictly more than ``continuity_window`` of them show local variance
    above ``variance_threshold_g2`` (with the defaults, all four must).
    """

    target_hz: float = 15.0
    k_neighbors: int = 3
    mag_threshold_g: float = 1.2
    period_min_samples: int = 5
    period_max_samples: int = 15
    similarity_threshold_g: float = 0.5
    continuity_window: int = 3
    continuity_required: int = 4
    variance_threshold_g2: float = 0.001

    def __post_init__(self) -> None:
        if not self.target_hz > 0:
            raise ValueError("target_hz must be positive")
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be at least 1")
        if not 0 < self.period_min_samples < self.period_max_samples:
            raise ValueError("need 0 < period_min_samples < period_max_samples")
        if self.mag_threshold_g <= 0 or self.similarity_threshold_g <= 0:
            raise ValueError("magnitude and similarity thresholds must be positive")
        if self.continuity_window < 1 or self.continuity_required < 1:
            raise ValueError("continuity parameters must be positive")
        if self.variance_threshold_g2 <= 0:
            raise ValueError("variance_threshold_g2 must be positive")


def _strict_local_maxima(values: np.ndarray, k: int) -> np.ndarray:
    """Indices with a full +/-k neighborhood that strictly dominate it."""
    n = len(values)
    if n < 2 * k + 1:
        return np.empty(0, dtype=np.intp)
    keep = np.ones(n - 2 * k, dtype=bool)
    center = values[k : n - k]
    for d in range(1, k + 1):
        keep &= center > values[k - d : n - k - d]
        keep &= center > values[k + d : n - k + d]
    return np.nonzero(keep)[0] + k


class _PeakScan:
    """The peak detector's screens over a signal at its target rate, fed in
    blocks, with the state that carries them across blocks.

    Each block is screened as one array, except the similarity screen, a
    plain loop over the values; the state is the last ``2 * k_neighbors``
    samples and the prefix sums at them, the last candidate, the last kept
    peak's value, position and prefix sums, the last ``continuity_required``
    pass flags and the count of kept peaks.  Every float operation is the one
    a scan of the whole signal makes, so no bit depends on the blocks.
    """

    def __init__(self, params: PeakParams, n_seconds: int) -> None:
        self.params = params
        # peaks per second, as the smallest integer type that can hold them
        # (strict maxima are apart, so a second holds at most target_hz + 1)
        self.counts = np.zeros(n_seconds, np.min_scalar_type(math.ceil(params.target_hz) + 1))
        self.base = 0  # index of the first held sample
        self.tail = np.empty(0)  # the held samples
        # the prefix sums of the signal and of its square before each held
        # sample and after the last: csum[base : base + len(tail) + 1]
        self.csum = self.csum2 = np.zeros(1)
        self.last_candidate: int | None = None
        self.last_value: float | None = None
        self.last_peak = 0  # the last kept peak, its csum and csum2
        self.last_sums = (0.0, 0.0)
        self.n_kept = 0
        self.flags = np.empty(0, dtype=np.intp)  # the last pass flags

    def feed(self, block: np.ndarray) -> None:
        """Screen the next samples of the signal, consuming ``block``."""
        p = self.params
        k = p.k_neighbors
        base = self.base
        seg = np.concatenate((self.tail, block))
        carried = base + len(self.tail) > 0
        csum2 = _continued_sums(self.csum2, block * block, carried)
        csum = _continued_sums(self.csum, block, carried)
        keep_from = max(0, len(seg) - 2 * k)
        self.base, self.tail = base + keep_from, seg[keep_from:]
        self.csum, self.csum2 = csum[keep_from:], csum2[keep_from:]

        at = _strict_local_maxima(seg, k)
        at = at[seg[at] > p.mag_threshold_g]
        if not len(at):
            return
        # Inter-peak period screen: gap to the previous candidate, kept or
        # not, so counting resumes after a pause (Verisense, Gu et al. 2017).
        # The first candidate has no period to screen.
        gaps = np.diff(at, prepend=at[0] if self.last_candidate is None
                       else self.last_candidate - base)
        keep = (p.period_min_samples <= gaps) & (gaps <= p.period_max_samples)
        if self.last_candidate is None:
            keep[0] = True
        self.last_candidate = base + int(at[-1])
        at = at[keep]

        # Amplitude-similarity screen against the previous surviving peak.
        kept = []
        last = self.last_value
        for j, value in zip(at.tolist(), seg[at].tolist()):
            if last is not None and abs(value - last) > p.similarity_threshold_g:
                continue
            kept.append(j)
            last = value
        if not kept:
            return
        self.last_value = last
        at = np.array(kept, dtype=np.intp)

        # Continuity: the variance of each inter-peak window, from the prefix
        # sums at the window's ends.
        lo, lo2 = csum[at], csum2[at]
        b = at + base
        a = np.concatenate(([self.last_peak], b[:-1]))
        a_sum = np.concatenate(([self.last_sums[0]], lo[:-1]))
        a_sum2 = np.concatenate(([self.last_sums[1]], lo2[:-1]))
        length = b - a + 1
        total = csum[at + 1] - a_sum
        total2 = csum2[at + 1] - a_sum2
        # a Python float's ** 2 is C pow, as the whole-signal scan's numpy
        # scalar ** 2 is; an array's is x * x, which differs in the last bit
        square = np.array([m**2 for m in (total / length).tolist()])
        passes = (total2 / length - square > p.variance_threshold_g2).astype(np.intp)
        if self.n_kept == 0:  # the first kept peak ends no window
            passes = passes[1:]
        self.last_peak = int(b[-1])
        self.last_sums = (float(lo[-1]), float(lo2[-1]))

        # A peak counts once more than continuity_window of the last
        # continuity_required windows, its own included, passed.
        r = p.continuity_required
        flags = np.concatenate((self.flags, passes))
        first = self.n_kept  # global index of the first new kept peak
        self.n_kept += len(at)
        # flags[j] is window flag number f0 + j, which ends at peak f0 + j + 1
        f0 = max(0, first - 1) - len(self.flags)
        self.flags = flags[-r:]
        i = np.arange(first, self.n_kept)
        i = i[i >= r]
        if not len(i):
            return
        running = np.concatenate(([0], np.cumsum(flags)))
        recent = running[i - f0] - running[i - r - f0]
        steps = b[i - first][recent > p.continuity_window]
        np.add.at(self.counts, (steps // p.target_hz).astype(np.intp), 1)


def detect_steps_peak(
    vm: UniformSeries, params: PeakParams | None = None, name: str = "peak"
) -> StepSeries:
    """Count steps from screened vector-magnitude peaks.

    Candidate peaks are samples strictly greater than every neighbor within
    ``k_neighbors``; candidates survive magnitude, inter-peak period, and
    amplitude-similarity screens in sequence, and finally the trailing
    continuity (local variance) test.  Surviving peaks are bucketed per
    second.  The signal is resampled to the target rate and screened one
    block at a time (``_PeakScan``), so only a block and the per-second
    counts are held; the counts are whole numbers, so converting the scan's
    integers gives the float sums of a whole-signal scan.
    """
    params = params or PeakParams()
    rate = vm.sample_rate_hz
    if rate < params.target_hz:
        raise ValueError("vm rate must be at least the detector target rate")
    if len(vm) == 0:
        return StepSeries(name, np.zeros(0))
    n = dsp.resampled_length(len(vm), rate, params.target_hz)
    scan = _PeakScan(params, int(math.ceil(n / params.target_hz)))
    for _, block in dsp.resampled_blocks(vm.values, rate, params.target_hz):
        scan.feed(block)
    return StepSeries(name, scan.counts.astype(np.float64))


@dataclass(frozen=True)
class SpectralParams:
    """Tuning for the windowed spectral-cadence family."""

    window_seconds: float = 10.0
    cadence_band_hz: tuple[float, float] = (1.4, 2.3)
    activity_std_min_g: float = 0.025
    prominence_ratio: float = 3.0
    harmonic_check: bool = True

    def __post_init__(self) -> None:
        low, high = self.cadence_band_hz
        if not 0 < low < high:
            raise ValueError("cadence band must be an increasing positive pair")
        if self.window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if self.activity_std_min_g <= 0 or self.prominence_ratio <= 0:
            raise ValueError("activity and prominence thresholds must be positive")


def _window_cadences(windows: np.ndarray, rate: float, params: SpectralParams) -> np.ndarray:
    """The cadence of each row of ``windows``, or 0 where a screen refuses it.

    The rows are screened as one 2-D array, with the operations of
    ``dsp.power_spectrum`` and of the screens, row by row.
    """
    low, high = params.cadence_band_hz
    cadence = np.zeros(len(windows))
    active = np.flatnonzero(windows.std(axis=1) >= params.activity_std_min_g)
    if not len(active):
        return cadence
    n = windows.shape[1]
    if n < 8:
        raise ValueError("window too short for a spectrum (need >= 8 samples)")
    v = windows[active]
    v -= v.mean(axis=1, keepdims=True)
    spec = np.fft.rfft(v, axis=1)
    power = (spec.real**2 + spec.imag**2) / (n * n)
    power[:, 1:] *= 2.0
    if n % 2 == 0:
        power[:, -1] /= 2.0
    freqs = np.fft.rfftfreq(n, d=1.0 / rate)
    band = (freqs >= low) & (freqs <= high)
    if not band.any():
        return cadence
    band_power = power[:, band]
    rows = np.arange(len(active))
    peak = np.argmax(band_power, axis=1)
    f_star = freqs[band][peak]
    p_star = band_power[rows, peak]
    prominent = ~(p_star < params.prominence_ratio * np.median(band_power, axis=1))
    if params.harmonic_check:
        # arm-swing dominance: the sub-harmonic carries more power
        half_bin = np.argmin(np.abs(freqs - (f_star / 2.0)[:, np.newaxis]), axis=1)
        f_star = np.where(power[rows, half_bin] > p_star, f_star / 2.0, f_star)
    cadence[active[prominent]] = f_star[prominent]
    return cadence


def detect_steps_spectral(
    vm: UniformSeries, params: SpectralParams | None = None, name: str = "spectral"
) -> StepSeries:
    """Estimate cadence per window from the dominant in-band spectral peak.

    Non-overlapping windows are screened by standard deviation, then the
    periodogram peak inside the cadence band must stand out against the
    median in-band power by ``prominence_ratio``.  When the sub-harmonic at
    half the peak frequency carries more power, the cadence drops to it
    (arm-swing dominance).  Steps per window are cadence times window
    length, spread uniformly over its seconds.  The windows are read and
    screened in groups of at least a block of samples
    (``_window_cadences``).
    """
    params = params or SpectralParams()
    low, high = params.cadence_band_hz
    rate = vm.sample_rate_hz
    if rate < 2.0 * high:
        raise ValueError("vm rate must be at least twice the cadence band top")
    n_seconds = int(math.ceil(len(vm) / rate))
    counts = np.zeros(n_seconds)
    window_s = int(round(params.window_seconds))
    width = int(round(params.window_seconds * rate))
    per_group = max(1, dsp.BLOCK_SAMPLES // max(1, width))
    # the windows abut, so a group of them is one contiguous slice
    windows = sliding_windows(vm, params.window_seconds, params.window_seconds)
    while group := list(itertools.islice(windows, per_group)):
        values = vm.values[group[0][0] : group[-1][1]].reshape(len(group), width)
        for (start, _), cadence in zip(group, _window_cadences(values, rate, params)):
            if cadence:
                first_second = int(start // rate)
                counts[first_second : first_second + window_s] += cadence
    return StepSeries(name, counts)


def _default_templates() -> tuple[np.ndarray, ...]:
    """Two synthetic 64-point stride shapes, zero-mean with unit energy.

    A stride spans two steps, so both defaults carry one magnitude
    oscillation per step: a uniform two-step sinusoid and a tapered variant
    whose envelope fades at the stride boundaries.  Empirical templates can
    be loaded via :class:`TemplateParams`.
    """
    u = np.linspace(0.0, 1.0, 64, endpoint=False)
    uniform = np.sin(4.0 * np.pi * u)
    tapered = np.sin(4.0 * np.pi * u) * np.sin(np.pi * u)
    out = []
    for shape in (uniform, tapered):
        shape = shape - shape.mean()
        out.append(shape / np.linalg.norm(shape))
    return tuple(out)


@dataclass(frozen=True)
class TemplateParams:
    """Tuning for the stride-template matching family."""

    templates: tuple[np.ndarray, ...] = field(default_factory=_default_templates)
    stride_grid_seconds: tuple[float, ...] = tuple(
        round(0.7 + 0.1 * i, 1) for i in range(12)
    )
    correlation_threshold: float = 0.7
    smoothing_window_seconds: float = 0.22

    def __post_init__(self) -> None:
        if not self.templates:
            raise ValueError("at least one template is required")
        norm_templates = []
        for t in self.templates:
            t = np.asarray(t, dtype=np.float64)
            if len(t) < 4:
                raise ValueError("templates need at least 4 points")
            if abs(t.mean()) > 1e-8 or abs(np.linalg.norm(t) - 1.0) > 1e-8:
                raise ValueError("templates must be zero-mean with unit norm")
            norm_templates.append(t)
        object.__setattr__(self, "templates", tuple(norm_templates))
        if not self.stride_grid_seconds:
            raise ValueError("stride grid must be nonempty")
        if any(d <= 0 for d in self.stride_grid_seconds):
            raise ValueError("stride durations must be positive")
        if not 0.0 < self.correlation_threshold <= 1.0:
            raise ValueError("correlation_threshold must lie in (0, 1]")
        if self.smoothing_window_seconds < 0:
            raise ValueError("smoothing_window_seconds must be nonnegative")


def normalized_template(template: np.ndarray, length: int) -> np.ndarray:
    """Rescale a unit template onto ``length`` samples, zero-mean unit-norm."""
    u_src = np.linspace(0.0, 1.0, len(template))
    u_dst = np.linspace(0.0, 1.0, length)
    t = np.interp(u_dst, u_src, template)
    t = t - t.mean()
    norm = np.linalg.norm(t)
    if norm == 0:
        raise ValueError("degenerate template after rescaling")
    return t / norm


def _window_norms(csum: np.ndarray, csum2: np.ndarray, L: int) -> np.ndarray:
    """Root centered energy of every length-``L`` window, from prefix sums.

    It does not depend on the template, so one array serves every template
    of a length.
    """
    seg_sum = csum[L:] - csum[:-L]
    seg_sum2 = csum2[L:] - csum2[:-L]
    seg_sum *= seg_sum
    seg_sum /= L
    seg_sum2 -= seg_sum
    np.maximum(seg_sum2, 0.0, out=seg_sum2)
    return np.sqrt(seg_sum2, out=seg_sum2)


#: Signal samples per batch of the template search; only one batch's prefix
#: sums, spectra and profiles are alive at a time.
CORRELATION_BATCH_SAMPLES = 2**15


def _continued_sums(head: np.ndarray, fresh: np.ndarray, carried: bool) -> np.ndarray:
    """``head`` followed by the running sums of ``fresh``, continued from
    ``head[-1]`` when ``carried``; ``fresh`` is consumed.

    The carry is added to the first fresh element before ``np.cumsum``, so
    every float addition is the one a cumulative sum over the whole signal
    makes.
    """
    if carried:
        fresh[0] += head[-1]
    out = np.empty(len(head) + len(fresh))
    out[: len(head)] = head
    np.cumsum(fresh, out=out[len(head) :])
    return out


def _correlation_batches(
    values: np.ndarray, stacks: Sequence[np.ndarray]
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Normalized cross-correlation profiles of stacks of zero-mean unit
    templates, one stack per length, in batches ``(i, a, r)``: ``r[k, j]`` is
    the profile of ``stacks[i][k]`` at offset ``a + j``.

    The numerator is an overlap-save correlation: for length ``L``, blocks of
    ``nfft`` samples, ``nfft - L + 1`` apart from sample 0, each transformed
    once for all templates of the length, keeping the outputs that do not
    wrap around.  The signal is walked in batches of at least
    ``CORRELATION_BATCH_SAMPLES`` samples, batches outer and lengths inner.
    Each batch extends the prefix sums of the signal and of its square, which
    give the window norms, once for all lengths; each length then correlates
    the whole blocks those sums now cover, and the sums are kept back only to
    the earliest offset a length has still to correlate.  Every block is the
    one a whole-signal correlation uses and every prefix sum the one a
    whole-signal ``np.cumsum`` forms, so no bit depends on the batches.
    ``values`` is read through ``len`` and one contiguous slice per batch, so
    it may be a :class:`~stepforge.dsp.MagnitudeView`.
    """
    n = len(values)
    plans = []
    for stack in stacks:
        L = stack.shape[1]
        nfft = scipy_fft.next_fast_len(max(1024, 4 * L), real=True)
        kernel = scipy_fft.rfft(stack[:, ::-1], nfft)[:, np.newaxis]
        plans.append((L, n - L + 1, nfft, nfft - L + 1, kernel))
    nxt = [0] * len(plans)  # next offset of each length, a multiple of its block step
    lo = hi = 0  # csum[k] and csum2[k] sum values[: lo + k] and their squares
    csum = csum2 = np.zeros(1)
    while True:
        live = [i for i, plan in enumerate(plans) if nxt[i] < plan[1]]
        if not live:
            return
        # A batch reaches at least the last prefix sum that the next block of
        # the length furthest behind reads, so it correlates a block or more.
        needs = []
        for i in live:
            L, m, _, step, _ = plans[i]
            needs.append(min(nxt[i] + step, m) + L - 1)
        stop = min(n, max(hi + CORRELATION_BATCH_SAMPLES, min(needs)))
        start = min(nxt[i] for i in live)
        span = values[start:stop]  # every sample the batch reads, read once
        fresh = span[hi - start :]
        csum2 = _continued_sums(csum2[start - lo :], fresh * fresh, hi > 0)
        csum = _continued_sums(csum[start - lo :], fresh.copy(), hi > 0)
        lo, hi = start, stop
        for i in live:
            L, m, nfft, step, kernel = plans[i]
            a = nxt[i]
            # offsets a .. b-1 read samples a .. b+L-2 and prefix sums a .. b+L-1
            b = m if stop == n else a + (stop + 1 - L - a) // step * step
            if b <= a:
                continue
            nxt[i] = b
            # the last block is zero-padded
            seg = np.zeros(-(-(b - a) // step) * step + L - 1)
            seg[: b - a + L - 1] = span[a - start : b + L - 1 - start]
            blocks = sliding_window_view(seg, nfft)[::step]
            full = scipy_fft.irfft(scipy_fft.rfft(blocks) * kernel, nfft)
            r = full[:, :, L - 1 :].reshape(len(kernel), -1)[:, : b - a]
            del seg, blocks, full
            denom = _window_norms(csum[a - lo : b + L - lo], csum2[a - lo : b + L - lo], L)
            with np.errstate(divide="ignore", invalid="ignore"):
                r /= denom
            r[:, ~(denom > 0)] = 0.0
            np.clip(r, -1.0, 1.0, out=r)
            yield i, a, r


#: Candidates per block of the greedy cover's loop.
COVER_BLOCK_CANDIDATES = 2**12


class _OnsetScan:
    """Candidate onsets of one correlation profile, fed in order in batches:
    offsets where the profile clears the threshold at a maximum of its
    smoothing.

    The smoothing is a centered moving average over ``2*half + 1`` offsets,
    its windows shrunk at the profile's ends, evaluated only at the offsets
    above the threshold and their two neighbours.  Maxima follow the
    rising-edge plateau convention: strict rise in, soft fall out.  The
    average reads a running sum of the profile (the profile itself when
    ``half`` is 0), carried across batches as the signal's prefix sums are,
    and the scan keeps its last ``2*half + 3`` values.  An onset's test reads
    ``half + 2`` offsets back and ``half + 1`` ahead, so an onset that near a
    batch's end waits for the next batch.
    """

    def __init__(self, m: int, threshold: float, half: int) -> None:
        self.m, self.threshold, self.half = m, threshold, half
        self.start = 0  # offset of the next batch
        self.tail = np.empty(0)  # running sums just before it
        self.waiting = np.empty(0, dtype=np.intp)
        self.waiting_corr = np.empty(0)

    def feed(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Scan the profile at the next ``len(r)`` offsets, consuming ``r``;
        return the onsets now settled and the profile at them."""
        m, half = self.m, self.half
        a = self.start
        b = self.start = a + len(r)
        found = np.flatnonzero(r >= self.threshold)
        onsets = np.concatenate((self.waiting, found + a))
        corr = np.concatenate((self.waiting_corr, r[found]))
        if half:  # the running sum through each offset
            s = _continued_sums(self.tail, r, a > 0)
        else:
            s = np.concatenate((self.tail, r))
        base = a - len(self.tail)  # offset of s[0]
        self.tail = s[-(2 * half + 3) :].copy()
        settled = len(onsets) if b == m else np.searchsorted(onsets, b - half - 1)
        self.waiting, self.waiting_corr = onsets[settled:], corr[settled:]
        onsets, corr = onsets[:settled], corr[:settled]

        # each onset's left neighbour, itself and its right neighbour
        at = np.clip(onsets + np.array([[-1], [0], [1]]), 0, m - 1)
        if half:
            lo = np.maximum(at - half, 0)
            hi = np.minimum(at + half + 1, m)
            # lo > 0 wherever base > 0, so s[lo - 1 - base] is in the window
            smoothed = (s[hi - 1 - base] - np.where(lo > 0, s[lo - 1 - base], 0.0)) / (hi - lo)
        else:
            smoothed = s[at - base]
        before, here, after = smoothed
        rise = (onsets == 0) | (here > before)
        fall = (onsets == m - 1) | (here >= after)
        keep = rise & fall
        return onsets[keep], corr[keep]

    @property
    def next_onset(self) -> float:
        """The smallest onset the scan can still return: its first waiting
        onset, or the next batch's first offset (infinite once every offset
        is scanned)."""
        if len(self.waiting):
            return int(self.waiting[0])
        return self.start if self.start < self.m else math.inf


def _greedy_cover(
    onset: np.ndarray, length: np.ndarray, corr: np.ndarray, strides: np.ndarray, rate: float
) -> None:
    """Accept candidate strides greedily by descending correlation, counting
    each accepted stride in ``strides`` at the second holding its midpoint; a
    stride that overlaps an accepted one is refused."""
    n_seconds = len(strides)
    # Near-equal correlations count as ties so the earlier onset wins;
    # quantizing at 0.01 keeps phase-ambiguous candidates from shuffling.
    order = np.lexsort((length, onset, -np.round(corr / 0.01)))
    # Accepted strides are disjoint, so sorted starts and ends describe them.
    starts: list[int] = []
    ends: list[int] = []
    # The candidates become Python ints a block at a time.
    for first in range(0, len(order), COVER_BLOCK_CANDIDATES):
        block = order[first : first + COVER_BLOCK_CANDIDATES]
        for a, L in zip(onset[block].tolist(), length[block].tolist()):
            i = bisect.bisect_right(starts, a)
            if (i and ends[i - 1] > a) or (i < len(starts) and starts[i] < a + L):
                continue
            starts.insert(i, a)
            ends.insert(i, a + L)
            midpoint_second = int((a + L // 2) // rate)
            strides[min(midpoint_second, n_seconds - 1)] += 1


class _GroupCover:
    """The greedy cover, run on each group of overlapping candidates alone
    as soon as no later candidate can join it.

    Candidates in different groups never overlap, so whether one is
    accepted depends only on the candidates of its group, in the cover's
    order: the cover of each group alone accepts what the cover of all
    candidates accepts.  A group, in onset order, ends where an onset lies
    at or past the end of every earlier stride; it is closed once its
    furthest stride end is at most the smallest onset that any scan can
    still return.  Only the candidates of open groups are held.
    """

    def __init__(self, strides: np.ndarray, rate: float) -> None:
        self.strides, self.rate = strides, rate
        self.runs: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self.first_end = math.inf  # the smallest stride end held

    def add(self, onset: np.ndarray, length: int, corr: np.ndarray) -> None:
        """Hold candidates of one stride ``length``, sorted by onset."""
        if len(onset):
            self.runs.append((onset, np.full(len(onset), length), corr))
            self.first_end = min(self.first_end, int(onset[0]) + length)

    def close(self, bound: float) -> None:
        """Cover every held group whose strides all end at or before
        ``bound``, the smallest onset a later candidate can have."""
        if not self.runs or self.first_end > bound:  # no stride has ended
            return
        onset, length, corr = (np.concatenate(a) for a in zip(*self.runs))
        order = np.argsort(onset, kind="stable")
        onset, length, corr = onset[order], length[order], corr[order]
        end = np.maximum.accumulate(onset + length)
        # the groups before candidate c are closed if c starts a group and
        # end[c - 1] <= bound; end rises, so the last such c is the cut
        k = int(np.searchsorted(end, bound, side="right"))
        if k == len(onset):
            c = k
        else:
            starts_group = np.flatnonzero(onset[1 : k + 1] >= end[:k])
            c = int(starts_group[-1]) + 1 if len(starts_group) else 0
        _greedy_cover(onset[:c], length[:c], corr[:c], self.strides, self.rate)
        self.runs = [(onset[c:], length[c:], corr[c:])]
        self.first_end = int((onset[c:] + length[c:]).min()) if c < len(onset) else math.inf


def detect_steps_template(
    vm: UniformSeries, params: TemplateParams | None = None, name: str = "template"
) -> StepSeries:
    """Match scaled stride templates and count two steps per accepted stride.

    Every template is rescaled to every stride duration on the grid and
    correlated (normalized cross-correlation) against the magnitude signal.
    Candidate strides sit at local maxima of the smoothed correlation
    profile whose raw correlation clears the threshold; the moving-average
    smoothing merges jittery double maxima without diluting the matching
    score.  Candidates are accepted greedily by descending correlation
    (ties break toward the earlier onset, then the shorter stride) with
    overlapping strides discarded.  Each accepted stride contributes 2
    steps, booked at the second containing the stride midpoint.

    The search walks the signal in batches of whole overlap-save blocks,
    batches outer and lengths inner (``_correlation_batches``): each batch's
    prefix sums serve every length, each length's signal transforms serve
    all its templates, and each (length, template) profile is scanned for
    candidates as its batches come (``_OnsetScan``).  The prefix sums and the
    smoothing's running sums are carried exactly across batches, so the
    candidates are those of a whole-signal search, bit for bit.  The cover
    runs on each group of overlapping candidates as the group closes
    (``_GroupCover``), so besides the magnitude it reads and the per-second
    counts, only the candidates of the open groups outlive a batch: memory
    grows with the longest walking bout, not with the recording.
    """
    params = params or TemplateParams()
    rate = vm.sample_rate_hz
    n = len(vm)
    n_seconds = int(math.ceil(n / rate))
    if n == 0:
        return StepSeries(name, np.zeros(0))
    # An odd window of 2*half + 1 offsets (the nominal width rounded up to
    # odd) keeps the smoothed profile's maxima centered on symmetric peaks.
    half = max(1, int(round(params.smoothing_window_seconds * rate))) // 2

    # A length repeated on the grid would only repeat its candidates.
    grid = dict.fromkeys(int(round(d * rate)) for d in params.stride_grid_seconds)
    stride_lengths = [L for L in grid if 4 <= L <= n]
    stacks = [
        np.array([normalized_template(t, L) for t in params.templates])
        for L in stride_lengths
    ]
    scans = [
        [_OnsetScan(n - L + 1, params.correlation_threshold, half) for _ in params.templates]
        for L in stride_lengths
    ]
    # accepted strides per second, as the smallest integer type that can
    # hold them: strides are disjoint, so a second holds few midpoints
    shortest = min(stride_lengths, default=n)
    strides = np.zeros(n_seconds, np.min_scalar_type(int(rate) // shortest + 2))
    cover = _GroupCover(strides, rate)
    previous = len(stride_lengths)
    for i, _, r in _correlation_batches(vm.values, stacks):
        if i <= previous:  # a batch begins: cover what the last one settled
            cover.close(min(scan.next_onset for row in scans for scan in row))
        previous = i
        for scan, row in zip(scans[i], r):
            onset, corr = scan.feed(row)
            cover.add(onset, stride_lengths[i], corr)
    cover.close(math.inf)
    # Two steps per stride; whole numbers, so the float sums of booking 2.0
    # per stride.
    return StepSeries(name, np.multiply(strides, 2.0, dtype=np.float64))


#: The parameters of any detector; their class picks the detector.
DetectorParams = PeakParams | SpectralParams | TemplateParams

#: The built-in detectors: each name and the class of its parameters.  The
#: two peak presets run one peak detector; ``peak_revised`` is a named slot
#: for a revised preset and holds the original parameters until configured.
DETECTORS: dict[str, type] = {
    "peak_original": PeakParams,
    "peak_revised": PeakParams,
    "spectral": SpectralParams,
    "template": TemplateParams,
}


def detect(vm: UniformSeries, params: DetectorParams, name: str) -> StepSeries:
    """Run the detector that ``params`` tunes, naming its series ``name``.

    The detector is looked up in this module at call time, so a patched
    module attribute is the one called.
    """
    if isinstance(params, PeakParams):
        fn = detect_steps_peak
    elif isinstance(params, SpectralParams):
        fn = detect_steps_spectral
    else:
        fn = detect_steps_template
    return fn(vm, params, name)


class DetectorRun(NamedTuple):
    """Fan-out result: per-minute steps per detector plus timing and errors."""

    minutes: dict[str, np.ndarray]
    timings_s: dict[str, float]
    errors: dict[str, str]


def run_detectors(
    vm: UniformSeries,
    params: Mapping[str, DetectorParams],
    n_minutes: int | None = None,
) -> DetectorRun:
    """Run the detector of every named parameter object on one signal.

    A detector raising an exception is isolated: its error message is
    recorded and the remaining detectors still run.  Wall-clock time is
    recorded per detector.  A name whose parameter object is an earlier
    name's runs nothing; it takes that name's minutes (or error).
    """
    if not params:
        raise ValueError("run_detectors needs at least one detector")
    minutes: dict[str, np.ndarray] = {}
    timings: dict[str, float] = {}
    errors: dict[str, str] = {}
    first_name: dict[int, str] = {}
    for dname, p in params.items():
        t0 = time.perf_counter()
        first = first_name.setdefault(id(p), dname)
        if first != dname:
            if first in errors:
                errors[dname] = errors[first]
            else:
                minutes[dname] = minutes[first]
            timings[dname] = time.perf_counter() - t0
            continue
        try:
            result = detect(vm, p, dname)
        except Exception as exc:  # noqa: BLE001 - detector isolation by contract
            errors[dname] = f"{type(exc).__name__}: {exc}"
            timings[dname] = time.perf_counter() - t0
            continue
        timings[dname] = time.perf_counter() - t0
        minutes[dname] = per_second_to_minutes(result.steps_per_second, n_minutes)
        del result  # the per-seconds are not held while the next detector runs
    return DetectorRun(minutes, timings, errors)

"""Open-source-style step detectors over the vector-magnitude signal.

Three families are implemented:

* peak detection with periodicity / similarity / continuity screening
  (``detect_steps_peak``),
* windowed spectral cadence estimation (``detect_steps_spectral``),
* scaled template matching with greedy stride selection
  (``detect_steps_template``).

Every detector maps a vector-magnitude series to a per-second step series.
``DETECTORS`` names the built-in detectors and their parameter classes;
``detect`` runs the detector of a parameter object, and ``run_detectors``
fans one signal out to named parameter objects and aggregates to minutes.
"""

from __future__ import annotations

import bisect
import math
import time
from dataclasses import dataclass, field
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import fft as scipy_fft

from .dsp import (
    UniformSeries,
    power_spectrum,
    resample_linear,
    sliding_windows,
)


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


def detect_steps_peak(
    vm: UniformSeries, params: PeakParams | None = None, name: str = "peak"
) -> StepSeries:
    """Count steps from screened vector-magnitude peaks.

    Candidate peaks are samples strictly greater than every neighbor within
    ``k_neighbors``; candidates survive magnitude, inter-peak period, and
    amplitude-similarity screens in sequence, and finally the trailing
    continuity (local variance) test.  Surviving peaks are bucketed per
    second.
    """
    params = params or PeakParams()
    if vm.sample_rate_hz < params.target_hz:
        raise ValueError("vm rate must be at least the detector target rate")
    if len(vm) == 0:
        return StepSeries(name, np.zeros(0))
    if vm.sample_rate_hz != params.target_hz:
        vm = resample_linear(vm, params.target_hz)
    values = vm.values
    counts = np.zeros(int(math.ceil(len(values) / params.target_hz)))

    locs = _strict_local_maxima(values, params.k_neighbors)
    locs = locs[values[locs] > params.mag_threshold_g]

    # Inter-peak period screen: gap to the previous candidate, kept or not,
    # so counting resumes after a pause (Verisense, Gu et al. 2017).  The
    # first candidate has no period to screen.
    gaps = np.diff(locs)
    keep = np.ones(len(locs), dtype=bool)
    keep[1:] = (params.period_min_samples <= gaps) & (gaps <= params.period_max_samples)
    locs = locs[keep]

    # Amplitude-similarity screen against the previous surviving peak.
    kept: list[int] = []
    for loc in locs:
        if kept and abs(values[loc] - values[kept[-1]]) > params.similarity_threshold_g:
            continue
        kept.append(int(loc))
    locs = np.asarray(kept, dtype=np.intp)

    if len(locs) == 0:
        return StepSeries(name, counts)

    # Continuity: prefix sums give O(1) variance of each inter-peak window.
    csum = np.concatenate(([0.0], np.cumsum(values)))
    csum2 = np.concatenate(([0.0], np.cumsum(values * values)))

    def window_passes(a: int, b: int) -> bool:
        length = b - a + 1
        total = csum[b + 1] - csum[a]
        total2 = csum2[b + 1] - csum2[a]
        var = total2 / length - (total / length) ** 2
        return var > params.variance_threshold_g2

    passes = [
        window_passes(locs[i - 1], locs[i]) for i in range(1, len(locs))
    ]
    for i in range(len(locs)):
        if i < params.continuity_required:
            continue
        recent = passes[i - params.continuity_required : i]
        if sum(recent) > params.continuity_window:
            second = int(locs[i] // params.target_hz)
            counts[second] += 1.0
    return StepSeries(name, counts)


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


def detect_steps_spectral(
    vm: UniformSeries, params: SpectralParams | None = None, name: str = "spectral"
) -> StepSeries:
    """Estimate cadence per window from the dominant in-band spectral peak.

    Non-overlapping windows are screened by standard deviation, then the
    periodogram peak inside the cadence band must stand out against the
    median in-band power by ``prominence_ratio``.  When the sub-harmonic at
    half the peak frequency carries more power, the cadence drops to it
    (arm-swing dominance).  Steps per window are cadence times window
    length, spread uniformly over its seconds.
    """
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
        fresh = values[hi:stop]
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
            seg[: b - a + L - 1] = values[a : b + L - 1]
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
    candidates are those of a whole-signal search, bit for bit.  Besides the
    magnitude it reads, only the candidates outlive a batch.
    """
    params = params or TemplateParams()
    rate = vm.sample_rate_hz
    values = vm.values
    n = len(values)
    n_seconds = int(math.ceil(n / rate))
    counts = np.zeros(n_seconds)
    if n == 0:
        return StepSeries(name, counts)
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
    onsets, lengths, corrs = [], [], []
    for i, _, r in _correlation_batches(values, stacks):
        for scan, row in zip(scans[i], r):
            onset, corr = scan.feed(row)
            onsets.append(onset)
            corrs.append(corr)
            lengths.append(np.full(len(onset), stride_lengths[i]))
    if not onsets:
        return StepSeries(name, counts)

    onset, length, corr = (np.concatenate(a) for a in (onsets, lengths, corrs))
    del onsets, lengths, corrs
    # Near-equal correlations count as ties so the earlier onset wins;
    # quantizing at 0.01 keeps phase-ambiguous candidates from shuffling.
    order = np.lexsort((length, onset, -np.round(corr / 0.01)))
    del corr
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
            # Two steps per stride, bucketed at the second holding its midpoint.
            midpoint_second = int((a + L // 2) // rate)
            counts[min(midpoint_second, n_seconds - 1)] += 2.0
    return StepSeries(name, counts)


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
    return DetectorRun(minutes, timings, errors)

"""The block-wise peak detector against the whole-array detector.

``whole_array_detect_steps_peak`` below is the detector as it was before it
screened the signal a block at a time: one resampled array, whole-signal
prefix sums, and the similarity and continuity screens as loops over every
peak.  The library's version carries its state across blocks
(``detectors._PeakScan``), so it must give bitwise-equal per-second steps
wherever the blocks split the signal: at candidates, inside continuity
windows, or down to one sample per block.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stepforge import dsp
from stepforge.detectors import (
    PeakParams,
    StepSeries,
    _PeakScan,
    _strict_local_maxima,
    detect_steps_peak,
)
from stepforge.dsp import MagnitudeView, UniformSeries
from stepforge.simulate import GaitSegment, gen_gait

# ------------------------------------------------------------------ oracle --


def c_pow_square(mean: np.float64) -> np.float64:
    return mean**2


def whole_array_counts(
    values: np.ndarray, params: PeakParams, square=c_pow_square
) -> np.ndarray:
    counts = np.zeros(int(math.ceil(len(values) / params.target_hz)))
    locs = _strict_local_maxima(values, params.k_neighbors)
    locs = locs[values[locs] > params.mag_threshold_g]
    gaps = np.diff(locs)
    keep = np.ones(len(locs), dtype=bool)
    keep[1:] = (params.period_min_samples <= gaps) & (gaps <= params.period_max_samples)
    locs = locs[keep]
    kept: list[int] = []
    for loc in locs:
        if kept and abs(values[loc] - values[kept[-1]]) > params.similarity_threshold_g:
            continue
        kept.append(int(loc))
    locs = np.asarray(kept, dtype=np.intp)
    if len(locs) == 0:
        return counts
    csum = np.concatenate(([0.0], np.cumsum(values)))
    csum2 = np.concatenate(([0.0], np.cumsum(values * values)))

    def window_passes(a: int, b: int) -> bool:
        length = b - a + 1
        total = csum[b + 1] - csum[a]
        total2 = csum2[b + 1] - csum2[a]
        var = total2 / length - square(total / length)
        return var > params.variance_threshold_g2

    passes = [window_passes(locs[i - 1], locs[i]) for i in range(1, len(locs))]
    for i in range(len(locs)):
        if i < params.continuity_required:
            continue
        recent = passes[i - params.continuity_required : i]
        if sum(recent) > params.continuity_window:
            second = int(locs[i] // params.target_hz)
            counts[second] += 1.0
    return counts


def whole_array_detect_steps_peak(
    vm: UniformSeries, params: PeakParams | None = None, name: str = "peak"
) -> StepSeries:
    params = params or PeakParams()
    if vm.sample_rate_hz < params.target_hz:
        raise ValueError("vm rate must be at least the detector target rate")
    values = np.asarray(vm.values[: len(vm)], dtype=np.float64)
    if len(values) == 0:
        return StepSeries(name, np.zeros(0))
    if vm.sample_rate_hz != params.target_hz:
        n, rate, target = len(values), vm.sample_rate_hz, params.target_hz
        n_out = max(1, int(round(n * target / rate)))
        values = np.interp(np.arange(n_out) / target, np.arange(n) / rate, values)
    return StepSeries(name, whole_array_counts(values, params))


def window_variances(values: np.ndarray, k: int, square=c_pow_square) -> list[float]:
    """The variance the continuity screen computes for the window between
    each pair of consecutive local maxima, so thresholds can tie with them."""
    locs = _strict_local_maxima(values, k)
    csum = np.concatenate(([0.0], np.cumsum(values)))
    csum2 = np.concatenate(([0.0], np.cumsum(values * values)))
    out = []
    for a, b in zip(locs[:-1], locs[1:]):
        length = b - a + 1
        total, total2 = csum[b + 1] - csum[a], csum2[b + 1] - csum2[a]
        out.append(float(total2 / length - square(total / length)))
    return out


# -------------------------------------------------------------- strategies --

#: Peak heights and rest levels on a coarse grid, so the magnitude threshold
#: (1.2) and the similarity threshold (0.5) tie exactly with their gaps.
LEVELS = [0.5, 0.7, 1.0, 1.2, 1.25, 1.5, 1.7, 1.75, 2.0, 2.2]


@st.composite
def signals(draw) -> np.ndarray:
    """Rests, single peaks and runs of peaks at periods at and around the
    screen's bounds, at the 15 Hz target rate."""
    pieces = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["rest", "peak", "run", "noise"]))
        if kind == "rest":
            pieces.append(np.full(draw(st.integers(1, 40)), draw(st.sampled_from(LEVELS))))
        elif kind == "peak":
            pieces.append(np.array([1.0, draw(st.sampled_from(LEVELS)), 1.0]))
        elif kind == "run":
            period = draw(st.integers(2, 17))
            for _ in range(draw(st.integers(1, 12))):
                piece = np.full(period, draw(st.sampled_from([0.5, 1.0])))
                piece[period // 2] = draw(st.sampled_from(LEVELS))
                pieces.append(piece)
        else:
            seed = draw(st.integers(0, 2**16))
            n = draw(st.integers(1, 120))
            t = np.arange(n) / 15.0
            cadence = draw(st.floats(1.0, 3.0))
            pieces.append(
                1.0 + 0.5 * np.sin(2 * np.pi * cadence * t)
                + np.random.default_rng(seed).normal(0.0, 0.05, n)
            )
    return np.concatenate(pieces)


@st.composite
def peak_params(draw, values: np.ndarray) -> PeakParams:
    k = draw(st.integers(1, 3))
    low = draw(st.integers(1, 8))
    variances = window_variances(values, k)
    variance = draw(
        st.sampled_from(variances) if variances and draw(st.booleans())
        else st.sampled_from([1e-3, 1e-2, 0.05])
    )
    return PeakParams(
        k_neighbors=k,
        period_min_samples=low,
        period_max_samples=draw(st.integers(low + 1, 16)),
        continuity_window=draw(st.integers(1, 4)),
        continuity_required=draw(st.integers(1, 5)),
        variance_threshold_g2=max(variance, 1e-12),
    )


# ------------------------------------------------------------------- tests --


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_scan_matches_the_whole_array_at_any_split(data):
    """The scan fed in pieces split at random points, at candidates and
    around them (inside continuity windows), against the whole array."""
    values = data.draw(signals())
    params = data.draw(peak_params(values))
    n = len(values)
    cuts = set(data.draw(st.lists(st.integers(0, n), max_size=8)))
    maxima = _strict_local_maxima(values, params.k_neighbors).tolist()
    if maxima:
        near = st.tuples(st.sampled_from(maxima), st.integers(-4, 4))
        cuts |= {m + d for m, d in data.draw(st.lists(near, max_size=8)) if 0 <= m + d <= n}
    if data.draw(st.booleans()):
        cuts |= set(range(0, n, data.draw(st.integers(1, 5))))
    bounds = sorted(cuts | {0, n})
    scan = _PeakScan(params, int(math.ceil(n / params.target_hz)))
    for a, b in zip(bounds[:-1], bounds[1:]):
        if b > a:
            scan.feed(values[a:b].copy())
    want = whole_array_counts(values, params)
    assert scan.counts.astype(np.float64).tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    rate=st.one_of(st.sampled_from([15.0, 30.0, 80.0, 100.0]), st.floats(15.0, 100.0)),
    seconds=st.integers(1, 90),
    cadence=st.floats(1.4, 2.4),
    block=st.sampled_from([1, 2, 7, 64, 1000, dsp.BLOCK_SAMPLES]),
    view=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_detector_matches_the_whole_array(rate, seconds, cadence, block, view, seed):
    """Gait at rates of 15-100 Hz, resampled and screened in blocks down to
    one sample, from an array or from a magnitude view over the axes."""
    recipe = [GaitSegment("rest", min(5, seconds), noise_sd_g=0.02)]
    if seconds > 5:
        recipe.append(GaitSegment("walk", seconds - 5, cadence_hz=cadence,
                                  amplitude_g=0.35, noise_sd_g=0.02))
    rec, _ = gen_gait(recipe, sample_rate_hz=rate, seed=seed)
    whole = dsp.vector_magnitude(rec)
    want = whole_array_detect_steps_peak(whole, PeakParams())
    vm = MagnitudeView(rec) if view else whole
    with mock.patch.object(dsp, "BLOCK_SAMPLES", block):
        got = detect_steps_peak(vm, PeakParams())
    assert got.steps_per_second.tobytes() == want.steps_per_second.tobytes()
    assert whole.values.tobytes() == dsp.vector_magnitude(rec).values.tobytes()


def test_short_and_empty_signals():
    for n in range(0, 9):
        values = np.linspace(1.0, 2.0, n) ** 2
        vm = UniformSeries(15.0, values)
        got = detect_steps_peak(vm, PeakParams(k_neighbors=1, mag_threshold_g=0.1))
        want = whole_array_detect_steps_peak(vm, PeakParams(k_neighbors=1, mag_threshold_g=0.1))
        assert got.steps_per_second.tobytes() == want.steps_per_second.tobytes()


def test_the_caller_array_is_not_written():
    """At the target rate the blocks are copies: the running sums, which
    write into the block, leave the caller's signal as it was."""
    rec, _ = gen_gait([GaitSegment("walk", 30, cadence_hz=2.0, amplitude_g=0.35)],
                      sample_rate_hz=15.0, seed=3)
    vm = dsp.vector_magnitude(rec)
    before = vm.values.tobytes()
    detect_steps_peak(vm, PeakParams())
    assert vm.values.tobytes() == before


def test_the_square_is_c_pow():
    """The continuity variance squares the window mean as a numpy scalar does
    (C ``pow``), which on this host differs from an array's ``x * x`` in the
    last bit for some means.  A threshold equal to such a window's variance
    makes that bit decide the count; the scan must match the scalar square."""
    params = dict(k_neighbors=1, mag_threshold_g=1.2, period_min_samples=1,
                  period_max_samples=10, similarity_threshold_g=10.0,
                  continuity_window=1, continuity_required=2)
    rng = np.random.default_rng(0)
    found = 0
    for _ in range(20_000):
        values = np.ones(40)
        values[1::2] = rng.uniform(1.3, 3.0) + rng.normal(0.0, 0.01, 20)
        c_pow = window_variances(values, 1)
        x_times_x = window_variances(values, 1, square=lambda m: m * m)
        flips = [v for v, w in zip(c_pow, x_times_x) if w > v]
        if not flips:
            continue
        p = PeakParams(**{**params, "variance_threshold_g2": flips[0]})
        want = whole_array_counts(values, p)
        if want.tobytes() == whole_array_counts(values, p, np.square).tobytes():
            continue
        found += 1
        for piece in (1, 3, 40):
            scan = _PeakScan(p, int(math.ceil(len(values) / p.target_hz)))
            for i in range(0, len(values), piece):
                scan.feed(values[i : i + piece].copy())
            assert scan.counts.astype(np.float64).tobytes() == want.tobytes()
        if found == 3:
            return
    raise AssertionError("no mean found whose two squares decide a count")

"""The batched template search against the whole-array detector.

``whole_array_detect_steps_template`` below is the detector as it was before
the search walked the signal in batches: whole-signal prefix sums, one whole
profile per template for each length, and the smoothing's running sum over a
whole profile.  The library's version carries the prefix sums, the running
sums and the candidates' local-maximum test across batches, so it must give
bitwise-equal per-second steps, or raise the same exception with the same
text, whatever ``CORRELATION_BATCH_SAMPLES`` is.
"""

from __future__ import annotations

import bisect
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy import fft as scipy_fft

from stepforge import detectors
from stepforge.detectors import (
    StepSeries,
    TemplateParams,
    _default_templates,
    detect_steps_template,
    normalized_template,
)
from stepforge.dsp import UniformSeries, vector_magnitude
from stepforge.simulate import GaitSegment, gen_gait

# ------------------------------------------------------------------ oracle --

ORACLE_BATCH_SAMPLES = 2**15


def _window_norms(csum, csum2, L):
    seg_sum = csum[L:] - csum[:-L]
    seg_sum2 = csum2[L:] - csum2[:-L]
    seg_sum *= seg_sum
    seg_sum /= L
    seg_sum2 -= seg_sum
    np.maximum(seg_sum2, 0.0, out=seg_sum2)
    return np.sqrt(seg_sum2, out=seg_sum2)


def _normalized_correlations(values, templates, csum, csum2):
    n_templates, L = templates.shape
    nfft = scipy_fft.next_fast_len(max(1024, 4 * L), real=True)
    step = nfft - L + 1
    kernel = scipy_fft.rfft(templates[:, ::-1], nfft)[:, np.newaxis]
    m = len(values) - L + 1
    r = np.empty((n_templates, m))
    per_batch = max(1, ORACLE_BATCH_SAMPLES // step) * step
    for a in range(0, m, per_batch):
        b = min(a + per_batch, m)
        seg = np.zeros(-(-(b - a) // step) * step + L - 1)
        seg[: b - a + L - 1] = values[a : b + L - 1]
        blocks = sliding_window_view(seg, nfft)[::step]
        full = scipy_fft.irfft(scipy_fft.rfft(blocks) * kernel, nfft)
        out = r[:, a:b]
        out[:] = full[:, :, L - 1 :].reshape(n_templates, -1)[:, : b - a]
        denom = _window_norms(csum[a : b + L], csum2[a : b + L], L)
        with np.errstate(divide="ignore", invalid="ignore"):
            out /= denom
        out[:, ~(denom > 0)] = 0.0
        np.clip(out, -1.0, 1.0, out=out)
    return r


def _candidate_onsets(r, threshold, half):
    m = len(r)
    onsets = np.flatnonzero(r >= threshold)
    corr = r[onsets]
    if half:
        csum = np.cumsum(r, out=r)

        def smoothed(at):
            lo = np.maximum(at - half, 0)
            hi = np.minimum(at + half + 1, m)
            return (csum[hi - 1] - np.where(lo > 0, csum[lo - 1], 0.0)) / (hi - lo)

    else:
        smoothed = r.__getitem__
    here = smoothed(onsets)
    rise = (onsets == 0) | (here > smoothed(np.maximum(onsets - 1, 0)))
    fall = (onsets == m - 1) | (here >= smoothed(np.minimum(onsets + 1, m - 1)))
    keep = rise & fall
    return onsets[keep], corr[keep]


def whole_array_detect_steps_template(
    vm: UniformSeries, params: TemplateParams | None = None, name: str = "template"
) -> StepSeries:
    params = params or TemplateParams()
    rate = vm.sample_rate_hz
    values = vm.values
    n = len(values)
    n_seconds = int(math.ceil(n / rate))
    counts = np.zeros(n_seconds)
    if n == 0:
        return StepSeries(name, counts)
    half = max(1, int(round(params.smoothing_window_seconds * rate))) // 2

    csum = np.concatenate(([0.0], np.cumsum(values)))
    csum2 = np.concatenate(([0.0], np.cumsum(values * values)))
    onsets, lengths, corrs = [], [], []
    for L in dict.fromkeys(int(round(d * rate)) for d in params.stride_grid_seconds):
        if L < 4 or L > n:
            continue
        templates = np.array([normalized_template(t, L) for t in params.templates])
        r = _normalized_correlations(values, templates, csum, csum2)
        for row in r:
            onset, corr = _candidate_onsets(row, params.correlation_threshold, half)
            onsets.append(onset)
            corrs.append(corr)
            lengths.append(np.full(len(onset), L))
    if not onsets:
        return StepSeries(name, counts)

    onset, length, corr = (np.concatenate(a) for a in (onsets, lengths, corrs))
    order = np.lexsort((length, onset, -np.round(corr / 0.01)))
    starts: list[int] = []
    ends: list[int] = []
    for a, L in zip(onset[order].tolist(), length[order].tolist()):
        i = bisect.bisect_right(starts, a)
        if (i and ends[i - 1] > a) or (i < len(starts) and starts[i] < a + L):
            continue
        starts.insert(i, a)
        ends.insert(i, a + L)
        midpoint_second = int((a + L // 2) // rate)
        counts[min(midpoint_second, n_seconds - 1)] += 2.0
    return StepSeries(name, counts)


# ------------------------------------------------------------------ helpers --


def outcome(detector, vm, params):
    """The per-second steps as bytes, or the exception's type and text."""
    try:
        result = detector(vm, params)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)
    return result.steps_per_second.dtype, result.steps_per_second.tobytes()


def assert_same_as_whole_array(vm, params, batch, cover_block=2**12):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(detectors, "CORRELATION_BATCH_SAMPLES", batch)
        mp.setattr(detectors, "COVER_BLOCK_CANDIDATES", cover_block)
        got = outcome(detect_steps_template, vm, params)
    assert got == outcome(whole_array_detect_steps_template, vm, params)


def seconds_for(samples: int, rate: float) -> float:
    """A duration or width that rounds back to ``samples`` at ``rate``."""
    return samples / rate


@st.composite
def batched_cases(draw):
    """A magnitude signal, template settings, a batch size and a block of the
    greedy cover.

    Lengths are drawn in samples so that ``n`` can sit near one of them; the
    smoothing half-width is drawn in offsets, up to several blocks; the batch
    is down to one block (any value below a block's step gives one).
    """
    rate = draw(st.one_of(st.sampled_from([10.0, 12.5, 25.0, 50.0, 80.0, 100.0]),
                          st.floats(10.0, 100.0)))
    lengths = draw(st.lists(st.integers(4, 200), min_size=1, max_size=4))
    shape = draw(st.sampled_from(["near a length", "a few blocks", "short"]))
    if shape == "near a length":
        n = max(0, draw(st.sampled_from(lengths)) + draw(st.integers(-2, 3)))
    elif shape == "a few blocks":
        n = draw(st.integers(1000, 6000))
    else:
        n = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        # exact repeats of a stride shape: correlations of exactly 1
        stride = draw(st.sampled_from(lengths))
        shape_t = normalized_template(_default_templates()[draw(st.integers(0, 1))], stride)
        values = 1.0 + 0.3 * np.resize(shape_t, n)
    else:
        cadence = draw(st.floats(0.5, 3.0))
        values = 1.0 + draw(st.floats(0.0, 0.5)) * np.sin(
            2.0 * np.pi * cadence * np.arange(n) / rate + draw(st.floats(0.0, 6.3))
        )
    values = values + draw(st.sampled_from([0.0, 0.01, 0.2])) * rng.normal(size=n)
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, max(n - 1, 0)))
        values[start : start + draw(st.integers(0, n))] = draw(st.sampled_from([0.0, 1.0]))
    if draw(st.booleans()):
        values = np.round(values, 1)  # equal smoothed values: ties in the maxima

    half = draw(st.one_of(st.integers(0, 3), st.integers(0, 60), st.integers(800, 5000)))
    kwargs = {
        "stride_grid_seconds": tuple(seconds_for(L, rate) for L in lengths),
        "smoothing_window_seconds": 0.0 if half == 0 else seconds_for(2 * half, rate),
        "correlation_threshold": draw(
            st.one_of(st.sampled_from([0.3, 0.7, 1.0]), st.floats(0.05, 1.0))
        ),
    }
    if draw(st.booleans()):
        kwargs["templates"] = tuple(
            normalized_template(rng.normal(size=draw(st.integers(4, 40))), 16)
            for _ in range(draw(st.integers(1, 3)))
        )
    batch = draw(st.one_of(st.just(1), st.integers(1, 3000), st.just(2**15)))
    cover_block = draw(st.sampled_from([1, 3, 2**12]))
    return UniformSeries(rate, values), TemplateParams(**kwargs), batch, cover_block


# -------------------------------------------------------------------- tests --


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(batched_cases())
def test_bitwise_equal_to_whole_array_or_same_error(case):
    assert_same_as_whole_array(*case)


def test_drawn_half_widths_round_back():
    for rate in (10.0, 12.5, 33.3, 80.0, 100.0):
        for half in (1, 2, 7, 40, 4999):
            width = seconds_for(2 * half, rate)
            assert max(1, int(round(width * rate))) // 2 == half


@pytest.mark.parametrize("batch", [1, 5_000, 2**15])
def test_walking_recording_at_80_hz(batch):
    """20 minutes of 80 Hz walking and rest with the default settings, and
    with a smoothing window of 30 s, past one batch of one block."""
    recipe = []
    for cadence in (1.6, 2.1, 1.85):
        recipe.append(GaitSegment("walk", 300, cadence_hz=cadence, amplitude_g=0.35,
                                  noise_sd_g=0.05))
        recipe.append(GaitSegment("rest", 100, noise_sd_g=0.02))
    rec, _ = gen_gait(recipe, sample_rate_hz=80.0, seed=23)
    vm = vector_magnitude(rec)
    for params in (TemplateParams(), TemplateParams(smoothing_window_seconds=30.0)):
        assert_same_as_whole_array(vm, params, batch)


def test_batch_ending_one_offset_before_the_profile_end():
    """One length, and a first batch that ends at offset ``m - 1``: the
    onsets next to the end wait for the last offset's batch."""
    L = 8
    step = scipy_fft.next_fast_len(max(1024, 4 * L), real=True) - L + 1
    n = L + 2 * step  # offsets 0 .. 2 * step: two whole blocks and one offset
    values = 1.0 + 0.3 * np.random.default_rng(5).standard_normal(n)
    params = TemplateParams(stride_grid_seconds=(L / 20.0,), correlation_threshold=0.05)
    assert_same_as_whole_array(UniformSeries(20.0, values), params, n - 1)

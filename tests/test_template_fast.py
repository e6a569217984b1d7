"""The template detector's search against the whole-profile reference.

``reference_detect_steps_template`` below is the detector as it was before
its search was restructured (prefix sums per (template, length), the full
smoothed profile, a Python-sorted greedy cover over a boolean mask).  The
library's version must give bitwise-equal per-second steps, or raise the
same exception with the same text.  The reference reads the library's
correlation profile (``_correlation_batches``, one length at a time over the
whole signal), so this checks the search: smoothing, maxima, threshold and
cover.  That the overlap-save profile agrees with ``np.correlate`` is
checked to within its tolerance in ``tests/test_overlap_save.py``; on flat
stretches their last bits differ, and with a wide smoothing window that can
move a maximum.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from stepforge import detectors
from stepforge.detectors import (
    CORRELATION_BATCH_SAMPLES,
    StepSeries,
    TemplateParams,
    _correlation_batches,
    _default_templates,
    detect_steps_template,
    normalized_template,
)
from stepforge.dsp import UniformSeries, vector_magnitude
from stepforge.simulate import GaitSegment, gen_gait


# --------------------------------------------------------------- reference --


def moving_average(values: np.ndarray, width: int) -> np.ndarray:
    """Centered moving average with edge windows shrunk to the available span."""
    if width < 1:
        raise ValueError("width must be at least 1")
    n = len(values)
    if n == 0 or width == 1:
        return np.asarray(values, dtype=np.float64).copy()
    half_left = (width - 1) // 2
    half_right = width // 2
    csum = np.concatenate(([0.0], np.cumsum(values, dtype=np.float64)))
    idx = np.arange(n)
    lo = np.maximum(idx - half_left, 0)
    hi = np.minimum(idx + half_right + 1, n)
    return (csum[hi] - csum[lo]) / (hi - lo)


def _library_profiles(values: np.ndarray, templates: np.ndarray) -> np.ndarray:
    """The library's normalized correlation profile of each template row."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(detectors, "CORRELATION_BATCH_SAMPLES", len(values))
        ((_, _, r),) = _correlation_batches(values, [templates])
    return r


def reference_detect_steps_template(
    vm: UniformSeries, params: TemplateParams | None = None, name: str = "template"
) -> StepSeries:
    params = params or TemplateParams()
    rate = vm.sample_rate_hz
    n = len(vm)
    n_seconds = int(math.ceil(n / rate))
    counts = np.zeros(n_seconds)
    if n == 0:
        return StepSeries(name, counts)
    # Odd width keeps the smoothed profile's maxima centered on symmetric peaks.
    width = max(1, int(round(params.smoothing_window_seconds * rate)))
    if width % 2 == 0:
        width += 1

    candidates: list[tuple[float, int, int]] = []  # (corr, onset, length)
    for duration in params.stride_grid_seconds:
        L = int(round(duration * rate))
        if L < 4 or L > n:
            continue
        profiles = _library_profiles(
            vm.values, np.array([normalized_template(t, L) for t in params.templates])
        )
        for r in profiles:
            r_loc = moving_average(r, width)
            # Rising-edge plateau convention: strict rise in, soft fall out.
            is_max = np.ones(len(r), dtype=bool)
            if len(r) >= 2:
                is_max[1:] &= r_loc[1:] > r_loc[:-1]
                is_max[:-1] &= r_loc[:-1] >= r_loc[1:]
            is_max &= r >= params.correlation_threshold
            for onset in np.nonzero(is_max)[0]:
                candidates.append((float(r[onset]), int(onset), L))

    # Near-equal correlations count as ties so the earlier onset wins;
    # quantizing at 0.01 keeps phase-ambiguous candidates from shuffling.
    candidates.sort(key=lambda c: (-round(c[0] / 0.01), c[1], c[2]))
    covered = np.zeros(n, dtype=bool)
    for corr, onset, L in candidates:
        if covered[onset : onset + L].any():
            continue
        covered[onset : onset + L] = True
        # Two steps per stride, bucketed at the second holding its midpoint.
        midpoint_second = int((onset + L // 2) // rate)
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


def assert_same_as_reference(vm, params):
    got = outcome(detect_steps_template, vm, params)
    want = outcome(reference_detect_steps_template, vm, params)
    assert got == want


def unit_template(rng, n_points):
    t = rng.normal(size=n_points)
    t -= t.mean()
    return t / np.linalg.norm(t)


RATES = st.sampled_from([10.0, 12.5, 16.0, 20.0, 25.0, 31.25, 40.0, 50.0, 64.0, 80.0])
DURATIONS = st.one_of(
    st.sampled_from([0.05, 0.1, 0.3, 0.4, 0.5, 0.7, 0.8, 1.0, 1.1, 1.5, 2.0, 40.0]),
    st.floats(0.05, 3.0),
)


@st.composite
def template_cases(draw):
    rate = draw(st.one_of(RATES, st.floats(10.0, 80.0)))
    n = draw(st.one_of(st.integers(0, 12), st.integers(0, int(25 * rate))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = np.arange(n) / rate
    if draw(st.booleans()):
        # exact repeats of a stride shape: many correlations of exactly 1
        stride = draw(st.integers(4, 3 * int(rate)))
        shape = normalized_template(_default_templates()[draw(st.integers(0, 1))], stride)
        values = 1.0 + 0.3 * np.resize(shape, n)
    else:
        cadence = draw(st.floats(0.5, 3.0))
        values = 1.0 + draw(st.floats(0.0, 0.5)) * np.sin(
            2.0 * np.pi * cadence * t + draw(st.floats(0.0, 6.3))
        )
    values = values + draw(st.sampled_from([0.0, 0.01, 0.05, 0.2])) * rng.normal(size=n)
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, max(n - 1, 0)))
        values[start : start + draw(st.integers(0, n))] = draw(
            st.sampled_from([0.0, 1.0, 1.3])
        )
    if draw(st.booleans()):
        values = np.round(values, 1)  # forces correlation ties

    kwargs = {}
    if draw(st.booleans()):
        kwargs["stride_grid_seconds"] = tuple(draw(st.lists(DURATIONS, min_size=1, max_size=6)))
    if draw(st.booleans()):
        kwargs["templates"] = tuple(
            unit_template(rng, draw(st.integers(4, 40)))
            for _ in range(draw(st.integers(1, 4)))
        )
    kwargs["correlation_threshold"] = draw(
        st.one_of(st.sampled_from([0.3, 0.7, 1.0]), st.floats(0.05, 1.0))
    )
    kwargs["smoothing_window_seconds"] = draw(
        st.one_of(st.sampled_from([0.0, 0.01, 0.22, 1.0]), st.floats(0.0, 1.0))
    )
    return UniformSeries(rate, values), TemplateParams(**kwargs)


# -------------------------------------------------------------------- tests --


class TestTemplateSearchMatchesReference:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(template_cases())
    # Flat, then a step, then flat: overlap-save reads +-1e-17 where
    # np.correlate reads 0, and the 45-offset smoothing turns that into a
    # maximum at onset 23 for np.correlate only.
    @example(
        (
            UniformSeries(50.0, np.array([1.0] + [1.3] * 24 + [1.0] * 26)),
            TemplateParams(
                stride_grid_seconds=(0.1,),
                correlation_threshold=0.3,
                smoothing_window_seconds=0.875,
            ),
        )
    )
    def test_bitwise_equal_or_same_error(self, case):
        vm, params = case
        assert_same_as_reference(vm, params)

    def test_edge_cases(self):
        shape = normalized_template(_default_templates()[0], 8)
        tiled = 1.0 + 0.3 * np.tile(shape, 40)
        for values, params in [
            (np.zeros(0), TemplateParams()),
            (np.ones(3), TemplateParams()),
            (np.ones(400), TemplateParams()),  # constant: every denominator 0
            (tiled, TemplateParams(stride_grid_seconds=(0.4, 0.4, 0.41, 0.8))),
            (tiled, TemplateParams(correlation_threshold=1.0)),
            (tiled, TemplateParams(smoothing_window_seconds=0.0)),
            (np.round(tiled, 1), TemplateParams(stride_grid_seconds=(0.02, 0.4, 0.8, 99.0))),
            (tiled[:8], TemplateParams(stride_grid_seconds=(0.4,))),  # n == L
        ]:
            assert_same_as_reference(UniformSeries(20.0, values), params)

    @pytest.mark.parametrize(
        "params",
        [
            TemplateParams(),
            TemplateParams(
                stride_grid_seconds=(0.5, 0.7, 1.05, 1.3),
                templates=tuple(unit_template(np.random.default_rng(i), 32) for i in range(3)),
                correlation_threshold=0.3,
            ),
        ],
        ids=["default", "three_templates"],
    )
    def test_long_recording(self, params):
        # 4,500 s at 80 Hz: every length's profile spans ten or more batches.
        recipe = []
        for cadence in (1.7, 1.85, 2.04, 2.2, 1.55):
            recipe.append(GaitSegment("walk", 600, cadence_hz=cadence, amplitude_g=0.35,
                                      noise_sd_g=0.05))
            recipe.append(GaitSegment("rest", 300, noise_sd_g=0.02))
        rec, _ = gen_gait(recipe, sample_rate_hz=80.0, seed=17)
        vm = vector_magnitude(rec)
        assert len(vm) >= 10 * CORRELATION_BATCH_SAMPLES
        got = detect_steps_template(vm, params)
        want = reference_detect_steps_template(vm, params)
        assert got.total > 0
        assert got.steps_per_second.tobytes() == want.steps_per_second.tobytes()


class TestMovingAverage:
    """The reference smoothing itself, against a window-by-window mean."""

    def test_width_one_copy(self):
        v = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(moving_average(v, 1), v)

    def test_matches_naive_shrinking_window(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=41)
        for width in (3, 5, 9):
            got = moving_average(v, width)
            hl, hr = (width - 1) // 2, width // 2
            want = np.array(
                [v[max(0, i - hl) : min(len(v), i + hr + 1)].mean() for i in range(len(v))]
            )
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_bad_width(self):
        with pytest.raises(ValueError, match="width"):
            moving_average(np.zeros(3), 0)

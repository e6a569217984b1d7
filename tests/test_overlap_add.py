"""The template correlation's batched overlap-add against ``scipy.signal.oaconvolve``.

``_overlap_add_correlate`` copies oaconvolve's block length, block grid,
per-block transforms and head-plus-tail sums, so every output must be the
same float bit for bit (compared as ``int64``, so signed zeros count),
whatever the batch size.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as scipy_signal

from stepforge import detectors
from stepforge.detectors import _oa_block_size, _overlap_add_correlate


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def correlate_in_batches(values, templates, batch):
    """``_overlap_add_correlate`` with ``OA_BATCH_SAMPLES`` set to ``batch``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(detectors, "OA_BATCH_SAMPLES", batch)
        return _overlap_add_correlate(values, templates)


@st.composite
def correlation_cases(draw):
    """A signal whose length straddles a block edge, 1-4 templates of
    length 4-300 and a batch size that straddles a multiple of the block
    step.  Some signals carry a run of exact zeros, as a rest would."""
    L = draw(st.integers(4, 300))
    n_templates = draw(st.integers(1, 4))
    step = _oa_block_size(10**9, L) - (L - 1)
    n = draw(st.integers(1, 30)) * step + draw(st.integers(-3, 3))
    n = max(n, L)
    batch = max(1, draw(st.integers(0, 6)) * step + draw(st.integers(-2, 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = 1.0 + 0.3 * rng.standard_normal(n)
    if draw(st.booleans()):
        start = draw(st.integers(0, n - 1))
        values[start : start + draw(st.integers(1, 3 * L))] = 0.0
    templates = rng.standard_normal((n_templates, L))
    return values, templates, batch


@settings(max_examples=150, deadline=None)
@given(correlation_cases())
def test_equals_oaconvolve_bit_for_bit(case):
    values, templates, batch = case
    want = scipy_signal.oaconvolve(values[None], templates[:, ::-1], mode="valid", axes=1)
    assert same_bits(correlate_in_batches(values, templates, batch), want)


def test_detector_lengths_at_80_hz_and_every_batch_size():
    """The 12 stride lengths of the default grid over a 30-minute 80 Hz
    magnitude signal, with batches of one block up to the whole signal."""
    rng = np.random.default_rng(3)
    values = np.abs(1.0 + 0.35 * rng.standard_normal(144_000))
    for L in range(56, 145, 8):
        templates = rng.standard_normal((2, L))
        want = scipy_signal.oaconvolve(values[None], templates[:, ::-1], mode="valid", axes=1)
        for batch in (1, 37 * L, 256 * L, 2**15, len(values)):
            assert same_bits(correlate_in_batches(values, templates, batch), want), (L, batch)


def test_single_block_cases_keep_oaconvolve_fallback():
    """Where oaconvolve takes one FFT (a kernel at least half the signal,
    or one block covering it), so does the batched version."""
    rng = np.random.default_rng(4)
    for n, L in ((40, 20), (40, 40), (300, 100), (600, 120)):
        assert _oa_block_size(n, L) is None
        values = rng.standard_normal(n)
        templates = rng.standard_normal((2, L))
        want = scipy_signal.oaconvolve(values[None], templates[:, ::-1], mode="valid", axes=1)
        assert same_bits(_overlap_add_correlate(values, templates), want)

"""The template correlation's overlap-save loop against ``np.correlate``.

``_correlation_batches`` walks the signal in batches, extending the prefix
sums of the signal and of its square once per batch for every length, and
correlates and normalizes the whole blocks each batch covers.  Its profile
must match the direct correlation over whole-signal window norms to within
a few units in the last place of ``max|v| * ||t||_1``, be exactly 0 where a
window has no energy, and keep every bit whatever the batch size and
whichever other lengths share the walk, since every block and every prefix
sum is the one a whole-signal pass forms.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft as scipy_fft

from stepforge import detectors
from stepforge.detectors import _correlation_batches, _window_norms

#: Allowed numerator error, relative to ``max|v| * ||t||_1``.
RELATIVE_TOLERANCE = 1e-14


def block_step(L: int) -> int:
    """Signal samples per block of the correlation for length ``L``."""
    return scipy_fft.next_fast_len(max(1024, 4 * L), real=True) - L + 1


def correlate_in_batches(values, stacks, batch):
    """The whole profile of each template stack from ``_correlation_batches``
    with ``CORRELATION_BATCH_SAMPLES`` set to ``batch``."""
    parts = [[] for _ in stacks]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(detectors, "CORRELATION_BATCH_SAMPLES", batch)
        for i, a, r in _correlation_batches(values, stacks):
            # each length's batches come in order, with no gap
            assert a == sum(part.shape[1] for part in parts[i])
            parts[i].append(r.copy())
    return [np.concatenate(part, axis=1) for part in parts]


def assert_matches_direct(values, templates, got):
    L = templates.shape[1]
    csum = np.concatenate(([0.0], np.cumsum(values)))
    csum2 = np.concatenate(([0.0], np.cumsum(values * values)))
    denom = _window_norms(csum, csum2, L)
    live = denom > 0
    assert got.shape == (len(templates), len(values) - L + 1)
    assert np.all(got[:, ~live] == 0.0)
    assert np.all(np.abs(got) <= 1.0)
    for row, t in zip(got, templates):
        num = np.correlate(values, t, mode="valid")
        want = np.clip(num[live] / denom[live], -1.0, 1.0)
        # clipping is 1-Lipschitz, so the numerator's bound carries over
        err = np.abs(row[live] - want) * denom[live]
        scale = np.abs(values).max() * np.abs(t).sum()
        assert np.all(err <= RELATIVE_TOLERANCE * scale), err.max() / scale


@st.composite
def correlation_cases(draw):
    """A signal from one template length up to many blocks, 1-4 templates
    of length 4-300 and a batch size from 1 to past the whole signal.
    Some signals carry a run of exact zeros, as a rest would."""
    L = draw(st.integers(4, 300))
    n_templates = draw(st.integers(1, 4))
    step = block_step(L)
    shape = draw(st.sampled_from(["one offset", "under one block", "many blocks"]))
    if shape == "one offset":
        n = L
    elif shape == "under one block":
        n = draw(st.integers(L, step))
    else:
        n = max(L, draw(st.integers(1, 30)) * step + draw(st.integers(-3, 3)))
    batch = draw(st.one_of(st.integers(1, 6 * step), st.just(n), st.just(2 * n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = 1.0 + 0.3 * rng.standard_normal(n)
    if draw(st.booleans()):
        start = draw(st.integers(0, n - 1))
        values[start : start + draw(st.integers(1, 3 * L))] = 0.0
    templates = rng.standard_normal((n_templates, L))
    templates -= templates.mean(axis=1, keepdims=True)
    templates /= np.linalg.norm(templates, axis=1, keepdims=True)
    return values, templates, batch


@settings(max_examples=150, deadline=None)
@given(correlation_cases())
def test_matches_direct_correlation_at_any_batch_size(case):
    values, templates, batch = case
    (got,) = correlate_in_batches(values, [templates], batch)
    assert_matches_direct(values, templates, got)
    (whole,) = correlate_in_batches(values, [templates], len(values))
    assert got.tobytes() == whole.tobytes()


def test_detector_lengths_at_80_hz_and_every_batch_size():
    """The 12 stride lengths of the default grid over a 30-minute 80 Hz
    magnitude signal with a rest, walked together with batches of one block
    up to the whole signal, and each alone in one batch."""
    rng = np.random.default_rng(3)
    values = np.abs(1.0 + 0.35 * rng.standard_normal(144_000))
    values[50_000:60_000] = 0.0
    stacks = []
    for L in range(56, 145, 8):
        templates = rng.standard_normal((2, L))
        templates -= templates.mean(axis=1, keepdims=True)
        templates /= np.linalg.norm(templates, axis=1, keepdims=True)
        stacks.append(templates)
    alone = [correlate_in_batches(values, [t], len(values))[0] for t in stacks]
    for templates, whole in zip(stacks, alone):
        assert_matches_direct(values, templates, whole)
    for batch in (1, 37 * 56, 2**15, 3 * len(values)):
        for got, whole in zip(correlate_in_batches(values, stacks, batch), alone):
            assert got.tobytes() == whole.tobytes(), (whole.shape, batch)

"""Epoch-level activity summaries: activity counts (AC) and MIMS.

Both measures run per axis through a resample → band-pass → rectify stage
and then diverge: AC deadbands, clips, quantizes, and sums; MIMS integrates
the rectified curve and truncates tiny areas.  Axis results combine per
epoch.  Both return one value per epoch; the ``steps`` command stores them
as the ``ac`` and ``mims`` columns of a minute table.  They read each axis
only through ``len`` and contiguous slices, so the axes of an
``ingest.SpooledRecording``, temporary files or an SFG1 sidecar, serve too.
The filter's forward pass over an axis is spooled to a temporary file (see
``dsp.resampled_bandpass``), and each epoch is summed as the backward pass
returns its samples, so neither measure holds a whole filtered axis.
"""

from __future__ import annotations

import os
from typing import Iterable, Iterator

import numpy as np

from .dsp import resampled_bandpass
from .model import TriaxialRecording

#: Both measures sum whole 60-s epochs.
EPOCH_SECONDS = 60

#: ActiGraph-style activity counts: the rate each axis is resampled to, the
#: pass band, and the deadband, clip and quantum of the rectified signal.
AC_RESAMPLE_HZ = 30.0
AC_BAND_HZ = (0.25, 2.5)
AC_DEADBAND_G = 0.068
AC_CLIP_G = 2.13
AC_QUANTUM_G = 1.0 / 128.0

#: MIMS: the rate each axis is interpolated to, the pass band, and the
#: per-axis epoch area below which the area reads 0.  Saturated samples are
#: not extrapolated; inputs are assumed within the device dynamic range.
MIMS_INTERP_HZ = 100.0
MIMS_BAND_HZ = (0.2, 5.0)
MIMS_TRUNCATION_FLOOR = 1e-4


def _epoch_segments(
    blocks: Iterable[tuple[int, np.ndarray]], epoch_len: int, shared: bool
) -> Iterator[np.ndarray]:
    """The samples of each whole epoch of a series given as ``(start,
    block)`` pairs from its end back to its start, last epoch first.

    Epoch ``e`` holds samples ``e * epoch_len`` up to the next epoch's first
    sample, and that sample too when ``shared`` (where the series holds it),
    so a block's last epoch is carried into the next block with its boundary
    sample.  Trailing samples short of an epoch are skipped.  Every segment
    is one buffer, refilled from the blocks for the next epoch, so it is
    read, or changed in place, before the next is asked for.
    """
    buf = np.empty(epoch_len + shared)
    e = -2  # the epoch being filled; -2 until the series' length is known
    for start, block in blocks:
        stop = start + len(block)
        if e == -2:
            e = stop // epoch_len - 1
            lo, hi = e * epoch_len, min(stop, (e + 1) * epoch_len + shared)
        while e >= 0:
            a, b = max(start, lo), min(stop, hi)
            if a < b:
                buf[a - lo : b - lo] = block[a - start : b - start]
            if start > lo:
                break
            yield buf[: hi - lo]
            e -= 1
            lo, hi = e * epoch_len, (e + 1) * epoch_len + shared


def _axis_epochs(
    axis: np.ndarray,
    rate_hz: float,
    target_hz: float,
    band_hz: tuple[float, float],
    shared: bool,
    spool_dir: str | os.PathLike | None,
) -> Iterator[np.ndarray]:
    """One axis resampled to ``target_hz``, zero-phase band-passed and
    rectified, as the samples of each whole epoch, last epoch first (see
    :func:`_epoch_segments`).  Each axis runs in its own call, so one filter
    spool is on disk at a time (see ``dsp.resampled_bandpass``)."""
    blocks = resampled_bandpass(axis, rate_hz, target_hz, *band_hz, spool_dir)
    epoch_len = int(round(EPOCH_SECONDS * target_hz))
    return _epoch_segments(((start, np.abs(b)) for start, b in blocks), epoch_len, shared)


def _axis_epoch_counts(
    axis: np.ndarray, rate_hz: float, spool_dir: str | os.PathLike | None
) -> np.ndarray:
    """Per-epoch sums of one axis's integer quanta after the AC front end."""
    sums = []
    for values in _axis_epochs(axis, rate_hz, AC_RESAMPLE_HZ, AC_BAND_HZ, False, spool_dir):
        values -= AC_DEADBAND_G
        np.maximum(values, 0.0, out=values)
        np.minimum(values, AC_CLIP_G, out=values)
        values /= AC_QUANTUM_G
        np.floor(values, out=values)
        # the quanta are small whole numbers, so their float sums are exact
        sums.append(values.sum())
    return np.array(sums[::-1], dtype=np.float64).astype(np.int64)


def activity_counts(
    rec: TriaxialRecording, spool_dir: str | os.PathLike | None = None
) -> np.ndarray:
    """Per-epoch activity counts, combined across axes.

    Each axis is resampled, band-pass filtered, rectified, deadbanded,
    clipped, quantized to integer quanta, and summed per epoch; axis totals
    combine by Euclidean norm, rounded to an integer count.  Trailing
    samples short of a full epoch are dropped.  The filter's forward pass is
    spooled to ``spool_dir`` (see ``dsp.resampled_bandpass``).

    Returns
    -------
    ndarray of int64
        One nonnegative count per epoch.
    """
    rate = rec.sample_rate_hz
    per_axis = [_axis_epoch_counts(axis, rate, spool_dir) for axis in (rec.x, rec.y, rec.z)]
    n_epochs = min(len(a) for a in per_axis)
    stacked = np.stack([a[:n_epochs] for a in per_axis])
    combined = np.sqrt((stacked.astype(np.float64) ** 2).sum(axis=0))
    return np.rint(combined).astype(np.int64)


def mims_units(
    rec: TriaxialRecording, spool_dir: str | os.PathLike | None = None
) -> np.ndarray:
    """Per-epoch MIMS: rectified band-passed area under the curve.

    Each axis is linearly interpolated to ``MIMS_INTERP_HZ``, band-pass
    filtered, rectified, and integrated per epoch by the trapezoid rule
    (sharing the epoch-boundary sample).  Axis areas below
    ``MIMS_TRUNCATION_FLOOR`` zero out before the axes are summed.  The
    filter's forward pass is spooled to ``spool_dir`` (see
    ``dsp.resampled_bandpass``).
    """
    rate = rec.sample_rate_hz
    per_axis = [_axis_areas(axis, rate, spool_dir) for axis in (rec.x, rec.y, rec.z)]
    n_epochs = min(len(a) for a in per_axis)
    return np.sum([a[:n_epochs] for a in per_axis], axis=0)


def _axis_areas(
    axis: np.ndarray, rate_hz: float, spool_dir: str | os.PathLike | None
) -> np.ndarray:
    """Per-epoch truncated trapezoid areas of one rectified MIMS axis."""
    dt = 1.0 / MIMS_INTERP_HZ
    epochs = _axis_epochs(axis, rate_hz, MIMS_INTERP_HZ, MIMS_BAND_HZ, True, spool_dir)
    areas = np.array([np.trapezoid(seg, dx=dt) for seg in epochs][::-1], dtype=np.float64)
    areas[areas < MIMS_TRUNCATION_FLOOR] = 0.0
    return areas

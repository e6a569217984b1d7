"""Epoch-level activity summaries: activity counts (AC) and MIMS.

Both measures run per axis through a resample → band-pass → rectify stage
and then diverge: AC deadbands, clips, quantizes, and sums; MIMS integrates
the rectified curve and truncates tiny areas.  Axis results combine per
epoch.  Both return one value per epoch; the ``steps`` command stores them
as the ``ac`` and ``mims`` columns of a minute table.  They read each axis
only through ``len`` and contiguous slices, so the axes of an
``ingest.SpooledRecording``, read from files, serve as well as arrays.
"""

from __future__ import annotations

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


def _band_passed(
    axis: np.ndarray, rate_hz: float, target_hz: float, band_hz: tuple[float, float]
) -> np.ndarray:
    """One axis resampled to ``target_hz``, zero-phase band-passed and rectified.

    The axis is resampled straight into the filter's buffer, and each axis
    runs in its own call, so one float64 buffer of the resampled length is
    the only whole-axis array alive at a time.
    """
    values = resampled_bandpass(axis, rate_hz, target_hz, *band_hz)
    return np.abs(values, out=values)


def _axis_epoch_counts(axis: np.ndarray, rate_hz: float) -> np.ndarray:
    """Per-epoch sums of one axis's integer quanta after the AC front end."""
    values = _band_passed(axis, rate_hz, AC_RESAMPLE_HZ, AC_BAND_HZ)
    values -= AC_DEADBAND_G
    np.maximum(values, 0.0, out=values)
    np.minimum(values, AC_CLIP_G, out=values)
    values /= AC_QUANTUM_G
    np.floor(values, out=values)
    epoch_len = int(round(EPOCH_SECONDS * AC_RESAMPLE_HZ))
    n_epochs = len(values) // epoch_len
    # the quanta are small whole numbers, so their float sums are exact
    sums = values[: n_epochs * epoch_len].reshape(n_epochs, epoch_len).sum(axis=1)
    return sums.astype(np.int64)


def activity_counts(rec: TriaxialRecording) -> np.ndarray:
    """Per-epoch activity counts, combined across axes.

    Each axis is resampled, band-pass filtered, rectified, deadbanded,
    clipped, quantized to integer quanta, and summed per epoch; axis totals
    combine by Euclidean norm, rounded to an integer count.  Trailing
    samples short of a full epoch are dropped.

    Returns
    -------
    ndarray of int64
        One nonnegative count per epoch.
    """
    rate = rec.sample_rate_hz
    per_axis = [_axis_epoch_counts(axis, rate) for axis in (rec.x, rec.y, rec.z)]
    n_epochs = min(len(a) for a in per_axis)
    stacked = np.stack([a[:n_epochs] for a in per_axis])
    combined = np.sqrt((stacked.astype(np.float64) ** 2).sum(axis=0))
    return np.rint(combined).astype(np.int64)


def mims_units(rec: TriaxialRecording) -> np.ndarray:
    """Per-epoch MIMS: rectified band-passed area under the curve.

    Each axis is linearly interpolated to ``MIMS_INTERP_HZ``, band-pass
    filtered, rectified, and integrated per epoch by the trapezoid rule
    (sharing the epoch-boundary sample).  Axis areas below
    ``MIMS_TRUNCATION_FLOOR`` zero out before the axes are summed.
    """
    rate = rec.sample_rate_hz
    per_axis = [_axis_areas(axis, rate) for axis in (rec.x, rec.y, rec.z)]
    n_epochs = min(len(a) for a in per_axis)
    return np.sum([a[:n_epochs] for a in per_axis], axis=0)


def _axis_areas(axis: np.ndarray, rate_hz: float) -> np.ndarray:
    """Per-epoch truncated trapezoid areas of one rectified MIMS axis."""
    rectified = _band_passed(axis, rate_hz, MIMS_INTERP_HZ, MIMS_BAND_HZ)
    dt = 1.0 / MIMS_INTERP_HZ
    epoch_len = int(round(EPOCH_SECONDS * MIMS_INTERP_HZ))
    n_epochs = len(rectified) // epoch_len
    areas = np.empty(n_epochs)
    for e in range(n_epochs):
        seg = rectified[e * epoch_len : (e + 1) * epoch_len + 1]
        areas[e] = np.trapezoid(seg, dx=dt)
    areas[areas < MIMS_TRUNCATION_FLOOR] = 0.0
    return areas

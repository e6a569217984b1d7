"""Epoch-level activity summaries: activity counts (AC) and MIMS.

Both measures run per axis through a resample → band-pass → rectify stage
and then diverge: AC deadbands, clips, quantizes, and sums; MIMS integrates
the rectified curve and truncates tiny areas.  Axis results combine per
epoch.  Both return one value per epoch; the ``steps`` command stores them
as the ``ac`` and ``mims`` columns of a minute table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import UniformSeries, butterworth_bandpass, resample_linear
from .model import TriaxialRecording


@dataclass(frozen=True)
class AcParams:
    """ActiGraph-style activity-count parameters."""

    resample_hz: float = 30.0
    band_hz: tuple[float, float] = (0.25, 2.5)
    filter_order: int = 4
    deadband_g: float = 0.068
    clip_g: float = 2.13
    quantum_g: float = 1.0 / 128.0
    epoch_seconds: int = 60
    axis_combine: str = "euclidean"  # or "sum"

    def __post_init__(self) -> None:
        low, high = self.band_hz
        if not 0 < low < high < self.resample_hz / 2:
            raise ValueError("band must lie strictly inside (0, resample Nyquist)")
        if self.deadband_g < 0 or self.clip_g <= 0 or self.quantum_g <= 0:
            raise ValueError("deadband, clip, and quantum must be positive")
        if self.epoch_seconds < 1:
            raise ValueError("epoch_seconds must be at least 1")
        if self.axis_combine not in ("euclidean", "sum"):
            raise ValueError("axis_combine must be 'euclidean' or 'sum'")


def _band_passed(
    axis: np.ndarray, rate_hz: float, target_hz: float, band_hz: tuple[float, float],
    order: int,
) -> np.ndarray:
    """One axis resampled to ``target_hz``, zero-phase band-passed and rectified.

    Each axis runs in its own call, so only one axis's resampled and
    filtered arrays are alive at a time.
    """
    series = UniformSeries(rate_hz, np.asarray(axis, dtype=np.float64))
    if rate_hz != target_hz:
        series = resample_linear(series, target_hz)
    values = butterworth_bandpass(
        series, band_hz[0], band_hz[1], order=order, zero_phase=True
    ).values
    return np.abs(values, out=values)


def _axis_epoch_counts(
    axis: np.ndarray, rate_hz: float, p: AcParams, epoch_len: int
) -> np.ndarray:
    """Per-epoch sums of one axis's integer quanta after the AC front end."""
    values = _band_passed(axis, rate_hz, p.resample_hz, p.band_hz, p.filter_order)
    values -= p.deadband_g
    np.maximum(values, 0.0, out=values)
    np.minimum(values, p.clip_g, out=values)
    values /= p.quantum_g
    quanta = np.floor(values, out=values).astype(np.int64)
    n_epochs = len(quanta) // epoch_len
    return quanta[: n_epochs * epoch_len].reshape(n_epochs, epoch_len).sum(axis=1)


def activity_counts(rec: TriaxialRecording, params: AcParams | None = None) -> np.ndarray:
    """Per-epoch activity counts, combined across axes.

    Each axis is resampled, band-pass filtered, rectified, deadbanded,
    clipped, quantized to integer quanta, and summed per epoch; axis totals
    combine by Euclidean norm (rounded to an integer count) or plain sum.
    Trailing samples short of a full epoch are dropped.

    Returns
    -------
    ndarray of int64
        One nonnegative count per epoch.
    """
    params = params or AcParams()
    epoch_len = int(round(params.epoch_seconds * params.resample_hz))
    per_axis = [
        _axis_epoch_counts(axis, rec.sample_rate_hz, params, epoch_len)
        for axis in (rec.x, rec.y, rec.z)
    ]
    n_epochs = min(len(a) for a in per_axis)
    stacked = np.stack([a[:n_epochs] for a in per_axis])
    if params.axis_combine == "sum":
        return stacked.sum(axis=0)
    combined = np.sqrt((stacked.astype(np.float64) ** 2).sum(axis=0))
    return np.rint(combined).astype(np.int64)


@dataclass(frozen=True)
class MimsParams:
    """Monitor-independent movement summary parameters.

    Extrapolation of saturated samples is intentionally not implemented
    (fixed off); inputs are assumed within the device dynamic range.
    """

    interp_hz: float = 100.0
    band_hz: tuple[float, float] = (0.2, 5.0)
    filter_order: int = 4
    epoch_seconds: int = 60
    truncation_floor: float = 1e-4

    def __post_init__(self) -> None:
        low, high = self.band_hz
        if not 0 < low < high < self.interp_hz / 2:
            raise ValueError("band must lie strictly inside (0, interp Nyquist)")
        if self.epoch_seconds < 1:
            raise ValueError("epoch_seconds must be at least 1")
        if self.truncation_floor < 0:
            raise ValueError("truncation_floor must be nonnegative")


def mims_units(rec: TriaxialRecording, params: MimsParams | None = None) -> np.ndarray:
    """Per-epoch MIMS: rectified band-passed area under the curve.

    Each axis is linearly interpolated to ``interp_hz``, band-pass filtered,
    rectified, and integrated per epoch by the trapezoid rule (sharing the
    epoch-boundary sample).  Axis areas below ``truncation_floor`` zero out
    before the axes are summed.
    """
    params = params or MimsParams()
    epoch_len = int(round(params.epoch_seconds * params.interp_hz))
    per_axis = [
        _axis_areas(axis, rec.sample_rate_hz, params, epoch_len)
        for axis in (rec.x, rec.y, rec.z)
    ]
    n_epochs = min(len(a) for a in per_axis)
    return np.sum([a[:n_epochs] for a in per_axis], axis=0)


def _axis_areas(
    axis: np.ndarray, rate_hz: float, p: MimsParams, epoch_len: int
) -> np.ndarray:
    """Per-epoch truncated trapezoid areas of one rectified MIMS axis."""
    rectified = _band_passed(axis, rate_hz, p.interp_hz, p.band_hz, p.filter_order)
    dt = 1.0 / p.interp_hz
    n_epochs = len(rectified) // epoch_len
    areas = np.empty(n_epochs)
    for e in range(n_epochs):
        seg = rectified[e * epoch_len : (e + 1) * epoch_len + 1]
        areas[e] = np.trapezoid(seg, dx=dt)
    areas[areas < p.truncation_floor] = 0.0
    return areas

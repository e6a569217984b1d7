"""Cohort statistics: winsorization, correlations, survey-weighted means,
local-regression smoothing, and the percent-change summaries built on them.

Survey standard errors use Taylor linearization over strata and primary
sampling units; without design fields the with-replacement single-stage
estimator is used, which reduces to the textbook SEM under equal weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np


Z_95 = 1.959963984540054  # two-sided 95% normal quantile


def winsorize_upper(values: Sequence[float], p: float = 0.99) -> np.ndarray:
    """Cap values above the p-th sample quantile (linear interpolation)."""
    x = np.asarray(values, dtype=np.float64)
    if x.size == 0:
        raise ValueError("values must be nonempty")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    cap = float(np.quantile(x, p))
    return np.minimum(x, cap)


def _as_pair(x: Sequence[float], y: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.ndim != 1 or ya.ndim != 1 or len(xa) != len(ya):
        raise ValueError("x and y must be equal-length one-dimensional sequences")
    if len(xa) < 2:
        raise ValueError("need at least two observations")
    return xa, ya


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    xa, ya = _as_pair(x, y)
    dx = xa - xa.mean()
    dy = ya - ya.mean()
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx == 0.0 or syy == 0.0:
        raise ValueError("zero-variance input")
    return float(dx @ dy) / math.sqrt(sxx * syy)


def midranks(x: Sequence[float]) -> np.ndarray:
    """Average ranks (1-based); tied values share the mean of their positions."""
    xa = np.asarray(x, dtype=np.float64)
    order = np.argsort(xa, kind="stable")
    ranks = np.empty(len(xa), dtype=np.float64)
    sorted_x = xa[order]
    i = 0
    while i < len(xa):
        j = i
        while j + 1 < len(xa) and sorted_x[j + 1] == sorted_x[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    xa, ya = _as_pair(x, y)
    return pearson(midranks(xa), midranks(ya))


_CORRELATIONS = {"pearson": pearson, "spearman": spearman}


def correlation_matrix(
    rows: Sequence[Mapping[str, float]],
    variables: Sequence[str],
    method: str = "spearman",
) -> np.ndarray:
    """Pairwise-complete correlation matrix over named variables.

    ``rows`` are per-subject variable maps (subject-summary mean dicts work
    directly); a subject enters a cell only when both variables are present
    and finite.  Cells with fewer than two complete subjects, or with a
    constant column, are left as NaN.
    """
    if method not in _CORRELATIONS:
        raise ValueError(f"unknown correlation method: {method!r}")
    corr = _CORRELATIONS[method]
    table = {
        v: np.array([float(row.get(v, math.nan)) for row in rows], dtype=np.float64)
        for v in variables
    }
    k = len(variables)
    out = np.full((k, k), np.nan)
    np.fill_diagonal(out, 1.0)
    for a in range(k):
        for b in range(a + 1, k):
            xa = table[variables[a]]
            ya = table[variables[b]]
            ok = np.isfinite(xa) & np.isfinite(ya)
            if ok.sum() < 2:
                continue
            try:
                out[a, b] = out[b, a] = corr(xa[ok], ya[ok])
            except ValueError:
                continue  # constant column within the complete pairs
    return out


def weighted_mean_se(
    values: Sequence[float],
    weights: Sequence[float],
    strata: Sequence | None = None,
    psus: Sequence | None = None,
) -> tuple[float, float]:
    """Weighted mean with a Taylor-linearized standard error.

    With ``strata``/``psus`` the variance is the stratified between-PSU
    estimator (single-PSU strata contribute zero); without them each unit is
    its own PSU in one stratum, which reduces to s/sqrt(n) under equal
    weights.  Zero weights are allowed and contribute nothing.
    """
    x = np.asarray(values, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if x.ndim != 1 or x.shape != w.shape:
        raise ValueError("values and weights must be equal-length 1-D sequences")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    if (strata is None) != (psus is None):
        raise ValueError("strata and psus must be supplied together")
    total_w = math.fsum(w)
    if total_w <= 0.0:
        raise ValueError("weights must not all be zero")
    mean = math.fsum(w * x) / total_w
    z = w * (x - mean) / total_w

    if strata is None:
        n = len(x)
        if n < 2:
            return mean, 0.0
        var = n / (n - 1) * math.fsum(z * z)
        return mean, math.sqrt(max(var, 0.0))

    strata_arr = list(strata)
    psus_arr = list(psus)
    if len(strata_arr) != len(x) or len(psus_arr) != len(x):
        raise ValueError("design fields must align with values")
    psu_sums: dict[tuple, dict] = {}
    for zi, h, j in zip(z, strata_arr, psus_arr):
        stratum = psu_sums.setdefault(h, {})
        stratum[j] = stratum.get(j, 0.0) + zi
    var = 0.0
    for stratum in psu_sums.values():
        totals = [stratum[j] for j in sorted(stratum)]
        n_h = len(totals)
        if n_h < 2:
            continue
        zbar = math.fsum(totals) / n_h
        var += n_h / (n_h - 1) * math.fsum((t - zbar) ** 2 for t in totals)
    return mean, math.sqrt(max(var, 0.0))


@dataclass(frozen=True)
class SmoothedCurve:
    """A smoothed mean curve on consecutive integer ages with pointwise CI."""

    ages: np.ndarray
    estimate: np.ndarray
    se: np.ndarray

    @property
    def ci_lower(self) -> np.ndarray:
        return self.estimate - Z_95 * self.se

    @property
    def ci_upper(self) -> np.ndarray:
        return self.estimate + Z_95 * self.se


def _local_linear(
    x: np.ndarray, y: np.ndarray, grid: np.ndarray, k: int
) -> np.ndarray:
    out = np.empty(len(grid))
    for g, x0 in enumerate(grid):
        d = np.abs(x - x0)
        h = np.partition(d, k - 1)[k - 1]
        if h == 0.0:
            weights = (d == 0.0).astype(np.float64)
        else:
            weights = np.clip(1.0 - (d / h) ** 3, 0.0, None) ** 3
        u = x - x0
        s0 = float(weights.sum())
        s1 = float(weights @ u)
        s2 = float(weights @ (u * u))
        t0 = float(weights @ y)
        t1 = float(weights @ (u * y))
        det = s0 * s2 - s1 * s1
        if det <= 1e-12 * max(s0 * s2, 1e-300):
            out[g] = t0 / s0
        else:
            out[g] = (s2 * t0 - s1 * t1) / det
    return out


def local_weighted_smooth(
    ages: Sequence[float],
    means: Sequence[float],
    ses: Sequence[float],
) -> SmoothedCurve:
    """Tricube local-linear smooth of (age, mean) evaluated at integer ages.

    The nearest 75 % of the points (the span) define each tricube window; the
    per-age standard errors are smoothed with the same kernel and the CI is
    the normal approximation around the smoothed estimate.
    """
    x = np.asarray(ages, dtype=np.float64)
    y = np.asarray(means, dtype=np.float64)
    s = np.asarray(ses, dtype=np.float64)
    if x.ndim != 1 or x.shape != y.shape or x.shape != s.shape:
        raise ValueError("ages, means, and ses must be equal-length 1-D sequences")
    if len(np.unique(x)) < 5:
        raise ValueError("need at least 5 distinct ages")
    k = int(math.ceil(0.75 * len(x)))
    grid = np.arange(math.ceil(x.min()), math.floor(x.max()) + 1, dtype=np.float64)
    if len(grid) == 0:
        raise ValueError("no integer ages inside the data range")
    return SmoothedCurve(
        ages=grid,
        estimate=_local_linear(x, y, grid, k),
        se=_local_linear(x, s, grid, k),
    )


def percent_change_by_age(curve: SmoothedCurve) -> tuple[np.ndarray, np.ndarray]:
    """Year-over-year percent change of a smoothed curve.

    Returns (ages, percent) where percent[i] compares curve at ages[i] to the
    previous integer age.
    """
    ages = np.asarray(curve.ages, dtype=np.float64)
    est = np.asarray(curve.estimate, dtype=np.float64)
    if len(ages) < 2:
        raise ValueError("curve must cover at least two ages")
    if not np.all(np.diff(ages) == 1.0):
        raise ValueError("curve ages must be consecutive integers")
    prev = est[:-1]
    if np.any(prev == 0.0):
        raise ValueError("percent change undefined where the previous value is 0")
    return ages[1:], 100.0 * (est[1:] - prev) / prev


def between_wave_percent_diff(est_a: float, est_b: float) -> float:
    """Absolute percent difference of two estimates relative to their mean."""
    if not (est_a > 0.0 and est_b > 0.0):
        raise ValueError("estimates must be positive")
    return 100.0 * abs(est_a - est_b) / ((est_a + est_b) / 2.0)

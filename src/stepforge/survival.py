"""Weighted Cox proportional-hazards fitting and concordance evaluation.

The partial likelihood uses Breslow tie handling with observation weights;
variances come from the robust sandwich built on weighted score residuals.
Cross-validated concordance uses event-stratified folds and fold-level
averaging, fully determined by the configured seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .model import AnalysisConfig


class ConvergenceError(RuntimeError):
    """Newton-Raphson failed to converge; the last iterate is attached."""

    def __init__(self, message: str, last_fit: "CoxFit"):
        super().__init__(message)
        self.last_fit = last_fit


@dataclass(frozen=True)
class SurvivalDataset:
    """Right-censored follow-up with covariates and observation weights."""

    followup_months: np.ndarray
    event: np.ndarray
    covariates: np.ndarray
    weights: np.ndarray
    covariate_names: tuple[str, ...]
    subject_ids: tuple[str, ...] | None = None
    scaling: Mapping[str, tuple[float, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        t = np.asarray(self.followup_months, dtype=np.float64)
        ev = np.asarray(self.event, dtype=bool)
        x = np.asarray(self.covariates, dtype=np.float64)
        w = np.asarray(self.weights, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError("covariates must be a 2-D matrix")
        n, p = x.shape
        if not (len(t) == len(ev) == len(w) == n):
            raise ValueError("followup, event, covariates, weights must align")
        if len(self.covariate_names) != p:
            raise ValueError("covariate_names must match the covariate columns")
        if len(set(self.covariate_names)) != p:
            raise ValueError("covariate names must be unique")
        if self.subject_ids is not None and len(self.subject_ids) != n:
            raise ValueError("subject_ids must align with rows")
        if np.any(t < 0) or not np.all(np.isfinite(t)):
            raise ValueError("follow-up must be finite and nonnegative")
        if not np.all(np.isfinite(x)):
            raise ValueError("covariates must be complete (no NaN/inf)")
        if np.any(w <= 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be positive and finite")
        if not ev.any():
            raise ValueError("dataset must contain at least one event")
        object.__setattr__(self, "followup_months", t)
        object.__setattr__(self, "event", ev)
        object.__setattr__(self, "covariates", x)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "covariate_names", tuple(self.covariate_names))

    def __len__(self) -> int:
        return len(self.followup_months)

    @property
    def n_events(self) -> int:
        return int(self.event.sum())

    def column(self, name: str) -> np.ndarray:
        return self.covariates[:, self._index(name)]

    def _index(self, name: str) -> int:
        try:
            return self.covariate_names.index(name)
        except ValueError:
            raise KeyError(f"unknown covariate: {name!r}") from None

    def select(self, names: Sequence[str]) -> "SurvivalDataset":
        """New dataset restricted to the named covariate columns."""
        idx = [self._index(n) for n in names]
        return replace(
            self,
            covariates=self.covariates[:, idx],
            covariate_names=tuple(names),
            scaling={k: v for k, v in self.scaling.items() if k in names},
        )

    def take(self, rows: Sequence[int]) -> "SurvivalDataset":
        """New dataset restricted to the given row indices (order preserved).

        The rows of a validated dataset need no second validation, so the
        subset skips ``__post_init__``; the caller keeps an event in it.
        """
        rows = np.asarray(rows, dtype=np.intp)
        ids = (
            tuple(self.subject_ids[i] for i in rows)
            if self.subject_ids is not None
            else None
        )
        subset = object.__new__(SurvivalDataset)
        subset.__dict__.update(
            vars(self),
            followup_months=self.followup_months[rows],
            event=self.event[rows],
            covariates=self.covariates[rows],
            weights=self.weights[rows],
            subject_ids=ids,
        )
        return subset


@dataclass(frozen=True)
class CoxFit:
    beta: np.ndarray
    covariance: np.ndarray
    loglik_seq: tuple[float, ...]
    converged: bool
    n_events: int
    covariate_names: tuple[str, ...]
    #: Covariates whose coefficient may be infinite, by R ``coxph.fit``'s
    #: rule: the Newton step not taken at the final beta, ``|H^-1 U|``,
    #: exceeds both ``NEWTON_TOL`` and ``sqrt(NEWTON_TOL) * |beta|``.
    diverging: tuple[str, ...] = ()

    @property
    def se(self) -> np.ndarray:
        return np.sqrt(np.diag(self.covariance))

    def coef(self, name: str) -> tuple[float, float]:
        """(beta, robust se) for one covariate."""
        try:
            i = self.covariate_names.index(name)
        except ValueError:
            raise KeyError(f"unknown covariate: {name!r}") from None
        return float(self.beta[i]), float(self.se[i])


class _RiskSets:
    """Breslow risk-set bookkeeping of one dataset, built once per fit.

    The design is held once: column-centered, with its rows in descending
    time order (``xcs``), and every per-row array follows that order.  The
    risk set of an event time (every row with time >= t) is then a prefix.
    Event times are ascending; event time k's prefix ends at row ``at[k]``.
    S0 and S1 are running sums over that order.  The information needs no
    per-event-time S2: summed over event times it regroups by row into one
    weighted Gram of ``xcs`` (see ``_score_hess``).  Centering moves no
    partial-likelihood quantity: eta shifts by a constant, which cancels.
    """

    def __init__(self, data: SurvivalDataset, covariates: np.ndarray | None = None):
        t, ev, w = data.followup_months, data.event, data.weights
        x = data.covariates if covariates is None else covariates
        ascending = np.argsort(t, kind="stable")
        desc = ascending[::-1]
        self.xcs = (x - x.mean(axis=0))[desc]
        self.w = w[desc]
        self.log_w = np.log(self.w)
        event_times = np.unique(t[ev])
        self.at = len(t) - 1 - np.searchsorted(t, event_times, sorter=ascending)
        # number of event times <= t_i, which index the cumulative hazard sums
        self.n_times_upto = np.searchsorted(event_times, t[desc], side="right")
        # event rows as positions in descending time order, listed in the
        # data's row order, so the sums over tied events add in that order
        position = np.empty(len(t), dtype=np.intp)
        position[desc] = np.arange(len(t))
        self.event_rows = position[ev]
        self.k_of_event = np.searchsorted(event_times, t[ev])
        ew = w[ev]
        self.d0 = np.bincount(self.k_of_event, ew, len(event_times))
        self.log_d0 = np.log(self.d0)
        d1 = np.zeros((len(event_times), x.shape[1]))
        np.add.at(d1, self.k_of_event, ew[:, None] * self.xcs[self.event_rows])
        self.d1_total = d1.sum(axis=0)

    def risk_sums(self, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """eta, w*exp(eta) and S0 per event time."""
        eta = self.xcs @ beta
        eta = eta - eta.max()  # global shift cancels in the partial likelihood
        rexp = self.w * np.exp(eta)
        return eta, rexp, np.cumsum(rexp)[self.at]

    def xbar(self, rexp: np.ndarray, s0: np.ndarray) -> np.ndarray:
        """S1/S0 per event time of the centered design, from :meth:`risk_sums`."""
        return np.cumsum(rexp[:, None] * self.xcs, axis=0)[self.at] / s0[:, None]


def _loglik(
    risk: _RiskSets, beta: np.ndarray
) -> tuple[float, tuple[np.ndarray, ...] | None]:
    """Log-likelihood at ``beta`` and the risk sums its derivatives reuse.

    An overshooting trial step can underflow every at-risk exp(eta) to 0; it
    reports (-inf, None), so the caller rejects the step instead of chasing
    log(0).
    """
    eta, rexp, s0 = risk.risk_sums(beta)
    if not np.all(s0 > 0.0):
        return -math.inf, None
    ev = risk.event_rows
    d_eta = np.bincount(risk.k_of_event, risk.w[ev] * eta[ev], len(s0))
    log_s0 = np.log(s0)
    ll = math.fsum((d_eta - risk.d0 * log_s0).tolist())
    if not math.isfinite(ll):
        return -math.inf, None
    return ll, (eta, rexp, s0, log_s0)


def _score_hess(
    risk: _RiskSets, sums: tuple[np.ndarray, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Score and Hessian at the point whose risk sums :func:`_loglik` gave."""
    eta, rexp, s0, log_s0 = sums
    xbar = risk.xbar(rexp, s0)
    score = risk.d1_total - (risk.d0[:, None] * xbar).sum(axis=0)
    # sum_k d0_k V_k with V_k = S2_k/S0_k - xbar_k xbar_k^T.  Summed over
    # event times, d0_k S2_k/S0_k regroups by row into r_i g0_i x_i x_i^T,
    # where g0_i sums d0_k/S0_k over event times t_k <= t_i:
    #   sum_k d0_k V_k = Xc^T diag(r g0) Xc - sum_k d0_k xbar_k xbar_k^T
    # The design is centered, so the two terms do not cancel on columns far
    # from zero.  r_i g0_i <= total event weight, but g0_i alone overflows
    # where S0 underflows at separation, so r_i g0_i is formed in logs.
    log_g0 = np.logaddexp.accumulate(risk.log_d0 - log_s0)
    log_g0 = np.concatenate(([-np.inf], log_g0))[risk.n_times_upto]
    weight = np.exp(risk.log_w + eta + log_g0)
    hess = (xbar.T * risk.d0) @ xbar - (risk.xcs.T * weight) @ risk.xcs
    return score, hess


def _score_residuals(risk: _RiskSets, beta: np.ndarray) -> np.ndarray:
    """Weighted score residuals, one row per subject in descending time
    order; the rows sum to the total score."""
    eta, rexp, s0 = risk.risk_sums(beta)
    x, w, ev = risk.xcs, risk.w, risk.event_rows
    xbar = np.where(s0[:, None] > 0.0, risk.xbar(rexp, s0), 0.0)
    # Row i's at-risk part is -r_i sum_k rate_k (x_i - xbar_k) over event
    # times t_k <= t_i, with rate_k = d0_k/S0_k.  rate_k alone overflows
    # where S0 underflows at separation, so the sum is taken as
    # (r_i g0_i)(x_i - m_i): g0_i sums rate_k and m_i is the rate-weighted
    # mean of xbar_k.  Both factors are formed in logs, r_i g0_i as in
    # _score_hess and m_i from xbar_k - min(x), which is nonnegative
    # because xbar_k is a mean of rows of x.
    low = x.min(axis=0)
    with np.errstate(divide="ignore"):
        log_rate = risk.log_d0 - np.log(s0)
        log_dev = np.log(np.maximum(xbar - low, 0.0))
    log_g0 = np.logaddexp.accumulate(log_rate)
    log_g1 = np.logaddexp.accumulate(log_rate[:, None] + log_dev, axis=0)
    mean = low + np.exp(log_g1 - log_g0[:, None])
    # rows before the first event time are at risk at none of them
    upto = risk.n_times_upto
    weight = np.exp(risk.log_w + eta + np.concatenate(([-np.inf], log_g0))[upto])
    mean = np.vstack((low, mean))[upto]
    resid = -weight[:, None] * (x - mean)
    resid[ev] += w[ev, None] * (x[ev] - xbar[risk.k_of_event])
    return resid


@dataclass
class _Newton:
    """Where Newton-Raphson stopped, in the internally scaled units."""

    risk: _RiskSets
    col_scale: np.ndarray
    beta: np.ndarray
    sums: tuple[np.ndarray, ...]  # of ``beta``, from _loglik
    loglik_seq: list[float]
    converged: bool
    failure: str

    @property
    def raw_beta(self) -> np.ndarray:
        return self.beta * (1.0 / self.col_scale)


#: Relative log-likelihood change at which Newton-Raphson stops.
NEWTON_TOL = 1e-9

#: Newton-Raphson steps before a fit counts as not converged.
NEWTON_MAX_ITER = 50

#: A pivot of the information below this share of its largest diagonal
#: entry marks an aliased column: R ``survival``'s ``toler.chol``.
ALIAS_TOL = np.finfo(np.float64).eps ** 0.75


class _RankDeficient(ValueError):
    """The design has aliased columns; ``aliased`` marks them."""

    def __init__(self, aliased: np.ndarray):
        super().__init__(
            "design matrix is rank deficient after centering; "
            "drop constant or collinear columns"
        )
        self.aliased = aliased


def _aliased_columns(info: np.ndarray) -> np.ndarray:
    """The columns R ``survival``'s ``cholesky2`` marks as aliased.

    An in-order LDL^T of the information: a column whose pivot is not
    finite or is below ``ALIAS_TOL`` times the largest diagonal entry is
    aliased and takes no part in eliminating the columns after it.
    """
    a = info.copy()
    diag = np.diag(a)
    top = diag[diag > 0.0].max(initial=0.0)
    tol = ALIAS_TOL * top if top > 0.0 else ALIAS_TOL
    aliased = np.zeros(len(a), dtype=bool)
    for i in range(len(a)):
        pivot = a[i, i]
        if not (math.isfinite(pivot) and pivot >= tol):
            aliased[i] = True
            continue
        v = a[i + 1:, i]
        a[i + 1:, i + 1:] -= v[:, None] * (v / pivot)
    return aliased


def _newton(data: SurvivalDataset) -> _Newton:
    """The coefficient search of :func:`cox_fit`, without its covariance.

    The log-likelihood comes first at every trial point; the score and
    Hessian are formed only at a point the search steps on from.  The
    information at beta = 0, which the first step forms anyway, decides
    aliased columns; a design with any raises :class:`_RankDeficient`.
    Cross-validation folds, which read only the coefficients, stop here.
    """
    x = data.covariates
    p = x.shape[1]
    if p == 0:
        raise ValueError("no covariates to fit")
    col_scale = (x - x.mean(axis=0)).std(axis=0, ddof=1)
    # a constant column enters as exact zeros, so its information row is
    # exactly zero even where its mean rounds
    constant = np.ptp(x, axis=0) == 0.0
    col_scale[constant] = 1.0
    risk = _RiskSets(data, np.where(constant, 0.0, x / col_scale))

    beta = np.zeros(p)
    ll, sums = _loglik(risk, beta)
    score, hess = _score_hess(risk, sums)
    aliased = _aliased_columns(-hess)
    if aliased.any():
        raise _RankDeficient(aliased)
    loglik_seq = [ll]
    converged = False
    failure = f"did not converge in {NEWTON_MAX_ITER} iterations"
    for iteration in range(NEWTON_MAX_ITER):
        if iteration:
            score, hess = _score_hess(risk, sums)
        try:
            delta = np.linalg.solve(-hess, score)
        except np.linalg.LinAlgError as exc:
            raise ValueError("singular information matrix") from exc
        step = 1.0
        new_beta = beta + delta
        new_ll, new_sums = _loglik(risk, new_beta)
        halvings = 0
        while new_ll < ll and halvings < 30:
            step *= 0.5
            halvings += 1
            new_beta = beta + step * delta
            new_ll, new_sums = _loglik(risk, new_beta)
        if new_ll < ll:
            # No halving improved the objective.  At the optimum the Newton
            # step's predicted gain can lie below the last bit of ll, so the
            # step computes as a loss; that counts as convergence.
            converged = score @ delta / 2.0 < NEWTON_TOL * (abs(ll) + NEWTON_TOL)
            failure = f"step search failed after {len(loglik_seq) - 1} steps"
            break
        beta, ll, sums = new_beta, new_ll, new_sums
        loglik_seq.append(ll)
        change = abs(loglik_seq[-1] - loglik_seq[-2])
        if change < NEWTON_TOL * (abs(loglik_seq[-2]) + NEWTON_TOL):
            converged = True
            break
    return _Newton(risk, col_scale, beta, sums, loglik_seq, converged, failure)


def _with_covariance(data: SurvivalDataset, newton: _Newton) -> CoxFit:
    """The fit with its robust sandwich covariance; raises unless converged."""
    risk, beta = newton.risk, newton.beta
    p = len(beta)
    score, hess = _score_hess(risk, newton.sums)
    with np.errstate(all="ignore"):
        resid = _score_residuals(risk, beta)
        try:
            bread = np.linalg.inv(-hess)
        except np.linalg.LinAlgError:
            bread = np.full((p, p), np.nan)
        meat = resid.T @ resid
        cov_scaled = bread @ meat @ bread
        cov_scaled = 0.5 * (cov_scaled + cov_scaled.T)
        # the Newton step not taken, in raw covariate units
        untaken = np.abs(bread @ score) / newton.col_scale
    raw_beta = newton.raw_beta
    diverging = tuple(
        name
        for name, step, b in zip(data.covariate_names, untaken.tolist(), raw_beta.tolist())
        if step > NEWTON_TOL and step > math.sqrt(NEWTON_TOL) * abs(b)
    )
    if newton.converged and not np.all(np.isfinite(cov_scaled)):
        raise ValueError("sandwich covariance is not finite at the optimum")
    # map back to raw covariate units
    inv_scale = 1.0 / newton.col_scale
    fit = CoxFit(
        beta=raw_beta,
        covariance=cov_scaled * np.outer(inv_scale, inv_scale),
        loglik_seq=tuple(newton.loglik_seq),
        converged=newton.converged,
        n_events=data.n_events,
        covariate_names=data.covariate_names,
        diverging=diverging,
    )
    if not newton.converged:
        raise ConvergenceError(f"Newton-Raphson {newton.failure}", fit)
    return fit


def _fold_beta(train: SurvivalDataset) -> np.ndarray:
    """Coefficients of a cross-validation training fold, without the
    covariance.

    A fold with aliased columns fits the others, as R ``coxph`` does: its
    β is ``_fold_beta`` of the fold without them, bit for bit, with 0 at
    the aliased columns.  Otherwise it is ``cox_fit(train).beta`` bit for
    bit, or, where that fit raises ConvergenceError (its step search
    stalled or it reached ``NEWTON_MAX_ITER``), the error's last β.  R
    ``coxph`` returns such a fit with a warning, so a fold whose likelihood
    climbs towards a bound while β diverges is still scored.  Only β is
    returned, so the fit's risk sets are freed before the next fold's are
    built.
    """
    try:
        newton = _newton(train)
    except _RankDeficient as exc:
        beta = np.zeros(len(exc.aliased))
        kept = np.flatnonzero(~exc.aliased)
        if len(kept):
            names = [train.covariate_names[i] for i in kept]
            beta[kept] = _fold_beta(train.select(names))
        return beta
    return newton.raw_beta


def cox_fit(data: SurvivalDataset) -> CoxFit:
    """Maximize the weighted Breslow partial likelihood by Newton-Raphson.

    Steps that fail to improve the objective are halved (up to 30 times);
    convergence is a relative log-likelihood change below ``NEWTON_TOL``,
    or, when every halving is refused, a Newton step whose predicted gain
    ``score . delta / 2`` is below that same tolerance.  Columns
    are scaled to unit dispersion internally and the fit mapped back, so raw
    step counts may be entered without conditioning trouble.  The covariance
    is the robust sandwich built from weighted score residuals.

    A design with an aliased column raises ValueError ("rank deficient").
    Aliasing follows R ``survival``'s ``cholesky2``: in an in-order LDL^T
    of the information of the centered, scaled design at beta = 0, a pivot
    below ``ALIAS_TOL`` (eps^0.75) times the largest diagonal entry.
    """
    return _with_covariance(data, _newton(data))


def _safe_exp(v: float) -> float:
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def hazard_ratio(
    fit: CoxFit, covariate: str, delta: float
) -> tuple[float, float, float]:
    """Hazard ratio and 95% CI for a ``delta``-unit covariate increase."""
    beta, se = fit.coef(covariate)
    z = 1.959963984540054
    ends = sorted((delta * (beta - z * se), delta * (beta + z * se)))
    return _safe_exp(delta * beta), _safe_exp(ends[0]), _safe_exp(ends[1])


def wald_p_value(fit: CoxFit, covariate: str) -> float:
    """Two-sided Wald p-value using the robust standard error."""
    beta, se = fit.coef(covariate)
    if se == 0.0:
        return 1.0 if beta == 0.0 else 0.0
    return math.erfc(abs(beta / se) / math.sqrt(2.0))


def standardize(data: SurvivalDataset, covariate: str) -> SurvivalDataset:
    """Center and scale one covariate, recording (mean, sd) for reporting."""
    i = data._index(covariate)
    col = data.covariates[:, i]
    mean = float(col.mean())
    sd = float(col.std(ddof=1))
    if sd == 0.0:
        raise ValueError(f"covariate {covariate!r} has zero variance")
    x = data.covariates.copy()
    x[:, i] = (col - mean) / sd
    scaling = dict(data.scaling)
    scaling[covariate] = (mean, sd)
    return replace(data, covariates=x, scaling=scaling)


def concordance(predictors: Sequence[float], data: SurvivalDataset) -> float:
    """Weighted Harrell's C over comparable pairs.

    Pair (i, j) is comparable when i has an event and t_i < t_j; its weight
    is w_i * w_j.  A strictly higher predictor on the earlier event counts
    as concordant, predictor ties count half.  Sums use exact compensated
    summation, so any pair ordering gives the same result bit for bit.
    """
    pred = np.asarray(predictors, dtype=np.float64)
    if pred.shape != data.followup_months.shape:
        raise ValueError("predictors must align with data rows")
    t, w, ev = data.followup_months, data.weights, data.event
    # one row per event i, one column per subject j: the pairs with t_i < t_j
    later = t[ev, None] < t
    pw = w[ev, None] * w
    higher = pred[ev, None] > pred
    tied = pred[ev, None] == pred
    total = math.fsum(pw[later].tolist())
    if total == 0.0:
        raise ValueError("no comparable pairs")
    concordant = pw[later & higher].tolist() + (0.5 * pw[later & tied]).tolist()
    return math.fsum(concordant) / total


def make_fold_plan(
    event: np.ndarray, k: int, seed: int, repeat_index: int
) -> np.ndarray:
    """Deterministic event-stratified k-fold assignment: the fold of each row.

    Events and censored rows are shuffled separately.  Events are dealt
    round-robin first and censored rows continue the same cycle, so fold
    sizes and fold event counts each differ by at most one.
    """
    ev = np.asarray(event, dtype=bool)
    if k < 2:
        raise ValueError("need at least 2 folds")
    if len(ev) < k:
        raise ValueError("fewer rows than folds")
    rng = np.random.default_rng(seed + repeat_index)
    events = rng.permutation(np.flatnonzero(ev))
    censored = rng.permutation(np.flatnonzero(~ev))
    assignment = np.empty(len(ev), dtype=np.int64)
    assignment[np.concatenate([events, censored])] = np.arange(len(ev)) % k
    return assignment


def _plan_with_events_everywhere(
    data: SurvivalDataset, k: int, seed: int, repeat_index: int
) -> np.ndarray:
    for attempt_seed in (seed, seed + 1_000_003):
        assignment = make_fold_plan(data.event, k, attempt_seed, repeat_index)
        fold_events = np.bincount(assignment[data.event], minlength=k)
        if np.all(fold_events > 0) and np.all(fold_events < data.n_events):
            return assignment
    raise ValueError(
        "could not build folds with events in every fold; too few events"
    )


def repeated_cv_concordance(
    data: SurvivalDataset,
    covariates: Sequence[str],
    cfg: AnalysisConfig,
) -> tuple[float, list[float]]:
    """Mean cross-validated concordance over seeded repeats.

    Each of the ``cfg.cv_repeats`` repeats r builds an event-stratified
    fold plan from (rng_seed + r), fits the coefficients on the training
    rows, scores the held-out rows, and averages fold concordances; the
    return value averages the repeats.
    Deterministic for a fixed config.  A fold fit stops at the coefficients
    :func:`cox_fit` would return, bit for bit, without the covariance that
    scoring never reads.  A training fold with aliased columns (see
    :func:`cox_fit`), such as a column constant in that fold, fits the
    columns that vary, and its held-out fold is scored with β = 0 for the
    aliased ones.  A fold fit that does not converge is scored with its
    last accepted β (see ``_fold_beta``); full-sample fits still raise.
    """
    if cfg.cv_folds < 2:
        raise ValueError("cfg.cv_folds must be at least 2")
    # CV never reads subject IDs; dropping them keeps ``take`` from
    # rebuilding the ID tuple for every fold
    subset = replace(data.select(covariates), subject_ids=None)
    per_repeat: list[float] = []
    for r in range(cfg.cv_repeats):
        fold_of_row = _plan_with_events_everywhere(
            subset, cfg.cv_folds, cfg.rng_seed + r, r
        )
        fold_cs: list[float] = []
        for f in range(cfg.cv_folds):
            train = subset.take(np.flatnonzero(fold_of_row != f))
            test = subset.take(np.flatnonzero(fold_of_row == f))
            pred = test.covariates @ _fold_beta(train)
            fold_cs.append(concordance(pred, test))
        per_repeat.append(math.fsum(fold_cs) / len(fold_cs))
    return math.fsum(per_repeat) / len(per_repeat), per_repeat


@dataclass(frozen=True)
class ModelReport:
    """One row of the nested model comparison."""

    name: str
    covariates: tuple[str, ...]
    concordance: float
    steps_variable: str | None
    steps_hr_per_500: float | None
    steps_hr_ci: tuple[float, float] | None
    steps_p: float | None
    #: ``CoxFit.diverging`` of the full-sample fit (models with steps only).
    diverging: tuple[str, ...] = ()


def model_suite(
    data: SurvivalDataset,
    cfg: AnalysisConfig,
    traditional: Sequence[str] | None = None,
    univariate: Mapping[str, float] | None = None,
) -> list[ModelReport]:
    """Fit the nested model ladder and report concordance and step HRs.

    Models: (1) traditional covariates, (2) + ``mims``, (3) + the ``steps_*``
    variable with the best univariate cross-validated concordance, (4) +
    steps and MIMS together.  Step hazard ratios are reported per
    ``cfg.hr_step_increment`` steps with robust Wald p-values.
    ``univariate`` maps step variables to the univariate cvC that
    :func:`repeated_cv_concordance` gave for this data and config; a step
    variable it lacks is cross-validated here.
    """
    step_vars = sorted(n for n in data.covariate_names if n.startswith("steps_"))
    if not step_vars:
        raise ValueError("no covariates named steps_*")
    if "mims" not in data.covariate_names:
        raise ValueError("missing covariate 'mims'")
    if traditional is None:
        traditional = [
            n for n in data.covariate_names if n != "mims" and not n.startswith("steps_")
        ]
    traditional = list(traditional)

    univariate = univariate or {}
    best_var, best_c = None, -math.inf
    for var in step_vars:
        if var in univariate:
            c = univariate[var]
        else:
            c, _ = repeated_cv_concordance(data, [var], cfg)
        if c > best_c:
            best_var, best_c = var, c
    assert best_var is not None

    ladder = [
        ("traditional", traditional, None),
        ("traditional+mims", traditional + ["mims"], None),
        ("traditional+steps", traditional + [best_var], best_var),
        ("traditional+steps+mims", traditional + [best_var, "mims"], best_var),
    ]
    reports: list[ModelReport] = []
    for name, covs, steps_var in ladder:
        c, _ = repeated_cv_concordance(data, covs, cfg)
        hr = ci = pval = None
        diverging: tuple[str, ...] = ()
        if steps_var is not None:
            fit = cox_fit(data.select(covs))
            hr_, lo, hi = hazard_ratio(fit, steps_var, cfg.hr_step_increment)
            hr, ci, pval = hr_, (lo, hi), wald_p_value(fit, steps_var)
            diverging = fit.diverging
        reports.append(
            ModelReport(
                name=name,
                covariates=tuple(covs),
                concordance=c,
                steps_variable=steps_var,
                steps_hr_per_500=hr,
                steps_hr_ci=ci,
                steps_p=pval,
                diverging=diverging,
            )
        )
    return reports

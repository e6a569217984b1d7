import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stepforge.model import make_config
from stepforge.simulate import gen_survival
from stepforge.survival import (
    ALIAS_TOL,
    ConvergenceError,
    _aliased_columns,
    _fold_beta,
    _loglik,
    _newton,
    _RiskSets,
    _score_hess,
    _score_residuals,
    CoxFit,
    SurvivalDataset,
    concordance,
    cox_fit,
    hazard_ratio,
    make_fold_plan,
    model_suite,
    repeated_cv_concordance,
    standardize,
    wald_p_value,
)


def dataset(t, ev, x, w=None, names=None):
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[0] != len(t):
        x = x.T
    return SurvivalDataset(
        followup_months=np.asarray(t, dtype=np.float64),
        event=np.asarray(ev, dtype=bool),
        covariates=x,
        weights=np.ones(len(t)) if w is None else np.asarray(w, dtype=np.float64),
        covariate_names=tuple(names or [f"x{i}" for i in range(x.shape[1])]),
    )


def breslow_partial_loglik(data, beta):
    """The engine's weighted Breslow partial log-likelihood at ``beta``."""
    ll, _ = _loglik(_RiskSets(data), np.asarray(beta, dtype=np.float64))
    return ll


def loglik_score_hess(risk, beta):
    """Log-likelihood, score and Hessian of the engine at one point."""
    ll, sums = _loglik(risk, beta)
    return (ll, *_score_hess(risk, sums))


def oracle_loglik(data, beta):
    """Dense per-event Breslow partial log-likelihood, written longhand."""
    beta = np.asarray(beta, dtype=np.float64)
    t, ev, w, x = data.followup_months, data.event, data.weights, data.covariates
    eta = [float(x[i] @ beta) for i in range(len(t))]
    terms = []
    for i in range(len(t)):
        if not ev[i]:
            continue
        s0 = math.fsum(
            w[j] * math.exp(eta[j]) for j in range(len(t)) if t[j] >= t[i]
        )
        terms.append(w[i] * (eta[i] - math.log(s0)))
    return math.fsum(terms)


def grid_argmax(data, lo=-5.0, hi=5.0, final_step=1e-5):
    """Coarse-to-fine 1-D grid maximization of the oracle likelihood."""
    step = 0.1
    best = None
    while step >= final_step / 2:
        grid = np.arange(lo, hi + step / 2, step)
        lls = [oracle_loglik(data, [b]) for b in grid]
        best = float(grid[int(np.argmax(lls))])
        lo, hi = best - step, best + step
        step /= 10
    return best


class TestSurvivalDataset:
    def test_field_validation(self):
        good = dict(t=[1.0, 2.0], ev=[True, False], x=[[1.0], [2.0]])
        dataset(**good)
        with pytest.raises(ValueError, match="at least one event"):
            dataset([1.0, 2.0], [False, False], [[1.0], [2.0]])
        with pytest.raises(ValueError, match="finite and nonnegative"):
            dataset([1.0, -2.0], [True, False], [[1.0], [2.0]])
        with pytest.raises(ValueError, match="complete"):
            dataset([1.0, 2.0], [True, False], [[math.nan], [2.0]])
        with pytest.raises(ValueError, match="positive and finite"):
            dataset([1.0, 2.0], [True, False], [[1.0], [2.0]], w=[1.0, 0.0])
        with pytest.raises(ValueError, match="must align"):
            SurvivalDataset(
                np.array([1.0]), np.array([True]), np.ones((2, 1)),
                np.ones(1), ("x",),
            )
        with pytest.raises(ValueError, match="unique"):
            dataset([1.0, 2.0], [True, False], np.ones((2, 2)), names=["a", "a"])

    def test_select_and_take(self):
        d = SurvivalDataset(
            followup_months=np.array([3.0, 1.0, 2.0, 5.0]),
            event=np.array([True, True, False, True]),
            covariates=np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0], [0.1, 0.3]]),
            weights=np.array([1.0, 0.5, 2.0, 1.5]),
            covariate_names=("a", "b"),
            subject_ids=("s1", "s2", "s3", "s4"),
            scaling={"a": (1.0, 2.0)},
        )
        sel = d.select(["b"])
        assert sel.covariate_names == ("b",)
        np.testing.assert_array_equal(sel.covariates[:, 0], [10.0, 20.0, 30.0, 0.3])
        rows = np.array([3, 0, 2])
        sub = d.take(rows)
        for name in ("followup_months", "event", "covariates", "weights"):
            a, b = getattr(sub, name), getattr(d, name)[rows]
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        assert sub.n_events == 2
        assert sub.subject_ids == ("s4", "s1", "s3")
        assert sub.covariate_names == d.covariate_names
        assert sub.scaling == d.scaling
        assert d.take([2, 0]).subject_ids == ("s3", "s1")

    def test_column_lookup(self):
        d = dataset([1.0, 2.0], [True, False], [[5.0], [6.0]], names=["steps"])
        np.testing.assert_array_equal(d.column("steps"), [5.0, 6.0])
        with pytest.raises(KeyError, match="unknown covariate"):
            d.column("missing")


class TestBreslowLoglik:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_dense_oracle_univariate(self, seed):
        d = gen_survival(40, -0.3 / 3000, 0.05, censor_rate=0.25, seed=seed)
        for beta in (-0.5, 0.0, 0.8):
            scaled = dataset(
                d.followup_months, d.event, d.covariates / 1000.0, d.weights
            )
            got = breslow_partial_loglik(scaled, [beta])
            want = oracle_loglik(scaled, [beta])
            assert got == pytest.approx(want, rel=1e-9)

    def test_matches_dense_oracle_multivariate_with_ties(self):
        rng = np.random.default_rng(7)
        n = 50
        d = dataset(
            rng.integers(1, 10, n).astype(float),  # heavy ties
            rng.random(n) < 0.6,
            rng.normal(size=(n, 3)),
            w=rng.uniform(0.5, 2.0, n),
        )
        if not d.event.any():  # pragma: no cover - seed chosen to avoid this
            pytest.skip("no events drawn")
        for beta in ([0.0, 0.0, 0.0], [0.3, -0.2, 0.5]):
            assert breslow_partial_loglik(d, beta) == pytest.approx(
                oracle_loglik(d, beta), rel=1e-9
            )


def oracle_derivatives(data, beta, center=False):
    """Breslow log-likelihood, score and Hessian with S0/S1/S2 summed over a
    boolean risk-set mask at each event time, written longhand.

    eta is shifted by its maximum, which cancels in all three.  ``center``
    forms eta and S1/S2 from column-centered values, as the engine does; the
    three do not move, eta does not carry the rounding of columns far from
    zero, and the oracle's own S2/S0 - xbar xbar^T does not cancel on them."""
    t, ev, w, x = data.followup_months, data.event, data.weights, data.covariates
    if center:
        x = x - x.mean(axis=0)
    eta = x @ beta
    eta = eta - eta.max()
    r = w * np.exp(eta)
    terms, score, hess = [], np.zeros(len(beta)), np.zeros((len(beta), len(beta)))
    for tk in np.unique(t[ev]):
        at_risk = t >= tk
        dying = ev & (t == tk)
        s0 = r[at_risk].sum()
        s1 = (r[at_risk, None] * x[at_risk]).sum(axis=0)
        s2 = sum(r[j] * np.outer(x[j], x[j]) for j in np.flatnonzero(at_risk))
        d0 = w[dying].sum()
        xbar = s1 / s0
        terms += [w[j] * eta[j] for j in np.flatnonzero(dying)] + [-d0 * math.log(s0)]
        score += (w[dying, None] * x[dying]).sum(axis=0) - d0 * xbar
        hess -= d0 * (s2 / s0 - np.outer(xbar, xbar))
    # log S0 carries the rounding of S0's sum as an absolute error, and the
    # engine shifts eta by its maximum: both scale with the event weight
    slack = w[ev].sum() * (1.0 + np.abs(eta).max())
    return math.fsum(terms), score, hess, math.fsum(abs(v) for v in terms) + slack


@st.composite
def risk_set_data(draw):
    """Small weighted designs with tied times and rows censored after the
    last event time."""
    n = draw(st.integers(2, 25))
    p = draw(st.integers(1, 6))
    times = draw(st.lists(st.integers(1, 8), min_size=n, max_size=n))
    event = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    event[draw(st.integers(0, n - 1))] = True
    late = draw(st.integers(0, 3))  # censored beyond every event time
    times += [9 + k for k in range(late)]
    event += [False] * late
    n += late
    floats = st.floats(-2.0, 2.0, allow_nan=False)
    x = np.array(draw(st.lists(floats, min_size=n * p, max_size=n * p))).reshape(n, p)
    w = draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
    beta = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=p, max_size=p)))
    return dataset(times, event, x, w=w), beta


class TestRiskSetEngine:
    @settings(max_examples=150, deadline=None)
    @given(risk_set_data())
    def test_matches_risk_set_mask_oracle(self, drawn):
        data, beta = drawn
        risk = _RiskSets(data)
        ll, score, hess = loglik_score_hess(risk, beta)
        want_ll, want_score, want_hess, ll_scale = oracle_derivatives(data, beta)
        assert ll == pytest.approx(want_ll, rel=1e-12, abs=1e-12 * ll_scale)
        # event weight times the largest |x| (score) or x^2 (Hessian)
        xmax = max(np.abs(data.covariates).max(), 1.0)
        scale = data.weights[data.event].sum() * xmax
        np.testing.assert_allclose(score, want_score, rtol=0, atol=1e-10 * scale)
        np.testing.assert_allclose(hess, want_hess, rtol=0, atol=1e-10 * scale * xmax)
        resid = _score_residuals(risk, beta)
        np.testing.assert_allclose(resid.sum(axis=0), score, rtol=0, atol=1e-10 * scale)


def per_event_time_loglik_score(data, beta):
    """Log-likelihood and score as the per-event-time S2 engine computed
    them, copied verbatim from it.  Fed the column-centered design, which
    the engine now holds, it must give both bit for bit."""
    t, ev, w, x = data.followup_months, data.event, data.weights, data.covariates
    ascending = np.argsort(t, kind="stable")
    desc = ascending[::-1]
    xs = x[desc]
    event_times = np.unique(t[ev])
    ends = len(t) - np.searchsorted(t, event_times, sorter=ascending)
    event_rows = np.flatnonzero(ev)
    k_of_event = np.searchsorted(event_times, t[event_rows])
    ew = w[event_rows]
    d0 = np.bincount(k_of_event, ew, len(event_times))
    d1 = np.zeros((len(event_times), x.shape[1]))
    np.add.at(d1, k_of_event, ew[:, None] * x[event_rows])
    d1_total = d1.sum(axis=0)
    eta = x @ beta
    eta = eta - eta.max()
    rexp = (w * np.exp(eta))[desc]
    at = ends - 1
    s0 = np.cumsum(rexp)[at]
    s1 = np.cumsum(rexp[:, None] * xs, axis=0)[at]
    d_eta = np.bincount(k_of_event, w[event_rows] * eta[event_rows], len(s0))
    ll = math.fsum(d_eta - d0 * np.log(s0))
    xbar = s1 / s0[:, None]
    score = d1_total - (d0[:, None] * xbar).sum(axis=0)
    return ll, score


@st.composite
def offset_design_data(draw):
    """Weighted designs with tied times whose columns sit up to 1e5 of
    their sd away from zero.  With ``underflow`` the first coefficient
    spreads eta over more than 745, so some exp(eta) underflow to 0; the
    row with the largest eta is then moved to the last time, so it keeps
    every risk set's S0 positive."""
    n = draw(st.integers(3, 25))
    p = draw(st.integers(1, 4))
    times = draw(st.lists(st.integers(1, 8), min_size=n, max_size=n))
    event = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    event[draw(st.integers(0, n - 1))] = True
    late = draw(st.integers(0, 3))
    times += [9 + k for k in range(late)]
    event += [False] * late
    n += late

    def floats(lo, hi, size):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=size, max_size=size)))

    def grid(lo, hi, step, size):
        # on a grid, so that no product of two values is subnormal
        ints = st.integers(round(lo / step), round(hi / step))
        return step * np.array(draw(st.lists(ints, min_size=size, max_size=size)))

    sd = floats(1e-2, 1e2, p)
    offset = grid(-1e5, 1e5, 1e-3, p)  # column mean, in units of its sd
    z = grid(-2.0, 2.0, 1e-2, n * p).reshape(n, p)
    w = floats(0.1, 10.0, n)
    beta = floats(-1.0, 1.0, p)  # per sd
    underflow = draw(st.booleans())
    if underflow:
        z[0, 0], z[1, 0] = -2.0, 2.0
        beta[0] = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(300.0, 400.0))
    x = (offset + z) * sd
    beta = beta / sd
    if underflow:
        times[int(np.argmax(x @ beta))] = max(times)
    return dataset(times, event, x, w=w), beta, underflow


class TestClosedFormHessian:
    @settings(max_examples=200, deadline=None)
    @given(offset_design_data())
    def test_matches_risk_set_mask_oracle(self, drawn):
        data, beta, underflow = drawn
        risk = _RiskSets(data)
        ll, score, hess = loglik_score_hess(risk, beta)
        centered = replace(data, covariates=data.covariates - data.covariates.mean(axis=0))
        want_ll, want_score = per_event_time_loglik_score(centered, beta)
        assert ll == want_ll
        np.testing.assert_array_equal(score, want_score)
        eta = data.covariates @ beta
        if underflow:
            assert np.any(np.exp(eta - eta.max()) == 0.0)
        _, _, want_hess, _ = oracle_derivatives(data, beta, center=True)
        # event weight times the product of the two columns' largest
        # centered |x|, which is the scale of the information itself.  The
        # floor covers a (near-)constant column, whose mean and xbar_k carry
        # rounding errors of a few units in the last place of |x|.
        x = np.abs(data.covariates)
        xc = np.abs(data.covariates - data.covariates.mean(axis=0)).max(axis=0)
        xc = np.maximum(xc, 1e-8 * x.max(axis=0))
        scale = data.weights[data.event].sum() * np.outer(xc, xc)
        assert np.all(np.abs(hess - want_hess) <= 1e-13 * scale)
        # the residuals stay finite where some exp(eta) underflow, and their
        # rows sum to the score within rounding of the largest |x|
        resid = _score_residuals(risk, beta)
        assert np.all(np.isfinite(resid))
        score_scale = data.weights[data.event].sum() * x.max(axis=0)
        assert np.all(np.abs(resid.sum(axis=0) - score) <= 1e-12 * score_scale)

    def test_subnormal_s0_keeps_the_hessian_finite(self):
        # at the second event time only rows with eta - max = -712 are at
        # risk: S0 is subnormal and d0/S0 alone overflows, while each row's
        # weight r_i * g0_i stays below the total event weight
        data = dataset([1.0, 2.0, 3.0], [True, True, False], [0.0, -1.0, -1.0])
        beta = np.array([712.0])
        _, _, hess = loglik_score_hess(_RiskSets(data), beta)
        _, _, want, _ = oracle_derivatives(data, beta, center=True)
        assert np.all(np.isfinite(hess))
        np.testing.assert_allclose(hess, want, rtol=0, atol=1e-12)

    def test_subnormal_s0_keeps_the_score_residuals_finite(self):
        # the same design: rate d0/S0 overflows at the second event time,
        # while every residual row stays below the total event weight
        data = dataset([1.0, 2.0, 3.0], [True, True, False], [0.0, -1.0, -1.0])
        beta = np.array([712.0])
        risk = _RiskSets(data)
        resid = _score_residuals(risk, beta)
        _, score, _ = loglik_score_hess(risk, beta)
        assert np.all(np.isfinite(resid))
        np.testing.assert_allclose(resid.sum(axis=0), score, rtol=0, atol=1e-12)


class TestCoxFit:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_grid_oracle(self, seed):
        d = gen_survival(30, -0.3 / 3000, 0.05, censor_rate=0.2, seed=seed)
        scaled = dataset(
            d.followup_months, d.event, d.covariates / 1000.0, d.weights,
            names=["steps_k"],
        )
        fit = cox_fit(scaled)
        assert fit.converged
        assert abs(fit.beta[0] - grid_argmax(scaled)) < 1e-4
        assert fit.diverging == ()

    def test_loglik_sequence_nondecreasing(self):
        d = gen_survival(80, -0.4 / 3000, 0.03, censor_rate=0.3, seed=11)
        fit = cox_fit(d)
        seq = np.asarray(fit.loglik_seq)
        assert np.all(np.diff(seq) >= 0)

    def test_identical_groups_give_zero_effect(self):
        t = np.tile(np.arange(1.0, 11.0), 2)
        ev = np.ones(20, dtype=bool)
        x = np.concatenate([np.zeros(10), np.ones(10)])
        fit = cox_fit(dataset(t, ev, x[:, None]))
        assert abs(fit.beta[0]) < 1e-8

    def test_weight_rescaling_invariance(self):
        rng = np.random.default_rng(13)
        d = gen_survival(60, -0.5 / 3000, 0.04, censor_rate=0.2, seed=13)
        w = rng.uniform(0.5, 4.0, size=60)
        base = dataset(d.followup_months, d.event, d.covariates / 1000.0, w)
        scaled = dataset(d.followup_months, d.event, d.covariates / 1000.0, 10.0 * w)
        fa, fb = cox_fit(base), cox_fit(scaled)
        np.testing.assert_allclose(fb.beta, fa.beta, atol=1e-10)
        np.testing.assert_allclose(fb.covariance, fa.covariance, rtol=1e-8)

    def test_rank_deficient_design_rejected(self):
        d = gen_survival(30, -0.3 / 3000, 0.05, censor_rate=0.2, seed=1)
        x = np.column_stack([d.covariates[:, 0], 2.0 * d.covariates[:, 0]])
        with pytest.raises(ValueError, match="rank deficient"):
            cox_fit(dataset(d.followup_months, d.event, x, d.weights))
        const = np.column_stack([d.covariates[:, 0], np.full(30, 3.0)])
        with pytest.raises(ValueError, match="rank deficient"):
            cox_fit(dataset(d.followup_months, d.event, const, d.weights))

    def test_no_covariates_rejected(self):
        d = dataset([1.0, 2.0], [True, False], np.empty((2, 0)), names=[])
        with pytest.raises(ValueError, match="no covariates"):
            cox_fit(d)

    def test_separation_saturates_at_supremum(self):
        # higher covariate always fails earlier: the likelihood is monotone in
        # beta and climbs to its supremum (0 for a perfect ordering), where the
        # relative-change tolerance stops the iteration at a huge coefficient
        x = np.arange(1.0, 21.0)
        t = 21.0 - x
        fit = cox_fit(dataset(t, np.ones(20, dtype=bool), x[:, None]))
        assert fit.beta[0] > 5.0
        assert fit.loglik_seq[-1] == pytest.approx(0.0, abs=1e-9)
        seq = np.asarray(fit.loglik_seq)
        assert np.all(np.diff(seq) >= 0)

    def test_a_column_with_no_events_is_flagged_as_diverging(self):
        """Three censored subjects alone carry ``flag``: the likelihood rises
        towards a bound as its beta falls, and the fit stops on the
        log-likelihood tolerance with a Newton step of about 1 still untaken.
        R ``coxph.fit``'s rule flags that column and only that one."""
        d = gen_survival(80, -0.4 / 3000, 0.03, censor_rate=0.3, seed=11)
        flag = np.zeros(80)
        flag[np.flatnonzero(~d.event)[:3]] = 1.0
        x = np.column_stack([d.covariates[:, 0], flag])
        fit = cox_fit(dataset(d.followup_months, d.event, x, d.weights,
                              names=["steps", "flag"]))
        assert fit.converged
        assert fit.beta[1] < -5.0
        assert fit.diverging == ("flag",)
        assert cox_fit(d).diverging == ()

    def test_iteration_cap_raises_with_last_fit(self, monkeypatch):
        import stepforge.survival as survival

        d = gen_survival(80, -0.4 / 3000, 0.03, censor_rate=0.3, seed=11)
        full = cox_fit(d)
        monkeypatch.setattr(survival, "NEWTON_MAX_ITER", 2)
        with pytest.raises(ConvergenceError, match="did not converge in 2") as exc_info:
            cox_fit(d)
        last = exc_info.value.last_fit
        assert not last.converged
        assert len(last.loglik_seq) == 3
        # the capped iterate is already descending toward the full solution
        assert abs(last.beta[0] - full.beta[0]) < abs(full.beta[0])


def survival_design(seed, n, p):
    """A weighted design whose first column drives the hazard."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p)) * rng.uniform(0.1, 1e3, size=p)
    t = np.round(rng.exponential(np.exp(-0.5 * x[:, 0] / x[:, 0].std())), 1)
    ev = rng.random(n) < 0.7
    ev[:3] = True
    return t, ev, x, rng.uniform(0.5, 3.0, size=n)


@st.composite
def aliased_designs(draw):
    """A design and the same design with aliased columns inserted: constant
    columns anywhere, and duplicates or linear combinations of earlier
    columns after them, so the in-order rule marks the inserted ones."""
    p = draw(st.integers(1, 4))
    t, ev, x, w = survival_design(draw(st.integers(0, 10_000)), draw(st.integers(30, 80)), p)
    columns = [x[:, j] for j in range(p)]
    aliased = [False] * p
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(["constant", "duplicate", "combination"]))
        if kind == "constant":
            value = draw(st.sampled_from([0.0, 1.0, 0.1, -3.7, 1e6 / 3.0]))
            col, at = np.full(len(t), value), draw(st.integers(0, len(columns)))
        else:
            sources = [j for j in range(len(columns)) if not aliased[j]]
            if kind == "duplicate":
                picked = [draw(st.sampled_from(sources))]
                coef = [1.0]
            else:
                picked = draw(st.lists(st.sampled_from(sources), min_size=1, unique=True))
                size = len(picked)
                signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=size, max_size=size))
                sizes = draw(st.lists(st.floats(0.1, 3.0), min_size=size, max_size=size))
                coef = [a * b for a, b in zip(signs, sizes)]
            col = sum(c * columns[j] for c, j in zip(coef, picked)) + draw(st.floats(-5.0, 5.0))
            at = draw(st.integers(max(picked) + 1, len(columns)))
        columns.insert(at, col)
        aliased.insert(at, True)
    full = dataset(t, ev, np.column_stack(columns), w=w)
    return full, np.array(aliased)


class TestAliasedColumns:
    def test_threshold_is_r_toler_chol(self):
        assert ALIAS_TOL == np.finfo(np.float64).eps ** 0.75

    @pytest.mark.parametrize("pivot, aliased", [(1e-11, False), (1e-13, True)])
    def test_pivot_on_either_side_of_the_threshold(self, pivot, aliased):
        # the second column's pivot is (1 + pivot) - 1, relative to a
        # largest diagonal entry of about 1
        info = np.array([[1.0, 1.0], [1.0, 1.0 + pivot]])
        assert _aliased_columns(info).tolist() == [False, aliased]

    def test_constant_and_nonfinite_pivots(self):
        assert _aliased_columns(np.zeros((2, 2))).tolist() == [True, True]
        info = np.array([[np.nan, 0.0], [0.0, 2.0]])
        assert _aliased_columns(info).tolist() == [True, False]

    def test_constant_column_whose_mean_rounds(self):
        # thirteen copies of 0.1 do not average to 0.1, so centering alone
        # leaves a constant residue in the column
        t, ev, _, w = survival_design(3, 13, 1)
        x = np.full((13, 1), 0.1)
        assert x.mean() != 0.1
        d = dataset(t, ev, x, w=w)
        with pytest.raises(ValueError, match="rank deficient"):
            cox_fit(d)
        assert _fold_beta(d).tolist() == [0.0]

    @settings(max_examples=100, deadline=None)
    @given(aliased_designs())
    def test_fold_fit_equals_the_fit_without_aliased_columns(self, drawn):
        full, aliased = drawn
        kept = [n for n, a in zip(full.covariate_names, aliased) if not a]
        reduced = full.select(kept)
        try:
            want = cox_fit(reduced).beta
        except ConvergenceError:
            assume(False)
        expected = np.zeros(len(aliased))
        expected[~aliased] = _fold_beta(reduced)
        np.testing.assert_array_equal(expected[~aliased], want)
        np.testing.assert_array_equal(_fold_beta(full), expected)
        with pytest.raises(ValueError, match="rank deficient"):
            cox_fit(full)

    @pytest.mark.parametrize("gap, aliased", [(1e-4, False), (1e-9, True)])
    def test_near_collinear_pair_on_either_side(self, gap, aliased):
        # the pair's pivot is about gap^2 of the largest diagonal entry,
        # against a threshold of eps^0.75 = 1.8e-12
        t, ev, x, w = survival_design(5, 120, 2)
        z = (x[:, 1] - x[:, 1].mean()) / x[:, 1].std()
        pair = x[:, 0] / x[:, 0].std() + gap * z
        d = dataset(t, ev, np.column_stack([x[:, 0], pair]), w=w)
        if aliased:
            with pytest.raises(ValueError, match="rank deficient"):
                cox_fit(d)
            beta = _fold_beta(d)
            assert beta[1] == 0.0
            np.testing.assert_array_equal(beta[:1], cox_fit(d.select(["x0"])).beta)
        else:
            fit = cox_fit(d)
            assert fit.converged and np.all(np.isfinite(fit.beta))
            np.testing.assert_array_equal(_fold_beta(d), fit.beta)

    def test_cv_fold_with_a_constant_column(self):
        # chf is 1 in one row only, so the training fold that leaves that
        # row out has a constant chf; the CV run fits steps alone there
        t, ev, x, w = survival_design(11, 60, 1)
        chf = np.zeros(60)
        chf[7] = 1.0
        d = dataset(t, ev, np.column_stack([x[:, 0], chf]), w=w, names=["steps", "chf"])
        cfg = make_config({"cv_folds": 5, "cv_repeats": 2})
        with pytest.MonkeyPatch.context() as monkeypatch:
            fits = TestRepeatedCv.record_fold_fits(monkeypatch)
            mean_c, _ = repeated_cv_concordance(d, ["steps", "chf"], cfg)
        assert math.isfinite(mean_c) and 0.0 < mean_c < 1.0
        # _newton records only the fits that get past the alias check: the
        # fold with a constant chf was refitted on steps alone, once a repeat
        refits = [train for train, _ in fits if train.covariate_names == ("steps",)]
        assert len(refits) == 2
        fold = d.take(np.flatnonzero(np.arange(60) != 7))
        with pytest.raises(ValueError, match="rank deficient"):
            cox_fit(fold)
        beta = _fold_beta(fold)
        assert beta[1] == 0.0
        np.testing.assert_array_equal(beta[:1], cox_fit(fold.select(["steps"])).beta)

    def test_no_svd_in_a_fit_or_a_cv_run(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an SVD was computed")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        monkeypatch.setattr(np.linalg, "matrix_rank", refuse)
        d = ladder_dataset()
        assert _newton(d).converged
        cfg = make_config({"cv_folds": 5, "cv_repeats": 1})
        mean_c, _ = repeated_cv_concordance(d, d.covariate_names, cfg)
        assert 0.0 < mean_c < 1.0


COX_PROBE = Path(__file__).with_name("data") / "cox_probe.csv"


def cox_probe_fold():
    """A CV training fold on which the last Newton step gains less than the
    last bit of the log-likelihood (29 rows, 20 events, 7 columns)."""
    table = np.genfromtxt(COX_PROBE, delimiter=",", names=True)
    names = table.dtype.names[3:]
    return SurvivalDataset(
        followup_months=table["followup_months"],
        event=table["event"].astype(bool),
        covariates=np.column_stack([table[n] for n in names]),
        weights=table["weight"],
        covariate_names=tuple(names),
    )


class TestCoxFitStopping:
    def test_probe_fold_converges_at_a_local_maximum(self):
        data = cox_probe_fold()
        fit = cox_fit(data)
        assert fit.converged
        # no move of 0.01 per column-sd along any coordinate raises the
        # likelihood
        best = breslow_partial_loglik(data, fit.beta)
        sd = data.covariates.std(axis=0, ddof=1)
        for j in range(len(fit.beta)):
            for sign in (-1.0, 1.0):
                moved = fit.beta.copy()
                moved[j] += sign * 0.01 / sd[j]
                assert breslow_partial_loglik(data, moved) <= best

    @staticmethod
    def report_ulp_loss_at_the_optimum(monkeypatch):
        # Once the real gain of a trial falls below the relative tolerance,
        # report it as a loss of one unit in the last place of the current
        # log-likelihood, as rounding did on this fold: every halving is then
        # refused, and the predicted gain decides convergence.
        import stepforge.survival as survival

        real = survival._loglik
        reported = []  # (log-likelihood reported, whether it was made a loss)

        def ulp_loss_at_the_optimum(risk, beta):
            ll, sums = real(risk, beta)
            current = max((r for r, _ in reported), default=-math.inf)
            loss = ll - current < 1e-9 * abs(current)
            if loss:
                ll = np.nextafter(current, -math.inf)
            reported.append((ll, loss))
            return ll, sums

        monkeypatch.setattr(survival, "_loglik", ulp_loss_at_the_optimum)
        return reported

    def test_refused_step_at_the_optimum_converges(self, monkeypatch):
        reported = self.report_ulp_loss_at_the_optimum(monkeypatch)
        fit = cox_fit(cox_probe_fold())
        assert fit.converged
        losses = [loss for _, loss in reported]
        assert losses[-31:] == [True] * 31  # the Newton step and 30 halvings
        assert not any(losses[:-31])

    def test_refused_step_at_the_optimum_converges_without_covariance(
        self, monkeypatch
    ):
        # the coefficient search that cross-validation folds run alone
        reported = self.report_ulp_loss_at_the_optimum(monkeypatch)
        newton = _newton(cox_probe_fold())
        assert newton.converged
        losses = [loss for _, loss in reported]
        assert losses[-31:] == [True] * 31
        assert not any(losses[:-31])
        reported.clear()
        np.testing.assert_array_equal(newton.raw_beta, cox_fit(cox_probe_fold()).beta)

    @staticmethod
    def refuse_every_move(monkeypatch):
        import stepforge.survival as survival

        real = survival._loglik

        def refuse(risk, beta):
            # every fit stalls at its start, beta = 0
            ll, sums = real(risk, beta)
            return (ll if not beta.any() else -math.inf), sums

        monkeypatch.setattr(survival, "_loglik", refuse)

    def test_failed_step_search_names_its_step_count(self, monkeypatch):
        self.refuse_every_move(monkeypatch)
        d = gen_survival(80, -0.4 / 3000, 0.03, censor_rate=0.3, seed=11)
        with pytest.raises(ConvergenceError, match="step search failed after 0 steps"):
            cox_fit(d)

    def test_failed_step_search_in_a_cv_fold_scores_its_last_beta(self, monkeypatch):
        # R coxph returns a fit that stalls with a warning, so its fold is
        # scored; every fold here stalls at beta = 0, which ties every
        # held-out prediction: C is 1/2 in each fold
        self.refuse_every_move(monkeypatch)
        d = gen_survival(80, -0.4 / 3000, 0.03, censor_rate=0.3, seed=11)
        cfg = make_config({"cv_folds": 4, "cv_repeats": 1})
        mean_c, per_repeat = repeated_cv_concordance(d, ["steps"], cfg)
        assert mean_c == per_repeat[0] == 0.5
        # a full-sample fit still raises, with its last fit
        with pytest.raises(ConvergenceError, match="step search failed after 0 steps") as exc:
            cox_fit(d)
        assert exc.value.last_fit.beta.tolist() == [0.0]


class TestEffectReporting:
    def fabricated(self, beta, var):
        return CoxFit(
            beta=np.array([beta]),
            covariance=np.array([[var]]),
            loglik_seq=(0.0,),
            converged=True,
            n_events=10,
            covariate_names=("x",),
        )

    def test_null_effect_is_unit_ratio(self):
        hr, lo, hi = hazard_ratio(self.fabricated(0.0, 0.04), "x", 1.0)
        assert hr == 1.0
        assert lo == pytest.approx(math.exp(-1.959963984540054 * 0.2), rel=1e-12)
        assert hi == pytest.approx(1.0 / lo, rel=1e-12)

    def test_reciprocal_delta(self):
        fit = self.fabricated(-0.0025, 1e-8)
        hr_up, *_ = hazard_ratio(fit, "x", 500.0)
        hr_dn, *_ = hazard_ratio(fit, "x", -500.0)
        assert hr_up * hr_dn == pytest.approx(1.0, abs=1e-12)

    def test_literature_anchor(self):
        fit = self.fabricated(math.log(0.95) / 500.0, 1e-10)
        hr, lo, hi = hazard_ratio(fit, "x", 500.0)
        assert hr == pytest.approx(0.95, abs=1e-12)
        assert lo < hr < hi

    def test_wald_p_reference_points(self):
        assert wald_p_value(self.fabricated(0.0, 1.0), "x") == 1.0
        p = wald_p_value(self.fabricated(1.959963984540054, 1.0), "x")
        assert p == pytest.approx(0.05, abs=1e-9)

    def test_huge_effect_does_not_overflow(self):
        hr, lo, hi = hazard_ratio(self.fabricated(500.0, 1.0), "x", 10.0)
        assert hr == math.inf and hi == math.inf


class TestStandardize:
    def test_unit_moments_and_fit_mapping(self):
        d = gen_survival(80, -0.5 / 3000, 0.04, censor_rate=0.2, seed=21)
        z = standardize(d, "steps")
        col = z.column("steps")
        assert abs(col.mean()) < 1e-12
        assert col.std(ddof=1) == pytest.approx(1.0, abs=1e-12)
        mean, sd = z.scaling["steps"]
        assert sd == pytest.approx(d.column("steps").std(ddof=1))
        beta_raw = cox_fit(d).beta[0]
        beta_scaled = cox_fit(z).beta[0]
        assert beta_scaled == pytest.approx(beta_raw * sd, abs=1e-8)

    def test_zero_variance_rejected(self):
        d = dataset([1.0, 2.0, 3.0], [True, True, False], np.full((3, 1), 2.0))
        with pytest.raises(ValueError, match="zero variance"):
            standardize(d, "x0")


def concordance_oracle(pred, data):
    """Same pair rule, outer loop over the later subject instead."""
    comp, conc = [], []
    t, ev, w = data.followup_months, data.event, data.weights
    for j in range(len(t)):
        for i in range(len(t)):
            if ev[i] and t[i] < t[j]:
                pw = w[i] * w[j]
                comp.append(pw)
                if pred[i] > pred[j]:
                    conc.append(pw)
                elif pred[i] == pred[j]:
                    conc.append(0.5 * pw)
    return math.fsum(conc) / math.fsum(comp)


def per_event_concordance(predictors, data):
    """The per-event loop that the events x rows mask replaced, verbatim:
    the mask must sum the same multiset of pair terms."""
    pred = np.asarray(predictors, dtype=np.float64)
    if pred.shape != data.followup_months.shape:
        raise ValueError("predictors must align with data rows")
    t = data.followup_months
    w = data.weights
    comparable: list[np.ndarray] = []
    concordant: list[np.ndarray] = []
    for i in np.flatnonzero(data.event):
        later = t[i] < t
        pw = w[i] * w[later]
        others = pred[later]
        comparable.append(pw)
        concordant.append(pw[pred[i] > others])
        concordant.append(0.5 * pw[pred[i] == others])
    total = math.fsum(np.concatenate(comparable).tolist())
    if total == 0.0:
        raise ValueError("no comparable pairs")
    return math.fsum(np.concatenate(concordant).tolist()) / total


class TestConcordance:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_bitwise_equal_to_per_event_loop(self, drawn):
        n = drawn.draw(st.integers(1, 40))

        def column(values):
            return np.array(drawn.draw(st.lists(values, min_size=n, max_size=n)), dtype=float)

        # tied times and tied predictors on a coarse grid, or free floats
        coarse = drawn.draw(st.booleans())
        t = column(st.integers(0, 6) if coarse else st.floats(0.0, 1e3))
        pred = column(st.integers(-2, 2) if coarse else st.floats(-1e6, 1e6))
        w = column(st.floats(1e-3, 1e3))
        ev = np.zeros(n, dtype=bool)
        events = drawn.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
        ev[events] = True  # a single event when one index is drawn
        d = dataset(t, ev, pred[:, None], w=w)
        try:
            want = per_event_concordance(pred, d)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                concordance(pred, d)
        else:
            got = concordance(pred, d)
            assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)

    @pytest.mark.parametrize("seed", range(8))
    def test_bitwise_equal_to_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = 60
        t = rng.integers(1, 15, size=n).astype(float)  # ties in time
        ev = rng.random(n) < 0.7
        ev[0] = True
        w = rng.uniform(0.5, 3.0, size=n).round(2)
        pred = rng.integers(0, 6, size=n).astype(float)  # ties in predictor
        d = dataset(t, ev, pred[:, None], w=w)
        assert concordance(pred, d) == concordance_oracle(pred, d)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_bitwise_equal_to_pairwise_oracle(self, drawn):
        n = drawn.draw(st.integers(1, 30))

        def column(values):
            drawn_values = drawn.draw(st.lists(values, min_size=n, max_size=n))
            return np.array(drawn_values, dtype=float)

        t = column(st.integers(0, 5))  # tied times
        pred = column(st.integers(0, 3))  # tied predictors
        w = column(st.floats(0.1, 10.0))
        ev = np.zeros(n, dtype=bool)
        events = drawn.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
        ev[events] = True  # a single event when one index is drawn
        d = dataset(t, ev, pred[:, None], w=w)
        if not any(ev[i] and t[i] < t[j] for i in range(n) for j in range(n)):
            with pytest.raises(ValueError, match="no comparable"):
                concordance(pred, d)
        else:
            assert concordance(pred, d) == concordance_oracle(pred, d)

    def test_perfect_and_constant_predictors(self):
        t = np.array([5.0, 3.0, 9.0, 1.0, 7.0])
        ev = np.ones(5, dtype=bool)
        d = dataset(t, ev, t[:, None])
        assert concordance(-t, d) == 1.0  # earlier failure scored higher
        assert concordance(np.zeros(5), d) == 0.5

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        t = rng.uniform(1, 20, 40)
        ev = rng.random(40) < 0.6
        ev[0] = True
        pred = rng.normal(size=40)
        d = dataset(t, ev, pred[:, None])
        assert concordance(pred, d) == concordance(np.exp(pred), d)

    def test_no_comparable_pairs(self):
        # single event at the latest time: no later subjects to compare with
        d = dataset([1.0, 2.0, 3.0], [False, False, True], [[0.1], [0.2], [0.3]])
        with pytest.raises(ValueError, match="no comparable"):
            concordance([1.0, 2.0, 3.0], d)

    def test_alignment_check(self):
        d = dataset([1.0, 2.0], [True, False], [[0.0], [1.0]])
        with pytest.raises(ValueError, match="align"):
            concordance([1.0], d)


def per_row_fold_plan(event, k, seed, repeat_index):
    """The per-row dealing loop that the vectorised plan replaced."""
    ev = np.asarray(event, dtype=bool)
    rng = np.random.default_rng(seed + repeat_index)
    events = rng.permutation(np.flatnonzero(ev))
    censored = rng.permutation(np.flatnonzero(~ev))
    assignment = np.empty(len(ev), dtype=np.int64)
    for m, row in enumerate(np.concatenate([events, censored])):
        assignment[row] = m % k
    return assignment


class TestFoldPlans:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.booleans(), min_size=2, max_size=60),
        st.integers(2, 10),
        st.integers(0, 2**63 - 1),
        st.integers(0, 99),
    )
    def test_same_assignment_as_per_row_dealing(self, event, k, seed, repeat_index):
        assume(len(event) >= k)
        fold_of_row = make_fold_plan(np.array(event), k, seed, repeat_index)
        assert fold_of_row.dtype == np.int64
        np.testing.assert_array_equal(
            fold_of_row, per_row_fold_plan(event, k, seed, repeat_index)
        )

    def test_partition_and_balance(self):
        rng = np.random.default_rng(4)
        ev = rng.random(103) < 0.3
        fold_of_row = make_fold_plan(ev, k=10, seed=7, repeat_index=0)
        sizes = np.bincount(fold_of_row, minlength=10)
        events = np.bincount(fold_of_row[ev], minlength=10)
        assert sizes.sum() == 103
        assert max(sizes) - min(sizes) <= 1
        assert max(events) - min(events) <= 1
        assert set(fold_of_row.tolist()) == set(range(10))

    def test_train_test_complementary(self):
        ev = np.zeros(20, dtype=bool)
        ev[:6] = True
        fold_of_row = make_fold_plan(ev, k=4, seed=0, repeat_index=2)
        assert fold_of_row.shape == (20,)
        for f in range(4):
            test = np.flatnonzero(fold_of_row == f)
            train = np.flatnonzero(fold_of_row != f)
            assert len(test) == 5 and len(train) == 15
            assert ev[test].any() and ev[train].any()

    def test_deterministic_and_repeat_sensitive(self):
        ev = np.arange(30) % 3 == 0
        a = make_fold_plan(ev, 5, seed=9, repeat_index=0)
        b = make_fold_plan(ev, 5, seed=9, repeat_index=0)
        c = make_fold_plan(ev, 5, seed=9, repeat_index=1)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            make_fold_plan(np.array([True, False]), 1, 0, 0)
        with pytest.raises(ValueError, match="fewer rows"):
            make_fold_plan(np.array([True, False]), 3, 0, 0)


class TestRepeatedCv:
    def test_strong_signal_frozen_value(self):
        cfg = make_config({"cv_folds": 10, "cv_repeats": 5})
        data = gen_survival(500, -12.0 / 3000.0, 0.05, censor_rate=0.0, seed=3)
        mean_c, per_repeat = repeated_cv_concordance(data, ["steps"], cfg)
        assert mean_c == pytest.approx(0.9678040816326531, abs=1e-12)
        assert len(per_repeat) == 5
        assert mean_c > 0.95

    def test_null_signal_hovers_at_half(self):
        cfg = make_config({"cv_folds": 10, "cv_repeats": 5})
        data = gen_survival(500, 0.0, 0.002, censor_rate=0.3, seed=5)
        mean_c, _ = repeated_cv_concordance(data, ["steps"], cfg)
        assert mean_c == pytest.approx(0.5264665702858593, abs=1e-12)
        assert 0.45 <= mean_c <= 0.55

    def test_deterministic(self):
        cfg = make_config({"cv_folds": 5, "cv_repeats": 3})
        data = gen_survival(120, -1.0 / 3000.0, 0.02, censor_rate=0.2, seed=8)
        a = repeated_cv_concordance(data, ["steps"], cfg)
        b = repeated_cv_concordance(data, ["steps"], cfg)
        assert a == b

    @staticmethod
    def record_fold_fits(monkeypatch):
        import stepforge.survival as survival

        real = survival._newton
        fits = []  # (training fold, its coefficient search)

        def record(data, *args):
            newton = real(data, *args)
            fits.append((data, newton))
            return newton

        monkeypatch.setattr(survival, "_newton", record)
        return fits

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 4), st.integers(3, 6))
    def test_fold_coefficients_equal_cox_fit_bitwise(self, seed, p, k):
        rng = np.random.default_rng(seed)
        n = 60
        x = rng.normal(size=(n, p)) * rng.uniform(0.1, 1e3, size=p)
        t = np.round(rng.exponential(np.exp(-0.5 * x[:, 0] / x[:, 0].std())), 1)
        ev = rng.random(n) < 0.6
        ev[:k] = True
        d = dataset(t, ev, x, w=rng.uniform(0.5, 3.0, size=n))
        cfg = make_config({"cv_folds": k, "cv_repeats": 2, "rng_seed": seed})
        with pytest.MonkeyPatch.context() as monkeypatch:
            fits = self.record_fold_fits(monkeypatch)
            try:
                repeated_cv_concordance(d, d.covariate_names, cfg)
            except ValueError:
                pass  # a failed fold stops the run; the fits before it still count
        assert fits
        for train, newton in fits:
            if newton.converged:
                beta = cox_fit(train).beta
            else:
                with pytest.raises(ConvergenceError) as exc:
                    cox_fit(train)
                beta = exc.value.last_fit.beta
            np.testing.assert_array_equal(newton.raw_beta, beta)

    def test_probe_fold_coefficients_equal_cox_fit_bitwise(self):
        data = cox_probe_fold()
        newton = _newton(data)
        fit = cox_fit(data)
        assert newton.converged
        np.testing.assert_array_equal(newton.raw_beta, fit.beta)
        assert tuple(newton.loglik_seq) == fit.loglik_seq

    def test_too_few_events_for_folds(self):
        t = np.arange(1.0, 21.0)
        ev = np.zeros(20, dtype=bool)
        ev[3] = True
        d = dataset(t, ev, np.linspace(0, 1, 20)[:, None], names=["steps"])
        cfg = make_config({"cv_folds": 5, "cv_repeats": 1})
        with pytest.raises(ValueError, match="could not build folds"):
            repeated_cv_concordance(d, ["steps"], cfg)


def ladder_dataset(n=150, seed=9):
    rng = np.random.default_rng(seed)
    age = rng.uniform(50, 80, n)
    steps_a = np.maximum(rng.normal(9000, 2500, n), 0.0)
    steps_b = steps_a * rng.lognormal(0.0, 0.25, n)
    mims = steps_a * 1.3 * rng.lognormal(0.0, 0.3, n)
    lp = 0.04 * (age - 65.0) - 0.00025 * steps_a
    t_event = rng.exponential(1.0 / (0.01 * np.exp(lp)))
    t_cens = rng.exponential(150.0, n)
    t = np.minimum(t_event, t_cens)
    ev = t_event <= t_cens
    x = np.column_stack([age, steps_a, steps_b, mims])
    return SurvivalDataset(
        followup_months=t, event=ev, covariates=x, weights=np.ones(n),
        covariate_names=("age", "steps_a", "steps_b", "mims"),
    )


class TestModelSuite:
    def test_ladder_structure(self):
        cfg = make_config({"cv_folds": 5, "cv_repeats": 2})
        reports = model_suite(ladder_dataset(), cfg)
        assert [r.name for r in reports] == [
            "traditional",
            "traditional+mims",
            "traditional+steps",
            "traditional+steps+mims",
        ]
        assert reports[0].covariates == ("age",)
        assert reports[1].covariates == ("age", "mims")
        best = reports[2].steps_variable
        assert best in ("steps_a", "steps_b")
        assert reports[2].covariates == ("age", best)
        assert reports[3].covariates == ("age", best, "mims")
        for r in reports[:2]:
            assert r.steps_hr_per_500 is None and r.steps_p is None
        for r in reports[2:]:
            lo, hi = r.steps_hr_ci
            assert lo < r.steps_hr_per_500 < hi
            assert 0.0 <= r.steps_p <= 1.0
        assert all(0.0 < r.concordance < 1.0 for r in reports)

    def test_missing_landmarks_rejected(self):
        d = ladder_dataset()
        cfg = make_config({"cv_folds": 5, "cv_repeats": 1})
        with pytest.raises(ValueError, match="no covariates named"):
            model_suite(d.select(["age", "mims"]), cfg)
        with pytest.raises(ValueError, match="missing covariate"):
            model_suite(d.select(["age", "steps_a"]), cfg)

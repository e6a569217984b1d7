import math

import numpy as np
import pytest

from stepforge.stats import (
    Z_95,
    between_wave_percent_diff,
    correlation_matrix,
    local_weighted_smooth,
    midranks,
    pearson,
    percent_change_by_age,
    spearman,
    weighted_mean_se,
    winsorize_upper,
)


class TestWinsorize:
    def test_caps_at_interpolated_quantile(self):
        x = np.arange(1.0, 101.0)
        out = winsorize_upper(x, 0.99)
        # type-7 quantile of 1..100 at p=0.99 sits at 99 + 0.01*(100-99)
        assert out.max() == pytest.approx(99.01)
        assert out[:-1].tolist() == x[:-1].tolist()

    def test_all_equal_unchanged(self):
        x = np.full(10, 7.0)
        np.testing.assert_array_equal(winsorize_upper(x), x)

    def test_idempotent_at_integral_position(self):
        # n=101 makes (n-1)*p integral, so the cap is a sample value and a
        # second pass is a no-op.
        x = np.linspace(0, 50, 101) ** 2
        once = winsorize_upper(x, 0.99)
        np.testing.assert_array_equal(winsorize_upper(once, 0.99), once)

    def test_lower_tail_and_median_untouched(self):
        rng = np.random.default_rng(0)
        x = rng.lognormal(size=501)
        out = winsorize_upper(x, 0.95)
        assert np.median(out) == np.median(x)
        assert out.min() == x.min()

    def test_validation(self):
        with pytest.raises(ValueError, match="nonempty"):
            winsorize_upper([])
        with pytest.raises(ValueError, match="p must lie"):
            winsorize_upper([1.0], 1.0)


class TestCorrelations:
    def test_perfect_and_inverse(self):
        x = np.arange(10.0)
        assert pearson(x, 2 * x + 1) == pytest.approx(1.0)
        assert pearson(x, -x) == pytest.approx(-1.0)
        assert spearman(x, x) == pytest.approx(1.0)

    def test_spearman_sees_monotone_not_linear(self):
        x = np.linspace(-2, 2, 21)
        y = x**3
        assert spearman(x, y) == pytest.approx(1.0)
        assert pearson(x, y) < 1.0

    def test_spearman_invariant_to_monotone_transform(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=80)
        y = rng.normal(size=80) + 0.5 * x
        assert spearman(np.exp(x), y) == pytest.approx(spearman(x, y), abs=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="zero-variance"):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_checks(self):
        with pytest.raises(ValueError, match="equal-length"):
            pearson([1.0, 2.0], [1.0])
        with pytest.raises(ValueError, match="at least two"):
            pearson([1.0], [1.0])

    def test_midranks_ties(self):
        np.testing.assert_array_equal(
            midranks([10.0, 20.0, 20.0, 30.0]), [1.0, 2.5, 2.5, 4.0]
        )
        np.testing.assert_array_equal(midranks([5.0, 5.0, 5.0]), [2.0, 2.0, 2.0])


class TestCorrelationMatrix:
    def test_proportional_measures(self):
        rows = [{"a": v, "b": 2 * v, "c": -v} for v in (1.0, 4.0, 2.0, 9.0)]
        out = correlation_matrix(rows, ["a", "b", "c"])
        np.testing.assert_allclose(np.diag(out), 1.0)
        assert out[0, 1] == pytest.approx(1.0)
        assert out[0, 2] == pytest.approx(-1.0)
        np.testing.assert_allclose(out, out.T)

    def test_pairwise_complete_and_nan_cells(self):
        rows = [
            {"a": 1.0, "b": 2.0},
            {"a": 2.0, "b": 1.0},
            {"a": 3.0},  # missing b
            {"a": 4.0, "b": math.nan},
        ]
        out = correlation_matrix(rows, ["a", "b", "c"], method="pearson")
        assert out[0, 1] == pytest.approx(-1.0)  # two complete pairs
        assert math.isnan(out[0, 2]) and math.isnan(out[1, 2])

    def test_constant_column_is_nan(self):
        rows = [{"a": v, "b": 5.0} for v in (1.0, 2.0, 3.0)]
        out = correlation_matrix(rows, ["a", "b"], method="pearson")
        assert math.isnan(out[0, 1])

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown correlation"):
            correlation_matrix([], ["a"], method="kendall")


class TestWeightedMeanSe:
    def test_equal_weights_match_sem(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=40)
        mean, se = weighted_mean_se(x, np.ones(40))
        assert mean == pytest.approx(x.mean(), abs=1e-12)
        assert se == pytest.approx(x.std(ddof=1) / math.sqrt(40), abs=1e-12)

    def test_concentrated_weight(self):
        mean, se = weighted_mean_se([3.0, 8.0, 1.0], [0.0, 5.0, 0.0])
        assert mean == 8.0
        # only one effective observation, but n=3 in the with-replacement
        # formula: variance comes solely from the weighted deviations
        assert se >= 0.0

    def test_single_observation(self):
        assert weighted_mean_se([5.0], [2.0]) == (5.0, 0.0)

    def test_stratified_hand_oracle(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        weights = [1.0, 2.0, 1.0, 1.0, 2.0, 1.0]
        strata = [1, 1, 1, 2, 2, 2]
        psus = [1, 1, 2, 1, 2, 2]
        mean, se = weighted_mean_se(values, weights, strata, psus)
        total_w = 8.0
        want_mean = (1 + 4 + 3 + 4 + 10 + 6) / total_w
        assert mean == pytest.approx(want_mean, abs=1e-12)
        z = [w * (v - want_mean) / total_w for v, w in zip(values, weights)]
        var = 0.0
        for psu_totals in ([z[0] + z[1], z[2]], [z[3], z[4] + z[5]]):
            zbar = sum(psu_totals) / 2
            var += 2.0 * sum((t - zbar) ** 2 for t in psu_totals)
        assert se == pytest.approx(math.sqrt(var), abs=1e-12)

    def test_single_psu_stratum_contributes_zero(self):
        _, se = weighted_mean_se([1.0, 2.0], [1.0, 1.0], [1, 1], [1, 1])
        assert se == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="not all be zero"):
            weighted_mean_se([1.0, 2.0], [0.0, 0.0])
        with pytest.raises(ValueError, match="nonnegative"):
            weighted_mean_se([1.0], [-1.0])
        with pytest.raises(ValueError, match="supplied together"):
            weighted_mean_se([1.0, 2.0], [1.0, 1.0], strata=[1, 1])
        with pytest.raises(ValueError, match="align"):
            weighted_mean_se([1.0, 2.0], [1.0, 1.0], [1], [1, 2])


class TestLocalSmooth:
    def test_reproduces_straight_line(self):
        ages = np.arange(50.0, 80.0)
        means = 3.0 * ages + 7.0
        curve = local_weighted_smooth(ages, means, np.ones_like(ages))
        np.testing.assert_allclose(curve.estimate, 3.0 * curve.ages + 7.0, atol=1e-9)

    def test_constant_curve(self):
        ages = np.arange(1.0, 21.0)
        curve = local_weighted_smooth(ages, np.full(20, 4.0), np.full(20, 0.5))
        np.testing.assert_allclose(curve.estimate, 4.0, atol=1e-9)
        np.testing.assert_allclose(curve.se, 0.5, atol=1e-9)

    def test_ci_is_z95_band(self):
        ages = np.arange(30.0, 45.0)
        curve = local_weighted_smooth(ages, ages**1.5, np.ones_like(ages))
        np.testing.assert_allclose(
            curve.ci_upper - curve.estimate, Z_95 * curve.se, atol=1e-12
        )
        np.testing.assert_allclose(
            curve.estimate - curve.ci_lower, Z_95 * curve.se, atol=1e-12
        )

    def test_grid_is_integer_ages_inside_range(self):
        ages = np.array([50.2, 51.7, 53.1, 55.9, 58.4, 60.3])
        curve = local_weighted_smooth(ages, ages * 2, np.ones(6))
        np.testing.assert_array_equal(curve.ages, np.arange(51.0, 61.0))

    def test_validation(self):
        with pytest.raises(ValueError, match="5 distinct ages"):
            local_weighted_smooth([1, 1, 2, 2, 3, 4], np.zeros(6), np.zeros(6))


class TestPercentChange:
    def test_flat_curve_is_zero(self):
        ages = np.arange(50.0, 60.0)
        curve = local_weighted_smooth(ages, np.full(10, 5.0), np.zeros(10))
        out_ages, pct = percent_change_by_age(curve)
        np.testing.assert_allclose(pct, 0.0, atol=1e-9)
        np.testing.assert_array_equal(out_ages, curve.ages[1:])

    def test_two_percent_growth(self):
        from stepforge.stats import SmoothedCurve

        curve = SmoothedCurve(
            ages=np.array([60.0, 61.0]),
            estimate=np.array([100.0, 102.0]),
            se=np.zeros(2),
        )
        _, pct = percent_change_by_age(curve)
        assert pct[0] == pytest.approx(2.0)

    def test_zero_previous_rejected(self):
        from stepforge.stats import SmoothedCurve

        curve = SmoothedCurve(
            ages=np.array([60.0, 61.0]),
            estimate=np.array([0.0, 5.0]),
            se=np.zeros(2),
        )
        with pytest.raises(ValueError, match="previous value is 0"):
            percent_change_by_age(curve)


class TestBetweenWaveDiff:
    def test_equal_estimates(self):
        assert between_wave_percent_diff(7.0, 7.0) == 0.0

    def test_mean_step_counts(self):
        assert between_wave_percent_diff(2659.0, 2453.0) == pytest.approx(8.06, abs=0.005)

    def test_mims_estimates(self):
        assert between_wave_percent_diff(12169.0, 11902.0) == pytest.approx(2.2, abs=0.05)

    def test_symmetry(self):
        assert between_wave_percent_diff(3.0, 5.0) == between_wave_percent_diff(5.0, 3.0)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            between_wave_percent_diff(0.0, 4.0)

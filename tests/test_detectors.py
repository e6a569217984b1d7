import numpy as np
import pytest

from stepforge import detectors
from stepforge.detectors import (
    DETECTORS,
    PeakParams,
    SpectralParams,
    StepSeries,
    TemplateParams,
    _default_templates,
    _strict_local_maxima,
    detect,
    detect_steps_peak,
    detect_steps_spectral,
    detect_steps_template,
    normalized_template,
    per_second_to_minutes,
    run_detectors,
)
from stepforge.dsp import UniformSeries, vector_magnitude
from stepforge.simulate import GaitSegment, gen_gait


def series(values, rate=80.0):
    return UniformSeries(rate, np.asarray(values, dtype=np.float64))


def sine_vm(freq_hz, rate_hz, seconds, amplitude, baseline=1.0):
    t = np.arange(int(seconds * rate_hz)) / rate_hz
    return series(baseline + amplitude * np.sin(2 * np.pi * freq_hz * t), rate_hz)


class TestStepSeries:
    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            StepSeries("d", np.array([1.0, -0.5]))

    def test_physiological_cap(self):
        with pytest.raises(ValueError, match="not physiological"):
            StepSeries("d", np.array([5.5]))

    def test_total(self):
        assert StepSeries("d", np.array([1.0, 2.0, 0.5])).total == 3.5


class TestPerSecondToMinutes:
    def test_sums_and_padding(self):
        per_sec = np.ones(150)  # 2.5 minutes
        out = per_second_to_minutes(per_sec)
        np.testing.assert_array_equal(out, [60.0, 60.0, 30.0])

    def test_explicit_minute_count(self):
        out = per_second_to_minutes(np.ones(60), n_minutes=3)
        np.testing.assert_array_equal(out, [60.0, 0.0, 0.0])

    def test_aggregation_conserves_total(self):
        rng = np.random.default_rng(0)
        v = rng.uniform(0, 2, size=601)
        out = per_second_to_minutes(v)
        assert np.isclose(out.sum(), v.sum(), rtol=1e-12)


class TestStrictLocalMaxima:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_brute_force(self, k):
        rng = np.random.default_rng(k)
        v = rng.normal(size=300)
        got = list(_strict_local_maxima(v, k))
        want = [
            i
            for i in range(k, len(v) - k)
            if all(v[i] > v[i + d] and v[i] > v[i - d] for d in range(1, k + 1))
        ]
        assert got == want

    def test_too_short(self):
        assert len(_strict_local_maxima(np.zeros(4), 3)) == 0


class TestPeakDetector:
    def test_constant_signal_no_steps(self):
        vm = series(np.ones(60 * 15), rate=15.0)
        assert detect_steps_peak(vm).total == 0.0

    def test_walk_oracle(self, walk_vm):
        vm, _ = walk_vm
        result = detect_steps_peak(vm)
        # 120 true steps; boundary windows cost a handful at the walk edges.
        assert result.total == 116.0
        assert 108.0 <= result.total <= 132.0

    def test_rest_seconds_zero(self, walk_vm):
        vm, _ = walk_vm
        per_sec = detect_steps_peak(vm).steps_per_second
        assert per_sec[:30].sum() == 0.0
        assert per_sec[90:].sum() == 0.0

    def test_subthreshold_amplitude_no_steps(self):
        vm = sine_vm(2.0, 15.0, 60, amplitude=0.05)
        assert detect_steps_peak(vm).total == 0.0

    def test_raising_threshold_never_adds_steps(self, walk_vm):
        vm, _ = walk_vm
        totals = [
            detect_steps_peak(vm, PeakParams(mag_threshold_g=th)).total
            for th in (1.05, 1.15, 1.25, 1.35, 1.45)
        ]
        assert totals == sorted(totals, reverse=True)

    def test_counting_resumes_after_a_rest(self):
        recipe = [
            GaitSegment("rest", 60, noise_sd_g=0.02),
            GaitSegment("walk", 120, cadence_hz=1.8, amplitude_g=0.35, noise_sd_g=0.02),
            GaitSegment("rest", 60, noise_sd_g=0.02),
            GaitSegment("walk", 120, cadence_hz=2.0, amplitude_g=0.35, noise_sd_g=0.02),
            GaitSegment("rest", 30, noise_sd_g=0.02),
        ]
        rec, _ = gen_gait(recipe, sample_rate_hz=80.0, seed=3)
        per_sec = detect_steps_peak(vector_magnitude(rec)).steps_per_second
        for (start, stop), true_steps in (((60, 180), 216.0), ((240, 360), 240.0)):
            assert per_sec[start:stop].sum() == pytest.approx(true_steps, rel=0.10)
        assert per_sec[:60].sum() == per_sec[180:240].sum() == per_sec[360:].sum() == 0.0

    def test_rate_below_target_rejected(self):
        with pytest.raises(ValueError, match="target rate"):
            detect_steps_peak(series(np.ones(10), rate=10.0))

    def test_empty_input(self):
        assert len(detect_steps_peak(series([], rate=15.0)).steps_per_second) == 0


class TestSpectralDetector:
    def test_clean_cadence_exact(self):
        vm = sine_vm(2.0, 80.0, 60, amplitude=0.35)
        result = detect_steps_spectral(vm)
        assert result.total == 120.0
        # 20 steps per 10 s window, spread uniformly over its seconds
        np.testing.assert_allclose(result.steps_per_second, 2.0)

    def test_rest_zero(self):
        rng = np.random.default_rng(1)
        vm = series(1.0 + 0.001 * rng.normal(size=80 * 30), rate=80.0)
        assert detect_steps_spectral(vm).total == 0.0

    def test_harmonic_kept_when_stronger(self):
        t = np.arange(80 * 20) / 80.0
        v = 1.0 + 0.1 * np.sin(2 * np.pi * 1.0 * t) + 0.4 * np.sin(2 * np.pi * 2.0 * t)
        result = detect_steps_spectral(series(v, rate=80.0))
        assert result.total == pytest.approx(2.0 * 20)

    def test_subharmonic_rescues_arm_swing(self):
        # Dominant in-band peak at 2.0 Hz, but 1.0 Hz carries more power:
        # cadence falls back to the sub-harmonic.
        t = np.arange(80 * 20) / 80.0
        v = 1.0 + 0.5 * np.sin(2 * np.pi * 1.0 * t) + 0.3 * np.sin(2 * np.pi * 2.0 * t)
        result = detect_steps_spectral(series(v, rate=80.0))
        assert result.total == pytest.approx(1.0 * 20)

    def test_window_shift_equivariance(self):
        rng = np.random.default_rng(2)
        walk = 1.0 + 0.35 * np.sin(2 * np.pi * 2.0 * np.arange(800) / 80.0)
        walk += 0.01 * rng.normal(size=800)
        rest = np.ones(800)
        a = detect_steps_spectral(series(np.concatenate([walk, rest]), rate=80.0))
        b = detect_steps_spectral(series(np.concatenate([rest, walk]), rate=80.0))
        np.testing.assert_array_equal(
            a.steps_per_second[:10], b.steps_per_second[10:20]
        )

    def test_rate_precondition(self):
        with pytest.raises(ValueError, match="twice"):
            detect_steps_spectral(series(np.ones(40), rate=4.0))


def brute_force_max_ncc(values, params):
    """Max normalized cross-correlation over all templates, scales, offsets."""
    best = -1.0
    for duration in params.stride_grid_seconds:
        L = int(round(duration * 80.0))
        if L < 4 or L > len(values):
            continue
        for template in params.templates:
            t = normalized_template(template, L)
            for onset in range(len(values) - L + 1):
                w = values[onset : onset + L]
                centered = w - w.mean()
                denom = np.sqrt((centered**2).sum())
                if denom > 0:
                    best = max(best, float((t * w).sum() / denom))
    return best


class TestTemplateDetector:
    def test_walk_oracle_exact(self, walk_vm):
        vm, _ = walk_vm
        result = detect_steps_template(vm)
        assert result.total == 120.0
        assert result.steps_per_second[:30].sum() == 0.0
        assert result.steps_per_second[90:].sum() == 0.0

    def test_noise_rejected_with_brute_force_oracle(self):
        params = TemplateParams()
        for trial in range(10):
            rng = np.random.default_rng(100 + trial)
            values = 1.0 + 0.01 * rng.normal(size=800)
            assert detect_steps_template(series(values), params).total == 0.0
            assert brute_force_max_ncc(values, params) < params.correlation_threshold

    def test_tiled_template_counts_every_stride(self):
        shape = normalized_template(_default_templates()[0], 80)
        values = 1.0 + 0.3 * np.tile(shape, 30)
        result = detect_steps_template(series(values))
        assert result.total == 60.0

    def test_single_instance_books_midpoint_second(self):
        shape = normalized_template(_default_templates()[0], 80)
        values = np.ones(800)
        values[200:280] += 0.3 * shape
        result = detect_steps_template(series(values))
        assert result.total == 2.0
        assert result.steps_per_second[(200 + 40) // 80] == 2.0

    def test_template_validation(self):
        with pytest.raises(ValueError, match="zero-mean"):
            TemplateParams(templates=(np.ones(8),))
        with pytest.raises(ValueError, match="at least one"):
            TemplateParams(templates=())


def default_params():
    return {name: kind() for name, kind in DETECTORS.items()}


class TestRegistryAndRunner:
    def test_builtin_names(self):
        assert DETECTORS == {
            "peak_original": PeakParams,
            "peak_revised": PeakParams,
            "spectral": SpectralParams,
            "template": TemplateParams,
        }

    def test_four_series_on_gait(self, walk_vm):
        vm, _ = walk_vm
        params = default_params()
        run = run_detectors(vm, params)
        assert set(run.minutes) == set(DETECTORS)
        assert not run.errors
        assert all(t >= 0 for t in run.timings_s.values())
        for name, minutes in run.minutes.items():
            assert minutes.sum() == pytest.approx(detect(vm, params[name], name).total)

    def test_detect_dispatches_on_the_params_class(self, walk_vm):
        vm, _ = walk_vm
        for fn, params in [(detect_steps_peak, PeakParams()),
                           (detect_steps_spectral, SpectralParams()),
                           (detect_steps_template, TemplateParams())]:
            got = detect(vm, params, "named")
            assert got.detector_name == "named"
            np.testing.assert_array_equal(got.steps_per_second,
                                          fn(vm, params).steps_per_second)

    def test_empty_recording(self):
        run = run_detectors(series([], rate=80.0), default_params())
        assert not run.errors
        assert set(run.minutes) == set(DETECTORS)
        assert all(len(m) == 0 for m in run.minutes.values())

    def test_failing_detector_isolated(self, walk_vm, monkeypatch):
        vm, _ = walk_vm

        def boom(*args):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(detectors, "detect_steps_spectral", boom)
        run = run_detectors(vm, default_params())
        assert set(run.minutes) == set(DETECTORS) - {"spectral"}
        assert run.errors == {"spectral": "RuntimeError: synthetic failure"}

    def test_shared_params_run_once(self, walk_vm, monkeypatch):
        """A name holding an earlier name's params object takes its minutes,
        or its error; an equal but separate object runs again."""
        vm, _ = walk_vm
        calls = []
        real_peak = detectors.detect_steps_peak

        def counted(vm, params, name):
            calls.append(name)
            return real_peak(vm, params, name)

        monkeypatch.setattr(detectors, "detect_steps_peak", counted)
        shared = PeakParams()
        run = run_detectors(vm, {"a": shared, "b": shared, "c": PeakParams()})
        assert calls == ["a", "c"]
        assert run.minutes["b"] is run.minutes["a"]
        np.testing.assert_array_equal(run.minutes["c"], run.minutes["a"])

        def boom(*args):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(detectors, "detect_steps_peak", boom)
        run = run_detectors(vm, {"a": shared, "b": shared})
        assert not run.minutes
        assert run.errors["b"] == run.errors["a"] == "RuntimeError: synthetic failure"

    def test_empty_registry_rejected(self, walk_vm):
        vm, _ = walk_vm
        with pytest.raises(ValueError, match="at least one detector"):
            run_detectors(vm, {})

    def test_determinism(self, walk_vm):
        vm, _ = walk_vm
        a = run_detectors(vm, default_params())
        b = run_detectors(vm, default_params())
        for name in DETECTORS:
            np.testing.assert_array_equal(a.minutes[name], b.minutes[name])

import errno
import filecmp
import gzip
import os
import pickle
import re
import tempfile
from dataclasses import fields as dataclass_fields
from dataclasses import replace

import pytest

from stepforge import cli, ingest, survival
from stepforge import detectors as det
from stepforge.cli import FatalCliError, load_config, main, parse_config_file
from stepforge.ingest import cache_path, read_minute_file, read_table
from stepforge.model import AnalysisConfig, make_config
from stepforge.simulate import GaitSegment, gen_gait


class TestParseConfigFile:
    def test_comments_blanks_and_embedded_equals(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text(
            "# full-line comment\n"
            "\n"
            "cv_folds = 5   # trailing comment\n"
            "note=a=b\n"
        )
        assert parse_config_file(path) == {"cv_folds": "5", "note": "a=b"}

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("cv_folds = 5\ncv_folds = 6\n")
        with pytest.raises(FatalCliError, match="duplicate key"):
            parse_config_file(path)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("cv_folds\n")
        with pytest.raises(FatalCliError, match="expected 'key = value'"):
            parse_config_file(path)

    def test_empty_key(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("= 5\n")
        with pytest.raises(FatalCliError, match="empty key"):
            parse_config_file(path)


class TestLoadConfig:
    def test_defaults(self):
        cfg, params = load_config(None, env={})
        assert cfg == make_config()
        assert list(params) == list(det.DETECTORS)
        for name, kind in det.DETECTORS.items():
            assert type(params[name]) is kind
        assert params["peak_original"] == det.PeakParams()
        assert params["spectral"] == det.SpectralParams()
        # equal peak presets share one object, which steps runs once
        assert params["peak_revised"] is params["peak_original"]

    def test_precedence_file_env_seed(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("rng_seed = 1\ncv_folds = 4\n")
        env = {"STEPFORGE_RNG_SEED": "2", "STEPFORGE_CV_REPEATS": "9"}
        cfg, _ = load_config(str(path), seed=3, env=env)
        assert cfg.rng_seed == 3  # --seed beats env beats file
        assert cfg.cv_folds == 4  # file survives where env is silent
        assert cfg.cv_repeats == 9  # env beats default
        cfg2, _ = load_config(str(path), env=env)
        assert cfg2.rng_seed == 2

    def test_typed_values(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text(
            "age_range = 60, 79\n"
            "nonzero_mims_among_valid = off\n"
            "winsor_percentile = 0.95\n"
        )
        cfg, _ = load_config(str(path), env={})
        assert cfg.age_range == (60, 79)
        assert cfg.nonzero_mims_among_valid is False
        assert cfg.winsor_percentile == 0.95

    def test_dotted_detector_overrides(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text(
            "template.correlation_threshold = 0.8\n"
            "spectral.activity_std_min_g = 0.03\n"
        )
        _, params = load_config(str(path), env={})
        assert params["template"].correlation_threshold == 0.8
        assert params["spectral"] == det.SpectralParams(activity_std_min_g=0.03)
        assert params["peak_original"] == det.PeakParams()
        assert params["peak_revised"] is params["peak_original"]

    def test_unknown_keys_fatal(self, tmp_path):
        for text, message in [
            ("walking_speed = 9\n", "unknown config key"),
            ("sonar.threshold = 1\n", "unknown detector prefix"),
            ("template.wingspan = 1\n", "unknown detector parameter"),
            ("cv_folds = many\n", "cannot parse"),
        ]:
            path = tmp_path / "c.conf"
            path.write_text(text)
            with pytest.raises(FatalCliError, match=message):
                load_config(str(path), env={})

    def test_every_field_settable_from_file(self, tmp_path):
        # a non-default value for every AnalysisConfig field
        texts = {
            "min_valid_minutes": ("1200", 1200),
            "min_wake_minutes": ("400", 400),
            "min_nonzero_mims_minutes": ("300", 300),
            "min_valid_days": ("4", 4),
            "winsor_percentile": ("0.95", 0.95),
            "hr_step_increment": ("1000", 1000.0),
            "cv_folds": ("5", 5),
            "cv_repeats": ("7", 7),
            "rng_seed": ("99", 99),
            "age_range": ("40, 69", (40, 69)),
            "nonzero_mims_among_valid": ("false", False),
        }
        assert set(texts) == {f.name for f in dataclass_fields(AnalysisConfig)}
        path = tmp_path / "c.conf"
        path.write_text("".join(f"{key} = {text}\n" for key, (text, _) in texts.items()))
        cfg, _ = load_config(str(path), env={})
        for key, (_, value) in texts.items():
            assert getattr(cfg, key) == value, key
            assert getattr(cfg, key) != getattr(AnalysisConfig(), key), key
            assert type(getattr(cfg, key)) is type(value), key

    def test_detector_values_take_their_field_types(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text(
            "peak_original.k_neighbors = 4\n"
            "spectral.cadence_band_hz = 1.5, 2.2\n"
            "spectral.harmonic_check = false\n"
        )
        _, params = load_config(str(path), env={})
        assert params["peak_original"] == det.PeakParams(k_neighbors=4)
        assert type(params["peak_original"].k_neighbors) is int
        assert params["spectral"] == det.SpectralParams(
            cadence_band_hz=(1.5, 2.2), harmonic_check=False
        )
        # the revised preset keeps the defaults, so it no longer shares
        assert params["peak_revised"] == det.PeakParams()
        assert params["peak_revised"] is not params["peak_original"]

    @pytest.mark.parametrize("text, message", [
        ("peak_original.k_neighbors = 0", "peak_original.*: k_neighbors must be at least 1"),
        ("peak_original.k_neighbors = 2.5", "cannot parse '2.5'"),
        ("spectral.cadence_band_hz = 1.4", "cannot parse '1.4'"),
        ("spectral.cadence_band_hz = 2.3, 1.4", "cadence band must be an increasing"),
        ("template.stride_grid_seconds = 1.0", "cannot be set from config"),
    ])
    def test_bad_detector_value_fatal(self, tmp_path, text, message):
        path = tmp_path / "c.conf"
        path.write_text(text + "\n")
        with pytest.raises(FatalCliError, match=re.escape(message)):
            load_config(str(path), env={})

    def test_out_of_range_value_fatal(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("min_valid_days = 0\n")
        with pytest.raises(FatalCliError, match="min_valid_days"):
            load_config(str(path), env={})


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """One simulated cohort shared by the pipeline tests."""
    root = tmp_path_factory.mktemp("cli_corpus")
    sim = root / "sim"
    rc = main([
        "simulate", "--out", str(sim), "--subjects", "25", "--days", "4",
        "--seed", "7", "--raw-subjects", "2",
    ])
    assert rc == 0
    return sim


@pytest.fixture
def peak_calls(monkeypatch):
    """The ``name`` of every ``detect_steps_peak`` call, in order."""
    calls = []
    real_peak = det.detect_steps_peak

    def counted(vm, params=None, name="peak"):
        calls.append(name)
        return real_peak(vm, params, name)

    monkeypatch.setattr(det, "detect_steps_peak", counted)
    return calls


def run_analyze(corpus, out_dir, extra=()):
    return main([
        "analyze", str(corpus / "minutes.csv"),
        "--covariates", str(corpus / "covariates.csv"),
        "--out", str(out_dir), *extra,
    ])


class TestPipeline:
    def test_simulate_outputs(self, corpus):
        assert {p.name for p in corpus.iterdir()} == {
            "minutes.csv", "covariates.csv", "mortality.csv", "raw",
        }
        assert sorted(p.name for p in (corpus / "raw").iterdir()) == [
            "R0001.csv", "R0002.csv",
        ]
        mortality = read_table(corpus / "mortality.csv")
        assert {r["subject"] for r in mortality} == {
            r["subject"] for r in read_table(corpus / "covariates.csv")
        }

    def test_steps_end_to_end_and_jobs_identical(self, corpus, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["steps", str(corpus / "raw"), "--out", str(out1)]) == 0
        assert main(["steps", str(corpus / "raw"), "--out", str(out2),
                     "--jobs", "2"]) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == ["R0001_minutes.csv", "R0002_minutes.csv"]
        for name in names:
            assert filecmp.cmp(out1 / name, out2 / name, shallow=False)
        minutes = read_minute_file(out1 / "R0001_minutes.csv")
        assert len(minutes) == 2  # 120 s recording
        assert minutes.detectors == ("peak_original", "peak_revised", "spectral", "template")
        # the 60 s walk at 2 Hz straddles the two minutes
        for name, total in zip(minutes.detectors, minutes.steps.sum(axis=0)):
            assert 100.0 <= total <= 132.0, (name, total)

    def test_equal_peak_presets_run_once(self, corpus, tmp_path, monkeypatch, peak_calls):
        """With default parameters peak_revised is peak_original copied, and
        the minute files are byte-identical to running both."""
        once, twice = tmp_path / "once", tmp_path / "twice"
        assert main(["steps", str(corpus / "raw"), "--out", str(once)]) == 0
        assert peak_calls == ["peak_original"] * 2  # two subjects

        real_load = cli.load_config

        def separate_revised(*args, **kwargs):
            cfg, params = real_load(*args, **kwargs)
            # an equal copy, which runs on its own
            return cfg, {**params, "peak_revised": replace(params["peak_revised"])}

        monkeypatch.setattr(cli, "load_config", separate_revised)
        peak_calls.clear()
        assert main(["steps", str(corpus / "raw"), "--out", str(twice)]) == 0
        assert len(peak_calls) == 4
        for name in ("R0001_minutes.csv", "R0002_minutes.csv"):
            assert filecmp.cmp(once / name, twice / name, shallow=False)

    def test_configured_revised_preset_runs_twice(self, corpus, tmp_path, peak_calls):
        conf = tmp_path / "revised.conf"
        conf.write_text("peak_revised.mag_threshold_g = 1.25\n")
        assert main(["steps", str(corpus / "raw"), "--out", str(tmp_path / "s"),
                     "--config", str(conf)]) == 0
        assert peak_calls == ["peak_original", "peak_revised"] * 2

    def test_configured_params_cross_the_worker_pool(self, corpus, tmp_path):
        """Built parameter objects reach --jobs 2 workers by pickling; the
        minute files equal those of one process."""
        conf = tmp_path / "tuned.conf"
        conf.write_text("peak_revised.mag_threshold_g = 1.3\n"
                        "template.correlation_threshold = 0.9\n")
        _, params = load_config(str(conf), env={})
        copied = pickle.loads(pickle.dumps(params))
        assert copied["peak_revised"] == params["peak_revised"]
        assert copied["template"].correlation_threshold == 0.9
        one, two = tmp_path / "one", tmp_path / "two"
        for out, jobs in ((one, "1"), (two, "2")):
            assert main(["steps", str(corpus / "raw"), "--out", str(out),
                         "--config", str(conf), "--jobs", jobs]) == 0
        default = tmp_path / "default"
        assert main(["steps", str(corpus / "raw"), "--out", str(default)]) == 0
        for name in ("R0001_minutes.csv", "R0002_minutes.csv"):
            assert filecmp.cmp(one / name, two / name, shallow=False)
            # the raised peak_revised threshold drops steps
            tuned, plain = read_minute_file(two / name), read_minute_file(default / name)
            j = tuned.detectors.index("peak_revised")
            assert tuned.steps[:, j].sum() < plain.steps[:, j].sum()

    def test_steps_logs_peak_rss(self, corpus, tmp_path, capsys):
        assert main(["steps", str(corpus / "raw"), "--out", str(tmp_path / "one")]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert lines[-2] == "steps: 2/2 subjects processed"
        assert re.fullmatch(r"steps: peak RSS \d+\.\d MB", lines[-1])
        assert main(["steps", str(corpus / "raw"), "--out", str(tmp_path / "two"),
                     "--jobs", "2"]) == 0
        last = capsys.readouterr().err.splitlines()[-1]
        match = re.fullmatch(r"steps: peak RSS (\d+\.\d) MB, workers (\d+\.\d) MB", last)
        assert match and all(10.0 < float(mb) < 1e5 for mb in match.groups())

    def test_analyze_without_mortality_skips_survival(self, corpus, tmp_path, capsys):
        out = tmp_path / "an"
        assert run_analyze(corpus, out) == 0
        written = {p.name for p in out.iterdir()}
        assert written == {
            "validity_report.csv", "day_summaries.csv", "subject_summaries.csv",
            "unknown_transitions.csv", "weighted_means.csv",
            "between_wave_diff.csv", "age_curves.csv", "age_percent_change.csv",
            "correlations.csv",
        }
        err = capsys.readouterr().err
        assert "survival tables skipped" in err

    def test_analyze_is_deterministic(self, corpus, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_analyze(corpus, a) == 0
        assert run_analyze(corpus, b) == 0
        for path in sorted(a.iterdir()):
            assert filecmp.cmp(path, b / path.name, shallow=False), path.name

    def test_sensitivity_suffix(self, corpus, tmp_path):
        conf = tmp_path / "minvd.conf"
        conf.write_text("min_valid_days = 1\n")
        out = tmp_path / "an1"
        assert run_analyze(corpus, out, extra=("--config", str(conf))) == 0
        names = {p.name for p in out.iterdir()}
        assert "validity_report_minvd1.csv" in names
        assert all(n.endswith("_minvd1.csv") for n in names)

    def test_validity_report_shape(self, corpus, tmp_path):
        out = tmp_path / "vr"
        assert run_analyze(corpus, out) == 0
        rows = read_table(out / "validity_report.csv")
        assert len(rows) == 25
        included = [r for r in rows if r["included"] == "1"]
        excluded = [r for r in rows if r["included"] == "0"]
        assert included and all(r["exclusion_reason"] == "" for r in included)
        assert all("valid day" in r["exclusion_reason"] for r in excluded)

    def test_model_suite_reuses_the_univariate_cvc(self, corpus, tmp_path, monkeypatch):
        conf = tmp_path / "cv.conf"
        conf.write_text("cv_repeats = 2\ncv_folds = 3\n")
        extra = ("--mortality", str(corpus / "mortality.csv"), "--config", str(conf))
        runs = []
        real_cv, real_suite = survival.repeated_cv_concordance, survival.model_suite

        def counted(data, covariates, *args, **kwargs):
            runs.append(tuple(covariates))
            return real_cv(data, covariates, *args, **kwargs)

        monkeypatch.setattr(survival, "repeated_cv_concordance", counted)
        code = run_analyze(corpus, tmp_path / "reuse", extra)
        assert len(runs) == len(set(runs)) > 4
        reused = len(runs)

        def without_reuse(*args, univariate=None, **kwargs):
            return real_suite(*args, **kwargs)

        monkeypatch.setattr(survival, "model_suite", without_reuse)
        assert run_analyze(corpus, tmp_path / "rerun", extra) == code
        step_measures = [c for c in runs[:reused] if len(c) == 1 and c[0].startswith("steps_")]
        assert len(runs) - reused == reused + len(step_measures)
        assert filecmp.cmp(tmp_path / "reuse" / "model_suite.csv",
                           tmp_path / "rerun" / "model_suite.csv", shallow=False)

    def test_hazard_ratios_reuse_the_suites_fit(self, tmp_path, monkeypatch):
        """The model suite's full-sample fit of the traditional covariates
        plus the best step measure serves that measure's hazard ratios, so
        each covariate set is fitted once, and the tables are those of a
        refit."""
        corpus = tmp_path / "sim"
        assert main(["simulate", "--out", str(corpus), "--subjects", "100", "--days", "4",
                     "--seed", "11"]) == 0
        conf = tmp_path / "cv.conf"
        conf.write_text("cv_repeats = 1\ncv_folds = 3\n")
        extra = ("--mortality", str(corpus / "mortality.csv"), "--config", str(conf))
        fitted = []
        real_fit = survival.cox_fit

        def counted(data):
            fitted.append(data.covariate_names)
            return real_fit(data)

        monkeypatch.setattr(survival, "cox_fit", counted)
        code = run_analyze(corpus, tmp_path / "reuse", extra)
        step_measures = {n for names in fitted for n in names if n.startswith("steps_")}
        assert len(fitted) == len(set(fitted)) == len(step_measures) + 1

        real_suite = survival.model_suite

        def without_fits(*args, **kwargs):
            return [replace(r, fit=None) for r in real_suite(*args, **kwargs)]

        monkeypatch.setattr(survival, "model_suite", without_fits)
        fitted.clear()
        assert run_analyze(corpus, tmp_path / "refit", extra) == code
        assert len(fitted) == len(step_measures) + 2
        for name in ("model_suite.csv", "hazard_ratios.csv"):
            assert filecmp.cmp(tmp_path / "reuse" / name, tmp_path / "refit" / name,
                               shallow=False)

    def test_separated_cv_fold_is_scored(self, tmp_path, capsys):
        """A CV training fold of this cohort has more columns than its events
        support: its likelihood climbs towards a bound while beta diverges,
        and the step search stalls.  The fold is scored with its last beta,
        as R coxph does, so the model suite is written and analyze exits 0."""
        sim = tmp_path / "sim"
        assert main(["simulate", "--out", str(sim), "--subjects", "100", "--days", "4",
                     "--seed", "11"]) == 0
        conf = tmp_path / "cv.conf"
        conf.write_text("cv_repeats = 2\n")
        out = tmp_path / "an"
        assert main(["analyze", str(sim / "minutes.csv"),
                     "--covariates", str(sim / "covariates.csv"),
                     "--mortality", str(sim / "mortality.csv"),
                     "--config", str(conf), "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "failed" not in err
        rows = read_table(out / "model_suite.csv")
        assert [r["model"] for r in rows] == [
            "traditional", "traditional+mims", "traditional+steps", "traditional+steps+mims",
        ]
        assert all(0.0 < float(r["concordance"]) < 1.0 for r in rows)
        # The full-sample fits with steps_peak_revised converge in the
        # log-likelihood while its coefficient diverges (HR 0.0 in both
        # tables), so each is flagged by R coxph's rule.
        warning = ("loglik converged before variable steps_peak_revised; "
                   "coefficient may be infinite")
        assert [line for line in err.splitlines() if "may be infinite" in line] == [
            f"analyze: model traditional+steps: {warning}",
            f"analyze: model traditional+steps+mims: {warning}",
            f"analyze: hazard ratios: {warning}",
        ]

    def test_golden_corpus_logs_no_diverging_coefficient(self, tmp_path, capsys):
        """The golden corpus's reported step coefficients are finite.  Its
        heart_attack and stroke columns (2 and 1 subjects, no events) do
        diverge, but no table reports their hazard ratios."""
        sim = tmp_path / "sim"
        assert main(["simulate", "--out", str(sim), "--subjects", "120", "--days", "4",
                     "--seed", "7", "--raw-subjects", "1"]) == 0
        conf = tmp_path / "analysis.cfg"
        conf.write_text("cv_repeats = 2\ncv_folds = 3\n")
        capsys.readouterr()
        assert main(["analyze", str(sim / "minutes.csv"),
                     "--covariates", str(sim / "covariates.csv"),
                     "--mortality", str(sim / "mortality.csv"),
                     "--config", str(conf), "--out", str(tmp_path / "tables")]) == 0
        assert "may be infinite" not in capsys.readouterr().err

    def test_steps_count_every_walk_after_rests(self, tmp_path, monkeypatch):
        """Walk-rest-walk-rest-walk over more than one parse block (76,800
        rows), read from text and then from the sidecar: every detector
        counts each walk within its acceptance-01 tolerance, and no rest."""
        walks = {(0, 5): 300, (7, 11): 240, (13, 16): 180}  # minutes: seconds
        recipe = [
            GaitSegment("walk", 300, cadence_hz=2.0, amplitude_g=0.35, noise_sd_g=0.01),
            GaitSegment("rest", 120, noise_sd_g=0.01),
            GaitSegment("walk", 240, cadence_hz=2.0, amplitude_g=0.35, noise_sd_g=0.01),
            GaitSegment("rest", 120, noise_sd_g=0.01),
            GaitSegment("walk", 180, cadence_hz=2.0, amplitude_g=0.35, noise_sd_g=0.01),
        ]
        rec, truth = gen_gait(recipe, seed=3, subject_id="W1")
        assert len(rec) > ingest._BLOCK_ROWS and truth.sum() == 1440.0
        raw = tmp_path / "raw"
        raw.mkdir()
        with open(raw / "W1.csv", "w", encoding="utf-8") as fh:
            fh.write("x,y,z\n")
            for x, y, z in zip(rec.x.tolist(), rec.y.tolist(), rec.z.tolist()):
                fh.write(f"{x!r},{y!r},{z!r}\n")
        assert main(["steps", str(raw), "--out", str(tmp_path / "text")]) == 0
        assert cache_path(raw / "W1.csv").exists()

        def no_text(*args):
            raise AssertionError("text parsed although the sidecar is current")

        with monkeypatch.context() as patch:
            patch.setattr(ingest, "_text_blocks", no_text)
            assert main(["steps", str(raw), "--out", str(tmp_path / "cache")]) == 0
        name = "W1_minutes.csv"
        assert filecmp.cmp(tmp_path / "text" / name, tmp_path / "cache" / name,
                           shallow=False)
        minutes = read_minute_file(tmp_path / "text" / name)
        assert len(minutes) == 16
        tolerance = {"peak_original": 0.10, "peak_revised": 0.10,
                     "spectral": 0.10, "template": 0.15}
        assert minutes.detectors == tuple(sorted(tolerance))
        for j, detector in enumerate(minutes.detectors):
            for (start, stop), seconds in walks.items():
                counted = minutes.steps[start:stop, j].sum()
                true = 2.0 * seconds
                assert abs(counted - true) <= true * tolerance[detector], (
                    detector, start, counted, true
                )
            assert not minutes.steps[[5, 6, 11, 12], j].any(), detector  # rests


class TestExitCodes:
    def test_steps_empty_directory_is_fatal(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["steps", str(empty), "--out", str(tmp_path / "o")]) == 2

    def test_steps_two_files_of_one_subject_are_fatal(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "P1.csv").write_text("x,y,z\n0,0,1\n")
        with gzip.open(raw / "P1.csv.gz", "wt") as fh:
            fh.write("x,y,z\n0,0,1\n")
        assert main(["steps", str(raw), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "P1.csv and P1.csv.gz" in err and "subject 'P1'" in err
        assert not list(raw.glob("*.sfg1"))  # refused before any parse
        assert not (tmp_path / "o").exists()

    def test_steps_header_only_file_fails_its_subject(
        self, corpus, tmp_path, capsys, monkeypatch
    ):
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "E1.csv").write_text("x,y,z\n")
        (raw / "R0001.csv").write_bytes((corpus / "raw" / "R0001.csv").read_bytes())
        failed = f"subject E1: FAILED (ValueError: {raw / 'E1.csv'}: no samples)"
        out = tmp_path / "o"
        assert main(["steps", str(raw), "--out", str(out)]) == 1
        assert failed in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["R0001_minutes.csv"]
        # a sidecar of count 0, read back on the next run
        assert cache_path(raw / "E1.csv").read_bytes() == ingest.CACHE_MAGIC + bytes(4)

        def no_text(*args):
            raise AssertionError("text parsed although the sidecar is current")

        monkeypatch.setattr(ingest, "_text_blocks", no_text)
        assert main(["steps", str(raw), "--out", str(tmp_path / "again")]) == 1
        assert failed in capsys.readouterr().err

    @pytest.mark.parametrize(
        "module, attr", [(tempfile, "mkstemp"), (os, "replace")], ids=["mkstemp", "replace"]
    )
    @pytest.mark.parametrize(
        "error",
        [PermissionError(errno.EACCES, "Permission denied"),
         OSError(errno.ENOSPC, "No space left on device")],
        ids=["EACCES", "ENOSPC"],
    )
    def test_steps_runs_when_the_sidecar_cannot_be_written(
        self, tmp_path, monkeypatch, module, attr, error
    ):
        """A sidecar only saves a later parse: when it cannot be written the
        subject still succeeds with the same minutes, and no partial file is
        left in the raw directory."""
        walk = [GaitSegment("walk", 70, cadence_hz=2.0, amplitude_g=0.35, noise_sd_g=0.02)]
        rec, _ = gen_gait(walk, seed=5, subject_id="F1")
        text = "x,y,z\n" + "".join(
            f"{x!r},{y!r},{z!r}\n"
            for x, y, z in zip(rec.x.tolist(), rec.y.tolist(), rec.z.tolist())
        )
        for name in ("cached", "refused"):
            (tmp_path / name).mkdir()
            (tmp_path / name / "F1.csv").write_text(text, encoding="utf-8")
        assert main(["steps", str(tmp_path / "cached"), "--out", str(tmp_path / "a")]) == 0

        def refuse(*args, **kwargs):
            raise error

        monkeypatch.setattr(module, attr, refuse)
        assert main(["steps", str(tmp_path / "refused"), "--out", str(tmp_path / "b")]) == 0
        assert [p.name for p in (tmp_path / "refused").iterdir()] == ["F1.csv"]
        assert filecmp.cmp(tmp_path / "a" / "F1_minutes.csv",
                           tmp_path / "b" / "F1_minutes.csv", shallow=False)

    def test_steps_timestamped_file_is_checked_on_every_run(self, tmp_path, capsys):
        """A sidecar would skip the cadence check, so timestamped files get none."""
        walk = [GaitSegment("walk", 130, cadence_hz=2.0, amplitude_g=0.35, noise_sd_g=0.02)]
        rec, _ = gen_gait(walk, seed=5, subject_id="T1")
        raw = tmp_path / "raw"
        raw.mkdir()
        with open(raw / "T1.csv", "w", encoding="utf-8") as fh:
            fh.write("t,x,y,z\n")
            for i, xyz in enumerate(zip(rec.x.tolist(), rec.y.tolist(), rec.z.tolist())):
                fh.write(",".join(map(repr, (i / 80.0, *xyz))) + "\n")
        args = ["steps", str(raw), "--has-timestamp", "--out", str(tmp_path / "o")]
        mismatch = "declared rate 100.0 Hz but rows run at 80.000000 Hz"
        assert main([*args, "--rate", "100"]) == 1
        assert mismatch in capsys.readouterr().err
        assert main([*args, "--rate", "80"]) == 0
        assert main([*args, "--rate", "100"]) == 1
        assert mismatch in capsys.readouterr().err
        assert not cache_path(raw / "T1.csv").exists()

    def test_steps_headerless_file_reads_every_row_after_a_header_run(self, tmp_path):
        """A sidecar from a run that took the first row as a header holds one
        sample fewer, so a --no-header run must not reuse it."""
        walk = [GaitSegment("walk", 130, cadence_hz=2.0, amplitude_g=0.35, noise_sd_g=0.02)]
        rec, _ = gen_gait(walk, seed=5, subject_id="H1")
        text = "".join(
            f"{x!r},{y!r},{z!r}\n"
            for x, y, z in zip(rec.x.tolist(), rec.y.tolist(), rec.z.tolist())
        )
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        for raw in (reused, fresh):
            raw.mkdir()
            (raw / "H1.csv").write_text(text, encoding="utf-8")
        assert main(["steps", str(reused), "--out", str(tmp_path / "header")]) == 0
        assert cache_path(reused / "H1.csv").exists()
        for raw in (reused, fresh):
            out = tmp_path / f"{raw.name}_out"
            assert main(["steps", str(raw), "--no-header", "--out", str(out)]) == 0
            schema = ingest.RawFileSchema(has_header=False)
            assert sum(map(len, ingest.read_raw_recording(raw / "H1.csv", schema))) == 10_400
        assert filecmp.cmp(tmp_path / "reused_out" / "H1_minutes.csv",
                           tmp_path / "fresh_out" / "H1_minutes.csv", shallow=False)

    def test_unknown_config_key_is_fatal(self, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("not_a_key = 1\n")
        rc = main(["analyze", str(tmp_path / "missing.csv"),
                   "--covariates", "x", "--out", str(tmp_path / "o"),
                   "--config", str(conf)])
        assert rc == 2

    def test_missing_minutes_input_is_fatal(self, tmp_path):
        rc = main(["analyze", str(tmp_path / "nope.csv"),
                   "--covariates", "x", "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("column", ["day", "minute", "flag"])
    def test_minute_integer_outside_int64_is_fatal(self, tmp_path, column, capsys):
        values = {"day": "1", "minute": "0", "flag": "0", column: "99999999999999999999"}
        minutes = tmp_path / "minutes.csv"
        minutes.write_text(
            "subject,day,minute,wear,flag,mims\n"
            f"S1,{values['day']},{values['minute']},wake,{values['flag']},1.0\n"
        )
        rc = main(["analyze", str(minutes), "--covariates", str(tmp_path / "c.csv"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "minutes.csv:2: integer" in capsys.readouterr().err

    def test_mortality_event_code_2_is_fatal(self, corpus, tmp_path, capsys):
        lines = (corpus / "mortality.csv").read_text().splitlines()
        assert lines[0] == "subject,event,followup_months"
        subject, _, followup = lines[1].split(",")
        lines[1] = f"{subject},2,{followup}"
        mortality = tmp_path / "mortality.csv"
        mortality.write_text("\n".join(lines) + "\n")
        rc = run_analyze(corpus, tmp_path / "o", ["--mortality", str(mortality)])
        assert rc == 2
        assert "mortality.csv:2: event must be 0 or 1, got 2" in capsys.readouterr().err
        assert sorted(p.stem for p in (tmp_path / "o").iterdir()) == [
            "age_curves", "age_percent_change", "between_wave_diff", "correlations",
            "day_summaries", "subject_summaries", "unknown_transitions",
            "validity_report", "weighted_means",
        ]

    def test_bad_detector_value_is_fatal_before_any_parse(self, corpus, tmp_path, capsys,
                                                          monkeypatch):
        conf = tmp_path / "bad.conf"
        conf.write_text("peak_original.k_neighbors = 0\n")

        def no_read(*args, **kwargs):
            raise AssertionError("raw file read")

        monkeypatch.setattr(ingest, "read_raw_recording", no_read)
        out = tmp_path / "o"
        rc = main(["steps", str(corpus / "raw"), "--out", str(out), "--config", str(conf)])
        assert rc == 2
        assert "k_neighbors must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["covariates", "mortality"])
    def test_repeated_subject_is_fatal(self, corpus, tmp_path, name, capsys):
        lines = (corpus / f"{name}.csv").read_text().splitlines()
        repeated = tmp_path / f"{name}.csv"
        repeated.write_text("\n".join(lines + [lines[1]]) + "\n")
        paths = {n: str(corpus / f"{n}.csv") for n in ("covariates", "mortality")}
        paths[name] = str(repeated)
        rc = main(["analyze", str(corpus / "minutes.csv"), "--covariates", paths["covariates"],
                   "--mortality", paths["mortality"], "--out", str(tmp_path / "o")])
        assert rc == 2
        subject = lines[1].split(",")[0]
        assert (f"{name}.csv:{len(lines) + 1}: subject {subject!r} repeats line 2"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["simulate", "analyze"])
    def test_negative_seed_is_fatal_before_any_work(self, corpus, tmp_path, command, capsys):
        out = tmp_path / "o"
        if command == "simulate":
            rc = main(["simulate", "--out", str(out), "--subjects", "2", "--seed", "-1"])
        else:
            rc = run_analyze(corpus, out, ["--mortality", str(corpus / "mortality.csv"),
                                           "--seed", "-1"])
        assert rc == 2
        assert "rng_seed must lie in [0, 2**63)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("sonar.threshold = 1", "unknown detector prefix in config key 'sonar.threshold'"),
        ("template.wingspan = 1", "unknown detector parameter 'template.wingspan'"),
        ("peak_revised.k_neighbors = 0",
         "config keys peak_revised.*: k_neighbors must be at least 1"),
    ])
    def test_bad_detector_key_exits_2(self, corpus, tmp_path, capsys, text, message):
        conf = tmp_path / "bad.conf"
        conf.write_text(text + "\n")
        out = tmp_path / "o"
        rc = main(["steps", str(corpus / "raw"), "--out", str(out), "--config", str(conf)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_bench_rejects_empty_and_unknown_detectors(self, tmp_path):
        out = str(tmp_path / "bench.csv")
        assert main(["bench", "--detectors", "", "--out", out]) == 2
        assert main(["bench", "--detectors", "sonar", "--out", out]) == 2

    def test_bench_unknown_config_key_is_fatal(self, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("no_such_key = 1\n")
        out = tmp_path / "bench.csv"
        rc = main(["bench", "--subjects", "1", "--days", "1", "--rate", "20",
                   "--detectors", "spectral", "--config", str(conf), "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_bench_rejects_zero_subjects_or_days(self, tmp_path):
        out = str(tmp_path / "bench.csv")
        assert main(["bench", "--subjects", "0", "--out", out]) == 2
        assert main(["bench", "--days", "0", "--out", out]) == 2


class TestBench:
    def test_smoke_writes_timing_table(self, tmp_path):
        out = tmp_path / "bench.csv"
        rc = main([
            "bench", "--subjects", "1", "--days", "1", "--rate", "40",
            "--detectors", "peak_original,spectral", "--out", str(out),
        ])
        assert rc == 0
        rows = read_table(out)
        assert [r["detector"] for r in rows] == ["peak_original", "spectral"]
        for row in rows:
            assert float(row["total_seconds"]) > 0
            assert float(row["minutes_per_10_subjects"]) > 0

    def test_configured_peak_revised_is_timed_as_its_own_preset(self, tmp_path, monkeypatch):
        seen = []
        real_peak = det.detect_steps_peak

        def recorded(vm, params=None, name="peak"):
            seen.append((name, params.k_neighbors))
            return real_peak(vm, params, name)

        monkeypatch.setattr(det, "detect_steps_peak", recorded)
        conf = tmp_path / "revised.conf"
        conf.write_text("peak_revised.k_neighbors = 4\n")
        rc = main([
            "bench", "--subjects", "1", "--days", "1", "--rate", "20",
            "--detectors", "peak_original,peak_revised", "--config", str(conf),
            "--out", str(tmp_path / "bench.csv"),
        ])
        assert rc == 0
        assert seen == [("peak_original", 3), ("peak_revised", 4)]

    def test_minutes_scale_to_ten_subject_weeks(self, tmp_path):
        out = tmp_path / "bench.csv"
        rc = main([
            "bench", "--subjects", "2", "--days", "1", "--rate", "20",
            "--detectors", "spectral", "--out", str(out),
        ])
        assert rc == 0
        (row,) = read_table(out)
        want = float(row["total_seconds"]) / 60.0 * (10.0 / 2) * (7.0 / 1)
        assert float(row["minutes_per_10_subjects"]) == pytest.approx(want, rel=1e-12)

import gzip
import math
import os

import numpy as np
import pytest

from stepforge import ingest
from stepforge.ingest import (
    CACHE_MAGIC,
    ExternalStepSeries,
    RawFileSchema,
    cache_path,
    import_external_steps,
    merge_external_steps,
    read_binary_cache,
    read_covariates,
    read_minute_file,
    read_mortality,
    read_raw_recording,
    read_subject_summaries,
    read_table,
    write_covariates,
    write_minute_file,
    write_mortality,
    write_subject_summaries,
    write_table,
)
from stepforge.model import (
    MIMS_INVALID,
    MortalityRecord,
    SubjectSummary,
    WearState,
)
from stepforge.simulate import gen_covariates
from tests.conftest import assert_tables_equal, make_minute, minute_table


def write_raw(path, rows, header="x,y,z"):
    lines = [header] if header else []
    lines += [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


class TestRawFileSchema:
    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            RawFileSchema(sample_rate_hz=0.0)

    def test_column_count(self):
        assert RawFileSchema().n_columns == 3
        assert RawFileSchema(has_timestamp=True).n_columns == 4


class TestRawReading:
    def test_three_row_file(self, tmp_path):
        path = tmp_path / "S1.csv"
        write_raw(path, [(0.1, -0.2, 0.97), (0.12, -0.18, 0.99), (0.09, -0.22, 1.01)])
        chunks = list(read_raw_recording(path, RawFileSchema()))
        assert len(chunks) == 1
        rec = chunks[0]
        assert rec.subject_id == "S1"
        assert rec.sample_rate_hz == 80.0
        np.testing.assert_array_equal(
            rec.x, np.array([0.1, 0.12, 0.09], dtype=np.float32)
        )
        assert rec.x.dtype == np.float32

    def test_chunks_are_parse_blocks_from_text_and_sidecar(self, tmp_path, monkeypatch):
        path = tmp_path / "S2.csv"
        n = 2 * 160 + 37
        write_raw(path, [(0.001 * i, 0.0, 1.0) for i in range(n)])
        monkeypatch.setattr(ingest, "_BLOCK_ROWS", 160)
        from_text = list(read_raw_recording(path, RawFileSchema()))
        assert cache_path(path).exists()
        from_cache = list(read_raw_recording(path, RawFileSchema()))
        want = np.array([0.001 * i for i in range(n)], dtype=np.float32)
        for chunks in (from_text, from_cache):
            assert [len(c.x) for c in chunks] == [160, 160, 37]
            assert {c.subject_id for c in chunks} == {"S2"}
            np.testing.assert_array_equal(np.concatenate([c.x for c in chunks]), want)

    def test_text_and_cache_reads_are_bit_identical(self, tmp_path, monkeypatch):
        path = tmp_path / "S3.csv"
        rows = [(0.123456789, -1.987654321, 0.5000000001) for _ in range(50)]
        write_raw(path, rows)
        first = list(read_raw_recording(path, RawFileSchema()))
        assert cache_path(path).exists()

        # every text read goes through the block reader, which would raise
        # here, so the second read uses the cache
        def no_parse(*args):
            raise AssertionError("text parsed although the cache is current")

        monkeypatch.setattr(ingest, "_text_blocks", no_parse)
        second = list(read_raw_recording(path, RawFileSchema()))
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.x, b.x)
            np.testing.assert_array_equal(a.y, b.y)
            np.testing.assert_array_equal(a.z, b.z)
        assert first[0].x[0] == np.float32(0.123456789)

    def test_stale_cache_is_reparsed_and_rewritten(self, tmp_path):
        path = tmp_path / "S7.csv"
        write_raw(path, [(0.5, 0.5, 0.5)] * 10)
        list(read_raw_recording(path, RawFileSchema()))
        cached_at = cache_path(path).stat().st_mtime_ns
        # replace the text with different samples and a later mtime
        write_raw(path, [(0.25, -0.75, 1.0)] * 12)
        os.utime(path, ns=(cached_at + 10**9, cached_at + 10**9))
        (chunk,) = read_raw_recording(path, RawFileSchema())
        np.testing.assert_array_equal(chunk.x, np.full(12, 0.25, dtype=np.float32))
        np.testing.assert_array_equal(chunk.z, np.full(12, 1.0, dtype=np.float32))
        ((rx, _, _),) = read_binary_cache(cache_path(path))
        np.testing.assert_array_equal(rx, np.full(12, 0.25, dtype=np.float32))

    def test_gzipped_input(self, tmp_path):
        path = tmp_path / "S4.csv.gz"
        with gzip.open(path, "wt") as fh:
            fh.write("x,y,z\n0.1,0.2,0.3\n0.4,0.5,0.6\n")
        chunks = list(read_raw_recording(path, RawFileSchema()))
        np.testing.assert_array_equal(
            chunks[0].y, np.array([0.2, 0.5], dtype=np.float32)
        )
        assert chunks[0].subject_id == "S4"

    def test_timestamp_cadence_mismatch(self, tmp_path):
        path = tmp_path / "S5.csv"
        rows = [(i / 100.0, 0.1, 0.2, 0.3) for i in range(200)]  # 100 Hz
        write_raw(path, rows, header="t,x,y,z")
        schema = RawFileSchema(has_timestamp=True)  # declared 80 Hz
        with pytest.raises(ValueError, match="rows run at"):
            list(read_raw_recording(path, schema))

    def test_non_monotone_timestamp(self, tmp_path):
        path = tmp_path / "S6.csv"
        write_raw(
            path,
            [(0.0, 1, 1, 1), (0.0125, 1, 1, 1), (0.0125, 1, 1, 1)],
            header="t,x,y,z",
        )
        with pytest.raises(ValueError, match="non-monotone"):
            list(read_raw_recording(path, RawFileSchema(has_timestamp=True)))

    def test_malformed_rows_carry_line_numbers(self, tmp_path):
        short = tmp_path / "a.csv"
        short.write_text("x,y,z\n1,2,3\n1,2\n")
        with pytest.raises(ValueError, match=r"a\.csv:3: expected 3 columns"):
            list(read_raw_recording(short, RawFileSchema()))

        garbled = tmp_path / "b.csv"
        garbled.write_text("x,y,z\n1,spam,3\n")
        with pytest.raises(ValueError, match=r"b\.csv:2: malformed row"):
            list(read_raw_recording(garbled, RawFileSchema()))

        nonfinite = tmp_path / "c.csv"
        nonfinite.write_text("x,y,z\n1,inf,3\n")
        with pytest.raises(ValueError, match=r"c\.csv:2: non-finite"):
            list(read_raw_recording(nonfinite, RawFileSchema()))

    def test_failed_read_leaves_no_cache(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y,z\n1,2,3\n1,2\n")
        with pytest.raises(ValueError):
            list(read_raw_recording(path, RawFileSchema()))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv"]


class TestBinaryCache:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "r.csv"
        write_raw(path, [(0.1, 1.5, 0.0), (0.2, -2.5, 9.75)])
        list(read_raw_recording(path, RawFileSchema()))
        ((rx, ry, rz),) = read_binary_cache(cache_path(path))
        np.testing.assert_array_equal(rx, np.array([0.1, 0.2], dtype=np.float32))
        np.testing.assert_array_equal(ry, np.array([1.5, -2.5], dtype=np.float32))
        np.testing.assert_array_equal(rz, np.array([0.0, 9.75], dtype=np.float32))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.sfg1"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="not an SFG1 cache"):
            next(read_binary_cache(path))

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.sfg1"
        import struct

        path.write_bytes(CACHE_MAGIC + struct.pack("<I", 10) + b"\x00" * 8)
        with pytest.raises(ValueError, match="truncated"):
            next(read_binary_cache(path))


class TestWriteTable:
    def test_header_only_when_empty(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, ["a", "b"], [])
        assert path.read_text() == "a,b\n"

    def test_repr_floats_round_trip(self, tmp_path):
        path = tmp_path / "f.csv"
        value = 0.1 + 0.2  # not exactly 0.3
        write_table(path, ["v"], [[value]])
        assert float(read_table(path)[0]["v"]) == value

    def test_row_length_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="3 values for 2 columns"):
            write_table(tmp_path / "k.csv", ["a", "b"], [[1, 2, 3]])
        with pytest.raises(ValueError, match="1 values for 2 columns"):
            write_table(tmp_path / "k.csv", ["a", "b"], [[1]])

    def test_bad_row_writes_no_file(self, tmp_path):
        path = tmp_path / "k.csv"
        with pytest.raises(ValueError, match="3 values for 2 columns"):
            write_table(path, ["a", "b"], [[1, 2], [1, 2, 3]])
        assert not path.exists()

    def test_bad_row_leaves_an_existing_file_unchanged(self, tmp_path):
        path = tmp_path / "k.csv"
        write_table(path, ["a", "b"], [[1, 2]])
        with pytest.raises(ValueError, match="3 values for 2 columns"):
            write_table(path, ["a", "b"], [[3, 4], [1, 2, 3]])
        assert path.read_bytes() == b"a,b\n1,2\n"

    def test_unix_newlines(self, tmp_path):
        path = tmp_path / "n.csv"
        write_table(path, ["a"], [[1], [2]])
        assert path.read_bytes() == b"a\n1\n2\n"


class TestMinuteFiles:
    def test_round_trip_with_sentinel(self, tmp_path):
        path = tmp_path / "m.csv"
        table = minute_table([
            make_minute(minute=0, mims=3.25, steps={"a": 12.0, "b": 0.0}),
            make_minute(minute=1, mims=MIMS_INVALID, steps={"a": 0.0, "b": 4.5},
                        wear=WearState.UNKNOWN),
            make_minute(minute=2, mims=0.0, steps={"a": 7.0, "b": 1.0},
                        wear=WearState.NON_WEAR, flagged=True),
        ])
        write_minute_file(table, path)
        assert_tables_equal(read_minute_file(path), table)

    def test_header_columns(self, tmp_path):
        path = tmp_path / "m.csv"
        write_minute_file(minute_table([make_minute(steps={"zeta": 1.0, "alpha": 2.0})]), path)
        header = path.read_text().splitlines()[0]
        assert header == "subject,day,minute,wear,flag,mims,ac,steps_alpha,steps_zeta"

    def test_duplicate_minutes_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "subject,day,minute,wear,flag,mims\nS1,1,0,wake,0,1.0\nS1,1,0,sleep,0,0.0\n"
        )
        with pytest.raises(ValueError, match="duplicate"):
            read_minute_file(path)

    def test_unknown_wear_label(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text(
            "subject,day,minute,wear,flag,mims\nS1,1,0,afloat,0,1.0\n"
        )
        with pytest.raises(ValueError, match="unknown wear label"):
            read_minute_file(path)

    @pytest.mark.parametrize(
        "column, text",
        [("day", "99999999999999999999"), ("minute", "9223372036854775808"),
         ("flag", "-9223372036854775809")],
    )
    def test_integer_outside_int64_names_the_line(self, tmp_path, column, text):
        fields = {"subject": "S1", "day": "1", "minute": "0", "wear": "wake",
                  "flag": "0", "mims": "1.0"}
        path = tmp_path / "big.csv"
        path.write_text(
            ",".join(fields) + "\nS1,1,1,wake,0,1.0\n"
            + ",".join(dict(fields, **{column: text}).values()) + "\n"
        )
        with pytest.raises(ValueError, match=f"big.csv:3: integer '{text}' outside"):
            read_minute_file(path)

    def test_missing_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("subject,day,minute\nS1,1,0\n")
        with pytest.raises(ValueError, match="missing columns"):
            read_minute_file(path)

    def test_steps_column_prefix_stripped(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(
            "subject,day,minute,wear,flag,mims,steps_peak_original\n"
            "S1,1,0,wake,0,2.0,55.0\n"
        )
        table = read_minute_file(path)
        assert table.detectors == ("peak_original",)
        assert table.steps.tolist() == [[55.0]]
        assert table.ac.tolist() == [0.0]


class TestCovariateFiles:
    def test_simulated_cohort_round_trips(self, tmp_path):
        path = tmp_path / "cov.csv"
        records = gen_covariates([f"P{i:03d}" for i in range(29)], seed=17,
                                 p_missing=0.3)
        write_covariates(records, path)
        assert read_covariates(path) == records

    def test_topcode_and_missing_handling(self, tmp_path):
        path = tmp_path / "cov.csv"
        path.write_text(
            "subject,wave,age,sex,race_ethnicity,education,bmi_category,"
            "alcohol,smoking,self_reported_health,diabetes,weight,stratum,psu\n"
            "A,2011-2012,85,female,other,more_than_hs,normal,,never,good,1,1200.5,st1,p1\n"
            "B,2013-2014,,male,,,,former,,,,900.25,st1,p2\n"
        )
        a, b = read_covariates(path)
        assert (a.age_years, a.age_topcoded) == (80.0, True)
        assert a.alcohol == "missing_alcohol"
        assert a.diabetes is True
        assert b.age_years is None and b.age_topcoded is False
        assert b.sex == "male" and b.race_ethnicity is None
        assert b.alcohol == "former"
        assert b.diabetes is None
        assert b.has_missing

    def test_nonpositive_weight_rejected(self, tmp_path):
        path = tmp_path / "cov.csv"
        path.write_text(
            "subject,wave,weight,stratum,psu\nA,2011-2012,0.0,st1,p1\n"
        )
        with pytest.raises(ValueError, match="weight must be positive"):
            read_covariates(path)

    def test_missing_required_columns(self, tmp_path):
        path = tmp_path / "cov.csv"
        path.write_text("subject,wave\nA,2011-2012\n")
        with pytest.raises(ValueError, match="missing columns"):
            read_covariates(path)

    def test_repeated_subject_names_both_lines(self, tmp_path):
        path = tmp_path / "cov.csv"
        path.write_text(
            "subject,wave,weight,stratum,psu\n"
            "A,2011-2012,1.0,st1,p1\nB,2011-2012,2.0,st1,p1\nA,2013-2014,3.0,st1,p1\n"
        )
        with pytest.raises(ValueError, match="cov.csv:4: subject 'A' repeats line 2"):
            read_covariates(path)


class TestMortalityFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "mort.csv"
        records = [
            MortalityRecord("A", True, 62.5),
            MortalityRecord("B", False, 120.0),
        ]
        write_mortality(records, path)
        assert read_mortality(path) == records

    def test_negative_followup_rejected(self, tmp_path):
        path = tmp_path / "mort.csv"
        path.write_text("subject,event,followup_months\nA,1,-3\n")
        with pytest.raises(ValueError, match="negative follow-up"):
            read_mortality(path)

    @pytest.mark.parametrize("code", ["2", "-1"])
    def test_event_code_other_than_0_or_1_names_the_line(self, tmp_path, code):
        path = tmp_path / "mort.csv"
        path.write_text(f"subject,event,followup_months\nA,1,3\nB,{code},4\n")
        with pytest.raises(ValueError, match=f"mort.csv:3: event must be 0 or 1, got {code}"):
            read_mortality(path)

    def test_repeated_subject_names_both_lines(self, tmp_path):
        path = tmp_path / "mort.csv"
        path.write_text("subject,event,followup_months\nA,1,3\nB,0,4\nB,1,5\n")
        with pytest.raises(ValueError, match="mort.csv:4: subject 'B' repeats line 3"):
            read_mortality(path)

    def test_bad_number_after_a_blank_line_names_its_line(self, tmp_path):
        path = tmp_path / "mort.csv"
        path.write_text("subject,event,followup_months\nS1,0,10\n\nS2,0,x\n")
        with pytest.raises(ValueError, match="mort.csv:4: bad number 'x'"):
            read_mortality(path)

    def test_bad_number_after_a_quoted_line_break_names_its_line(self, tmp_path):
        path = tmp_path / "mort.csv"
        path.write_text('subject,event,followup_months\n"S\n1",0,10\nS2,0,x\n')
        with pytest.raises(ValueError, match="mort.csv:4: bad number 'x'"):
            read_mortality(path)

    def test_repeat_after_a_blank_line_names_its_line(self, tmp_path):
        path = tmp_path / "mort.csv"
        path.write_text("subject,event,followup_months\nS1,0,10\n\nS1,0,5\n")
        with pytest.raises(ValueError, match="mort.csv:4: subject 'S1' repeats line 2"):
            read_mortality(path)


class TestExternalSteps:
    def test_import_and_merge(self, tmp_path):
        path = tmp_path / "ext.csv"
        path.write_text(
            "subject,day,minute,steps\nS1,1,0,30\nS1,1,2,12.5\nGHOST,1,0,99\n"
        )
        series = import_external_steps(path, "wearable_x")
        minutes = minute_table([make_minute(minute=m, steps={}) for m in range(3)])
        merged = merge_external_steps(minutes, series)
        assert merged.detectors == ("wearable_x",)
        assert merged.steps[:, 0].tolist() == [30.0, 0.0, 12.5]

    def test_builtin_name_collision(self, tmp_path):
        path = tmp_path / "ext.csv"
        path.write_text("subject,day,minute,steps\nS1,1,0,1\n")
        with pytest.raises(ValueError, match="collides with a built-in"):
            import_external_steps(path, "spectral")

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "ext.csv"
        path.write_text("subject,day,minute,steps\nS1,1,0,1\nS1,1,0,2\n")
        with pytest.raises(ValueError, match="duplicate minute key"):
            import_external_steps(path, "wearable_x")

    def test_negative_steps_rejected(self, tmp_path):
        path = tmp_path / "ext.csv"
        path.write_text("subject,day,minute,steps\nS1,1,0,-1\n")
        with pytest.raises(ValueError, match="negative steps"):
            import_external_steps(path, "wearable_x")

    def test_merge_refuses_existing_detector(self):
        series = ExternalStepSeries("wearable_x", {("S1", 1, 0): 5.0})
        minutes = minute_table([make_minute(steps={"wearable_x": 1.0})])
        with pytest.raises(ValueError, match="already has steps"):
            merge_external_steps(minutes, series)

    def test_series_validation(self):
        with pytest.raises(ValueError, match="out of range"):
            ExternalStepSeries("w", {("S1", 1, 1440): 1.0})
        with pytest.raises(ValueError, match="negative steps"):
            ExternalStepSeries("w", {("S1", 1, 0): -1.0})


class TestSubjectSummaryFiles:
    def test_round_trip_with_ragged_means(self, tmp_path):
        path = tmp_path / "subj.csv"
        summaries = [
            SubjectSummary("A", 5, True, {"steps_a": 9123.25, "mims": 11250.5}),
            SubjectSummary("B", 1, False, {"steps_a": 2000.0}),
        ]
        write_subject_summaries(summaries, path)
        assert read_subject_summaries(path) == summaries

"""Differential tests: the block parse of raw and minute text against the
per-line parsers it replaces.

Every read runs with a block of 1-8 rows, so the files cross many block
seams.  The raw oracle is a line-by-line read through
``ingest._parse_raw_lines`` with the timestamp and cadence rules written
out longhand; the minute oracle is ``read_minute_file`` with every
block refused, so the ``csv.reader`` path parses the whole file.  Each read
must give the same arrays and dtypes, or raise the same exception with the
same text, line number included.
"""

from __future__ import annotations

import gzip
import struct
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stepforge import ingest
from stepforge.ingest import RawFileSchema, read_raw_recording
from tests.conftest import assert_tables_equal

SETTINGS = settings(max_examples=150, deadline=None)
RATE = 80.0

numbers = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)
#: Texts ``float`` and ``np.loadtxt`` may read differently, or refuse.
ODD_NUMBERS = (
    "+7", "1_0", " 3 ", "-0", "1e500", "nan", "inf", "-inf", "spam", "",
    "\xa02", "2\x1f", "\x1c2", "1.5e-3", "٣", "0x10", "7.",
)
number_texts = st.one_of(
    numbers.map(repr), numbers.map(repr), numbers.map(lambda v: f"{v:.4f}"),
    st.sampled_from(ODD_NUMBERS),
)
line_ends = st.sampled_from(["\n", "\r\n"])


def outcome(read):
    """The value of ``read()``, or the type and text of what it raised."""
    try:
        return read(), None
    except Exception as exc:  # noqa: BLE001 - both parsers must fail alike
        return None, f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# Raw recordings
# ---------------------------------------------------------------------------


@st.composite
def raw_files(draw):
    """Raw text; half the files have rare ragged, odd and late-stamped lines."""
    schema = RawFileSchema(
        sample_rate_hz=RATE,
        has_header=draw(st.booleans()),
        has_timestamp=draw(st.booleans()),
    )
    header = ["t", "x", "y", "z"] if schema.has_timestamp else ["x", "y", "z"]
    lines = [",".join(header)] if schema.has_header else []
    odd = draw(st.booleans())
    flaws = ["blank", "space", "short", "long", "late"] if odd else ["blank"]
    kinds = ["row"] * 8 + flaws
    number = number_texts if odd else numbers.map(repr)
    for i in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            lines.append("")
        elif kind == "space":
            lines.append(draw(st.sampled_from([" ", "\t", " \x0c "])))
        else:
            count = {"short": 2, "long": 4}.get(kind, 3)
            fields = [draw(number) for _ in range(count)]
            if schema.has_timestamp:
                fields.insert(0, repr((i - 2 if kind == "late" else i) / RATE))
            lines.append(",".join(fields))
    text = "".join(line + draw(line_ends) for line in lines)
    return schema, text, draw(st.booleans())


def write_text(directory: Path, text: str, gzipped: bool) -> Path:
    path = directory / ("R1.csv.gz" if gzipped else "R1.csv")
    data = text.encode("utf-8")
    path.write_bytes(gzip.compress(data) if gzipped else data)
    return path


def read_lines_longhand(path, schema, rows):
    """Append the rows of a line-by-line read to ``rows``, as float32 (x, y, z)."""
    stamps = []
    with ingest._open_text(path) as fh:
        if schema.has_header:
            fh.readline()
        for values in ingest._parse_raw_lines(fh, int(schema.has_header), path, schema):
            if schema.has_timestamp:
                if stamps and values[0] <= stamps[-1]:
                    raise ValueError(
                        f"{path}: non-monotone timestamp {values[0]} after {stamps[-1]}"
                    )
                stamps.append(values[0])
            rows.append(np.array(values[-3:], dtype=np.float32))
    if stamps:
        ingest._check_cadence(len(stamps), stamps[0], stamps[-1], schema, path)


def read_blocks(path, schema, chunks):
    """Append the chunks of ``read_raw_recording`` to ``chunks``, as (n, 3) float32."""
    for rec in read_raw_recording(path, schema):
        assert rec.x.dtype == rec.y.dtype == rec.z.dtype == np.float32
        assert rec.subject_id == "R1"
        chunks.append(np.stack([rec.x, rec.y, rec.z], axis=1))


def assert_same_raw(path, schema, block_rows):
    """Same rows in chunks of one parse block, or the same error after the same
    rows; then, for a cached layout, the same rows from the sidecar."""
    ingest.cache_path(path).unlink(missing_ok=True)
    want, got = [], []
    _, want_error = outcome(lambda: read_lines_longhand(path, schema, want))
    want = np.array(want, dtype=np.float32).reshape(-1, 3)
    with mock.patch.object(ingest, "_BLOCK_ROWS", block_rows):
        _, got_error = outcome(lambda: read_blocks(path, schema, got))
        assert got_error == want_error
        assert all(0 < len(c) <= block_rows for c in got)
        assert b"".join(c.tobytes() for c in got) == want.tobytes()
        cache = ingest.cache_path(path)
        assert cache.exists() == (want_error is None and schema.cached)
        if cache.exists():
            cached = []
            read_blocks(path, schema, cached)
            sizes = [min(block_rows, len(want) - i) for i in range(0, len(want), block_rows)]
            assert [len(c) for c in cached] == sizes
            assert b"".join(c.tobytes() for c in cached) == want.tobytes()
            head = ingest.CACHE_MAGIC + struct.pack("<I", len(want))
            assert cache.read_bytes() == head + want.T.tobytes()


@SETTINGS
@given(drawn=raw_files(), block_rows=st.integers(1, 8))
# a block whose every row has two fields parses as an (n, 2) array
@example(drawn=(RawFileSchema(), "x,y,z\n1,2,3\n1,2\n", False), block_rows=1)
def test_raw_blocks_match_the_line_by_line_read(drawn, block_rows):
    schema, text, gzipped = drawn
    with tempfile.TemporaryDirectory() as tmp:
        assert_same_raw(write_text(Path(tmp), text, gzipped), schema, block_rows)


@pytest.mark.parametrize("token", ODD_NUMBERS)
def test_one_odd_number_in_a_raw_file(tmp_path, token):
    text = "x,y,z\n" + "0.5,1,2\n" * 5 + f"1,{token},1\n" + "2,2,2\n"
    path = write_text(tmp_path, text, False)
    for block_rows in (1, 4, 8):
        assert_same_raw(path, RawFileSchema(), block_rows)


def test_non_monotone_stamp_beats_a_later_malformed_line(tmp_path):
    """Only the rows before the late stamp are yielded, then its error."""
    path = tmp_path / "R1.csv"
    path.write_text("t,x,y,z\n0.0,1,1,1\n0.0125,1,1,1\n0.0,1,1,1\n0.025,spam,1,1\n")
    schema = RawFileSchema(has_timestamp=True)
    chunks = []
    _, error = outcome(lambda: read_blocks(path, schema, chunks))
    assert error == f"ValueError: {path}: non-monotone timestamp 0.0 after 0.0125"
    assert sum(map(len, chunks)) == 2
    assert_same_raw(path, schema, 8)


# ---------------------------------------------------------------------------
# Minute files
# ---------------------------------------------------------------------------

SUBJECTS = (
    "S1", "S10", " b ", "\x0bv\u2028", 'q"x,1', "multi\nline", "é", "Y" * 31, "Z" * 32,
)
WEAR = ("wake", "sleep", "nonwear", "unknown", " Wake ", "SLEEP", "wake" + " " * 14)
STEP_COLUMNS = ("steps_peak", "steps_spectral", "steps_template")


def csv_field(text: str) -> str:
    if any(c in text for c in ',"\n\r'):
        return '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def minute_files(draw):
    """Minute CSV with shuffled columns; half the files have rare ragged or odd rows."""
    columns = ["subject", "day", "minute", "wear", "flag", "mims"]
    columns += [c for c in ("ac", "note") if draw(st.booleans())]
    columns += draw(st.lists(st.sampled_from(STEP_COLUMNS), max_size=3, unique=True))
    columns = draw(st.permutations(columns))
    odd = draw(st.booleans())
    texts = {
        "subject": st.sampled_from(SUBJECTS) if odd else st.sampled_from(SUBJECTS[:2]),
        "day": st.sampled_from(["1", "2", "+2", " 1 "] + ["1_0", "x", "9" * 20] * odd),
        "wear": st.sampled_from(WEAR + ("afloat",) * odd),
        "flag": st.sampled_from(["0", "1", " 0"] + ["", "1.0"] * odd),
        "note": st.sampled_from(["", "n", "a long free-text note"]),
    }
    floats = st.floats(0.0, 1e4).map(repr)
    number = st.one_of(floats, floats, number_texts) if odd else floats
    kinds = ["row"] * 8 + (["blank", "space", "short", "long"] if odd else ["blank"])
    lines = [",".join(columns)]
    for i in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(kinds))
        if kind in ("blank", "space"):
            lines.append("" if kind == "blank" else " ")
            continue
        row = []
        for name in columns:
            if name == "minute":
                row.append(str(i))
            elif name in texts:
                row.append(csv_field(draw(texts[name])))
            elif name == "ac":
                row.append(draw(st.one_of(number, st.just(""))))
            else:
                row.append(draw(number))
        if kind == "short":
            row.pop()
        elif kind == "long":
            row.append("1")
        lines.append(",".join(row))
    return "".join(line + draw(line_ends) for line in lines)


def refuse_every_block(fh, dtype):
    yield list(fh), None


def assert_same_minutes(path, block_rows):
    with mock.patch.object(ingest, "_BLOCK_ROWS", block_rows):
        with mock.patch.object(ingest, "_text_blocks", refuse_every_block):
            want, want_error = outcome(lambda: ingest.read_minute_file(path))
        got, got_error = outcome(lambda: ingest.read_minute_file(path))
    assert got_error == want_error
    if want_error is None:
        assert_tables_equal(got, want)
        for name in ("subject", "day", "minute", "wear", "flag", "mims", "ac", "steps"):
            assert getattr(got, name).dtype == getattr(want, name).dtype, name


@SETTINGS
@given(text=minute_files(), block_rows=st.integers(1, 8))
def test_minute_blocks_match_the_csv_reader(text, block_rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        path.write_bytes(text.encode("utf-8"))
        assert_same_minutes(path, block_rows)


MINUTE_ODDITIES = [
    *(("day", t) for t in ("+2", " 1 ", "1_0", "9" * 20, "\x1c1", "1.0", "")),
    *(("mims", t) for t in ODD_NUMBERS),
    *(("ac", t) for t in ODD_NUMBERS),
    *(("subject", t) for t in ("X" * 40, "Z" * 32, "S1\x00", '"q""x,1"')),
    *(("wear", t) for t in ("afloat", "wake" + " " * 14, "wake" + " " * 12 + "x",
                            "wake\x00", " Wake ")),
]


@pytest.mark.parametrize("column, token", MINUTE_ODDITIES)
def test_one_odd_field_in_a_minute_file(tmp_path, column, token):
    header = ["subject", "day", "minute", "wear", "flag", "mims", "ac", "steps_a"]
    rows = [["S1", "1", str(i), "wake", "0", "1.5", "3", "2.0"] for i in range(6)]
    rows[3][header.index(column)] = token
    path = tmp_path / "m.csv"
    path.write_text(
        "".join(",".join(row) + "\n" for row in [header, *rows]), encoding="utf-8"
    )
    for block_rows in (1, 2, 8):
        assert_same_minutes(path, block_rows)


def test_line_numbers_after_a_two_line_header(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(
        '"two-line\nnote",subject,day,minute,wear,flag,mims\n'
        + "".join(f"n,S1,1,{i},wake,0,1.0\n" for i in range(4))
        + "n,S1,1,4,wake,0,spam\n",
        encoding="utf-8",
    )
    with mock.patch.object(ingest, "_BLOCK_ROWS", 2):
        _, error = outcome(lambda: ingest.read_minute_file(path))
    assert error == f"ValueError: {path}:7: bad number 'spam'"
    assert_same_minutes(path, 1)


def test_quoted_field_across_a_block_seam(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(
        "subject,day,minute,wear,flag,mims\n"
        "S1,1,0,wake,0,1.0\n"
        'S1,1,1,wake,0,1.0\n"two\nlines",1,2,wake,0,1.5\n'
        "S1,1,3,wake,0,2.0\nS1,1,4,spam,0,2.0\n",
        encoding="utf-8",
    )
    for block_rows in (1, 2, 3):
        assert_same_minutes(path, block_rows)
    with mock.patch.object(ingest, "_BLOCK_ROWS", 2):
        _, error = outcome(lambda: ingest.read_minute_file(path))
    assert error == f"ValueError: {path}:7: unknown wear label 'spam'"


def test_field_count_error_beats_an_earlier_bad_number_in_its_block(tmp_path):
    """Within one block the csv.reader path checks field counts first."""
    path = tmp_path / "m.csv"
    path.write_text(
        "subject,day,minute,wear,flag,mims\n"
        "S1,1,0,wake,0,1.0\nS1,1,1,wake,0,1.0\n"
        "S1,1,2,wake,0,bad\nS1,1,3,wake,0\n",
        encoding="utf-8",
    )
    with mock.patch.object(ingest, "_BLOCK_ROWS", 2):
        _, error = outcome(lambda: ingest.read_minute_file(path))
    assert error == f"ValueError: {path}:5: expected 6 fields, got 5"
    with mock.patch.object(ingest, "_BLOCK_ROWS", 1):
        _, error = outcome(lambda: ingest.read_minute_file(path))
    assert error == f"ValueError: {path}:4: bad number 'bad'"

"""Streaming readers/writers for raw recordings and analysis tables.

Raw accelerometer payloads are comma-separated text (optionally gzip),
parsed in chunks of one parse block and spooled to one float32 file per
axis; for the default layout the spool also writes those files beside the
text as a little-endian sidecar with magic ``SFG1``, which re-runs read in
place; a sidecar older than its text is ignored and rewritten.
Table I/O round-trips exactly: floats are serialized with ``repr`` so
``read(write(x)) == x`` bit for bit.
"""

from __future__ import annotations

import contextlib
import csv
import gzip
import io
import itertools
import math
import os
import shutil
import struct
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .model import (
    AGE_TOPCODE,
    BOOLEAN_COVARIATES,
    CATEGORICAL_LEVELS,
    WEAR_CODE,
    WEAR_STATES,
    MINUTE_COLUMNS,
    MinuteTable,
    MortalityRecord,
    SubjectCovariates,
    SubjectSummary,
    TriaxialRecording,
    WearState,
    stack_fields,
)

CACHE_MAGIC = b"SFG1"
CACHE_SUFFIX = ".sfg1"


@dataclass(frozen=True)
class RawFileSchema:
    """Layout of a raw triaxial text file.

    ``has_timestamp`` marks a leading time/sample-index column; the three
    acceleration columns follow in x, y, z order.  When timestamps are
    present the declared rate must match the observed cadence within one
    part in 10^4.
    """

    sample_rate_hz: float = 80.0
    has_header: bool = True
    has_timestamp: bool = False

    def __post_init__(self) -> None:
        if not self.sample_rate_hz > 0:
            raise ValueError("sample_rate_hz must be positive")

    @property
    def n_columns(self) -> int:
        return 4 if self.has_timestamp else 3

    @property
    def cached(self) -> bool:
        """Whether reads of this layout use an SFG1 sidecar.

        Only the default layout (a header, no timestamps) does: the
        sidecar's bytes cannot record the layout that wrote them, so a
        sidecar written under one header setting would be reused under the
        other, one sample off, and a timestamped read would skip its
        cadence check.
        """
        return self.has_header and not self.has_timestamp


def raw_subject_id(path: str | os.PathLike) -> str:
    """The subject of a raw file: its file name up to the first dot."""
    return Path(path).name.split(".")[0]


def _open_text(path: Path) -> io.TextIOBase:
    if path.suffix == ".gz":
        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="utf-8")
    return open(path, "r", encoding="utf-8")


def cache_path(path: str | os.PathLike) -> Path:
    return Path(path).with_name(Path(path).name + CACHE_SUFFIX)


#: Non-blank lines parsed per block, bounding the text held while reading.
_BLOCK_ROWS = 1 << 13
#: Empty lines: ``csv.reader`` yields no row for them, ``np.loadtxt`` skips them.
_BLANK_LINES = ("\n", "\r\n", "\r")
#: Characters that make the block parse refuse a block: a quote, which
#: ``csv.reader`` unquotes; NUL, which numpy drops from the end of a string;
#: and \x1c-\x1f, which ``np.loadtxt`` strips around a number but ``float``
#: and ``int`` reject.
_REFUSED_CHARS = '"\x00\x1c\x1d\x1e\x1f'


def _text_blocks(
    fh: Iterable[str], dtype: np.dtype
) -> Iterator[tuple[list[str], np.ndarray | None]]:
    """Read comma-separated ``fh`` in blocks of ``_BLOCK_ROWS`` non-blank lines.

    Yields each block's physical lines with their rows parsed by one
    ``np.loadtxt`` call (2-D for a plain dtype, 1-D for a structured one), or
    with None where the block holds a refused character or ``np.loadtxt``
    raises; the caller then parses the lines with its per-line parser.  Each
    block but the last holds exactly ``_BLOCK_ROWS`` non-blank lines, so its
    rows are the rows ``csv.reader`` would group the same way.
    """
    while True:
        lines: list[str] = []
        blank, wanted = 0, _BLOCK_ROWS
        while wanted:
            more = list(itertools.islice(fh, wanted))
            if not more:
                break
            lines += more
            wanted = sum(map(more.count, _BLANK_LINES))
            blank += wanted
        if len(lines) == blank:
            return
        yield lines, _parse_block(lines, dtype)


def _parse_block(lines: list[str], dtype: np.dtype) -> np.ndarray | None:
    """``lines`` parsed by one ``np.loadtxt`` call, or None where they hold a
    refused character or ``np.loadtxt`` raises."""
    text = "".join(lines)
    if any(c in text for c in _REFUSED_CHARS):
        return None
    del text  # not held while the block is parsed
    try:
        return np.loadtxt(
            lines, dtype=dtype, delimiter=",", comments=None,
            quotechar=None, ndmin=1 if dtype.names else 2,
        )
    except ValueError:
        return None


def _parse_raw_lines(
    lines: Iterable[str], line_no: int, path: Path, schema: RawFileSchema
) -> Iterator[list[float]]:
    """Parse raw text line by line, ``line_no`` lines after the file start.

    The reference that the block parse must match, and its fallback: it
    raises at the first bad line, naming it.
    """
    for line in lines:
        line_no += 1
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != schema.n_columns:
            raise ValueError(
                f"{path}:{line_no}: expected {schema.n_columns} columns, "
                f"got {len(parts)}"
            )
        try:
            values = [float(p) for p in parts]
        except ValueError:
            raise ValueError(f"{path}:{line_no}: malformed row {line!r}") from None
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"{path}:{line_no}: non-finite value in {line!r}")
        yield values


def _raw_blocks(path: Path, schema: RawFileSchema) -> Iterator[np.ndarray]:
    """Yield the rows of a raw text file as float64 ``(n, n_columns)`` blocks.

    A block that the block parse refuses, or that has the wrong number of
    columns or a non-finite value, goes through :func:`_parse_raw_lines`; on
    a bad line the rows before it are yielded first, then its error raised.
    """
    n_columns = schema.n_columns
    with _open_text(path) as fh:
        line_no = 0
        if schema.has_header:
            fh.readline()
            line_no = 1
        for lines, rows in _text_blocks(fh, np.dtype(np.float64)):
            refused = rows is None or rows.shape[1] != n_columns
            if refused or not np.isfinite(rows).all():
                parsed: list[list[float]] = []
                try:
                    parsed.extend(_parse_raw_lines(lines, line_no, path, schema))
                except ValueError:
                    yield np.array(parsed, dtype=np.float64).reshape(-1, n_columns)
                    raise
                rows = np.array(parsed, dtype=np.float64).reshape(-1, n_columns)
            line_no += len(lines)
            # neither this block's lines nor its rows are held while the next
            # block is read
            del lines
            yield rows
            del rows


def _check_cadence(
    count: int, first: float, last: float, schema: RawFileSchema, path: Path
) -> None:
    if count < 2:
        return
    span = last - first
    if span <= 0:
        return
    observed = (count - 1) / span
    if abs(observed - schema.sample_rate_hz) > 1e-4 * schema.sample_rate_hz:
        raise ValueError(
            f"{path}: declared rate {schema.sample_rate_hz} Hz but rows run at "
            f"{observed:.6f} Hz"
        )


def read_raw_recording(
    path: str | os.PathLike, schema: RawFileSchema
) -> Iterator[TriaxialRecording]:
    """Parse raw text as :class:`TriaxialRecording` chunks of one parse block.

    Values are cast to float32 on read, the type the spool and the SFG1
    sidecar store.  A read holds one block of at most ``_BLOCK_ROWS``
    samples; a caller that keeps every chunk holds the recording (``steps``
    spools them instead, see :func:`spool_raw_recording`).
    """
    path = Path(path)
    subject = raw_subject_id(path)
    total = 0
    first_stamp = last_stamp = None
    for rows in _raw_blocks(path, schema):
        error = None
        if schema.has_timestamp and len(rows):
            stamps = rows[:, 0]
            before = np.concatenate(
                ([-np.inf if last_stamp is None else last_stamp], stamps[:-1])
            )
            late = np.flatnonzero(stamps <= before)
            if late.size:
                # the rows before the first late stamp count, as read line by line
                k = late[0]
                error = ValueError(
                    f"{path}: non-monotone timestamp {float(stamps[k])} "
                    f"after {float(before[k])}"
                )
                rows = rows[:k]
            if len(rows):
                if first_stamp is None:
                    first_stamp = float(rows[0, 0])
                last_stamp = float(rows[-1, 0])
        if len(rows):
            total += len(rows)
            x, y, z = rows[:, -3:].T.astype("<f4", order="C")
            del rows  # not held while the next block is read
            yield TriaxialRecording(subject, x, y, z, schema.sample_rate_hz)
        if error is not None:
            raise error
    if first_stamp is not None:
        _check_cadence(total, first_stamp, last_stamp, schema, path)


class AxisFile:
    """One float32 axis in a binary file, ``offset`` bytes in, read-only:
    ``len``, and contiguous slices, each read with ``readinto`` into a new
    float32 array.  The file is read, not mapped, so the pages a read
    touches do not stay in the process's resident set."""

    def __init__(self, fh: io.BufferedIOBase, n: int, offset: int = 0) -> None:
        self.fh, self.n, self.offset = fh, n, offset

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, key: slice) -> np.ndarray:
        start, stop, step = key.indices(self.n)
        if step != 1:
            raise ValueError("an axis file reads contiguous slices only")
        out = np.empty(max(0, stop - start), dtype="<f4")
        self.fh.seek(self.offset + 4 * start)
        self.fh.readinto(out)
        return out


@dataclass(frozen=True)
class SpooledRecording:
    """A raw recording whose axes are :class:`AxisFile` objects.

    It stands in for a :class:`TriaxialRecording` wherever the axes are only
    sliced: in ``summaries.activity_counts``, ``summaries.mims_units`` and
    ``dsp.MagnitudeView``.
    """

    x: AxisFile
    y: AxisFile
    z: AxisFile
    sample_rate_hz: float

    def __len__(self) -> int:
        return len(self.x)


@contextlib.contextmanager
def spool_raw_recording(
    path: str | os.PathLike, schema: RawFileSchema, directory: str | os.PathLike
) -> Iterator[SpooledRecording]:
    """Yield a raw file as a :class:`SpooledRecording` of float32 axis files.

    A cached layout with a current SFG1 sidecar is read in place.  Otherwise
    each chunk of :func:`read_raw_recording` is appended to one unnamed
    temporary file per axis in ``directory`` (12 bytes of disk per sample,
    deleted on exit) and dropped; once every chunk has passed its checks, a
    cached layout's sidecar is written from those files.  A file with no
    samples raises ValueError, after its sidecar is written.
    """
    path = Path(path)
    cache = cache_path(path)
    with contextlib.ExitStack() as stack:
        if schema.cached and _cache_is_current(cache, path):
            fh = stack.enter_context(open(cache, "rb"))
            n = _sidecar_count(fh, cache)
            axes = [AxisFile(fh, n, 8 + 4 * n * axis) for axis in range(3)]
        else:
            files = [stack.enter_context(tempfile.TemporaryFile(dir=directory)) for _ in "xyz"]
            n = 0
            for chunk in read_raw_recording(path, schema):
                for fh, axis in zip(files, (chunk.x, chunk.y, chunk.z)):
                    fh.write(axis)
                n += len(chunk)
                del chunk  # not held while the next block is read
            for fh in files:
                fh.flush()
            if schema.cached:
                _write_sidecar(cache, path, files, n)
            axes = [AxisFile(fh, n) for fh in files]
        if not n:
            raise ValueError(f"{path}: no samples")
        yield SpooledRecording(*axes, schema.sample_rate_hz)


def _cache_is_current(cache: Path, source: Path) -> bool:
    """A sidecar is used only when it is not older than the text it caches."""
    return cache.exists() and cache.stat().st_mtime_ns >= source.stat().st_mtime_ns


def _sidecar_count(fh: io.BufferedReader, cache: Path) -> int:
    """The sample count of the SFG1 sidecar open as ``fh``, after checking its
    magic and that its payload holds exactly three axes of that many floats."""
    magic = fh.read(4)
    if magic != CACHE_MAGIC:
        raise ValueError(f"{cache}: not an SFG1 cache (magic {magic!r})")
    header = fh.read(4)
    size = os.fstat(fh.fileno()).st_size
    if len(header) < 4:
        raise ValueError(f"{cache}: truncated cache ({size} bytes, shorter than its header)")
    (count,) = struct.unpack("<I", header)
    payload = size - 8
    expected = 3 * 4 * count
    if payload != expected:
        raise ValueError(
            f"{cache}: truncated cache ({payload} payload bytes, expected {expected})"
        )
    return count


def _write_sidecar(
    cache: Path, source: Path, axes: Sequence[io.BufferedRandom], count: int
) -> None:
    """Write ``source``'s SFG1 sidecar, the header and then the axis files,
    to a uniquely named file and rename it over ``cache``, so overlapping
    runs share no partial file.  It takes the text's permission bits.  A
    sidecar only saves a later parse: one that cannot be written is skipped.
    """
    with contextlib.suppress(OSError):
        fd, partial = tempfile.mkstemp(dir=cache.parent, prefix=cache.name, suffix=".partial")
        try:
            with open(fd, "wb") as out:
                os.fchmod(out.fileno(), source.stat().st_mode & 0o666)
                out.write(CACHE_MAGIC + struct.pack("<I", count))
                for fh in axes:
                    fh.seek(0)
                    shutil.copyfileobj(fh, out)
            os.replace(partial, cache)
        except BaseException:
            os.unlink(partial)
            raise


# ---------------------------------------------------------------------------
# Delimited tables
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def write_table(
    path: str | os.PathLike,
    header: Sequence[str],
    rows: Sequence[Sequence[object]],
) -> None:
    """Write ``rows``, each a sequence in ``header`` order, as UTF-8 CSV.

    Floats use ``repr`` so a re-read reproduces them exactly; ``None`` is
    written as an empty field and booleans as ``1``/``0``.  Every row's
    length is checked before the file is opened, so a bad row leaves any
    existing file as it was.
    """
    for row in rows:
        if len(row) != len(header):
            raise ValueError(f"row has {len(row)} values for {len(header)} columns")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(value) for value in row])


def read_table(path: str | os.PathLike) -> list[dict[str, str]]:
    """Read a CSV written by :func:`write_table` back into string dicts."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        return [dict(row) for row in reader]


def _parse_float(text: str, context: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{context}: bad number {text!r}") from None


def _parse_int(text: str, context: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{context}: bad integer {text!r}") from None


# ---------------------------------------------------------------------------
# Minute-level files
# ---------------------------------------------------------------------------

_WEAR_LABELS = {state.value: WEAR_CODE[state] for state in WearState}
#: Block-parse field types of the minute columns; steps_* read as "f8" and
#: any other column, which no reader uses, as "U1".
_MINUTE_FIELD_TYPES = {
    "subject": "U32", "day": "i8", "minute": "i8", "wear": "U16",
    "flag": "i8", "mims": "f8", "ac": "f8",
}


def read_minute_file(path: str | os.PathLike) -> MinuteTable:
    """Parse ``subject,day,minute,wear,flag,mims[,ac][,steps_*...]`` rows.

    ``path`` is one file or a directory, whose ``*.csv`` files are read in
    name order into one table.  Parse errors name the file and line; the
    table rules (see :class:`MinuteTable`) and the key-uniqueness check run
    once over the whole table.
    """
    path = Path(path)
    files = sorted(path.glob("*.csv")) if path.is_dir() else [path]
    fields = stack_fields(block for f in files for block in _minute_blocks(f))
    try:
        return MinuteTable(**fields)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _minute_blocks(path: Path) -> Iterator[dict[str, object]]:
    """Parse a minute file in blocks of rows, each a mapping of table fields.

    Each block of ``_BLOCK_ROWS`` rows is parsed with one ``np.loadtxt``
    call.  From the first block that parse refuses to the end of the file,
    :func:`_csv_minute_blocks` parses the rows instead, and its errors name
    the line.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return
        missing = {"subject", "day", "minute", "wear", "flag", "mims"} - set(header)
        if missing:
            raise ValueError(f"{path}: missing columns {sorted(missing)}")
        step_names = [c for c in header if c.startswith("steps_")]
        # a repeated name reads its last column, as in _csv_minute_blocks
        column = {name: f"f{i}" for i, name in enumerate(header)}
        types = dict.fromkeys((f"f{i}" for i in range(len(header))), "U1")
        types.update((column[name], "f8") for name in step_names)
        for name, kind in _MINUTE_FIELD_TYPES.items():
            if name in column:
                types[column[name]] = kind
        dtype = np.dtype(list(types.items()))
        line_no = reader.line_num
        for lines, rows in _text_blocks(fh, dtype):
            block = None if rows is None else _minute_fields(rows, column, step_names)
            if block is None:
                rest = csv.reader(itertools.chain(lines, fh))
                yield from _csv_minute_blocks(path, header, rest, line_no)
                return
            line_no += len(lines)
            yield block


def _minute_fields(
    rows: np.ndarray, column: Mapping[str, str], step_names: Sequence[str]
) -> dict[str, object] | None:
    """The table fields of a block-parsed minute block, or None to refuse it."""
    subject, wear = rows[column["subject"]], rows[column["wear"]]
    width = int(np.char.str_len(subject).max())
    wear_width = int(np.char.str_len(wear).max())
    # a text that fills its fixed-width field may have been cut
    if 4 * width == subject.itemsize or 4 * wear_width == wear.itemsize:
        return None
    codes = np.zeros(len(rows), dtype=np.int8)
    labelled = np.zeros(len(rows), dtype=bool)
    for label, code in _WEAR_LABELS.items():
        match = wear == label
        codes[match] = code
        labelled |= match
    for text in dict.fromkeys(wear[~labelled].tolist()):
        code = _WEAR_LABELS.get(text.strip().lower())
        if code is None:
            return None
        codes[wear == text] = code
    # a non-finite value passes: the table rules reject it as they do after csv
    steps = np.empty((len(rows), len(step_names)))
    for j, name in enumerate(step_names):
        steps[:, j] = rows[column[name]]
    return {
        "subject": subject.astype(f"U{max(width, 1)}"),
        "day": rows[column["day"]].copy(),
        "minute": rows[column["minute"]].copy(),
        "wear": codes,
        "flag": rows[column["flag"]] != 0,
        "mims": rows[column["mims"]].copy(),
        "ac": rows[column["ac"]].copy() if "ac" in column else np.zeros(len(rows)),
        "steps": steps,
        "detectors": tuple(c[len("steps_") :] for c in step_names),
    }


def _csv_minute_blocks(
    path: Path, header: Sequence[str], reader, line_offset: int
) -> Iterator[dict[str, object]]:
    """Parse minute rows from ``reader`` with ``csv``, ``_BLOCK_ROWS`` at a time.

    The reference that the block parse must match; ``line_offset`` is the
    number of physical lines before the reader's first.
    """
    step_names = [c for c in header if c.startswith("steps_")]
    while True:
        rows, lines = [], []
        for row in reader:
            if row:
                rows.append(row)
                lines.append(line_offset + reader.line_num)
                if len(rows) == _BLOCK_ROWS:
                    break
        if not rows:
            return
        for row, line in zip(rows, lines):
            if len(row) != len(header):
                raise ValueError(
                    f"{path}:{line}: expected {len(header)} fields, got {len(row)}"
                )
        by_name = dict(zip(header, zip(*rows)))

        def numbers(texts, kind) -> np.ndarray:
            try:
                dtype = np.int64 if kind is int else np.float64
                return np.array(list(map(kind, texts)), dtype=dtype)
            except ValueError:
                parse = _parse_int if kind is int else _parse_float
                for text, line in zip(texts, lines):
                    parse(text, f"{path}:{line}")
                raise
            except OverflowError:
                limits = np.iinfo(np.int64)
                for text, line in zip(texts, lines):
                    if not limits.min <= int(text) <= limits.max:
                        raise ValueError(
                            f"{path}:{line}: integer {text!r} outside the int64 range"
                        ) from None
                raise

        ac = by_name.get("ac", [""] * len(rows))
        codes = {}
        for text, line in zip(by_name["wear"], lines):
            if text not in codes:
                label = text.strip().lower()
                if label not in _WEAR_LABELS:
                    raise ValueError(f"{path}:{line}: unknown wear label {text!r}")
                codes[text] = _WEAR_LABELS[label]
        yield {
            "subject": np.array(by_name["subject"]),
            "day": numbers(by_name["day"], int),
            "minute": numbers(by_name["minute"], int),
            "wear": np.array([codes[text] for text in by_name["wear"]], np.int8),
            "flag": numbers(by_name["flag"], int) != 0,
            "mims": numbers(by_name["mims"], float),
            "ac": numbers([t or "0" for t in ac], float),
            "steps": np.array(
                [numbers(by_name[c], float) for c in step_names]
            ).reshape(len(step_names), len(rows)).T,
            "detectors": tuple(c[len("steps_") :] for c in step_names),
        }


def write_minute_file(table: MinuteTable, path: str | os.PathLike) -> None:
    """Write a minute table, step columns in its (sorted) detector order."""
    labels = [state.value for state in WEAR_STATES]
    columns = [
        table.subject.tolist(),
        table.day.tolist(),
        table.minute.tolist(),
        [labels[code] for code in table.wear.tolist()],
        table.flag.astype(np.int64).tolist(),
        map(repr, table.mims.tolist()),
        map(repr, table.ac.tolist()),
        *(map(repr, column) for column in table.steps.T.tolist()),
    ]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([*MINUTE_COLUMNS, *(f"steps_{n}" for n in table.detectors)])
        writer.writerows(zip(*columns))


# ---------------------------------------------------------------------------
# Covariates and mortality
# ---------------------------------------------------------------------------

#: Covariate table columns in file order, each with the record field it holds.
_COVARIATE_FIELDS = {
    "subject": "subject_id",
    "wave": "wave",
    "age": "age_years",
    "sex": "sex",
    "race_ethnicity": "race_ethnicity",
    "education": "education",
    "bmi_category": "bmi_category",
    "alcohol": "alcohol",
    "smoking": "smoking",
    "self_reported_health": "self_reported_health",
    **{name: name for name in BOOLEAN_COVARIATES},
    "weight": "survey_weight",
    "stratum": "stratum_id",
    "psu": "psu_id",
}
_REQUIRED_COVARIATE_COLUMNS = ("subject", "wave", "weight", "stratum", "psu")


def _keyed_rows(
    path: Path, columns: Iterable[str], unique_subjects: bool = False
) -> Iterator[tuple[str, dict[str, str]]]:
    """Yield ``(context, row)`` for each row of a CSV table with a header.

    ``context`` is ``path:line`` for error texts, with the file line the
    row ends on, so blank lines and quoted line breaks count.  An empty file
    yields nothing; a missing column of ``columns`` is an error, and so, with
    ``unique_subjects``, is a subject that repeats an earlier row's.
    """
    first_line: dict[str, int] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            return
        missing = set(columns) - set(reader.fieldnames)
        if missing:
            raise ValueError(f"{path}: missing columns {sorted(missing)}")
        for row in reader:
            idx = reader.line_num
            ctx = f"{path}:{idx}"
            if unique_subjects:
                first = first_line.setdefault(row["subject"], idx)
                if first != idx:
                    raise ValueError(
                        f"{ctx}: subject {row['subject']!r} repeats line {first}"
                    )
            yield ctx, row


def read_covariates(path: str | os.PathLike) -> list[SubjectCovariates]:
    """Read the subject covariate table.

    Empty categorical cells become record-level missing values, except
    alcohol, which maps to its explicit "Missing alcohol" level.  Ages above
    the topcode are clamped and flagged.  A repeated subject is an error.
    """
    out: list[SubjectCovariates] = []
    rows = _keyed_rows(Path(path), _REQUIRED_COVARIATE_COLUMNS, unique_subjects=True)
    for ctx, row in rows:
        weight = _parse_float(row["weight"], ctx)
        if weight <= 0:
            raise ValueError(f"{ctx}: survey weight must be positive")
        age_text = (row.get("age") or "").strip()
        age = _parse_float(age_text, ctx) if age_text else None
        topcoded = False
        # the source convention: the topcode value means "that age or older"
        if age is not None and age >= AGE_TOPCODE:
            age, topcoded = AGE_TOPCODE, True
        cells = {
            name: (row.get(name) or "").strip()
            for name in (*CATEGORICAL_LEVELS, *BOOLEAN_COVARIATES)
        }
        categories = {name: cells[name] or None for name in CATEGORICAL_LEVELS}
        categories["alcohol"] = categories["alcohol"] or "missing_alcohol"
        flags = {
            name: bool(_parse_int(cells[name], ctx)) if cells[name] else None
            for name in BOOLEAN_COVARIATES
        }
        out.append(
            SubjectCovariates(
                subject_id=row["subject"],
                wave=row["wave"],
                age_years=age,
                **categories,
                **flags,
                survey_weight=weight,
                stratum_id=row["stratum"],
                psu_id=row["psu"],
                age_topcoded=topcoded,
            )
        )
    return out


def write_covariates(
    records: Sequence[SubjectCovariates], path: str | os.PathLike
) -> None:
    rows = [[getattr(r, f) for f in _COVARIATE_FIELDS.values()] for r in records]
    write_table(path, list(_COVARIATE_FIELDS), rows)


_MORTALITY_COLUMNS = ("subject", "event", "followup_months")


def read_mortality(path: str | os.PathLike) -> list[MortalityRecord]:
    """Read ``subject,event,followup_months`` rows; ``event`` is 0 or 1.

    A repeated subject is an error.
    """
    out: list[MortalityRecord] = []
    for ctx, row in _keyed_rows(Path(path), _MORTALITY_COLUMNS, unique_subjects=True):
        followup = _parse_float(row["followup_months"], ctx)
        if followup < 0:
            raise ValueError(f"{ctx}: negative follow-up")
        event = _parse_int(row["event"], ctx)
        if event not in (0, 1):
            raise ValueError(f"{ctx}: event must be 0 or 1, got {event}")
        out.append(
            MortalityRecord(
                subject_id=row["subject"],
                event=bool(event),
                followup_months=followup,
            )
        )
    return out


def write_mortality(
    records: Sequence[MortalityRecord], path: str | os.PathLike
) -> None:
    rows = [[r.subject_id, int(r.event), float(r.followup_months)] for r in records]
    write_table(path, _MORTALITY_COLUMNS, rows)


# ---------------------------------------------------------------------------
# Externally computed step series
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExternalStepSeries:
    """Minute-keyed step values computed outside this package."""

    detector_name: str
    values: Mapping[tuple[str, int, int], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for (subject, day, minute), steps in self.values.items():
            if not 0 <= minute <= 1439:
                raise ValueError(f"minute {minute} out of range for {subject}")
            if day < 1:
                raise ValueError(f"day {day} out of range for {subject}")
            if not steps >= 0:
                raise ValueError(f"negative steps for {subject} day {day}")


def import_external_steps(
    path: str | os.PathLike, detector_name: str
) -> ExternalStepSeries:
    """Read ``subject,day,minute,steps`` rows into an external series.

    The name must not collide with a built-in detector.
    """
    from .detectors import DETECTORS

    if detector_name in DETECTORS:
        raise ValueError(
            f"{detector_name!r} collides with a built-in detector name"
        )
    values: dict[tuple[str, int, int], float] = {}
    for ctx, row in _keyed_rows(Path(path), ("subject", "day", "minute", "steps")):
        steps = _parse_float(row["steps"], ctx)
        if steps < 0:
            raise ValueError(f"{ctx}: negative steps")
        key = (
            row["subject"],
            _parse_int(row["day"], ctx),
            _parse_int(row["minute"], ctx),
        )
        if key in values:
            raise ValueError(f"{ctx}: duplicate minute key {key}")
        values[key] = steps
    return ExternalStepSeries(detector_name, values)


def merge_external_steps(
    table: MinuteTable, series: ExternalStepSeries
) -> MinuteTable:
    """Add an external series to a minute table as one more detector.

    Minutes without an external value get 0 steps for that detector;
    external values without a matching minute are ignored.
    """
    name = series.detector_name
    if name in table.detectors:
        raise ValueError(f"minute table already has steps for {name!r}")
    keys = zip(table.subject.tolist(), table.day.tolist(), table.minute.tolist())
    column = [series.values.get(key, 0.0) for key in keys]
    return replace(
        table,
        steps=np.column_stack([table.steps, np.asarray(column, dtype=np.float64)]),
        detectors=table.detectors + (name,),
    )


# ---------------------------------------------------------------------------
# Subject-summary tables (round-trippable)
# ---------------------------------------------------------------------------


def write_subject_summaries(
    summaries: Sequence[SubjectSummary], path: str | os.PathLike
) -> None:
    keys = sorted({k for s in summaries for k in s.means})
    header = ["subject", "n_valid_days", "included", *(f"mean_{k}" for k in keys)]
    rows = [
        [s.subject_id, s.n_valid_days, int(s.included),
         *(float(s.means[k]) if k in s.means else None for k in keys)]
        for s in summaries
    ]
    write_table(path, header, rows)


def read_subject_summaries(path: str | os.PathLike) -> list[SubjectSummary]:
    out = []
    for row in read_table(path):
        means = {
            k[len("mean_") :]: float(v)
            for k, v in row.items()
            if k.startswith("mean_") and v != ""
        }
        out.append(
            SubjectSummary(
                subject_id=row["subject"],
                n_valid_days=int(row["n_valid_days"]),
                included=bool(int(row["included"])),
                means=means,
            )
        )
    return out

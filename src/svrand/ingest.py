"""Annotated Holter RR-interval files: parsing, serialization, pre-processing.

File layout: one header line, then whitespace-separated rows of
(index, time of day, RR interval in seconds, annotation).  Person metadata
(sex and age) is carried by the file name; files are read and written by path.

A series holds one numpy column per field; `RRRecord` is the row type for
building small series by hand and for reading rows back.
"""

from __future__ import annotations

import bisect
import io
import math
import os
import re
import warnings
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

__all__ = [
    "NORMAL_ANNOTATION",
    "DEFAULT_META_PATTERN",
    "NOCTURNAL_MIN_RECORDS",
    "HolterFormatError",
    "RRRecord",
    "RRSeries",
    "PersonMeta",
    "parse_holter",
    "write_holter",
    "filter_normal",
    "extract_nocturnal",
    "edit_perturbations",
]

NORMAL_ANNOTATION = "N"

# Named groups: sex (F/M) and age (years); the start clock time (HHMMSS)
# completes the name but is not read.
DEFAULT_META_PATTERN = r"(?P<sex>[FM])_(?P<age>\d{1,3})_(?P<start>\d{6})"

# Nocturnal extractions shorter than this are statistically thin for the
# downstream estimation; they warn rather than fail.
NOCTURNAL_MIN_RECORDS = 20000

_SECONDS_PER_DAY = 86400.0
_MS_PER_DAY = 86_400_000
_DEFAULT_HEADER = "index\ttime\tinterval\tannotation"

# Files are written in pieces of this many rows.  Per piece the write holds
# one field-major byte matrix and its keep mask, 42 bytes a row each for
# `synthetic_rr`, and the compacted rows, or before them the interval
# arithmetic's float64 and int64 columns: about 0.4 MiB above the series at
# 2048 rows, whatever the file's length.
_CHUNK_ROWS = 1 << 11

# The fixed clock layout HH:MM:SS.mmm: where its digits sit, and the radix
# of each.
_CLOCK_TEMPLATE = np.frombuffer(b"00:00:00.000", dtype=np.uint8)
_CLOCK_DIGITS = np.array([0, 1, 3, 4, 6, 7, 9, 10, 11])
_CLOCK_RADIX = np.array([10, 10, 6, 10, 6, 10, 10, 10, 10])

# The fixed-width reader's widest fields.  An index of at most 18 digits is
# below 2**63, and an interval of at most 15 digits has a mantissa below 2**53
# and a power of ten below 2**53, so the quotient of the two exact doubles is
# the correctly rounded value float() gives (Clinger 1990).  A 15-character
# annotation leaves the table path's field one byte to show a cut.
_INDEX_DIGITS = 18
_MANTISSA_DIGITS = 15
_ANNOTATION_WIDTH = 15
# The longest row it takes: four fields, three tabs and the newline.
_LONGEST_ROW = _INDEX_DIGITS + _CLOCK_TEMPLATE.size + _MANTISSA_DIGITS + 1 + _ANNOTATION_WIDTH + 4
# A run of one row layout is checked in pieces of this many rows, each piece
# four times the last, so a layout that breaks early costs little.
_FIRST_ROWS = 64
# Rows whose bytes are range-checked at a time: about 0.5 MiB of scratch.
_PIECE_ROWS = 1 << 14
# Candidate nocturnal windows scored at a time: about 0.5 MiB of scratch.
_WINDOW_STARTS = 1 << 14

# One row of the table path.  The clock and annotation fields each hold one
# byte more than the layout takes, so that a cut shows.
_ROW = np.dtype([("index", np.int64), ("time", f"S{_CLOCK_TEMPLATE.size + 1}"),
                 ("interval", np.float64), ("annotation", f"S{_ANNOTATION_WIDTH + 1}")])
# The characters np.loadtxt splits as str.splitlines and str.split do.
_PLAIN = bytes(range(32, 127)) + b"\t\n"
# What the fixed-width reader finds at a row's three tabs and its end.
_ROW_ENDS = np.array([9, 9, 9, 10], dtype=np.uint8)
# How far above its column's lowest byte a byte of such a row may be: 9 above
# "0" for a digit, 93 above "!" for an annotation character, and 0 elsewhere.
_SPAN = np.zeros(256, dtype=np.uint8)
_SPAN[ord("0")], _SPAN[ord("!")] = 9, ord("~") - ord("!")


class HolterFormatError(Exception):
    """Raised when an RR file cannot be parsed."""


@dataclass(frozen=True)
class RRRecord:
    """One annotated inter-beat interval.

    time is seconds since midnight (millisecond precision in files); edited
    marks intervals substituted during perturbation editing.
    """

    index: int
    time: float
    interval: float
    annotation: str
    edited: bool = False

    def __post_init__(self):
        if not self.interval > 0:
            raise ValueError(f"RR interval must be positive, got {self.interval}")
        for name, value in (("RR interval", self.interval), ("time", self.time)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.annotation:
            raise ValueError("annotation must be non-empty")
        if "\x00" in self.annotation:
            # A numpy str column would drop a trailing NUL.
            raise ValueError("annotation must not contain NUL")
        if self.annotation.split() != [self.annotation]:
            # The file's columns are split at whitespace.
            raise ValueError(f"annotation must not contain whitespace, "
                             f"got {self.annotation!r}")


_COLUMNS = ("index", "time", "interval", "annotation", "edited")


class RRSeries:
    """Ordered RR beats as read-only numpy columns, plus the verbatim file header.

    Columns, one entry per beat: `index` (int64), `time` (float64 seconds
    since midnight), `interval` (float64 seconds), `annotation` (str) and
    `edited` (bool).  `RRSeries(records, header)` builds a series from
    `RRRecord` rows; `records` gives them back.
    """

    __slots__ = _COLUMNS + ("header",)

    def __init__(self, records: Iterable[RRRecord], header: str = _DEFAULT_HEADER):
        records = tuple(records)
        self._assign(header,
                     np.array([r.index for r in records], dtype=np.int64),
                     np.array([r.time for r in records], dtype=np.float64),
                     np.array([r.interval for r in records], dtype=np.float64),
                     np.array([r.annotation for r in records], dtype=str),
                     np.array([r.edited for r in records], dtype=bool))

    @classmethod
    def _from_columns(cls, index, time, interval, annotation, edited,
                      header: str = _DEFAULT_HEADER) -> RRSeries:
        series = cls.__new__(cls)
        series._assign(header, index, time, interval, annotation, edited)
        return series

    def _assign(self, header: str, *columns: np.ndarray) -> None:
        if header and header.splitlines() != [header]:
            # The file's header is its first line.
            raise ValueError(f"header must be one line, got {header!r}")
        self.header = header
        for name, column in zip(_COLUMNS, columns):
            column.flags.writeable = False
            setattr(self, name, column)

    def _take(self, rows) -> RRSeries:
        """The beats selected by a slice or a boolean mask."""
        return RRSeries._from_columns(*(getattr(self, c)[rows] for c in _COLUMNS),
                                      header=self.header)

    @property
    def records(self) -> tuple[RRRecord, ...]:
        """The beats as `RRRecord` rows, built from the columns on each access."""
        return tuple(map(RRRecord, *(getattr(self, c).tolist() for c in _COLUMNS)))

    def __len__(self) -> int:
        return self.index.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, RRSeries):
            return NotImplemented
        return self.header == other.header and all(
            np.array_equal(getattr(self, c), getattr(other, c)) for c in _COLUMNS)

    def __repr__(self) -> str:
        return f"RRSeries(<{len(self)} beats>, header={self.header!r})"

    def elapsed(self) -> np.ndarray:
        """Seconds since the first record; clock wraps at midnight are unfolded.

        The steps are taken, unfolded and summed in the one float64 column
        returned; a mask of the backward steps, 1 byte a beat, is all the
        scratch beside it.
        """
        t = self.time
        if t.size == 0:
            return t
        out = np.zeros_like(t)
        steps = out[1:]
        np.subtract(t[1:], t[:-1], out=steps)
        steps[steps < 0] += _SECONDS_PER_DAY
        np.cumsum(steps, out=steps)
        return out


@dataclass(frozen=True)
class PersonMeta:
    """Identity decoded from the file name; None where the name did not match."""

    id: str
    sex: str | None = None
    age: int | None = None

    def __post_init__(self):
        # One to three digits, as DEFAULT_META_PATTERN reads them.
        if self.age is not None and not 0 <= self.age <= 999:
            raise ValueError(f"age must be in 0..999, got {self.age}")


def _parse_clock(text: str) -> float:
    """HH:MM:SS(.mmm) or raw seconds, to seconds since midnight.

    Values are quantised to the format's millisecond precision so that a
    parse/serialize cycle is exact.
    """
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"expected HH:MM:SS(.mmm), got {text!r}")
        ms = (int(parts[0]) * 60 + int(parts[1])) * 60_000 + round(float(parts[2]) * 1000)
    else:
        ms = round(float(text) * 1000)
    return ms / 1000.0


def _parse_row(line: str) -> RRRecord:
    if "\x00" in line:
        raise ValueError("NUL byte in the row")
    fields = line.split()
    if len(fields) != 4:
        raise ValueError(f"expected 4 columns, got {len(fields)}")
    raw_index, raw_time, raw_interval, annotation = fields
    try:
        index = int(raw_index)
    except ValueError:
        raise ValueError(f"column 1 (index): not an integer: {raw_index!r}") from None
    if not -2**63 <= index < 2**63:
        raise ValueError(f"column 1 (index): out of the 64-bit range: {raw_index!r}")
    try:
        time = _parse_clock(raw_time)
    except (ValueError, OverflowError):   # OverflowError: an infinite clock
        raise ValueError(f"column 2 (time): not a clock time: {raw_time!r}") from None
    try:
        interval = float(raw_interval)
    except ValueError:
        raise ValueError(
            f"column 3 (interval): not a number: {raw_interval!r}") from None
    try:
        return RRRecord(index=index, time=time, interval=interval,
                        annotation=annotation)
    except ValueError as exc:
        raise ValueError(f"column 3 (interval): {exc}") from None


def _parse_table(path: str) -> tuple[RRSeries | None, bytes | None]:
    """The rows after the file's header line read as one table, and the bytes read.

    The file is opened once.  The bytes are read with universal newlines, as
    open() reads text.  The series is None unless the header is one line to
    `str.splitlines` and the result provably equals what `_parse_row` makes
    of each non-blank line: fixed-width rows go to `_parse_fixed`, and any
    other body of printable ASCII with tab and newline to `_load_table`.
    numpy reads a seekable file's own handle again, after its bytes are
    freed, and a pipe's bytes from memory.  The bytes come back None when
    numpy's table is taken, and read again from the same stream when not.
    """
    with open(path, "rb") as fh:
        data = fh.read()
        if b"\r" in data:
            data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        start = data.find(b"\n") + 1 or len(data)
        try:
            [header] = data[:start].decode("utf-8").splitlines()
        except ValueError:  # not UTF-8, or not one line
            return None, data
        series = _parse_fixed(data, start, header)
        # What translate keeps of the whole file is the header's when the body is plain.
        if (series is not None
                or data.translate(None, _PLAIN) != data[:start].translate(None, _PLAIN)):
            return series, data
        stream = fh if fh.seekable() else io.BytesIO(data)
        del data  # a seekable file's bytes are freed before numpy reads it
        stream.seek(0)
        series = _load_table(stream, header)
        if series is not None:
            return series, None
        stream.seek(0)
        return None, stream.read()


def _horner(rows: np.ndarray, columns, out: np.ndarray, radix=None) -> None:
    """The ASCII digits in the given columns of each row, read as one number into out.

    Horner's rule: each column after the first multiplies what came before
    by its radix (10 by default), then adds its byte.  Each byte carries 48
    more than its digit, so the sum of those excesses is taken off at the
    end.  A row of digits comes out exact when out's dtype holds the sum for
    bytes of "9"; any other row comes out meaningless.
    """
    out[:] = rows[:, columns[0]]
    excess = 48
    for k, column in enumerate(columns[1:], start=1):
        place = 10 if radix is None else int(radix[k])
        out *= place
        out += rows[:, column]
        excess = excess * place + 48
    out -= excess


def _parse_fixed(data: bytes, start: int, header: str) -> RRSeries | None:
    """The rows from byte `start` on, when each field keeps one width per run.

    The body splits into runs of one row layout, at most one for each index
    width.  Each run is a (rows, row length) view of the bytes; every byte
    is checked against its column's range, and the columns are decoded by
    digit arithmetic into the preallocated columns of the series.  Returns
    None unless every row is four tab-separated ASCII fields: an index of
    1-18 digits, an HH:MM:SS.mmm clock, an interval of 1-15 digits and one
    dot whose value is positive, and an annotation of 1-15 printable
    characters other than space.  Each field then converts exactly as
    `_parse_row` converts it; see `_MANTISSA_DIGITS`.
    """
    if start == len(data):
        return None
    if not data.endswith(b"\n"):
        data += b"\n"
    body = np.frombuffer(data, dtype=np.uint8)
    runs, widths, pos = [], set(), start
    while pos < len(data):
        row = data[pos:data.find(b"\n", pos, pos + _LONGEST_ROW) + 1]
        fields = row[:-1].split(b"\t")
        if len(fields) != 4:
            return None
        index_w, clock_w, value_w, label_w = map(len, fields)
        dot = fields[2].find(b".")
        if (not 0 < index_w <= _INDEX_DIGITS or index_w in widths or dot < 0
                or clock_w != _CLOCK_TEMPLATE.size or not 1 < value_w <= _MANTISSA_DIGITS + 1
                or not 0 < label_w <= _ANNOTATION_WIDTH):
            return None
        widths.add(index_w)
        # Each column's lowest byte; _SPAN says how far above it a byte may be.
        low = np.frombuffer(b"0" * index_w + b"\t" + _CLOCK_TEMPLATE.tobytes() + b"\t"
                            + b"0" * dot + b"." + b"0" * (value_w - dot - 1) + b"\t"
                            + b"!" * label_w + b"\n", dtype=np.uint8)
        ends = np.flatnonzero(low < ord("!"))   # the three tabs and the newline
        size = (len(data) - pos) // len(row)
        rows = body[pos:pos + size * len(row)].reshape(size, len(row))
        # The run ends at the first row whose tabs and newline sit elsewhere.
        m, step = 0, _FIRST_ROWS
        while m < size:
            ok = np.all(rows[m:m + step, ends] == _ROW_ENDS, axis=1)
            if not ok.all():
                m += int(ok.argmin())
                break
            m, step = m + ok.size, 4 * step
        runs.append((rows[:m], low, ends, dot))
        pos += m * len(row)

    n = sum(len(rows) for rows, *_ in runs)
    width = max(int(ends[3] - ends[2]) - 1 for _, _, ends, _ in runs)
    index = np.empty(n, dtype=np.int64)
    ms = np.empty(n, dtype=np.uint32)   # the clock's bytes weighted sum to < 2**32
    interval = np.empty(n, dtype=np.float64)
    codes = np.zeros((n, width), dtype=np.uint32)
    lo = 0
    for rows, low, (tab1, tab2, tab3, _), dot in runs:
        hi = lo + len(rows)
        # Each byte within its column's range, checked in cache-sized pieces.
        span = _SPAN[low]
        for piece in range(0, len(rows), _PIECE_ROWS):
            cells = rows[piece:piece + _PIECE_ROWS] - low
            if np.any(cells > span):
                return None
        _horner(rows, range(tab1), index[lo:hi])
        _horner(rows, tab1 + 1 + _CLOCK_DIGITS, ms[lo:hi], _CLOCK_RADIX)
        mantissa = interval[lo:hi].view(np.int64)
        _horner(rows, [c for c in range(tab2 + 1, tab3) if c != tab2 + 1 + dot], mantissa)
        if mantissa.min() == 0:
            return None
        np.divide(mantissa, float(10 ** (tab3 - tab2 - 2 - dot)), out=interval[lo:hi])
        codes[lo:hi, :len(low) - tab3 - 2] = rows[:, tab3 + 1:-1]
        lo = hi
    return RRSeries._from_columns(index, ms / 1000.0, interval,
                                  codes.view(f"U{width}")[:, 0], np.zeros(n, dtype=bool),
                                  header=header)


def _load_table(source: io.BufferedIOBase, header: str) -> RRSeries | None:
    """The rows after the header line of a binary stream of plain ASCII, by `np.loadtxt`.

    The stream stands at the file's start.  The caller has checked that the
    rest of the file is printable ASCII with tab and newline, where
    `np.loadtxt` breaks lines and fields as `str.splitlines` and `str.split`
    do.  numpy reads text through a wrapper with universal newlines, which
    numpy itself does not apply to a binary stream, and the wrapper is
    detached after, so the stream stays open.  Returns None unless every
    line has four fields that `loadtxt` converts as `int()` and `float()`
    would; every clock is on the HH:MM:SS.mmm layout; the interval is
    positive and finite; and no field was cut to its width.
    """
    text = io.TextIOWrapper(source, encoding="utf-8")
    try:
        with warnings.catch_warnings():
            # An empty table warns.  Older numpy reads "1e3" or "1.0" as an
            # integer after a DeprecationWarning; int() rejects both.
            warnings.simplefilter("ignore", UserWarning)
            warnings.simplefilter("error", DeprecationWarning)
            rows = np.loadtxt(text, dtype=_ROW, comments=None, ndmin=1, skiprows=1)
    except (ValueError, DeprecationWarning):
        return None
    finally:
        text.detach()

    interval = rows["interval"].copy()
    if not np.all((interval > 0) & (interval < np.inf)):
        return None
    width = int(np.char.str_len(rows["annotation"]).max(initial=1))
    if width > _ANNOTATION_WIDTH:
        return None
    # Clock: _parse_clock's (H * 60 + M) * 60_000 + round(float(S.mmm) * 1000)
    # is exact digit arithmetic on the HH:MM:SS.mmm layout.  A NUL in the
    # last byte shows the field was not cut.
    clock = rows["time"].view((np.uint8, _ROW["time"].itemsize))
    if np.any(clock[:, -1]) or np.any(clock[:, :-1] - _CLOCK_TEMPLATE > _SPAN[_CLOCK_TEMPLATE]):
        return None
    index = rows["index"].copy()
    # The annotation field's bytes, the last of each row: ASCII without NUL,
    # so each byte widened is its code point, and zeros pad the shorter values.
    field = rows.view((np.uint8, _ROW.itemsize))[:, _ROW.fields["annotation"][1]:]
    annotation = field[:, :width].astype(np.uint32).view(f"U{width}")[:, 0]
    ms = np.empty(rows.size, dtype=np.uint32)
    _horner(clock, _CLOCK_DIGITS, ms, _CLOCK_RADIX)
    return RRSeries._from_columns(index, ms / 1000.0, interval, annotation,
                                  np.zeros(rows.size, dtype=bool), header=header)


def _parse_rows(path: str, data: bytes) -> RRSeries:
    """The lines after the header of the file's bytes, parsed one by one and
    numbered from 2; all failures raised together."""
    lines = data.decode("utf-8").splitlines()
    if not lines:
        raise HolterFormatError(f"{path}: empty file")
    records = []
    problems = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            records.append(_parse_row(line))
        except ValueError as exc:
            problems.append(f"line {lineno}: {exc}")
    if problems:
        shown = "; ".join(problems[:5])
        extra = f" (+{len(problems) - 5} more)" if len(problems) > 5 else ""
        raise HolterFormatError(f"{path}: {shown}{extra}")
    return RRSeries(records, lines[0])


def parse_meta(name: str, meta_pattern: str = DEFAULT_META_PATTERN) -> PersonMeta:
    """Decode sex and age from a file name; unknown fields stay None."""
    stem = Path(name).stem
    if "\r" in stem:  # the CSV writer would leave it unquoted, splitting the row
        raise HolterFormatError(f"{name!r}: a carriage return cannot be in a person id")
    match = re.search(meta_pattern, stem)
    if match is None:
        warnings.warn(f"file name {name!r} does not match the metadata pattern; "
                      "sex/age unknown")
        return PersonMeta(id=stem)
    groups = match.groupdict()
    age = groups.get("age")
    try:
        return PersonMeta(id=stem, sex=groups.get("sex"),
                          age=None if age is None else int(age))
    except ValueError as exc:
        raise HolterFormatError(f"{name!r}: {exc}") from None


def parse_holter(source, meta_pattern: str = DEFAULT_META_PATTERN
                 ) -> tuple[PersonMeta, RRSeries]:
    """Read one annotated RR file, given its path as a str or `os.PathLike`.

    The file is opened once, and what is parsed depends on its bytes alone,
    whatever kind of file held them.  Rows of fixed-width fields are decoded
    in place from the bytes read, and other plain ASCII rows are read by
    `np.loadtxt`, each only where that provably gives the row parser's
    result for the whole file.  Otherwise the lines are parsed one by one;
    all malformed rows are reported with their line numbers.
    """
    path = os.fspath(source)
    series, data = _parse_table(path)
    if series is None:
        series = _parse_rows(path, data)
    if not len(series):
        raise HolterFormatError(f"{path}: no records")
    return parse_meta(path, meta_pattern), series


def write_holter(series: RRSeries, dest) -> None:
    """Serialize a series to the text format, at the path `dest`.

    The header is passed through verbatim; columns are tab separated; the
    interval keeps its shortest exact decimal form, repr's, and the time is
    written with millisecond precision.  Rows are laid out column-wise,
    2048 at a time, in one byte matrix per piece, and written with one call
    each (`svrand.rowtext.holter_rows`).  repr's digits are computed for a
    whole column and certified exactly; the few values that cannot be, such
    as powers of two, values below 1e-4 or from 2**53 up, are written by
    repr one at a time.  One piece's matrix, mask and arithmetic, about
    0.4 MiB, is all the memory the write takes beyond the series.  A time
    whose milliseconds overflow a float raises OverflowError, naming its
    row, before the file is opened.
    """
    # Imported here, so that only a process that writes compiles the layout.
    from svrand.rowtext import holter_rows

    # A time whose milliseconds overflow to inf has no clock, and round() of
    # it raises OverflowError: raised here before any byte is written.
    if len(series) and math.isinf(float(max(series.time.max(), -series.time.min())) * 1000):
        with np.errstate(over="ignore"):
            row = int(np.flatnonzero(np.isinf(series.time * 1000))[0])
        raise OverflowError(f"row {row}: time {float(series.time[row])!r} s "
                            f"has no millisecond clock")
    with open(os.fspath(dest), "wb") as fh:
        fh.write(series.header.encode("utf-8") + b"\n")
        for lo in range(0, len(series), _CHUNK_ROWS):
            rows = slice(lo, lo + _CHUNK_ROWS)
            # Milliseconds of the day: the remainder of an integral float is
            # exact, so this is the integer round(t * 1000) % _MS_PER_DAY.
            ms = np.mod(np.rint(series.time[rows] * 1000), _MS_PER_DAY).astype(np.int64)
            fh.write(holter_rows(series.index[rows], ms, series.interval[rows],
                                 series.annotation[rows]))


def filter_normal(series: RRSeries) -> RRSeries:
    """Keep only records annotated as normal, in order."""
    return series._take(series.annotation == NORMAL_ANNOTATION)


def extract_nocturnal(series: RRSeries, duration: float = 6 * 3600.0) -> RRSeries:
    """Contiguous sub-series of the given wall-clock duration with maximal mean RR.

    Candidate windows start at each record and contain every record within
    `duration` seconds of the start; ties go to the earliest start.  The
    slowest such window approximates the sleep period.  Two float64 columns
    of the series' length, the elapsed times and the interval prefix sums,
    are held at once, and the windows are scored `_WINDOW_STARTS` starts at
    a time, about 0.5 MiB beside them; the window returned shares the
    series' columns.  Intervals whose sum overflows a float raise ValueError.
    """
    if not duration > 0:
        raise ValueError(f"duration must be positive, got {duration}")
    if len(series) == 0:
        raise ValueError("empty series")
    t = series.elapsed()
    if t[-1] - t[0] < duration:
        raise ValueError(
            f"series spans {t[-1] - t[0]:.1f} s, shorter than the "
            f"{duration:.1f} s window")
    if np.any(t[1:] < t[:-1]):
        raise ValueError("clock times step back by more than a day")
    sums = np.zeros(len(t) + 1)
    with np.errstate(over="ignore"):
        np.cumsum(series.interval, out=sums[1:])
    # Positive intervals make the sums rise, so any overflow shows in the last.
    if not np.isfinite(sums[-1]):
        raise ValueError("the RR intervals sum past the largest float")
    # Candidate starts stop at the first window that would run past the
    # recording: t[-1] - t[i] < duration holds from there on, since t never
    # falls, so bisection finds it.
    stop = bisect.bisect_left(range(len(t)), True, key=lambda i: bool(t[-1] - t[i] < duration))
    # Each window ends before pos, the first record past `duration`.  Every
    # piece keeps its first best start, and the first best of those wins, so
    # a tie goes to the earliest start.
    pieces = []
    for lo in range(0, stop, _WINDOW_STARTS):
        hi = min(lo + _WINDOW_STARTS, stop)
        pos = np.searchsorted(t, t[lo:hi] + duration, side="right")
        means = sums[pos]
        means -= sums[lo:hi]
        means /= pos - np.arange(lo, hi)
        k = int(np.argmax(means))
        pieces.append((means[k], lo + k, int(pos[k])))
    _, best, end = pieces[int(np.argmax([mean for mean, _, _ in pieces]))]
    window = series._take(slice(best, end))
    if len(window) < NOCTURNAL_MIN_RECORDS:
        warnings.warn(f"nocturnal window holds {len(window)} records, fewer than "
                      f"the recommended {NOCTURNAL_MIN_RECORDS}")
    return window


def edit_perturbations(series: RRSeries) -> RRSeries:
    """Repair or drop runs of non-normal records, left to right.

    A run of fewer than 5 consecutive non-normal records is replaced
    record-by-record with the median of the (up to) 7 normal intervals
    immediately preceding the run, re-annotated normal and marked edited;
    with no preceding normals the run is dropped.  Runs of 5 or more are
    dropped entirely.  Replacements made earlier in the pass count as normal
    history for later runs.
    """
    abnormal = series.annotation != NORMAL_ANNOTATION
    if not abnormal.any():
        return series
    # Run bounds alternate: start of a run, end of it, start of the next...
    padded = np.concatenate(([False], abnormal, [False]))
    bounds = np.flatnonzero(padded[1:] != padded[:-1]).tolist()
    interval = series.interval.copy()
    repaired = np.zeros(len(series), dtype=bool)
    recent: deque[float] = deque(maxlen=7)   # the last 7 kept intervals
    previous_end = 0
    for start, end in zip(bounds[::2], bounds[1::2]):
        recent.extend(interval[max(previous_end, start - 7):start].tolist())
        if end - start < 5 and recent:
            # statistics.median's arithmetic: the middle value, or the mean of the two.
            ordered = sorted(recent)
            half = len(ordered) // 2
            median = (ordered[half] if len(ordered) % 2
                      else (ordered[half - 1] + ordered[half]) / 2)
            interval[start:end] = median
            repaired[start:end] = True
            recent.extend([median] * (end - start))
        previous_end = end
    keep = ~abnormal | repaired
    return RRSeries._from_columns(
        series.index[keep], series.time[keep], interval[keep],
        np.where(repaired, NORMAL_ANNOTATION, series.annotation)[keep],
        (series.edited | repaired)[keep], header=series.header)

"""Annotated Holter RR-interval files: parsing, serialization, pre-processing.

File layout: one header line, then whitespace-separated rows of
(index, time of day, RR interval in seconds, annotation).  Person metadata
(sex and age) is carried by the file name.

A series holds one numpy column per field; `RRRecord` is the row type for
building small series by hand and for reading rows back.
"""

from __future__ import annotations

import contextlib
import math
import os
import re
import statistics
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

# Files are written in pieces of this many rows, which bounds the
# temporaries of the column-wise formatting.
_CHUNK_ROWS = 1 << 14

# The fixed clock layout HH:MM:SS.mmm: where its digits sit, what each digit
# is worth in milliseconds, and the radix it is written in.
_CLOCK_TEMPLATE = np.frombuffer(b"00:00:00.000", dtype=np.uint8)
_CLOCK_DIGITS = np.array([0, 1, 3, 4, 6, 7, 9, 10, 11])
_CLOCK_PLACES = np.array([36_000_000, 3_600_000, 600_000, 60_000, 10_000, 1000,
                          100, 10, 1])
_CLOCK_RADIX = np.array([10, 10, 6, 10, 6, 10, 10, 10, 10])

# One row of the table path.  The clock field holds one byte more than the
# layout, and no annotation may fill its field, so that a cut shows.
_ROW = np.dtype([("index", np.int64), ("time", "S13"), ("interval", np.float64),
                 ("annotation", "S16")])
# The characters np.loadtxt splits as str.splitlines and str.split do.
_PLAIN = bytes(range(32, 127)) + b"\t\n"


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
        """Seconds since the first record; clock wraps at midnight are unfolded."""
        t = self.time
        if t.size == 0:
            return t
        steps = np.diff(t)
        steps[steps < 0] += _SECONDS_PER_DAY
        return np.concatenate([[0.0], np.cumsum(steps)])


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


def _format_clocks(time: np.ndarray) -> list[str]:
    """HH:MM:SS.mmm of each time, rounded to the millisecond and wrapped at midnight."""
    # Remainder of an integral float is exact, so this equals the integer
    # round(t * 1000) % _MS_PER_DAY for every finite t.
    ms = np.mod(np.rint(time * 1000), _MS_PER_DAY).astype(np.int64)
    cells = np.tile(_CLOCK_TEMPLATE.astype(np.uint32), (ms.size, 1))
    cells[:, _CLOCK_DIGITS] += (ms[:, None] // _CLOCK_PLACES % _CLOCK_RADIX).astype(np.uint32)
    return cells.view("U12")[:, 0].tolist()


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


def _parse_table(stream, header: str, path: str | None = None) -> RRSeries | None:
    """The rows of the rest of a seekable text stream, read as one table.

    Returns None unless the result provably equals what `_parse_row` makes
    of each non-blank line: the text is printable ASCII with tab and
    newline, where `np.loadtxt` breaks lines and fields as `str.splitlines`
    and `str.split` do; every line has four fields that `loadtxt` converts
    as `int()` and `float()` would; every clock converts; the interval is
    positive and finite; and no field was cut to its width.  Given `path`,
    the file that `stream` reads, `loadtxt` reads the file itself, in large
    chunks, from its second line (see `parse_holter`).
    """
    start = stream.tell()
    while piece := stream.read(1 << 16):
        if not piece.isascii() or piece.encode("ascii").translate(None, _PLAIN):
            return None
    stream.seek(start)
    try:
        with warnings.catch_warnings():
            # An empty table warns.  Older numpy reads "1e3" or "1.0" as an
            # integer after a DeprecationWarning; int() rejects both.
            warnings.simplefilter("ignore", UserWarning)
            warnings.simplefilter("error", DeprecationWarning)
            rows = np.loadtxt(stream if path is None else path, dtype=_ROW, comments=None,
                              ndmin=1, skiprows=0 if path is None else 1, encoding="utf-8")
    except (ValueError, DeprecationWarning, OSError):
        # OSError: numpy could not open the path again; the stream still reads.
        return None

    interval = rows["interval"].copy()
    if not np.all((interval > 0) & (interval < np.inf)):
        return None
    width = int(np.char.str_len(rows["annotation"]).max(initial=1))
    if width >= _ROW["annotation"].itemsize:
        return None
    index = rows["index"].copy()
    # The annotation field's bytes, the last of each row: ASCII without NUL,
    # so each byte widened is its code point, and zeros pad the shorter values.
    field = rows.view((np.uint8, _ROW.itemsize))[:, _ROW.fields["annotation"][1]:]
    annotation = field[:, :width].astype(np.uint32).view(f"U{width}")[:, 0]

    # Clock: _parse_clock's (H * 60 + M) * 60_000 + round(float(S.mmm) * 1000)
    # is exact digit arithmetic on the HH:MM:SS.mmm layout; other clocks,
    # such as raw seconds, go through _parse_clock one by one.  A NUL in the
    # last byte shows the field was not cut.
    clock = rows["time"].view((np.uint8, 13))
    if np.any(clock[:, 12]):
        return None
    digits = clock[:, _CLOCK_DIGITS] - np.uint8(ord("0"))
    ms = np.zeros(rows.size, dtype=np.int64)
    for column, place in enumerate(_CLOCK_PLACES):
        ms += digits[:, column] * place
    other = np.flatnonzero(
        np.any(digits > 9, axis=1)
        | np.any(clock[:, [2, 5, 8]] != np.frombuffer(b"::.", np.uint8), axis=1))
    # Freed and reused early, so that cohort_med's peak RSS does not flip high.
    del digits
    time = np.divide(ms, 1000.0, out=ms.view(np.float64))
    try:
        time[other] = [_parse_clock(cell.decode()) for cell in rows["time"][other]]
    except (ValueError, OverflowError):
        return None
    return RRSeries._from_columns(index, time, interval, annotation,
                                  np.zeros(rows.size, dtype=bool), header=header)


def _parse_rows(lines: list[str], header: str, name: str) -> RRSeries:
    """Lines parsed one by one, numbered from 2; all failures raised together."""
    records = []
    problems = []
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        try:
            records.append(_parse_row(line))
        except ValueError as exc:
            problems.append(f"line {lineno}: {exc}")
    if problems:
        shown = "; ".join(problems[:5])
        extra = f" (+{len(problems) - 5} more)" if len(problems) > 5 else ""
        raise HolterFormatError(f"{name}: {shown}{extra}")
    return RRSeries(records, header)


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
    """Read one annotated RR file.

    Accepts a path or a seekable text stream, read from its current
    position.  The rows are read as one table with `np.loadtxt` when that
    provably gives the row parser's result.  Otherwise the whole text is
    read again and parsed line by line, and all malformed rows are reported
    together, each with its line number.

    `loadtxt` reads a path itself, in large chunks, unless its name ends in
    .gz, .bz2, .xz or .lzma, which numpy would decompress.  A relative path
    goes to numpy behind "./", which numpy never takes for a URL.
    """
    named = isinstance(source, (str, Path))
    with open(source, encoding="utf-8") if named else contextlib.nullcontext(source) as stream:
        direct = named and os.path.splitext(source)[1] not in (".gz", ".bz2", ".xz", ".lzma")
        path = os.path.join(os.curdir, source) if direct else None
        name = getattr(stream, "name", "<stream>")
        start = stream.tell()
        head = stream.readline()
        if not head:
            raise HolterFormatError(f"{name}: empty file")
        # The header is the first line as str.splitlines sees it.
        lines = head.splitlines()
        series = _parse_table(stream, lines[0], path) if len(lines) == 1 else None
        if series is None:
            stream.seek(start)
            lines = stream.read().splitlines()
            series = _parse_rows(lines[1:], lines[0], name)
        if not len(series):
            raise HolterFormatError(f"{name}: no records")
        return parse_meta(name, meta_pattern), series


def write_holter(series: RRSeries, dest) -> None:
    """Serialize a series back to the text format.

    The header is passed through verbatim; columns are tab separated; the
    interval keeps its shortest exact decimal form, the time is written with
    millisecond precision.
    """
    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8") as fh:
            write_holter(series, fh)
        return
    dest.write(series.header + "\n")
    for lo in range(0, len(series), _CHUNK_ROWS):
        rows = slice(lo, lo + _CHUNK_ROWS)
        dest.write("".join(
            f"{i}\t{clock}\t{interval!r}\t{annotation}\n"
            for i, clock, interval, annotation in zip(
                series.index[rows].tolist(), _format_clocks(series.time[rows]),
                series.interval[rows].tolist(), series.annotation[rows].tolist())))


def filter_normal(series: RRSeries) -> RRSeries:
    """Keep only records annotated as normal, in order."""
    return series._take(series.annotation == NORMAL_ANNOTATION)


def extract_nocturnal(series: RRSeries, duration: float = 6 * 3600.0) -> RRSeries:
    """Contiguous sub-series of the given wall-clock duration with maximal mean RR.

    Candidate windows start at each record and contain every record within
    `duration` seconds of the start; ties go to the earliest start.  The
    slowest such window approximates the sleep period.
    """
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    if len(series) == 0:
        raise ValueError("empty series")
    t = series.elapsed()
    if t[-1] - t[0] < duration:
        raise ValueError(
            f"series spans {t[-1] - t[0]:.1f} s, shorter than the "
            f"{duration:.1f} s window")
    if np.any(np.diff(t) < 0):
        raise ValueError("clock times step back by more than a day")
    sums = np.concatenate([[0.0], np.cumsum(series.interval)])
    # Candidate starts stop at the first window that would run past the
    # recording; each window ends at the last record within `duration`.
    stop = int(np.argmax(t[-1] - t < duration))
    ends = np.searchsorted(t, t[:stop] + duration, side="right") - 1
    means = (sums[ends + 1] - sums[:stop]) / (ends - np.arange(stop) + 1)
    best = int(np.argmax(means))
    window = series._take(slice(best, ends[best] + 1))
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
            median = statistics.median(recent)
            interval[start:end] = median
            repaired[start:end] = True
            recent.extend([median] * (end - start))
        previous_end = end
    keep = ~abnormal | repaired
    return RRSeries._from_columns(
        series.index[keep], series.time[keep], interval[keep],
        np.where(repaired, NORMAL_ANNOTATION, series.annotation)[keep],
        (series.edited | repaired)[keep], header=series.header)

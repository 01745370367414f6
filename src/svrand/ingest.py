"""Annotated Holter RR-interval files: parsing, serialization, pre-processing.

File layout: one header line, then whitespace-separated rows of
(index, time of day, RR interval in seconds, annotation).  Person metadata
(sex, age, measurement start) is carried by the file name.

A series holds one numpy column per field; `RRRecord` is the row type for
building small series by hand and for reading rows back.
"""

from __future__ import annotations

import itertools
import math
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

# Named groups: sex (F/M), age (years), start (HHMMSS clock time).
DEFAULT_META_PATTERN = r"(?P<sex>[FM])_(?P<age>\d{1,3})_(?P<start>\d{6})"

# Nocturnal extractions shorter than this are statistically thin for the
# downstream estimation; they warn rather than fail.
NOCTURNAL_MIN_RECORDS = 20000

_SECONDS_PER_DAY = 86400.0
_MS_PER_DAY = 86_400_000
_DEFAULT_HEADER = "index\ttime\tinterval\tannotation"

# Files are read and written in pieces of this many characters or rows,
# which bounds the temporaries of the column-wise conversion.
_CHUNK_CHARS = 1 << 19
_CHUNK_ROWS = 1 << 14

# The fixed clock layout HH:MM:SS.mmm: where its digits sit, what each digit
# is worth in milliseconds, and the radix it is written in.
_CLOCK_TEMPLATE = np.frombuffer(b"00:00:00.000", dtype=np.uint8)
_CLOCK_DIGITS = np.array([0, 1, 3, 4, 6, 7, 9, 10, 11])
_CLOCK_PLACES = np.array([36_000_000, 3_600_000, 600_000, 60_000, 10_000, 1000,
                          100, 10, 1])
_CLOCK_RADIX = np.array([10, 10, 6, 10, 6, 10, 10, 10, 10])

# Decimal fields of up to 19 characters fit an unsigned 64-bit mantissa.
_MAX_DECIMAL_WIDTH = 19
_POW10 = 10 ** np.arange(_MAX_DECIMAL_WIDTH, dtype=np.uint64)
_POW10_FLOAT = _POW10.astype(np.float64)   # exact: 10**k = 2**k * 5**k, 5**18 < 2**53


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
        if self.interval == math.inf:
            raise ValueError("RR interval must be finite, got inf")
        if not self.annotation:
            raise ValueError("annotation must be non-empty")


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
    start_time: float | None = None


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
    except ValueError:
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


def _gather(b: np.ndarray, start: np.ndarray, end: np.ndarray, width: int,
            pad: int, right: bool = False) -> np.ndarray:
    """One row of `width` bytes per field b[start:end], filled with `pad`.

    Fields are left-aligned, or right-aligned (leading padding) with right.
    """
    cols = np.arange(width)
    pos = (end[:, None] - width + cols) if right else (start[:, None] + cols)
    inside = (pos >= start[:, None]) & (pos < end[:, None])
    return np.where(inside, np.take(b, pos, mode="clip"), np.uint8(pad))


def _decimals(b: np.ndarray, start: np.ndarray, end: np.ndarray):
    """Fields of digits with at most one point, or None if any field is not.

    Returns each field's mantissa (its digits as one integer), the number
    of digits after the point, and whether it has a point.
    """
    width = int((end - start).max())
    if width > _MAX_DECIMAL_WIDTH:
        return None
    cells = _gather(b, start, end, width, ord("0"), right=True)
    point = cells == ord(".")
    digits = np.where(point, 0, cells - ord("0"))
    if np.any(digits > 9) or np.any(point.sum(axis=1) > 1):
        return None
    has_point = point.any(axis=1)
    point_col = np.where(has_point, point.argmax(axis=1), -1)
    cols = np.arange(width)
    place = width - 1 - cols - (cols < point_col[:, None])
    mantissa = (digits.astype(np.uint64) * _POW10[place]).sum(axis=1)
    return mantissa, np.where(has_point, width - 1 - point_col, 0), has_point


def _parse_bulk(text: str) -> RRSeries | None:
    """The rows of whole lines of text, converted column-wise with numpy.

    Returns None unless the result provably equals what `_parse_row` makes
    of each non-blank line: the text is printable ASCII with tab and
    newline, every non-blank line has exactly four fields, the index is
    digits within the 64-bit range, the clock is HH:MM:SS.mmm, and the
    interval is positive and written as digits with at most one point.
    """
    if not text.isascii():
        return None
    # Newlines around the text make every field start after and end before a byte.
    b = np.frombuffer(("\n" + text + "\n").encode("ascii"), dtype=np.uint8)
    if not np.all(((b >= 32) & (b < 127)) | (b == 9) | (b == 10)):
        return None
    word = b > 32
    starts = np.flatnonzero(word[1:] > word[:-1]) + 1
    ends = np.flatnonzero(word[:-1] > word[1:]) + 1
    if starts.size % 4:
        return None
    if starts.size == 0:
        return RRSeries(())
    starts = starts.reshape(-1, 4).T
    ends = ends.reshape(-1, 4).T
    # Four fields per line: no newline within a row, one between rows.
    newlines = np.flatnonzero(b == 10)
    first = np.searchsorted(newlines, starts[0])
    last = np.searchsorted(newlines, ends[3])
    if np.any(first != last) or np.any(first[1:] == last[:-1]):
        return None
    widths = ends - starts

    # Index: what int() makes of digits, within the 64-bit range.
    decoded = _decimals(b, starts[0], ends[0])
    if decoded is None or decoded[2].any() or np.any(decoded[0] >= 2**63):
        return None
    index = decoded[0].astype(np.int64)

    # Clock: _parse_clock's (H * 60 + M) * 60_000 + round(float(S.mmm) * 1000)
    # is exact digit arithmetic on this layout.
    if np.any(widths[1] != 12):
        return None
    cells = _gather(b, starts[1], ends[1], 12, 0)
    digits = cells[:, _CLOCK_DIGITS] - ord("0")
    if np.any(digits > 9) or np.any(cells[:, [2, 5, 8]] != np.frombuffer(b"::.", np.uint8)):
        return None
    time = (digits.astype(np.int64) @ _CLOCK_PLACES) / 1000.0

    # Interval: for a mantissa M <= 2**53, M / 10**k is one correctly
    # rounded division, which is exactly what float() returns; larger
    # mantissas go through float().
    decoded = _decimals(b, starts[2], ends[2])
    if decoded is None:
        return None
    mantissa, decimals, _ = decoded
    interval = mantissa / _POW10_FLOAT[decimals]
    for row in np.flatnonzero(mantissa > 2**53).tolist():
        interval[row] = float(b[starts[2, row]:ends[2, row]].tobytes())
    if not np.all(interval > 0):
        return None

    width = int(widths[3].max())
    annotation = _gather(b, starts[3], ends[3], width, 0).astype(np.uint32)
    return RRSeries._from_columns(index, time, interval,
                                  annotation.view(f"U{width}")[:, 0],
                                  np.zeros(index.size, dtype=bool))


def _parse_rows(lines: list[str], first_lineno: int, problems: list[str]) -> RRSeries:
    """The rows of lines parsed one by one; each failure is added to problems."""
    records = []
    for lineno, line in enumerate(lines, start=first_lineno):
        if not line.strip():
            continue
        try:
            records.append(_parse_row(line))
        except ValueError as exc:
            problems.append(f"line {lineno}: {exc}")
    return RRSeries(records)


def _chunks(stream, size: int):
    """The stream's text in pieces of about `size` characters.

    Each piece but the last ends with a newline, so that splitting every
    piece into lines gives the lines of the whole text.
    """
    tail = ""
    while piece := stream.read(size):
        piece = tail + piece
        cut = piece.rfind("\n") + 1
        tail = piece[cut:]
        if cut:
            yield piece[:cut]
    if tail:
        yield tail


def parse_meta(name: str, meta_pattern: str = DEFAULT_META_PATTERN) -> PersonMeta:
    """Decode sex/age/start time from a file name; unknown fields stay None."""
    stem = Path(name).stem
    match = re.search(meta_pattern, stem)
    if match is None:
        warnings.warn(f"file name {name!r} does not match the metadata pattern; "
                      f"sex/age/start time unknown")
        return PersonMeta(id=stem)
    groups = match.groupdict()
    start = groups.get("start")
    start_time = None
    if start is not None:
        start_time = (int(start[0:2]) * 3600.0 + int(start[2:4]) * 60.0
                      + int(start[4:6]))
    age = int(groups["age"]) if groups.get("age") is not None else None
    return PersonMeta(id=stem, sex=groups.get("sex"), age=age,
                      start_time=start_time)


def parse_holter(source, meta_pattern: str = DEFAULT_META_PATTERN
                 ) -> tuple[PersonMeta, RRSeries]:
    """Read one annotated RR file.

    Accepts a path or an open text stream.  All malformed rows are collected
    and reported together, each with its line number.  The text is read in
    chunks; a chunk is converted column-wise when that provably gives the
    row parser's result, and row by row otherwise.
    """
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as fh:
            return parse_holter(fh, meta_pattern)
    name = getattr(source, "name", "<stream>")
    chunks = _chunks(source, _CHUNK_CHARS)
    first = next(chunks, "")
    if not first:
        raise HolterFormatError(f"{name}: empty file")
    head = first.splitlines(keepends=True)[0]
    header = head.splitlines()[0]
    parts = []
    problems: list[str] = []
    lineno = 2
    for text in itertools.chain([first[len(head):]], chunks):
        part = _parse_bulk(text)
        if part is not None:
            lineno += text.count("\n")
        else:
            lines = text.splitlines()
            part = _parse_rows(lines, lineno, problems)
            lineno += len(lines)
        parts.append(part)
    if problems:
        shown = "; ".join(problems[:5])
        extra = f" (+{len(problems) - 5} more)" if len(problems) > 5 else ""
        raise HolterFormatError(f"{name}: {shown}{extra}")
    series = RRSeries._from_columns(
        *(np.concatenate([getattr(p, c) for p in parts]) for c in _COLUMNS),
        header=header)
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

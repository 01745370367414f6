"""Annotated Holter RR-interval files: parsing, serialization, pre-processing.

File layout: one header line, then whitespace-separated rows of
(index, time of day, RR interval in seconds, annotation).  Person metadata
(sex, age, measurement start) is carried by the file name.
"""

from __future__ import annotations

import re
import statistics
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

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
_DEFAULT_HEADER = "index\ttime\tinterval\tannotation"


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
        if self.interval <= 0:
            raise ValueError(f"RR interval must be positive, got {self.interval}")
        if not self.annotation:
            raise ValueError("annotation must be non-empty")


@dataclass(frozen=True)
class RRSeries:
    """Ordered RR records plus the verbatim header of the file they came from."""

    records: tuple[RRRecord, ...]
    header: str = _DEFAULT_HEADER

    def __len__(self) -> int:
        return len(self.records)

    def intervals(self) -> np.ndarray:
        return np.array([r.interval for r in self.records], dtype=float)

    def elapsed(self) -> np.ndarray:
        """Seconds since the first record; clock wraps at midnight are unfolded."""
        t = np.array([r.time for r in self.records], dtype=float)
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


def _format_clock(t: float) -> str:
    ms = round(t * 1000) % int(_SECONDS_PER_DAY * 1000)
    h, ms = divmod(ms, 3600_000)
    m, ms = divmod(ms, 60_000)
    s, ms = divmod(ms, 1000)
    return f"{h:02d}:{m:02d}:{s:02d}.{ms:03d}"


def _parse_row(line: str) -> RRRecord:
    fields = line.split()
    if len(fields) != 4:
        raise ValueError(f"expected 4 columns, got {len(fields)}")
    raw_index, raw_time, raw_interval, annotation = fields
    try:
        index = int(raw_index)
    except ValueError:
        raise ValueError(f"column 1 (index): not an integer: {raw_index!r}") from None
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
    and reported together, each with its line number.
    """
    if isinstance(source, (str, Path)):
        name = str(source)
        with open(source, encoding="utf-8") as fh:
            return parse_holter(fh, meta_pattern)
    name = getattr(source, "name", "<stream>")
    lines = source.read().splitlines()
    if not lines:
        raise HolterFormatError(f"{name}: empty file")
    header = lines[0]
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
        raise HolterFormatError(f"{name}: {shown}{extra}")
    if not records:
        raise HolterFormatError(f"{name}: no records")
    return parse_meta(name, meta_pattern), RRSeries(tuple(records), header)


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
    for r in series.records:
        dest.write(f"{r.index}\t{_format_clock(r.time)}\t{r.interval!r}\t"
                   f"{r.annotation}\n")


def filter_normal(series: RRSeries) -> RRSeries:
    """Keep only records annotated as normal, in order."""
    kept = tuple(r for r in series.records if r.annotation == NORMAL_ANNOTATION)
    return RRSeries(kept, series.header)


def extract_nocturnal(series: RRSeries, duration: float = 6 * 3600.0) -> RRSeries:
    """Contiguous sub-series of the given wall-clock duration with maximal mean RR.

    Candidate windows start at each record and contain every record within
    `duration` seconds of the start; ties go to the earliest start.  The
    slowest such window approximates the sleep period.
    """
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    n = len(series)
    if n == 0:
        raise ValueError("empty series")
    t = series.elapsed()
    if t[-1] - t[0] < duration:
        raise ValueError(
            f"series spans {t[-1] - t[0]:.1f} s, shorter than the "
            f"{duration:.1f} s window")
    sums = np.concatenate([[0.0], np.cumsum(series.intervals())])
    best_start, best_end, best_mean = 0, 0, -np.inf
    end = 0
    for start in range(n):
        if t[-1] - t[start] < duration:
            break  # window would run past the recording
        if end < start:
            end = start
        while end + 1 < n and t[end + 1] <= t[start] + duration:
            end += 1
        mean = (sums[end + 1] - sums[start]) / (end - start + 1)
        if mean > best_mean:
            best_start, best_end, best_mean = start, end, mean
    window = series.records[best_start:best_end + 1]
    if len(window) < NOCTURNAL_MIN_RECORDS:
        warnings.warn(f"nocturnal window holds {len(window)} records, fewer than "
                      f"the recommended {NOCTURNAL_MIN_RECORDS}")
    return RRSeries(window, series.header)


def edit_perturbations(series: RRSeries) -> RRSeries:
    """Repair or drop runs of non-normal records, left to right.

    A run of fewer than 5 consecutive non-normal records is replaced
    record-by-record with the median of the (up to) 7 normal intervals
    immediately preceding the run, re-annotated normal and marked edited;
    with no preceding normals the run is dropped.  Runs of 5 or more are
    dropped entirely.  Replacements made earlier in the pass count as normal
    history for later runs.
    """
    out: list[RRRecord] = []
    i = 0
    records = series.records
    while i < len(records):
        if records[i].annotation == NORMAL_ANNOTATION:
            out.append(records[i])
            i += 1
            continue
        j = i
        while j < len(records) and records[j].annotation != NORMAL_ANNOTATION:
            j += 1
        run = records[i:j]
        if len(run) < 5 and out:
            median = statistics.median(r.interval for r in out[-7:])
            out.extend(replace(r, interval=median,
                               annotation=NORMAL_ANNOTATION, edited=True)
                       for r in run)
        i = j
    return RRSeries(tuple(out), series.header)

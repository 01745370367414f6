"""The column-wise ingest paths against record-at-a-time reference loops.

The loops below are the definitions the vectorised code must reproduce
exactly: parsing row by row, writing record by record, the two-pointer
nocturnal window and the left-to-right perturbation edit.
"""

import contextlib
import io
import os
import statistics
import string
import tempfile
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from svrand import ingest
from svrand.ingest import (NORMAL_ANNOTATION, HolterFormatError, RRRecord, RRSeries,
                           edit_perturbations, extract_nocturnal, parse_holter,
                           write_holter)

SETTINGS = settings(max_examples=100, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


# -- reference loops ---------------------------------------------------------

def row_parse(text: str, name: str = "<stream>") -> RRSeries:
    """Every line split out of the whole text and parsed on its own."""
    lines = text.splitlines()
    if not lines:
        raise HolterFormatError(f"{name}: empty file")
    records, problems = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            records.append(ingest._parse_row(line))
        except ValueError as exc:
            problems.append(f"line {lineno}: {exc}")
    if problems:
        shown = "; ".join(problems[:5])
        extra = f" (+{len(problems) - 5} more)" if len(problems) > 5 else ""
        raise HolterFormatError(f"{name}: {shown}{extra}")
    if not records:
        raise HolterFormatError(f"{name}: no records")
    return RRSeries(records, lines[0])


def format_clock(t: float) -> str:
    ms = round(t * 1000) % 86_400_000
    h, ms = divmod(ms, 3600_000)
    m, ms = divmod(ms, 60_000)
    s, ms = divmod(ms, 1000)
    return f"{h:02d}:{m:02d}:{s:02d}.{ms:03d}"


def record_write(series: RRSeries) -> str:
    return series.header + "\n" + "".join(
        f"{r.index}\t{format_clock(r.time)}\t{r.interval!r}\t{r.annotation}\n"
        for r in series.records)


def nocturnal_loop(series: RRSeries, duration: float) -> RRSeries:
    n = len(series)
    t = series.elapsed()
    sums = np.concatenate([[0.0], np.cumsum(series.interval)])
    best_start, best_end, best_mean = 0, 0, -np.inf
    end = 0
    for start in range(n):
        if t[-1] - t[start] < duration:
            break
        if end < start:
            end = start
        while end + 1 < n and t[end + 1] <= t[start] + duration:
            end += 1
        mean = (sums[end + 1] - sums[start]) / (end - start + 1)
        if mean > best_mean:
            best_start, best_end, best_mean = start, end, mean
    return RRSeries(series.records[best_start:best_end + 1], series.header)


def edit_loop(series: RRSeries) -> RRSeries:
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
            out.extend(replace(r, interval=median, annotation=NORMAL_ANNOTATION,
                               edited=True) for r in run)
        i = j
    return RRSeries(out, series.header)


def outcome(fn):
    """The result of fn, or the type and text of what it raised."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return fn()
    except Exception as exc:  # compared, never hidden
        return type(exc).__name__, str(exc)


def holter_parse(text: str):
    return outcome(lambda: parse_holter(io.StringIO(text))[1])


@contextlib.contextmanager
def written(text: str):
    """The path of a temporary file holding the text's UTF-8 bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "F_42_221500.txt")
        with open(path, "wb") as fh:
            fh.write(text.encode("utf-8"))
        yield path


def file_outcomes(text: str):
    """parse_holter's outcome on the text written to a file, given the path,
    and the row parser's on the text open() reads back (universal newlines)."""
    with written(text) as path:
        with open(path, encoding="utf-8") as fh:
            read = fh.read()
        return outcome(lambda: parse_holter(path)[1]), outcome(lambda: row_parse(read, path))


# -- generated files ---------------------------------------------------------

separators = st.sampled_from([" ", "\t", "  ", " \t ", "\t\t"])
blank = st.sampled_from(["", " ", "\t", "  \t"])
# Up to 15 characters: every width the table path takes.
annotations = st.text(alphabet=string.ascii_letters + string.punctuation,
                      min_size=1, max_size=15)
clocks = st.one_of(
    st.builds("{:02d}:{:02d}:{:02d}.{:03d}".format, st.integers(0, 99),
              st.integers(0, 99), st.integers(0, 99), st.integers(0, 999)),
    # Off the HH:MM:SS.mmm layout: raw seconds and short fields, at most 12
    # characters.
    st.from_regex(r"[0-9]{1,7}(\.[0-9]{0,3})?|\.[0-9]{1,3}", fullmatch=True),
    st.builds("{}:{}:{}".format, st.integers(0, 99), st.integers(0, 99),
              st.integers(0, 99)))
intervals = st.one_of(
    st.floats(min_value=0.1, max_value=1e3).map(repr),   # at most 19 characters
    st.from_regex(r"[0-9]{1,6}\.[0-9]{0,12}|\.[0-9]{1,12}|[0-9]{1,19}", fullmatch=True)
    .filter(lambda s: float(s) > 0))
indices = st.one_of(st.integers(0, 10**6).map(str), st.from_regex(r"[0-9]{1,18}",
                                                                  fullmatch=True))
rows = st.lists(st.tuples(indices, clocks, intervals, annotations), min_size=1,
                max_size=40)


@st.composite
def valid_files(draw):
    lines = [draw(st.text(alphabet=string.printable.replace("\n", "")
                          .replace("\r", "").replace("\x0b", "").replace("\x0c", ""),
                          max_size=20))]
    for fields in draw(rows):
        if draw(st.booleans()) and draw(st.booleans()):
            lines.append(draw(blank))
        sep = draw(separators)
        lines.append(draw(st.sampled_from(["", " "])) + sep.join(fields)
                     + draw(st.sampled_from(["", "\t"])))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def corrupt(line: str, how: int, draw) -> str:
    fields = line.split()
    if how == 0:    # a field dropped
        del fields[draw(st.integers(0, 3))]
    elif how == 1:  # a field added
        fields.insert(draw(st.integers(0, 4)), "7")
    elif how == 2:  # a clock off the HH:MM:SS.mmm layout, valid or not
        fields[1] = draw(st.sampled_from(["12:3:04.5", "12:34", "ab:cd:ef.ghi", "3600.25",
                                          "1:2:3:4", "00:00:00,500", "nan", "inf"]))
    elif how == 3:  # a non-positive or malformed interval
        fields[2] = draw(st.sampled_from(["0", "0.0", "-0.5", ".", "1..2", "1e-3",
                                          "nan", "inf", "1_000"]))
    elif how == 4:  # an index the fast path does not take
        fields[0] = draw(st.sampled_from(["-3", "+4", "1e3", "x", "9" * 19, "9" * 30]))
    elif how == 5:  # a line break or space that splitlines or split sees differently,
        # between two fields or at the end of the line
        where = draw(st.integers(1, 4))
        return (" ".join(fields[:where])
                + draw(st.sampled_from(["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                        "\x85", "\u2028", "\x00", " ", "\xa0"]))
                + " ".join(fields[where:]))
    elif how == 6:  # a field outside ASCII
        fields[3] = "Ä"
    else:           # two rows on one line
        fields += fields
    return " ".join(fields)


@st.composite
def corrupted_files(draw):
    text = draw(valid_files())
    lines = text.split("\n")
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(1, len(lines) - 1)) if len(lines) > 1 else 0
        if len(lines[k].split()) == 4:
            lines[k] = corrupt(lines[k], draw(st.integers(0, 7)), draw)
    return "\n".join(lines)


# -- parsing -----------------------------------------------------------------

class TestBulkParse:
    @SETTINGS
    @given(text=valid_files())
    def test_equals_row_parser_on_valid_files(self, text):
        header, body = text.split("\n", 1)
        # the table path decides
        assert ingest._parse_table(io.StringIO(body), header) is not None
        series = holter_parse(text)
        expected = row_parse(text)
        assert series.header == expected.header
        for column in ("index", "time", "interval", "annotation", "edited"):
            assert np.array_equal(getattr(series, column), getattr(expected, column))
        assert series.records == expected.records
        # The same text read from a path, where loadtxt opens the file itself.
        with written(text) as path:
            with open(path, encoding="utf-8") as fh:
                fh.readline()
                assert ingest._parse_table(fh, header, path) is not None
            from_path = parse_holter(path)[1]
        assert from_path == expected
        assert from_path.annotation.dtype == expected.annotation.dtype

    @SETTINGS
    @given(text=corrupted_files())
    def test_same_outcome_on_corrupted_files(self, text):
        assert holter_parse(text) == outcome(lambda: row_parse(text))
        got, expected = file_outcomes(text)
        assert got == expected

    @SETTINGS
    @given(text=st.text(max_size=120))
    def test_same_outcome_on_any_text(self, text):
        assert holter_parse(text) == outcome(lambda: row_parse(text))
        got, expected = file_outcomes(text)
        assert got == expected

    def test_raw_seconds_clock_stays_on_table_path(self):
        body = "".join(f"{k} 00:00:0{k}.000 0.8 N\n" for k in range(1, 5))
        body += "5 3600.5 0.8 N\n"
        table = ingest._parse_table(io.StringIO(body), "hdr")
        assert table is not None
        assert table == row_parse("hdr\n" + body)
        assert table.time[-1] == 3600.5

    @pytest.mark.parametrize("annotation,table_path", [("ABCDEFGHIJKLMNO", True),
                                                       ("ABCDEFGHIJKLMNOP", False)])
    def test_annotation_width_boundary(self, annotation, table_path):
        # An annotation of 16 or more characters would fill its table field.
        body = f"1 00:00:01.000 0.8 N\n2 00:00:02.000 0.8 {annotation}\n"
        table = ingest._parse_table(io.StringIO(body), "hdr")
        assert (table is not None) == table_path
        series = row_parse("hdr\n" + body)
        assert series.annotation[-1] == annotation
        assert holter_parse("hdr\n" + body) == series

    def test_many_errors_listed_as_by_rows(self):
        text = "hdr\n" + "".join(f"{k} 00:00:0{k}.000 -1 N\n" for k in range(9))
        assert holter_parse(text) == outcome(lambda: row_parse(text))
        assert "(+4 more)" in holter_parse(text)[1]

    @pytest.mark.parametrize("row", [
        "9" * 18 + " 00:00:00.001 1 N",
        "9223372036854775807 00:00:00.001 1 N",       # 19 digits: the row parser
        "9223372036854775808 00:00:00.001 1 N",       # beyond int64
        "1 99:99:99.999 1 N",
        "1 00:00:00.000 9007199254740993 N",          # 2**53 + 1
        "1 00:00:00.000 0.9007199254740993 N",
        "1 00:00:00.000 9999999999999999999 N",
        "1 00:00:00.000 0.10000000000000000555 N",    # 22 characters
        "1 00:00:00.000 000000000000000000.5 N",
        "1 00:00:00.000 0.000 N",
        "1 inf 0.8 N",                                # raw seconds, not finite
        "1 00:00:1e400 0.8 N",
        "1 00:00:00.0009 1 N",                        # 13 characters
        "1 00:00:00.000 1 ABCDEFGHIJKLMNOP",          # 16 characters fill the field
        "1 00:00:00.000 1 ABCDEFGHIJKLMNOPQ",         # 17 characters
        "1 00:00:00.000 1 N\x00X",
        "1 00:00:00.000\x0b0.8 N",                     # a line break between fields
    ])
    def test_field_limits(self, row):
        text = f"hdr\n{row}\n"
        assert holter_parse(text) == outcome(lambda: row_parse(text))

    def test_clock_seconds_are_exact_milliseconds(self):
        # The digit arithmetic for SS.mmm equals _parse_clock's rounding of
        # float(SS.mmm) * 1000 for every two-digit second.
        assert all(round(float(f"{s:02d}.{ms:03d}") * 1000) == s * 1000 + ms
                   for s in range(100) for ms in range(1000))


# -- writing -----------------------------------------------------------------

records = st.builds(
    RRRecord,
    index=st.integers(-2**63, 2**63 - 1),
    time=st.one_of(st.integers(0, 86_399_999).map(lambda ms: ms / 1000.0),
                   st.floats(-1e12, 1e12),
                   st.integers(-10**9, 10**9).map(lambda k: (k + 0.5) / 1000)),
    interval=st.floats(min_value=5e-324, max_value=1e300),
    annotation=st.text(alphabet=string.ascii_letters + "?!", min_size=1, max_size=4),
    edited=st.booleans())


class TestWrite:
    @SETTINGS
    @given(rs=st.lists(records, max_size=40), chunk_rows=st.sampled_from([1, 7, 1 << 14]))
    def test_equals_record_writer_and_round_trips(self, rs, chunk_rows):
        series = RRSeries(rs, header="index time interval annotation")
        with mock.patch.object(ingest, "_CHUNK_ROWS", chunk_rows):
            buf = io.StringIO()
            write_holter(series, buf)
        text = buf.getvalue()
        assert text == record_write(series)
        if rs:
            again = io.StringIO()
            write_holter(holter_parse(text), again)
            assert again.getvalue() == text


# -- pre-processing ----------------------------------------------------------

@st.composite
def recordings(draw):
    n = draw(st.integers(2, 150))
    quantised = draw(st.booleans())
    values = draw(st.lists(st.integers(300, 1900) if quantised
                           else st.floats(0.3, 1.9), min_size=n, max_size=n))
    intervals = [v / 1000 if quantised else v for v in values]
    annotations = draw(st.lists(st.sampled_from("NNNNNVSX"), min_size=n, max_size=n))
    t = draw(st.floats(0, 86399))
    out = []
    for k, (iv, ann) in enumerate(zip(intervals, annotations), start=1):
        t += iv
        out.append(RRRecord(k, round(t, 3) % 86400.0, iv, ann))
    return RRSeries(out, header="h")


class TestAgainstLoops:
    @SETTINGS
    @given(series=recordings(), fraction=st.floats(0.01, 1.0))
    def test_nocturnal_window(self, series, fraction):
        t = series.elapsed()
        duration = max(fraction * (t[-1] - t[0]), 1e-3)
        got = outcome(lambda: extract_nocturnal(series, duration))
        if isinstance(got, tuple):
            assert t[-1] - t[0] < duration
            return
        assert got == nocturnal_loop(series, duration)

    @SETTINGS
    @given(series=recordings())
    def test_edit(self, series):
        edited, expected = edit_perturbations(series), edit_loop(series)
        assert edited == expected
        assert edited.records == expected.records

    @SETTINGS
    @given(series=recordings())
    def test_edit_is_idempotent(self, series):
        once = edit_perturbations(series)
        assert edit_perturbations(once) == once

    @pytest.mark.filterwarnings("ignore:nocturnal window holds")
    def test_backward_clock_is_rejected(self):
        series = RRSeries([RRRecord(1, 90000.0, 1.0, "N"), RRRecord(2, 0.5, 1.0, "N"),
                           RRRecord(3, 200000.0, 1.0, "N")])
        with pytest.raises(ValueError, match="step back"):
            extract_nocturnal(series, duration=10.0)

"""The column-wise ingest paths against record-at-a-time reference loops.

The loops below are the definitions the vectorised code must reproduce
exactly: parsing row by row, writing record by record, the two-pointer
nocturnal window and the left-to-right perturbation edit.
"""

import contextlib
import os
import statistics
import string
import tempfile
import threading
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from svrand import ingest
from svrand.ingest import (NORMAL_ANNOTATION, HolterFormatError, RRRecord, RRSeries,
                           edit_perturbations, extract_nocturnal, parse_holter,
                           write_holter)
from svrand.rowtext import shortest_repr
from svrand.synth import SourceSpec, synthetic_rr

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


def elapsed_loop(series: RRSeries) -> list[float]:
    """Each clock step, unfolded at midnight, added on to the last; the first as it is."""
    times = series.time.tolist()
    out = [0.0] * len(times)
    for k in range(1, len(times)):
        step = times[k] - times[k - 1]
        if step < 0:
            step += 86400.0
        out[k] = step if k == 1 else out[k - 1] + step
    return out


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


@contextlib.contextmanager
def written(text: str):
    """The path of a temporary file holding the text's UTF-8 bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "F_42_221500.txt")
        with open(path, "wb") as fh:
            fh.write(text.encode("utf-8"))
        yield path


def holter_parse(text: str):
    """parse_holter's outcome on a file holding the text."""
    with written(text) as path:
        return outcome(lambda: parse_holter(path)[1])


def serialized(series: RRSeries) -> str:
    """The text write_holter writes for the series, read back unchanged."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rr.txt")
        write_holter(series, path)
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()


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
on_layout_clocks = st.builds("{:02d}:{:02d}:{:02d}.{:03d}".format, st.integers(0, 99),
                             st.integers(0, 99), st.integers(0, 99), st.integers(0, 999))
# Off the HH:MM:SS.mmm layout: raw seconds and short fields, at most 12
# characters.  Only the row parser reads them.
off_layout_clocks = st.one_of(
    st.from_regex(r"[0-9]{1,7}(\.[0-9]{0,3})?|\.[0-9]{1,3}", fullmatch=True),
    st.builds("{}:{}:{}".format, st.integers(0, 99), st.integers(0, 99),
              st.integers(0, 99)))
clocks = st.one_of(on_layout_clocks, off_layout_clocks)
intervals = st.one_of(
    st.floats(min_value=0.1, max_value=1e3).map(repr),   # at most 19 characters
    st.from_regex(r"[0-9]{1,6}\.[0-9]{0,12}|\.[0-9]{1,12}|[0-9]{1,19}", fullmatch=True)
    .filter(lambda s: float(s) > 0))
indices = st.one_of(st.integers(0, 10**6).map(str), st.from_regex(r"[0-9]{1,18}",
                                                                  fullmatch=True))


@st.composite
def valid_files(draw, clock=clocks, off_layout=False):
    """Valid files whose clocks are drawn from clock; with off_layout, one row
    at least has a clock off the HH:MM:SS.mmm layout."""
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [draw(st.text(alphabet=string.printable.replace("\n", "")
                          .replace("\r", "").replace("\x0b", "").replace("\x0c", ""),
                          max_size=20))]
    rows = draw(st.lists(st.tuples(indices, clock, intervals, annotations), min_size=1,
                         max_size=40))
    if off_layout:
        k = draw(st.integers(0, len(rows) - 1))
        rows[k] = (rows[k][0], draw(off_layout_clocks), *rows[k][2:])
    for fields in rows:
        if draw(st.booleans()) and draw(st.booleans()):
            lines.append(draw(blank))
        sep = draw(separators)
        lines.append(draw(st.sampled_from(["", " "])) + sep.join(fields)
                     + draw(st.sampled_from(["", "\t"])))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


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
    @given(text=valid_files(on_layout_clocks))
    def test_equals_row_parser_on_valid_files(self, text):
        # CRLF line ends included: the table path decides.
        with written(text) as path, tiers() as calls:
            series = parse_holter(path)[1]
        expected = row_parse(text)
        assert taken(calls) == [series]
        assert series == expected
        assert series.annotation.dtype == expected.annotation.dtype
        assert series.records == expected.records

    @SETTINGS
    @given(text=valid_files(off_layout=True))
    def test_off_layout_clock_sends_the_file_to_the_row_parser(self, text):
        # The table tiers take a whole file or refuse it: one clock off the
        # HH:MM:SS.mmm layout, such as raw seconds, and no rows come from them.
        with written(text) as path, tiers() as calls:
            series = parse_holter(path)[1]
        expected = row_parse(text)
        assert taken(calls) == []
        assert series == expected
        assert series.annotation.dtype == expected.annotation.dtype

    @SETTINGS
    @given(text=corrupted_files())
    def test_same_outcome_on_corrupted_files(self, text):
        got, expected = file_outcomes(text)
        assert got == expected

    @SETTINGS
    @given(text=st.text(max_size=120))
    def test_same_outcome_on_any_text(self, text):
        got, expected = file_outcomes(text)
        assert got == expected

    def test_raw_seconds_clock_goes_to_the_row_parser(self):
        # np.loadtxt reads the file and refuses it whole for its last clock.
        text = "hdr\n" + "".join(f"{k} 00:00:0{k}.000 0.8 N\n" for k in range(1, 5))
        text += "5 3600.5 0.8 N\n"
        with tiers() as calls:
            series = holter_parse(text)
        assert calls["fixed"] == [None] and calls["table"] == [None]
        assert series == row_parse(text)
        assert series.time[-1] == 3600.5

    @pytest.mark.parametrize("annotation,table_path", [("ABCDEFGHIJKLMNO", True),
                                                       ("ABCDEFGHIJKLMNOP", False)])
    def test_annotation_width_boundary(self, annotation, table_path):
        # An annotation of 16 or more characters would fill its table field.
        text = f"hdr\n1 00:00:01.000 0.8 N\n2 00:00:02.000 0.8 {annotation}\n"
        with tiers() as calls:
            got = holter_parse(text)
        assert bool(taken(calls)) == table_path
        series = row_parse(text)
        assert series.annotation[-1] == annotation
        assert got == series

    def test_many_errors_listed_as_by_rows(self):
        text = "hdr\n" + "".join(f"{k} 00:00:0{k}.000 -1 N\n" for k in range(9))
        got, expected = file_outcomes(text)
        assert got == expected
        assert "(+4 more)" in got[1]

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
        got, expected = file_outcomes(f"hdr\n{row}\n")
        assert got == expected

    def test_clock_seconds_are_exact_milliseconds(self):
        # The digit arithmetic for SS.mmm equals _parse_clock's rounding of
        # float(SS.mmm) * 1000 for every two-digit second.
        assert all(round(float(f"{s:02d}.{ms:03d}") * 1000) == s * 1000 + ms
                   for s in range(100) for ms in range(1000))


# -- fixed-width files -------------------------------------------------------

def digits(width: int):
    """Strings of exactly `width` ASCII digits, leading zeros included."""
    return st.integers(0, 10**width - 1).map(f"{{:0{width}d}}".format)


@st.composite
def fixed_width_files(draw):
    """Tab-separated rows whose fields keep one width, as Holter exports write
    them: one run of rows for each index width, every interval with the same
    digits before and after its dot, and annotations of one width."""
    widths = draw(st.lists(st.integers(1, 18), min_size=1, max_size=4, unique=True))
    whole = draw(st.integers(0, 6))
    decimals = draw(st.integers(0 if whole else 1, 15 - whole))
    label = draw(st.integers(1, 15))
    lines = [draw(st.text(alphabet=string.ascii_letters + " \t", max_size=20))]
    for width in widths:
        for _ in range(draw(st.integers(1, 8))):
            clock = draw(digits(9))
            interval = draw(digits(whole + decimals).filter(lambda v: int(v) > 0))
            lines.append("\t".join((
                draw(digits(width)),
                f"{clock[:2]}:{clock[2:4]}:{clock[4:6]}.{clock[6:]}",
                f"{interval[:whole]}.{interval[whole:]}",
                draw(st.text(alphabet=string.ascii_letters + string.digits
                             + string.punctuation, min_size=label, max_size=label)))))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@contextlib.contextmanager
def tiers():
    """What _parse_fixed returned and whether _load_table ran, call by call."""
    calls = {"fixed": [], "table": []}
    fixed, table = ingest._parse_fixed, ingest._load_table

    def spy_fixed(*args):
        calls["fixed"].append(fixed(*args))
        return calls["fixed"][-1]

    def spy_table(*args):
        calls["table"].append(table(*args))
        return calls["table"][-1]

    with mock.patch.object(ingest, "_parse_fixed", spy_fixed), \
            mock.patch.object(ingest, "_load_table", spy_table):
        yield calls


def taken(calls):
    """The series the byte tiers returned: none when both refused the file."""
    return [series for series in calls["fixed"] + calls["table"] if series is not None]


def near_miss(line: str, kind: str) -> str:
    """One row of a fixed-width file changed so that the reader must not take it."""
    index, clock, interval, annotation = line.split("\t")
    return {
        "wider interval": f"{index}\t{clock}\t{interval}0\t{annotation}",
        "minus sign": f"{index}\t{clock}\t-{interval}\t{annotation}",
        "plus sign": f"{index}\t{clock}\t+{interval}\t{annotation}",
        "exponent": f"{index}\t{clock}\t{interval}e0\t{annotation}",
        ".5": f"{index}\t{clock}\t.5\t{annotation}",
        "5.": f"{index}\t{clock}\t5.\t{annotation}",
        # A mantissa past 2**53: dividing its rounded double misses float().
        "16 digits": f"{index}\t{clock}\t{'9' * 8}.{'9' * 8}\t{annotation}",
        "blank line": f"\n{line}",
        "space separator": f"{index} {clock}\t{interval}\t{annotation}",
        "NUL": f"{index}\t{clock}\t{interval}\t{annotation}\x00",
        "CR ending": f"{line}\r",
        "bare CR": f"{index}\t{clock}\r{interval}\t{annotation}",
    }[kind]


NEAR_MISSES = ["wider interval", "minus sign", "plus sign", "exponent", ".5", "5.",
               "16 digits", "blank line", "space separator", "NUL", "CR ending", "bare CR"]


class TestFixedWidth:
    @SETTINGS
    @given(text=fixed_width_files(), first_rows=st.sampled_from([1, 2, ingest._FIRST_ROWS]),
           piece_rows=st.sampled_from([1, 3, ingest._PIECE_ROWS]))
    def test_equals_row_parser_bit_for_bit(self, text, first_rows, piece_rows):
        # Small run pieces and check pieces put their edges inside the runs.
        with tiers() as calls, mock.patch.object(ingest, "_FIRST_ROWS", first_rows), \
                mock.patch.object(ingest, "_PIECE_ROWS", piece_rows):
            series = holter_parse(text)
        expected = row_parse(text)
        assert calls["fixed"] == [series] and not calls["table"]
        assert series == expected
        assert series.annotation.dtype == expected.annotation.dtype
        for column in ("index", "time", "interval"):
            assert getattr(series, column).tobytes() == getattr(expected, column).tobytes()

    @SETTINGS
    @given(text=fixed_width_files(), data=st.data(),
           kind=st.sampled_from(NEAR_MISSES))
    def test_near_miss_gives_the_row_parsers_outcome(self, text, data, kind):
        lines = text.split("\n")
        k = data.draw(st.integers(1, len(lines) - 1 - (lines[-1] == "")))
        lines[k] = near_miss(lines[k], kind)
        got, expected = file_outcomes("\n".join(lines))
        assert got == expected

    @pytest.mark.parametrize("kind", NEAR_MISSES)
    def test_near_miss_in_a_one_row_file(self, kind):
        # Alone, the row is a run of its own: the reader takes exactly the
        # forms it converts as float() does, and universal newlines.
        text = "hdr\n" + near_miss("7\t01:02:03.004\t0.800\tN", kind) + "\n"
        with tiers() as calls:
            got, expected = file_outcomes(text)
        assert got == expected
        taken = kind in ("wider interval", ".5", "5.", "CR ending")
        assert (calls["fixed"][0] is not None) == taken

    def test_index_widths_beyond_the_reader(self):
        # 19 digits may exceed int64; the row parser decides.
        text = "hdr\n" + "9" * 19 + "\t00:00:00.001\t0.8\tN\n"
        with tiers() as calls:
            got, expected = file_outcomes(text)
        assert got == expected
        assert calls["fixed"] == [None]

    def test_variable_width_file_is_refused_at_its_first_rows(self):
        # write_holter's shortest repr intervals run to 16 or more digits and
        # vary in width; the reader gives up at the first row and decodes nothing.
        series = synthetic_rr(SourceSpec(n=3000, seed=5))
        text = serialized(series)
        with tiers() as calls, \
                mock.patch.object(ingest, "_horner", wraps=ingest._horner) as horner:
            assert holter_parse(text) == series
        assert calls["fixed"] == [None] and calls["table"] == [series]
        assert horner.call_count == 1  # the table's clocks


# -- pipes and FIFOs --------------------------------------------------------

# Seconds a read of a pipe may take before it counts as hung.
PIPE_TIMEOUT = 30.0


def parse_in_thread(path, release):
    """parse_holter's outcome on path, read in another thread.  A read still
    waiting after PIPE_TIMEOUT seconds is let go by release() and fails the
    test, so that a regression cannot hang the suite."""
    result = []
    reader = threading.Thread(target=lambda: result.append(outcome(
        lambda: parse_holter(path)[1])), daemon=True)
    reader.start()
    reader.join(PIPE_TIMEOUT)
    waited = reader.is_alive()
    if waited:
        release()
        reader.join(PIPE_TIMEOUT)
    assert not waited, f"reading {path} still waited after {PIPE_TIMEOUT} s"
    return result[0]


def fifo_outcome(path, text: str):
    """parse_holter's outcome on a FIFO made at path, which another thread
    fills with the text's UTF-8 bytes."""
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_bytes, args=(text.encode("utf-8"),),
                              daemon=True)
    writer.start()

    def release():
        # A writer that opens and closes at once gives a reader waiting in
        # open() an empty file.
        with contextlib.suppress(OSError):
            os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))

    try:
        got = parse_in_thread(path, release)
    finally:
        writer.join(PIPE_TIMEOUT)
    assert not writer.is_alive()
    return got


def piped_texts():
    """A variable-width file, which a regular file gives np.loadtxt, a
    fixed-width one and the variable-width one with a malformed row."""
    variable = serialized(synthetic_rr(SourceSpec(n=3000, seed=5)))
    lines = variable.split("\n")
    index, clock, _, label = lines[1500].split("\t")
    lines[1500] = "\t".join((index, clock, "-0.5", label))
    fixed = "hdr\n" + "".join(f"{k}\t00:{k // 60 % 60:02d}:{k % 60:02d}.250\t0.{k:04d}\tN\n"
                              for k in range(1000, 4000))
    return {"variable width": variable, "fixed width": fixed, "malformed": "\n".join(lines)}


class TestPipes:
    @pytest.mark.parametrize("content", ["variable width", "fixed width", "malformed"])
    def test_fifo_equals_its_regular_file(self, tmp_path, content):
        # The bytes of a FIFO can be read once: numpy must not open it again.
        text = piped_texts()[content]
        path = tmp_path / "F_42_221500.txt"
        path.write_bytes(text.encode("utf-8"))
        expected = outcome(lambda: parse_holter(path)[1])
        path.unlink()
        with tiers() as calls:
            got = fifo_outcome(path, text)
        assert got == expected
        if content == "malformed":
            assert expected == ("HolterFormatError", f"{path}: line 1501: column 3 "
                                "(interval): RR interval must be positive, got -0.5")
        else:
            assert expected == row_parse(text)
        # The FIFO's bytes take the reader a regular file's would.
        assert calls["table"] == {"variable width": [got], "fixed width": [],
                                  "malformed": [None]}[content]

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    def test_anonymous_pipe_gives_the_series(self):
        # As `svrand analyze <(cat FILE)` names it: a path to an open pipe.
        text = piped_texts()["variable width"]
        read_end, write_end = os.pipe()

        def write():
            with open(write_end, "wb") as fh:
                fh.write(text.encode("utf-8"))

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        try:
            with tiers() as calls:
                got = parse_in_thread(f"/dev/fd/{read_end}", lambda: None)
        finally:
            writer.join(PIPE_TIMEOUT)
            os.close(read_end)
        assert not writer.is_alive()
        assert got == row_parse(text)
        assert calls["table"] == [got]

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    def test_day_long_recording_through_a_pipe(self, tmp_path):
        # A 100 000-beat `svrand synth` file through a pipe: numpy reads it
        # once, from the parser's own stream and never by path, and the
        # series equals the regular file's.
        path = tmp_path / "F_42_221500.txt"
        write_holter(synthetic_rr(SourceSpec(n=10**5, seed=3)), path)
        read_end, write_end = os.pipe()

        def write():
            with open(write_end, "wb") as fh:
                fh.write(path.read_bytes())

        given, loadtxt = [], np.loadtxt

        def spy(source, *args, **kwargs):
            given.append(source)
            return loadtxt(source, *args, **kwargs)

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        try:
            with mock.patch.object(np, "loadtxt", spy):
                got = parse_in_thread(f"/dev/fd/{read_end}", lambda: None)
        finally:
            writer.join(PIPE_TIMEOUT)
            os.close(read_end)
        assert not writer.is_alive()
        assert len(given) == 1 and not isinstance(given[0], (str, os.PathLike))
        assert len(got) == 10**5 and got == parse_holter(path)[1]

    def test_regular_file_bytes_are_freed_before_numpy_reads_it(self, tmp_path):
        path = tmp_path / "F_42_221500.txt"
        write_holter(synthetic_rr(SourceSpec(n=20_000, seed=3)), path)
        held, loadtxt = [], np.loadtxt

        def spy(*args, **kwargs):
            held.append(tracemalloc.get_traced_memory()[0])
            return loadtxt(*args, **kwargs)

        tracemalloc.start()
        try:
            with mock.patch.object(np, "loadtxt", spy):
                series = parse_holter(path)[1]
        finally:
            tracemalloc.stop()
        assert len(series) == 20_000
        assert len(held) == 1 and held[0] < path.stat().st_size / 8


class TestOneOpen:
    """A recording is opened once: numpy reads that handle, never the path."""

    def test_loadtxt_is_never_given_a_path(self, tmp_path):
        path = tmp_path / "F_42_221500.txt"
        series = synthetic_rr(SourceSpec(n=3000, seed=5))
        write_holter(series, path)
        given, loadtxt = [], np.loadtxt

        def spy(source, *args, **kwargs):
            given.append(source)
            return loadtxt(source, *args, **kwargs)

        with mock.patch.object(np, "loadtxt", spy):
            assert parse_holter(path)[1] == series
        assert len(given) == 1 and not isinstance(given[0], (str, os.PathLike))

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_carriage_returns_take_the_table(self, newline):
        # numpy applies no universal newlines to a binary stream: from one
        # with bare CRs it would read an empty table, and no records.
        text = serialized(synthetic_rr(SourceSpec(n=3000, seed=5)))
        with tiers() as calls:
            series = holter_parse(text.replace("\n", newline))
        assert calls["table"] == [series]
        assert series == row_parse(text)

    def test_file_replaced_between_the_reads_gives_the_first(self, tmp_path):
        path, other = tmp_path / "F_42_221500.txt", tmp_path / "F_43_221500.txt"
        first = synthetic_rr(SourceSpec(n=3000, seed=5))
        write_holter(first, path)
        write_holter(synthetic_rr(SourceSpec(n=2000, seed=6)), other)

        def replace_then_refuse(*args):
            os.replace(other, path)
            return None

        with mock.patch.object(ingest, "_parse_fixed", replace_then_refuse):
            assert parse_holter(path)[1] == first

    def test_file_the_table_refuses_is_opened_once(self, tmp_path):
        # One clock in raw seconds sends the whole file to the row parser,
        # which reads the handle numpy read.
        lines = (Path(__file__).parent / "data" / "F_42_221500.txt").read_text().split("\n")
        index, clock, interval, label = lines[5].split("\t")
        hours, minutes, seconds = clock.split(":")
        raw = round((int(hours) * 60 + int(minutes)) * 60 + float(seconds), 3)
        lines[5] = "\t".join((index, repr(raw), interval, label))
        text = "\n".join(lines)
        path = tmp_path / "F_42_221500.txt"
        path.write_text(text)
        with mock.patch("builtins.open", wraps=open) as opened, tiers() as calls:
            series = parse_holter(path)[1]
        assert opened.call_count == 1
        assert calls["fixed"] == [None] and calls["table"] == [None]
        assert series == row_parse(text)


# -- shortest repr digits ----------------------------------------------------

def spelled(values):
    """repr of each value that `shortest_repr` certifies, spelled from its
    digits and scale by slicing strings, and the mask of the certified values."""
    digits, scale, certified = shortest_repr(np.asarray(values, dtype=np.float64))
    texts = []
    for d, s in zip(digits[certified].tolist(), scale[certified].tolist()):
        text = str(d).rjust(s + 1, "0")
        texts.append(f"{text[:-s]}.{text[-s:].rstrip('0') or '0'}")
    return texts, certified


def assert_repr(values):
    """Every certified value spells as repr; returns the certified mask."""
    values = np.asarray(values, dtype=np.float64)
    texts, certified = spelled(values)
    assert texts == list(map(repr, values[certified].tolist()))
    return certified


def power_of_two(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64) << 12 == 0


def neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([np.nextafter(values, 0), values, np.nextafter(values, np.inf)])


class TestShortest:
    def test_random_bit_patterns(self):
        # 2**16 patterns of any positive finite double, and 10**6 whose
        # exponent puts them in or near [1e-4, 2**53), the certified range.
        rng = np.random.default_rng(2024)
        anywhere = rng.integers(1, 0x7FF0_0000_0000_0000, 1 << 16, dtype=np.int64)
        mantissa = rng.integers(0, 1 << 52, 10**6, dtype=np.int64)
        exponent = rng.integers(1023 - 15, 1023 + 54, 10**6, dtype=np.int64)
        near = mantissa | exponent << 52
        certified = assert_repr(np.concatenate([anywhere, near]).view(np.float64))
        assert certified[anywhere.size:].mean() > 0.9

    def test_boundaries(self):
        subnormal = np.ldexp(np.arange(1.0, 1000.0), -1074)
        integers = np.concatenate([np.arange(1.0, 10**5), 2.0**52 + np.arange(-1000, 1000),
                                   2.0**53 - np.arange(1, 1000)])
        values = np.concatenate([
            neighbours(np.ldexp(1.0, np.arange(-1074, 1024))),
            neighbours([float(f"1e{k}") for k in range(-323, 309)]),
            neighbours([1e-4, 2.0**53, 1e300, 2.2250738585072014e-308]),
            neighbours(10.0 ** np.arange(16)[:, None] + np.arange(-50, 50)).ravel(),
            subnormal, integers,
            # Ties between two nearest integers: quarters in [2**50, 2**51).
            2.0**50 + np.arange(4000) / 4])
        certified = assert_repr(values)
        assert not certified[power_of_two(values)].any()

    @SETTINGS
    @given(st.lists(st.one_of(st.floats(), st.floats(1e-4, 2.0**53)), min_size=1))
    def test_any_floats(self, values):
        assert_repr(values)

    def test_recordings_take_the_certified_path(self):
        # Every synthetic interval, and every millisecond and microsecond
        # interval from 1e-4 s up, is certified but for the powers of two,
        # which the interval rule leaves to repr: the fast path carries them.
        for seed in (1, 2, 3):
            assert assert_repr(synthetic_rr(SourceSpec(n=10**5, seed=seed)).interval).all()
        for grid in (np.arange(1, 10**6) / 1000, np.arange(100, 10**6) / 10**6):
            certified = assert_repr(grid)
            assert np.array_equal(certified, ~power_of_two(grid))
            assert (~certified).sum() < 20


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
    @given(rs=st.lists(records, max_size=40),
           chunk_rows=st.sampled_from([1, 7, ingest._CHUNK_ROWS]))
    def test_equals_record_writer_and_round_trips(self, rs, chunk_rows):
        series = RRSeries(rs, header="index time interval annotation")
        with mock.patch.object(ingest, "_CHUNK_ROWS", chunk_rows):
            text = serialized(series)
        assert text == record_write(series)
        if rs:
            assert serialized(holter_parse(text)) == text

    def test_pieces_do_not_change_the_text(self):
        # Three whole pieces and a short fourth, against one piece.
        series = synthetic_rr(SourceSpec(n=3 * ingest._CHUNK_ROWS + 5, seed=11))
        with mock.patch.object(ingest, "_CHUNK_ROWS", 1 << 20):
            whole = serialized(series)
        assert serialized(series) == whole

    @pytest.mark.parametrize("n", [1 << 15, 1 << 17])
    def test_peak_memory_is_one_piece(self, tmp_path, n):
        # Above the series, the write holds one piece's byte matrix, mask
        # and interval arithmetic, about 0.4 MiB at 2048 rows whatever n is.
        series = synthetic_rr(SourceSpec(n=n, seed=1))
        tracemalloc.start()
        try:
            write_holter(series, tmp_path / "rr.txt")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_synthetic_recording_equals_record_writer(self, seed):
        series = synthetic_rr(SourceSpec(n=10**5, seed=seed))
        assert serialized(series) == record_write(series)

    def test_extreme_fields_equal_record_writer(self):
        # Indices to both ends of int64, annotations of 1-15 characters with
        # one non-ASCII, and intervals that repr writes itself: subnormal,
        # huge, powers of two, below 1e-4 and from 2**53 up.
        rng = np.random.default_rng(9)
        n = 3 * ingest._CHUNK_ROWS + 100
        index = rng.integers(-2**63, 2**63 - 1, n, endpoint=True)
        index[:6] = [-2**63, 2**63 - 1, 0, -1, -10, 10**18]
        interval = rng.uniform(0.3, 1.9, n)
        odd = rng.random(n) < 0.3
        interval[odd] = rng.choice(
            np.concatenate([np.ldexp(1.0, np.arange(-1074, -1064)), [2.2250738585072014e-308,
                            1e300, 0.5, 1.0, 2.0**53, 2.0**60 + 2**8, 9.99e-5, 1e-4,
                            1234.5, 0.001]]), odd.sum())
        lengths = rng.integers(1, 16, n)
        annotation = ["".join(rng.choice(list(string.ascii_letters), k)) for k in lengths]
        annotation[n // 2] = "\u00c4" * 15
        time = rng.integers(0, 86_400_000, n) / 1000
        series = RRSeries(map(RRRecord, index.tolist(), time.tolist(), interval.tolist(),
                              annotation), header="index time interval annotation")
        assert serialized(series) == record_write(series)

    @pytest.mark.parametrize("time", [1e306, -1e306, 1.7976931348623157e308])
    def test_time_without_a_clock_writes_nothing(self, tmp_path, time):
        # time * 1000 overflows: the record writer's round() raises
        # OverflowError, and write_holter raises it, naming the row, before
        # the file exists, even where the rows before it fill whole pieces.
        rs = [RRRecord(k, 60.0 * k, 0.8, "N") for k in range(5)] + [RRRecord(5, time, 0.8, "N")]
        series = RRSeries(rs, header="index time interval annotation")
        with pytest.raises(OverflowError):
            record_write(series)
        with mock.patch.object(ingest, "_CHUNK_ROWS", 2), \
                pytest.raises(OverflowError, match="row 5: time"):
            write_holter(series, tmp_path / "rr.txt")
        assert not (tmp_path / "rr.txt").exists()


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


def check_nocturnal(series: RRSeries, fraction: float) -> None:
    t = series.elapsed()
    duration = max(fraction * (t[-1] - t[0]), 1e-3)
    got = outcome(lambda: extract_nocturnal(series, duration))
    if isinstance(got, tuple):
        assert t[-1] - t[0] < duration
        return
    assert got == nocturnal_loop(series, duration)


class TestAgainstLoops:
    @SETTINGS
    @given(series=recordings(), fraction=st.floats(0.01, 1.0))
    def test_nocturnal_window(self, series, fraction):
        check_nocturnal(series, fraction)

    def test_nocturnal_window_of_a_day_long_recording(self):
        # 100 000 beats, as in a bench recording: the candidate starts span
        # several pieces, and the elapsed-time sums run at full size.
        series = synthetic_rr(SourceSpec(n=10**5, seed=3))
        assert extract_nocturnal(series) == nocturnal_loop(series, 6 * 3600.0)

    @pytest.mark.parametrize("starts", [1, 3, 7])
    @SETTINGS
    @given(series=recordings(), fraction=st.floats(0.01, 1.0))
    def test_nocturnal_window_in_pieces(self, starts, series, fraction):
        # Piece edges fall among the candidate starts, and the quantised
        # draws tie means across them: the earliest start must still win.
        with mock.patch.object(ingest, "_WINDOW_STARTS", starts):
            check_nocturnal(series, fraction)

    def test_nocturnal_window_of_nan_means_in_any_pieces(self):
        # Prefix sums of intervals near the float maximum overflow, so that
        # window means would be inf - inf = NaN: no window is meaningful, and
        # the search refuses the series, in pieces of any size, without a
        # RuntimeWarning.
        n = 30_000
        beats = RRSeries._from_columns(
            np.arange(n, dtype=np.int64), np.arange(n) * 0.8 % 86400.0,
            np.where(np.arange(n) % 2, 1e308, 0.8), np.full(n, "N"), np.zeros(n, dtype=bool))
        short = RRSeries([RRRecord(k, float(k), 1e308, "N") for k in range(20)])
        for starts in (1, 3, 7, ingest._WINDOW_STARTS):
            with mock.patch.object(ingest, "_WINDOW_STARTS", starts), \
                    warnings.catch_warnings():
                warnings.simplefilter("error")
                for series, duration in ((beats, 3600.0), (short, 5.0)):
                    with pytest.raises(ValueError, match="sum past the largest float"):
                        extract_nocturnal(series, duration=duration)

    @SETTINGS
    @given(times=st.lists(st.floats(-2e5, 2e5), max_size=20))
    def test_elapsed(self, times):
        # Any clock: wraps, steps back by more than a day, signed zeros.
        series = RRSeries([RRRecord(k, time, 1.0, "N") for k, time in enumerate(times)])
        assert series.elapsed().tobytes() == np.array(elapsed_loop(series)).tobytes()

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

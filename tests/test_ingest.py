import io
import random
import socket
import subprocess
import sys
import tracemalloc
import urllib.request
import warnings
from pathlib import Path

import numpy as np
import pytest
from test_ingest_oracles import holter_parse, serialized

from svrand import ingest
from svrand.ingest import (NOCTURNAL_MIN_RECORDS, HolterFormatError, PersonMeta, RRRecord,
                           RRSeries, edit_perturbations, extract_nocturnal, filter_normal,
                           parse_holter, write_holter)
from svrand.synth import SourceSpec, synthetic_rr

DATA = Path(__file__).parent / "data"

SAMPLE = """\
index\ttime\tinterval\tannotation
1 00:00:00.500 0.8046875 N
2 00:00:01.305 0.796875 N
"""


class TestParseHolter:
    def test_two_row_file(self, tmp_path):
        path = tmp_path / "F_63_221500.txt"
        path.write_text(SAMPLE)
        meta, series = parse_holter(path)
        assert len(series) == 2
        assert [r.interval for r in series.records] == [0.8046875, 0.796875]
        assert series.records[0].time == 0.5
        assert series.records[1].annotation == "N"

    def test_filename_metadata(self, tmp_path):
        path = tmp_path / "F_63_221500.txt"
        path.write_text(SAMPLE)
        meta, _ = parse_holter(path)
        assert meta.id == "F_63_221500"
        assert meta.sex == "F"
        assert meta.age == 63

    @pytest.mark.parametrize("age", [-1, 1000])
    def test_age_has_one_to_three_digits(self, age):
        assert [PersonMeta(id="a", age=a).age for a in (0, 999)] == [0, 999]
        with pytest.raises(ValueError, match=f"age must be in 0..999, got {age}"):
            PersonMeta(id="a", age=age)

    def test_unmatched_filename_warns_but_parses(self, tmp_path):
        path = tmp_path / "subject-a.txt"
        path.write_text(SAMPLE)
        with pytest.warns(UserWarning, match="does not match"):
            meta, series = parse_holter(path)
        assert meta.sex is None and meta.age is None
        assert len(series) == 2

    def test_header_only_is_no_records(self, tmp_path):
        path = tmp_path / "F_20_000000.txt"
        path.write_text("index time interval annotation\n")
        with pytest.raises(HolterFormatError, match="no records"):
            parse_holter(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            parse_holter(tmp_path / "absent.txt")

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_plain_text_under_a_compression_suffix(self, tmp_path, suffix):
        # numpy decompresses a path with these suffixes; open() reads text.
        path = tmp_path / f"F_42_221500.txt{suffix}"
        path.write_bytes((DATA / "F_42_221500.txt").read_bytes())
        meta, series = parse_holter(path)
        assert meta == PersonMeta(id="F_42_221500.txt", sex="F", age=42)
        assert series == parse_holter(DATA / "F_42_221500.txt")[1]

    def test_url_like_relative_path_reads_the_local_file(self, tmp_path, monkeypatch):
        def no_network(*args, **kwargs):
            raise AssertionError("network access")

        monkeypatch.setattr(urllib.request, "urlopen", no_network)
        monkeypatch.setattr(socket, "create_connection", no_network)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "http:" / "h").mkdir(parents=True)
        (tmp_path / "http:" / "h" / "F_42_221500.txt").write_text(SAMPLE)
        meta, series = parse_holter("http://h/F_42_221500.txt")
        assert meta.id == "F_42_221500"
        assert series == holter_parse(SAMPLE)

    def test_parses_without_a_working_directory(self, tmp_path, monkeypatch):
        # numpy's DataSource cannot open a path then; open() still reads it.
        path = tmp_path / "F_63_221500.txt"
        path.write_text(SAMPLE)
        (tmp_path / "gone").mkdir()
        monkeypatch.chdir(tmp_path / "gone")
        (tmp_path / "gone").rmdir()
        _, series = parse_holter(str(path))
        assert len(series) == 2

    def test_parent_of_a_symlink_is_resolved_as_open_does(self, tmp_path, monkeypatch):
        # "link/.." is the parent of the link's target, not the working
        # directory that a lexically normalised path would name.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "real" / "sub").mkdir(parents=True)
        (tmp_path / "link").symlink_to(tmp_path / "real" / "sub")
        (tmp_path / "real" / "F_63_221500.txt").write_text(SAMPLE)
        (tmp_path / "F_63_221500.txt").write_text(SAMPLE.replace("0.8046875", "0.5"))
        _, series = parse_holter("link/../F_63_221500.txt")
        assert series == holter_parse(SAMPLE)

    def test_streams_are_rejected(self):
        # Files are read and written by path only.
        with pytest.raises(TypeError, match="os.PathLike"):
            parse_holter(io.StringIO(SAMPLE))
        with pytest.raises(TypeError, match="os.PathLike"):
            write_holter(RRSeries((RRRecord(1, 0.0, 0.8, "N"),)), io.StringIO())

    def test_malformed_row_reports_line_and_column(self, tmp_path):
        path = tmp_path / "F_20_000000.txt"
        path.write_text("header\n1 00:00:00.500 0.8 N\n2 00:00:01.3 oops N\n")
        with pytest.raises(HolterFormatError, match=r"line 3: column 3"):
            parse_holter(path)

    def test_all_bad_rows_reported(self, tmp_path):
        path = tmp_path / "F_20_000000.txt"
        path.write_text("header\nx 0 0.8 N\n1 0 0.8\n")
        with pytest.raises(HolterFormatError, match=r"line 2.*line 3"):
            parse_holter(path)

    def test_nonpositive_interval_rejected(self, tmp_path):
        path = tmp_path / "F_20_000000.txt"
        path.write_text("header\n1 00:00:01 0.0 N\n")
        with pytest.raises(HolterFormatError, match="line 2"):
            parse_holter(path)

    def test_raw_seconds_time_column(self, tmp_path):
        path = tmp_path / "M_30_060000.txt"
        path.write_text("header\n1 3600.25 0.8 N\n")
        _, series = parse_holter(path)
        assert series.records[0].time == 3600.25

    def test_nul_byte_rejected_with_line(self, tmp_path):
        path = tmp_path / "F_20_000000.txt"
        path.write_text("header\n1 00:00:00.000 1 N\x00\n")
        with pytest.raises(HolterFormatError, match=r"line 2: NUL byte in the row"):
            parse_holter(path)

    def test_record_rejects_nul_in_annotation(self):
        with pytest.raises(ValueError, match="NUL"):
            RRRecord(1, 0.0, 1.0, "N\x00")

    @pytest.mark.parametrize("time", [float("nan"), float("inf"), float("-inf")])
    def test_record_rejects_non_finite_time(self, time):
        # The parser rejects such clocks; written out, NaN would read back as a number.
        with pytest.raises(ValueError, match="time must be finite"):
            RRRecord(1, time, 0.8, "N")

    @pytest.mark.parametrize("annotation", ["A B", "N\t", "\x1cN", "N\xa0"])
    def test_record_rejects_whitespace_in_annotation(self, annotation):
        # The writer would emit a fifth column, or a separator, into the row.
        with pytest.raises(ValueError, match="whitespace"):
            RRRecord(1, 0.0, 0.8, annotation)

    @pytest.mark.parametrize("header", ["a\nb", "a\r", "a\x0cb", "\n"])
    def test_series_rejects_header_of_many_lines(self, header):
        with pytest.raises(ValueError, match="one line"):
            RRSeries((RRRecord(1, 0.0, 0.8, "N"),), header=header)

    @pytest.mark.parametrize("header", ["", "index time interval annotation", "a\x00b"])
    def test_one_line_header_round_trips(self, header):
        series = RRSeries((RRRecord(1, 0.0, 0.8, "N"),), header=header)
        assert holter_parse(serialized(series)) == series

    def test_round_trip_fixed_point(self, tmp_path):
        path = tmp_path / "F_63_221500.txt"
        path.write_text(SAMPLE)
        _, series = parse_holter(path)
        text = serialized(series)
        reparsed = holter_parse(text)
        assert reparsed == series
        assert serialized(reparsed) == text

    def test_serializer_uses_single_tabs(self, tmp_path):
        series = RRSeries((RRRecord(1, 0.5, 0.8046875, "N"),), header="hdr line")
        out = tmp_path / "rr.txt"
        write_holter(series, out)
        assert out.read_bytes() == b"hdr line\n1\t00:00:00.500\t0.8046875\tN\n"


class TestFilterNormal:
    def test_drops_non_normal(self, make_series):
        series = make_series([0.8, 1.2, 0.81], ["N", "V", "N"])
        kept = filter_normal(series)
        assert [r.interval for r in kept.records] == [0.8, 0.81]

    def test_all_normal_identity(self, make_series):
        series = make_series([0.8, 0.9, 1.0])
        assert filter_normal(series) == series

    def test_all_rejected_empty(self, make_series):
        series = make_series([0.8, 0.9], ["V", "V"])
        assert len(filter_normal(series)) == 0

    def test_idempotent_subsequence(self, make_series):
        rng = random.Random(5)
        series = make_series([0.8] * 50, rng.choices("NVSA", k=50))
        once = filter_normal(series)
        assert filter_normal(once) == once
        assert set(once.records) <= set(series.records)


@pytest.mark.filterwarnings("ignore:nocturnal window holds")
class TestExtractNocturnal:
    def test_picks_slow_plateau(self, make_series):
        hours = 3600.0
        fast = [0.7] * int(9 * hours / 0.7)
        slow = [1.0] * int(7 * hours / 1.0)
        series = make_series(fast + slow)
        window = extract_nocturnal(series, duration=6 * hours)
        assert (window.interval == 1.0).all()
        assert window.elapsed()[-1] <= 6 * hours
        assert len(window) > 21000

    def test_exact_span_returns_whole_series(self, make_series):
        series = make_series([1.0] * 61)  # spans exactly 60 s
        assert extract_nocturnal(series, duration=60.0) == series

    def test_thin_window_warns(self, make_series):
        # A window of n records spans n - 1 seconds here.
        enough = make_series([1.0] * NOCTURNAL_MIN_RECORDS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            extract_nocturnal(enough, duration=NOCTURNAL_MIN_RECORDS - 1.0)
        thin = make_series([1.0] * (NOCTURNAL_MIN_RECORDS - 1))
        with pytest.warns(UserWarning, match="fewer than the recommended"):
            extract_nocturnal(thin, duration=NOCTURNAL_MIN_RECORDS - 2.0)

    def test_too_short_rejected(self, make_series):
        with pytest.raises(ValueError, match="shorter"):
            extract_nocturnal(make_series([1.0] * 10), duration=60.0)

    @pytest.mark.parametrize("duration", [0.0, -1.0, float("nan")])
    def test_duration_must_be_positive(self, make_series, duration):
        with pytest.raises(ValueError, match=f"duration must be positive, got {duration}"):
            extract_nocturnal(make_series([1.0] * 10), duration=duration)

    def test_peak_memory_is_two_columns_and_one_piece(self):
        # Whole-series columns: the elapsed times and the prefix sums, 8 bytes
        # a beat each.  One piece of _WINDOW_STARTS candidate starts: the
        # positions, means, start numbers and denominators, 8 bytes a start
        # each.  Any third whole-series temporary alive with the two, even a
        # 1-byte mask, goes past the 64 KiB spare; the whole-array search
        # held five at once and peaked at 40-45 bytes a beat.
        n = 1 << 18
        series = synthetic_rr(SourceSpec(n=n, seed=4))
        tracemalloc.start()
        try:
            extract_nocturnal(series)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * (n + 1) + 4 * 8 * ingest._WINDOW_STARTS + (64 << 10)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, make_series, seed):
        rng = random.Random(seed)
        intervals = [round(rng.uniform(0.5, 1.5), 3) for _ in range(200)]
        series = make_series(intervals)
        duration = 60.0
        window = extract_nocturnal(series, duration=duration)

        t = series.elapsed()
        best = None
        for i in range(len(series)):
            if t[-1] - t[i] < duration:
                break
            take = [r.interval for k, r in enumerate(series.records)
                    if i <= k and t[k] <= t[i] + duration]
            mean = sum(take) / len(take)
            if best is None or mean > best[0]:
                best = (mean, i, len(take))
        _, start, count = best
        assert window.records == series.records[start:start + count]


class TestEditPerturbations:
    def test_short_run_replaced_by_median(self, make_series):
        normals = [0.800, 0.805, 0.810, 0.795, 0.800, 0.805, 0.810]
        series = make_series(normals + [1.200, 0.8], ["N"] * 7 + ["V", "N"])
        edited = edit_perturbations(series)
        assert len(edited) == 9
        repaired = edited.records[7]
        assert repaired.interval == 0.805  # median of the 7 preceding normals
        assert repaired.annotation == "N"
        assert repaired.edited

    def test_run_of_five_deleted(self, make_series):
        series = make_series([0.8] * 3 + [1.5] * 5 + [0.8],
                             ["N"] * 3 + ["V"] * 5 + ["N"])
        edited = edit_perturbations(series)
        assert [r.interval for r in edited.records] == [0.8] * 4
        assert not any(r.edited for r in edited.records)

    def test_clean_series_unchanged(self, make_series):
        series = make_series([0.8, 0.9, 1.0])
        assert edit_perturbations(series) == series

    def test_no_preceding_normals_drops_run(self, make_series):
        series = make_series([1.5, 1.5, 0.8], ["V", "V", "N"])
        edited = edit_perturbations(series)
        assert [r.interval for r in edited.records] == [0.8]

    def test_uses_fewer_normals_when_short(self, make_series):
        series = make_series([0.7, 0.9, 1.5, 0.8], ["N", "N", "V", "N"])
        edited = edit_perturbations(series)
        assert edited.records[2].interval == pytest.approx(0.8)  # median of {0.7, 0.9}

    def test_earlier_repairs_feed_later_medians(self, make_series):
        series = make_series([0.6, 9.9, 0.7, 9.9, 0.8], ["N", "V", "N", "V", "N"])
        edited = edit_perturbations(series)
        # first V -> median({0.6}); second V -> median({0.6, 0.6, 0.7}), the
        # earlier repair included
        assert edited.records[1].interval == 0.6
        assert edited.records[3].interval == 0.6

    def test_idempotent_and_all_normal(self, make_series):
        rng = random.Random(11)
        series = make_series([round(rng.uniform(0.6, 1.2), 3) for _ in range(80)],
                             rng.choices("NNNVS", k=80))
        once = edit_perturbations(series)
        assert all(r.annotation == "N" for r in once.records)
        assert edit_perturbations(once) == once

    def test_commands_never_load_statistics(self):
        # The median of at most 7 values is taken without statistics, which
        # imports fractions and decimal: about 0.5 MiB and 4-5 ms on every
        # command.  Runs in a subprocess, where no other test loaded them;
        # only what svrand adds to numpy's own imports is checked.
        root = Path(__file__).resolve().parents[1]
        script = "\n".join([
            "import sys",
            "import numpy",
            "before = set(sys.modules)",
            "sys.path.insert(0, sys.argv[1])",
            "import svrand.cli",
            "print(sorted({'statistics', 'fractions', 'decimal'} & (set(sys.modules) - before)))"])
        proc = subprocess.run([sys.executable, "-c", script, str(root / "src")],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"


class TestElapsed:
    def test_unwraps_midnight(self):
        records = (RRRecord(1, 86399.0, 1.0, "N"),
                   RRRecord(2, 0.0, 1.0, "N"),
                   RRRecord(3, 1.0, 1.0, "N"))
        series = RRSeries(records)
        assert np.allclose(series.elapsed(), [0.0, 1.0, 2.0])

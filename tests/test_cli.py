import errno
import json
import os
import re
import shutil
from dataclasses import asdict
from pathlib import Path

import pytest
from conftest import read_rows

from svrand.cli import RunConfig, main
from svrand.estimator import epsilon_profile, weighted_epsilon
from svrand.ingest import edit_perturbations, extract_nocturnal, filter_normal, parse_holter
from svrand.report import fmt6
from svrand.synth import SourceSpec, synthetic_rr
from svrand.transform import discretize_accel


def synth_file(tmp_path, name="F_42_221500.txt", n=2000, seed=7):
    path = tmp_path / name
    assert main(["synth", str(path), "--n", str(n), "--seed", str(seed)]) == 0
    return path


class TestDebruijnCommand:
    @pytest.mark.parametrize("order,expected", [(1, "01"), (2, "0011"), (3, "00010111")])
    def test_prints_sequence(self, capsys, order, expected):
        assert main(["debruijn", str(order)]) == 0
        assert capsys.readouterr().out == expected + "\n"

    def test_bad_order_is_usage_error(self, capsys):
        assert main(["debruijn", "0"]) == 1

    @pytest.mark.parametrize("order", ["27", "100000000000000000000"])
    def test_order_over_budget_is_usage_error(self, capsys, order):
        assert main(["debruijn", order]) == 1
        assert capsys.readouterr().err == (f"svrand: error: order {order} yields "
                                           f"2**{order} bits, over the budget of 2**26\n")


class TestSynthCommand:
    def test_round_trips_through_parser(self, tmp_path, capsys):
        path = synth_file(tmp_path, n=300, seed=5)
        meta, series = parse_holter(path)
        assert meta.sex == "F" and meta.age == 42
        assert series == synthetic_rr(SourceSpec(n=300, seed=5))

    def test_seed_determinism(self, tmp_path, capsys):
        a = synth_file(tmp_path, name="F_42_221500.txt", n=200, seed=9)
        b = synth_file(tmp_path, name="F_42_221501.txt", n=200, seed=9)
        assert a.read_bytes() == b.read_bytes()

    def test_shape_options_are_retired(self, tmp_path, capsys):
        # The series' shape is fixed in svrand.synth; only --n and --seed vary it.
        with pytest.raises(SystemExit) as exc:
            main(["synth", str(tmp_path / "x.txt"), "--baseline", "0.9"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --baseline 0.9" in capsys.readouterr().err
        assert not (tmp_path / "x.txt").exists()

    def test_zero_beats_is_usage_error(self, tmp_path, capsys):
        # A file without records would not parse back.
        assert main(["synth", str(tmp_path / "x.txt"), "--n", "0"]) == 1
        assert capsys.readouterr().err == "svrand: error: n must be >= 1, got 0\n"
        assert not (tmp_path / "x.txt").exists()

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        assert main(["synth", str(tmp_path / "x.txt"), "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "svrand: error: seed must be >= 0, got -1\n"
        assert not (tmp_path / "x.txt").exists()

    def test_writes_the_fixture(self, tmp_path, capsys):
        # tests/data/F_42_221500.txt is this command's output.
        fixture = Path(__file__).parent / "data" / "F_42_221500.txt"
        path = synth_file(tmp_path, n=4096, seed=7)
        assert path.read_bytes() == fixture.read_bytes()


class TestAnalyzeCommand:
    def test_eps_matches_library(self, tmp_path, capsys):
        path = synth_file(tmp_path)
        out = tmp_path / "rep"
        assert main(["analyze", str(path), "--out", str(out)]) == 0
        (row,) = read_rows((out / "persons.csv").read_text())
        _, series = parse_holter(path)
        profile = epsilon_profile(discretize_accel(filter_normal(series)))
        assert row["eps_0"] == fmt6(profile.epsilons[0])
        assert row["eps_weighted"] == fmt6(weighted_epsilon(profile))
        assert int(row["H"]) == profile.max_h
        assert row["mode"] == "full"

    def test_byte_identical_reruns(self, tmp_path, capsys):
        path = synth_file(tmp_path)
        outs = []
        for name in ("rep1", "rep2"):
            out = tmp_path / name
            assert main(["analyze", str(path), "--out", str(out)]) == 0
            outs.append(out)
        for fname in ("persons.csv", "cohorts.csv", "report.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_cut_lowers_weighted_epsilon_on_fixture(self, tmp_path, capsys):
        path = synth_file(tmp_path)
        plain, cut = tmp_path / "plain", tmp_path / "cut"
        assert main(["analyze", str(path), "--out", str(plain)]) == 0
        assert main(["analyze", str(path), "--cut", "3,3", "--out", str(cut)]) == 0
        (row_plain,) = read_rows((plain / "persons.csv").read_text())
        (row_cut,) = read_rows((cut / "persons.csv").read_text())
        assert float(row_cut["eps_weighted"]) < float(row_plain["eps_weighted"])
        assert row_cut["mode"] == "cut(3,3)"

    def test_oversized_h_clamped_with_warning(self, tmp_path, capsys):
        path = synth_file(tmp_path, n=1001)  # 1000 bits after discretization
        out = tmp_path / "rep"
        assert main(["analyze", str(path), "--h", "40", "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "floor(log2 n) - 1 = 8" in err and "clamped" in err
        (row,) = read_rows((out / "persons.csv").read_text())
        assert int(row["H"]) == 8

    def test_force_h_overrides_bound(self, tmp_path, capsys):
        path = synth_file(tmp_path, n=1001)
        out = tmp_path / "rep"
        assert main(["analyze", str(path), "--h", "12", "--force-h",
                     "--out", str(out)]) == 0
        (row,) = read_rows((out / "persons.csv").read_text())
        assert int(row["H"]) == 12
        doc = json.loads((out / "report.json").read_text())
        assert doc["persons"][0]["h_forced"] is True

    def test_explicit_h_and_loglog(self, tmp_path, capsys):
        path = synth_file(tmp_path)
        out = tmp_path / "rep"
        assert main(["analyze", str(path), "--h", "3", "--out", str(out)]) == 0
        (row,) = read_rows((out / "persons.csv").read_text())
        assert int(row["H"]) == 3 and row["eps_weighted"] != ""
        assert main(["analyze", str(path), "--h", "loglog", "--out", str(out)]) == 0
        (row,) = read_rows((out / "persons.csv").read_text())
        assert int(row["H"]) == 3  # floor(log2 floor(log2 1999))

    def test_h_spellings_write_identical_reports(self, tmp_path, capsys):
        # The config records the history length, not how it was typed.
        path = synth_file(tmp_path)
        outs = [tmp_path / f"rep{k}" for k in range(3)]
        for out, spelling in zip(outs, ("5", "05", "+5")):
            assert main(["analyze", str(path), "--h", spelling, "--out", str(out)]) == 0
        for fname in ("persons.csv", "cohorts.csv", "report.json"):
            for out in outs[1:]:
                assert (out / fname).read_bytes() == (outs[0] / fname).read_bytes()
        assert json.loads((outs[0] / "report.json").read_text())["config"]["h"] == "5"

    def test_med_mode_composes_nocturnal_and_editing(self, tmp_path, capsys):
        path = synth_file(tmp_path, name="M_55_230000.txt", n=28000, seed=3)
        out = tmp_path / "rep"
        assert main(["analyze", str(path), "--mode", "med", "--out", str(out)]) == 0
        (row,) = read_rows((out / "persons.csv").read_text())
        _, series = parse_holter(path)
        series = filter_normal(edit_perturbations(extract_nocturnal(series)))
        profile = epsilon_profile(discretize_accel(series))
        assert row["mode"] == "med"
        assert int(row["n_bits"]) == len(series) - 1
        assert row["eps_weighted"] == fmt6(weighted_epsilon(profile))

    def test_trim_mode_equalises_lengths(self, tmp_path, capsys):
        a = synth_file(tmp_path, name="F_30_010000.txt", n=1500, seed=1)
        b = synth_file(tmp_path, name="M_40_010000.txt", n=1200, seed=2)
        out = tmp_path / "rep"
        assert main(["analyze", str(a), str(b), "--mode", "trim",
                     "--out", str(out)]) == 0
        rows = read_rows((out / "persons.csv").read_text())
        assert [int(r["n_bits"]) for r in rows] == [1199, 1199]
        assert {r["mode"] for r in rows} == {"trim"}

    def test_cohort_rows(self, tmp_path, capsys):
        for name, seed in [("F_25_010000.txt", 1), ("F_27_010000.txt", 2),
                           ("M_41_010000.txt", 3)]:
            synth_file(tmp_path, name=name, n=900, seed=seed)
        out = tmp_path / "rep"
        assert main(["analyze", str(tmp_path / "*_010000.txt"),
                     "--out", str(out)]) == 0
        lines = [ln for ln in (out / "cohorts.csv").read_text().splitlines()
                 if not ln.startswith("#")]
        assert lines[0] == "sex,decade,count,q0,q1,q2,q3,q4,mean"
        assert len(lines) == 3  # (F,20) and (M,40)
        assert lines[1].startswith("F,20,2,") and lines[2].startswith("M,40,1,")

    def test_unknown_metadata_reported_separately(self, tmp_path, capsys):
        path = synth_file(tmp_path, name="anon.txt", n=600, seed=4)
        out = tmp_path / "rep"
        assert main(["analyze", str(path), "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["unknown_metadata"] == ["anon"]
        assert doc["cohorts"] == []
        assert "does not match" in capsys.readouterr().err

    def test_format_selects_outputs(self, tmp_path, capsys):
        path = synth_file(tmp_path)
        out_csv, out_json = tmp_path / "c", tmp_path / "j"
        assert main(["analyze", str(path), "--format", "csv", "--out", str(out_csv)]) == 0
        assert main(["analyze", str(path), "--format", "json", "--out", str(out_json)]) == 0
        assert (out_csv / "persons.csv").exists() and not (out_csv / "report.json").exists()
        assert (out_json / "report.json").exists() and not (out_json / "persons.csv").exists()

    def test_file_matched_twice_counts_once(self, tmp_path, capsys):
        path = tmp_path / "F_42_221500.txt"
        shutil.copy(Path(__file__).parent / "data" / "F_42_221500.txt", path)
        out = tmp_path / "rep"
        assert main(["analyze", str(path), str(tmp_path / "*.txt"),
                     "--out", str(out), "--format", "json"]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert len(doc["persons"]) == 1 and doc["cohorts"][0]["count"] == 1

    def test_same_person_id_in_two_files_is_input_error(self, tmp_path, capsys):
        first = synth_file(tmp_path, n=300, seed=1)
        (tmp_path / "copy").mkdir()
        second = synth_file(tmp_path / "copy", n=300, seed=2)
        assert main(["analyze", str(first), str(second),
                     "--out", str(tmp_path / "rep")]) == 2
        err = capsys.readouterr().err
        assert "'F_42_221500'" in err and str(first) in err and str(second) in err
        assert not (tmp_path / "rep").exists()

    def test_failed_report_write_leaves_no_partial_file(self, tmp_path, capsys,
                                                         monkeypatch):
        path = synth_file(tmp_path)
        out = tmp_path / "rep"
        assert main(["analyze", str(path), "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        # A lone surrogate cannot be encoded: the write fails after the
        # first buffers of the long prefix have gone to disk.
        monkeypatch.setattr("svrand.cli.render_json",
                            lambda *args: "x" * 100_000 + "\ud800")
        assert main(["analyze", str(path), "--out", str(out)]) == 2
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_failed_write_keeps_every_earlier_report(self, tmp_path, capsys, monkeypatch):
        # A different run fails at its last report: its first two reports
        # must not replace the earlier run's, whose config lines would then
        # disagree with report.json's.
        path = synth_file(tmp_path)
        out = tmp_path / "rep"
        assert main(["analyze", str(path), "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        write_text = Path.write_text

        def disk_full(self, *args, **kwargs):
            if self.name.startswith(".report.json."):
                write_text(self, "partial")
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(self))
            return write_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", disk_full)
        assert main(["analyze", str(path), "--cut", "3,3", "--out", str(out)]) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_weighted_epsilon_of_saturated_profile(self, tmp_path, capsys):
        # Every per-history epsilon is 1/2; the weighted dot product rounds
        # to 0.5000000000000001 unless held to the range of its terms.
        fixture = Path(__file__).parent / "data" / "F_42_221500.txt"
        out = tmp_path / "rep"
        assert main(["analyze", str(fixture), "--discretizer", "rapid", "--eta2", "0.05",
                     "--h", "3", "--out", str(out), "--format", "json"]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["persons"][0]["eps_weighted"] == 0.5

    def test_json_embeds_config_and_matches_csv(self, tmp_path, capsys):
        path = synth_file(tmp_path)
        out = tmp_path / "rep"
        assert main(["analyze", str(path), "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["config"]["discretizer"] == "accel"
        assert doc["config"]["inputs"] == [str(path)]
        (row,) = read_rows((out / "persons.csv").read_text())
        assert fmt6(doc["persons"][0]["eps_weighted"]) == row["eps_weighted"]

    def test_literal_path_with_glob_characters(self, tmp_path, capsys):
        # The pattern names an existing file, so the path is taken as it is
        # written; as a glob, F_42_[1].txt would match F_42_1.txt (100 lines).
        fixture = Path(__file__).parent / "data" / "F_42_221500.txt"
        path = tmp_path / "F_42_[1].txt"
        shutil.copy(fixture, path)
        head = fixture.read_text().splitlines(keepends=True)[:100]
        (tmp_path / "F_42_1.txt").write_text("".join(head))
        out = tmp_path / "rep"
        assert main(["analyze", str(path), "--out", str(out), "--format", "json"]) == 0
        (person,) = json.loads((out / "report.json").read_text())["persons"]
        assert person["person_id"] == "F_42_[1]"
        golden = Path(__file__).parent / "data" / "golden" / "default" / "report.json"
        assert person["n_bits"] == json.loads(golden.read_text())["persons"][0]["n_bits"]

    @pytest.mark.parametrize("name,group,message", [
        ("F_1000_221500.txt", "age", "age must be in 0..999, got 1000"),
        ("F_-5_221500.txt", "age", "age must be in 0..999, got -5"),
        ("F_x_221500.txt", "age", "invalid literal for int() with base 10: 'x'"),
    ], ids=["age_1000", "age_negative", "age_not_integer"])
    def test_bad_number_in_file_name_is_input_error(self, tmp_path, capsys, name, group,
                                                 message):
        path = tmp_path / name
        shutil.copy(Path(__file__).parent / "data" / "F_42_221500.txt", path)
        assert main(["analyze", str(path), "--out", str(tmp_path / "rep"),
                     "--meta-pattern", rf"(?P<sex>[FM])_(?P<{group}>[^_]+)_"]) == 2
        assert f"{str(path)!r}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

    def test_carriage_return_in_file_name_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "F_42\r_221500.txt"
        shutil.copy(Path(__file__).parent / "data" / "F_42_221500.txt", path)
        assert main(["analyze", str(path), "--out", str(tmp_path / "rep")]) == 2
        assert "a carriage return cannot be in a person id" in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()


class TestMergeCommand:
    def test_single_merged_result(self, tmp_path, capsys):
        a = synth_file(tmp_path, name="F_30_010000.txt", n=800, seed=1)
        b = synth_file(tmp_path, name="M_40_010000.txt", n=700, seed=2)
        out = tmp_path / "rep"
        assert main(["analyze", str(a), str(b), "--mode", "merged", "--out", str(out)]) == 0
        (row,) = read_rows((out / "persons.csv").read_text())
        assert row["person_id"] == "merged(2)"
        assert int(row["n_bits"]) == 799 + 699
        assert row["mode"] == "merged"

    def test_merge_accepts_cut(self, tmp_path, capsys):
        a = synth_file(tmp_path, name="F_30_010000.txt", n=800, seed=1)
        out = tmp_path / "rep"
        assert main(["analyze", str(a), "--mode", "merged", "--cut", "3,3",
                     "--out", str(out)]) == 0
        (row,) = read_rows((out / "persons.csv").read_text())
        assert row["mode"] == "merged+cut(3,3)"

    def test_merge_command_is_retired(self, tmp_path, capsys):
        # `analyze --mode merged` is the one spelling of the concatenated analysis.
        with pytest.raises(SystemExit) as exc:
            main(["merge", "F_30_010000.txt", "--out", str(tmp_path / "rep")])
        assert exc.value.code == 1
        assert "invalid choice: 'merge'" in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()


class TestStatsCommand:
    def test_counts_person_id_starting_with_hash(self, tmp_path, capsys):
        fixture = Path(__file__).parent / "data" / "F_42_221500.txt"
        for name in ("#F_42_221500.txt", "M_51_221500.txt"):
            shutil.copy(fixture, tmp_path / name)
        rep, out = tmp_path / "rep", tmp_path / "stats"
        assert main(["analyze", str(tmp_path / "#F_42_221500.txt"),
                     str(tmp_path / "M_51_221500.txt"), "--out", str(rep)]) == 0
        assert main(["stats", str(rep / "persons.csv"), "--out", str(out)]) == 0
        rows = (out / "cohorts.csv").read_text().splitlines()[2:]
        assert [row.split(",")[:3] for row in rows] == [["F", "40", "1"], ["M", "50", "1"]]

    @pytest.mark.parametrize("table,message", [
        ("person_id,sex,eps_weighted\nF_42_221500,F,0.2\n",
         "lacks the column(s) age"),
        ("# config {}\nperson_id,sex,age,eps_weighted\nF_42_221500,F,42,0.2\nM_51_221500,M\n",
         "line 4: 2 cells, the header has 4"),
        ("person_id,sex,age,eps_weighted\nF_42_221500,F,abc,0.2\n",
         "persons table line 2: age must be an integer, got 'abc'"),
        ("# config {}\nperson_id,sex,age,eps_weighted\nF_42_221500,F,42,zz\n",
         "persons table line 3: eps_weighted must be a number, got 'zz'"),
        ("person_id,sex,age,eps_weighted\n", "no person rows"),
        ("person_id,sex,age,eps_weighted\nF_42_221500,F,42,0.2\nM_x,M,1000,0.2\n",
         "persons table line 3: age must be in 0..999, got 1000"),
        ("# config {}\nperson_id,sex,age,eps_weighted\nF_x,F,-5,0.2\n",
         "persons table line 3: age must be in 0..999, got -5"),
        ("# config {}\nperson_id,sex,age,eps_weighted\nF_42_221500,F,42,0.2\n"
         "F_42_221500,F,42,0.2\n",
         "persons table line 4: person id 'F_42_221500' repeats line 3"),
    ], ids=["missing_column", "short_row", "bad_age", "bad_eps", "header_only",
            "age_1000", "age_negative", "repeated_person_id"])
    def test_malformed_table_is_input_error(self, tmp_path, capsys, table, message):
        path = tmp_path / "persons.csv"
        path.write_text(table)
        assert main(["stats", str(path), "--out", str(tmp_path / "stats")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "stats").exists()

    def test_weighted_epsilon_out_of_range_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "persons.csv"
        path.write_text("person_id,sex,age,mode,n_bits,H,eps_weighted\n"
                        "F_42_221500,F,42,full,100,1,0.7\n")
        assert main(["stats", str(path), "--out", str(tmp_path / "stats")]) == 2
        assert "weighted epsilon outside [0, 1/2]: 0.7" in capsys.readouterr().err

    def test_ages_zero_and_999_are_cohorts(self, tmp_path, capsys):
        path = tmp_path / "persons.csv"
        path.write_text("person_id,sex,age,eps_weighted\na,F,0,0.2\nb,M,999,0.3\n")
        assert main(["stats", str(path), "--out", str(tmp_path / "stats")]) == 0
        doc = json.loads((tmp_path / "stats" / "cohorts.json").read_text())
        assert [(c["sex"], c["decade"]) for c in doc["cohorts"]] == [("F", 0), ("M", 990)]

    def test_reads_only_identity_and_weighted_epsilon(self, tmp_path, capsys):
        path = tmp_path / "persons.csv"
        path.write_text("eps_weighted,age,sex,person_id\n0.2,42,F,a\n0.3,,F,b\n")
        assert main(["stats", str(path), "--out", str(tmp_path / "stats")]) == 0
        doc = json.loads((tmp_path / "stats" / "cohorts.json").read_text())
        assert [(c["sex"], c["decade"], c["q2"]) for c in doc["cohorts"]] == [("F", 40, 0.2)]
        assert doc["unknown_metadata"] == ["b"]

    def test_reaggregates_persons_csv(self, tmp_path, capsys):
        for name, seed in [("F_25_010000.txt", 1), ("F_27_010000.txt", 2)]:
            synth_file(tmp_path, name=name, n=900, seed=seed)
        rep = tmp_path / "rep"
        assert main(["analyze", str(tmp_path / "F_2*_010000.txt"),
                     "--out", str(rep)]) == 0
        out = tmp_path / "stats"
        assert main(["stats", str(rep / "persons.csv"), "--out", str(out)]) == 0
        original = [ln.split(",") for ln in (rep / "cohorts.csv").read_text().splitlines()
                    if not ln.startswith("#")]
        recomputed = [ln.split(",") for ln in (out / "cohorts.csv").read_text().splitlines()
                      if not ln.startswith("#")]
        assert len(recomputed) == len(original)
        # stats works from the 6-significant-digit CSV values, so quartiles can
        # move in the last digit relative to the full-precision run
        for orig, redo in zip(original[1:], recomputed[1:]):
            assert redo[:3] == orig[:3]
            for a, b in zip(orig[3:], redo[3:]):
                assert float(b) == pytest.approx(float(a), abs=1e-5)


class TestExitCodes:
    def test_usage_errors(self, tmp_path, capsys):
        path = synth_file(tmp_path)
        cases = [
            (["--cut", "nope"], "--cut expects I,J (two integers), got 'nope'"),
            (["--cut", "2,2"], "--cut supports the presets 3,3 4,4 5,5 6,6; got '2,2'"),
            (["--discretizer", "mono", "--eta1", "0.1"],
             "--eta1 applies only to the accel discretizer, not mono"),
            (["--discretizer", "mono", "--eta2", "0.1"],
             "--eta2 applies only to the rapid discretizer, not mono"),
            (["--discretizer", "rapid"], "the rapid discretizer requires --eta2"),
            (["--cut", "3,3", "--mode", "med"], "--cut does not combine with --mode med"),
            (["--h", "-3"], "--h must be auto, loglog, or a non-negative integer, got '-3'"),
            (["--meta-pattern", "(unclosed"], "--meta-pattern is not a valid regex: "),
        ]
        for options, message in cases:
            assert main(["analyze", str(path), *options]) == 1, options
            assert capsys.readouterr().err.startswith(f"svrand: error: {message}"), options

    def test_argparse_usage_exit(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze"])  # missing inputs
        assert exc.value.code == 1

    def test_missing_input_is_input_error(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope.txt")]) == 2
        assert "input error" in capsys.readouterr().err

    def test_cyclic_history_beyond_length_is_input_error(self, tmp_path, capsys):
        path = synth_file(tmp_path, n=8)  # 7 bits
        assert main(["analyze", str(path), "--cyclic", "--h", "8", "--force-h",
                     "--out", str(tmp_path / "rep")]) == 2
        assert "L=9 for n=7" in capsys.readouterr().err
        # With two files, the error names the person whose profile failed.
        data = Path(__file__).parent / "data"
        assert main(["analyze", str(data / "F_42_221500.txt"), str(data / "M_30_000000.txt"),
                     "--cyclic", "--h", "20", "--force-h",
                     "--out", str(tmp_path / "two")]) == 2
        assert capsys.readouterr().err == (
            "svrand: input error: M_30_000000: cyclic counting needs pattern length "
            "L <= n, got L=21 for n=7\n")
        assert not (tmp_path / "two").exists()

    @pytest.mark.parametrize("h", ["100000", "100000000000000000000"])
    def test_forced_history_over_table_budget_is_input_error(self, tmp_path, capsys, h):
        path = synth_file(tmp_path)
        assert main(["analyze", str(path), "--h", h, "--force-h",
                     "--out", str(tmp_path / "rep")]) == 2
        assert capsys.readouterr().err == (
            f"svrand: input error: F_42_221500: pattern length bound {int(h) + 1} needs "
            f"2**{int(h) + 2} table entries, over the budget of 2**27\n")
        assert not (tmp_path / "rep").exists()

    def test_error_after_parsing_names_the_person(self, tmp_path, capsys):
        # F_42_221500 spans about an hour, short of the six-hour night window.
        data = Path(__file__).parent / "data"
        assert main(["analyze", str(data / "F_42_221500.txt"), str(data / "M_30_000000.txt"),
                     "--mode", "med", "--out", str(tmp_path / "rep")]) == 2
        assert capsys.readouterr().err == (
            "svrand: input error: F_42_221500: series spans 3685.6 s, shorter than "
            "the 21600.0 s window\n")
        assert not (tmp_path / "rep").exists()

    def test_too_few_bits_is_input_error(self, tmp_path, capsys):
        # Two beats give one acceleration bit; the estimator needs two.
        path = tmp_path / "F_20_000000.txt"
        path.write_text("header\n1 00:00:00.800 0.8 N\n2 00:00:01.700 0.9 N\n")
        assert main(["analyze", str(path), "--out", str(tmp_path / "rep")]) == 2
        assert "only 1 bits left after pre-processing" in capsys.readouterr().err

    @pytest.mark.parametrize("options", [["--eta1", "nan"], ["--eta1", "inf"],
                                         ["--discretizer", "rapid", "--eta2", "nan"]])
    def test_non_finite_threshold_is_input_error(self, tmp_path, capsys, options):
        path = synth_file(tmp_path)
        assert main(["analyze", str(path), *options, "--out", str(tmp_path / "rep")]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

    def test_infinite_interval_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "F_20_000000.txt"
        bad.write_text("header\n1 00:00:00.800 inf N\n")
        assert main(["analyze", str(bad), "--out", str(tmp_path / "rep")]) == 2
        assert ("line 2: column 3 (interval): RR interval must be finite, got inf"
                in capsys.readouterr().err)

    def test_malformed_file_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "F_20_000000.txt"
        bad.write_text("header\n1 00:00:01 not-a-number N\n")
        assert main(["analyze", str(bad), "--out", str(tmp_path / "rep")]) == 2

    @pytest.mark.parametrize("clock", ["inf", "00:00:1e400"])
    def test_infinite_clock_is_input_error(self, tmp_path, capsys, clock):
        bad = tmp_path / "F_20_000000.txt"
        bad.write_text(f"header\n1 {clock} 0.8 N\n")
        assert main(["analyze", str(bad), "--out", str(tmp_path / "rep")]) == 2
        assert (f"line 2: column 2 (time): not a clock time: {clock!r}"
                in capsys.readouterr().err)

    def test_internal_error_is_exit_3(self, tmp_path, capsys, monkeypatch):
        path = synth_file(tmp_path)
        monkeypatch.setattr("svrand.cli.run_analysis",
                            lambda config: (_ for _ in ()).throw(RuntimeError("boom")))
        assert main(["analyze", str(path)]) == 3


class TestRunConfig:
    # Library runs get the command line's rules: RunConfig checks itself.
    @pytest.mark.parametrize("settings,message", [
        ({"discretizer": "rapid"}, "the rapid discretizer requires --eta2"),
        ({"discretizer": "bogus"}, "discretizer must be one of accel, rapid, mono, got 'bogus'"),
        ({"mode": "bogus"}, "mode must be one of full, trim, cut, med, merged, got 'bogus'"),
        ({"counting": "wrapped"}, "counting must be one of linear, cyclic, got 'wrapped'"),
        ({"format": "xml"}, "format must be one of csv, json, both, got 'xml'"),
        ({"cut": (3, 4)}, "--cut supports the presets 3,3 4,4 5,5 6,6; got '3,4'"),
        ({"cut": (3, 3), "mode": "trim"}, "--cut does not combine with --mode trim"),
        ({"h": "five"}, "--h must be auto, loglog, or a non-negative integer, got 'five'"),
        ({"h": 5.5}, "--h must be auto, loglog, or a non-negative integer, got 5.5"),
        ({"inputs": ()}, "inputs must be a non-empty sequence of file patterns, got ()"),
        ({"inputs": "a.txt"}, "inputs must be a non-empty sequence of file patterns"),
    ])
    def test_rejects_what_the_command_line_rejects(self, settings, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            RunConfig(**{"inputs": ("a.txt",), **settings})

    @pytest.mark.parametrize("settings,normal,tag", [
        ({}, {"mode": "full", "cut": None, "h": "auto"}, "full"),
        ({"mode": "cut"}, {"mode": "cut", "cut": (3, 3)}, "cut(3,3)"),
        ({"cut": [5, 5]}, {"mode": "cut", "cut": (5, 5)}, "cut(5,5)"),
        ({"mode": "merged", "cut": (4, 4)}, {"cut": (4, 4)}, "merged+cut(4,4)"),
        ({"h": "05"}, {"h": "5"}, "full"),
        ({"h": 7}, {"h": "7"}, "full"),
        ({"discretizer": "mono", "eta1": 0.0}, {"eta1": 0.0}, "full"),
        ({"inputs": ["a.txt"]}, {"inputs": ("a.txt",)}, "full"),
    ])
    def test_normalises_once(self, settings, normal, tag):
        config = RunConfig(**{"inputs": ("a.txt",), **settings})
        assert {name: getattr(config, name) for name in normal} == normal
        assert config.tag == tag
        assert RunConfig(**asdict(config)) == config

"""Reports of the fixture recording, byte for byte against checked-in copies.

Each variant runs `svrand` from `tests/data` on the relative input name, so
the configuration embedded in the reports does not depend on where the
repository lives.  The expected files sit in `tests/data/golden/<variant>/`.
"""

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from svrand.cli import RunConfig, _resolve_config, build_parser, main
from svrand.ingest import (NOCTURNAL_MIN_RECORDS, edit_perturbations, extract_nocturnal,
                           parse_holter)
from test_ingest_oracles import tiers

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
FIXTURE = "F_42_221500.txt"
SHORT = "M_30_000000.txt"  # the fixture's first 8 beats
# A 6.2 h recording (26 000 beats, 22:30 to 04:43) for --mode med.  Its
# nocturnal window holds six non-normal runs of 1 to 4 beats, which editing
# repairs, and one of 7 beats, which it drops.
NIGHT = "F_55_223000.txt"

VARIANTS = {
    "default": ["analyze", FIXTURE],
    "cyclic": ["analyze", FIXTURE, "--cyclic"],
    "mode_cut": ["analyze", FIXTURE, "--mode", "cut"],
    "h13_forced": ["analyze", FIXTURE, "--h", "13", "--force-h"],
    "h_loglog": ["analyze", FIXTURE, "--h", "loglog"],
    "rapid_eta2": ["analyze", FIXTURE, "--discretizer", "rapid", "--eta2", "0.05",
                   "--h", "3"],
    "mono": ["analyze", FIXTURE, "--discretizer", "mono"],
    "merge_cut44": ["analyze", FIXTURE, "--mode", "merged", "--cut", "4,4"],
    "cut55": ["analyze", FIXTURE, "--cut", "5,5"],
    # The longest preset window: runs of 6 and more are cut from both bits.
    "cut66": ["analyze", FIXTURE, "--cut", "6,6"],
    # Persons with different H: the shorter row is padded with empty cells.
    "two_persons": ["analyze", FIXTURE, SHORT],
    # Undefined epsilons and an unavailable weighted epsilon.
    "two_persons_h12_forced": ["analyze", FIXTURE, SHORT, "--h", "12", "--force-h"],
    # Unknown sex and age: empty cells, no cohort rows.
    "meta_unknown": ["analyze", FIXTURE, "--meta-pattern", "X(?P<sex>[FM])"],
    # Both persons cut to the shorter one's bits.
    "mode_trim": ["analyze", FIXTURE, SHORT, "--mode", "trim"],
    "mode_med": ["analyze", NIGHT, "--mode", "med"],
}
REPORTS = ("persons.csv", "cohorts.csv", "report.json")


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_reports_match_golden(variant, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(DATA)
    assert main(VARIANTS[variant] + ["--out", str(tmp_path)]) == 0
    for name in REPORTS:
        assert (tmp_path / name).read_bytes() == (GOLDEN / variant / name).read_bytes(), name


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_config_round_trips(variant):
    # A variant's RunConfig is the config its reports record, and rebuilding
    # it from those fields changes nothing.
    config = _resolve_config(build_parser().parse_args(VARIANTS[variant]))
    assert RunConfig(**asdict(config)) == config
    recorded = json.loads((GOLDEN / variant / "report.json").read_text())["config"]
    assert json.loads(json.dumps(asdict(config))) == recorded


def test_stats_matches_golden(tmp_path, monkeypatch, capsys):
    # Re-aggregates the default variant's persons table.
    monkeypatch.chdir(DATA)
    assert main(["stats", "golden/default/persons.csv", "--out", str(tmp_path)]) == 0
    for name in ("cohorts.csv", "cohorts.json"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / "stats" / name).read_bytes(), name


def test_crlf_copy_writes_the_med_reports(tmp_path, monkeypatch, capsys):
    # Universal newlines give a CRLF copy of the night recording the
    # fixed-width reader, as the plain copy's 3-decimal intervals do.
    (tmp_path / NIGHT).write_bytes((DATA / NIGHT).read_bytes().replace(b"\n", b"\r\n"))
    monkeypatch.chdir(tmp_path)
    with tiers() as calls:
        assert main(VARIANTS["mode_med"] + ["--out", "out"]) == 0
    assert len(calls["fixed"]) == 1 and calls["fixed"][0] is not None
    for name in REPORTS:
        assert (tmp_path / "out" / name).read_bytes() == (GOLDEN / "mode_med" / name).read_bytes()


def test_night_recording_exercises_editing():
    # Guards what the mode_med golden covers: 13 beats in short runs are
    # edited and the 7-beat run is dropped inside the nocturnal window.
    _, series = parse_holter(DATA / NIGHT)
    window = extract_nocturnal(series)
    edited = edit_perturbations(window)
    assert len(window) >= NOCTURNAL_MIN_RECORDS
    assert int(edited.edited.sum()) == 13
    assert len(window) - len(edited) == 7

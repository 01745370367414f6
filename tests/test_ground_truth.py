"""A recording of known epsilon through `svrand analyze`, by both parse paths.

The bits of an order-2 parity-Markov source (test_calibration) become
intervals 0.8 s +- j microseconds: each step's sign is one source bit, the
interval growing for a 0 as `discretize_accel` reads it.  The pipeline must
give back exactly the source, so every epsilon in report.json is the
source's own `epsilon_profile`, whichever way the file was read.
"""

import json

import numpy as np

from svrand import cli, ingest
from svrand.estimator import epsilon_profile, weighted_epsilon
from svrand.ingest import parse_holter, write_holter
from svrand.report import fmt6

from test_calibration import parity_markov
from test_ingest_oracles import format_clock, tiers

NAME = "F_42_221500.txt"


def write_recording(path, bits):
    """The bits as a fixed-width recording: microsecond intervals, millisecond clock."""
    micro = 800_000 + np.concatenate(([0], np.cumsum(np.where(bits, -1, 1))))
    assert 0 < micro.min() and micro.max() < 10**6
    clock = np.cumsum(micro) // 1000 / 1000
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index\ttime\tinterval\tannotation\n")
        fh.writelines(f"{k}\t{format_clock(t)}\t0.{m:06d}\tN\n"
                      for k, (t, m) in enumerate(zip(clock.tolist(), micro.tolist()), start=1))


def analyze(directory, monkeypatch):
    """report.json of `svrand analyze` run on the recording in directory."""
    monkeypatch.chdir(directory)
    assert cli.main(["analyze", NAME, "--out", "out"]) == 0
    return (directory / "out" / "report.json").read_text(encoding="utf-8")


def test_known_source_through_both_parse_paths(tmp_path, monkeypatch, capsys):
    source = parity_markov(10**5, 0.05, 2, seed=31)
    bits = source.to_array().view(bool)
    fixed, table = tmp_path / "fixed", tmp_path / "table"
    fixed.mkdir()
    table.mkdir()
    write_recording(fixed / NAME, bits)
    with tiers() as calls:
        report = analyze(fixed, monkeypatch)
    assert calls["fixed"][0] is not None and not calls["table"]

    profile = epsilon_profile(source)
    person, = json.loads(report)["persons"]
    assert person["n_bits"] == len(source) and person["H"] == profile.max_h
    assert person["epsilons"] == [float(fmt6(e)) for e in profile.epsilons]
    assert person["eps_weighted"] == float(fmt6(weighted_epsilon(profile)))

    # The same series in write_holter's shortest repr intervals, whose
    # widths vary, goes through np.loadtxt and must report the same.
    write_holter(parse_holter(fixed / NAME)[1], table / NAME)
    with tiers() as calls:
        assert analyze(table, monkeypatch) == report
    assert calls["fixed"] == [None] and calls["table"][0] is not None
    capsys.readouterr()

"""Recordings of known epsilon through `svrand analyze`, by both parse paths.

The bits of an order-k parity-Markov source (test_calibration) become
intervals 0.8 s +- j microseconds: each step's sign is one source bit, the
interval growing for a 0 as `discretize_accel` reads it.  The pipeline must
give back exactly the source, so every epsilon in report.json is the
source's own `epsilon_profile`, whichever way the file was read, and with
`--cut 3,3` the profile of the source's own `cut_trends`.
"""

import json

import numpy as np
import pytest

from svrand import cli
from svrand.estimator import epsilon_profile, weighted_epsilon
from svrand.ingest import parse_holter, write_holter
from svrand.report import fmt6
from svrand.transform import TrendCutPattern, cut_trends

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


def analyze(directory, monkeypatch, *options):
    """report.json of `svrand analyze` run on the recording in directory."""
    monkeypatch.chdir(directory)
    out = "out" + "".join(options)
    assert cli.main(["analyze", NAME, "--out", out, *options]) == 0
    return (directory / out / "report.json").read_text(encoding="utf-8")


def assert_reports(report, bits):
    """The one person of report.json carries exactly the profile of the bits."""
    profile = epsilon_profile(bits)
    person, = json.loads(report)["persons"]
    assert person["n_bits"] == len(bits) and person["H"] == profile.max_h
    assert person["epsilons"] == [float(fmt6(e)) for e in profile.epsilons]
    assert person["eps_weighted"] == float(fmt6(weighted_epsilon(profile)))


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

    assert_reports(report, source)

    # The same series in write_holter's shortest repr intervals, whose
    # widths vary, goes through np.loadtxt and must report the same.
    write_holter(parse_holter(fixed / NAME)[1], table / NAME)
    with tiers() as calls:
        assert analyze(table, monkeypatch) == report
    assert calls["fixed"] == [None] and calls["table"][0] is not None
    capsys.readouterr()


@pytest.mark.parametrize("eps, k", [(0.0, 1), (0.12, 3)])
def test_calibration_source_rewritten_by_write_holter(tmp_path, monkeypatch, capsys,
                                                      eps, k):
    # The eps 0 and 0.12 calibration sources, with test_calibration's seeds,
    # in the files write_holter rewrites from their fixed-width recordings:
    # the writer's shortest repr intervals must read back to the source's
    # bits, whole and cut at (3,3).
    source = parity_markov(10**5, eps, k, seed=100 * k + round(1000 * eps))
    write_recording(tmp_path / NAME, source.to_array().view(bool))
    table = tmp_path / "table"
    table.mkdir()
    write_holter(parse_holter(tmp_path / NAME)[1], table / NAME)
    cut = cut_trends(source, TrendCutPattern(3, 3))
    assert len(cut) < len(source)
    with tiers() as calls:
        assert_reports(analyze(table, monkeypatch), source)
        assert_reports(analyze(table, monkeypatch, "--cut", "3,3"), cut)
    assert calls["fixed"] == [None, None]
    assert len(calls["table"]) == 2 and all(t is not None for t in calls["table"])
    capsys.readouterr()

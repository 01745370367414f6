"""Recordings of known epsilon through `svrand analyze`, by both parse paths.

The bits of an order-k parity-Markov source (test_calibration) become
intervals 0.8 s +- j microseconds: each step's sign is one source bit, the
interval growing for a 0 as `discretize_accel` reads it.  The pipeline must
give back exactly the source, so every epsilon in report.json is the
source's own `epsilon_profile`, whichever way the file was read, and with
`--cut 3,3` the profile of the source's own `cut_trends`.  Uncut, each
reported epsilon also lies within test_calibration's Azuma radius of the
epsilon the source was built with, at every well-sampled length.

Those epsilons are the same for the complemented bits, so the bits
`cli._person_bits` returns are also checked against the source itself, on
a recording whose premature beats the normal-beat filter must drop.
"""

import json

import numpy as np
import pytest

from svrand import cli
from svrand.estimator import epsilon_profile, weighted_epsilon
from svrand.ingest import parse_holter, write_holter
from svrand.report import fmt6
from svrand.transform import TrendCutPattern, cut_trends

from test_calibration import azuma_radii, parity_markov
from test_ingest_oracles import format_clock, tiers

NAME = "F_42_221500.txt"


def write_recording(path, bits, ectopic=()):
    """The bits as a fixed-width recording: microsecond intervals, millisecond clock.

    After each normal beat numbered in ectopic (from 0) comes a premature
    beat of 0.5 s annotated V.  Kept, it would add a 1 and a 0 to the bits.
    """
    micro = 800_000 + np.concatenate(([0], np.cumsum(np.where(bits, -1, 1))))
    assert 0 < micro.min() and micro.max() < 10**6
    after = np.asarray(ectopic, dtype=np.intp) + 1
    micro = np.insert(micro, after, 500_000)
    label = np.insert(np.full(len(bits) + 1, "N"), after, "V")
    clock = np.cumsum(micro) // 1000 / 1000
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index\ttime\tinterval\tannotation\n")
        fh.writelines(f"{k}\t{format_clock(t)}\t0.{m:06d}\t{a}\n" for k, (t, m, a)
                      in enumerate(zip(clock.tolist(), micro.tolist(), label.tolist()), start=1))


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


def assert_near_source(report, source, eps, k):
    """report.json's epsilons lie within the Azuma radius of the source's eps.

    The reported digits are rounded to 6 significant ones, under 1e-6 off.
    A flipped comparison in discretize_accel complements every bit, which
    leaves these epsilons unchanged, so this check does not catch one.
    """
    person, = json.loads(report)["persons"]
    for h, radius in azuma_radii(source, eps, k).items():
        assert abs(person["epsilons"][h] - eps) <= radius + 1e-6, (h, radius)


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
    assert_near_source(report, source, 0.05, 2)

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
        report = analyze(table, monkeypatch)
        assert_reports(report, source)
        assert_near_source(report, source, eps, k)
        assert_reports(analyze(table, monkeypatch, "--cut", "3,3"), cut)
    assert calls["fixed"] == [None, None]
    assert len(calls["table"]) == 2 and all(t is not None for t in calls["table"])
    capsys.readouterr()


@pytest.mark.parametrize("cut", [None, (3, 3)])
def test_person_bits_are_the_source_around_non_normal_beats(tmp_path, monkeypatch, capsys,
                                                            cut):
    # A complemented discretizer, a filter that keeps every beat or a cut
    # made twice each changes the bits, though not always the epsilons.
    source = parity_markov(10**5, 0.05, 2, seed=31)
    bits = source.to_array().view(bool)
    ectopic = np.random.default_rng(7).choice(len(bits) + 1, 400, replace=False)
    write_recording(tmp_path / NAME, bits, ectopic)
    assert np.sum(parse_holter(tmp_path / NAME)[1].annotation == "V") == 400
    expected = source if cut is None else cut_trends(source, TrendCutPattern(*cut))
    config = cli.RunConfig(inputs=(NAME,), cut=cut)
    meta, got = cli._person_bits(str(tmp_path / NAME), config)
    assert (meta.sex, meta.age) == ("F", 42)
    assert got == expected
    options = () if cut is None else ("--cut", ",".join(map(str, cut)))
    assert_reports(analyze(tmp_path, monkeypatch, *options), expected)
    capsys.readouterr()

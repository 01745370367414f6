"""The CSV tables and the JSON report are written from one declared field list
per row: persons from `PERSON_FIELDS`, cohorts from `COHORT_FIELDS`."""

import csv
import io
import json

from conftest import read_rows
from hypothesis import given, settings
from hypothesis import strategies as st

from svrand.cohort import CohortStats, PersonResult
from svrand.estimator import EpsilonProfile, max_history
from svrand.ingest import PersonMeta
from svrand.report import (STATS_COLUMNS, fmt6, read_stats_people, render_cohorts_csv,
                           render_json, render_persons_csv)

CONFIG = {"inputs": ["x"], "mode": "full"}

# File stems may hold CSV specials, a leading '#' and line breaks.  Left out:
# NUL, which no file name holds, and a carriage return, which `parse_meta`
# rejects because the CSV writer does not quote it.
ids = st.one_of(
    st.sampled_from(["#a", "a,b", 'say "hi"', "#", ",", '"', "#x,\"y\"", "a\nb",
                     "a\n#b", "a\u2028b", "a\x85b"]),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00\r"),
            min_size=1))
unit = st.floats(0.0, 0.5, allow_nan=False)


@st.composite
def results(draw):
    epsilons = draw(st.lists(st.none() | unit, min_size=1, max_size=12))
    max_h = len(epsilons) - 1
    n = draw(st.integers(2, 10 ** 7))
    profile = EpsilonProfile(epsilons=tuple(epsilons), max_h=max_h, n=n, mode="linear",
                             clamped=draw(st.booleans()),
                             forced=max_h > max_history(n) or draw(st.booleans()))
    meta = PersonMeta(id=draw(ids), sex=draw(st.sampled_from([None, "F", "M"])),
                      age=draw(st.none() | st.integers(0, 150)))
    return PersonResult(meta=meta, profile=profile, weighted=draw(st.none() | unit),
                        mode_tag=draw(st.sampled_from(["full", "cut(3,3)", "merged"])))


@st.composite
def cohort_stats(draw):
    qs = sorted(draw(st.lists(unit, min_size=5, max_size=5)))
    return CohortStats(draw(st.sampled_from(["F", "M"])), draw(st.integers(0, 15)) * 10,
                       draw(st.integers(1, 10 ** 6)), *qs, draw(unit))


def cell(value):
    return "" if value is None else fmt6(value) if isinstance(value, float) else str(value)


@settings(max_examples=200, deadline=None)
@given(st.lists(results(), max_size=5))
def test_csv_cells_match_json_values(people):
    table = render_persons_csv(people, CONFIG)
    doc = json.loads(render_json(people, [], [], CONFIG))
    lines = list(io.StringIO(table, newline=""))
    assert lines[0] == "# config " + json.dumps(CONFIG, sort_keys=True) + "\n"
    header, *rows = csv.reader(lines[1:])
    width = max((len(p["epsilons"]) for p in doc["persons"]), default=0)
    assert header == (["person_id", "sex", "age", "mode", "n_bits", "H"]
                      + [f"eps_{h}" for h in range(width)] + ["eps_weighted"])
    assert set(STATS_COLUMNS) <= set(header)
    assert len(rows) == len(doc["persons"])
    for row, person in zip(rows, doc["persons"]):
        eps = person["epsilons"] + [None] * (width - len(person["epsilons"]))
        values = {**person, **{f"eps_{h}": e for h, e in enumerate(eps)}}
        assert row == [cell(values[name]) for name in header]


@settings(max_examples=200, deadline=None)
@given(st.lists(cohort_stats(), max_size=5))
def test_cohort_csv_cells_match_json_values(stats):
    table = render_cohorts_csv(stats, CONFIG)
    doc = json.loads(render_json([], stats, [], CONFIG))
    lines = list(io.StringIO(table, newline=""))
    assert lines[0] == "# config " + json.dumps(CONFIG, sort_keys=True) + "\n"
    header, *rows = csv.reader(lines[1:])
    assert header == ["sex", "decade", "count", "q0", "q1", "q2", "q3", "q4", "mean"]
    assert rows == [[cell(cohort[name]) for name in header] for cohort in doc["cohorts"]]


def test_empty_persons_table_keeps_its_header():
    table = render_persons_csv([], CONFIG)
    assert table.split("\n")[1:] == ["person_id,sex,age,mode,n_bits,H,eps_weighted", ""]
    assert read_stats_people(table) == []


@settings(max_examples=200, deadline=None)
@given(st.lists(results(), min_size=1, max_size=5))
def test_read_back_identity(people):
    rows = read_rows(render_persons_csv(people, CONFIG))
    assert [(row["person_id"], row["sex"], row["age"]) for row in rows] == [
        (r.meta.id, r.meta.sex or "", "" if r.meta.age is None else str(r.meta.age))
        for r in people]


def test_json_values_are_six_digits():
    profile = EpsilonProfile(epsilons=(0.123456789, None), max_h=1, n=8, mode="linear")
    person = PersonResult(meta=PersonMeta(id="a"), profile=profile,
                          weighted=1 / 3, mode_tag="full")
    (doc,) = json.loads(render_json([person], [], [], CONFIG))["persons"]
    assert doc["epsilons"] == [0.123457, None]
    assert doc["eps_weighted"] == 0.333333
    assert (doc["n_bits"], doc["H"], doc["h_clamped"], doc["h_forced"]) == (8, 1, False, False)


"""`run_analysis` against a reference pipeline built from the layer oracles.

Each layer has its own oracle: the row parser and the nocturnal and edit
loops (`test_ingest_oracles`), `reference_cut` (`test_transform`) and the
`Counter`-based `count_substrings`.  Here they are composed in the paper's
order, with plain-Python discretizers and a plain epsilon, over random
cohorts in every mode, so that the stage order, the cut, trim and merge
steps, the history presets and the cohort bucketing are checked together.
"""

import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_ingest_oracles import edit_loop, format_clock, nocturnal_loop, row_parse
from test_transform import reference_cut

from svrand.bitseq import COUNTINGS, BitSequence, CountTable, count_substrings
from svrand.cli import CUT_PRESETS, DISCRETIZERS, MODES, RunConfig, run_analysis
from svrand.cohort import CohortStats
from svrand.report import PERSON_FIELDS

NIGHT = 6 * 3600.0  # the nocturnal window of --mode med


class Refused(Exception):
    """The reference pipeline has no result for this cohort."""


# -- reference stages ----------------------------------------------------------

def reference_bits(intervals: list[float], discretizer: str, eta1: float,
                   eta2: float | None) -> str:
    """The bits of the normal intervals, one comparison at a time."""
    need = 3 if discretizer == "mono" else 2
    if len(intervals) < need:
        raise Refused(f"{len(intervals)} records")
    if discretizer == "accel":
        return "".join("0" if b >= a + eta1 else "1"
                       for a, b in zip(intervals, intervals[1:]))
    if discretizer == "rapid":
        return "".join("0" if abs(b - a) >= eta2 else "1"
                       for a, b in zip(intervals, intervals[1:]))
    return "".join("0" if a <= b <= c or a >= b >= c else "1"
                   for a, b, c in zip(intervals, intervals[1:], intervals[2:]))


def reference_person(text: str, name: str, config: RunConfig) -> str:
    series = row_parse(text, name)
    if config.mode == "med":
        series = edit_loop(nocturnal_loop(series, NIGHT))
    intervals = [r.interval for r in series.records if r.annotation == "N"]
    bits = reference_bits(intervals, config.discretizer, config.eta1, config.eta2)
    if config.cut is not None:
        bits = reference_cut(bits, *config.cut)[0]
    return bits


def reference_epsilon(table: CountTable, h: int) -> float | None:
    """Worst |count(w b) / count(w) - 1/2| over the histories w that occur.

    The counts are the Counter reference's: overlapping windows, wrapped
    around the end in cyclic mode.
    """
    den = {"": table.source_len} if h == 0 else {
        format(v, f"0{h}b"): int(c) for v, c in enumerate(table.level(h)) if c}
    if not den:
        return None
    return max(abs(table.count(w + b) / d - 0.5) for w, d in den.items() for b in "01")


def reference_row(person_id: str, sex, age, bits: str, config: RunConfig) -> dict:
    n = len(bits)
    if n < 2:
        raise Refused(f"{n} bits")
    bound = max(h for h in range(64) if 2 ** (h + 1) <= n)  # floor(log2 n) - 1
    log2n = bound + 1
    requested = {"auto": bound,
                 "loglog": max(k for k in range(64) if 2 ** k <= log2n)}.get(config.h)
    if requested is None:
        requested = int(config.h)
    over = requested > bound
    use = bound if over and not config.force_h else requested
    if config.counting == "cyclic" and use + 1 > n:
        raise Refused(f"cyclic windows of {use + 1} bits in {n}")
    table = count_substrings(BitSequence(bits), use + 1, config.counting)
    eps = [reference_epsilon(table, h) for h in range(use + 1)]
    weighted = None if None in eps else (
        math.fsum(e / (h + 1) for h, e in enumerate(eps))
        / math.fsum(1 / (h + 1) for h in range(use + 1)))
    if config.cut is None:
        tag = config.mode
    else:
        tag = f"cut({config.cut[0]},{config.cut[1]})"
        tag = tag if config.mode == "cut" else f"{config.mode}+{tag}"
    return {"person_id": person_id, "sex": sex, "age": age, "mode": tag, "n_bits": n,
            "H": use, "epsilons": eps, "eps_weighted": weighted,
            "h_clamped": over and not config.force_h, "h_forced": over and config.force_h}


def reference_analysis(files: list[tuple[str, str, str | None, int | None]],
                       config: RunConfig) -> tuple[list[dict], list[CohortStats]]:
    """Person rows and cohort rows for files of (stem, text, sex, age)."""
    bits = [reference_person(text, stem, config) for stem, text, _, _ in files]
    people = [(stem, sex, age) for stem, _, sex, age in files]
    if config.mode == "trim":
        shortest = min(len(b) for b in bits)
        bits = [b[:shortest] for b in bits]
    elif config.mode == "merged":
        bits = ["".join(bits)]
        people = [(f"merged({len(files)})", None, None)]
    rows = [reference_row(*person, b, config) for person, b in zip(people, bits)]
    groups: dict[tuple[str, int], list[float]] = {}
    for row in rows:
        if row["sex"] is not None and row["eps_weighted"] is not None:
            groups.setdefault((row["sex"], row["age"] // 10 * 10), []).append(
                row["eps_weighted"])
    cohorts = [CohortStats(sex, decade, len(values),
                           *np.percentile(values, [0, 25, 50, 75, 100]).tolist(),
                           float(np.mean(values)))
               for (sex, decade), values in sorted(groups.items())]
    return rows, cohorts


# -- generated cohorts ---------------------------------------------------------

def recording_text(seed: int, beats: int, low: float, high: float, abnormal: float,
                   quantised: bool) -> str:
    """A Holter file: intervals uniform in [low, high] s, from a random clock time."""
    rng = np.random.default_rng(seed)
    intervals = rng.uniform(low, high, beats)
    if quantised:  # millisecond steps, so that neighbouring intervals tie
        intervals = np.round(intervals, 3)
    labels = np.where(rng.random(beats) < abnormal, rng.choice(list("VSX"), beats), "N")
    t = float(rng.uniform(0, 86400))
    lines = ["index\ttime\tinterval\tannotation"]
    for k, (iv, label) in enumerate(zip(intervals.tolist(), labels.tolist()), start=1):
        t += iv
        lines.append(f"{k}\t{format_clock(t)}\t{iv!r}\t{label}")
    return "\n".join(lines) + "\n"


@st.composite
def cohorts(draw, mode):
    discretizer = draw(st.sampled_from(DISCRETIZERS))
    h = draw(st.sampled_from(["auto", "loglog", "forced", "clamped"]))
    force_h = h == "forced"
    if force_h:
        h = str(draw(st.integers(0, 13)))
    elif h == "clamped":  # above floor(log2 n) - 1 for every n drawn here
        h = str(draw(st.integers(14, 20)))
    settings_ = {
        "mode": mode, "discretizer": discretizer,
        "counting": draw(st.sampled_from(COUNTINGS)),
        "eta1": draw(st.sampled_from([0.0, 0.01])) if discretizer == "accel" else 0.0,
        "eta2": draw(st.sampled_from([0.0, 0.02, 0.1])) if discretizer == "rapid" else None,
        "cut": (draw(st.sampled_from([None, *CUT_PRESETS]))
                if mode in ("cut", "merged") else None),
        "h": h,
        "force_h": force_h,
    }
    files = []
    for k in range(draw(st.integers(1, 3))):
        if mode == "med":  # a little over the 6 h window, at 2.5-4 s a beat
            shape = (draw(st.integers(6900, 7400)), 2.5, 4.0)
        else:
            shape = (draw(st.integers(2, 300)), 0.4, 1.6)
        text = recording_text(draw(st.integers(0, 2**32 - 1)), *shape,
                              draw(st.sampled_from([0.0, 0.05, 0.3])), draw(st.booleans()))
        sex = draw(st.sampled_from(["F", "M", None]))
        age = draw(st.integers(0, 99))
        if sex is None:  # a name the metadata pattern does not match
            files.append((f"rec{k}", text, None, None))
        else:
            files.append((f"{sex}_{age}_22150{k}", text, sex, age))
    return settings_, files


def check_against_reference(settings_: dict, files: list) -> None:
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # clamped h, short night, names
        paths = []
        for stem, text, _, _ in files:
            path = Path(tmp) / f"{stem}.txt"
            path.write_text(text)
            paths.append(str(path))
        config = RunConfig(inputs=tuple(paths), **settings_)
        try:
            expected_rows, expected_cohorts = reference_analysis(files, config)
        except Refused:
            with pytest.raises(ValueError):
                run_analysis(config)
            return
        results, cohorts_, unknown = run_analysis(config)
    rows = [{key: get(r) for key, get, *_ in PERSON_FIELDS} for r in results]
    weighted = [(row.pop("eps_weighted"), want.pop("eps_weighted"))
                for row, want in zip(rows, expected_rows)]
    assert rows == expected_rows
    for got, want in weighted:
        assert (got is None) == (want is None)
        if got is not None:
            assert abs(got - want) <= 1e-15
    assert [(c.sex, c.decade, c.count) for c in cohorts_] == [
        (c.sex, c.decade, c.count) for c in expected_cohorts]
    for got, want in zip(cohorts_, expected_cohorts):
        assert [got.q0, got.q1, got.q2, got.q3, got.q4, got.mean] == pytest.approx(
            [want.q0, want.q1, want.q2, want.q3, want.q4, want.mean], rel=0, abs=1e-15)
    assert len(unknown) + sum(c.count for c in cohorts_) == len(rows)


def oracle_settings(examples: int):
    return settings(max_examples=examples, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


@pytest.mark.parametrize("mode", [m for m in MODES if m != "med"])
@oracle_settings(100)
@given(data=st.data())
def test_run_analysis_equals_reference_pipeline(mode, data):
    check_against_reference(*data.draw(cohorts(mode)))


@oracle_settings(15)  # each recording spans the 6 h window: ~7000 beats
@given(case=cohorts("med"))
def test_med_mode_equals_reference_pipeline(case):
    check_against_reference(*case)

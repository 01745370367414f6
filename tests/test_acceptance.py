"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (visible with `pytest -s`) and enforcing its stated numeric
tolerance and time budget."""

import random
import time
import warnings
from pathlib import Path

import pytest

from svrand.bitseq import BitSequence, count_substrings, count_substrings_fast, debruijn
from svrand.cli import main
from svrand.estimator import (EpsilonProfile, epsilon_profile, history_weights,
                              max_history, weighted_epsilon)
from svrand.ingest import RRRecord, RRSeries, edit_perturbations
from svrand.synth import SourceSpec, biased_coin, synthetic_rr
from svrand.transform import TrendCutPattern, cut_trends, discretize_accel

FIXTURE = Path(__file__).parent / "data" / "F_42_221500.txt"


def verdict(number, label, ok, elapsed, budget):
    in_time = elapsed < budget
    status = "PASS" if (ok and in_time) else "FAIL"
    print(f"acceptance {number:02d} {label}: {status} "
          f"({elapsed * 1000:.3f} ms, budget {budget * 1000:g} ms)")
    assert ok, f"criterion {number} ({label}): checks failed"
    assert in_time, f"criterion {number} ({label}): {elapsed:.3f}s over {budget}s budget"


def best_of(runs, fn):
    """Best wall-clock time of several runs; returns (result, elapsed)."""
    result, elapsed = None, float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        result = fn()
        elapsed = min(elapsed, time.perf_counter() - start)
    return result, elapsed


def test_01_worked_counting_example():
    expected = {"0": 4, "1": 5, "00": 1, "01": 3, "10": 2, "11": 2, "000": 0}

    def run():
        table = count_substrings(BitSequence("001011011"), 3, "linear")
        return all(table.count(p) == c for p, c in expected.items())

    ok, elapsed = best_of(3, run)
    verdict(1, "worked counting example", ok, elapsed, 0.001)


def test_02_debruijn_saturation():
    start = time.perf_counter()
    ok = str(debruijn(2)) == "0011" and str(debruijn(3)) == "00010111"
    for order in range(2, 17):
        profile = epsilon_profile(debruijn(order), mode="cyclic")
        ok = ok and profile.max_h == order - 1
        ok = ok and all(e == 0.0 for e in profile.epsilons)
    verdict(2, "De Bruijn saturation", ok, time.perf_counter() - start, 5.0)


def test_03_history_bound_and_clamping():
    cases = {2: 0, 8: 2, 1000: 8, 1_191_328: 19}
    _, elapsed = best_of(3, lambda: [max_history(n) for n in cases])
    ok = all(max_history(n) == h for n, h in cases.items())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        profile = epsilon_profile(biased_coin(1000, 0.0, seed=5), max_h=40)
    ok = ok and profile.max_h == 8 and profile.clamped
    ok = ok and any("clamped" in str(w.message) for w in caught)
    verdict(3, "history-length bound", ok, elapsed, 0.001)


def test_04_estimator_consistency():
    start = time.perf_counter()
    ok = True
    for epsilon in (0.0, 0.1, 0.25):
        profile = epsilon_profile(biased_coin(10 ** 6, epsilon, seed=2024))
        ok = ok and abs(profile.epsilons[0] - epsilon) <= 0.005
    deterministic = epsilon_profile(biased_coin(10 ** 6, 0.5, seed=2024))
    ok = ok and all(deterministic.epsilons[h] == 0.5 for h in range(6))
    verdict(4, "estimator consistency", ok, time.perf_counter() - start, 5.0)


def test_05_fast_counter_equivalence():
    start = time.perf_counter()
    rng = random.Random(90210)
    ok = True
    for _ in range(1000):
        n = rng.randrange(0, 2049)
        max_len = rng.randrange(1, 11)
        s = BitSequence("".join(rng.choice("01") for _ in range(n)))
        ok = ok and count_substrings_fast(s, max_len) == count_substrings(s, max_len)
    verdict(5, "fast counter equivalence", ok, time.perf_counter() - start, 10.0)


def test_06_weighted_epsilon_contract():
    def run():
        ok = all(abs(history_weights(h).sum() - 1.0) <= 1e-12 for h in range(65))
        for level in (0.0, 0.25, 0.5):
            profile = EpsilonProfile(epsilons=(level,) * 3, max_h=2, n=8, mode="linear")
            ok = ok and abs(weighted_epsilon(profile) - level) <= 1e-12
        worked = EpsilonProfile(epsilons=(0.0, 0.25, 0.5), max_h=2, n=8, mode="linear")
        return ok and abs(weighted_epsilon(worked) - 7 / 44) <= 1e-12

    ok, elapsed = best_of(3, run)
    verdict(6, "weighted-epsilon contract", ok, elapsed, 0.001)


def test_07_trend_cut_direction():
    start = time.perf_counter()
    wins = 0
    for seed in range(50):
        spec = SourceSpec(n=4096, seed=seed)
        bits = discretize_accel(synthetic_rr(spec))
        full = weighted_epsilon(epsilon_profile(bits))
        cut = weighted_epsilon(epsilon_profile(cut_trends(bits, TrendCutPattern(3, 3))))
        wins += cut < full
    verdict(7, f"trend cut lowers epsilon ({wins}/50)", wins >= 45,
            time.perf_counter() - start, 30.0)


def test_08_perturbation_editing():
    normals = [0.800, 0.805, 0.810, 0.795, 0.800, 0.805, 0.810]

    def series(intervals, annotations):
        records = tuple(RRRecord(index=k + 1, time=float(k), interval=iv,
                                 annotation=ann)
                        for k, (iv, ann) in enumerate(zip(intervals, annotations)))
        return RRSeries(records)

    def run():
        repaired = edit_perturbations(
            series(normals + [1.2, 0.8], ["N"] * 7 + ["V", "N"]))
        ok = [r.interval for r in repaired.records] == normals + [0.805, 0.8]
        ok = ok and repaired.records[7].annotation == "N" and repaired.records[7].edited
        dropped = edit_perturbations(
            series([0.8] * 2 + [1.5] * 5 + [0.8], ["N"] * 2 + ["V"] * 5 + ["N"]))
        ok = ok and [r.interval for r in dropped.records] == [0.8] * 3
        ok = ok and edit_perturbations(repaired) == repaired
        return ok

    ok, elapsed = best_of(3, run)
    verdict(8, "perturbation editing", ok, elapsed, 0.001)


def test_09_pipeline_determinism(tmp_path, capsys):
    start = time.perf_counter()
    outputs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        code = main(["analyze", str(FIXTURE), "--out", str(out)])
        assert code == 0
        outputs.append({f: (out / f).read_bytes()
                        for f in ("persons.csv", "cohorts.csv", "report.json")})
    ok = outputs[0] == outputs[1]
    capsys.readouterr()
    verdict(9, "pipeline determinism", ok, time.perf_counter() - start, 5.0)


def test_10_trend_cut_invariants():
    start = time.perf_counter()
    rng = random.Random(777)
    ok = True
    for _ in range(1000):
        text = "".join(rng.choice("01") for _ in range(rng.randrange(0, 300)))
        i = rng.randrange(1, 6)
        j = rng.randrange(1, 6)
        out = str(cut_trends(BitSequence(text), TrendCutPattern(i, j)))
        iterator = iter(text)
        ok = ok and all(c in iterator for c in out)  # subsequence of the input
        removed = len(text) - len(out)
        ok = ok and removed % (i + j) in (0, i)
    verdict(10, "trend cut invariants", ok, time.perf_counter() - start, 5.0)

import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svrand.bitseq import BitSequence
from svrand.transform import (TrendCutPattern, cut_trends, discretize_accel,
                              discretize_mono, discretize_rapid)


class TestDiscretizeAccel:
    def test_worked_example(self, make_series):
        series = make_series([0.820, 0.800, 0.810])
        assert str(discretize_accel(series, eta1=0.0)) == "10"

    def test_constant_is_all_zero(self, make_series):
        series = make_series([0.8] * 10)
        assert str(discretize_accel(series)) == "0" * 9

    def test_monotone_runs(self, make_series):
        rising = make_series([0.8 + 0.01 * k for k in range(6)])
        falling = make_series([0.9 - 0.01 * k for k in range(6)])
        assert str(discretize_accel(rising)) == "0" * 5
        assert str(discretize_accel(falling)) == "1" * 5

    def test_offset_shifts_threshold(self, make_series):
        series = make_series([0.800, 0.805])
        assert str(discretize_accel(series, eta1=0.0)) == "0"
        assert str(discretize_accel(series, eta1=0.01)) == "1"

    def test_too_short(self, make_series):
        with pytest.raises(ValueError):
            discretize_accel(make_series([0.8]))

    @pytest.mark.parametrize("eta1", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_offset(self, make_series, eta1):
        with pytest.raises(ValueError, match="must be finite"):
            discretize_accel(make_series([0.8, 0.9]), eta1=eta1)


class TestDiscretizeRapid:
    def test_worked_example(self, make_series):
        series = make_series([0.800, 0.812, 0.815])
        assert str(discretize_rapid(series, eta2=0.010)) == "01"

    def test_zero_threshold_all_zero(self, make_series):
        series = make_series([0.8, 0.8, 0.9, 0.7])
        assert str(discretize_rapid(series, eta2=0.0)) == "000"

    def test_constant_below_threshold(self, make_series):
        series = make_series([0.8] * 5)
        assert str(discretize_rapid(series, eta2=0.001)) == "1111"

    def test_rejects_negative_threshold(self, make_series):
        with pytest.raises(ValueError):
            discretize_rapid(make_series([0.8, 0.9]), eta2=-0.1)

    @pytest.mark.parametrize("eta2", [float("nan"), float("inf")])
    def test_rejects_non_finite_threshold(self, make_series, eta2):
        with pytest.raises(ValueError, match="must be finite"):
            discretize_rapid(make_series([0.8, 0.9]), eta2=eta2)

    def test_too_short(self, make_series):
        with pytest.raises(ValueError):
            discretize_rapid(make_series([0.8]), eta2=0.01)


class TestDiscretizeMono:
    def test_worked_example(self, make_series):
        series = make_series([0.800, 0.805, 0.810, 0.803])
        assert str(discretize_mono(series)) == "01"

    def test_monotone_series_all_zero(self, make_series):
        series = make_series([0.8 + 0.01 * k for k in range(8)])
        assert str(discretize_mono(series)) == "0" * 6

    def test_alternation_all_one(self, make_series):
        series = make_series([0.8 + 0.05 * (k % 2) for k in range(8)])
        assert str(discretize_mono(series)) == "1" * 6

    def test_too_short(self, make_series):
        with pytest.raises(ValueError):
            discretize_mono(make_series([0.8, 0.9]))


@pytest.mark.parametrize("seed", range(3))
def test_discretizer_output_lengths(make_series, seed):
    rng = random.Random(seed)
    n = rng.randrange(3, 60)
    series = make_series([round(rng.uniform(0.6, 1.2), 3) for _ in range(n)])
    assert len(discretize_accel(series)) == n - 1
    assert len(discretize_rapid(series, 0.01)) == n - 1
    assert len(discretize_mono(series)) == n - 2


def reference_cut(text, i, j):
    """Step-by-step simulation; returns (kept text, full cycles, dangling flag)."""
    deleted = set()
    pos = 0
    cycles = 0
    dangling = False
    while True:
        a = text.find("1" * i, pos)
        if a < 0:
            break
        deleted.update(range(a, a + i))
        pos = a + i
        b = text.find("0" * j, pos)
        if b < 0:
            dangling = True
            break
        deleted.update(range(b, b + j))
        pos = b + j
        cycles += 1
    kept = "".join(c for k, c in enumerate(text) if k not in deleted)
    return kept, cycles, dangling


def is_subsequence(short, long):
    it = iter(long)
    return all(c in it for c in short)


class TestCutTrends:
    def test_worked_example(self):
        out = cut_trends(BitSequence("1101100100"), TrendCutPattern(2, 2))
        assert str(out) == "011100"

    def test_no_match_unchanged(self):
        s = BitSequence("000000")
        assert cut_trends(s, TrendCutPattern(2, 2)) == s
        assert cut_trends(s, TrendCutPattern(1, 3)) == s

    def test_single_trend_consumed_entirely(self):
        assert str(cut_trends(BitSequence("111000"), TrendCutPattern(3, 3))) == ""

    @pytest.mark.parametrize("i,j,k", [(3, 3, 5), (2, 4, 7), (1, 1, 9)])
    def test_periodic_input_fully_removed(self, i, j, k):
        s = BitSequence(("1" * i + "0" * j) * k)
        assert str(cut_trends(s, TrendCutPattern(i, j))) == ""

    def test_dangling_accel_removal(self):
        # the 1-window is removed even when no 0-window follows
        assert str(cut_trends(BitSequence("0110"), TrendCutPattern(2, 2))) == "00"

    def test_runs_are_not_bridged_across_deletions(self):
        # seeking restarts after each deleted window; kept bits before it are
        # never re-scanned even if a deletion makes them adjacent to a run
        out = cut_trends(BitSequence("110110000"), TrendCutPattern(2, 2))
        assert str(out) == "01100"

    def test_rejects_non_positive_runs(self):
        with pytest.raises(ValueError):
            TrendCutPattern(0, 2)
        with pytest.raises(ValueError):
            TrendCutPattern(2, -1)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_reference_and_accounting(self, seed):
        rng = random.Random(seed)
        for _ in range(100):
            n = rng.randrange(0, 120)
            text = "".join(rng.choice("01") for _ in range(n))
            i = rng.randrange(1, 5)
            j = rng.randrange(1, 5)
            out = cut_trends(BitSequence(text), TrendCutPattern(i, j))
            kept, cycles, dangling = reference_cut(text, i, j)
            assert str(out) == kept
            assert is_subsequence(str(out), text)
            removed = n - len(out)
            assert removed == cycles * (i + j) + (i if dangling else 0)

    @settings(max_examples=300, deadline=None)
    @given(runs=st.lists(st.tuples(st.sampled_from("01"), st.integers(1, 8)), max_size=40),
           accel=st.integers(1, 8), decel=st.integers(1, 8))
    def test_accounting_property(self, runs, accel, decel):
        text = "".join(bit * length for bit, length in runs)
        out = str(cut_trends(BitSequence(text), TrendCutPattern(accel, decel)))
        assert is_subsequence(out, text)
        # k windows of 1s and m windows of 0s deleted, alternating from a 1-window
        kept, m, dangling = reference_cut(text, accel, decel)
        assert out == kept
        k = m + dangling
        assert len(text) - len(out) == accel * k + decel * m

    @pytest.mark.parametrize("i,j", itertools.product(range(1, 5), repeat=2))
    def test_every_short_sequence(self, i, j):
        pattern = TrendCutPattern(i, j)
        for n in range(13):
            for bits in itertools.product("01", repeat=n):
                text = "".join(bits)
                assert str(cut_trends(BitSequence(text), pattern)) == reference_cut(text, i, j)[0]

    def test_peak_memory_per_input_bit(self):
        # At (3,3) an eighth of a coin's bits head a qualifying run, so their
        # int64 positions take about 1 byte per bit, and the half kept by the
        # type-change step half that.  Three bool arrays of 1 byte per bit
        # meet at the `|` of the run heads; at the end the bool keep mask,
        # the output and the kept positions take about 3.  No
        # array of positions may span every run: int64 positions of all run
        # starts alone take 4 bytes per bit.
        rng = np.random.default_rng(22)
        s = BitSequence.from_array(rng.integers(0, 2, 1 << 22, dtype=np.uint8))
        tracemalloc.start()
        try:
            cut_trends(s, TrendCutPattern(3, 3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * len(s)

    @pytest.mark.parametrize("i,j", [(3, 3), (6, 6)])
    def test_long_seeded_sequence(self, i, j):
        rng = random.Random(20)
        text = "".join(rng.choice("01") for _ in range(200_000))
        out = cut_trends(BitSequence(text), TrendCutPattern(i, j))
        assert str(out) == reference_cut(text, i, j)[0]

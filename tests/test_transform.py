import itertools
import random
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svrand import transform
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


# Window pairs whose windows differ by much, by one, or not at all, and
# prefixes that put the last run after runs of every kind.
EDGE_PATTERNS = [(1, 3), (3, 1), (2, 5), (5, 2), (3, 3)]
EDGE_PREFIXES = ["", "0", "1", "110", "0111", "1110001", "1101100100", "0011100011110",
                 "111110000011111"]


def is_subsequence(short, long):
    it = iter(long)
    return all(c in it for c in short)


def one_mask_cut(s, pattern):
    """The cut over the whole sequence at once: one run-start mask, and the
    selected heads' windows assigned by parity, even ones accel."""
    a = s.to_array().view(bool)
    n = a.size
    short, long = sorted((pattern.accel, pattern.decel))
    starts = np.ones(n + long - 1, dtype=bool)
    np.not_equal(a[1:], a[:-1], out=starts[1:n])
    heads = starts[:n].copy()
    for k in range(1, long):
        stop = starts[k:k + n]
        if k >= short:
            stop = stop & a if pattern.accel > pattern.decel else stop > a
        np.greater(heads, stop, out=heads)
    pos = np.flatnonzero(heads)
    pos = pos[np.diff(a[pos], prepend=False)]
    keep = np.ones(n, dtype=bool)
    for first, length in ((pos[0::2], pattern.accel), (pos[1::2], pattern.decel)):
        for k in range(length):
            keep[first + k] = False
    return BitSequence.from_array(a[keep])


def check_every_short_sequence(i, j, max_n):
    pattern = TrendCutPattern(i, j)
    for n in range(max_n + 1):
        for bits in itertools.product("01", repeat=n):
            text = "".join(bits)
            assert str(cut_trends(BitSequence(text), pattern)) == reference_cut(text, i, j)[0]


def check_accounting(runs, accel, decel):
    text = "".join(bit * length for bit, length in runs)
    out = str(cut_trends(BitSequence(text), TrendCutPattern(accel, decel)))
    assert is_subsequence(out, text)
    # k windows of 1s and m windows of 0s deleted, alternating from a 1-window
    kept, m, dangling = reference_cut(text, accel, decel)
    assert out == kept
    k = m + dangling
    assert len(text) - len(out) == accel * k + decel * m


def check_last_run(accel, decel, bit, extra):
    # Positions past the end count as run starts, so a last run one bit
    # short of its window must not qualify, and one exactly a window long
    # must.
    length = (accel if bit == "1" else decel) + extra
    for prefix in EDGE_PREFIXES:
        text = prefix.rstrip(bit) + bit * length
        out = cut_trends(BitSequence(text), TrendCutPattern(accel, decel))
        assert str(out) == reference_cut(text, accel, decel)[0], text


RUNS = st.lists(st.tuples(st.sampled_from("01"), st.integers(1, 8)), max_size=40)
# Block sizes that put block edges inside, at the end of and past every window,
# and on, just before and just after the edges of the 64-bit words.
SMALL_BLOCKS = [1, 2, 3, 7, 63, 64, 65, 129]


@pytest.fixture(params=SMALL_BLOCKS)
def small_block(request):
    with mock.patch.object(transform, "_BLOCK", request.param):
        yield request.param


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
        # Run lengths that are not integers, even whole floats and bools.
        for accel, decel, name in [(2.5, 3, "accel"), (3.0, 3, "accel"), (True, 2, "accel"),
                                   (3, 2.0, "decel"), (3, False, "decel")]:
            with pytest.raises(TypeError, match=f"{name} must be an integer"):
                TrendCutPattern(accel, decel)
        assert TrendCutPattern(np.int64(3), 3).accel == 3

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
    @given(runs=RUNS, accel=st.integers(1, 8), decel=st.integers(1, 8))
    def test_accounting_property(self, runs, accel, decel):
        check_accounting(runs, accel, decel)

    @pytest.mark.parametrize("i,j", itertools.product(range(1, 5), repeat=2))
    def test_every_short_sequence(self, i, j):
        check_every_short_sequence(i, j, 12)

    def test_peak_memory_per_input_bit(self):
        # The kept bits are packed into one buffer of n/8 bytes; the unpacked
        # block, its keep mask and the word masks of one block of _BLOCK bits
        # come to under 2 MiB more whatever n is.  A mask or an array of positions
        # over the whole sequence would add 1 byte per bit or more: the
        # one-mask cut peaked at 2.7, the unpacked n-byte output at 1.4.
        rng = np.random.default_rng(22)
        s = BitSequence.from_array(rng.integers(0, 2, 1 << 22, dtype=np.uint8))
        tracemalloc.start()
        try:
            cut_trends(s, TrendCutPattern(3, 3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < len(s) // 8 + (2 << 20)

    @pytest.mark.parametrize("accel,decel", EDGE_PATTERNS)
    @pytest.mark.parametrize("bit", "01")
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_last_run_one_off_its_window(self, accel, decel, bit, extra):
        check_last_run(accel, decel, bit, extra)

    @pytest.mark.parametrize("accel,decel", EDGE_PATTERNS)
    def test_one_repeated_bit(self, accel, decel):
        for text in ["", "0", "1"] + [bit * n for bit in "01" for n in range(2, 13)]:
            out = cut_trends(BitSequence(text), TrendCutPattern(accel, decel))
            assert str(out) == reference_cut(text, accel, decel)[0], text

    @pytest.mark.parametrize("i,j", [(3, 3), (6, 6)])
    def test_long_seeded_sequence(self, i, j):
        rng = random.Random(20)
        text = "".join(rng.choice("01") for _ in range(200_000))
        out = cut_trends(BitSequence(text), TrendCutPattern(i, j))
        assert str(out) == reference_cut(text, i, j)[0]

    @pytest.mark.parametrize("pattern,text,kept", [((10**9, 1), "0110", "0110"),
                                                   ((1, 10**9), "0110", "010")])
    def test_window_longer_than_the_sequence(self, pattern, text, kept):
        # No run is longer than the sequence, so the cost must not grow with
        # the window: a 1-window still goes, and a 0-window never matches.
        start = time.perf_counter()
        assert str(cut_trends(BitSequence(text), TrendCutPattern(*pattern))) == kept
        assert time.perf_counter() - start < 1.0


class TestCutTrendsBlocks:
    """Windows that end at and cross block edges, with small blocks patched in."""

    @pytest.mark.parametrize("i,j", itertools.product(range(1, 5), repeat=2))
    def test_every_short_sequence(self, small_block, i, j):
        check_every_short_sequence(i, j, 8)

    @pytest.mark.parametrize("accel,decel", EDGE_PATTERNS)
    def test_last_run_one_off_its_window(self, small_block, accel, decel):
        for bit, extra in itertools.product("01", [-1, 0, 1]):
            check_last_run(accel, decel, bit, extra)

    @pytest.mark.parametrize("block", SMALL_BLOCKS)
    @settings(max_examples=100, deadline=None)
    @given(runs=RUNS, accel=st.integers(1, 8), decel=st.integers(1, 8))
    def test_accounting_property(self, block, runs, accel, decel):
        with mock.patch.object(transform, "_BLOCK", block):
            check_accounting(runs, accel, decel)

    @pytest.mark.parametrize("block", [64, 128, transform._BLOCK])
    def test_heads_across_words_without_heads(self, block):
        # Heads on bits 63 and 64, so the carry into word 1 is word 0's last
        # head; a 200-bit run leaves words 2 and 3 with no head, so the carry
        # into word 4 is filled forward over them; the 0-window at 382-385
        # crosses the word edge at 384, a block edge for blocks of 64 and 128.
        text = "0" * 63 + "1" + "0" * 200 + "1" * 118 + "0" * 12 + "1" * 3 + "0" * 5
        with mock.patch.object(transform, "_BLOCK", block):
            out = cut_trends(BitSequence(text), TrendCutPattern(1, 4))
        kept, cycles, dangling = reference_cut(text, 1, 4)
        assert (cycles, dangling) == (3, False)
        assert str(out) == kept

    @pytest.mark.parametrize("pattern", [(3, 3), (4, 4), (5, 5), (6, 6), (2, 5), (5, 2)])
    def test_default_blocks_match_one_mask(self, pattern):
        # Four default blocks and five bits: a coin, and runs of 1 to 12 bits
        # with a run of at least 7 + k bits across the k-th block edge.
        n = 4 * transform._BLOCK + 5
        rng = np.random.default_rng(26)
        coin = rng.integers(0, 2, n, dtype=np.uint8)
        lengths = rng.integers(1, 13, n // 4)
        runs = np.repeat((np.arange(lengths.size) % 2).astype(np.uint8), lengths)[:n]
        assert runs.size == n
        for k, edge in enumerate(range(transform._BLOCK, n, transform._BLOCK)):
            runs[edge - k - 1:edge + 6] = k % 2
        for arr in (coin, runs):
            s = BitSequence.from_array(arr)
            p = TrendCutPattern(*pattern)
            assert cut_trends(s, p) == one_mask_cut(s, p)

    @settings(max_examples=200, deadline=None)
    @given(runs=st.lists(st.tuples(st.sampled_from("01"), st.integers(1, 500)), max_size=30),
           accel=st.integers(1, 400), decel=st.integers(1, 400),
           block=st.one_of(st.integers(0, 18).map(lambda e: 1 << e), st.integers(1, 1 << 18)))
    def test_long_windows(self, runs, accel, decel, block):
        # Windows of up to 400 bits against runs of up to 500, at block sizes
        # from one bit to the default: the shifted ORs of the head check and
        # the one write per bit's windows cover every window length.
        with mock.patch.object(transform, "_BLOCK", block):
            check_accounting(runs, accel, decel)


def test_long_window_cost_does_not_grow_with_the_window():
    # The head check takes O(log window) passes over a block: (10000, 1) on
    # 2**20 coin bits takes a few ms; a pass per window position took over 1 s.
    s = BitSequence.from_array(np.random.default_rng(3).integers(0, 2, 1 << 20) == 1)
    for pattern in [TrendCutPattern(10_000, 1), TrendCutPattern(1, 10_000)]:
        start = time.perf_counter()
        out = cut_trends(s, pattern)
        assert time.perf_counter() - start < 0.5
        assert str(out) == reference_cut(str(s), pattern.accel, pattern.decel)[0]

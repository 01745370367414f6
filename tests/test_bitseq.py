import importlib.util
import random
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from svrand import bitseq, cli, estimator
from svrand.bitseq import BitSequence, count_substrings, count_substrings_fast, debruijn
from svrand.cohort import merge_persons
from svrand.synth import biased_coin


def random_bits(rng, n):
    return BitSequence("".join(rng.choice("01") for _ in range(n)))


def recursive_debruijn(order):
    """Reference: the recursive Lyndon-word (prenecklace) generator, as text."""
    out = []
    word = [0] * (order + 1)

    def extend(t, p):
        if t > order:
            if order % p == 0:
                out.extend("01"[b] for b in word[1:p + 1])
            return
        word[t] = word[t - p]
        extend(t + 1, p)
        for b in range(word[t - p] + 1, 2):
            word[t] = b
            extend(t + 1, t)

    extend(1, 1)
    return "".join(out)


def is_debruijn(text, order):
    wrapped = text + text[:order - 1]
    return len({wrapped[i:i + order] for i in range(len(text))}) == len(text) == 1 << order


def pair_counts(text, max_len, mode):
    """Counts of the (max_len + 1)-bit windows at even offsets, each two max_len-bit windows."""
    windows = len(text) if mode == "cyclic" else len(text) - max_len + 1
    ext = text + text[:max_len] if mode == "cyclic" else text
    counts = np.zeros(2 << max_len, dtype=np.int64)
    tally = Counter(ext[i:i + max_len + 1] for i in range(0, 2 * (max(windows, 0) // 2), 2))
    for pattern, count in tally.items():
        counts[int(pattern, 2)] = count
    return counts


def bench_inputs():
    """The benchmark's input generators, bench/inputs.py, which import nothing of svrand."""
    spec = importlib.util.spec_from_file_location(
        "bench_inputs", Path(__file__).resolve().parents[1] / "bench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(sys.modules, {spec.name: module}):  # its dataclasses look it up
        spec.loader.exec_module(module)
    return module


class TestBitSequence:
    def test_rejects_other_symbols(self):
        with pytest.raises(ValueError):
            BitSequence("0102")

    def test_from_ints_and_indexing(self):
        s = BitSequence.from_array([1, 0, 1, 1])
        assert str(s) == "1011"
        assert s[0] == 1 and s[1] == 0
        assert s[1:3] == BitSequence("01")
        assert len(s) == 4

    def test_iterates_by_index(self):
        # list() walks __getitem__ until the IndexError past the end.
        s = BitSequence("0110")
        assert list(s) == [0, 1, 1, 0]
        with pytest.raises(IndexError):
            s[4]

    def test_concat_and_array_round_trip(self):
        s = merge_persons([BitSequence("01"), BitSequence("10")])
        assert str(s) == "0110"
        assert BitSequence.from_array(s.to_array()) == s
        for dtype in (np.uint8, np.int64, bool):
            assert BitSequence.from_array(np.array([0, 1, 1, 0], dtype=dtype)) == s
        with pytest.raises(ValueError):
            s.to_array()[0] = 1  # the stored array is read-only

    def test_from_array_rejects_non_binary(self):
        with pytest.raises(ValueError):
            BitSequence.from_array(np.array([0, 2]))

    @pytest.mark.parametrize("bits", [[2, 0, -1, 0.5], [2], [-1], [0.5], [[0, 1]],
                                      [0, float("nan")], np.array([1.0, -np.inf, np.inf])])
    def test_iterable_takes_the_array_rule(self, bits):
        with pytest.raises(ValueError, match="0s and 1s"):
            BitSequence.from_array(bits)

    @pytest.mark.parametrize("arr", [np.array([0, 256], dtype=np.int64), np.array([0.5]),
                                     np.array([np.nan]), np.zeros((2, 2), dtype=np.uint8),
                                     np.array([0, 2], dtype=np.uint8)],
                             ids=["int64-256", "half", "nan", "uint8-2d", "uint8-2"])
    def test_arrays_of_every_dtype_are_checked(self, arr):
        # uint8 and bool inputs skip the round-trip comparison, not the rest.
        with pytest.raises(ValueError, match="0s and 1s"):
            BitSequence.from_array(arr)

    @pytest.mark.parametrize("dtype", [np.uint8, bool])
    def test_exact_dtypes_are_copied(self, dtype):
        arr = np.array([0, 1, 1], dtype=dtype)
        s = BitSequence.from_array(arr)
        arr[0] = 1
        assert str(s) == "011"
        assert arr.flags.writeable

    def test_iterable_of_bools_and_ints(self):
        assert BitSequence.from_array([True, False, 1, 0]) == BitSequence("1010")
        assert BitSequence.from_array(iter([0, 1])) == BitSequence("01")
        assert BitSequence.from_array([]) == BitSequence("")

    @pytest.mark.parametrize("bits", [[0, 1], iter([0, 1]), np.array([0, 1]), b"01"])
    def test_constructor_reads_only_text(self, bits):
        with pytest.raises(TypeError, match="BitSequence.from_array"):
            BitSequence(bits)

    @settings(max_examples=300, deadline=None)
    @given(text=st.text("01", max_size=200), step=st.sampled_from([1, 2, 3, 8, -1, -3]),
           bounds=st.tuples(st.none() | st.integers(-210, 210),
                            st.none() | st.integers(-210, 210)))
    def test_packed_storage_matches_the_array(self, text, step, bounds):
        # Lengths 0..200 put every n % 8 in the last, partly used byte.
        a = np.frombuffer(text.encode(), dtype=np.uint8) - ord("0")
        s = BitSequence.from_array(a)
        assert np.array_equal(s.to_array(), a) and str(s) == text
        assert BitSequence(text) == s and str(BitSequence(str(s))) == text
        assert [s[i] for i in range(-len(a), len(a))] == [*a.tolist(), *a.tolist()]
        for i in (len(a), -len(a) - 1):
            with pytest.raises(IndexError):
                s[i]
        cut = slice(*bounds, step)
        assert np.array_equal(s[cut].to_array(), a[cut])
        assert s[cut] == BitSequence.from_array(a[cut])

    def test_equality_compares_the_length(self):
        # Both pack to the one byte 0x00.
        assert BitSequence("0") != BitSequence("00")

    def test_from_array_peak_memory_is_the_packed_bits(self):
        # A uint8 input is checked by a reduction and packed as it is: no
        # full-size copy or mask beside the n/8 packed bytes.
        n = 1 << 22
        bits = np.random.default_rng(29).integers(0, 2, n, dtype=np.uint8)
        BitSequence.from_array(bits[:64])
        tracemalloc.start()
        try:
            BitSequence.from_array(bits)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n // 8 + (64 << 10)


class TestCountSubstrings:
    def test_overlapping_linear_counts(self):
        table = count_substrings(BitSequence("001011011"), 3, "linear")
        expected = {"0": 4, "1": 5, "00": 1, "01": 3, "10": 2, "11": 2, "000": 0}
        for pattern, count in expected.items():
            assert table.count(pattern) == count

    def test_empty_sequence_all_zero(self):
        table = count_substrings(BitSequence(""), 2, "linear")
        for pattern in ("0", "1", "00", "01", "10", "11"):
            assert table.count(pattern) == 0

    def test_cyclic_wraps_once(self):
        table = count_substrings(BitSequence("0011"), 2, "cyclic")
        assert [table.count(p) for p in ("00", "01", "11", "10")] == [1, 1, 1, 1]

    @pytest.mark.parametrize("seed", range(5))
    def test_per_length_sums(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(0, 200)
        s = random_bits(rng, n)
        linear = count_substrings(s, 8, "linear")
        cyclic = count_substrings(s, 8, "cyclic")
        for h in range(1, 9):
            assert linear.level(h).sum() == max(n - h + 1, 0)
            assert cyclic.level(h).sum() == (n if h <= n else 0)

    @pytest.mark.parametrize("seed", range(5))
    def test_prefix_extension_identity(self, seed):
        rng = random.Random(100 + seed)
        s = random_bits(rng, rng.randrange(1, 1 << 12))
        table = count_substrings(s, 10, "linear")
        for length in range(1, 10):
            for value in range(1 << length):
                w = format(value, f"0{length}b")
                assert (table.count("0" + w) + table.count("1" + w)
                        + str(s).startswith(w)) == table.count(w)

    def test_rejects_bad_args(self):
        s = BitSequence("01")
        with pytest.raises(ValueError):
            count_substrings(s, 0)
        with pytest.raises(ValueError):
            count_substrings(s, 2, "ring")
        with pytest.raises(ValueError):
            count_substrings(s, 40)  # over the table memory budget
        with pytest.raises(ValueError, match=r"needs 2\*\*10000000000000000001 table "
                                             r"entries, over the budget of 2\*\*27"):
            count_substrings_fast(s, 10 ** 19)

    def test_query_errors(self):
        table = count_substrings(BitSequence("0101"), 2)
        with pytest.raises(ValueError):
            table.count("010")  # longer than the table bound
        with pytest.raises(ValueError):
            table.count("")
        with pytest.raises(ValueError):
            table.count("0a")

    def test_length_value_keys_distinct(self):
        table = count_substrings(BitSequence("000"), 2)
        assert table.count("0") == 3
        assert table.count("00") == 2


class TestCountSubstringsFast:
    def test_matches_worked_example(self):
        s = BitSequence("001011011")
        assert count_substrings_fast(s, 3) == count_substrings(s, 3, "linear")

    def test_constant_sequence(self):
        table = count_substrings_fast(BitSequence("0000"), 2)
        assert table.count("0") == 4
        assert table.count("1") == 0
        assert table.count("00") == 3
        assert table.count("01") == 0
        assert table.count("10") == 0
        assert table.count("11") == 0

    def test_bound_beyond_length(self):
        table = count_substrings_fast(BitSequence("01"), 4)
        assert table.count("01") == 1
        assert table.level(3).sum() == 0
        assert table.level(4).sum() == 0

    @pytest.mark.parametrize("seed", range(10))
    def test_equals_reference_counter(self, seed):
        rng = random.Random(1000 + seed)
        for _ in range(20):
            n = rng.randrange(0, 2049)
            max_len = rng.randrange(1, 11)
            s = random_bits(rng, n)
            assert count_substrings_fast(s, max_len) == count_substrings(s, max_len)
            if max_len <= n:
                assert (count_substrings_fast(s, max_len, "cyclic")
                        == count_substrings(s, max_len, "cyclic"))

    @pytest.mark.parametrize("n", range(9))
    def test_every_short_sequence(self, n):
        # Lengths beyond n stay all zero, and every lower level is exact.
        for value in range(1 << n):
            s = BitSequence(format(value, f"0{n}b") if n else "")
            assert count_substrings_fast(s, 9) == count_substrings(s, 9)

    @pytest.mark.parametrize("mode", bitseq.COUNTINGS)
    def test_levels_marginalise_at_production_size(self, mode):
        # Each lower level is the level above summed over pattern pairs, plus
        # in linear mode the window of the last h bits, which the level above
        # misses.  The reference-counter tests only reach small n.
        n = 1 << 20
        bits = np.random.default_rng(31).integers(0, 2, n, dtype=np.uint8)
        table = count_substrings_fast(BitSequence.from_array(bits), 21, mode)
        assert table.level(21).sum() == (n - 20 if mode == "linear" else n)
        for h in range(1, 21):
            expected = table.level(h + 1).reshape(-1, 2).sum(axis=1)
            if mode == "linear":
                expected[int("".join(map(str, bits[-h:])), 2)] += 1
            assert np.array_equal(table.level(h), expected)

    @pytest.mark.parametrize("mode", bitseq.COUNTINGS)
    def test_rejects_n_beyond_uint32(self, mode):
        # 2**32 bits packed in a zero-stride view of 2**29 bytes: no memory.
        s = BitSequence._wrap(np.broadcast_to(np.uint8(0), (1 << 29,)), 1 << 32)
        with pytest.raises(ValueError, match="n < 2\\*\\*32"):
            count_substrings_fast(s, 3, mode)

    @pytest.mark.parametrize("mode", bitseq.COUNTINGS)
    @pytest.mark.parametrize("seen, dtype", [(65535, np.uint16), (65536, np.uint32)])
    def test_uint16_level_and_its_wrap(self, mode, seen, dtype):
        # A run of zeros starting at an even offset holds the all-zero 10-bit
        # window `seen` times at even offsets; the bits around it have a 1 at
        # every even offset.  The pair table has 2**10 entries, so it is
        # counted as uint16.  The run starts in the fifth block, after the
        # last check of the largest count, so no check widens the table; at
        # 65536 that count wraps to 0, the sum check fails and the pairs are
        # counted again as uint32.
        rng = np.random.default_rng(seen)
        prefix = (bitseq._BLOCK // 8) * 4 * 4  # the pairs of four blocks
        text = ("".join(f"1{b}" for b in rng.integers(0, 2, prefix)) + "0" * (2 * seen + 8)
                + "".join(f"1{b}" for b in rng.integers(0, 2, 150)))
        s = BitSequence(text)
        with mock.patch.object(bitseq, "_tally", wraps=bitseq._tally) as tally:
            table = count_substrings_fast(s, 9, mode)
        assert len(text) // 2 < 8 * prefix // 4  # the pairs end before an eighth block
        assert table._pairs.dtype == dtype
        assert tally.call_count == (1 if dtype == np.uint16 else 2)
        assert table._pairs[0] == seen
        assert table == count_substrings(s, 9, mode)

    @pytest.mark.parametrize("mode", bitseq.COUNTINGS)
    @pytest.mark.parametrize("extra, dtype", [(-1, np.uint16), (0, np.uint32)])
    def test_uint32_from_the_start_at_mean_count_256(self, mode, extra, dtype):
        # 2**(L + 9) pairs or more, a mean pair count of 256, are counted as
        # uint32 at once; one fewer is counted as uint16.
        length = 3
        pairs = (1 << (length + 9)) + extra
        n = 2 * pairs + (length - 1 if mode == "linear" else 0)
        s = BitSequence.from_array(np.random.default_rng(n).integers(0, 2, n, dtype=np.uint8))
        table = count_substrings_fast(s, length, mode)
        assert table._pairs.dtype == dtype
        assert table == count_substrings(s, length, mode)

    @settings(max_examples=40, deadline=None)
    @given(block=st.sampled_from([7, 16, 64, 256]), mode=st.sampled_from(bitseq.COUNTINGS),
           max_len=st.integers(1, 12), first=st.sampled_from("01"),
           runs=st.lists(st.integers(1, 60), min_size=1, max_size=40),
           long_run=st.one_of(st.none(), st.tuples(st.integers(0, 40),
                                                   st.integers(65533, 65538))))
    def test_skewed_inputs(self, block, mode, max_len, first, runs, long_run):
        # Alternating runs of one bit pile the counts onto few patterns.  A
        # long run holds its all-equal pair 65533..65538 times, around the
        # uint16 limit.  The table is uint32 where the pairs number 2**(L + 9)
        # or more, or a pair count passes 65535; it stays uint16 where no
        # pair count passes 3/8 of 65535, which no check projects past 3/4.
        if long_run is not None:
            at, seen = long_run
            runs.insert(at, 2 * seen + max_len)
        text = "".join(str((int(first) + i) % 2) * run for i, run in enumerate(runs))
        assume(mode == "linear" or max_len <= len(text))
        s = BitSequence(text)
        with mock.patch.object(bitseq, "_BLOCK", block):
            table = count_substrings_fast(s, max_len, mode)
        reference = count_substrings(s, max_len, mode)
        assert table == reference
        expected = pair_counts(text, max_len, mode)
        assert np.array_equal(table._pairs, expected)
        if expected.sum() >= 1 << (max_len + 9) or expected.max() > 65535:
            assert table._pairs.dtype == np.uint32
        elif 8 * expected.max() <= 3 * 65535:
            assert table._pairs.dtype == np.uint16

    @settings(max_examples=200, deadline=None)
    @given(case=st.sampled_from(["linear odd", "linear even", "cyclic odd", "cyclic even",
                                 "cyclic L = n", "linear L > n"]),
           block=st.sampled_from([1, 7, 16, 64]), narrow=st.sampled_from([1, bitseq._NARROW]),
           first=st.sampled_from("01"), runs=st.lists(st.integers(1, 600), min_size=1,
                                                      max_size=12), data=st.data())
    def test_pair_table_equals_reference(self, case, block, narrow, first, runs, data):
        # Long runs pile up to about 300 pairs onto one entry, past the uint8
        # limit; with _NARROW at 1 every table starts as uint8.  Each case
        # sets the parity of the max_len-bit windows: an odd count leaves the
        # last one to `last`.
        text = "".join(str((int(first) + i) % 2) * run for i, run in enumerate(runs))
        mode = case.split()[0]
        if case == "cyclic L = n":
            text = text[:data.draw(st.integers(1, 12))]
            max_len = len(text)
        elif case == "linear L > n":
            text = text[:data.draw(st.integers(0, 11))]
            max_len = data.draw(st.integers(len(text) + 1, 12))
        else:
            max_len = data.draw(st.integers(1, min(12, len(text))))
            windows = len(text) - (max_len - 1 if mode == "linear" else 0)
            if windows % 2 != case.endswith("odd"):
                text += data.draw(st.sampled_from("01"))
        s = BitSequence(text)
        with mock.patch.multiple(bitseq, _BLOCK=block, _NARROW=narrow):
            table = count_substrings_fast(s, max_len, mode)
        assert table == count_substrings(s, max_len, mode)
        expected = pair_counts(text, max_len, mode)
        assert np.array_equal(table._pairs, expected)
        start = (np.uint32 if expected.sum() >= 1 << (max_len + 9)
                 else np.uint8 if 2 << max_len >= narrow else np.uint16)
        if expected.max() > np.iinfo(start).max:
            assert table._pairs.itemsize > np.dtype(start).itemsize
        elif 8 * expected.max() <= 3 * np.iinfo(start).max:
            assert table._pairs.dtype == start

    def test_narrow_tables_widen_without_recounting(self):
        # A 0.2-biased coin at L = 19: 2**20 uint8 entries, the all-zero pair
        # about 840 times.  The largest count, taken after 1, 2, 4, ... blocks,
        # widens the table to uint16 before it can wrap, so it is counted once.
        s = biased_coin(1 << 21, 0.2, 1)
        with mock.patch.object(bitseq, "_tally", wraps=bitseq._tally) as tally:
            table = count_substrings_fast(s, 19)
        assert tally.call_count == 1
        assert table._pairs.dtype == np.uint16 and table._pairs.max() > 255
        assert table._pairs.sum() == (len(s) - 18) // 2

    def test_med_cohort_counts_each_table_once(self, tmp_path, capsys):
        # The benchmark's six med-mode persons: tables of 2**13 entries whose
        # largest pair counts reach 383.  Tables that small start as uint16,
        # so none is counted twice.
        inputs = bench_inputs()
        paths = inputs.write_cohort(inputs.cohort(1), tmp_path / "in")
        with mock.patch.object(bitseq, "_tally", wraps=bitseq._tally) as tally, \
                mock.patch.object(estimator, "count_substrings_fast",
                                  wraps=estimator.count_substrings_fast) as count:
            assert cli.main(["analyze", *map(str, paths), "--mode", "med",
                             "--out", str(tmp_path / "out")]) == 0
        assert count.call_count >= 6
        assert tally.call_count == count.call_count

    @pytest.mark.parametrize("mode", bitseq.COUNTINGS)
    def test_peak_memory_is_the_level(self, mode):
        # 2**22 bits at L = 19: the uint8 pair table takes 1 MiB, and a
        # block's words and pair values a few hundred KiB.  Neither mode copies
        # the packed bits; cyclic mode appends its first L - 1 bits to a tail
        # of a few bytes.
        n = 1 << 22
        s = BitSequence.from_array(np.random.default_rng(19).integers(0, 2, n, dtype=np.uint8))
        count_substrings_fast(s, 3, mode)
        tracemalloc.start()
        try:
            table = count_substrings_fast(s, 19, mode)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table._pairs.dtype == np.uint8
        assert peak < (1 << 20) + (768 << 10)

    def test_uint16_add_at_keeps_the_fast_path(self):
        # np.add.at on a uint8 or uint16 table with a scalar of its dtype must
        # take the same fast path as uint32; a slow path is many times slower.
        idx = np.random.default_rng(16).integers(0, 1 << 20, 1 << 20).astype(np.uint32)

        def best(dtype):
            times = []
            for _ in range(5):
                table = np.zeros(1 << 20, dtype=dtype)
                start = time.perf_counter()
                np.add.at(table, idx, dtype(1))
                times.append(time.perf_counter() - start)
            return min(times)

        assert best(np.uint8) < 3 * best(np.uint32)
        assert best(np.uint16) < 3 * best(np.uint32)

    @settings(max_examples=200, deadline=None)
    @given(block=st.sampled_from([1, 2, 7]), k=st.integers(1, 5),
           edge=st.sampled_from([-1, 0, 1]), max_len=st.integers(1, 9),
           tail=st.booleans(), data=st.data())
    def test_block_boundaries(self, block, k, edge, max_len, tail, data):
        # n, or in linear mode with `tail` the window count n - L + 1, sits
        # one before, on or one after a multiple of the block size.
        n = k * block + edge + (max_len - 1 if tail else 0)
        s = BitSequence(data.draw(st.text("01", min_size=n, max_size=n)))
        with mock.patch.object(bitseq, "_BLOCK", block):
            assert count_substrings_fast(s, max_len) == count_substrings(s, max_len)
            if max_len <= n:
                assert (count_substrings_fast(s, max_len, "cyclic")
                        == count_substrings(s, max_len, "cyclic"))

    @settings(max_examples=300, deadline=None)
    @given(block=st.sampled_from([1, 2, 7, 8, 9, 16, 25]), k=st.integers(1, 4),
           edge=st.integers(-8, 8), mode=st.sampled_from(bitseq.COUNTINGS), data=st.data())
    def test_every_bit_offset_near_block_edges(self, block, k, edge, mode, data):
        # Words are read max(1, _BLOCK // 8) bytes at a time, each holding the
        # windows of 8 bit offsets, so n takes every residue mod 8 around a
        # multiple of the block size; 16 and 25 give blocks of 2 and 3 bytes.
        n = max(1, k * block + edge)
        max_len = data.draw(st.integers(1, min(n, 12)))
        s = BitSequence(data.draw(st.text("01", min_size=n, max_size=n)))
        with mock.patch.object(bitseq, "_BLOCK", block):
            assert count_substrings_fast(s, max_len, mode) == count_substrings(s, max_len, mode)

    @settings(max_examples=200, deadline=None)
    @given(block=st.sampled_from([1, 2, 7, 8, 9]), text=st.text("01", min_size=1, max_size=30),
           max_len=st.integers(1, 12))
    def test_linear_last_is_the_last_window(self, block, text, max_len):
        # The table's `last` is the value of the last min(max_len, n) bits;
        # below max_len bits the stored level gets nothing added.
        with mock.patch.object(bitseq, "_BLOCK", block):
            table = count_substrings_fast(BitSequence(text), max_len)
        assert table._last == int(text[-min(max_len, len(text)):], 2)
        if len(text) < max_len:
            assert not table.level(max_len).any()

    @settings(max_examples=100, deadline=None)
    @given(block=st.sampled_from([1, 2, 7]), text=st.text("01", min_size=2, max_size=14),
           shorter=st.booleans())
    def test_cyclic_length_close_to_n(self, block, text, shorter):
        s = BitSequence(text)
        max_len = len(text) - shorter
        with mock.patch.object(bitseq, "_BLOCK", block):
            assert (count_substrings_fast(s, max_len, "cyclic")
                    == count_substrings(s, max_len, "cyclic"))


def lean_and_eager(text, max_len, mode):
    """The counter's table, which stores only max_len, and the reference's, which stores all."""
    s = BitSequence(text)
    return count_substrings_fast(s, max_len, mode), count_substrings(s, max_len, mode)


class TestCountTable:
    @pytest.mark.parametrize("mode", bitseq.COUNTINGS)
    def test_derived_levels_are_read_only_and_not_kept(self, mode):
        table = count_substrings_fast(BitSequence("0010111011"), 8, mode)
        for length in range(1, 9):
            counts = table.level(length)
            assert not counts.flags.writeable
            with pytest.raises(ValueError):
                counts[0] = 7
        assert table.level(3) is not table.level(3)
        assert table.level(3)[0] == table.count("000")
        # The top level's pieces are derived from the pair table the same way.
        piece = table.top(2, 9)
        assert not piece.flags.writeable and not table._pairs.flags.writeable
        assert table.top(2, 9) is not piece
        assert np.array_equal(piece, table.level(8)[2:9])

    @settings(max_examples=200, deadline=None)
    @given(text=st.text("01", max_size=40), max_len=st.integers(1, 12),
           mode=st.sampled_from(bitseq.COUNTINGS))
    def test_every_level_equals_the_reference(self, text, max_len, mode):
        if mode == "cyclic" and max_len > len(text):
            return
        lean, eager = lean_and_eager(text, max_len, mode)
        for length in range(1, max_len + 1):
            assert np.array_equal(lean.level(length), eager.level(length))
            if length > len(text):  # linear: no window this long
                assert not lean.level(length).any()

    @pytest.mark.parametrize("mode", bitseq.COUNTINGS)
    @pytest.mark.parametrize("text", ["", "1", "0110", "0010111011", "1" * 9 + "0" * 7])
    def test_count_agrees_for_every_short_pattern(self, text, mode):
        if mode == "cyclic" and len(text) < 8:
            return
        lean, eager = lean_and_eager(text, 8, mode)
        for length in range(1, 9):
            for value in range(1 << length):
                pattern = format(value, f"0{length}b")
                assert lean.count(pattern) == eager.count(pattern)

    @settings(max_examples=100, deadline=None)
    @given(text=st.text("01", max_size=30), max_len=st.integers(1, 9),
           mode=st.sampled_from(bitseq.COUNTINGS), flip=st.integers(0, 29))
    def test_equality_holds_both_ways(self, text, max_len, mode, flip):
        if mode == "cyclic" and max_len > len(text):
            return
        lean, eager = lean_and_eager(text, max_len, mode)
        assert lean == eager and eager == lean
        if text:  # one flipped bit changes the count of "1"
            i = flip % len(text)
            other = text[:i] + "10"[int(text[i])] + text[i + 1:]
            lean_other, eager_other = lean_and_eager(other, max_len, mode)
            assert lean != eager_other and eager_other != lean
            assert eager != lean_other and lean_other != eager


class TestDebruijn:
    def test_known_orders(self):
        assert str(debruijn(1)) == "01"
        assert str(debruijn(2)) == "0011"
        assert str(debruijn(3)) == "00010111"

    @pytest.mark.parametrize("order", range(1, 13))
    def test_every_pattern_once_cyclically(self, order):
        seq = debruijn(order)
        assert len(seq) == 1 << order
        table = count_substrings(seq, order, "cyclic")
        assert (table.level(order) == 1).all()

    @pytest.mark.parametrize("order", range(1, 17))
    def test_equals_recursive_generator(self, order):
        assert str(debruijn(order)) == recursive_debruijn(order)

    @pytest.mark.parametrize("order", range(1, 5))
    def test_lexicographically_least(self, order):
        # Candidates in increasing value are candidates in lexicographic order.
        size = 1 << order
        least = next(text for text in (format(v, f"0{size}b") for v in range(1 << size))
                     if is_debruijn(text, order))
        assert str(debruijn(order)) == least

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            debruijn(0)
        with pytest.raises(ValueError):
            debruijn(30)

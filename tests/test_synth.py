import tracemalloc

import numpy as np
import pytest

from svrand.synth import SourceSpec, biased_coin, synthetic_rr


class TestBiasedCoin:
    def test_deterministic_limit_all_zero(self):
        assert str(biased_coin(64, 0.5, seed=1)) == "0" * 64

    def test_fair_coin_frequency(self):
        bits = biased_coin(10 ** 6, 0.0, seed=123)
        zeros = str(bits).count("0") / len(bits)
        assert abs(zeros - 0.5) <= 0.005

    @pytest.mark.parametrize("epsilon", [0.1, 0.25])
    def test_bias_frequency(self, epsilon):
        bits = biased_coin(10 ** 6, epsilon, seed=99)
        zeros = str(bits).count("0") / len(bits)
        assert abs(zeros - (0.5 + epsilon)) <= 0.005

    def test_seed_determinism(self):
        assert biased_coin(5000, 0.1, seed=7) == biased_coin(5000, 0.1, seed=7)
        assert biased_coin(5000, 0.1, seed=7) != biased_coin(5000, 0.1, seed=8)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            biased_coin(10, 0.6, seed=0)
        with pytest.raises(ValueError):
            biased_coin(10, -0.01, seed=0)
        with pytest.raises(ValueError):
            biased_coin(-1, 0.1, seed=0)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            biased_coin(10, 0.1, seed=-1)

    def test_peak_memory_per_bit(self):
        # The uniform draws take 8 bytes a bit and the bool comparison one
        # more; from_array packs the bool as it is.  An int64 copy of the
        # bits, as from_array once received, peaked at 18.
        n = 1 << 20
        biased_coin(64, 0.05, 3)   # imports numpy's lazy modules
        tracemalloc.start()
        try:
            biased_coin(n, 0.05, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * n


class TestSyntheticRR:
    def test_intervals_follow_the_fixed_formula(self):
        # The documented shape: baseline 0.9 s, amplitude 0.05 s, period 20
        # beats, noise 0.01 s; clock times are the running sum, to the ms.
        n, seed = 5000, 11
        series = synthetic_rr(SourceSpec(n=n, seed=seed))
        i = np.arange(1, n + 1)
        u = np.random.default_rng(seed).uniform(-0.01, 0.01, n)
        intervals = 0.9 + 0.05 * np.sin(2 * np.pi * i / 20.0) + u
        clock_ms = np.round(np.cumsum(intervals) * 1000).astype(np.int64) % 86_400_000
        assert series.index.tolist() == i.tolist()
        assert series.interval.tobytes() == intervals.tobytes()
        assert series.time.tobytes() == (clock_ms / 1000.0).tobytes()

    def test_seed_determinism(self):
        assert synthetic_rr(SourceSpec(200, seed=3)) == synthetic_rr(SourceSpec(200, seed=3))
        assert synthetic_rr(SourceSpec(200, seed=3)) != synthetic_rr(SourceSpec(200, seed=4))

    def test_records_are_normal_with_ms_times(self):
        series = synthetic_rr(SourceSpec(n=50, seed=0))
        assert all(r.annotation == "N" for r in series.records)
        for r in series.records:
            assert abs(r.time * 1000 - round(r.time * 1000)) < 1e-6
        assert (np.diff(series.elapsed()) > 0).all()

    def test_spec_validation(self):
        # Every series has a beat, so every file synth writes parses back.
        for n in (0, -1):
            with pytest.raises(ValueError, match=f"n must be >= 1, got {n}"):
                SourceSpec(n=n, seed=0)
        # A negative seed is the spec's error, not numpy's.
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            SourceSpec(n=1, seed=-1)

    def test_peak_memory_per_row(self):
        # The returned columns take 29 bytes a row: index, time and interval
        # at 8 each, a 4-byte annotation and the edited flag.  Each float
        # column is built in its own buffer, and only the noise is drawn into
        # a third one; a temporary per term of the formula peaked at 37.
        n = 1 << 17
        synthetic_rr(SourceSpec(n=1, seed=0))   # imports numpy's lazy modules
        tracemalloc.start()
        try:
            synthetic_rr(SourceSpec(n=n, seed=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 30 * n

import numpy as np
import pytest

from svrand.synth import SourceSpec, biased_coin, synthetic_rr
from svrand.transform import discretize_accel


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


def rr_spec(**kw):
    base = dict(n=200, seed=0, baseline=0.9,
                amplitude=0.05, period=20.0, noise=0.01)
    base.update(kw)
    return SourceSpec(**base)


class TestSyntheticRR:
    def test_flat_spec_gives_constant_series(self):
        series = synthetic_rr(rr_spec(amplitude=0.0, noise=0.0))
        assert np.allclose(series.interval, 0.9)
        assert str(discretize_accel(series)) == "0" * 199

    def test_noiseless_bits_are_periodic(self):
        spec = rr_spec(n=400, noise=0.0, period=20.0)
        bits = str(discretize_accel(synthetic_rr(spec)))
        assert bits == bits[:20] * (len(bits) // 20) + bits[:len(bits) % 20]
        # independent oracle: sign pattern of the sine increments
        i = np.arange(1, 401)
        d = 0.9 + 0.05 * np.sin(2 * np.pi * i / 20.0)
        expected = "".join("0" if b >= a else "1" for a, b in zip(d, d[1:]))
        assert bits == expected

    def test_seed_determinism(self):
        assert synthetic_rr(rr_spec(seed=3)) == synthetic_rr(rr_spec(seed=3))
        assert synthetic_rr(rr_spec(seed=3)) != synthetic_rr(rr_spec(seed=4))

    def test_records_are_normal_with_ms_times(self):
        series = synthetic_rr(rr_spec(n=50))
        assert all(r.annotation == "N" for r in series.records)
        for r in series.records:
            assert abs(r.time * 1000 - round(r.time * 1000)) < 1e-6
        assert (np.diff(series.elapsed()) > 0).all()

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            rr_spec(baseline=0.05)  # baseline must exceed amplitude + noise
        with pytest.raises(ValueError):
            rr_spec(period=0.0)
        for field in ("baseline", "amplitude", "period", "noise"):
            for value in (float("nan"), float("inf"), float("-inf")):
                with pytest.raises(ValueError, match="must be finite"):
                    rr_spec(**{field: value})

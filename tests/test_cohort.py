import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from svrand.bitseq import BitSequence
from svrand.cohort import (CohortStats, PersonResult, bucket, merge_persons,
                           quartiles, trim_to_min)
from svrand.estimator import epsilon_profile, max_history
from svrand.ingest import PersonMeta
from svrand.synth import biased_coin


def person(pid, sex, age, weighted):
    """The (meta, weighted epsilon) pair that bucket takes."""
    return PersonMeta(id=pid, sex=sex, age=age), weighted


class TestQuartiles:
    def test_singleton(self):
        assert quartiles([0.2]) == (0.2,) * 5 + (0.2,)

    def test_two_point_median(self):
        q = quartiles([0.1, 0.3])
        assert q[2] == pytest.approx(0.2)
        assert q[0] == 0.1 and q[4] == 0.3

    def test_linear_interpolation(self):
        q0, q1, q2, q3, q4, mean = quartiles([1, 2, 3, 4])
        assert (q1, q3) == (1.75, 3.25)
        assert q2 == 2.5 and mean == 2.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            quartiles([])

    @pytest.mark.parametrize("seed", range(5))
    def test_monotone(self, seed):
        rng = random.Random(seed)
        values = [rng.uniform(0, 0.5) for _ in range(rng.randrange(1, 40))]
        q = quartiles(values)
        assert q[0] <= q[1] <= q[2] <= q[3] <= q[4]
        assert q[0] == min(values) and q[4] == max(values)

    def test_commands_never_load_numpy_ma(self, tmp_path):
        # quartiles stands in for np.percentile, which imports numpy.ma: 10-30
        # ms on every analyze and stats run, against about 8 ms for svrand's
        # own import.  Runs in a subprocess, where no other test loaded it.
        # numpy 1.x imports numpy.ma with numpy itself, so only what the
        # commands add is checked.
        root = Path(__file__).resolve().parents[1]
        script = "\n".join([
            "import sys",
            "import numpy",
            "src, recording, out = sys.argv[1:]",
            "before = 'numpy.ma' in sys.modules",
            "sys.path.insert(0, src)",
            "from svrand.cli import main",
            "assert main(['analyze', recording, '--out', out]) == 0",
            "assert main(['stats', f'{out}/persons.csv', '--out', f'{out}/stats']) == 0",
            "print(before, 'numpy.ma' in sys.modules)"])
        proc = subprocess.run(
            [sys.executable, "-c", script, str(root / "src"),
             str(root / "tests" / "data" / "F_42_221500.txt"), str(tmp_path)],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        before, after = proc.stdout.splitlines()[-1].split()
        assert after == before

    # Signed zeros are drawn often: sorting would order tied 0.0 and -0.0
    # differently from numpy's partition.  The mean of values near the float
    # maximum overflows, as np.mean always did.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                              st.sampled_from([0.0, -0.0, 1.0, -1.0])),
                    min_size=1, max_size=30))
    # Two values whose difference overflows: the interpolation multiplies inf by 0.
    @example([1.7976931348623155e+308, -2.9937604643020797e+292])
    def test_equals_numpy_percentile(self, values):
        # numpy's own interpolation warns on such values too.
        with np.errstate(over="ignore", invalid="ignore"):
            expected = np.percentile(np.asarray(values, dtype=float), [0, 25, 50, 75, 100],
                                     method="linear")
        assert np.array(quartiles(values)[:5]).tobytes() == expected.tobytes()

    def test_mean_whose_sum_overflows(self):
        # Finite values have a finite mean, even where their sum overflows.
        assert quartiles([1e308, 1e308, 1e308]) == pytest.approx((1e308,) * 6)


class TestBucket:
    def test_decade_brackets(self):
        results = [person("a", "F", 19, 0.2), person("b", "F", 25, 0.2),
                   person("c", "F", 25, 0.3), person("d", "F", 34, 0.2)]
        stats, leftover = bucket(results)
        assert [(c.decade, c.count) for c in stats] == [(10, 1), (20, 2), (30, 1)]
        assert leftover == []

    def test_empty(self):
        assert bucket([]) == ([], [])

    def test_five_number_summary(self):
        results = [person(str(k), "M", 42, w) for k, w in enumerate([0.1, 0.2, 0.3])]
        (c,), _ = bucket(results)
        assert (c.q0, c.q2, c.q4) == (0.1, 0.2, 0.3)
        assert c.mean == pytest.approx(0.2)

    def test_unknowns_reported_separately(self):
        results = [person("a", "F", 30, 0.2), person("b", None, 30, 0.2),
                   person("c", "M", None, 0.2), person("d", "M", 50, None)]
        stats, leftover = bucket(results)
        assert sum(c.count for c in stats) == 1
        assert [m.id for m in leftover] == ["b", "c", "d"]

    def test_counts_sum_to_known_persons(self):
        rng = random.Random(2)
        results = [person(str(k), rng.choice("FM"), rng.randrange(19, 90),
                          rng.uniform(0, 0.5)) for k in range(60)]
        stats, leftover = bucket(results)
        assert sum(c.count for c in stats) == 60
        assert leftover == []
        assert stats == sorted(stats, key=lambda c: (c.sex, c.decade))


class TestTrimToMin:
    def test_truncates_to_shortest(self):
        seqs = [biased_coin(n, 0.0, seed=n) for n in (100, 80, 120)]
        trimmed = trim_to_min(seqs)
        assert [len(s) for s in trimmed] == [80, 80, 80]
        assert all(t == s[:80] for t, s in zip(trimmed, seqs))

    def test_single_unchanged(self):
        seq = biased_coin(50, 0.0, seed=1)
        assert trim_to_min([seq]) == [seq]

    def test_empty(self):
        assert trim_to_min([]) == []

    def test_history_bound_recomputed_after_trim(self):
        seqs = trim_to_min([biased_coin(n, 0.0, seed=n) for n in (100, 80, 120)])
        for s in seqs:
            assert epsilon_profile(s).max_h == max_history(80)


class TestMergePersons:
    def test_concatenation(self):
        merged = merge_persons([BitSequence("01"), BitSequence("10")])
        assert str(merged) == "0110"

    def test_empty_list(self):
        assert len(merge_persons([])) == 0

    def test_length_additive(self):
        seqs = [biased_coin(n, 0.0, seed=n) for n in (5, 17, 31)]
        merged = merge_persons(seqs)
        assert len(merged) == 53


class TestValidation:
    def test_person_result_range(self):
        profile = epsilon_profile(biased_coin(100, 0.0, seed=1))
        with pytest.raises(ValueError):
            PersonResult(meta=PersonMeta(id="a"), profile=profile, weighted=0.75,
                         mode_tag="full")

    @pytest.mark.parametrize("weighted", [-0.1, 0.75, float("nan")])
    def test_bucket_rejects_weighted_out_of_range(self, weighted):
        with pytest.raises(ValueError, match="^b: weighted epsilon outside"):
            bucket([person("a", "F", 30, 0.2), person("b", None, None, weighted)])

    def test_cohort_stats_order(self):
        with pytest.raises(ValueError):
            CohortStats(sex="F", decade=20, count=2, q0=0.3, q1=0.2, q2=0.2,
                        q3=0.2, q4=0.2, mean=0.22)
        with pytest.raises(ValueError):
            CohortStats(sex="F", decade=20, count=0, q0=0.1, q1=0.1, q2=0.1,
                        q3=0.1, q4=0.1, mean=0.1)

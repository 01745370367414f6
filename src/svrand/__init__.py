"""Santha-Vazirani randomness assessment for bit sequences and RR-interval data."""

from svrand.bitseq import (BitSequence, CountTable, count_substrings,
                           count_substrings_fast, debruijn)
from svrand.cohort import (CohortStats, PersonResult, bucket, merge_persons,
                           quartiles, trim_to_min)
from svrand.estimator import (EpsilonProfile, epsilon_profile, max_history,
                              weighted_epsilon)
from svrand.ingest import (PersonMeta, RRRecord, RRSeries, edit_perturbations,
                           extract_nocturnal, filter_normal, parse_holter,
                           write_holter)
from svrand.synth import SourceSpec, biased_coin, synthetic_rr
from svrand.transform import (TrendCutPattern, cut_trends, discretize_accel,
                              discretize_mono, discretize_rapid)

__all__ = [
    "BitSequence",
    "CountTable",
    "count_substrings",
    "count_substrings_fast",
    "debruijn",
    "EpsilonProfile",
    "epsilon_profile",
    "max_history",
    "weighted_epsilon",
    "PersonMeta",
    "RRRecord",
    "RRSeries",
    "parse_holter",
    "write_holter",
    "filter_normal",
    "extract_nocturnal",
    "edit_perturbations",
    "TrendCutPattern",
    "discretize_accel",
    "discretize_rapid",
    "discretize_mono",
    "cut_trends",
    "SourceSpec",
    "biased_coin",
    "synthetic_rr",
    "CohortStats",
    "PersonResult",
    "bucket",
    "quartiles",
    "trim_to_min",
    "merge_persons",
]

__version__ = "0.1.0"

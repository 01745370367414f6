"""Command-line front end for the analysis pipeline.

Subcommands: analyze (RR files to epsilon reports), merge (concatenated
analysis of many persons), synth (synthetic RR file), debruijn (print a
De Bruijn sequence), stats (re-aggregate an existing persons CSV).

Exit codes: 0 success, 1 usage error, 2 input error, 3 internal error.
"""

from __future__ import annotations

import argparse
import glob as globlib
import os
import re
import sys
import traceback
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

from svrand.bitseq import BitSequence, debruijn
from svrand.cohort import CohortStats, PersonResult, bucket, merge_persons, trim_to_min
from svrand.estimator import epsilon_profile, loglog_history, weighted_epsilon
from svrand.ingest import (DEFAULT_META_PATTERN, HolterFormatError, PersonMeta,
                           edit_perturbations, extract_nocturnal, filter_normal,
                           parse_holter, write_holter)
from svrand.report import (read_persons_csv, render_cohorts_csv, render_json,
                           render_persons_csv)
from svrand.synth import SourceSpec, synthetic_rr
from svrand.transform import (TrendCutPattern, cut_trends, discretize_accel,
                              discretize_mono, discretize_rapid)

__all__ = ["main", "RunConfig", "run_analysis"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    """Contradictory or malformed options."""


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved analysis settings; all but out_dir are embedded in every report."""

    inputs: tuple[str, ...]
    out_dir: str = "."
    discretizer: str = "accel"
    eta1: float = 0.0
    eta2: float | None = None
    cut: tuple[int, int] | None = None
    counting: str = "linear"  # or "cyclic"
    h: str = "auto"  # "auto", "loglog", or a decimal history length
    force_h: bool = False
    mode: str = "full"
    format: str = "both"
    meta_pattern: str = DEFAULT_META_PATTERN

    def resolved(self) -> dict:
        settings = asdict(self)
        del settings["out_dir"]
        return settings


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; this tool reserves 2 for
    # input errors.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _expand_inputs(patterns: tuple[str, ...]) -> list[str]:
    """Files matched by the patterns, in order; a file matched twice counts once.

    Two different files with the same person id (file stem) are an input
    error, so that no person is counted twice.
    """
    paths: dict[Path, str] = {}
    for pattern in patterns:
        hits = sorted(globlib.glob(pattern))
        if not hits:
            if not Path(pattern).exists():
                raise FileNotFoundError(f"no input matches {pattern!r}")
            hits = [pattern]
        for hit in hits:
            paths.setdefault(Path(hit).resolve(), hit)
    by_id: dict[str, str] = {}
    for path in paths.values():
        other = by_id.setdefault(Path(path).stem, path)
        if other != path:
            raise ValueError(f"person id {Path(path).stem!r} is given by two files: "
                             f"{other} and {path}")
    return list(paths.values())


def _preprocess(series, config: RunConfig):
    if config.mode == "med":
        series = extract_nocturnal(series)
        series = edit_perturbations(series)
    return filter_normal(series)


def _discretize(series, config: RunConfig) -> BitSequence:
    if config.discretizer == "accel":
        return discretize_accel(series, config.eta1)
    if config.discretizer == "rapid":
        return discretize_rapid(series, config.eta2)
    return discretize_mono(series)


def _estimate(meta: PersonMeta, bits: BitSequence, config: RunConfig,
              tag: str) -> PersonResult:
    n = len(bits)
    if n < 2:
        raise ValueError(f"{meta.id}: only {n} bits left after pre-processing")
    if config.h == "auto":
        requested = None
    elif config.h == "loglog":
        requested = loglog_history(n)
    else:
        requested = int(config.h)
    profile = epsilon_profile(bits, requested, mode=config.counting,
                              force_h=config.force_h)
    weighted = None
    try:
        weighted = weighted_epsilon(profile)
    except ValueError as exc:
        warnings.warn(f"{meta.id}: weighted epsilon unavailable: {exc}")
    return PersonResult(meta=meta, profile=profile, weighted=weighted, mode_tag=tag)


def run_analysis(config: RunConfig
                 ) -> tuple[list[PersonResult], list[CohortStats], list[PersonMeta]]:
    """Execute the pipeline: parse, pre-process, discretize, cut, estimate, group."""
    paths = _expand_inputs(config.inputs)
    people: list[tuple[PersonMeta, BitSequence]] = []
    for path in paths:
        meta, series = parse_holter(path, config.meta_pattern)
        series = _preprocess(series, config)
        bits = _discretize(series, config)
        if config.cut is not None:
            bits = cut_trends(bits, TrendCutPattern(*config.cut))
        people.append((meta, bits))

    tag = config.mode
    if config.cut is not None:
        cut_tag = f"cut({config.cut[0]},{config.cut[1]})"
        tag = cut_tag if config.mode == "cut" else f"{config.mode}+{cut_tag}"
    if config.mode == "trim":
        trimmed = trim_to_min([bits for _, bits in people])
        people = [(meta, bits) for (meta, _), bits in zip(people, trimmed)]
    elif config.mode == "merged":
        merged = merge_persons([bits for _, bits in people])
        people = [(PersonMeta(id=f"merged({len(paths)})"), merged)]

    results = [_estimate(meta, bits, config, tag) for meta, bits in people]
    stats, unknown = bucket([(r.meta, r.weighted) for r in results])
    return results, stats, unknown


def _write_reports(out_dir: str, out_format: str, resolved: dict, stats, unknown,
                   results: list[PersonResult] | None = None) -> None:
    """Write the reports and print their paths.

    An analysis passes its person results and gets persons.csv, cohorts.csv
    and report.json; a re-aggregation passes none and gets cohorts.csv and
    cohorts.json.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = []
    if out_format in ("csv", "both"):
        if results is not None:
            files.append(("persons.csv", render_persons_csv(results, resolved)))
        files.append(("cohorts.csv", render_cohorts_csv(stats, resolved)))
    if out_format in ("json", "both"):
        files.append(("report.json" if results is not None else "cohorts.json",
                      render_json(results or [], stats, unknown, resolved)))
    for name, text in files:
        # Written whole or not at all: a failed write leaves any earlier
        # report in place and removes its temporary file.
        path = out / name
        tmp = out / f".{name}.{os.getpid()}.tmp"
        try:
            tmp.write_text(text, encoding="utf-8")
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        print(path)


# cut_trends accepts any run lengths; the command line exposes only these
# symmetric presets.
_CUT_PRESETS = {(3, 3), (4, 4), (5, 5), (6, 6)}


def _parse_cut(text: str) -> tuple[int, int]:
    try:
        i, j = (int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"--cut expects I,J (two integers), got {text!r}") from None
    if (i, j) not in _CUT_PRESETS:
        presets = " ".join(f"{a},{b}" for a, b in sorted(_CUT_PRESETS))
        raise UsageError(f"--cut supports the presets {presets}; got {text!r}")
    return i, j


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    discretizer = args.discretizer or "accel"
    if discretizer != "accel" and args.eta1 is not None:
        raise UsageError(f"--eta1 applies only to the accel discretizer, "
                         f"not {discretizer}")
    if discretizer != "rapid" and args.eta2 is not None:
        raise UsageError(f"--eta2 applies only to the rapid discretizer, "
                         f"not {discretizer}")
    if discretizer == "rapid" and args.eta2 is None:
        raise UsageError("the rapid discretizer requires --eta2")

    cut = _parse_cut(args.cut) if args.cut else None
    mode = args.mode
    if mode is None:
        mode = "cut" if cut is not None else "full"
    if mode == "cut" and cut is None:
        cut = (3, 3)
    if cut is not None and mode not in ("cut", "merged"):
        raise UsageError(f"--cut does not combine with --mode {mode}")

    h = args.h
    if h not in ("auto", "loglog"):
        try:
            h = str(int(h))  # one spelling per length: "05" and "+5" record "5"
            if h.startswith("-"):
                raise ValueError
        except ValueError:
            raise UsageError(
                f"--h must be auto, loglog, or a non-negative integer, "
                f"got {args.h!r}") from None

    try:
        re.compile(args.meta_pattern)
    except re.error as exc:
        raise UsageError(f"--meta-pattern is not a valid regex: {exc}") from None

    return RunConfig(
        inputs=tuple(args.inputs),
        out_dir=args.out,
        discretizer=discretizer,
        eta1=args.eta1 if args.eta1 is not None else 0.0,
        eta2=args.eta2,
        cut=cut,
        counting="cyclic" if args.cyclic else "linear",
        h=h,
        force_h=args.force_h,
        mode=mode,
        format=args.format,
        meta_pattern=args.meta_pattern,
    )


def cmd_analyze(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    results, stats, unknown = run_analysis(config)
    _write_reports(config.out_dir, config.format, config.resolved(), stats, unknown,
                   results)
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    try:
        spec = SourceSpec(n=args.n, seed=args.seed,
                          baseline=args.baseline, amplitude=args.amplitude,
                          period=args.period, noise=args.noise)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    write_holter(synthetic_rr(spec), args.output)
    print(args.output)
    return EXIT_OK


def cmd_debruijn(args: argparse.Namespace) -> int:
    try:
        seq = debruijn(args.order)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    print(seq)
    return EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    rows = read_persons_csv(Path(args.persons_csv).read_text(encoding="utf-8"))
    if not rows:
        raise HolterFormatError(f"{args.persons_csv}: no person rows")
    people = [(PersonMeta(id=row["person_id"], sex=row["sex"] or None,
                          age=int(row["age"]) if row["age"] else None),
               float(row["eps_weighted"]) if row["eps_weighted"] else None)
              for row in rows]
    stats, unknown = bucket(people)
    _write_reports(args.out, args.format, {"inputs": [args.persons_csv], "mode": "stats"},
                   stats, unknown)
    return EXIT_OK


def _add_pipeline_options(parser: argparse.ArgumentParser, with_mode: bool) -> None:
    parser.add_argument("inputs", nargs="+", metavar="FILE",
                        help="annotated RR files (globs allowed)")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--discretizer", choices=["accel", "rapid", "mono"],
                        default=None, help="RR-to-bit rule (default accel)")
    parser.add_argument("--eta1", type=float, default=None,
                        help="offset in seconds for the accel discretizer")
    parser.add_argument("--eta2", type=float, default=None,
                        help="threshold in seconds for the rapid discretizer")
    parser.add_argument("--cut", metavar="I,J", default=None,
                        help="trend-cut run lengths, e.g. 3,3")
    if with_mode:
        parser.add_argument("--mode",
                            choices=["full", "trim", "cut", "med", "merged"],
                            default=None, help="experiment mode (default full)")
    parser.add_argument("--cyclic", action="store_true",
                        help="count substrings with wrap-around")
    parser.add_argument("--h", default="auto",
                        help="max history: auto, loglog, or an integer")
    parser.add_argument("--force-h", action="store_true",
                        help="allow an explicit --h beyond floor(log2 n) - 1")
    parser.add_argument("--format", choices=["csv", "json", "both"],
                        default="both", help="report format(s)")
    parser.add_argument("--meta-pattern", default=DEFAULT_META_PATTERN,
                        help="regex with sex/age/start groups for file names")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="svrand",
                     description="Santha-Vazirani randomness assessment for "
                                 "RR-interval recordings")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("analyze",
                       help="estimate epsilons for RR files")
    _add_pipeline_options(p, with_mode=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("merge",
                       help="analyze the concatenation of all persons")
    _add_pipeline_options(p, with_mode=False)
    p.set_defaults(func=cmd_analyze, mode="merged")

    p = sub.add_parser("synth",
                       help="write a synthetic RR file")
    p.add_argument("output", help="destination file")
    p.add_argument("--n", type=int, default=4096, help="number of beats")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--baseline", type=float, default=0.9,
                   help="mean interval, seconds")
    p.add_argument("--amplitude", type=float, default=0.05,
                   help="sine amplitude, seconds")
    p.add_argument("--period", type=float, default=20.0,
                   help="sine period, beats")
    p.add_argument("--noise", type=float, default=0.01,
                   help="uniform noise half-width, seconds")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("debruijn",
                       help="print the lexicographically least De Bruijn sequence")
    p.add_argument("order", type=int)
    p.set_defaults(func=cmd_debruijn)

    p = sub.add_parser("stats",
                       help="recompute cohort statistics from a persons CSV")
    p.add_argument("persons_csv")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--format", choices=["csv", "json", "both"], default="both")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = lambda msg, *rest, **kw: print(
            f"warning: {msg}", file=sys.stderr)
        try:
            return args.func(args)
        except UsageError as exc:
            print(f"svrand: error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except (HolterFormatError, OSError, ValueError) as exc:
            print(f"svrand: input error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        except Exception:
            traceback.print_exc()
            return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end for the analysis pipeline.

Subcommands: analyze (RR files to epsilon reports, per person or, with
--mode merged, for their concatenation), synth (synthetic RR file),
debruijn (print a De Bruijn sequence), stats (re-aggregate an existing
persons CSV).

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
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from svrand.bitseq import COUNTINGS, BitSequence, debruijn
from svrand.cohort import CohortStats, PersonResult, bucket, merge_persons, trim_to_min
from svrand.estimator import epsilon_profile, loglog_history, weighted_epsilon
from svrand.ingest import (DEFAULT_META_PATTERN, HolterFormatError, PersonMeta,
                           edit_perturbations, extract_nocturnal, filter_normal,
                           parse_holter, write_holter)
from svrand.report import (read_stats_people, render_cohorts_csv, render_json,
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


DISCRETIZERS = ("accel", "rapid", "mono")
MODES = ("full", "trim", "cut", "med", "merged")
FORMATS = ("csv", "json", "both")
# cut_trends accepts any run lengths; a run uses only these symmetric presets.
CUT_PRESETS = ((3, 3), (4, 4), (5, 5), (6, 6))


@dataclass(frozen=True)
class RunConfig:
    """Checked analysis settings, embedded whole in every report.

    Normalised on construction, so that `RunConfig(**asdict(c)) == c`: mode None
    is cut with a cut and full without, mode cut alone cuts (3, 3), and h is a
    plain decimal.  A contradictory or unknown setting is a ValueError.
    """

    inputs: tuple[str, ...]
    discretizer: str = "accel"
    eta1: float = 0.0  # no offset, which goes with any discretizer
    eta2: float | None = None
    cut: tuple[int, int] | None = None
    counting: str = "linear"
    h: str = "auto"  # "auto", "loglog", or a decimal history length
    force_h: bool = False
    mode: str | None = None
    format: str = "both"
    meta_pattern: str = DEFAULT_META_PATTERN

    def __post_init__(self):
        if not self.inputs or isinstance(self.inputs, str):
            raise ValueError(f"inputs must be a non-empty sequence of file patterns, "
                             f"got {self.inputs!r}")
        object.__setattr__(self, "inputs", tuple(self.inputs))
        if self.mode is None:
            object.__setattr__(self, "mode", "full" if self.cut is None else "cut")
        for name, domain in (("discretizer", DISCRETIZERS), ("counting", COUNTINGS),
                             ("mode", MODES), ("format", FORMATS)):
            if (value := getattr(self, name)) not in domain:
                raise ValueError(f"{name} must be one of {', '.join(domain)}, got {value!r}")
        if self.discretizer != "accel" and self.eta1 != 0.0:
            raise ValueError(f"--eta1 applies only to the accel discretizer, "
                             f"not {self.discretizer}")
        if self.discretizer != "rapid" and self.eta2 is not None:
            raise ValueError(f"--eta2 applies only to the rapid discretizer, "
                             f"not {self.discretizer}")
        if self.discretizer == "rapid" and self.eta2 is None:
            raise ValueError("the rapid discretizer requires --eta2")
        if self.cut is not None:
            object.__setattr__(self, "cut", tuple(self.cut))
            if self.cut not in CUT_PRESETS:
                presets = " ".join(f"{i},{j}" for i, j in CUT_PRESETS)
                given = ",".join(map(str, self.cut))
                raise ValueError(f"--cut supports the presets {presets}; got {given!r}")
        elif self.mode == "cut":
            object.__setattr__(self, "cut", (3, 3))
        if self.cut is not None and self.mode not in ("cut", "merged"):
            raise ValueError(f"--cut does not combine with --mode {self.mode}")
        if self.h not in ("auto", "loglog"):
            try:
                h = str(int(str(self.h)))  # one spelling: "05" and "+5" record "5"
                if h.startswith("-"):
                    raise ValueError
            except ValueError:
                raise ValueError(f"--h must be auto, loglog, or a non-negative integer, "
                                 f"got {self.h!r}") from None
            object.__setattr__(self, "h", h)
        try:
            re.compile(self.meta_pattern)
        except re.error as exc:
            raise ValueError(f"--meta-pattern is not a valid regex: {exc}") from None

    @property
    def tag(self) -> str:
        """The experiment's name in the person rows: the mode, joined by the cut."""
        if self.cut is None:
            return self.mode
        cut = f"cut({self.cut[0]},{self.cut[1]})"
        return cut if self.mode == "cut" else f"{self.mode}+{cut}"


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; this tool reserves 2 for
    # input errors.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _expand_inputs(patterns: tuple[str, ...]) -> list[str]:
    """Files named by the patterns, in order; a file named twice counts once.

    A pattern naming an existing path is that path; any other is a glob.
    Two files with the same person id (file stem) are an input error, so
    that no person is counted twice.
    """
    paths: dict[Path, str] = {}
    for pattern in patterns:
        hits = [pattern] if Path(pattern).exists() else sorted(globlib.glob(pattern))
        if not hits:
            raise FileNotFoundError(f"no input matches {pattern!r}")
        for hit in hits:
            paths.setdefault(Path(hit).resolve(), hit)
    by_id: dict[str, str] = {}
    for path in paths.values():
        other = by_id.setdefault(Path(path).stem, path)
        if other != path:
            raise ValueError(f"person id {Path(path).stem!r} is given by two files: "
                             f"{other} and {path}")
    return list(paths.values())


def _person_bits(path: str, config: RunConfig) -> tuple[PersonMeta, BitSequence]:
    """One recording's identity and bits: parse, in med mode the nocturnal
    window and then editing, the normal beats, the discretizer, the cut."""
    meta, series = parse_holter(path, config.meta_pattern)
    try:
        if config.mode == "med":
            series = edit_perturbations(extract_nocturnal(series))
        series = filter_normal(series)
        if config.discretizer == "accel":
            bits = discretize_accel(series, config.eta1)
        elif config.discretizer == "rapid":
            bits = discretize_rapid(series, config.eta2)
        else:
            bits = discretize_mono(series)
        if config.cut is not None:
            bits = cut_trends(bits, TrendCutPattern(*config.cut))
    except ValueError as exc:
        raise ValueError(f"{meta.id}: {exc}") from exc
    return meta, bits


def _estimate(meta: PersonMeta, bits: BitSequence, config: RunConfig) -> PersonResult:
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
    return PersonResult(meta=meta, profile=profile, weighted=weighted, mode_tag=config.tag)


def run_analysis(config: RunConfig
                 ) -> tuple[list[PersonResult], list[CohortStats], list[PersonMeta]]:
    """Execute the pipeline: parse, pre-process, discretize, cut, estimate, group."""
    metas, bits = zip(*(_person_bits(p, config) for p in _expand_inputs(config.inputs)))
    if config.mode == "trim":
        bits = trim_to_min(bits)
    elif config.mode == "merged":
        metas, bits = [PersonMeta(id=f"merged({len(bits)})")], [merge_persons(bits)]
    results = [_estimate(meta, b, config) for meta, b in zip(metas, bits)]
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
    # Every report goes to a temporary file before any is renamed, so a
    # failed write leaves the earlier set of reports whole; no temporary
    # file is left behind.
    staged = []
    try:
        for name, text in files:
            tmp = out / f".{name}.{os.getpid()}.tmp"
            staged.append((tmp, out / name))
            tmp.write_text(text, encoding="utf-8")
        for tmp, path in staged:
            os.replace(tmp, path)
    finally:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
    for _, path in staged:
        print(path)


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    # The analyze parser holds only the options given: RunConfig states the defaults.
    settings = {f.name: getattr(args, f.name) for f in fields(RunConfig) if f.name in args}
    if "cut" in settings:
        try:
            i, j = (int(part) for part in args.cut.split(","))
        except ValueError:
            raise UsageError(f"--cut expects I,J (two integers), got {args.cut!r}") from None
        settings["cut"] = (i, j)
    try:
        return RunConfig(**settings)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_analyze(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    results, stats, unknown = run_analysis(config)
    _write_reports(args.out, config.format, asdict(config), stats, unknown, results)
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    try:
        spec = SourceSpec(n=args.n, seed=args.seed)
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
    people = read_stats_people(Path(args.persons_csv).read_text(encoding="utf-8"))
    if not people:
        raise HolterFormatError(f"{args.persons_csv}: no person rows")
    stats, unknown = bucket(people)
    _write_reports(args.out, args.format, {"inputs": [args.persons_csv], "mode": "stats"},
                   stats, unknown)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="svrand",
                     description="Santha-Vazirani randomness assessment for "
                                 "RR-interval recordings")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("analyze", argument_default=argparse.SUPPRESS,
                       help="estimate epsilons for RR files")
    p.add_argument("inputs", nargs="+", metavar="FILE",
                   help="annotated RR files (globs allowed)")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--discretizer", choices=DISCRETIZERS,
                   help=f"RR-to-bit rule (default {RunConfig.discretizer})")
    p.add_argument("--eta1", type=float,
                   help="offset in seconds for the accel discretizer")
    p.add_argument("--eta2", type=float,
                   help="threshold in seconds for the rapid discretizer")
    p.add_argument("--cut", metavar="I,J", help="trend-cut run lengths, e.g. 3,3")
    p.add_argument("--mode", choices=MODES,
                   help="experiment mode (default full, or cut with --cut)")
    p.add_argument("--cyclic", dest="counting", action="store_const", const="cyclic",
                   help="count substrings with wrap-around")
    p.add_argument("--h", help="max history: auto, loglog, or an integer")
    p.add_argument("--force-h", action="store_true",
                   help="allow an explicit --h beyond floor(log2 n) - 1")
    p.add_argument("--format", choices=FORMATS, help="report format(s)")
    p.add_argument("--meta-pattern", help="regex with sex/age groups for file names")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("synth",
                       help="write a synthetic RR file")
    p.add_argument("output", help="destination file")
    p.add_argument("--n", type=int, default=4096, help="number of beats")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("debruijn",
                       help="print the lexicographically least De Bruijn sequence")
    p.add_argument("order", type=int)
    p.set_defaults(func=cmd_debruijn)

    p = sub.add_parser("stats",
                       help="recompute cohort statistics from a persons CSV")
    p.add_argument("persons_csv")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--format", choices=FORMATS, default="both")
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

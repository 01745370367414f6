"""Spans around svrand's public functions, recorded from outside the package.

`Tracer.install` replaces each listed function, wherever an svrand module
holds a reference to it, with a wrapper that records a span: name, start,
end, parent span and the id of the operation it belongs to.  Spans stay in
memory until the caller writes them out.  Counts are taken from arguments
and results after the span has ended; the time they take is recorded as a
`trace` span so that it is charged to tracing, not to a layer.

`summarise` turns spans into per-layer self times and totals of counts.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict


def _count_parse(args, kwargs, result, add):
    source = args[0] if args else kwargs.get("source")
    if isinstance(source, (str, os.PathLike)):   # the outer call of the recursion
        add("ingest.records_parsed", len(result[1]))
        add("ingest.bytes_parsed", os.path.getsize(source))


def _count_filter(args, kwargs, result, add):
    add("ingest.records_filtered_in", len(args[0]))
    add("ingest.records_kept", len(result))


def _count_nocturnal(args, kwargs, result, add):
    add("ingest.window_records", len(result))


def _count_edit(args, kwargs, result, add):
    add("ingest.records_edited", sum(1 for r in result.records if r.edited))
    add("ingest.edit_in", len(args[0]))
    add("ingest.edit_out", len(result))


def _count_write(args, kwargs, result, add):
    dest = args[1] if len(args) > 1 else kwargs.get("dest")
    if isinstance(dest, (str, os.PathLike)):
        add("ingest.bytes_written", os.path.getsize(dest))


def _count_synth(args, kwargs, result, add):
    add("synth.records", len(result))


def _count_discretize(args, kwargs, result, add):
    add("transform.bits_out", len(result))


def _count_cut(args, kwargs, result, add):
    add("transform.cut_in", len(args[0]))
    add("transform.cut_out", len(result))


def _count_table(args, kwargs, result, add):
    n, length = result.source_len, result.max_len
    cyclic = result.mode == "cyclic"
    # Computed from sizes: windows of every length 1..L, and the table cells.
    add("bitseq.windows_counted",
        sum(n if cyclic else max(n - h + 1, 0) for h in range(1, length + 1)))
    add("bitseq.table_entries", (1 << (length + 1)) - 2, keep="max")
    top = result.level(length)
    add("bitseq.table_nonzero", int((top != 0).sum()))
    add("bitseq.table_top", top.size)


def _count_profile(args, kwargs, result, add):
    add("estimator.histories", (1 << (result.max_h + 1)) - 1)   # computed


def _count_bucket(args, kwargs, result, add):
    add("cohort.persons", len(args[0]))


def _count_render(args, kwargs, result, add):
    add("report.bytes", len(result.encode("utf-8")))


# (module, attribute, span name, counter)
TARGETS = [
    ("svrand.cli", "main", "cli.main", None),
    ("svrand.ingest", "parse_holter", "ingest.parse", _count_parse),
    ("svrand.ingest", "filter_normal", "ingest.filter", _count_filter),
    ("svrand.ingest", "extract_nocturnal", "ingest.nocturnal", _count_nocturnal),
    ("svrand.ingest", "edit_perturbations", "ingest.edit", _count_edit),
    ("svrand.ingest", "write_holter", "ingest.write", _count_write),
    ("svrand.synth", "synthetic_rr", "synth.rr", _count_synth),
    ("svrand.transform", "discretize_accel", "transform.discretize", _count_discretize),
    ("svrand.transform", "discretize_rapid", "transform.discretize", _count_discretize),
    ("svrand.transform", "discretize_mono", "transform.discretize", _count_discretize),
    ("svrand.transform", "cut_trends", "transform.cut", _count_cut),
    ("svrand.bitseq", "BitSequence.from_array", "bitseq.from_array", None),
    ("svrand.bitseq", "count_substrings", "bitseq.count", _count_table),
    ("svrand.bitseq", "count_substrings_fast", "bitseq.count", _count_table),
    ("svrand.estimator", "epsilon_profile", "estimator.profile", _count_profile),
    ("svrand.estimator", "weighted_epsilon", "estimator.weighted", None),
    ("svrand.cohort", "bucket", "cohort.bucket", _count_bucket),
    ("svrand.report", "render_persons_csv", "report.render", _count_render),
    ("svrand.report", "render_cohorts_csv", "report.render", _count_render),
    ("svrand.report", "render_json", "report.render", _count_render),
]


class Tracer:
    """Collects spans and counts for one process."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op: str | None = None
        self._stack: list[int] = []

    def _add(self, key: str, value: float, keep: str = "sum") -> None:
        if keep == "max":
            self.counts[key] = max(self.counts[key], value)
        else:
            self.counts[key] += value

    def _span(self, name: str, start: float, end: float, parent) -> int:
        self.spans.append({"name": name, "start": start, "end": end,
                           "parent": parent, "op": self.op})
        return len(self.spans) - 1

    def wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            idx = self._span(name, time.perf_counter(), None, parent)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx]["end"] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                start = time.perf_counter()
                counter(args, kwargs, result, self._add)
                self._span("trace", start, time.perf_counter(), parent)
            return result
        return traced

    def install(self) -> None:
        """Wrap every target in every loaded svrand module that refers to it."""
        import svrand.cli  # noqa: F401  (loads every svrand module)
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "svrand"]
        for module_name, attr, name, counter in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth].__func__
                setattr(cls, meth, classmethod(self.wrap(name, original, counter)))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)


def summarise(spans: list[dict]) -> dict[str, float]:
    """Self time per span name (`<name>_s`), plus inclusive estimator.profile time."""
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = defaultdict(float)
    for idx, s in enumerate(spans):
        out[s["name"] + "_s"] += s["end"] - s["start"] - child_time[idx]
        if s["name"] == "estimator.profile":
            out["estimator.inclusive_s"] += s["end"] - s["start"]
    return out

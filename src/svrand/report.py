"""CSV and JSON report rendering.

`PERSON_FIELDS` and `COHORT_FIELDS` are the one statement of the report schema:
a row's fields in CSV column order, each as (key, how to read it[, CSV marker]).
A marker prefix spreads a list over <prefix>0.. columns, padded with empty cells
to the widest list; a None marker keeps the field out of the CSV.  Every format
is written from them, floats at 6 significant digits, with the resolved run
configuration: a "config" object in the JSON, a leading comment line in a CSV.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import fields
from itertools import zip_longest
from operator import attrgetter
from typing import Sequence

from svrand.cohort import CohortStats, PersonResult
from svrand.ingest import PersonMeta

__all__ = [
    "fmt6",
    "render_persons_csv",
    "render_cohorts_csv",
    "render_json",
    "read_stats_people",
]

PERSON_FIELDS = [
    ("person_id", attrgetter("meta.id")),
    ("sex", attrgetter("meta.sex")),
    ("age", attrgetter("meta.age")),
    ("mode", attrgetter("mode_tag")),
    ("n_bits", attrgetter("profile.n")),
    ("H", attrgetter("profile.max_h")),
    ("epsilons", lambda r: list(r.profile.epsilons), "eps_"),
    ("eps_weighted", attrgetter("weighted")),
    ("h_clamped", lambda r: bool(r.profile.clamped), None),
    ("h_forced", lambda r: bool(r.profile.forced), None),
]
COHORT_FIELDS = [(f.name, attrgetter(f.name)) for f in fields(CohortStats)]
STATS_COLUMNS = ("person_id", "sex", "age", "eps_weighted")  # what `stats` reads


def fmt6(x: float | None) -> str:
    """Render a value at 6 significant digits; None becomes the empty cell."""
    return "" if x is None else format(x, ".6g")


def _cell(v):
    """A CSV cell: floats at 6 significant digits, None empty."""
    return fmt6(v) if v is None or isinstance(v, float) else v


def _value(v):
    """A JSON value: floats at 6 significant digits, also inside lists."""
    if isinstance(v, list):
        return [_value(x) for x in v]
    return float(fmt6(v)) if isinstance(v, float) else v


def _columns(spec, rows):
    """Each CSV column of the rows as (name, values), by the spec's markers."""
    for key, get, *marker in spec:
        values = [get(row) for row in rows]
        if not marker:
            yield key, values
        elif marker[0] is not None:
            yield from ((f"{marker[0]}{h}", c) for h, c in enumerate(zip_longest(*values)))


def _csv(config: dict, spec, rows) -> str:
    """The config comment, the header, then one line of cells per row."""
    header, columns = zip(*_columns(spec, rows))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [_cell(v) for v in line] for line in [header, *zip(*columns)])
    return "# config " + json.dumps(config, sort_keys=True) + "\n" + buf.getvalue()


def render_persons_csv(results: Sequence[PersonResult], config: dict) -> str:
    """Per-person table: identity, mode, size, and the epsilon columns."""
    return _csv(config, PERSON_FIELDS, results)


def render_cohorts_csv(stats: Sequence[CohortStats], config: dict) -> str:
    return _csv(config, COHORT_FIELDS, stats)


def render_json(results: Sequence[PersonResult], stats: Sequence[CohortStats],
                unknown: Sequence[PersonMeta], config: dict) -> str:
    doc = {name: [{key: _value(get(row)) for key, get, *_ in spec} for row in rows]
           for name, spec, rows in (("persons", PERSON_FIELDS, results),
                                    ("cohorts", COHORT_FIELDS, stats))}
    doc.update(config=config, unknown_metadata=[m.id for m in unknown])
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _number(kind, row: dict, name: str):
    """A cell as an int or a float; the empty cell is None."""
    try:
        return kind(row[name]) if row[name] else None
    except ValueError:
        raise ValueError(f"{name} must be {'an integer' if kind is int else 'a number'}, "
                         f"got {row[name]!r}") from None


def read_stats_people(text: str) -> list[tuple[PersonMeta, float | None]]:
    """Each person's identity and weighted epsilon, from the STATS_COLUMNS of a
    persons CSV.  A missing column, or a row that repeats a person_id or does not
    fit the header, `PersonMeta` or a number, is a ValueError; a row's names its line."""
    lines = list(io.StringIO(text, newline=""))  # a quoted cell may hold a line break
    skip = next((i for i, ln in enumerate(lines) if not ln.startswith("#")), len(lines))
    reader = csv.reader(lines[skip:])
    header = next(reader, [])
    missing = [name for name in STATS_COLUMNS if name not in header]
    if missing:
        raise ValueError(f"persons table lacks the column(s) {', '.join(missing)}")
    people, seen = [], {}
    for cells in filter(None, reader):  # blank lines hold no row
        where = f"persons table line {skip + reader.line_num}"
        if len(cells) != len(header):
            raise ValueError(f"{where}: {len(cells)} cells, the header has {len(header)}")
        row = dict(zip(header, cells))
        if (first := seen.setdefault(row["person_id"], reader.line_num)) != reader.line_num:
            raise ValueError(f"{where}: person id {row['person_id']!r} repeats line {skip + first}")
        try:
            people.append((PersonMeta(id=row["person_id"], sex=row["sex"] or None,
                                      age=_number(int, row, "age")),
                           _number(float, row, "eps_weighted")))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    return people

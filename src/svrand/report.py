"""CSV and JSON report rendering.

Each person and each cohort is one row of named fields; the CSVs and the JSON
are both written from it, floats at 6 significant digits.  Both embed the
resolved run configuration: the JSON as a "config" object, the CSVs as a
leading comment line.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, fields
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

COHORT_FIELDS = [f.name for f in fields(CohortStats)]
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


def _person(r: PersonResult) -> dict:
    """One person's report fields, in CSV column order."""
    p = r.profile
    return {"person_id": r.meta.id, "sex": r.meta.sex, "age": r.meta.age,
            "mode": r.mode_tag, "n_bits": p.n, "H": p.max_h,
            "epsilons": list(p.epsilons), "eps_weighted": r.weighted,
            "h_clamped": bool(p.clamped), "h_forced": bool(p.forced)}


def _table(config: dict, header: Sequence[str], rows) -> str:
    """The config comment, the header, then one line of cells per row."""
    buf = io.StringIO()
    buf.write("# config " + json.dumps(config, sort_keys=True) + "\n")
    csv.writer(buf, lineterminator="\n").writerows(
        [_cell(v) for v in row] for row in [header, *rows])
    return buf.getvalue()


def _csv_columns(person: dict, width: int) -> dict:
    """A person's CSV cells by column: the epsilons padded with None over
    eps_0..eps_{width-1}; the h flags are JSON-only."""
    columns = {}
    for name, value in person.items():
        if name == "epsilons":
            columns.update((f"eps_{h}", e) for h, e in
                           enumerate(value + [None] * (width - len(value))))
        elif name not in ("h_clamped", "h_forced"):
            columns[name] = value
    return columns


def render_persons_csv(results: Sequence[PersonResult], config: dict) -> str:
    """Per-person table: identity, mode, size, and the epsilon columns."""
    width = max((r.profile.max_h + 1 for r in results), default=0)
    rows = [_csv_columns(_person(r), width) for r in results]
    return _table(config, list(rows[0]) if rows else [], [row.values() for row in rows])


def render_cohorts_csv(stats: Sequence[CohortStats], config: dict) -> str:
    return _table(config, COHORT_FIELDS, [asdict(c).values() for c in stats])


def render_json(results: Sequence[PersonResult], stats: Sequence[CohortStats],
                unknown: Sequence[PersonMeta], config: dict) -> str:
    doc = {
        "config": config,
        "persons": [{k: _value(v) for k, v in _person(r).items()} for r in results],
        "cohorts": [{k: _value(v) for k, v in asdict(c).items()} for c in stats],
        "unknown_metadata": [m.id for m in unknown],
    }
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

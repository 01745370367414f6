import csv
import io

import pytest

from svrand.ingest import RRRecord, RRSeries


def read_rows(text):
    """The rows of a rendered CSV report as dicts of cells, after its config line."""
    _, table = text.split("\n", 1)
    return list(csv.DictReader(io.StringIO(table, newline="")))


@pytest.fixture
def make_series():
    """Build an RRSeries from intervals, with times accumulated from midnight."""

    def build(intervals, annotations=None, start=0.0):
        if annotations is None:
            annotations = ["N"] * len(intervals)
        records = []
        t = start
        for k, (iv, ann) in enumerate(zip(intervals, annotations), start=1):
            t += iv
            records.append(RRRecord(index=k, time=round(t, 3) % 86400.0,
                                    interval=iv, annotation=ann))
        return RRSeries(tuple(records))

    return build

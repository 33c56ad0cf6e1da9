"""The trace writer as it was before traces were written a column at a time:
the differential oracle of ``tests/test_writers.py``.

It merges the AO, HO and AH series through a dict keyed on ``float(t)``,
formats cell by cell with ``_cell`` and writes through ``csv.writer``.
``json_text`` is how ``touchdist.json`` was written.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Optional, Union

from opgaze.features import build_distance_series
from opgaze.session import Hotspot, OperationUnit, Session


def _cell(value: Union[None, float, int, str]) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def trace_text(s: Session, ou: OperationUnit, hotspot: Hotspot) -> str:
    series = {
        kind: build_distance_series(s, ou, hotspot, kind, "OU")
        for kind in ("AO", "HO", "AH")
    }
    by_t: dict[float, list[Optional[float]]] = {
        float(t): [None, None, None] for t in series["AO"].times
    }
    for col, kind in enumerate(("AO", "HO", "AH")):
        for t, v in zip(series[kind].times, series[kind].values):
            by_t.setdefault(float(t), [None, None, None])[col] = float(v)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("t", "d_ao", "d_ho", "d_ah"))
    for row in [[t] + by_t[t] for t in sorted(by_t)]:
        writer.writerow([_cell(v) for v in row])
    return buf.getvalue()


def json_text(obj: object) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
